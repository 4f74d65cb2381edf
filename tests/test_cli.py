"""End-to-end tests of the command-line harness."""

import csv
import dataclasses
import inspect
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdsic
from fdsic.analysis import BudgetInput, suppression_budget, verify_harmonics
from fdsic.cancellers import DEFAULT_SPECS, ORDER_FIELDS, CancellerMethod
from fdsic import cli
from fdsic.cli import _parse_powers, main
from fdsic.impairments import config_to_dict, save_config, simulate_received
from fdsic.presets import PRESET_NAMES, PRESETS, TONE_AMPLITUDE, TONE_FREQ, load_preset
from fdsic.signals import FRAME_LEN, SAMPLE_RATE, gen_tone, write_iq
from fdsic.spectral import spectrum


class TestPowerGridParsing:
    def test_range(self):
        assert _parse_powers("-10:22:4") == [-10, -6, -2, 2, 6, 10, 14, 18, 22]

    def test_single(self):
        assert _parse_powers("5") == [5.0]


COMMANDS = {
    "sweep": ["sweep", "--powers", "22", "--frames", "4"],
    "tone-test": ["tone-test", "--segments", "2"],
}


def _set(*path, value):
    """The edit of a saved configuration that sets the entry at ``path`` to ``value``."""
    *parents, last = path

    def edit(data):
        node = data
        for step in parents:
            node = node[step]
        node[last] = value
        return data

    return edit


def _config_row(command, preset, edit, line, flags=()):
    """``command`` and ``flags`` run on ``preset``'s saved configuration after ``edit``."""
    def write(tmp):
        (tmp / "cfg.json").write_text(json.dumps(edit(config_to_dict(load_preset(preset)))))

    return [*COMMANDS[command], "--config", "{tmp}/cfg.json", *flags], line, write


def _capture_row(header, line, flags=()):
    """``spectrum`` and ``flags`` of an 8192-sample tone whose sidecar reads ``header``."""
    def write(tmp):
        write_iq(gen_tone(TONE_FREQ, 1.0, 8192), tmp / "tone.iq")
        (tmp / "tone.iq.hdr").write_text(header)

    return ["spectrum", "--input", "{tmp}/tone.iq", *flags], line, write


SWEEP = ["sweep", "--preset", "sweep_55db"]
TONE = ["tone-test", "--preset", "fig5_m10dbm"]
OVERFLOW = (
    "the digitized received signal is not finite: the configuration overflows the impairment chain"
)
WRONG_TYPE = "configuration value has the wrong type: "
NEEDS_BOOL = "must be numeric, not true or false, got"
HEADER = "header {tmp}/tone.iq.hdr "

# Every documented failure of the command line: name -> (argv, line, write).
# Each ends in exit 1, the one stderr line "error: <line>", nothing on
# stdout and no --out folder. "{tmp}" in argv and line is the test's own
# folder, where ``write``, if given, first writes the row's input files.
BAD_INPUTS = {
    # Flags of sweep.
    "sweep-power-out-of-range": (
        [*SWEEP, "--powers", "99"], "--powers must lie in [-10, 22] dBm, got 99", None
    ),
    "sweep-power-above-range": (
        [*SWEEP, "--powers", "23"], "--powers must lie in [-10, 22] dBm, got 23", None
    ),
    "sweep-powers-start-below-range": (
        [*SWEEP, "--powers=-20:22:4"], "--powers must lie in [-10, 22] dBm, got -20", None
    ),
    "sweep-powers-nan-step": (
        [*SWEEP, "--powers=-10:22:nan"], "--powers must be finite, got '-10:22:nan'", None
    ),
    "sweep-powers-unparsable": (
        [*SWEEP, "--powers=abc"], "--powers must be numbers in dBm, got 'abc'", None
    ),
    "sweep-empty-grid": (
        [*SWEEP, "--powers", "10:-10:1"], "--powers grid '10:-10:1' is empty", None
    ),
    "sweep-powers-two-parts": (
        [*SWEEP, "--powers", "1:2"], "--powers must be 'a:b:step' or a single value, got '1:2'",
        None,
    ),
    "sweep-powers-zero-step": (
        [*SWEEP, "--powers", "1:2:0"], "--powers step must be at least 0.001 dB, got '1:2:0'",
        None,
    ),
    **{
        f"sweep-unknown-method-{name}": (
            [*SWEEP, "--methods", name],
            f"unknown canceller method {name!r}; valid: linear, nonlinear, widely-linear, "
            "joint-dac-iq",
            None,
        )
        for name in ("bogus", "volterra")
    },
    "sweep-empty-method-list": ([*SWEEP, "--methods", ","], "method list is empty", None),
    "sweep-method-named-twice": (
        [*SWEEP, "--methods", "linear,linear"], "--methods names 'linear' more than once", None
    ),
    "sweep-method-spelled-twice": (
        [*SWEEP, "--methods", "nonlinear,linear,NonLinear"],
        "--methods names 'nonlinear' more than once",
        None,
    ),
    "sweep-no-frames": ([*SWEEP, "--frames", "0"], "--frames must be >= 1, got 0", None),
    "sweep-no-taps": ([*SWEEP, "--channel-len", "0"], "--channel-len must be >= 1, got 0", None),
    "sweep-single-frame": (
        [*SWEEP, "--frames", "1"],
        "a comparison needs at least 2 frames (one to train, one held out), got 1",
        None,
    ),
    # 300 DAC orders on 2 rails at 32 taps need 76 800 training rows.
    "sweep-model-too-large": (
        [*SWEEP, "--frames", "4", "--powers", "22", "--methods", "joint-dac-iq",
         "--m-max", "300"],
        "training length 8192 must be >= 4 * (bases * taps) = 76800",
        None,
    ),
    # Flags of tone-test.
    "tone-test-power-above-range": (
        [*TONE, "--power", "23"], "--power must lie in [-10, 22] dBm, got 23", None
    ),
    "tone-test-power-nan": (
        [*TONE, "--power", "nan"], "--power must lie in [-10, 22] dBm, got nan", None
    ),
    "tone-test-no-segments": ([*TONE, "--segments", "0"], "--segments must be >= 1, got 0", None),
    "tone-test-no-fft-bins": ([*TONE, "--n-fft", "0"], "--n-fft must be >= 2, got 0", None),
    # Both negative, with a product that would pass as a length.
    "tone-test-negative-sizes": (
        [*TONE, "--n-fft", "-2", "--segments", "-3"], "--n-fft must be >= 2, got -2", None
    ),
    "tone-test-no-orders": ([*TONE, "--segments", "2", "--m-max", "0"], "m_max must be >= 1", None),
    "tone-test-off-grid-freq": (
        [*TONE, "--freq", "1.255e6"],
        "tone frequency 1255000.0 Hz is off the analysis bin grid (nearest bin 5e+03 Hz away); "
        "coherent placement required",
        None,
    ),
    "tone-test-order-outside-band": (
        [*TONE, "--segments", "2", "--freq=30e6"],
        "harmonic order 2 lies at -6e+07 Hz, outside the sampled band +-4e+07 Hz",
        None,
    ),
    "tone-test-at-dc": (
        [*TONE, "--segments", "2", "--freq=0"],
        "tone frequency must be finite and nonzero, got 0.0 Hz",
        None,
    ),
    "tone-test-nan-margin": (
        [*TONE, "--segments", "2", "--margin=nan"], "margin_db must be finite, got nan", None
    ),
    "tone-test-no-source": (["tone-test"], "one of --preset or --config is required", None),
    # Taken modulo 2**64, these seeds would draw the streams of 2**64 - 1 and of 0.
    **{
        f"{argv[0]}-seed-{seed}": (
            [*argv, "--seed", seed], f"seed must be in [0, 2**64), got {seed}", None
        )
        for argv in (SWEEP, TONE)
        for seed in ("-1", "18446744073709551616")
    },
    # Neither source silently wins, even when the config path is missing.
    **{
        f"{command}-preset-and-config": (
            [*COMMANDS[command], "--preset", "sweep_55db", "--config", "{tmp}/missing.json"],
            "--preset and --config are mutually exclusive; give one",
            None,
        )
        for command in COMMANDS
    },
    # Flags of budget.
    "budget-papr-below-zero": (
        ["budget", "--papr", "-1000"], "papr_headroom_db must be >= 0, got -1000.0", None
    ),
    **{
        f"budget-dynamic-range-{value}": (
            ["budget", "--adc-dynamic-range", value],
            f"adc_dynamic_range_db must be positive, got {float(value)}",
            None,
        )
        for value in ("0", "-5")
    },
    # Captures of spectrum.
    "spectrum-missing-input": (
        ["spectrum", "--input", "{tmp}/nope.iq"], "missing sidecar header {tmp}/nope.iq.hdr", None
    ),
    "spectrum-no-fft-bins": _capture_row(
        "format=iq-float64-le-interleaved\nsample_rate_hz=80000000.0\nlength=8192\n",
        "--n-fft must be >= 2, got 0", flags=["--n-fft", "0"],
    ),
    "spectrum-float32-format": _capture_row(
        "format=iq-float32-le-interleaved\nsample_rate_hz=80000000.0\nlength=8192\n",
        HEADER + "field 'format' must be 'iq-float64-le-interleaved', "
        "got 'iq-float32-le-interleaved'",
    ),
    "spectrum-no-format": _capture_row(
        "sample_rate_hz=80000000.0\nlength=8192\n", HEADER + "is missing key 'format'"
    ),
    "spectrum-no-rate": _capture_row("length=8192\n", HEADER + "is missing key 'sample_rate_hz'"),
    "spectrum-rate-not-a-number": _capture_row(
        "sample_rate_hz=fast\nlength=8192\n",
        HEADER + "field 'sample_rate_hz' is not numeric: 'fast'",
    ),
    **{
        f"spectrum-rate-{rate}": _capture_row(
            f"sample_rate_hz={rate}\nlength=8192\n",
            HEADER + f"field 'sample_rate_hz' must be finite and positive, got '{rate}'",
        )
        for rate in ("inf", "1e400")
    },
    # Configurations of finite values whose samples overflow the chain:
    # the amplifier, the DAC, the transmit mixer and the SI channel.
    **{
        f"{command}-overflow-{section}.{key}": _config_row(
            command, "sweep_55db", _set(section, key, value=value), OVERFLOW
        )
        for command in COMMANDS
        for section, key, value in [
            ("pa", "coeffs_odd", [1.0, 0.0, 1e300]),
            ("dac", "coeffs_i", [1.0, 0.0, 1e308]),
            ("tx_iq", "gamma", [[1e308, 0.0], [1e308, 0.0]]),
            ("chan", "h_si", [[1e308, 0.0], [1e308, 0.0]]),
        ]
    },
    # 20 000 samples outlast both commands' signals.
    **{
        f"{command}-delay-past-signal": _config_row(
            command, "sweep_55db", _set("pn", "delay_samples", value=20000),
            f"delay_samples (20000) must not exceed the signal length ({length} samples)",
        )
        for command, length in (("sweep", 16384), ("tone-test", 8192))
    },
    "tone-test-delay-past-short-signal": _config_row(
        "tone-test", "fig5_m10dbm", _set("pn", "delay_samples", value=5000),
        "delay_samples (5000) must not exceed the signal length (4096 samples)",
        flags=["--n-fft", "4096", "--segments", "1"],
    ),
    # Values of the wrong kind, or not finite where a number must be. A
    # NaN or +inf noise floor is not the documented noise-free -inf floor.
    **{
        f"{command}-{section}.{key}-{name}": _config_row(
            command, "sweep_55db", _set(section, key, value=value), line
        )
        for command, section, key, value, name, line in [
            ("sweep", "chan", "adc_bits", "14", "string",
             "chan: adc_bits must be an integer, got '14'"),
            ("sweep", "chan", "adc_bits", 14.5, "fraction",
             "chan: adc_bits must be an integer, got 14.5"),
            ("sweep", "chan", "adc_bits", True, "bool", f"chan: adc_bits {NEEDS_BOOL} true"),
            ("sweep", "pn", "shared_oscillator", "no", "string",
             "pn: shared_oscillator must be true or false, got 'no'"),
            *(
                (command, "chan", "thermal_noise_dbfs", value, name,
                 f"chan: thermal_noise_dbfs must be finite, or -inf for no noise, got {name}")
                for command in COMMANDS
                for value, name in ((math.nan, "nan"), (math.inf, "inf"))
            ),
            # A -inf floor is a valid noise-free receiver, but a comparison
            # scores against the floor.
            ("sweep", "chan", "thermal_noise_dbfs", -math.inf, "minus-inf",
             "a comparison scores residuals against the noise floor, so "
             "chan.thermal_noise_dbfs must be finite, got -inf"),
            ("sweep", "chan", "analog_suppression_db", math.nan, "nan",
             "chan: analog_suppression_db must be finite and >= 0, got nan"),
            ("sweep", "chan", "h_si", [[math.nan, 0.0]], "nan",
             "chan: h_si must be finite, got [(nan+0j)]"),
            *(
                ("sweep", "pn", "linewidth_hz", value, name,
                 f"pn: linewidth must be finite and >= 0, got {name}")
                for value, name in ((math.nan, "nan"), (math.inf, "inf"))
            ),
            ("sweep", "pn", "delay_samples", math.inf, "inf",
             "pn: delay_samples must be an integer, got inf"),
            ("sweep", "pn", "delay_samples", 1.0, "float",
             "pn: delay_samples must be an integer, got 1.0"),
            ("sweep", "dac", "coeffs_i", [1.0, 0.0, math.nan], "nan",
             "dac: coeffs_i must be finite, got [1.0, 0.0, nan]"),
            ("sweep", "pa", "coeffs_odd", [1.0, math.nan], "nan",
             "pa: PA coeffs must be finite, got [1.0, nan]"),
            *(
                ("sweep", section, "gamma", [[math.nan, 0.0]], "nan",
                 f"{section}: gamma must be finite, got [(nan+0j)]")
                for section in ("tx_iq", "rx_iq")
            ),
        ]
    },
    # A fractional delay is an error, not a delay cast to 1 sample.
    "tone-test-fig5-pn.delay_samples-float": _config_row(
        "tone-test", "fig5_m10dbm", _set("pn", "delay_samples", value=1.0),
        "pn: delay_samples must be an integer, got 1.0",
    ),
    # JSON's false where a number belongs would otherwise run as 0.
    **{
        f"tone-test-{name}-false": _config_row(
            "tone-test", "fig5_m10dbm", edit, f"{name.split('.')[0]}: {line}"
        )
        for name, edit, line in [
            ("pn.delay_samples", _set("pn", "delay_samples", value=False),
             f"delay_samples {NEEDS_BOOL} false"),
            ("pn.linewidth_hz", _set("pn", "linewidth_hz", value=False),
             f"linewidth_hz {NEEDS_BOOL} false"),
            ("chan.analog_suppression_db", _set("chan", "analog_suppression_db", value=False),
             f"analog_suppression_db {NEEDS_BOOL} false"),
            ("dac.coeffs_i-element", _set("dac", "coeffs_i", 0, value=False),
             f"coeffs_i {NEEDS_BOOL} [false, 0.038, 0.38]"),
            ("chan.h_si-tap-part", _set("chan", "h_si", value=[[1.0, 0.0], [False, 0.0]]),
             f"h_si {NEEDS_BOOL} [[1.0, 0.0], [false, 0.0]]"),
        ]
    },
    # A key the file format lacks is an error: a typo next to the real key
    # would otherwise run at the real one.
    "sweep-typo-chan.adc_bit": _config_row(
        "sweep", "sweep_55db", _set("chan", "adc_bit", value=20),
        "configuration has unknown key 'chan.adc_bit'",
    ),
    "sweep-three-unknown-keys": _config_row(
        "sweep", "sweep_55db",
        lambda d: {**d, "chan": {**d["chan"], "adc_bit": 20}, "pn": {**d["pn"], "seed": 3},
                   "rx_iq_typo": d["rx_iq"]},
        "configuration has unknown key 'rx_iq_typo'",
    ),
    # The file holds hardware only: a file saved while the configuration
    # still held the transmit power or the converter full scale.
    **{
        f"{command}-removed-key-{'.'.join(path)}": _config_row(
            command, "fig5_m10dbm", _set(*path, value=1.0),
            f"configuration has unknown key {'.'.join(path)!r}",
        )
        for command in COMMANDS
        for path in (("tx_power_dbm",), ("chan", "adc_full_scale"))
    },
    # A file of the wrong shape names the problem, not a Python internal.
    "tone-test-top-level-list": _config_row(
        "tone-test", "fig5_m10dbm", lambda d: [d],
        "configuration must be a JSON object, got list",
    ),
    "tone-test-chan-not-an-object": _config_row(
        "tone-test", "fig5_m10dbm", _set("chan", value=5),
        "configuration section 'chan' must be a JSON object, got 5",
    ),
    "tone-test-h_si-not-pairs": _config_row(
        "tone-test", "fig5_m10dbm", _set("chan", "h_si", value=[1, 2]),
        "chan: h_si must be a list of [re, im] pairs, got [1, 2]",
    ),
    "tone-test-chan-missing-adc_bits": _config_row(
        "tone-test", "fig5_m10dbm",
        lambda d: {**d, "chan": {k: v for k, v in d["chan"].items() if k != "adc_bits"}},
        "configuration is missing key 'chan.adc_bits'",
    ),
    "tone-test-pa-coeffs-an-object": _config_row(
        "tone-test", "fig5_m10dbm", _set("pa", value={"coeffs_odd": {}}),
        WRONG_TYPE + "pa: coeffs_odd must be a list of numbers, got {}",
    ),
    "tone-test-linewidth_hz-a-string": _config_row(
        "tone-test", "fig5_m10dbm", _set("pn", "linewidth_hz", value="abc"),
        WRONG_TYPE + 'pn: linewidth_hz must be a number, got "abc"',
    ),
    "tone-test-analog_suppression_db-a-list": _config_row(
        "tone-test", "fig5_m10dbm", _set("chan", "analog_suppression_db", value=[40.0]),
        WRONG_TYPE + "chan: analog_suppression_db must be a number, got [40.0]",
    ),
    # Nested DAC coefficients are rejected as the file is read, so neither
    # command writes a file.
    **{
        f"{command}-dac-coeffs-nested": _config_row(
            command, "fig5_m10dbm", _set("dac", "coeffs_i", value=[[1.0], [0.038], [0.38]]),
            WRONG_TYPE + "dac: coeffs_i must be a list of numbers, got [[1.0], [0.038], [0.38]]",
        )
        for command in COMMANDS
    },
}


def assert_one_error_line(returncode, stdout, stderr, out, line):
    """A failed run: exit 1, the one stderr line ``error: <line>``, nothing
    on stdout and no ``out`` folder."""
    assert stderr == f"error: {line}\n"
    assert returncode == 1
    assert stdout == ""
    assert not out.exists()


def _row_at(tmp_path, name):
    """The argv and line of row ``name`` at ``tmp_path``, its input files written."""
    argv, line, write = BAD_INPUTS[name]
    if write is not None:
        write(tmp_path)
    at = str(tmp_path)
    return [arg.replace("{tmp}", at) for arg in argv], line.replace("{tmp}", at)


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_is_one_error_line_and_no_folder(tmp_path, capsys, name):
    argv, line = _row_at(tmp_path, name)
    out = tmp_path / "run"
    rc = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert_one_error_line(rc, captured.out, captured.err, out, line)


def _run_cli(tmp_path, argv, env=None, **kwargs):
    """``python -m fdsic.cli argv --out tmp_path/run`` in a separate process."""
    src = str(Path(fdsic.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "fdsic.cli", *argv, "--out", str(tmp_path / "run")],
        env={**os.environ, "PYTHONPATH": src, **(env or {})}, capture_output=True, text=True,
        timeout=120, **kwargs,
    )


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_overflow_prints_only_the_error_line(tmp_path, command):
    # pytest captures warnings, so only a separate process shows what
    # reaches stderr: no floating-point warning ahead of the error.
    argv, line = _row_at(tmp_path, f"{command}-overflow-pa.coeffs_odd")
    done = _run_cli(tmp_path, argv)
    assert_one_error_line(done.returncode, done.stdout, done.stderr, tmp_path / "run", line)


def test_frame_count_too_large_for_memory_is_one_error_line(tmp_path):
    # The frames are allocated at once, so the run ends in the error that
    # names the array's shape, not in a list that grows until the process
    # is killed. The address-space limit makes the failure independent of
    # the kernel's overcommit setting; one BLAS thread keeps the process's
    # own address space far below it on any core count.
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    done = _run_cli(
        tmp_path, [*SWEEP, "--powers", "22", "--frames", "100000000"],
        env={"OPENBLAS_NUM_THREADS": "1"}, preexec_fn=limit_address_space,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: ran out of memory: ")
    assert len(done.stderr.splitlines()) == 1
    assert f"shape ({100000000 * FRAME_LEN},)" in done.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_manifest_that_fails_leaves_no_folder(tmp_path, capsys, monkeypatch, command):
    # The manifest is serialized before the folder is made, so a
    # configuration that does not serialize writes no file at all.
    def fail(cfg):
        raise ValueError("cannot serialize")

    monkeypatch.setattr(cli, "config_to_dict", fail)
    out = tmp_path / "run"
    rc = main(COMMANDS[command] + ["--preset", "sweep_55db", "--out", str(out)])
    captured = capsys.readouterr()
    assert_one_error_line(rc, captured.out, captured.err, out, "cannot serialize")


@pytest.mark.parametrize("message", ["Unable to allocate 116. TiB", ""])
def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, message):
    # An --n-fft too large to allocate fails inside gen_tone; the stand-in
    # raises the same error without allocating anything.
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("fdsic.cli.gen_tone", out_of_memory)
    out = tmp_path / "run"
    rc = main([*TONE, "--n-fft", "1000000000000", "--out", str(out)])
    captured = capsys.readouterr()
    line = f"ran out of memory: {message}" if message else "ran out of memory"
    assert_one_error_line(rc, captured.out, captured.err, out, line)


class TestWriteOutputs:
    def test_existing_folder_is_written_into(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        assert main(["budget", "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "budget.csv", "manifest.json", "notes.txt"
        ]
        assert (out / "notes.txt").read_text() == "kept\n"


def _run_preset_and_saved_copy(tmp_path, name, args):
    """Run ``args`` with ``--preset name`` and with its saved JSON copy."""
    save_config(load_preset(name), tmp_path / "cfg.json")
    preset = tmp_path / "preset"
    config = tmp_path / "config"
    assert main(args + ["--preset", name, "--out", str(preset)]) == 0
    assert main(args + ["--config", str(tmp_path / "cfg.json"), "--out", str(config)]) == 0
    return preset, config


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_tone_test_outputs_match_preset(self, tmp_path, name):
        # The saved copy holds the hardware; the preset's power is a flag.
        power = str(PRESETS[name][0])
        preset, config = _run_preset_and_saved_copy(
            tmp_path, name, ["tone-test", "--segments", "4", "--power", power]
        )
        for output in ("spectrum.csv", "harmonics.csv", "capture.iq"):
            assert (config / output).read_bytes() == (preset / output).read_bytes(), output

    @pytest.mark.parametrize("name", ["sweep_40db", "sweep_55db"])
    def test_sweep_outputs_match_preset(self, tmp_path, name):
        preset, config = _run_preset_and_saved_copy(tmp_path, name, ["sweep", "--frames", "6"])
        assert (config / "suppression.csv").read_bytes() == (
            preset / "suppression.csv"
        ).read_bytes()


class TestToneTest:
    def test_analysis_flags_default_to_the_library_defaults(self):
        # --n-fft of both commands and --margin read the defaults that
        # spectrum and verify_harmonics take.
        parser = cli.build_parser()
        tone = parser.parse_args(["tone-test", "--out", "out"])
        recorded = parser.parse_args(["spectrum", "--input", "in.iq", "--out", "out"])
        n_fft = inspect.signature(spectrum).parameters["n_fft"].default
        margin = inspect.signature(verify_harmonics).parameters["margin_db"].default
        assert tone.n_fft == recorded.n_fft == n_fft
        assert tone.margin == margin

    def test_outputs_written(self, tmp_path, capsys):
        rc = main(
            ["tone-test", "--preset", "fig5_m10dbm", "--seed", "1", "--segments", "8",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        for name in ("spectrum.csv", "harmonics.csv", "capture.iq", "capture.iq.hdr",
                     "manifest.json"):
            assert (tmp_path / name).exists(), name
        header = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
        assert header == "freq_hz,power_db"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "tone-test"
        assert manifest["args"]["power_dbm"] == -10.0
        clipped = manifest["args"]["clipped_samples"]
        assert isinstance(clipped, int) and clipped == 0

    def test_harmonics_csv(self, tmp_path):
        rc = main(["tone-test", "--preset", "fig5_m10dbm", "--seed", "1", "--segments", "8",
                   "--m-max", "2", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "harmonics.csv").read_text().splitlines()
        assert lines[0] == "m,predicted_freqs_hz,measured_dbc,counterpart_dbc,pass"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]
        assert all(line.endswith(",pass") for line in lines[1:])
        # Order 2 predicts two lines, -2f and +2f: each field joins its two
        # values with ';', six decimals each.
        _, *fields, _ = lines[2].split(",")
        assert fields[0] == f"{-2 * TONE_FREQ:.6f};{2 * TONE_FREQ:.6f}"
        for field in fields:
            assert re.fullmatch(r"-?\d+\.\d{6};-?\d+\.\d{6}", field), field

    @pytest.mark.parametrize(
        ("source", "flags", "power"),
        [
            (["--preset", "fig7_20dbm"], [], 20.0),
            (["--preset", "fig7_20dbm"], ["--power", "-5"], -5.0),
            (["--config", "{config}"], [], -10.0),
        ],
        ids=["preset-power", "flag-over-preset", "config-default"],
    )
    def test_manifest_records_the_power_that_ran(self, tmp_path, source, flags, power):
        config = save_config(load_preset("fig7_20dbm"), tmp_path / "cfg.json")
        argv = ["tone-test", *(arg.format(config=config) for arg in source), *flags,
                "--segments", "2", "--seed", "4"]
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((runs[0] / "manifest.json").read_text())
        assert manifest["args"]["power_dbm"] == power
        hardware = manifest["resolved_config"]
        assert sorted(hardware) == ["chan", "dac", "pa", "pn", "rx_iq", "tx_iq"]
        assert "adc_full_scale" not in hardware["chan"]
        tone = gen_tone(TONE_FREQ, TONE_AMPLITUDE, 4096 * 2)
        received, _ = simulate_received(tone, load_preset("fig7_20dbm"), power, 4)
        assert (runs[0] / "capture.iq").read_bytes() == received.samples.tobytes()
        # Criterion 10: a rerun writes the same bytes.
        for name in ("manifest.json", "spectrum.csv", "harmonics.csv", "capture.iq"):
            assert (runs[1] / name).read_bytes() == (runs[0] / name).read_bytes(), name

    def test_disabled_impairments_single_line(self, tmp_path):
        # A config file with every impairment switched off produces a
        # clean single-line spectrum.
        from fdsic.impairments import (
            ChannelAndReceiver,
            DacNonlinearity,
            ImpairmentConfig,
            IqImbalance,
            PaNonlinearity,
            PhaseNoiseSpec,
            save_config,
        )

        cfg = ImpairmentConfig(
            dac=DacNonlinearity.identity(),
            tx_iq=IqImbalance.identity(),
            rx_iq=IqImbalance.identity(),
            pn=PhaseNoiseSpec(0.0, True, 0),
            pa=PaNonlinearity.identity(),
            chan=ChannelAndReceiver(
                h_si=[1.0],
                analog_suppression_db=40.0,
                thermal_noise_dbfs=-120.0,
                adc_bits=24,
            ),
        )
        save_config(cfg, tmp_path / "clean.json")
        rc = main(
            ["tone-test", "--config", str(tmp_path / "clean.json"), "--segments", "8",
             "--strict", "--out", str(tmp_path / "run")]
        )
        assert rc == 0
        rows = (tmp_path / "run" / "spectrum.csv").read_text().splitlines()[1:]
        powers = np.array([float(line.split(",")[1]) for line in rows])
        peak = powers.max()
        assert np.count_nonzero(powers > peak - 60.0) <= 3  # one windowed line


class TestSweep:
    def test_csv_schema_and_determinism(self, tmp_path):
        argset = [
            "sweep", "--preset", "sweep_55db", "--powers=-10:6:16",
            "--methods", "linear,joint-dac-iq", "--frames", "10", "--seed", "3",
        ]
        rc1 = main(argset + ["--out", str(tmp_path / "a")])
        rc2 = main(argset + ["--out", str(tmp_path / "b")])
        assert rc1 == 0 and rc2 == 0
        a = (tmp_path / "a" / "suppression.csv").read_bytes()
        b = (tmp_path / "b" / "suppression.csv").read_bytes()
        assert a == b
        with (tmp_path / "a" / "suppression.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2
        assert set(rows[0].keys()) == {
            "tx_power_dbm",
            "method",
            "mean_residual_above_noise_db",
            "std_db",
            "apparent_floor_dbfs",
        }
        methods = {row["method"] for row in rows}
        assert methods == {"linear", "joint-dac-iq(m_max=3)"}

    def test_default_methods_are_the_default_specs(self, tmp_path):
        rc = main(
            ["sweep", "--preset", "sweep_55db", "--powers", "-10", "--frames", "10",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        with (tmp_path / "suppression.csv").open() as fh:
            labels = [row["method"] for row in csv.DictReader(fh)]
        assert labels == [s.label() for s in DEFAULT_SPECS]

    def test_nonlinear_labels_and_manifest_record(self, tmp_path):
        # Linear is fitted off the nonlinear root, whose record holds
        # channel_len and n_max alone.
        rc = main(
            ["sweep", "--preset", "sweep_55db", "--methods", "linear,nonlinear",
             "--frames", "4", "--powers", "22", "--out", str(tmp_path)]
        )
        assert rc == 0
        with (tmp_path / "suppression.csv").open() as fh:
            labels = [row["method"] for row in csv.DictReader(fh)]
        assert labels == ["linear", "nonlinear(n_max=5,envelope)"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["args"]["cancellers"][1] == {
            "label": "nonlinear(n_max=5,envelope)", "channel_len": 32, "n_max": 5
        }

    def test_manifest_records_each_power_once(self, tmp_path):
        rc = main(["sweep", "--preset", "sweep_55db", "--powers", "22", "--frames", "4",
                   "--methods", "linear", "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["args"]["powers"] == [22.0]
        assert "tx_power_dbm" not in manifest["resolved_config"]

    def test_nonlinear_variant_flag_is_refused(self, tmp_path, capsys):
        # The nonlinear canceller has one basis, so no flag chooses it.
        with pytest.raises(SystemExit) as exit_:
            main(
                ["sweep", "--preset", "sweep_55db", "--nonlinear-variant", "envelope",
                 "--out", str(tmp_path / "run")]
            )
        assert exit_.value.code == 2
        assert "unrecognized arguments: --nonlinear-variant" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_order_flags_apply_per_method(self, tmp_path):
        # --n-max reaches only nonlinear's label and --m-max only
        # joint-dac-iq's; blanks around names are dropped and the list's
        # order is kept.
        rc = main(
            ["sweep", "--preset", "sweep_55db", "--methods", " linear, joint-dac-iq ,nonlinear",
             "--m-max", "2", "--n-max", "3",
             "--channel-len", "8", "--frames", "4", "--powers", "22", "--out", str(tmp_path)]
        )
        assert rc == 0
        with (tmp_path / "suppression.csv").open() as fh:
            labels = [row["method"] for row in csv.DictReader(fh)]
        assert labels == ["linear", "joint-dac-iq(m_max=2)", "nonlinear(n_max=3,envelope)"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [rec["channel_len"] for rec in manifest["args"]["cancellers"]] == [8, 8, 8]

    def test_manifest_records_each_method_with_its_order_fields(self, tmp_path):
        # Each canceller's record holds channel_len and exactly its ORDER_FIELDS.
        rc = main(
            ["sweep", "--preset", "sweep_55db", "--methods",
             ",".join(method.value for method in CancellerMethod), "--frames", "4",
             "--powers", "22", "--out", str(tmp_path)]
        )
        assert rc == 0
        records = json.loads((tmp_path / "manifest.json").read_text())["args"]["cancellers"]
        assert [set(record) - {"label"} for record in records] == [
            {"channel_len", *ORDER_FIELDS.get(method, ())} for method in CancellerMethod
        ]

    def test_manifest_records_only_the_fields_each_canceller_takes(self, tmp_path):
        # Order flags that no selected method takes are not echoed.
        rc = main(
            ["sweep", "--preset", "sweep_55db", "--methods", "linear", "--n-max", "4",
             "--m-max", "0", "--channel-len", "16", "--frames", "4", "--powers", "22",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        args = json.loads((tmp_path / "manifest.json").read_text())["args"]
        assert args["cancellers"] == [{"label": "linear", "channel_len": 16}]
        assert not {"n_max", "m_max", "nonlinear_variant", "channel_len"} & args.keys()

    def test_infinite_power_grid_is_rejected(self):
        # Parsed directly, not through main: a parser that accepted the
        # infinite stop would append to the grid until memory ran out.
        with pytest.raises(ValueError) as error:
            _parse_powers("-10:inf:4")
        assert str(error.value) == "--powers must be finite, got '-10:inf:4'"

    def test_sub_resolution_power_step_is_rejected(self):
        # Parsed directly, not through main: a parser that accepted the step
        # would build a grid of about 3.2e10 powers before any check.
        with pytest.raises(ValueError) as error:
            _parse_powers("-10:22:1e-9")
        assert str(error.value) == "--powers step must be at least 0.001 dB, got '-10:22:1e-9'"

class TestBudget:
    def test_default_is_50_db(self, tmp_path, capsys):
        rc = main(["budget", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "50.00" in out
        with (tmp_path / "budget.csv").open() as fh:
            table = list(csv.DictReader(fh))
        rows = {row["quantity"]: float(row["value"]) for row in table}
        assert rows["required passive+analog suppression (dB)"] == pytest.approx(50.0)
        # Every row is the library's default budget: the flag defaults are
        # BudgetInput's.
        expected = suppression_budget(BudgetInput()).breakdown
        assert [(row["quantity"], row["value"]) for row in table] == [
            (label, f"{value:.6f}") for label, value in expected
        ]

    def test_manifest_echoes_budget_input(self, tmp_path):
        assert main(["budget", "--tx-power", "-30", "--papr", "7", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "budget"
        assert manifest["args"] == dataclasses.asdict(BudgetInput(-30, -90, 7, 70))

    def test_zero_corner_and_linearity(self, capsys):
        assert main(["budget", "--tx-power", "-30"]) == 0
        out = capsys.readouterr().out
        assert "0.00" in out

class TestSpectrumCommand:
    def test_roundtrip_from_iq_file(self, tmp_path):
        sig = gen_tone(TONE_FREQ, 1.0, 4096 * 2)
        write_iq(sig, tmp_path / "tone.iq")
        rc = main(
            ["spectrum", "--input", str(tmp_path / "tone.iq"), "--n-fft", "1024",
             "--out", str(tmp_path / "spec")]
        )
        assert rc == 0
        lines = (tmp_path / "spec" / "spectrum.csv").read_text().splitlines()
        assert len(lines) == 1 + 1024
        freqs, powers = zip(
            *[(float(a), float(b)) for a, b in (line.split(",") for line in lines[1:])]
        )
        peak_freq = freqs[int(np.argmax(powers))]
        assert abs(peak_freq - TONE_FREQ) < SAMPLE_RATE / 1024
