"""End-to-end tests of the command-line harness."""

import csv
import dataclasses
import inspect
import json
import math
import os
import re
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
from fdsic.signals import SAMPLE_RATE, gen_tone, write_iq
from fdsic.spectral import spectrum


class TestPowerGridParsing:
    def test_range(self):
        assert _parse_powers("-10:22:4") == [-10, -6, -2, 2, 6, 10, 14, 18, 22]

    def test_single(self):
        assert _parse_powers("5") == [5.0]

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            _parse_powers("1:2:0")
        with pytest.raises(ValueError):
            _parse_powers("1:2")


# A NaN or +inf noise floor is not the documented noise-free -inf floor.
NON_FINITE_NOISE_FLOORS = [
    ("chan", "thermal_noise_dbfs", math.nan, "thermal_noise_dbfs"),
    ("chan", "thermal_noise_dbfs", math.inf, "thermal_noise_dbfs"),
]

# Configurations of finite values whose samples overflow the impairment
# chain: the amplifier, the DAC, the transmit mixer and the SI channel.
OVERFLOWING_CONFIGS = [
    ("pa", "coeffs_odd", [1.0, 0.0, 1e300]),
    ("dac", "coeffs_i", [1.0, 0.0, 1e308]),
    ("tx_iq", "gamma", [[1e308, 0.0], [1e308, 0.0]]),
    ("chan", "h_si", [[1e308, 0.0], [1e308, 0.0]]),
]

COMMANDS = {
    "sweep": ["sweep", "--powers", "22", "--frames", "4"],
    "tone-test": ["tone-test", "--segments", "2"],
}


def _run_with_config(tmp_path, command, section, key, value):
    data = config_to_dict(load_preset("sweep_55db"))
    data[section][key] = value
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    return main(
        COMMANDS[command] + ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run")]
    )


class TestConfigOverflow:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        ("section", "key", "value"),
        OVERFLOWING_CONFIGS,
        ids=[f"{section}-{key}" for section, key, _ in OVERFLOWING_CONFIGS],
    )
    def test_overflowing_chain_is_clean_error(
        self, tmp_path, capsys, command, section, key, value
    ):
        assert _run_with_config(tmp_path, command, section, key, value) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "not finite" in err
        # Nothing computed from the overflowed samples is written.
        for name in ("suppression.csv", "spectrum.csv", "capture.iq"):
            assert not (tmp_path / "run" / name).exists()


    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_overflow_prints_only_the_error_line(self, tmp_path, command):
        # pytest captures warnings, so only a separate process shows what
        # reaches stderr: no floating-point warning ahead of the error.
        data = config_to_dict(load_preset("sweep_55db"))
        data["pa"]["coeffs_odd"] = [1.0, 0.0, 1e300]
        (tmp_path / "cfg.json").write_text(json.dumps(data))
        src = str(Path(fdsic.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "fdsic.cli", *COMMANDS[command],
             "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: ") and "not finite" in done.stderr


class TestConfigSection:
    @pytest.mark.parametrize("section", ["tx_iq", "rx_iq"])
    def test_non_finite_iq_tap_names_its_mixer(self, tmp_path, capsys, section):
        assert _run_with_config(tmp_path, "sweep", section, "gamma", [[math.nan, 0.0]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}: gamma must be finite")
        assert len(err.splitlines()) == 1


class TestUnknownConfigKey:
    def test_unknown_keys_are_one_error_line(self, tmp_path, capsys):
        # A typo next to the real key would otherwise run at the real one.
        data = config_to_dict(load_preset("sweep_55db"))
        data["chan"]["adc_bit"] = 20
        data["pn"]["seed"] = 3
        data["rx_iq_typo"] = data["rx_iq"]
        (tmp_path / "cfg.json").write_text(json.dumps(data))
        rc = main(COMMANDS["sweep"] + ["--config", str(tmp_path / "cfg.json"),
                                       "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "unknown key" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        ("name", "add"),
        [
            ("tx_power_dbm", lambda d: d.update(tx_power_dbm=-10.0)),
            ("chan.adc_full_scale", lambda d: d["chan"].update(adc_full_scale=1.0)),
        ],
        ids=["tx_power_dbm", "chan.adc_full_scale"],
    )
    def test_removed_key_is_one_error_line(self, tmp_path, capsys, command, name, add):
        # A file saved while the configuration still held these keys.
        data = config_to_dict(load_preset("fig5_m10dbm"))
        add(data)
        (tmp_path / "cfg.json").write_text(json.dumps(data))
        rc = main(COMMANDS[command] + ["--config", str(tmp_path / "cfg.json"),
                                       "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: configuration has unknown key {name!r}\n"
        assert not (tmp_path / "run").exists()


class TestBooleanConfigValue:
    # JSON's false where a number belongs would otherwise run as 0.
    @pytest.mark.parametrize(
        ("path", "key"),
        [
            (("pn",), "delay_samples"),
            (("pn",), "linewidth_hz"),
            (("chan",), "analog_suppression_db"),
            (("dac", "coeffs_i"), 0),
            (("chan", "h_si", 1), 0),
        ],
        ids=["pn.delay_samples", "pn.linewidth_hz", "chan.analog_suppression_db",
             "dac.coeffs_i-element", "chan.h_si-tap-part"],
    )
    def test_is_one_error_line(self, tmp_path, capsys, path, key):
        data = config_to_dict(load_preset("fig5_m10dbm"))
        values = data
        for step in path:
            values = values[step]
        values[key] = False
        (tmp_path / "cfg.json").write_text(json.dumps(data))
        rc = main(COMMANDS["tone-test"] + ["--config", str(tmp_path / "cfg.json"),
                                           "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "must be numeric, not true or false" in err
        assert not (tmp_path / "run").exists()


class TestConfigShape:
    # A file of the wrong shape is one error line that names the problem,
    # not a Python internal, and leaves no output folder.
    CASES = {
        "top-level-list": (
            lambda d: [d],
            "configuration must be a JSON object, got list",
        ),
        "chan-not-an-object": (
            lambda d: {**d, "chan": 5},
            "configuration section 'chan' must be a JSON object, got 5",
        ),
        "h_si-not-pairs": (
            lambda d: {**d, "chan": {**d["chan"], "h_si": [1, 2]}},
            "chan: h_si must be a list of [re, im] pairs, got [1, 2]",
        ),
        "chan-missing-adc_bits": (
            lambda d: {**d, "chan": {k: v for k, v in d["chan"].items() if k != "adc_bits"}},
            "configuration is missing key 'chan.adc_bits'",
        ),
        "pa-coeffs-an-object": (
            lambda d: {**d, "pa": {"coeffs_odd": {}}},
            "configuration value has the wrong type: pa: ",
        ),
        "dac-coeffs-nested": (
            lambda d: {**d, "dac": {**d["dac"], "coeffs_i": [[1.0], [0.038], [0.38]]}},
            "configuration value has the wrong type: dac: coeffs_i must be a list of numbers, "
            "got [[1.0], [0.038], [0.38]]",
        ),
        "linewidth_hz-a-string": (
            lambda d: {**d, "pn": {**d["pn"], "linewidth_hz": "abc"}},
            "configuration value has the wrong type: pn: linewidth_hz must be a number, "
            'got "abc"',
        ),
        "analog_suppression_db-a-list": (
            lambda d: {**d, "chan": {**d["chan"], "analog_suppression_db": [40.0]}},
            "configuration value has the wrong type: chan: analog_suppression_db must be a "
            "number, got [40.0]",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_is_one_error_line_and_no_folder(self, tmp_path, capsys, name):
        change, message = self.CASES[name]
        data = change(config_to_dict(load_preset("fig5_m10dbm")))
        (tmp_path / "cfg.json").write_text(json.dumps(data))
        rc = main(COMMANDS["tone-test"] + ["--config", str(tmp_path / "cfg.json"),
                                           "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()


class TestNestedCoefficients:
    # Nested DAC coefficients are rejected as the file is read, so neither
    # command writes a file.
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_is_one_error_line_and_no_folder(self, tmp_path, capsys, command):
        data = config_to_dict(load_preset("fig5_m10dbm"))
        data["dac"]["coeffs_i"] = [[1.0], [0.038], [0.38]]
        (tmp_path / "cfg.json").write_text(json.dumps(data))
        rc = main(COMMANDS[command] + ["--config", str(tmp_path / "cfg.json"),
                                       "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "dac: coeffs_i" in err
        assert not (tmp_path / "run").exists()


class TestWriteOutputs:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_manifest_that_fails_leaves_no_folder(self, tmp_path, capsys, monkeypatch, command):
        # The manifest is serialized before the folder is made, so a
        # configuration that does not serialize writes no file at all.
        def fail(cfg):
            raise ValueError("cannot serialize")

        monkeypatch.setattr(cli, "config_to_dict", fail)
        rc = main(COMMANDS[command] + ["--preset", "sweep_55db", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == "error: cannot serialize\n"
        assert not (tmp_path / "run").exists()

    def test_existing_folder_is_written_into(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        assert main(["budget", "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "budget.csv", "manifest.json", "notes.txt"
        ]
        assert (out / "notes.txt").read_text() == "kept\n"


class TestPhaseNoiseDelay:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_delay_longer_than_signal_is_clean_error(self, tmp_path, capsys, command):
        # 20 000 samples outlast both commands' signals (8192 and 16 384).
        assert _run_with_config(tmp_path, command, "pn", "delay_samples", 20000) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: delay_samples (20000) must not exceed")
        assert len(err.splitlines()) == 1


class TestFailedRunLeavesNoFolder:
    # Each command checks its flags and runs the chain before it makes its
    # output folder. "{config}" is fig5_m10dbm with a shared oscillator
    # delayed past the end of a 4096-sample tone.
    RUNS = {
        "sweep-power-out-of-range": ["sweep", "--preset", "sweep_55db", "--powers", "99"],
        "sweep-unknown-method": ["sweep", "--preset", "sweep_55db", "--methods", "bogus"],
        "sweep-single-frame": ["sweep", "--preset", "sweep_55db", "--frames", "1"],
        "tone-no-segments": ["tone-test", "--preset", "fig5_m10dbm", "--segments", "0"],
        "tone-off-grid-freq": ["tone-test", "--preset", "fig5_m10dbm", "--freq", "1.255e6"],
        "tone-delay-past-signal": [
            "tone-test", "--config", "{config}", "--n-fft", "4096", "--segments", "1"
        ],
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_is_one_error_line_and_no_folder(self, tmp_path, capsys, name):
        cfg = load_preset("fig5_m10dbm")
        config = save_config(
            dataclasses.replace(cfg, pn=dataclasses.replace(cfg.pn, delay_samples=5000)),
            tmp_path / "cfg.json",
        )
        argv = [arg.format(config=config) for arg in self.RUNS[name]]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()


class TestFlagError:
    RUNS = {
        "sweep-empty-grid": (
            ["sweep", "--preset", "sweep_55db", "--powers", "10:-10:1"],
            "--powers grid '10:-10:1' is empty",
        ),
        "tone-no-orders": (
            ["tone-test", "--preset", "fig5_m10dbm", "--segments", "2", "--m-max", "0"],
            "m_max must be >= 1",
        ),
        # Taken modulo 2**64, these seeds would draw the streams of
        # 2**64 - 1 and of 0.
        **{
            f"{command}-seed-{seed}": (
                [command, "--preset", preset, "--seed", seed],
                f"seed must be in [0, 2**64), got {seed}",
            )
            for command, preset in (("sweep", "sweep_55db"), ("tone-test", "fig5_m10dbm"))
            for seed in ("-1", "18446744073709551616")
        },
        # One range check, one message, for either command's power flag.
        "sweep-power-above-range": (
            ["sweep", "--preset", "sweep_55db", "--powers", "23"],
            "--powers must lie in [-10, 22] dBm, got 23",
        ),
        "tone-power-above-range": (
            ["tone-test", "--preset", "fig5_m10dbm", "--power", "23"],
            "--power must lie in [-10, 22] dBm, got 23",
        ),
        "tone-power-nan": (
            ["tone-test", "--preset", "fig5_m10dbm", "--power", "nan"],
            "--power must lie in [-10, 22] dBm, got nan",
        ),
        "sweep-method-named-twice": (
            ["sweep", "--preset", "sweep_55db", "--methods", "linear,linear"],
            "--methods names 'linear' more than once",
        ),
        "sweep-method-spelled-twice": (
            ["sweep", "--preset", "sweep_55db", "--methods", "nonlinear,linear,NonLinear"],
            "--methods names 'nonlinear' more than once",
        ),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_names_the_flag_and_leaves_no_folder(self, tmp_path, capsys, name):
        argv, message = self.RUNS[name]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()


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

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--freq=30e6", "harmonic order 2 lies at -6e+07 Hz"),
            ("--freq=0", "tone frequency must be finite and nonzero"),
            ("--margin=nan", "margin_db must be finite"),
        ],
        ids=["order-outside-band", "tone-at-dc", "nan-margin"],
    )
    def test_unverifiable_check_is_clean_error(self, tmp_path, capsys, flag, message):
        rc = main(["tone-test", "--preset", "fig5_m10dbm", "--segments", "2", flag,
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        ("section", "key", "value", "field"), NON_FINITE_NOISE_FLOORS, ids=["nan", "inf"]
    )
    def test_non_finite_noise_floor_is_clean_error(
        self, tmp_path, capsys, section, key, value, field
    ):
        assert _run_with_config(tmp_path, "tone-test", section, key, value) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert field in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 116. TiB", ""])
    def test_memory_error_is_clean_error(self, tmp_path, capsys, monkeypatch, message):
        # An --n-fft too large to allocate fails inside gen_tone; the stand-in
        # raises the same error without allocating anything.
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("fdsic.cli.gen_tone", out_of_memory)
        rc = main(["tone-test", "--preset", "fig5_m10dbm", "--n-fft", "1000000000000",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ran out of memory") and len(err.splitlines()) == 1
        assert message in err

    def test_requires_config_or_preset(self, tmp_path, capsys):
        rc = main(["tone-test", "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_preset_with_config_is_clean_error(self, tmp_path, capsys, command):
        # Neither source silently wins, even when the config path is missing.
        rc = main(
            COMMANDS[command]
            + ["--preset", "sweep_55db", "--config", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "run")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "--preset and --config" in err
        assert not (tmp_path / "run").exists()

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

    @pytest.mark.parametrize(
        ("section", "key", "value", "field"),
        [
            ("chan", "adc_bits", "14", "adc_bits"),
            ("chan", "adc_bits", 14.5, "adc_bits"),
            ("chan", "adc_bits", True, "adc_bits"),
            ("pn", "shared_oscillator", "no", "shared_oscillator"),
            *NON_FINITE_NOISE_FLOORS,
            # A -inf floor is a valid noise-free receiver, but a comparison
            # scores against the floor.
            ("chan", "thermal_noise_dbfs", -math.inf, "chan.thermal_noise_dbfs"),
            ("chan", "analog_suppression_db", math.nan, "analog_suppression_db"),
            ("chan", "h_si", [[math.nan, 0.0]], "h_si"),
            ("pn", "linewidth_hz", math.nan, "linewidth"),
            ("pn", "linewidth_hz", math.inf, "linewidth"),
            ("pn", "delay_samples", math.inf, "delay_samples"),
            ("pn", "delay_samples", 1.0, "delay_samples"),
            ("dac", "coeffs_i", [1.0, 0.0, math.nan], "coeffs_i"),
            ("pa", "coeffs_odd", [1.0, math.nan], "coeffs"),
        ],
        ids=[
            "adc_bits-string", "adc_bits-fraction", "adc_bits-bool", "shared_oscillator-string",
            "thermal_noise_dbfs-nan", "thermal_noise_dbfs-inf", "thermal_noise_dbfs-minus-inf",
            "analog_suppression_db-nan", "h_si-nan", "linewidth_hz-nan",
            "linewidth_hz-inf", "delay_samples-inf", "delay_samples-float", "dac-coeffs_i-nan",
            "pa-coeffs_odd-nan",
        ],
    )
    def test_config_value_of_wrong_type_is_clean_error(
        self, tmp_path, capsys, section, key, value, field
    ):
        data = config_to_dict(load_preset("sweep_55db"))
        data[section][key] = value
        (tmp_path / "cfg.json").write_text(json.dumps(data))
        rc = main(
            ["sweep", "--config", str(tmp_path / "cfg.json"), "--powers", "-10",
             "--frames", "10", "--out", str(tmp_path / "run")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert field in err
        assert not (tmp_path / "run" / "suppression.csv").exists()

    def test_single_frame_is_clean_error(self, tmp_path, capsys):
        rc = main(
            ["sweep", "--preset", "sweep_55db", "--powers", "-10", "--frames", "1",
             "--out", str(tmp_path)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "frames" in err and "got 1" in err

    @pytest.mark.parametrize(
        "powers",
        ["-10:22:nan", "abc", "-20:22:4", "23"],
        ids=["nan", "unparsable", "start-below-range", "above-range"],
    )
    def test_bad_power_grid_is_clean_error(self, tmp_path, capsys, powers):
        rc = main(
            ["sweep", "--preset", "sweep_55db", f"--powers={powers}", "--frames", "4",
             "--out", str(tmp_path)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --powers ") and len(err.splitlines()) == 1
        assert not (tmp_path / "suppression.csv").exists()

    def test_infinite_power_grid_is_rejected(self):
        # Parsed directly, not through main: a parser that accepted the
        # infinite stop would append to the grid until memory ran out.
        with pytest.raises(ValueError, match="^--powers must be finite"):
            _parse_powers("-10:inf:4")

    def test_sub_resolution_power_step_is_rejected(self):
        # Parsed directly, not through main: a parser that accepted the step
        # would build a grid of about 3.2e10 powers before any check.
        with pytest.raises(ValueError, match="^--powers step must be at least 0.001 dB"):
            _parse_powers("-10:22:1e-9")

    def test_unknown_method_lists_valid_names(self, tmp_path, capsys):
        rc = main(
            ["sweep", "--preset", "sweep_55db", "--methods", "volterra",
             "--frames", "4", "--out", str(tmp_path)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "widely-linear" in err

    def test_empty_method_list_rejected(self, tmp_path, capsys):
        rc = main(
            ["sweep", "--preset", "sweep_55db", "--methods", ",",
             "--frames", "4", "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "method list is empty" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--papr", "-1000", "papr_headroom_db"),
         ("--adc-dynamic-range", "0", "adc_dynamic_range_db"),
         ("--adc-dynamic-range", "-5", "adc_dynamic_range_db")],
    )
    def test_unphysical_budget_input_is_clean_error(self, tmp_path, capsys, flag, value, name):
        assert main(["budget", flag, value, "--out", str(tmp_path / "run")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} must be")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "run").exists()


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

    def test_missing_input_is_clean_error(self, tmp_path, capsys):
        rc = main(
            ["spectrum", "--input", str(tmp_path / "nope.iq"), "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header",
        [
            "format=iq-float32-le-interleaved\nsample_rate_hz=80000000.0\nlength=8192\n",
            "sample_rate_hz=80000000.0\nlength=8192\n",
        ],
        ids=["float32", "no-format"],
    )
    def test_format_other_than_float64_is_clean_error(self, tmp_path, capsys, header):
        write_iq(gen_tone(TONE_FREQ, 1.0, 8192), tmp_path / "tone.iq")
        (tmp_path / "tone.iq.hdr").write_text(header)
        rc = main(["spectrum", "--input", str(tmp_path / "tone.iq"), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "'format'" in err
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize(
        "header",
        [
            "length=8192\n",
            "sample_rate_hz=fast\nlength=8192\n",
            "sample_rate_hz=inf\nlength=8192\n",
            "sample_rate_hz=1e400\nlength=8192\n",
        ],
    )
    def test_bad_header_is_clean_error(self, tmp_path, capsys, header):
        write_iq(gen_tone(TONE_FREQ, 1.0, 8192), tmp_path / "tone.iq")
        (tmp_path / "tone.iq.hdr").write_text(header)
        rc = main(["spectrum", "--input", str(tmp_path / "tone.iq"), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "sample_rate_hz" in err
