"""Every documented rejection of the Python API, each with its exact message.

``LIBRARY_ERRORS`` maps a name to ``(make, exception type, message)``:
``make(tmp_path)`` makes the one failing call, which must raise that type
with exactly that message ("{tmp}" in it is the test's own folder). The
command line's rejections are ``BAD_INPUTS`` in ``test_cli.py``; a bad
input that one of its rows already feeds to the same library check has
no row here. A rejection that must also come before some work, or leave
a buffer untouched, has its own test below, which checks the message
through :func:`assert_raises_exactly` as the table does.
"""

import json
import math

import numpy as np
import pytest

from helpers_oracles import (
    cancel,
    converter_oracle,
    identity_config,
    ls_estimate,
    random_signal,
    transmit_samples,
)

from fdsic import cancellers, impairments
from fdsic._rng import substream
from fdsic.analysis import BudgetInput, predict_harmonics, verify_harmonics
from fdsic.cancellers import (
    DEFAULT_N_FRAMES,
    DEFAULT_SPECS,
    MAX_TRAIN_SAMPLES,
    ORDER_FIELDS,
    BasisSignal,
    CancellerMethod,
    CancellerSpec,
    _geqrf,
    _ls_factor,
    build_basis,
    run_sweep,
)
from fdsic.impairments import (
    ChannelAndReceiver,
    DacNonlinearity,
    IqImbalance,
    PaNonlinearity,
    PhaseNoiseSpec,
    _SECTIONS,
    _quantize,
    apply_phase_noise,
    config_from_dict,
    config_to_dict,
    receive,
    simulate_received,
)
from fdsic.presets import TONE_FREQ, load_preset
from fdsic.signals import (
    ComplexBasebandSignal,
    fir_convolve,
    gen_ofdm_frames,
    gen_tone,
    read_iq,
    write_iq,
)
from fdsic.spectral import Spectrum, skirt_peak_dbc, spectrum

LINEAR, NONLINEAR, WIDELY_LINEAR, JOINT = CancellerMethod
# Every stage at identity, and a one-tap channel with the default receiver.
UNIT_CHANNEL = identity_config(ChannelAndReceiver([1.0]))
OVERFLOW = (
    "the digitized received signal is not finite: the configuration overflows the impairment chain"
)


def calls(prefix, call, cases, kind=ValueError):
    """The row ``prefix-name -> (make, kind, message)`` of each ``(name,
    args, message)`` of ``cases``: ``make`` calls ``call`` with ``args``,
    its keywords if a dict and its positions otherwise."""
    def make(args):
        if isinstance(args, dict):
            return lambda tmp: call(**args)
        return lambda tmp: call(*args)

    return {f"{prefix}-{name}": (make(args), kind, message) for name, args, message in cases}


def verify_tone(freq, *args):
    """``verify_harmonics`` of a half-scale tone at ``freq`` on 4096 bins."""
    verify_harmonics(spectrum(gen_tone(freq, 0.5, 4096 * 4), n_fft=4096), freq, *args)


def sweep(specs=DEFAULT_SPECS, powers=(22.0,), n_frames=DEFAULT_N_FRAMES, seed=0):
    """``run_sweep`` of sweep_40db; the defaults are a valid sweep."""
    run_sweep(load_preset("sweep_40db"), list(powers), specs, n_frames, seed)


def cancel_with(fitted, given, order):
    """``cancel`` with the fit of method ``fitted`` and the bases of method
    ``given``, taken in the order ``[::order]``."""
    x = random_signal(4096, 16)
    fit = ls_estimate(x, build_basis(x, CancellerSpec(fitted, channel_len=4)), 4)
    cancel(x, build_basis(x, CancellerSpec(given, channel_len=4))[::order], fit)


def receive_rows(fit_len, split, powers=(0.0,)):
    """``receive`` of 64 samples at ``powers`` over the rows ``fit_len`` and ``split`` give."""
    receive(random_signal(64, 1), UNIT_CHANNEL, list(powers), 1, fit_len, split)


def overflow_in_an_undigitized_row(tmp):
    # The overflowed sample reaches the AGC alone, and through its scale
    # every digitized row.
    x = transmit_samples(40, 63)
    x[MAX_TRAIN_SAMPLES + 1000] = 1e200
    receive(x, load_preset("sweep_40db"), [-10.0], 64, MAX_TRAIN_SAMPLES, len(x) // 2)


def read_capture(tmp, sidecar=True, extra=b"", trim=0):
    """``read_iq`` of a 64-sample capture, with or without its ``sidecar``,
    its payload extended by ``extra`` or cut by ``trim`` bytes."""
    path = write_iq(gen_tone(1e6, 1.0, 64), tmp / "x.iq")
    if not sidecar:
        (tmp / "x.iq.hdr").unlink()
    payload = path.read_bytes() + extra
    path.write_bytes(payload[: len(payload) - trim])
    read_iq(path)


def config_with(section, key, value):
    """``config_from_dict`` of sweep_55db's saved configuration with
    ``section.key`` set to ``value``."""
    data = config_to_dict(load_preset("sweep_55db"))
    data[section][key] = value
    config_from_dict(data)


def with_first_number_false(value):
    """``value`` with its first number, however deeply it is listed (a DAC
    coefficient, the real part of a tap), replaced by ``False``."""
    if isinstance(value, list):
        return [with_first_number_false(value[0]), *value[1:]]
    return False


SAVED = config_to_dict(load_preset("sweep_55db"))
# Every key of the configuration file that holds numbers, as (section,
# key). Only pn.shared_oscillator holds a boolean.
NUMERIC_KEYS = [
    (name, key)
    for name, (_, keys) in _SECTIONS.items()
    for key, (_, write) in keys.items()
    if write is not bool
]

LIBRARY_ERRORS = {
    # analysis: the harmonic predictor and checker, and the budget.
    **calls("predict_harmonics", predict_harmonics, [
        ("order-zero", (0, 1e6), "harmonic order must be >= 1, got 0"),
        ("m-fraction", (2.5, 1e6), "m must be an integer, got 2.5"),
        ("m-bool", (True, 1e6), "m must be an integer, got True"),
    ]),
    **calls("verify_harmonics", verify_tone, [
        ("m_max-bool", (TONE_FREQ, True), "m_max must be an integer, got True"),
        ("m_max-float", (TONE_FREQ, 3.0), "m_max must be an integer, got 3.0"),
        ("margin-inf", (TONE_FREQ, 3, math.inf), "margin_db must be finite, got inf"),
        # 1 MHz lies 51.2 bins of 19.53 kHz from DC.
        ("off-grid", (1e6, 2),
         "tone frequency 1000000.0 Hz is off the analysis bin grid (nearest bin 3.91e+03 Hz "
         "away); coherent placement required"),
        # fs = 80 MHz: a line at or beyond +-40 MHz has no bin of its own.
        ("odd-order-outside-band", (15e6, 3),
         "harmonic order 3 lies at -4.5e+07 Hz, outside the sampled band +-4e+07 Hz"),
        ("order-at-nyquist", (20e6, 2),
         "harmonic order 2 lies at -4e+07 Hz, outside the sampled band +-4e+07 Hz"),
    ]),
    # Either of the last two would let the tolerable interference exceed the
    # noise floor plus the converter's range: --papr -1000 read 980 dBm.
    **calls("BudgetInput", BudgetInput, [
        ("tx-power-nan", {"tx_power_dbm": math.nan}, "tx_power_dbm must be finite"),
        ("headroom-just-below-zero", {"papr_headroom_db": -1e-9},
         "papr_headroom_db must be >= 0, got -1e-09"),
        ("dynamic-range-negative", {"adc_dynamic_range_db": -70.0},
         "adc_dynamic_range_db must be positive, got -70.0"),
    ]),
    # cancellers: the canceller spec. A boolean is an int to Python, but no
    # count or order here.
    **calls("CancellerSpec", CancellerSpec, [
        ("linear-m_max", (LINEAR, 32, None, 3), "m_max is not applicable to the linear canceller"),
        ("nonlinear-even-n_max", (NONLINEAR, 32, 4), "nonlinear canceller requires odd n_max >= 1"),
        ("nonlinear-no-n_max", (NONLINEAR,), "nonlinear canceller requires odd n_max >= 1"),
        ("joint-no-m_max", (JOINT,), "joint-dac-iq canceller requires m_max >= 1"),
        ("joint-n_max", (JOINT, 32, 3, 2), "n_max is not applicable to the joint-dac-iq canceller"),
        ("channel_len-zero", (LINEAR, 0), "channel_len must be >= 1"),
        ("method-string", ("linear",), "method must be a CancellerMethod, got 'linear'"),
        ("channel_len-fraction", (LINEAR, 8.5), "channel_len must be an integer, got 8.5"),
        ("channel_len-bool", (LINEAR, True), "channel_len must be an integer, got True"),
        ("n_max-bool", (NONLINEAR, 32, True), "n_max must be an integer, got True"),
        ("n_max-float", (NONLINEAR, 32, 5.0), "n_max must be an integer, got 5.0"),
        ("m_max-fraction", (JOINT, 32, None, 2.5), "m_max must be an integer, got 2.5"),
        ("m_max-bool", (JOINT, 32, None, True), "m_max must be an integer, got True"),
    ]),
    # An order is not applicable exactly where ORDER_FIELDS omits it; every
    # order the method takes is given a valid value.
    **calls("CancellerSpec", CancellerSpec, [
        (f"{method.value}-takes-no-{field}",
         {"method": method, **{name: 1 for name in (field, *ORDER_FIELDS.get(method, ()))}},
         f"{field} is not applicable to the {method.value} canceller")
        for method in CancellerMethod
        for field in ("n_max", "m_max")
        if field not in ORDER_FIELDS.get(method, ())
    ]),
    # cancellers: the fit and the cancel path. The taps are positional: the
    # same labels in another order differ.
    "ls_estimate-underdetermined": (
        lambda tmp: ls_estimate(
            random_signal(60, 7),
            build_basis(random_signal(60, 7), CancellerSpec(WIDELY_LINEAR, channel_len=8)),
            8,
        ),
        ValueError,
        "training length 60 must be >= 4 * (bases * taps) = 64",
    ),
    "_geqrf-rows-beyond-the-buffer": (
        lambda tmp: _geqrf(np.zeros((10, 4), dtype=np.complex128, order="F"), 11),
        ValueError,
        "zgeqrf argument 4 is illegal",
    ),
    "_ls_factor-basis-shorter-than-rhs": (
        lambda tmp: _ls_factor(
            random_signal(64, 53)[:, np.newaxis], [BasisSignal("x", random_signal(63, 54))], 2
        ),
        ValueError,
        "basis 'x' shorter than received signal",
    ),
    **calls("cancel", cancel_with, [
        ("other-bases", (LINEAR, WIDELY_LINEAR, 1),
         "basis set ('x', 'conj(x)') does not match fitted labels ('x',)"),
        ("bases-reordered", (WIDELY_LINEAR, WIDELY_LINEAR, -1),
         "basis set ('conj(x)', 'x') does not match fitted labels ('x', 'conj(x)')"),
    ]),
    # cancellers: the sweep. test_run_sweep_rejects_before_any_work runs
    # these again with the work stubbed out. 300 DAC orders on 2 rails at
    # 32 taps need 76 800 training rows; the sweep fits on at most 65 536,
    # whatever the frame count. 99 dBm is past the amplifier's range.
    **calls("run_sweep", sweep, [
        ("no-specs", {"specs": []}, "specs must be nonempty"),
        ("no-powers", {"powers": []}, "powers must be nonempty"),
        *(
            (f"model-too-large-{n}-frames",
             {"specs": [DEFAULT_SPECS[0], CancellerSpec(JOINT, m_max=300)],
              "n_frames": n},
             "training length 65536 must be >= 4 * (bases * taps) = 76800")
            for n in (40, 100)
        ),
        ("power-out-of-range", {"powers": [22.0, 99.0]},
         "transmit power must lie in [-10, 22] dBm, got 99"),
        ("seed-negative", {"seed": -1}, "seed must be in [0, 2**64), got -1"),
        ("seed-2**64", {"seed": 2**64}, "seed must be in [0, 2**64), got 18446744073709551616"),
        ("seed-fraction", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("n_frames-fraction", {"n_frames": 2.5}, "n_frames must be an integer, got 2.5"),
    ]),
    # impairments: the stages' parameters. A (3, 1) array of DAC
    # coefficients would run the chain, then fail to serialize.
    **calls("DacNonlinearity", DacNonlinearity, [
        ("zero-linear-term", ([0.0], [1.0]), "linear DAC coefficients must be nonzero"),
        ("rails-of-unequal-length", ([1.0, 0.1], [1.0]),
         "coeffs_i and coeffs_q must have equal length"),
        ("empty", ([], []), "DAC polynomial needs at least the linear term"),
        ("coeffs_i-column", ([[1.0], [0.038], [0.38]], [1.0, 0.038, 0.38]),
         "coeffs_i must be a 1-D coefficient sequence, got shape (3, 1)"),
        ("coeffs_q-row", ([1.0, 0.038], [[1.0, 0.038]]),
         "coeffs_q must be a 1-D coefficient sequence, got shape (1, 2)"),
        ("coeffs_i-ragged", ([[1.0], [1.0, 2.0]], [1.0, 0.1]),
         "coeffs_i must be a 1-D coefficient sequence, got [[1.0], [1.0, 2.0]]"),
    ]),
    **calls("IqImbalance", IqImbalance, [
        ("zero-gamma", ([0.0], [0.01]), "gamma must not be all-zero"),
        ("ragged-gamma", ([[1.0], [1.0, 2.0]], [0.0]),
         "gamma must be a nonempty 1-D tap sequence, got [[1.0], [1.0, 2.0]]"),
    ]),
    # A boolean or a float is no sample count, even where it equals one.
    **calls("PhaseNoiseSpec", PhaseNoiseSpec, [
        ("negative-linewidth", (-1.0, True, 0), "linewidth must be finite and >= 0, got -1.0"),
        ("negative-delay", (1.0, True, -2), "delay_samples must be >= 0, got -2"),
        ("delay-bool", (1e3, True, True), "delay_samples must be an integer, got True"),
        ("delay-float", (1e3, True, 1.0), "delay_samples must be an integer, got 1.0"),
    ]),
    # The shared walk would need len + delay draws.
    "apply_phase_noise-delay-past-the-signal": (
        lambda tmp: apply_phase_noise(random_signal(64, 1), PhaseNoiseSpec(1e3, True, 65), seed=1),
        ValueError,
        "delay_samples (65) must not exceed the signal length (64 samples)",
    ),
    **calls("PaNonlinearity", PaNonlinearity, [
        ("negative-gain", ([-1.0],), "linear PA gain beta_1 must be positive"),
        ("empty", ([],), "PA polynomial needs at least the linear term"),
        ("column", ([[1.0], [-0.05]],),
         "PA coeffs must be a 1-D coefficient sequence, got shape (2, 1)"),
        ("ragged", ([[1.0], [2.0, 3.0]],),
         "PA coeffs must be a 1-D coefficient sequence, got [[1.0], [2.0, 3.0]]"),
    ]),
    **calls("ChannelAndReceiver", ChannelAndReceiver, [
        ("ragged-h_si", ([[1, 2], [3]],),
         "h_si must be a nonempty 1-D tap sequence, got [[1, 2], [3]]"),
        ("empty-h_si", ([],), "h_si must be a nonempty 1-D tap sequence"),
        ("negative-suppression", ([1.0], -1.0),
         "analog_suppression_db must be finite and >= 0, got -1.0"),
        ("adc_bits-2", {"h_si": [1.0], "adc_bits": 2}, "adc_bits must lie in [4, 24]"),
        ("adc_bits-25", {"h_si": [1.0], "adc_bits": 25}, "adc_bits must lie in [4, 24]"),
    ]),
    # impairments: the chain. test_chain_rejects_before_the_front_end runs
    # these again with the front end stubbed out. split = 64 would leave no
    # held rows to measure the floor over.
    **calls("receive", receive_rows, [
        *(
            (f"rows-{fit_len}-{split}", (fit_len, split),
             f"need 0 <= fit_len ({fit_len}) <= split ({split}) < 64 rows")
            for fit_len, split in [(-1, 0), (8, 4), (0, 64), (0, 65)]
        ),
        *(
            (f"power-{power:g}", (0, 0, [0.0, power]),
             f"transmit power must lie in [-10, 22] dBm, got {power:g}")
            for power in (22.5, -10.5)
        ),
    ]),
    # The chain runs at SAMPLE_RATE.
    **calls("simulate_received", simulate_received, [
        *(
            (f"power-{power:g}", (gen_tone(TONE_FREQ, 0.2, 64), UNIT_CHANNEL, power, 4),
             f"transmit power must lie in [-10, 22] dBm, got {power:g}")
            for power in (25.0, -10.5, math.nan)
        ),
        ("signal-at-40-MHz",
         (ComplexBasebandSignal(random_signal(64, 1), 40e6), UNIT_CHANNEL, -10.0, 4),
         "signal at 40000000.0 Hz; the chain runs at 80000000.0 Hz"),
    ]),
    # Finite samples whose power overflows the gain ranging: the stage says
    # so with its error alone, no numpy warning.
    "overflow-input": (
        lambda tmp: receive(
            np.full(64, 1e200 + 0j),
            identity_config(ChannelAndReceiver([1.0], 0.0, -math.inf)),
            [22.0], 1, 0, 0,
        ),
        ValueError,
        OVERFLOW,
    ),
    "overflow-undigitized-row": (overflow_in_an_undigitized_row, ValueError, OVERFLOW),
    # impairments: the configuration file. JSON's true and false would
    # otherwise be read as 1 and 0.
    **calls("config", config_with, [
        *(
            (f"{section}.{key}-{name}", (section, key, value),
             f"{section}: {key} must be numeric, not true or false, got {json.dumps(value)}")
            for section, key in NUMERIC_KEYS
            for name, value in [
                ("true", True), ("false-innermost", with_first_number_false(SAVED[section][key]))
            ]
        ),
        ("chan.analog_suppression_db-string", ("chan", "analog_suppression_db", "40"),
         "configuration value has the wrong type: chan: analog_suppression_db must be a number, "
         'got "40"'),
    ]),
    "load_preset-unknown": (
        lambda tmp: load_preset("fig99"),
        ValueError,
        "unknown preset 'fig99'; valid: fig5_m10dbm, fig7_20dbm, fig4_m10dbm_indosc, "
        "sweep_40db, sweep_55db",
    ),
    # signals: signals, tones, frames and seeds. Taken modulo 2**64, the
    # out-of-range seeds would draw the streams of 2**64 - 1 and 0.
    **calls("ComplexBasebandSignal", ComplexBasebandSignal, [
        ("empty", (np.array([]), 80e6), "samples must be a nonempty 1-D sequence"),
        ("zero-rate", (np.ones(1), 0.0), "sample_rate must be finite and positive, got 0.0"),
        ("infinite-rate", (np.ones(1), math.inf),
         "sample_rate must be finite and positive, got inf"),
        ("nan-sample", (np.array([np.nan]), 80e6), "samples contain non-finite values"),
    ]),
    **calls("gen_tone", gen_tone, [
        ("at-nyquist", (40e6, 1.0, 16),
         "tone frequency 40000000.0 Hz outside Nyquist range +-40000000.0 Hz"),
        ("zero-amplitude", (1e6, 0.0, 16), "amplitude must be in (0, 1], got 0.0"),
        ("amplitude-above-one", (1e6, 1.5, 16), "amplitude must be in (0, 1], got 1.5"),
        ("n_samples-fraction", (1e6, 0.5, 100.5), "n_samples must be an integer, got 100.5"),
        ("n_samples-bool", (1e6, 0.5, True), "n_samples must be an integer, got True"),
        ("n_samples-zero", (1e6, 0.5, 0), "n_samples must be >= 1"),
    ]),
    **calls("gen_ofdm_frames", gen_ofdm_frames, [
        ("no-frames", (0, 0), "n_frames must be >= 1"),
        ("n_frames-fraction", (2.5, 0), "n_frames must be an integer, got 2.5"),
        ("n_frames-bool", (True, 0), "n_frames must be an integer, got True"),
        ("seed-fraction", (100, 1.5), "seed must be an integer, got 1.5"),
        ("seed-negative", (100, -1), "seed must be in [0, 2**64), got -1"),
        ("seed-2**64", (100, 2**64), "seed must be in [0, 2**64), got 18446744073709551616"),
    ]),
    **calls("substream", substream, [
        ("seed-fraction", (1.5, "thermal-noise"), "seed must be an integer, got 1.5"),
        ("seed-bool", (True, "thermal-noise"), "seed must be an integer, got True"),
        ("seed-string", ("1", "thermal-noise"), "seed must be an integer, got '1'"),
    ]),
    "fir_convolve-no-taps": (
        lambda tmp: fir_convolve(random_signal(16, 1), []),
        ValueError,
        "taps must be a nonempty 1-D sequence",
    ),
    # signals: IQ captures. The command line's error line does not say
    # which OSError a missing sidecar is.
    "read_iq-no-sidecar": (
        lambda tmp: read_capture(tmp, sidecar=False),
        FileNotFoundError,
        "missing sidecar header {tmp}/x.iq.hdr",
    ),
    "read_iq-payload-a-sample-short": (
        lambda tmp: read_capture(tmp, trim=16),
        ValueError,
        "IQ payload holds 63 samples but header says 64",
    ),
    "read_iq-payload-half-a-sample-long": (
        lambda tmp: read_capture(tmp, extra=bytes(8)),
        ValueError,
        "IQ payload holds 64 samples but header says 64",
    ),
    # spectral: the spectrum and its readings. Four bins all lie within a
    # tone's +-3-bin main lobe.
    **calls("spectrum", lambda n, **kw: spectrum(gen_tone(1e6, 1.0, n), **kw), [
        ("n_fft-above-length", {"n": 512, "n_fft": 1024}, "n_fft 1024 exceeds signal length 512"),
        ("n_fft-below-two", {"n": 512, "n_fft": 1}, "n_fft must be >= 2"),
        ("too-many-segments", {"n": 4096, "n_fft": 4096, "averaging": 2},
         "averaging must be in [1, 1] for length 4096, got 2"),
        ("n_fft-float", {"n": 8192, "n_fft": 4096.0}, "n_fft must be an integer, got 4096.0"),
        ("averaging-bool", {"n": 8192, "n_fft": 4096, "averaging": True},
         "averaging must be an integer, got True"),
    ]),
    **calls("Spectrum", Spectrum, [
        ("unsorted-bins", (np.array([0.0, -1.0]), np.zeros(2)),
         "bin_freqs must be strictly increasing"),
        ("infinite-power", (np.array([0.0, 1.0]), np.array([0.0, -np.inf])),
         "power_db must be finite for all bins"),
        ("mismatched-arrays", (np.arange(3.0), np.zeros(4)),
         "bin_freqs and power_db must be matching 1-D arrays"),
    ]),
    "skirt_peak_dbc-no-bins-outside-the-lobe": (
        lambda tmp: skirt_peak_dbc(spectrum(gen_tone(0.0, 1.0, 4), n_fft=4), 0.0),
        ValueError,
        "search window contains no bins outside the line lobe",
    ),
}


def assert_raises_exactly(call, kind, message):
    """``call()`` raises ``kind`` whose text is exactly ``message``."""
    with pytest.raises(kind) as error:
        call()
    assert str(error.value) == message


def assert_row(tmp_path, name):
    """Row ``name`` of ``LIBRARY_ERRORS`` raises its error at ``tmp_path``."""
    make, kind, message = LIBRARY_ERRORS[name]
    assert_raises_exactly(lambda: make(tmp_path), kind, message.replace("{tmp}", str(tmp_path)))


@pytest.mark.parametrize("name", sorted(LIBRARY_ERRORS))
def test_bad_input_raises_its_exact_error(tmp_path, name):
    assert_row(tmp_path, name)


def not_run(*args):
    raise AssertionError("work ran before the input was rejected")


@pytest.mark.parametrize("name", sorted(n for n in LIBRARY_ERRORS if n.startswith("run_sweep-")))
def test_run_sweep_rejects_before_any_work(tmp_path, monkeypatch, name):
    # No frame is drawn, and neither the chain nor a basis runs.
    for work in ("gen_ofdm_frames", "receive", "build_basis"):
        monkeypatch.setattr(cancellers, work, not_run)
    assert_row(tmp_path, name)


@pytest.mark.parametrize(
    "name", sorted(n for n in LIBRARY_ERRORS if n.startswith(("receive-", "simulate_received-")))
)
def test_chain_rejects_before_the_front_end(tmp_path, monkeypatch, name):
    # The rows and every power are checked before the front end runs.
    monkeypatch.setattr(impairments, "transmit_front_end", not_run)
    assert_row(tmp_path, name)


@pytest.mark.parametrize("scale", [0.0, math.nan, 1e-320], ids=["zero", "nan", "subnormal"])
def test_scale_that_decodes_to_non_finite_is_an_error_before_any_code(scale):
    chan = ChannelAndReceiver(h_si=[1.0], adc_bits=14)
    analog = random_signal(256, 4)
    with np.errstate(all="ignore"):
        assert not np.all(np.isfinite(converter_oracle(analog, scale, chan)[1]))
    codes = np.full((256, 2), 7, dtype=np.int16)
    assert_raises_exactly(lambda: _quantize(analog, scale, chan, codes), ValueError, OVERFLOW)
    assert np.all(codes == 7)
