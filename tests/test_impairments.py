"""Tests for the transceiver impairment chain."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracles import (
    antenna_oracle,
    apply_dac_oracle,
    apply_iq_oracle,
    apply_pa_oracle,
    channel_and_receiver_oracle,
    converter_oracle,
    receive_every_row,
)
from fdsic._rng import substream
from fdsic.cancellers import DEFAULT_SPECS, run_sweep
from fdsic.impairments import (
    ADC_HEADROOM_DB,
    CHAIN_BLOCK,
    MAX_TX_POWER_DBM,
    REF_DRIVE_RMS,
    ChannelAndReceiver,
    DacNonlinearity,
    ImpairmentConfig,
    IqImbalance,
    PaNonlinearity,
    PhaseNoiseSpec,
    ReceiverDiagnostics,
    apply_dac,
    apply_iq,
    apply_pa,
    apply_phase_noise,
    config_from_dict,
    config_to_dict,
    load_config,
    receive,
    save_config,
    simulate_received,
    thermal_noise,
    transmit_front_end,
    _SECTIONS,
    _code_dtype,
    _decode,
    _quantize,
)
from fdsic.presets import PHASE_NOISE_LINEWIDTH_HZ, PRESET_NAMES, PRESETS, load_preset
from fdsic.signals import SAMPLE_RATE, ComplexBasebandSignal, OfdmFrameSpec, gen_tone, power_db
from fdsic.spectral import measure_line_db, spectrum

FS = 80e6
F_TONE = FS / 4096 * 64  # coherent on a 4096-bin grid


def tone_spectrum(samples, n_fft=4096):
    return spectrum(ComplexBasebandSignal(samples, FS), n_fft=n_fft)


def line_dbc(spec, freq, ref_freq=F_TONE):
    return measure_line_db(spec, freq) - measure_line_db(spec, ref_freq)


def identity_config(**chan_overrides) -> ImpairmentConfig:
    chan = ChannelAndReceiver(
        h_si=[1.0],
        analog_suppression_db=chan_overrides.pop("analog_suppression_db", 30.0),
        thermal_noise_dbfs=chan_overrides.pop("thermal_noise_dbfs", -90.0),
        adc_bits=chan_overrides.pop("adc_bits", 24),
    )
    return ImpairmentConfig(
        dac=DacNonlinearity.identity(),
        tx_iq=IqImbalance.identity(),
        rx_iq=IqImbalance.identity(),
        pn=PhaseNoiseSpec(0.0, True, 0),
        pa=PaNonlinearity.identity(),
        chan=chan,
    )


class TestDacNonlinearity:
    def test_identity(self):
        sig = gen_tone(F_TONE, 0.5, 4096).samples
        out = apply_dac(sig, DacNonlinearity.identity())
        npt.assert_allclose(out, sig, atol=1e-15)

    def test_matched_odd_order_lines(self):
        # Matched rails with orders up to 3: products land on f, -3f and
        # +-2f; +3f stays empty.
        dac = DacNonlinearity([1.0, 1e-3, 1e-3], [1.0, 1e-3, 1e-3])
        sig = gen_tone(F_TONE, 0.5, 4096 * 8).samples
        spec = tone_spectrum(apply_dac(sig, dac))
        for freq in (-3 * F_TONE, -2 * F_TONE, 2 * F_TONE):
            assert line_dbc(spec, freq) > -90.0
        assert line_dbc(spec, 3 * F_TONE) < -100.0

    def test_matched_even_order_equal_power(self):
        dac = DacNonlinearity([1.0, 1e-3], [1.0, 1e-3])
        sig = gen_tone(F_TONE, 0.5, 4096 * 8).samples
        spec = tone_spectrum(apply_dac(sig, dac))
        plus = measure_line_db(spec, 2 * F_TONE)
        minus = measure_line_db(spec, -2 * F_TONE)
        assert abs(plus - minus) < 0.2
        assert line_dbc(spec, 2 * F_TONE) > -90.0

    def test_linear_rail_mismatch_creates_image(self):
        dac = DacNonlinearity([1.02], [0.98])
        sig = gen_tone(F_TONE, 0.5, 4096 * 8).samples
        spec = tone_spectrum(apply_dac(sig, dac))
        # (a_i - a_q)/2 relative to (a_i + a_q)/2
        expected = 20 * math.log10(0.02 / 1.0)
        assert abs(line_dbc(spec, -F_TONE) - expected) < 0.5


class TestIqImbalance:
    def test_identity(self):
        sig = gen_tone(F_TONE, 0.5, 512).samples
        out = apply_iq(sig, IqImbalance.identity())
        npt.assert_allclose(out, sig, atol=1e-15)

    def test_image_level_exact(self):
        iq = IqImbalance([1.0], [0.01])
        sig = gen_tone(F_TONE, 1.0, 4096 * 8).samples
        spec = tone_spectrum(apply_iq(sig, iq))
        assert abs(line_dbc(spec, -F_TONE) - (-40.0)) < 0.1

    def test_compensation_drops_image_20_db(self):
        sig = gen_tone(F_TONE, 1.0, 4096 * 8).samples
        raw = tone_spectrum(apply_iq(sig, IqImbalance([1.0], [0.1])))
        comp = tone_spectrum(apply_iq(sig, IqImbalance([1.0], [0.01])))
        drop = line_dbc(raw, -F_TONE) - line_dbc(comp, -F_TONE)
        assert abs(drop - 20.0) < 0.2

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_widely_linear_additivity(self, seed):
        rng = np.random.default_rng(seed)
        iq = IqImbalance(
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
        )
        a = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        b = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        out_sum = apply_iq(a + b, iq)
        out_parts = (
            apply_iq(a, iq)
            + apply_iq(b, iq)
        )
        assert np.max(np.abs(out_sum - out_parts)) < 1e-12 * max(np.max(np.abs(out_sum)), 1)


class TestPhaseNoise:
    def test_zero_linewidth_identity(self):
        sig = gen_tone(F_TONE, 1.0, 1024).samples
        out = apply_phase_noise(sig, PhaseNoiseSpec(0.0, False, 3), seed=1)
        npt.assert_allclose(out, sig, atol=1e-12)

    def test_shared_zero_delay_exact_identity(self):
        sig = gen_tone(F_TONE, 1.0, 1024).samples
        out = apply_phase_noise(sig, PhaseNoiseSpec(5e3, True, 0), seed=1)
        npt.assert_array_equal(out, sig)

    def test_residual_variance_grows_with_delay(self):
        sig = gen_tone(F_TONE, 1.0, 200000).samples
        variances = []
        for delay in (1, 4, 16):
            out = apply_phase_noise(sig, PhaseNoiseSpec(100.0, True, delay), seed=5)
            rot = np.angle(out / sig)
            variances.append(np.var(rot))
        assert variances[0] < variances[1] < variances[2]
        assert variances[1] / variances[0] == pytest.approx(4.0, rel=0.25)

    def test_independent_wider_than_shared(self):
        sig = gen_tone(F_TONE, 1.0, 4096 * 16).samples
        pn_ind = apply_phase_noise(sig, PhaseNoiseSpec(100.0, False, 1), seed=2)
        pn_sh = apply_phase_noise(sig, PhaseNoiseSpec(100.0, True, 1), seed=2)
        var_ind = np.var(np.angle(pn_ind / sig))
        var_sh = np.var(np.angle(pn_sh / sig))
        assert var_ind > 10 * var_sh

    def test_deterministic_in_seed(self):
        sig = gen_tone(F_TONE, 1.0, 512).samples
        a = apply_phase_noise(sig, PhaseNoiseSpec(1e3, False, 1), seed=9)
        b = apply_phase_noise(sig, PhaseNoiseSpec(1e3, False, 1), seed=9)
        c = apply_phase_noise(sig, PhaseNoiseSpec(1e3, False, 1), seed=10)
        npt.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_shared_delay_of_the_whole_signal_runs(self):
        # The shared walk takes len + delay draws; one sample more is an error.
        sig = gen_tone(F_TONE, 1.0, 64).samples
        assert len(apply_phase_noise(sig, PhaseNoiseSpec(1e3, True, len(sig)), seed=1)) == 64


def pa_two_tone_oracle(a1, a2, beta3_prime):
    """Closed-form third-order two-tone products.

    For x = a1 e^{jw1 n} + a2 e^{jw2 n}, the cubic envelope term
    x|x|^2 contributes a1^2 conj(a2) at 2w1-w2 and a2^2 conj(a1) at
    2w2-w1.
    """
    return beta3_prime * a1**2 * np.conj(a2), beta3_prime * a2**2 * np.conj(a1)


class TestPaNonlinearity:
    def test_identity(self):
        sig = gen_tone(F_TONE, 0.9, 1024).samples
        out = apply_pa(sig, PaNonlinearity.identity())
        npt.assert_allclose(out, sig, atol=1e-15)

    def test_single_tone_only_compresses(self):
        pa = PaNonlinearity([1.0, 0.01])
        sig = gen_tone(F_TONE, 1.0, 4096 * 8).samples
        spec = tone_spectrum(apply_pa(sig, pa))
        carrier = measure_line_db(spec, F_TONE)
        others = np.delete(
            spec.power_db, np.arange(spec.nearest_bin(F_TONE) - 3, spec.nearest_bin(F_TONE) + 4)
        )
        assert np.max(others) - carrier < -250.0
        # beta'_3 = (3/4) beta_3; gain on a unit tone is 1 + 0.0075
        assert carrier == pytest.approx(20 * np.log10(1.0 + 0.75 * 0.01), abs=0.01)

    def test_two_tone_intermodulation_matches_oracle(self):
        beta3 = 0.01
        pa = PaNonlinearity([1.0, beta3])
        f1, f2 = FS / 4096 * 64, FS / 4096 * 96
        a1, a2 = 0.6, 0.4
        n = np.arange(4096 * 8)
        x = a1 * np.exp(2j * np.pi * f1 * n / FS) + a2 * np.exp(2j * np.pi * f2 * n / FS)
        out = apply_pa(x, pa)
        spec = tone_spectrum(out)
        im_lo, im_hi = pa_two_tone_oracle(a1, a2, 0.75 * beta3)
        measured_lo = measure_line_db(spec, 2 * f1 - f2)
        measured_hi = measure_line_db(spec, 2 * f2 - f1)
        assert measured_lo == pytest.approx(20 * np.log10(np.abs(im_lo)), abs=0.05)
        assert measured_hi == pytest.approx(20 * np.log10(np.abs(im_hi)), abs=0.05)

    def test_output_depends_only_on_sample_envelope(self):
        # y/x must be a real function of |x| alone: rotating the input
        # rotates the output identically.
        pa = PaNonlinearity([1.0, -0.05, 0.002])
        rng = np.random.default_rng(0)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        rot = np.exp(1j * 0.7)
        out1 = apply_pa(x, pa)
        out2 = apply_pa(x * rot, pa)
        npt.assert_allclose(out2, out1 * rot, atol=1e-12)

    def test_baseband_coefficient_mapping(self):
        pa = PaNonlinearity([2.0, 0.8, 0.4])
        bc = pa.baseband_coeffs()
        npt.assert_allclose(bc, [2.0, 0.8 * 3 / 4, 0.4 * 10 / 16])


def receive_at_antenna(x, chan, rx_iq, seed):
    """The channel and receiver alone on antenna-referred ``x``.

    Runs :func:`receive_every_row` at full power and ``seed`` with an
    identity front end and PA on ``x`` referred back to the amplifier
    input; the noise is ``thermal_noise(len(x), chan, seed)``. Returns the
    received samples, the receiver summary and the antenna samples the
    channel got: ``x`` up to rounding, and the bits the chain computes.
    """
    cfg = ImpairmentConfig(
        DacNonlinearity.identity(), IqImbalance.identity(), rx_iq, PhaseNoiseSpec(),
        PaNonlinearity.identity(), chan,
    )
    drive = 1.0 / REF_DRIVE_RMS
    v = x / (drive * 10.0 ** (MAX_TX_POWER_DBM / 20.0))
    received, diag = receive_every_row(v, cfg, MAX_TX_POWER_DBM, seed)
    # The identity front end passes v through; only an exact zero's sign can flip.
    front = transmit_front_end(v, cfg, seed)
    return received, diag, antenna_oracle(front, cfg.pa, MAX_TX_POWER_DBM)


def floor_oracle_dbfs(noise, quant_error):
    """The apparent floor of noise plus quantization error, in dBFS."""
    return 10.0 * math.log10(float(np.mean(np.abs(noise + quant_error) ** 2)))


class TestChannelAndReceiver:
    def test_transparent_receiver(self):
        sig = gen_tone(F_TONE, 0.5, 8192).samples
        chan = ChannelAndReceiver(
            h_si=[1.0], analog_suppression_db=0.0, thermal_noise_dbfs=float("-inf"), adc_bits=24
        )
        out, diag, _ = receive_at_antenna(sig, chan, IqImbalance.identity(), 1)
        err = np.mean(np.abs(out - sig) ** 2) / np.mean(np.abs(sig) ** 2)
        assert 10 * np.log10(err) < -120.0
        assert diag.clipped_samples == 0

    def test_zero_input_keeps_unit_agc_scale(self):
        # Nothing reaches the AGC, so it keeps a scale of 1, and every code
        # is the one just above zero: each rail decodes to half a step.
        cfg = identity_config(thermal_noise_dbfs=float("-inf"), adc_bits=14)
        zeros = np.zeros(64, dtype=complex)
        _, _, (diag,) = receive(zeros, cfg, [0.0], 1, 0, 0)
        step = 2.0 / 2**14
        assert diag.agc_scale == 1.0
        assert diag.clipped_samples == 0
        assert diag.apparent_floor_dbfs == pytest.approx(10 * math.log10(2 * (step / 2) ** 2))
        assert diag.apparent_floor_dbfs == pytest.approx(-81.278, abs=1e-3)

    def test_pure_delay_channel(self):
        sig = gen_tone(F_TONE, 0.5, 4096).samples
        chan = ChannelAndReceiver(
            h_si=[0.0, 0.0, 1.0],
            analog_suppression_db=20.0,
            thermal_noise_dbfs=float("-inf"),
            adc_bits=24,
        )
        out, _, _ = receive_at_antenna(sig, chan, IqImbalance.identity(), 1)
        expected = np.zeros_like(sig)
        expected[2:] = sig[:-2] * 0.1
        err = np.max(np.abs(out - expected))
        assert err < 1e-5

    def test_quantization_floor_tracks_input_level(self):
        # Gain-ranged converter: raising the input 20 dB raises the
        # quantization error floor by 20 dB.
        rng = np.random.default_rng(11)
        x = (rng.standard_normal(65536) + 1j * rng.standard_normal(65536)) / np.sqrt(2)
        chan = ChannelAndReceiver(
            h_si=[1.0], analog_suppression_db=0.0, thermal_noise_dbfs=float("-inf"), adc_bits=12
        )
        floors = []
        for level in (0.01, 0.1):
            sig = level * x
            # No thermal noise: the apparent floor is the quantization error's.
            _, diag, _ = receive_at_antenna(sig, chan, IqImbalance.identity(), 3)
            floors.append(diag.apparent_floor_dbfs)
        assert floors[1] - floors[0] == pytest.approx(20.0, abs=0.5)

    def test_clipping_counted_not_fatal(self):
        # A single hot sample exceeds the gain-ranged full scale.
        x = np.full(4096, 0.1 + 0.1j, dtype=complex)
        x[100] = 40.0 + 0.0j
        chan = ChannelAndReceiver(
            h_si=[1.0], analog_suppression_db=0.0, thermal_noise_dbfs=float("-inf"), adc_bits=12
        )
        out, diag, _ = receive_at_antenna(x, chan, IqImbalance.identity(), 1)
        assert diag.clipped_samples >= 1
        assert len(out) == 4096


class TestSimulateReceived:
    def test_disabled_impairments_scaled_noisy_copy(self):
        sig = gen_tone(F_TONE, 0.2, 65536)
        cfg = identity_config()
        r, _ = simulate_received(sig, cfg, 0.0, seed=4)
        # mean rx power == tx (0 dBm) - suppression in the antenna-referred units
        assert power_db(r) == pytest.approx(-30.0, abs=0.3)
        scale = 10 ** (-30.0 / 20.0) / 0.2
        resid = r.samples - scale * sig.samples
        resid_db = 10 * np.log10(np.mean(np.abs(resid) ** 2))
        assert resid_db == pytest.approx(-90.0, abs=0.5)

    def test_deterministic_in_seed(self):
        sig = gen_tone(F_TONE, 0.2, 8192)
        cfg = load_preset("fig5_m10dbm")
        r1, _ = simulate_received(sig, cfg, -10.0, seed=6)
        r2, _ = simulate_received(sig, cfg, -10.0, seed=6)
        r3, _ = simulate_received(sig, cfg, -10.0, seed=7)
        npt.assert_array_equal(r1.samples, r2.samples)
        assert not np.array_equal(r1.samples, r3.samples)

    def test_receiver_diagnostics_exposed(self):
        sig = gen_tone(F_TONE, 0.2, 8192)
        r, diag = simulate_received(sig, load_preset("fig5_m10dbm"), -10.0, seed=6)
        assert isinstance(diag, ReceiverDiagnostics)
        assert len(r) == len(sig)
        assert isinstance(diag.clipped_samples, int)
        assert diag.agc_scale > 0
        # Thermal noise at -90 dBFS under a finer quantization error.
        assert diag.apparent_floor_dbfs == pytest.approx(-90.0, abs=1.0)

    def test_is_one_receive_of_every_row(self):
        # One receive call: its front end, here with phase noise and TX IQ imbalance.
        cfg = load_preset("fig5_m10dbm")
        assert cfg.pn.linewidth > 0 and np.any(cfg.tx_iq.delta)
        sig = gen_tone(F_TONE, 0.2, 8192)
        r, diag = simulate_received(sig, cfg, -10.0, seed=6)
        r2, diag2 = receive_every_row(sig.samples, cfg, -10.0, 6)
        assert r.samples.tobytes() == r2.tobytes()
        assert diag.clipped_samples == diag2.clipped_samples
        assert diag.agc_scale == diag2.agc_scale
        assert diag.apparent_floor_dbfs == diag2.apparent_floor_dbfs

    def test_front_end_does_not_depend_on_tx_power(self):
        # One front end serves every power: receive at two powers has the
        # bits of simulate_received at each.
        cfg = load_preset("fig5_m10dbm")
        sig = gen_tone(F_TONE, 0.2, 8192)
        powers = [-10.0, 22.0]
        _, received, _ = receive(sig.samples, cfg, powers, 6, 0, 0)
        for k, power in enumerate(powers):
            r, _ = simulate_received(sig, cfg, power, seed=6)
            assert r.samples.tobytes() == received[:, k].tobytes()

    def test_high_power_preset_adds_amplifier_lines_and_floor(self):
        # Compared with the low-power scenario, the 20 dBm scenario grows
        # +3f and +5f mixing lines and a raised absolute per-bin floor.
        tone = gen_tone(F_TONE, 0.5, 4096 * 16)
        readings = {}
        for name in ("fig5_m10dbm", "fig7_20dbm"):
            r, _ = simulate_received(tone, load_preset(name), PRESETS[name][0], seed=1)
            spec = tone_spectrum(r.samples)
            carrier = measure_line_db(spec, F_TONE)
            readings[name] = {
                "3f": measure_line_db(spec, 3 * F_TONE) - carrier,
                "5f": measure_line_db(spec, 5 * F_TONE) - carrier,
                "floor_abs": float(np.median(spec.power_db)),
                "floor_rel": float(np.median(spec.power_db)) - carrier,
            }
        low, high = readings["fig5_m10dbm"], readings["fig7_20dbm"]
        assert high["3f"] >= low["3f"] + 3.0
        assert high["5f"] >= low["5f"] + 5.0
        # at low power the 5f reading is indistinguishable from the floor
        assert low["5f"] <= low["floor_rel"] + 10 * math.log10(7) + 3.0
        # absolute per-bin floor rises with the transmit power
        assert high["floor_abs"] - low["floor_abs"] >= 15.0


class TestConfigSerialization:
    def test_dict_roundtrip(self):
        cfg = load_preset("fig7_20dbm")
        back = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(back) == config_to_dict(cfg)

    def test_file_roundtrip(self, tmp_path):
        cfg = load_preset("sweep_55db")
        path = save_config(cfg, tmp_path / "cfg.json")
        back = load_config(path)
        npt.assert_array_equal(back.chan.h_si, cfg.chan.h_si)
        npt.assert_array_equal(back.tx_iq.delta, cfg.tx_iq.delta)
        assert back.chan.analog_suppression_db == cfg.chan.analog_suppression_db
        assert back.pn.linewidth == cfg.pn.linewidth

    def test_readme_lists_every_file_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("## Configuration files")[1].split("\n## ")[0]
        rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
        listed = [key for row in rows for key in re.findall(r"`([^`]+)`", row)]
        keys = [f"{name}.{key}" for name, (_, section) in _SECTIONS.items() for key in section]
        assert sorted(listed) == sorted(keys)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_loads_and_roundtrips(self, name):
        cfg = load_preset(name)
        assert config_to_dict(config_from_dict(config_to_dict(cfg))) == config_to_dict(cfg)


# A nudged key (``nudged``) moves some figure of a 4-frame sweep_40db sweep
# by more than this. Measured: each key moved one by 0.26 dB or more
# (rx_iq.delta the least), while a converter full scale, which the gain
# ranging cancels, moved them by < 1e-11 dB.
KEY_MOVES_DB = 0.05


def nudged(key: str, value, write):
    """``value`` of file key ``key`` nudged: a boolean flipped, an integer
    stepped (``adc_bits`` by 2, any other by 1), every other number, however
    deeply listed, scaled by 1.1."""
    if write is bool:
        return not value
    if write is int:
        return value + (2 if key == "adc_bits" else 1)
    if isinstance(value, list):
        return [nudged(key, v, write) for v in value]
    return value * 1.1


class TestEveryKeyActs:
    @staticmethod
    def figures(cfg: ImpairmentConfig) -> np.ndarray:
        """Each report's mean and apparent floor, at -10 and 22 dBm."""
        frames = OfdmFrameSpec(n_frames=4, seed=3)
        return np.array([
            [rep.residual_above_noise_db, rep.receiver.apparent_floor_dbfs]
            for rep in run_sweep(cfg, [-10.0, 22.0], DEFAULT_SPECS, frames, 3)
        ])

    def test_every_file_key_moves_a_figure(self):
        # Over _SECTIONS, so a key added to the format is covered too.
        cfg = load_preset("sweep_40db")
        base = self.figures(cfg)
        inert = {}
        for name, (_, keys) in _SECTIONS.items():
            for key, (_, write) in keys.items():
                data = config_to_dict(cfg)
                data[name][key] = nudged(key, data[name][key], write)
                moved = float(np.max(np.abs(self.figures(config_from_dict(data)) - base)))
                if not moved > KEY_MOVES_DB:
                    inert[f"{name}.{key}"] = moved
        assert inert == {}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bits, so signed zeros count."""
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def stage_input(n: int, seed: int, rms: float = 0.3) -> np.ndarray:
    """Complex Gaussian samples with signed zeros on either rail."""
    rng = np.random.default_rng(seed)
    x = rms / math.sqrt(2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    x[[0, 7, 8, 9]] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    return x


class TestStagesMatchOutOfPlaceFormulas:
    """Each stage writes through scratch buffers; its output must keep the
    bits of the plain out-of-place formula, and its inputs must not change."""

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    @pytest.mark.parametrize("stage", ["dac", "tx_iq", "rx_iq", "pa"])
    def test_stage_bits(self, preset, stage):
        cfg = load_preset(preset)
        run, oracle, params = {
            "dac": (apply_dac, apply_dac_oracle, cfg.dac),
            "tx_iq": (apply_iq, apply_iq_oracle, cfg.tx_iq),
            "rx_iq": (apply_iq, apply_iq_oracle, cfg.rx_iq),
            "pa": (apply_pa, apply_pa_oracle, cfg.pa),
        }[stage]
        x = stage_input(4096, seed=len(preset))
        before = x.copy()
        out = run(x, params)
        assert same_bits(out, oracle(x, params))
        assert same_bits(x, before)
        assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("n", [1, 40960, 65536])
    def test_thermal_noise_bits(self, n):
        # Drawn into one buffer and scaled in place: the bits of the
        # out-of-place sum and product.
        chan = ChannelAndReceiver(h_si=[1.0], thermal_noise_dbfs=-90.0)
        rng = substream(7, "thermal-noise")
        expected = (10.0 ** (-90.0 / 20.0) / math.sqrt(2.0)) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        assert same_bits(thermal_noise(n, chan, 7), expected)

    @pytest.mark.parametrize("n", [4096, 65536])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "independent"])
    def test_phase_noise_bits(self, n, shared):
        # The rotation from its cosine and sine keeps the bits of the complex
        # exponential, with the phasor as the product's first operand below
        # and above numpy's 256 KiB temporary elision (which, when it
        # applies, takes that same order).
        pn = PhaseNoiseSpec(PHASE_NOISE_LINEWIDTH_HZ, shared, 1)
        sigma = math.sqrt(2.0 * math.pi * pn.linewidth / SAMPLE_RATE)
        if shared:
            path = np.cumsum(substream(3, "phase-noise-shared").normal(0.0, sigma, n + 1))
            rotation = path[1:] - path[:n]
        else:
            phi_tx = np.cumsum(substream(3, "phase-noise-tx").normal(0.0, sigma, n))
            rotation = phi_tx - np.cumsum(substream(3, "phase-noise-rx").normal(0.0, sigma, n))
        x = stage_input(n, seed=5)
        expected = np.exp(1j * rotation) * x
        assert same_bits(apply_phase_noise(x, pn, 3), expected)

    @pytest.mark.parametrize("preset", ["sweep_40db", "fig4_m10dbm_indosc"],
                             ids=["shared", "independent"])
    def test_front_end_of_a_prefix_is_the_prefix_of_the_front_end(self, preset):
        # The lengths lie on both sides of numpy's 256 KiB (16 384-sample)
        # temporary elision: no sample's bits depend on the signal's length.
        cfg = load_preset(preset)
        x = stage_input(65536 + 7, seed=11, rms=REF_DRIVE_RMS)
        whole = transmit_front_end(x, cfg, 3)
        differ = [
            m for m in (2, 4096, 16383, 16384, 65536)
            if not same_bits(transmit_front_end(x[:m], cfg, 3), whole[:m])
        ]
        assert differ == []

    def test_dac_and_pa_with_zero_coefficients(self):
        # Zero middle coefficients make the Horner steps produce signed zeros.
        dac = DacNonlinearity([1.0, 0.0, -0.2, 0.0], [0.9, 0.0, 0.0, 0.05])
        pa = PaNonlinearity([1.0, 0.0, -0.3])
        x = stage_input(2048, seed=3)
        assert same_bits(apply_dac(x, dac), apply_dac_oracle(x, dac))
        assert same_bits(apply_pa(x, pa), apply_pa_oracle(x, pa))


def long_filter_config(cfg: ImpairmentConfig) -> ImpairmentConfig:
    """``cfg`` with a 7-tap SI channel and 3-tap RX IQ taps: more history per
    block than the presets' 4 + 1 taps."""
    rx_iq = IqImbalance([1.0, 0.05 - 0.02j, -0.01j], [0.03 + 0.01j, 0.0, 0.005])
    h_si = cfg.chan.h_si[0] * np.array([1.0, 0.4j, -0.2, 0.1 - 0.1j, 0.05, -0.02j, 0.01])
    chan = dataclasses.replace(cfg.chan, h_si=h_si)
    return dataclasses.replace(cfg, chan=chan, rx_iq=rx_iq)


class TestConverterCodes:
    """The converter in two steps: integer codes, then decoded samples with
    the bits of the float converter (:func:`converter_oracle`)."""

    @pytest.mark.parametrize("bits", [4, 14, 16, 17, 24])
    def test_decoded_codes_are_the_float_converter(self, bits):
        chan = ChannelAndReceiver(h_si=[1.0], adc_bits=bits)
        scale = 0.37
        analog = stage_input(4096, seed=bits, rms=0.3 / scale)
        # Hot samples on either sign of each rail clip at both ends; the
        # full-scale edges sit on either side of the last code.
        analog[100:104] = [40.0 + 1j, -40.0 - 1j, 1.0 + 40j, -1.0 - 40j]
        edge = 1.0 / scale
        analog[200:204] = [edge, -edge, 1j * np.nextafter(edge, 0.0), -1j * np.nextafter(edge, 0.0)]
        rails, digitized, clipped = converter_oracle(analog, scale, chan)

        codes = np.empty((len(analog), 2), dtype=_code_dtype(chan))
        assert codes.dtype == (np.int16 if bits <= 16 else np.int32)
        assert np.array_equal(_quantize(analog, scale, chan, codes), clipped)
        for r in range(2):
            assert np.array_equal(codes[:, r], rails[r])
            assert codes[:, r].min() == -(2 ** (bits - 1))
            assert codes[:, r].max() == 2 ** (bits - 1) - 1
        assert same_bits(_decode(codes, scale, chan), digitized)

    def test_decode_takes_one_scale_per_column(self):
        chan = ChannelAndReceiver(h_si=[1.0], adc_bits=14)
        analog = stage_input(1000, seed=9).reshape(500, 2)
        scales = np.array([0.8, 3.0])
        codes = np.empty((2, 500, 2), dtype=np.int16)
        for k in range(2):
            _quantize(analog[:, k], scales[k], chan, codes[k])
        decoded = _decode(codes, scales, chan)
        for k in range(2):
            assert same_bits(decoded[k], converter_oracle(analog[:, k], scales[k], chan)[1])


class TestChainBlockEdges:
    """The analog chain streams in CHAIN_BLOCK-sample blocks: at lengths
    around the block edges, every output keeps the bits of the unblocked
    out-of-place formulas."""

    LENGTHS = [CHAIN_BLOCK - 1, CHAIN_BLOCK, CHAIN_BLOCK + 1, 2 * CHAIN_BLOCK + 5]
    POWER = PRESETS["fig7_20dbm"][0]

    @staticmethod
    def config(filters: str) -> ImpairmentConfig:
        cfg = load_preset("fig7_20dbm")
        return cfg if filters == "preset" else long_filter_config(cfg)

    @staticmethod
    def assert_receiver_matches(digitized, diag, x, cfg, noise, clips):
        ref_digitized, ref_error, ref_clipped, ref_scale = channel_and_receiver_oracle(
            x, cfg.chan, cfg.rx_iq, noise, ADC_HEADROOM_DB
        )
        assert same_bits(digitized, ref_digitized)
        assert diag.apparent_floor_dbfs == floor_oracle_dbfs(noise, ref_error)
        assert diag.clipped_samples == np.count_nonzero(ref_clipped)
        assert (diag.clipped_samples > 0) == clips
        assert diag.agc_scale == ref_scale

    @pytest.mark.parametrize("clips", [False, True], ids=["in-range", "clipping"])
    @pytest.mark.parametrize("filters", ["preset", "long"])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_channel_and_receiver(self, n, filters, clips):
        cfg = self.config(filters)
        x = stage_input(n, seed=n, rms=3.0)
        if clips:
            # Sparse peaks, some on block edges, overload the gain-ranged ADC.
            x[::512] *= 200.0
        noise = thermal_noise(n, cfg.chan, 2)
        x_before = x.copy()
        digitized, diag, antenna = receive_at_antenna(x, cfg.chan, cfg.rx_iq, 2)
        self.assert_receiver_matches(digitized, diag, antenna, cfg, noise, clips)
        assert same_bits(x, x_before)

    @pytest.mark.parametrize("clips", [False, True], ids=["in-range", "clipping"])
    @pytest.mark.parametrize("filters", ["preset", "long"])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_receive(self, n, filters, clips):
        cfg = self.config(filters)
        v = stage_input(n, seed=n + 1, rms=REF_DRIVE_RMS)
        if clips:
            v[::512] *= 20.0
        front, noise = transmit_front_end(v, cfg, 3), thermal_noise(n, cfg.chan, 3)
        v_before = v.copy()
        received, diag = receive_every_row(v, cfg, self.POWER, 3)
        antenna = antenna_oracle(front, cfg.pa, self.POWER)
        self.assert_receiver_matches(received, diag, antenna, cfg, noise, clips)
        assert same_bits(v, v_before)
