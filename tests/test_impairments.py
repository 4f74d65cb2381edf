"""Tests for the transceiver impairment chain."""

import math
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracles import antenna_input, identity_config, receive_every_row
from fdsic.cancellers import DEFAULT_SPECS, run_sweep
from fdsic.impairments import (
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
    _SECTIONS,
)
from fdsic.presets import PRESET_NAMES, PRESETS, load_preset
from fdsic.signals import ComplexBasebandSignal, gen_tone
from fdsic.spectral import measure_line_db, spectrum

FS = 80e6
F_TONE = FS / 4096 * 64  # coherent on a 4096-bin grid


def tone_spectrum(samples, n_fft=4096):
    return spectrum(ComplexBasebandSignal(samples, FS), n_fft=n_fft)


def line_dbc(spec, freq, ref_freq=F_TONE):
    return measure_line_db(spec, freq) - measure_line_db(spec, ref_freq)


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


class TestChannelAndReceiver:
    def test_transparent_receiver(self):
        sig = gen_tone(F_TONE, 0.5, 8192).samples
        chan = ChannelAndReceiver(
            h_si=[1.0], analog_suppression_db=0.0, thermal_noise_dbfs=float("-inf"), adc_bits=24
        )
        out, diag = receive_every_row(*antenna_input(sig, chan, IqImbalance.identity()), 1)
        err = np.mean(np.abs(out - sig) ** 2) / np.mean(np.abs(sig) ** 2)
        assert 10 * np.log10(err) < -120.0
        assert diag.clipped_samples == 0

    def test_zero_input_keeps_unit_agc_scale(self):
        # Nothing reaches the AGC, so it keeps a scale of 1, and every code
        # is the one just above zero: each rail decodes to half a step.
        cfg = identity_config(ChannelAndReceiver([1.0], 30.0, float("-inf"), 14))
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
        out, _ = receive_every_row(*antenna_input(sig, chan, IqImbalance.identity()), 1)
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
            _, diag = receive_every_row(*antenna_input(sig, chan, IqImbalance.identity()), 3)
            floors.append(diag.apparent_floor_dbfs)
        assert floors[1] - floors[0] == pytest.approx(20.0, abs=0.5)

    def test_clipping_counted_not_fatal(self):
        # A single hot sample exceeds the gain-ranged full scale.
        x = np.full(4096, 0.1 + 0.1j, dtype=complex)
        x[100] = 40.0 + 0.0j
        chan = ChannelAndReceiver(
            h_si=[1.0], analog_suppression_db=0.0, thermal_noise_dbfs=float("-inf"), adc_bits=12
        )
        out, diag = receive_every_row(*antenna_input(x, chan, IqImbalance.identity()), 1)
        assert diag.clipped_samples >= 1
        assert len(out) == 4096


class TestSimulateReceived:
    def test_disabled_impairments_scaled_noisy_copy(self):
        sig = gen_tone(F_TONE, 0.2, 65536)
        cfg = identity_config(ChannelAndReceiver([1.0], 30.0, -90.0, 24))
        r, _ = simulate_received(sig, cfg, 0.0, seed=4)
        # mean rx power == tx (0 dBm) - suppression in the antenna-referred units
        assert 10 * np.log10(np.mean(np.abs(r.samples) ** 2)) == pytest.approx(-30.0, abs=0.3)
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
    def test_every_preset_loads_and_roundtrips(self, tmp_path, name):
        # A preset's saved file reads back and saves to the same bytes.
        saved = save_config(load_preset(name), tmp_path / "saved.json")
        resaved = save_config(load_config(saved), tmp_path / "resaved.json")
        assert resaved.read_bytes() == saved.read_bytes()


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
        return np.array([
            [rep.residual_above_noise_db, rep.receiver.apparent_floor_dbfs]
            for rep in run_sweep(cfg, [-10.0, 22.0], DEFAULT_SPECS, 4, 3)
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
