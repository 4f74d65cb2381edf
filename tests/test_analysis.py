"""Tests for the harmonic predictor, spectrum verification, and budget."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracles import transmit_samples

from fdsic.analysis import (
    BudgetInput,
    predict_harmonics,
    suppression_budget,
    verify_harmonics,
)
from fdsic.impairments import (
    ADC_HEADROOM_DB,
    DacNonlinearity,
    apply_dac,
    receive,
    simulate_received,
)
from fdsic.presets import TONE_AMPLITUDE, TONE_FREQ, load_preset
from fdsic.signals import gen_tone
from fdsic.spectral import spectrum


class TestPredictHarmonics:
    @pytest.mark.parametrize(
        "m,expected",
        [(1, (1,)), (2, (-2, 2)), (3, (-3,)), (4, (-4, 4)), (5, (5,)), (7, (-7,))],
    )
    def test_locations(self, m, expected):
        pred = predict_harmonics(m, 1.0)
        assert tuple(sorted(pred.frequencies)) == tuple(sorted(float(e) for e in expected))

    def test_sign_pattern_alternates(self):
        signs = [
            int(np.sign(predict_harmonics(m, 1.0).frequencies[0])) for m in (1, 3, 5, 7)
        ]
        assert signs == [1, -1, 1, -1]

    def test_odd_singleton_even_pair(self):
        for m in range(1, 9):
            pred = predict_harmonics(m, 2e6)
            if m % 2:
                assert len(pred.frequencies) == 1
                assert not pred.equal_power
            else:
                assert len(pred.frequencies) == 2
                assert pred.equal_power

    def test_scales_with_tone(self):
        pred = predict_harmonics(3, 1.5e6)
        assert pred.frequencies == (-4.5e6,)


class TestVerifyHarmonics:
    def make_spectrum(self, dac, n_seg=8):
        sig = gen_tone(TONE_FREQ, 0.5, 4096 * n_seg)
        return spectrum(sig.with_samples(apply_dac(sig.samples, dac)), n_fft=4096)

    def test_matched_dac_passes(self):
        spec = self.make_spectrum(DacNonlinearity([1, 1e-3, 1e-3], [1, 1e-3, 1e-3]))
        checks = verify_harmonics(spec, TONE_FREQ, m_max=3)
        assert [c.passed for c in checks] == [True, True, True]

    def test_identity_chain_consistent(self):
        spec = self.make_spectrum(DacNonlinearity.identity())
        checks = verify_harmonics(spec, TONE_FREQ, m_max=3)
        assert all(c.passed for c in checks)

    def test_simulated_chain_passes(self):
        sig = gen_tone(TONE_FREQ, TONE_AMPLITUDE, 4096 * 16)
        r, _ = simulate_received(sig, load_preset("fig5_m10dbm"), -10.0, seed=3)
        checks = verify_harmonics(spectrum(r, n_fft=4096), TONE_FREQ, m_max=3)
        assert all(c.passed for c in checks)

    def test_simulated_chain_passes_across_100_seeds(self):
        sig = gen_tone(TONE_FREQ, TONE_AMPLITUDE, 4096 * 8)
        cfg = load_preset("fig5_m10dbm")
        for seed in range(100):
            r, _ = simulate_received(sig, cfg, -10.0, seed=seed)
            checks = verify_harmonics(spectrum(r, n_fft=4096), TONE_FREQ, m_max=3)
            assert all(c.passed for c in checks), f"seed {seed}"

    def test_cubic_rail_mismatch_fails_order_three(self):
        # Strong mismatch between the cubic rail coefficients floods the
        # mirror of the third-order line, so the one-sided rule breaks.
        spec = self.make_spectrum(DacNonlinearity([1, 0, 2e-3], [1, 0, -2e-3]))
        checks = verify_harmonics(spec, TONE_FREQ, m_max=3)
        assert checks[2].passed is False

    def test_linear_rail_mismatch_detected_as_image(self):
        # Amplitude mismatch in the linear rail coefficients shows up as a
        # mirror image of the tone itself (order 1 counterpart).
        spec = self.make_spectrum(DacNonlinearity([1.05], [0.95]))
        checks = verify_harmonics(spec, TONE_FREQ, m_max=1)
        assert checks[0].counterpart_dbc[0] > -30.0
        assert checks[0].passed  # image still >= margin below the carrier


def receiver_budget(chan, power):
    """The budget of the converter of the receiver ``chan`` at ``power`` dBm.

    ``adc_bits`` N gives the dynamic range 10 log10(1.5 * 4^N) = 6.02 N +
    1.76 dB, the gain ranging's ``ADC_HEADROOM_DB`` the headroom and
    ``thermal_noise_dbfs`` the floor. The range less the headroom is then
    the receiver's signal-to-quantization ratio, so the budget's tolerable
    interference is the ADC input whose quantization error power equals
    the thermal floor.
    """
    return BudgetInput(
        power, chan.thermal_noise_dbfs, ADC_HEADROOM_DB, 10.0 * math.log10(1.5 * 4.0**chan.adc_bits)
    )


# How far the simulated suppression at which the quantization error meets
# the thermal floor may lie from the receiver's budget plus the SI gain.
# Measured over seeds 0-31 of 8 frames at -10 and 20 dBm: at most 0.037 dB
# on either preset, and no sample clipped. A converter loaded 2 dB above
# ADC_HEADROOM_DB misses by -2 dB where no sample clips, more where some do.
BUDGET_MARGIN_DB = 0.1


class TestSuppressionBudget:
    @pytest.mark.parametrize("preset", ["sweep_40db", "sweep_55db"])
    def test_receiver_budget_is_the_simulated_converter(self, preset):
        # Noise-free, the apparent floor is the quantization error alone,
        # which the gain ranging moves dB for dB with the suppression: one
        # receive gives the suppression at which it would equal the thermal
        # floor. The SI gain of the front end is read off the same call.
        cfg = load_preset(preset)
        chan = cfg.chan
        quiet = dataclasses.replace(
            cfg, chan=dataclasses.replace(chan, thermal_noise_dbfs=-math.inf)
        )
        powers = [-10.0, 20.0]
        misses = []
        for seed in range(4):
            x = transmit_samples(8, seed)
            _, received, receivers = receive(x, quiet, powers, seed, 0, 0)
            for k, power in enumerate(powers):
                si_dbm = 10.0 * math.log10(float(np.mean(np.abs(received[:, k]) ** 2)))
                si_gain_db = si_dbm - (power - chan.analog_suppression_db)
                at_floor = (
                    chan.analog_suppression_db
                    + receivers[k].apparent_floor_dbfs
                    - chan.thermal_noise_dbfs
                )
                budget = suppression_budget(receiver_budget(chan, power)).required_suppression_db
                misses.append(at_floor - (budget + si_gain_db))
        assert max(map(abs, misses)) <= BUDGET_MARGIN_DB, misses

    def test_boundary_zero(self):
        b = BudgetInput(tx_power_dbm=-90.0 + 70.0 - 10.0)
        assert suppression_budget(b).required_suppression_db == 0.0
        # No headroom is allowed: the range then reaches the floor plus 70 dB.
        assert suppression_budget(BudgetInput(papr_headroom_db=0.0)).required_suppression_db == 40.0

    def test_linear_in_tx_power(self):
        base = suppression_budget(BudgetInput(tx_power_dbm=0.0)).required_suppression_db
        up = suppression_budget(BudgetInput(tx_power_dbm=20.0)).required_suppression_db
        assert up - base == pytest.approx(20.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        tx=st.floats(min_value=-30, max_value=40),
        papr=st.floats(min_value=0, max_value=15),
        delta=st.floats(min_value=0, max_value=10),
    )
    def test_monotone_in_power_and_headroom(self, tx, papr, delta):
        lo = suppression_budget(BudgetInput(tx_power_dbm=tx, papr_headroom_db=papr))
        hi_power = suppression_budget(BudgetInput(tx_power_dbm=tx + delta, papr_headroom_db=papr))
        hi_papr = suppression_budget(BudgetInput(tx_power_dbm=tx, papr_headroom_db=papr + delta))
        assert hi_power.required_suppression_db >= lo.required_suppression_db
        assert hi_papr.required_suppression_db >= lo.required_suppression_db

    def test_breakdown_rows(self):
        report = suppression_budget(BudgetInput())
        labels = [row[0] for row in report.breakdown]
        assert "required passive+analog suppression (dB)" in labels
        assert "max tolerable interference at receiver (dBm)" in labels
