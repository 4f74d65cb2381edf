"""Tests for the harmonic predictor, spectrum verification, and budget."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracles import passband_harmonic_oracle

from fdsic.analysis import (
    BudgetInput,
    predict_harmonics,
    suppression_budget,
    verify_harmonics,
)
from fdsic.impairments import DacNonlinearity, apply_dac, simulate_received
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

    def test_rejects_invalid_order(self):
        with pytest.raises(ValueError):
            predict_harmonics(0, 1e6)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_matches_passband_oracle(self, m):
        lines = passband_harmonic_oracle(m)
        measured = {k for k, _ in lines}
        pred = predict_harmonics(m, 1.0)
        predicted = {int(f) for f in pred.frequencies}
        # the oracle also sees lower-order leftovers (k < m of the same
        # parity); the m-th multiple itself must match exactly
        assert {k for k in measured if abs(k) == m} == predicted
        if pred.equal_power:
            powers = {k: p for k, p in lines}
            assert abs(powers[m] - powers[-m]) < 0.2


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

    def test_off_grid_tone_rejected(self):
        sig = gen_tone(1.0e6, 0.5, 4096 * 4)  # 51.2 bins: off grid
        spec = spectrum(sig, n_fft=4096)
        with pytest.raises(ValueError, match="coherent"):
            verify_harmonics(spec, 1.0e6, m_max=2)

    @pytest.mark.parametrize(
        "freq, m_max, order, line",
        [(30e6, 2, 2, "-6e+07"), (15e6, 3, 3, "-4.5e+07"), (20e6, 2, 2, "-4e+07")],
        ids=["even-order", "odd-order", "at-nyquist"],
    )
    def test_line_outside_sampled_band_rejected(self, freq, m_max, order, line):
        # fs = 80 MHz: a line at or beyond +-40 MHz has no bin of its own.
        spec = spectrum(gen_tone(freq, 0.5, 4096 * 4), n_fft=4096)
        assert len(verify_harmonics(spec, freq, m_max=m_max - 1)) == m_max - 1
        with pytest.raises(ValueError, match=re.escape(f"order {order} lies at {line} Hz")):
            verify_harmonics(spec, freq, m_max=m_max)

    def test_tone_at_dc_rejected(self):
        spec = self.make_spectrum(DacNonlinearity.identity())
        with pytest.raises(ValueError, match="nonzero"):
            verify_harmonics(spec, 0.0, m_max=3)

    @pytest.mark.parametrize("name", ["margin_db"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_margin_rejected(self, name, value):
        spec = self.make_spectrum(DacNonlinearity.identity())
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            verify_harmonics(spec, TONE_FREQ, m_max=3, **{name: value})


class TestSuppressionBudget:
    def test_reference_case_is_50_db(self):
        report = suppression_budget(BudgetInput())
        assert report.required_suppression_db == pytest.approx(50.0, abs=1e-12)

    def test_boundary_zero(self):
        b = BudgetInput(tx_power_dbm=-90.0 + 70.0 - 10.0)
        assert suppression_budget(b).required_suppression_db == 0.0

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

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BudgetInput(tx_power_dbm=float("nan"))

    def test_rejects_negative_headroom_and_non_positive_dynamic_range(self):
        # Either would let the tolerable interference exceed the noise floor
        # plus the converter's range: --papr -1000 read 980 dBm.
        with pytest.raises(ValueError, match="papr_headroom_db must be >= 0"):
            BudgetInput(papr_headroom_db=-1e-9)
        for value in (0.0, -70.0):
            with pytest.raises(ValueError, match="adc_dynamic_range_db must be positive"):
                BudgetInput(adc_dynamic_range_db=value)
        assert suppression_budget(BudgetInput(papr_headroom_db=0.0)).required_suppression_db == 40.0
