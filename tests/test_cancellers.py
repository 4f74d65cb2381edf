"""Tests for basis construction and least-squares cancellation."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from helpers_oracles import (
    antenna_oracle,
    cancel,
    channel_and_receiver_oracle,
    dense_regressor,
    identity_config,
    joint_dac_iq_channels,
    ls_estimate,
    nonlinear_channels,
    random_signal,
    receive_every_row,
    transmit_samples,
    widely_linear_channels,
)

from fdsic import cancellers, impairments
from fdsic.cancellers import (
    DEFAULT_SPECS,
    TRAIN_FRACTION,
    BasisSignal,
    CancellerMethod,
    CancellerSpec,
    _family_root,
    _fill_regressor,
    _ls_factor,
    _ls_solve,
    build_basis,
    run_sweep,
)
from fdsic.impairments import (
    ADC_HEADROOM_DB,
    MAX_TX_POWER_DBM,
    ChannelAndReceiver,
    DacNonlinearity,
    ImpairmentConfig,
    IqImbalance,
    PaNonlinearity,
    REF_DRIVE_RMS,
    receive,
    simulate_received,
    thermal_noise,
    transmit_front_end,
)
from fdsic.presets import load_preset
from fdsic.signals import (
    FRAME_LEN, SAMPLE_RATE, ComplexBasebandSignal, fir_convolve, gen_ofdm_frames,
)


class TestBuildBasis:
    def test_linear_single_basis(self):
        x = random_signal(64, 0)
        bases = build_basis(x, CancellerSpec(CancellerMethod.LINEAR))
        assert [b.label for b in bases] == ["x"]
        npt.assert_array_equal(bases[0].samples, x)

    def test_widely_linear_pair(self):
        x = random_signal(64, 0)
        bases = build_basis(x, CancellerSpec(CancellerMethod.WIDELY_LINEAR))
        assert [b.label for b in bases] == ["x", "conj(x)"]
        npt.assert_array_equal(bases[1].samples, np.conj(x))

    def test_nonlinear_odd_orders(self):
        # The leading envelope term is x itself, the linear model's basis.
        x = random_signal(64, 0)
        bases = build_basis(x, CancellerSpec(CancellerMethod.NONLINEAR, n_max=7))
        assert [b.label for b in bases] == ["x|x|^0", "x|x|^2", "x|x|^4", "x|x|^6"]
        npt.assert_array_equal(bases[0].samples, x)
        npt.assert_allclose(bases[2].samples, x * np.abs(x) ** 4)

    def test_nonlinear_spec_without_options_is_the_default_one(self):
        # One basis: a spec built from Python fits the model the CLI fits.
        assert CancellerSpec(CancellerMethod.NONLINEAR, n_max=5) == DEFAULT_SPECS[1]

    def test_joint_enumeration(self):
        x = random_signal(64, 0)
        bases = build_basis(x, CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=3))
        assert [b.label for b in bases] == [
            "re(x)^1",
            "im(x)^1",
            "re(x)^2",
            "im(x)^2",
            "re(x)^3",
            "im(x)^3",
        ]
        npt.assert_allclose(bases[3].samples, (x.imag ** 2).astype(complex))

    @pytest.mark.parametrize(
        "spec",
        [
            *DEFAULT_SPECS,
            CancellerSpec(CancellerMethod.NONLINEAR, n_max=1),
            CancellerSpec(CancellerMethod.NONLINEAR, n_max=7),
            CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=1),
        ],
        ids=CancellerSpec.label,
    )
    def test_n_bases_counts_build_basis(self, spec):
        assert spec.n_bases == len(build_basis(random_signal(8, 0), spec))

    def test_method_parse(self):
        assert CancellerMethod.parse("Joint_Dac_Iq") is CancellerMethod.JOINT_DAC_IQ


class TestLsEstimate:
    def test_exact_model_recovery(self):
        x = random_signal(4096, 1)
        rng = np.random.default_rng(2)
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        r = fir_convolve(x, h)
        bases = build_basis(x, CancellerSpec(CancellerMethod.LINEAR, channel_len=8))
        fit = ls_estimate(r, bases, 8)
        assert fit.labels == ("x",)
        npt.assert_allclose(fit.coefficients, h, rtol=1e-9)
        assert fit.residual_power_dbfs < -180.0

    def test_noise_floor_recovery(self):
        x = random_signal(65536, 3)
        rng = np.random.default_rng(4)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        noise = 10 ** (-60 / 20) / np.sqrt(2) * (
            rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
        )
        r = fir_convolve(x, h) + noise
        bases = build_basis(x, CancellerSpec(CancellerMethod.LINEAR, channel_len=4))
        fit = ls_estimate(r, bases, 4)
        assert fit.residual_power_dbfs == pytest.approx(-60.0, abs=0.5)

    def test_rank_deficiency_flagged_minimum_norm(self):
        # Duplicate columns: x and a copy of x span a rank-deficient matrix.
        x = random_signal(512, 8)
        bases = [BasisSignal("x", x), BasisSignal("x_copy", x.copy())]
        r = fir_convolve(x, [0.5])
        fit = ls_estimate(r, bases, 4)
        assert fit.rank < fit.n_params
        # minimum-norm solution still reconstructs the signal
        resid = cancel(r, bases, fit)
        assert 10 * np.log10(np.mean(np.abs(resid) ** 2) + 1e-300) < -250.0

    def test_condition_number_reported(self):
        x = random_signal(512, 9)
        bases = build_basis(x, CancellerSpec(CancellerMethod.LINEAR, channel_len=4))
        fit = ls_estimate(x, bases, 4)
        assert fit.condition_number >= 1.0
        assert fit.n_params == 4


class TestBatchedFit:
    """One factorization with many right-hand sides equals one fit per column."""

    @staticmethod
    def assert_matches_per_column(rhs, bases, taps):
        fits = _ls_solve(_ls_factor(rhs, bases, taps), bases, taps)
        assert len(fits) == rhs.shape[1]
        for column, fit in zip(rhs.T, fits):
            ref = ls_estimate(column.copy(), bases, taps)
            got_h, ref_h = fit.coefficients, ref.coefficients
            assert np.max(np.abs(got_h - ref_h)) / np.max(np.abs(ref_h)) < 1e-12
            assert fit.rank == ref.rank
            assert fit.n_params == ref.n_params
            assert fit.training_len == ref.training_len
            assert fit.residual_power_dbfs == pytest.approx(ref.residual_power_dbfs, abs=1e-9)
        return fits

    def test_well_posed_columns(self):
        x = random_signal(2048, 40)
        rng = np.random.default_rng(41)
        rhs = rng.standard_normal((2048, 3)) + 1j * rng.standard_normal((2048, 3))
        bases = build_basis(x, CancellerSpec(CancellerMethod.WIDELY_LINEAR, channel_len=4))
        fits = self.assert_matches_per_column(rhs, bases, 4)
        assert fits[0].rank == fits[0].n_params

    @pytest.mark.parametrize("part", [np.asarray, np.real], ids=["complex", "real-packed"])
    def test_rank_deficient_columns_give_minimum_norm(self, part):
        # Real bases are packed, two training rows to a complex row.
        x = part(random_signal(512, 42))
        bases = [BasisSignal("x", x), BasisSignal("x_copy", x.copy())]
        rhs = np.stack(
            [fir_convolve(x, h) for h in ([0.5], [1.0, -0.25j], [0.1, 0.2, 0.3])],
            axis=1,
        )
        fits = self.assert_matches_per_column(rhs, bases, 4)
        assert all(fit.rank < fit.n_params for fit in fits)


class TestFillRegressor:
    """The in-place regressor writer against the dense Toeplitz oracle."""

    @pytest.mark.parametrize(
        "start, stop", [(0, 5), (3, 40), (4096, 8192), (8190, 9000)]
    )
    @pytest.mark.parametrize(
        "spec",
        [
            CancellerSpec(CancellerMethod.LINEAR),
            CancellerSpec(CancellerMethod.WIDELY_LINEAR),
            CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=3),
        ],
        ids=lambda spec: spec.method.value,
    )
    def test_matches_dense_regressor_rows(self, spec, start, stop):
        # [0, 5) and [3, 40) start inside the zero history before sample 0.
        bases = build_basis(random_signal(9000, 55), spec)
        taps = spec.channel_len
        out = np.empty((stop - start, len(bases) * taps), dtype=np.complex128, order="F")
        _fill_regressor(out, bases, start, stop, taps)
        assert np.array_equal(out, dense_regressor(bases, 9000, taps)[start:stop])


class TestStreamedFit:
    """The block-streamed QR fit against a dense SVD solve of the whole matrix."""

    @staticmethod
    def assert_matches_dense_lstsq(bases, n, taps):
        a = dense_regressor(bases, n, taps)
        rng = np.random.default_rng(51)
        truth = rng.standard_normal((a.shape[1], 3)) + 1j * rng.standard_normal((a.shape[1], 3))
        rhs = a @ truth + 0.01 * (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))

        ref, _, ref_rank, _ = np.linalg.lstsq(a, rhs, rcond=None)
        fits = _ls_solve(_ls_factor(rhs, bases, taps), bases, taps)
        for k, fit in enumerate(fits):
            h = fit.coefficients
            assert np.max(np.abs(h - ref[:, k])) / np.max(np.abs(ref[:, k])) < 1e-12
            assert fit.rank == ref_rank
            direct = 10 * np.log10(np.mean(np.abs(rhs[:, k] - a @ h) ** 2))
            assert fit.residual_power_dbfs == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("n", [1000, 8192, 9000, 9001])
    @pytest.mark.parametrize(
        "spec",
        [
            CancellerSpec(CancellerMethod.WIDELY_LINEAR),
            CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=3),
        ],
        ids=lambda spec: spec.method.value,
    )
    def test_matches_dense_lstsq(self, n, spec):
        # 1000 rows fit in one block, 8192 in two whole ones (one packed
        # joint-dac-iq step), 9000 leave a remainder block, and 9001 an odd
        # one, whose last packed row has a zero imaginary half.
        bases = build_basis(random_signal(n, 50), spec)
        self.assert_matches_dense_lstsq(bases, n, spec.channel_len)

    def test_mixed_real_and_complex_bases_take_the_complex_path(self):
        # One complex basis among real ones: packing needs every regressor
        # column real, so this fit takes the complex path.
        x = random_signal(9001, 56)
        bases = build_basis(x, CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=2))
        bases.append(BasisSignal("x", x))
        assert not cancellers._ls_factor(x[:, np.newaxis], bases, 8).packed
        self.assert_matches_dense_lstsq(bases, 9001, 8)

    def test_geqrf_r_is_numpy_qr_bit_for_bit(self, monkeypatch):
        # lapack_lite is the LAPACK numpy.linalg itself calls, so the
        # in-place factor keeps np.linalg.qr's bits: on a full block, on a
        # block shorter than the buffer's leading dimension, and on the
        # packed joint-dac-iq blocks of 9001 rows, whose second block is odd.
        rng = np.random.default_rng(59)
        a = rng.standard_normal((4288, 194)) + 1j * rng.standard_normal((4288, 194))
        blocks = [(np.asfortranarray(a[:4096]), 4096), (np.asfortranarray(a), 1000)]
        geqrf = cancellers._geqrf

        def recording_geqrf(buf, rows, *args):
            blocks.append((buf.copy(order="F"), rows))
            return geqrf(buf, rows, *args)

        monkeypatch.setattr(cancellers, "_geqrf", recording_geqrf)
        n, spec = 9001, DEFAULT_SPECS[3]
        bases = build_basis(random_signal(n, 60), spec)
        assert _ls_factor(random_signal(n, 61)[:, np.newaxis], bases, spec.channel_len).packed
        monkeypatch.undo()

        assert len(blocks) == 2 + -(-n // (2 * cancellers.FIT_BLOCK_ROWS))
        for buf, rows in blocks:
            ref = np.linalg.qr(buf[:rows], mode="r")
            cancellers._geqrf(buf, rows)
            assert np.array_equal(np.triu(buf[: len(ref)]), ref)

    def test_duplicate_basis_rank_matches_dense(self):
        x = random_signal(9000, 52)
        bases = [BasisSignal("x", x), BasisSignal("x_copy", x.copy())]
        rhs = fir_convolve(x, [1.0, 0.3j])[:, np.newaxis]
        _, _, ref_rank, _ = np.linalg.lstsq(dense_regressor(bases, 9000, 4), rhs, rcond=None)
        fit = _ls_solve(_ls_factor(rhs, bases, 4), bases, 4)[0]
        assert fit.rank == ref_rank < fit.n_params

class TestCancel:
    def test_residual_is_noise_only(self):
        x = random_signal(32768, 10)
        rng = np.random.default_rng(11)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        noise_db = -50.0
        noise = 10 ** (noise_db / 20) / np.sqrt(2) * (
            rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
        )
        r = fir_convolve(x, h) + noise
        bases = build_basis(x, CancellerSpec(CancellerMethod.LINEAR, channel_len=6))
        fit = ls_estimate(r, bases, 6)
        resid = cancel(r, bases, fit)
        resid_db = 10 * np.log10(np.mean(np.abs(resid) ** 2))
        assert resid_db == pytest.approx(noise_db, abs=0.5)

    def test_true_channel_cancel_leaves_noise(self):
        # Cancelling with the generating channels (not fitted ones).
        x = random_signal(32768, 12)
        rng = np.random.default_rng(13)
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        noise_db = -40.0
        noise = 10 ** (noise_db / 20) / np.sqrt(2) * (
            rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
        )
        r = fir_convolve(x, h) + noise
        bases = build_basis(x, CancellerSpec(CancellerMethod.LINEAR, channel_len=5))
        true_fit = dataclasses.replace(
            ls_estimate(r, bases, 5), coefficients=h
        )
        resid = cancel(r, bases, true_fit)
        resid_db = 10 * np.log10(np.mean(np.abs(resid) ** 2))
        assert resid_db == pytest.approx(noise_db, abs=0.5)

    def test_projection_reduces_power(self):
        x = random_signal(8192, 14)
        r = random_signal(8192, 15)
        bases = build_basis(x, CancellerSpec(CancellerMethod.LINEAR, channel_len=8))
        fit = ls_estimate(r, bases, 8)
        resid = cancel(r, bases, fit)
        assert np.mean(np.abs(resid) ** 2) <= np.mean(np.abs(r) ** 2)

    def test_scaling_equivariance(self):
        # Scaling r scales every channel and leaves the residual ratio fixed.
        x = random_signal(16384, 17)
        rng = np.random.default_rng(18)
        r = fir_convolve(
            x, rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ) + 0.01 * (rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x)))
        c = 0.35 - 1.2j
        bases = build_basis(x, CancellerSpec(CancellerMethod.WIDELY_LINEAR, channel_len=3))
        fit1 = ls_estimate(r, bases, 3)
        fit2 = ls_estimate(c * r, bases, 3)
        npt.assert_allclose(fit2.coefficients, c * fit1.coefficients, rtol=1e-9)
        ratio1 = 10 ** (fit1.residual_power_dbfs / 10) / np.mean(np.abs(r) ** 2)
        ratio2 = 10 ** (fit2.residual_power_dbfs / 10) / np.mean(np.abs(c * r) ** 2)
        assert abs(10 * np.log10(ratio1 / ratio2)) < 1e-9


class TestSpanRelations:
    def test_nested_spans_monotone_residuals(self):
        x = gen_ofdm_frames(4, 22).samples
        rng = np.random.default_rng(23)
        # impaired-ish target: linear + conjugate + envelope cubic + noise
        r = (
            x
            + 0.02 * np.conj(x)
            + 0.05 * x * np.abs(x) ** 2
            + 0.001 * (rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x)))
        )
        l = 4
        residuals = []
        for spec in (
            CancellerSpec(CancellerMethod.LINEAR, channel_len=l),
            CancellerSpec(CancellerMethod.WIDELY_LINEAR, channel_len=l),
            CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=1, channel_len=l),
            CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=3, channel_len=l),
        ):
            bases = build_basis(x, spec)
            residuals.append(ls_estimate(r, bases, l).residual_power_dbfs)
        assert residuals[1] <= residuals[0] + 1e-9
        assert abs(residuals[2] - residuals[1]) < 1e-6
        assert residuals[3] <= residuals[2] + 1e-9


# Every stage at identity, a two-tap channel and a 24-bit converter.
CLEAN = identity_config(ChannelAndReceiver([1.0, 0.1 + 0.05j], 40.0, -90.0, 24))


class TestRunSweep:
    def test_all_methods_reach_floor_without_impairments(self):
        reports = run_sweep(CLEAN, [0.0], DEFAULT_SPECS, 20, seed=30)
        assert len(reports) == 4
        for rep in reports:
            assert abs(rep.residual_above_noise_db) <= 0.5

    def test_one_method_at_two_channel_lengths(self):
        specs = [CancellerSpec(CancellerMethod.LINEAR, channel_len=taps) for taps in (8, 16)]
        reports = run_sweep(CLEAN, [0.0], specs, 4, seed=30)
        assert [rep.method for rep in reports] == ["linear", "linear"]
        assert [rep.fit.n_params for rep in reports] == [8, 16]

    def test_reports_carry_power_and_floor(self):
        reports = run_sweep(CLEAN, [-5.0], [CancellerSpec(CancellerMethod.LINEAR)], 8, seed=33)
        rep = reports[0]
        assert rep.tx_power_dbm == -5.0
        assert rep.method == "linear"
        assert rep.receiver.apparent_floor_dbfs == pytest.approx(-90.0, abs=1.0)
        assert rep.residual_above_noise_std_db >= 0.0

    def test_reports_of_identical_runs_compare_equal(self):
        spec = [CancellerSpec(CancellerMethod.LINEAR)]
        first, second = (
            run_sweep(CLEAN, [0.0], spec, 4, seed=43)[0]
            for _ in range(2)
        )
        assert first.fit is not second.fit
        assert first == second
        assert hash(first) == hash(second)

    def test_reports_carry_fit_diagnostics(self):
        # Ten frames leave the joint-dac-iq fit numerically rank-deficient.
        cfg = load_preset("sweep_55db")
        reports = {rep.method: rep for rep in run_sweep(cfg, [22.0], DEFAULT_SPECS, 10, seed=41)}
        linear = reports["linear"]
        joint = reports["joint-dac-iq(m_max=3)"]
        assert linear.fit.n_params == 32
        assert linear.fit.rank == linear.fit.n_params
        assert joint.fit.n_params == 6 * 32
        assert joint.fit.rank < joint.fit.n_params
        assert joint.fit.condition_number > 1e12 > linear.fit.condition_number >= 1.0
        for rep in reports.values():
            assert isinstance(rep.fit.rank, int) and isinstance(rep.fit.n_params, int)
            assert math.isfinite(rep.fit.residual_power_dbfs)
            # The training residual is what the fit left of the received
            # power; it cannot lie below the thermal floor by much.
            assert rep.fit.residual_power_dbfs > cfg.chan.thermal_noise_dbfs - 3.0

    def test_matches_per_power_comparison_loop(self):
        cfg = load_preset("sweep_55db")
        powers = [-10.0, 22.0]
        got = run_sweep(cfg, powers, DEFAULT_SPECS, 10, seed=35)

        expected = []
        for power in powers:
            expected += run_sweep(cfg, [power], DEFAULT_SPECS, 10, seed=35)
        # One multi-column solve rounds differently from one solve per
        # power, so the dB figures agree to rounding, not bit for bit.
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert (g.method, g.tx_power_dbm) == (e.method, e.tx_power_dbm)
            for field in ("residual_above_noise_db", "residual_above_noise_std_db"):
                assert getattr(g, field) == pytest.approx(getattr(e, field), abs=1e-9)
            assert g.receiver.apparent_floor_dbfs == pytest.approx(
                e.receiver.apparent_floor_dbfs, abs=1e-9
            )
        assert [rep.tx_power_dbm for rep in got] == [-10.0] * 4 + [22.0] * 4

    @pytest.mark.parametrize(
        "max_train, channel_len",
        [(None, 32), (8192, 32), (None, 1), (None, 7), (None, 20)],
        ids=["fit-to-split", "rows-between-fit-and-split", "taps-1", "taps-7", "taps-20"],
    )
    def test_blocked_scoring_matches_cancel_path(self, monkeypatch, max_train, channel_len):
        # Each report recomputed with the one-signal oracle: ls_estimate on the
        # training prefix, cancel on the full signal, per-frame dB. With a
        # capped fit the received rows [fit_len, split) are read by neither
        # the fit nor the scoring. Of the channel lengths, only 1 and 32
        # divide the 4096-sample frame, so the scoring's last block of
        # taps outputs overhangs the frame for 7 and 20.
        if max_train is not None:
            monkeypatch.setattr(cancellers, "MAX_TRAIN_SAMPLES", max_train)
        specs = [dataclasses.replace(spec, channel_len=channel_len) for spec in DEFAULT_SPECS]
        cfg = load_preset("sweep_55db")
        n_frames, seed = 10, 39
        powers = [-10.0, 22.0]
        reports = run_sweep(cfg, powers, specs, n_frames, seed)

        x = ComplexBasebandSignal(transmit_samples(n_frames, seed), SAMPLE_RATE)
        frame_len = len(x) // n_frames
        split = round(n_frames * TRAIN_FRACTION) * frame_len
        fit_len = min(split, cancellers.MAX_TRAIN_SAMPLES)
        assert (fit_len < split) == (max_train is not None)
        x_train = x.samples[:fit_len]
        expected = []
        for power in powers:
            r, _ = simulate_received(x, cfg, power, seed)
            floor = 10.0 ** (cfg.chan.thermal_noise_dbfs / 10.0)
            for spec in specs:
                fit = ls_estimate(
                    r.samples[:fit_len],
                    build_basis(x_train, spec),
                    spec.channel_len,
                )
                residual = cancel(r.samples, build_basis(x.samples, spec), fit)
                per_frame = [
                    10.0 * math.log10(
                        max(float(np.mean(np.abs(residual[s : s + frame_len]) ** 2)), 1e-300)
                        / floor
                    )
                    for s in range(split, n_frames * frame_len, frame_len)
                ]
                expected.append((np.mean(per_frame), np.std(per_frame), fit))

        assert len(reports) == len(expected)
        # The 32-tap joint fit on 10 frames is rank-deficient; the shorter
        # channels are full rank.
        assert any(rep.fit.rank < rep.fit.n_params for rep in reports) == (channel_len == 32)
        for rep, (mean, std, fit) in zip(reports, expected):
            assert rep.residual_above_noise_db == pytest.approx(mean, abs=1e-9)
            assert rep.residual_above_noise_std_db == pytest.approx(std, abs=1e-9)
            # Each report holds the fit of its own power: rank alone is the
            # same at every power, the coefficients and residual are not.
            assert rep.fit.labels == fit.labels
            assert rep.fit.rank == fit.rank
            got_h, ref_h = rep.fit.coefficients, fit.coefficients
            assert np.max(np.abs(got_h - ref_h)) / np.max(np.abs(ref_h)) < 1e-12
            assert rep.fit.residual_power_dbfs == pytest.approx(fit.residual_power_dbfs, abs=1e-9)


class TestGainShift:
    """An exact symmetry of the hardware model, with no tuned margin.

    Lowering the analog suppression by d dB and raising the thermal noise
    by d dB moves the self-interference and the noise at the ADC input
    together, and the gain ranging scales the converter to its input. So
    every residual-above-noise figure stays, and the apparent floor moves
    by d.
    """

    @pytest.mark.parametrize("preset", ["sweep_40db", "sweep_55db"])
    def test_figures_do_not_move(self, preset):
        cfg = load_preset(preset)
        base = run_sweep(cfg, [-10.0, 22.0], DEFAULT_SPECS, 20, 0)
        for d in (10.0, -10.0):
            chan = dataclasses.replace(
                cfg.chan,
                analog_suppression_db=cfg.chan.analog_suppression_db - d,
                thermal_noise_dbfs=cfg.chan.thermal_noise_dbfs + d,
            )
            shifted = run_sweep(
                dataclasses.replace(cfg, chan=chan), [-10.0, 22.0], DEFAULT_SPECS, 20, 0
            )
            assert len(shifted) == len(base)
            for got, ref in zip(shifted, base):
                assert (got.method, got.tx_power_dbm) == (ref.method, ref.tx_power_dbm)
                for field in ("residual_above_noise_db", "residual_above_noise_std_db"):
                    assert getattr(got, field) == pytest.approx(getattr(ref, field), abs=1e-9)
                assert got.receiver.apparent_floor_dbfs == pytest.approx(
                    ref.receiver.apparent_floor_dbfs + d, abs=1e-9
                )
                assert got.receiver.clipped_samples == ref.receiver.clipped_samples


class TestRailSwap:
    """A second symmetry of the hardware model, bounded by the noise draw.

    ``S(v) = j conj(v)`` swaps the in-phase and quadrature rails. Sent
    through the hardware with the DAC's rails swapped, each IQ imbalance
    mapped ``gamma -> conj(gamma)``, ``delta -> -conj(delta)`` and the SI
    channel conjugated, ``S(x)`` is received as ``S`` of what ``x`` is,
    up to the thermal and phase noise, which map onto other draws of the
    same law. Each canceller's basis set maps onto itself, so every
    held-out figure stays within the spread of the noise draw.
    """

    # On 20 frames at seeds 0-15 of both presets, 27 of 32 runs moved every
    # figure by at most 0.075 dB (0.071 dB on seeds 0-3). The other five
    # moved one nonlinear or joint-dac-iq figure by 0.11-1.20 dB: fits whose
    # held-out residual runs away from their training residual.
    BOUND_DB = 0.2

    @staticmethod
    def swapped(cfg):
        def iq(mixer):
            return IqImbalance(np.conj(mixer.gamma), -np.conj(mixer.delta))

        return dataclasses.replace(
            cfg,
            dac=DacNonlinearity(cfg.dac.coeffs_q, cfg.dac.coeffs_i),
            tx_iq=iq(cfg.tx_iq),
            rx_iq=iq(cfg.rx_iq),
            chan=dataclasses.replace(cfg.chan, h_si=np.conj(cfg.chan.h_si)),
        )

    @staticmethod
    def held_out_means(x, cfg):
        """Each default spec's mean held-out figure at -10 and 22 dBm, the
        first half of the frames ``x`` training the fits."""
        split = len(x) // 2
        train, held, _ = receive(x, cfg, [-10.0, 22.0], 0, split, split)
        _, per_frame_db = cancellers._fit_and_score(
            x, train, held, DEFAULT_SPECS, FRAME_LEN, cfg.chan.thermal_noise_dbfs
        )
        return np.array([np.mean(db, axis=1) for db in per_frame_db])

    @pytest.mark.parametrize("preset", ["sweep_40db", "sweep_55db"])
    def test_figures_stay_within_the_noise(self, preset):
        # The presets' DAC rails match, and a swap of matched rails is no test.
        base = load_preset(preset)
        cfg = dataclasses.replace(base, dac=DacNonlinearity(base.dac.coeffs_i, [1.0, 0.02, 0.25]))
        assert not np.array_equal(cfg.dac.coeffs_i, cfg.dac.coeffs_q)
        x = transmit_samples(20, 0)
        moved = self.held_out_means(1j * np.conj(x), self.swapped(cfg)) - self.held_out_means(x, cfg)
        assert np.max(np.abs(moved)) < self.BOUND_DB


class TestReceive:
    """The receive step digitizes only the rows the fit and the scoring read."""

    @staticmethod
    def sweep_rows(x, cfg, powers, seed, split):
        """The receive step of a sweep of ``x`` at ``cfg``, ``powers`` and
        ``seed``: :func:`receive` of the rows the sweep reads."""
        return receive(x, cfg, powers, seed, min(split, cancellers.MAX_TRAIN_SAMPLES), split)

    def test_rows_are_those_of_every_row_receive(self):
        # 40 frames: the split (81 920) lies past MAX_TRAIN_SAMPLES, so rows
        # [65 536, 81 920) feed the AGC but are never digitized.
        cfg = load_preset("sweep_40db")
        x = transmit_samples(40, 61)
        split = 20 * (len(x) // 40)
        assert split > cancellers.MAX_TRAIN_SAMPLES
        powers = [-10.0, 6.0, 22.0]
        train, held, receivers = TestReceive.sweep_rows(x, cfg, powers, 62, split)
        assert train.shape == (cancellers.MAX_TRAIN_SAMPLES, 3)
        assert train.codes.dtype == held.codes.dtype == np.int16
        self.assert_rows_match(train, held, receivers, x, cfg, powers, 62, split)

    @staticmethod
    def assert_summary_matches(receiver, x, cfg, power, seed, split):
        """``receiver`` is the summary at ``power`` of a sweep of ``x`` at ``seed``.

        Its AGC scale is an every-row receive's, bit for bit; its floor is the
        oracle's over the held rows [split, len), and its clip count the
        oracle's over the training and held rows, which the sweep digitizes.
        The oracle reads the front end and noise at ``seed``. Returns the
        clip count.
        """
        _, diag = receive_every_row(x, cfg, power, seed)
        front, noise = transmit_front_end(x, cfg, seed), thermal_noise(len(x), cfg.chan, seed)
        assert receiver.agc_scale == diag.agc_scale
        _, error, clipped, _ = channel_and_receiver_oracle(
            antenna_oracle(front, cfg.pa, power), cfg.chan, cfg.rx_iq, noise, ADC_HEADROOM_DB
        )
        extra = noise[split:] + error[split:]
        assert receiver.apparent_floor_dbfs == 10.0 * math.log10(
            float(np.mean(np.abs(extra) ** 2))
        )
        fit_len = min(split, cancellers.MAX_TRAIN_SAMPLES)
        assert receiver.clipped_samples == (
            np.count_nonzero(clipped[:fit_len]) + np.count_nonzero(clipped[split:])
        )
        return receiver.clipped_samples

    @staticmethod
    def assert_rows_match(train, held, receivers, x, cfg, powers, seed, split):
        # The rows decode to an every-row receive's, bit for bit.
        for k, power in enumerate(powers):
            r, _ = receive_every_row(x, cfg, power, seed)
            assert train[:, k].tobytes() == r[: len(train)].tobytes()
            assert held[:, k].tobytes() == r[split:].tobytes()
            TestReceive.assert_summary_matches(receivers[k], x, cfg, power, seed, split)

    @pytest.mark.parametrize("bits", [14, 20])
    def test_sweep_reports_carry_each_powers_receiver_summary(self, bits):
        # A PA whose fifth-order term expands the peaks overloads the
        # gain-ranged ADC at 22 dBm; at -10 dBm the linear term dominates.
        base = load_preset("sweep_40db")
        cfg = dataclasses.replace(
            base,
            pa=PaNonlinearity([1.0, 0.0, 0.5]),
            chan=dataclasses.replace(base.chan, adc_bits=bits),
        )
        powers = [-10.0, 22.0]
        spec = CancellerSpec(CancellerMethod.LINEAR)
        reports = run_sweep(cfg, powers, [spec], 40, seed=71)
        x = transmit_samples(40, 71)
        split = 20 * (len(x) // 40)
        clips = [
            self.assert_summary_matches(rep.receiver, x, cfg, power, 71, split)
            for rep, power in zip(reports, powers)
        ]
        assert clips[1] > 0

    def test_rows_at_20_bits_are_int32_codes(self):
        # Above 16 bits a code needs 32: the rows still decode to the bits
        # of an every-row receive's.
        base = load_preset("sweep_40db")
        cfg = dataclasses.replace(base, chan=dataclasses.replace(base.chan, adc_bits=20))
        x = transmit_samples(10, 67)
        split = 5 * (len(x) // 10)
        powers = [-10.0, 22.0]
        train, held, receivers = TestReceive.sweep_rows(x, cfg, powers, 68, split)
        assert train.codes.dtype == held.codes.dtype == np.int32
        # The gain ranging reaches codes beyond int16 at 20 bits.
        assert np.max(np.abs(held.codes)) > np.iinfo(np.int16).max
        self.assert_rows_match(train, held, receivers, x, cfg, powers, 68, split)

def test_imports_no_private_impairments_name():
    # The receive chain's internals stay inside impairments: the sweep
    # reaches them only through its public receive step.
    tree = ast.parse(Path(cancellers.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "impairments"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


class TestFitAndScore:
    """The fit-and-score step on a synthetic transmit/receive pair."""

    def test_fir_pair_fits_its_taps_and_scores_at_the_floor(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the fit-and-score step ran the simulator")

        monkeypatch.setattr(cancellers, "receive", unreachable)
        for name in ("_analog_chain", "_quantize"):
            monkeypatch.setattr(impairments, name, unreachable)

        # Unit-power white tx through a known 4-tap FIR per column (two
        # columns, as two powers would be), plus complex noise at the floor.
        frame_len, n_frames, n_train = 2048, 16, 8
        noise_dbfs = -40.0
        sigma = 10.0 ** (noise_dbfs / 20.0)
        tx = random_signal(frame_len * n_frames, 50)
        rng = np.random.default_rng(51)
        taps = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        noise = sigma / np.sqrt(2) * (
            rng.standard_normal((len(tx), 2)) + 1j * rng.standard_normal((len(tx), 2))
        )
        rx = np.stack([fir_convolve(tx, taps[:, k]) for k in range(2)], axis=1) + noise
        split = n_train * frame_len
        specs = (
            CancellerSpec(CancellerMethod.LINEAR, channel_len=8),
            CancellerSpec(CancellerMethod.NONLINEAR, channel_len=8, n_max=3),
        )
        fits, per_frame_db = cancellers._fit_and_score(
            tx, rx[:split], rx[split:], specs, frame_len, noise_dbfs
        )

        assert [len(spec_fits) for spec_fits in fits] == [2, 2]
        assert [db.shape for db in per_frame_db] == [(2, n_frames - n_train)] * 2
        # Each tap estimate errs by noise of power sigma^2 / split (white
        # unit-power tx); |error| exceeds 6 times its rms with probability
        # exp(-36). The 4 taps past the channel are zero.
        tap_rms = sigma / math.sqrt(split)
        for k, fit in enumerate(fits[0]):
            assert fit.labels == ("x",)
            assert fit.rank == fit.n_params == 8
            expected = np.concatenate([taps[:, k], np.zeros(4)])
            assert np.max(np.abs(fit.coefficients - expected)) < 6 * tap_rms
        # The held-out figure is noise alone, up to the fit's excess of about
        # n_params / split, and the mean over the held rows of |noise|^2 has
        # a relative spread of 1/sqrt(rows), 10 / ln(10) / sqrt(rows) in dB.
        held_rows = len(tx) - split
        for spec, spec_fits, db in zip(specs, fits, per_frame_db):
            excess_db = 10.0 * math.log10(1.0 + spec_fits[0].n_params / split)
            spread_db = 10.0 / math.log(10.0) / math.sqrt(held_rows)
            for mean_db in np.mean(db, axis=1):
                assert abs(mean_db - excess_db) < 6 * spread_db


class TestFamilyFit:
    """Linear and widely-linear are read off the nonlinear and joint-dac-iq factors."""

    @pytest.mark.parametrize(
        "preset, n_frames, seed, specs, member_methods",
        [
            (
                "sweep_40db", 100, 45, DEFAULT_SPECS,
                [CancellerMethod.LINEAR, CancellerMethod.WIDELY_LINEAR],
            ),
            (
                "sweep_55db", 10, 0, DEFAULT_SPECS,
                [CancellerMethod.LINEAR, CancellerMethod.WIDELY_LINEAR],
            ),
        ],
        ids=["sweep_40db-100-frames", "sweep_55db-10-frames"],
    )
    def test_member_equals_its_own_fit(self, preset, n_frames, seed, specs, member_methods):
        cfg = load_preset(preset)
        powers = [-10.0, 22.0]
        reports = run_sweep(cfg, powers, specs, n_frames, seed)

        x = ComplexBasebandSignal(transmit_samples(n_frames, seed), SAMPLE_RATE)
        split = round(n_frames * TRAIN_FRACTION) * (len(x) // n_frames)
        fit_len = min(split, cancellers.MAX_TRAIN_SAMPLES)
        train = np.stack(
            [simulate_received(x, cfg, p, seed)[0].samples[:fit_len] for p in powers], axis=1
        )
        members = [spec for spec in specs if _family_root(spec, specs) != spec]
        assert [spec.method for spec in members] == member_methods
        by_method = {}
        for spec in members:
            bases = build_basis(x.samples[:fit_len], spec)
            own = _ls_solve(_ls_factor(train, bases, spec.channel_len), bases, spec.channel_len)
            got = [rep.fit for rep in reports if rep.method == spec.label()]
            assert len(got) == len(own) == len(powers)
            for fit, ref in zip(got, own):
                assert fit.labels == ref.labels
                got_h, ref_h = fit.coefficients, ref.coefficients
                assert np.max(np.abs(got_h - ref_h)) / np.max(np.abs(ref_h)) < 1e-12
                assert fit.rank == ref.rank
                assert fit.condition_number == pytest.approx(ref.condition_number, rel=1e-9)
                assert fit.residual_power_dbfs == pytest.approx(ref.residual_power_dbfs, abs=1e-9)
            by_method[spec.method] = got[0]
        if preset == "sweep_55db":
            # The joint root is rank-deficient on 10 frames, its widely-linear
            # member is not.
            joint = next(rep.fit for rep in reports if rep.method.startswith("joint"))
            assert joint.rank < joint.n_params
            wl = by_method[CancellerMethod.WIDELY_LINEAR]
            assert wl.rank == wl.n_params

def _world(preset: str, identities: tuple[str, ...], **chan) -> ImpairmentConfig:
    """A preset with no phase noise, the stages ``identities`` names at
    identity and ``chan`` replacing receiver fields."""
    cfg = load_preset(preset)
    return dataclasses.replace(
        cfg,
        pn=dataclasses.replace(cfg.pn, linewidth=0.0),
        chan=dataclasses.replace(cfg.chan, **chan),
        **{stage: type(getattr(cfg, stage)).identity() for stage in identities},
    )


_JOINT = CancellerSpec(CancellerMethod.JOINT_DAC_IQ, channel_len=8, m_max=3)
_WIDELY_LINEAR = CancellerSpec(CancellerMethod.WIDELY_LINEAR, channel_len=8)
_NONLINEAR = CancellerSpec(CancellerMethod.NONLINEAR, channel_len=8, n_max=5)
_LINEAR = CancellerSpec(CancellerMethod.LINEAR, channel_len=8)


class TestCompositeChannels:
    """Each canceller's fit recovers the closed-form channels of its model in
    the world where the model is exact, fitted as its own family root and,
    for linear and widely-linear, read off the root's factor (``_ls_solve``)."""

    # Case: (stages at identity, spec scored, its family root, closed-form
    # channels of the spec at taps and drive). Phase noise is off in every
    # world; joint-dac-iq's model is exact with the amplifier at identity,
    # widely-linear's with the DAC linear too, nonlinear's with the DAC and
    # both mixers at identity, and linear's with every stage at identity.
    CASES = {
        "joint-dac-iq": (("pa",), _JOINT, _JOINT, joint_dac_iq_channels),
        "widely-linear": (("pa", "dac"), _WIDELY_LINEAR, _WIDELY_LINEAR, widely_linear_channels),
        "widely-linear-off-joint": (("pa", "dac"), _WIDELY_LINEAR, _JOINT, widely_linear_channels),
        "nonlinear": (("dac", "tx_iq", "rx_iq"), _NONLINEAR, _NONLINEAR, nonlinear_channels),
        "linear": (("dac", "tx_iq", "rx_iq", "pa"), _LINEAR, _LINEAR, nonlinear_channels),
        "linear-off-nonlinear": (
            ("dac", "tx_iq", "rx_iq", "pa"), _LINEAR, _NONLINEAR, nonlinear_channels
        ),
    }

    def fit_and_truth(self, case, preset, n_frames, seed, **chan):
        identities, spec, root, channels = self.CASES[case]
        cfg = _world(preset, identities, **chan)
        specs = list(dict.fromkeys([spec, root]))
        assert _family_root(spec, specs) == root
        rep = run_sweep(cfg, [MAX_TX_POWER_DBM], specs, n_frames, seed)[0]
        return rep.fit, channels(cfg, MAX_TX_POWER_DBM, spec.channel_len, REF_DRIVE_RMS)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("preset", ["sweep_40db", "sweep_55db"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_noise_free_fit_recovers_channels(self, case, preset, seed):
        fit, truth = self.fit_and_truth(
            case, preset, 16, seed, thermal_noise_dbfs=-200.0, adc_bits=24
        )
        assert np.linalg.norm(fit.coefficients - truth) / np.linalg.norm(truth) <= 1e-4

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("preset", ["sweep_40db", "sweep_55db"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_error_within_the_fits_own_error_bars(self, case, preset, seed):
        # With complex noise of power sigma^2 the error is CN(0, sigma^2
        # (A^H A)^-1) for complex bases, and for real bases its real and
        # imaginary parts are each N(0, sigma^2/2 (A^T A)^-1): either way
        # e^H (A^H A) e / (sigma^2 / 2) is chi-squared with 2p degrees of
        # freedom.
        fit, truth = self.fit_and_truth(case, preset, 8, seed)
        _, spec, _, _ = self.CASES[case]
        n = fit.training_len
        s = transmit_samples(8, seed)
        a = dense_regressor(build_basis(s[:n], spec), n, spec.channel_len)
        e = fit.coefficients - truth
        sigma2 = 10.0 ** (fit.residual_power_dbfs / 10.0)
        assert np.real(e.conj() @ (a.conj().T @ a) @ e) / (sigma2 / 2) <= 2 * (2 * fit.n_params)
