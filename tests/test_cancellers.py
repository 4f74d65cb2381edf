"""Tests for basis construction and least-squares cancellation."""

import ast
import collections
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from helpers_oracles import (
    apply_pa_oracle,
    cancel,
    channel_and_receiver_oracle,
    dense_regressor,
    joint_dac_iq_channels,
    ls_estimate,
    nonlinear_channels,
    normal_equations_fit,
    widely_linear_channels,
)

from fdsic import cancellers, impairments
from fdsic.cancellers import (
    DEFAULT_SPECS,
    ORDER_FIELDS,
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
    PhaseNoiseSpec,
    REF_DRIVE_RMS,
    receive,
    simulate_received,
    thermal_noise,
    transmit_front_end,
)
from fdsic.presets import load_preset
from fdsic.signals import (
    FRAME_LEN, ComplexBasebandSignal, fir_convolve, gen_ofdm_frames, OfdmFrameSpec,
)


def random_signal(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)


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

    def test_nonlinear_envelope_variant(self):
        x = random_signal(64, 0)
        spec = CancellerSpec(CancellerMethod.NONLINEAR, n_max=5)
        bases = build_basis(x, spec)
        assert [b.label for b in bases] == ["x|x|^0", "x|x|^2", "x|x|^4"]
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

    def test_rejects_unsupported_combinations(self):
        with pytest.raises(ValueError):
            CancellerSpec(CancellerMethod.LINEAR, m_max=3)
        with pytest.raises(ValueError):
            CancellerSpec(CancellerMethod.NONLINEAR, n_max=4)
        with pytest.raises(ValueError):
            CancellerSpec(CancellerMethod.NONLINEAR)
        with pytest.raises(ValueError):
            CancellerSpec(CancellerMethod.JOINT_DAC_IQ)
        with pytest.raises(ValueError):
            CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=2, n_max=3)

    @pytest.mark.parametrize(
        ("make", "message"),
        [
            (
                lambda: CancellerSpec(CancellerMethod.LINEAR, channel_len=0),
                "channel_len must be >= 1",
            ),
        ],
        ids=["channel_len-zero"],
    )
    def test_out_of_range_spec_names_its_field(self, make, message):
        with pytest.raises(ValueError) as error:
            make()
        assert str(error.value) == message

    @pytest.mark.parametrize(
        ("make", "field"),
        [
            (lambda: CancellerSpec("linear"), "method"),
            (lambda: CancellerSpec(CancellerMethod.LINEAR, channel_len=8.5), "channel_len"),
            (lambda: CancellerSpec(CancellerMethod.LINEAR, channel_len=True), "channel_len"),
            (lambda: CancellerSpec(CancellerMethod.NONLINEAR, n_max=True), "n_max"),
            (lambda: CancellerSpec(CancellerMethod.NONLINEAR, n_max=5.0), "n_max"),
            (lambda: CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=2.5), "m_max"),
            (lambda: CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=True), "m_max"),
            (lambda: OfdmFrameSpec(n_frames=2.5), "n_frames"),
            (lambda: OfdmFrameSpec(n_frames=True), "n_frames"),
            (lambda: OfdmFrameSpec(seed=1.5), "seed"),
        ],
        ids=[
            "method-string", "channel_len-fraction", "channel_len-bool", "n_max-bool",
            "n_max-float", "m_max-fraction", "m_max-bool", "n_frames-fraction",
            "n_frames-bool", "seed-fraction",
        ],
    )
    def test_spec_of_wrong_type_is_rejected_when_built(self, make, field):
        # A boolean is an int to Python, but no count or order here.
        with pytest.raises(ValueError, match=f"^{field} must be a"):
            make()

    @pytest.mark.parametrize("field", ["n_max", "m_max"])
    @pytest.mark.parametrize("method", list(CancellerMethod), ids=lambda method: method.value)
    def test_order_is_not_applicable_exactly_where_the_table_omits_it(self, method, field):
        # Every order the method takes is given a valid value, and so is field.
        takes = ORDER_FIELDS.get(method, ())
        orders = {name: 1 for name in ("n_max", "m_max") if name == field or name in takes}
        if field in takes:
            assert getattr(CancellerSpec(method, **orders), field) == 1
        else:
            message = f"^{field} is not applicable to the {method.value} canceller$"
            with pytest.raises(ValueError, match=message):
                CancellerSpec(method, **orders)

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
        with pytest.raises(ValueError, match="valid:"):
            CancellerMethod.parse("volterra")


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

    def test_matches_normal_equations_oracle_small(self):
        x = random_signal(64, 5)
        rng = np.random.default_rng(6)
        r = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        bases = build_basis(x, CancellerSpec(CancellerMethod.WIDELY_LINEAR, channel_len=2))
        fit = ls_estimate(r, bases, 2)
        got = fit.coefficients
        ref = normal_equations_fit(r, bases, 2)
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-9

    def test_rejects_underdetermined(self):
        x = random_signal(60, 7)
        bases = build_basis(x, CancellerSpec(CancellerMethod.WIDELY_LINEAR, channel_len=8))
        with pytest.raises(ValueError, match="training length"):
            ls_estimate(x, bases, 8)

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

    def test_rank_deficient_columns_give_minimum_norm(self):
        x = random_signal(512, 42)
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

    def test_joint_rails_are_real_and_packed_two_rows_per_complex_row(self, monkeypatch):
        n, spec = 9001, CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=3)
        bases = build_basis(random_signal(n, 57), spec)
        assert all(basis.samples.dtype == np.float64 for basis in bases)

        calls = []
        geqrf = cancellers._geqrf

        def recording_geqrf(buf, rows, *args):
            calls.append(((rows, buf.shape[1]), buf.dtype))
            return geqrf(buf, rows, *args)

        monkeypatch.setattr(cancellers, "_geqrf", recording_geqrf)
        n_params = len(bases) * spec.channel_len
        factor = cancellers._ls_factor(random_signal(n, 58)[:, np.newaxis], bases, spec.channel_len)
        assert factor.packed
        assert len(calls) == -(-n // (2 * cancellers.FIT_BLOCK_ROWS))
        for (rows, cols), dtype in calls:
            assert dtype == np.complex128
            assert rows <= n_params + cancellers.FIT_BLOCK_ROWS
            assert cols == n_params + 2

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

    def test_geqrf_rejects_rows_beyond_the_buffer(self):
        buf = np.zeros((10, 4), dtype=np.complex128, order="F")
        with pytest.raises(ValueError, match="argument 4"):
            cancellers._geqrf(buf, 11)

    def test_basis_shorter_than_rhs_is_rejected(self):
        rhs = random_signal(64, 53)[:, np.newaxis]
        with pytest.raises(ValueError, match="^basis 'x' shorter than received signal$"):
            _ls_factor(rhs, [BasisSignal("x", random_signal(63, 54))], 2)

    def test_duplicate_basis_rank_matches_dense(self):
        x = random_signal(9000, 52)
        bases = [BasisSignal("x", x), BasisSignal("x_copy", x.copy())]
        rhs = fir_convolve(x, [1.0, 0.3j])[:, np.newaxis]
        _, _, ref_rank, _ = np.linalg.lstsq(dense_regressor(bases, 9000, 4), rhs, rcond=None)
        fit = _ls_solve(_ls_factor(rhs, bases, 4), bases, 4)[0]
        assert fit.rank == ref_rank < fit.n_params

    def test_peak_memory_below_a_third_of_dense_regressor(self):
        n, n_rhs = 65536, 3
        spec = CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=3)
        bases = build_basis(random_signal(n, 53), spec)
        rhs = random_signal(n * n_rhs, 54).reshape(n, n_rhs)
        dense_bytes = n * len(bases) * spec.channel_len * 16  # 201 MB
        tracemalloc.start()
        try:
            _ls_solve(_ls_factor(rhs, bases, spec.channel_len), bases, spec.channel_len)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 3

    @pytest.mark.parametrize(
        "spec", [DEFAULT_SPECS[1], DEFAULT_SPECS[3]], ids=["nonlinear", "joint-dac-iq"]
    )
    def test_peak_memory_near_one_block_buffer(self, spec):
        # Each block is factored where it lies: the fit holds little more
        # than its one (n_params + FIT_BLOCK_ROWS) x ncols buffer.
        n, n_rhs = 65536, 3
        bases = build_basis(random_signal(n, 53), spec)
        rhs = random_signal(n * n_rhs, 54).reshape(n, n_rhs)
        n_params = len(bases) * spec.channel_len
        per_row = 2 if spec.method is CancellerMethod.JOINT_DAC_IQ else 1
        buffer_bytes = (n_params + cancellers.FIT_BLOCK_ROWS) * (n_params + per_row * n_rhs) * 16
        tracemalloc.start()
        try:
            _ls_factor(rhs, bases, spec.channel_len)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * buffer_bytes


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

    def test_mismatched_fit_rejected(self):
        x = random_signal(4096, 16)
        lin = build_basis(x, CancellerSpec(CancellerMethod.LINEAR, channel_len=4))
        wl = build_basis(x, CancellerSpec(CancellerMethod.WIDELY_LINEAR, channel_len=4))
        fit = ls_estimate(x, lin, 4)
        with pytest.raises(ValueError, match="does not match"):
            cancel(x, wl, fit)
        # The taps are positional: the same labels in another order differ.
        wl_fit = ls_estimate(x, wl, 4)
        with pytest.raises(ValueError, match="does not match"):
            cancel(x, wl[::-1], wl_fit)

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
    def test_joint_m1_equals_widely_linear(self):
        x = random_signal(8192, 20)
        rng = np.random.default_rng(21)
        r = (
            fir_convolve(x, [1.0, 0.2j])
            + 0.05 * np.conj(x)
            + 0.001 * (rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x)))
        )
        wl = build_basis(x, CancellerSpec(CancellerMethod.WIDELY_LINEAR, channel_len=4))
        joint = build_basis(x, CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=1, channel_len=4))
        fit_wl = ls_estimate(r, wl, 4)
        fit_joint = ls_estimate(r, joint, 4)
        assert abs(fit_wl.residual_power_dbfs - fit_joint.residual_power_dbfs) < 1e-6

    def test_nested_spans_monotone_residuals(self):
        x = gen_ofdm_frames(OfdmFrameSpec(n_frames=4, seed=22)).samples
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


def _clean_config():
    return ImpairmentConfig(
        dac=DacNonlinearity.identity(),
        tx_iq=IqImbalance.identity(),
        rx_iq=IqImbalance.identity(),
        pn=PhaseNoiseSpec(0.0, True, 0),
        pa=PaNonlinearity.identity(),
        chan=ChannelAndReceiver(
            h_si=[1.0, 0.1 + 0.05j],
            analog_suppression_db=40.0,
            thermal_noise_dbfs=-90.0,
            adc_bits=24,
        ),
    )


class TestRunSweep:
    def test_all_methods_reach_floor_without_impairments(self):
        reports = run_sweep(
            _clean_config(), [0.0], DEFAULT_SPECS, OfdmFrameSpec(n_frames=20, seed=30), seed=31
        )
        assert len(reports) == 4
        for rep in reports:
            assert abs(rep.residual_above_noise_db) <= 0.5

    def test_rejects_empty_specs(self):
        with pytest.raises(ValueError, match="nonempty"):
            run_sweep(_clean_config(), [0.0], [], OfdmFrameSpec(n_frames=4, seed=32), seed=1)

    def test_oversized_model_is_rejected_before_any_basis_is_built(self, monkeypatch):
        # 300 DAC orders on 2 rails at 32 taps need 76 800 training rows;
        # the sweep fits on 65 536. Neither the chain nor a basis runs.
        built = []
        build = cancellers.build_basis

        def recording_build_basis(x, spec):
            built.append(len(x))
            return build(x, spec)

        def no_front_end(*args):
            raise AssertionError("the chain ran")

        monkeypatch.setattr(cancellers, "build_basis", recording_build_basis)
        monkeypatch.setattr(cancellers, "receive", no_front_end)
        specs = [DEFAULT_SPECS[0], CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=300)]
        message = "training length 65536 must be >= 4 * (bases * taps) = 76800"
        with pytest.raises(ValueError) as error:
            run_sweep(load_preset("sweep_40db"), [22.0], specs, OfdmFrameSpec(n_frames=40), seed=0)
        assert str(error.value) == message
        assert built == []

    def test_oversized_model_is_rejected_before_any_frame_is_drawn(self, monkeypatch):
        # The training length follows from the frame count and FRAME_LEN
        # alone, so the model's size is checked before the frames are drawn.
        drawn = []
        draw = cancellers.gen_ofdm_frames

        def recording_gen_ofdm_frames(spec):
            drawn.append(spec)
            return draw(spec)

        monkeypatch.setattr(cancellers, "gen_ofdm_frames", recording_gen_ofdm_frames)
        specs = [CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=300)]
        with pytest.raises(ValueError) as error:
            run_sweep(load_preset("sweep_40db"), [22.0], specs, OfdmFrameSpec(), 0)
        assert str(error.value) == "training length 65536 must be >= 4 * (bases * taps) = 76800"
        assert drawn == []

    def test_power_out_of_range_is_rejected_before_the_chain_runs(self, monkeypatch):
        # 99 dBm is past the amplifier's range: no frame is drawn and the
        # front end does not run before the power is rejected.
        def not_run(*args):
            raise AssertionError("the frames were drawn or the chain ran")

        monkeypatch.setattr(cancellers, "gen_ofdm_frames", not_run)
        monkeypatch.setattr(cancellers, "receive", not_run)
        with pytest.raises(ValueError) as error:
            run_sweep(load_preset("sweep_40db"), [22.0, 99.0], DEFAULT_SPECS, OfdmFrameSpec(), 0)
        assert str(error.value) == "transmit power must lie in [-10, 22] dBm, got 99"

    @pytest.mark.parametrize(
        ("seed", "message"),
        [
            (-1, "seed must be in [0, 2**64), got -1"),
            (2**64, "seed must be in [0, 2**64), got 18446744073709551616"),
            (1.5, "seed must be an integer, got 1.5"),
        ],
        ids=["negative", "2**64", "fraction"],
    )
    def test_bad_seed_is_rejected_before_any_frame_is_drawn(self, monkeypatch, seed, message):
        def not_run(*args):
            raise AssertionError("the frames were drawn")

        monkeypatch.setattr(cancellers, "gen_ofdm_frames", not_run)
        with pytest.raises(ValueError) as error:
            run_sweep(load_preset("sweep_40db"), [22.0], DEFAULT_SPECS, OfdmFrameSpec(), seed)
        assert str(error.value) == message

    def test_one_method_at_two_channel_lengths(self):
        specs = [CancellerSpec(CancellerMethod.LINEAR, channel_len=taps) for taps in (8, 16)]
        reports = run_sweep(
            _clean_config(), [0.0], specs, OfdmFrameSpec(n_frames=4, seed=30), seed=31
        )
        assert [rep.method for rep in reports] == ["linear", "linear"]
        assert [rep.fit.n_params for rep in reports] == [8, 16]

    def test_rejects_single_frame(self):
        with pytest.raises(ValueError, match="at least 2 frames.*got 1"):
            run_sweep(
                _clean_config(), [0.0], DEFAULT_SPECS, OfdmFrameSpec(n_frames=1, seed=32), seed=1
            )

    def test_reports_carry_power_and_floor(self):
        reports = run_sweep(
            _clean_config(),
            [-5.0],
            [CancellerSpec(CancellerMethod.LINEAR)],
            OfdmFrameSpec(n_frames=8, seed=33),
            seed=34,
        )
        rep = reports[0]
        assert rep.tx_power_dbm == -5.0
        assert rep.method == "linear"
        assert rep.receiver.apparent_floor_dbfs == pytest.approx(-90.0, abs=1.0)
        assert rep.residual_above_noise_std_db >= 0.0

    def test_reports_of_identical_runs_compare_equal(self):
        spec = [CancellerSpec(CancellerMethod.LINEAR)]
        first, second = (
            run_sweep(_clean_config(), [0.0], spec, OfdmFrameSpec(n_frames=4, seed=43), seed=44)[0]
            for _ in range(2)
        )
        assert first.fit is not second.fit
        assert first == second
        assert hash(first) == hash(second)

    def test_reports_carry_fit_diagnostics(self):
        # Ten frames leave the joint-dac-iq fit numerically rank-deficient.
        frames = OfdmFrameSpec(n_frames=10, seed=41)
        cfg = load_preset("sweep_55db")
        reports = {
            rep.method: rep for rep in run_sweep(cfg, [22.0], DEFAULT_SPECS, frames, seed=42)
        }
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
        frames = OfdmFrameSpec(n_frames=10, seed=35)
        powers = [-10.0, 22.0]
        got = run_sweep(cfg, powers, DEFAULT_SPECS, frames, seed=36)

        expected = []
        for power in powers:
            expected += run_sweep(cfg, [power], DEFAULT_SPECS, frames, seed=36)
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

    def test_one_lstsq_call_per_canceller(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(*args, **kwargs):
            calls.append(args[1].shape)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        powers = [-10.0, 6.0, 22.0]
        reports = run_sweep(
            load_preset("sweep_55db"),
            powers,
            DEFAULT_SPECS,
            OfdmFrameSpec(n_frames=10, seed=37),
            seed=38,
        )
        assert len(reports) == len(powers) * len(DEFAULT_SPECS)
        assert len(calls) == len(DEFAULT_SPECS)
        assert all(shape[1] == len(powers) for shape in calls)

    def test_front_end_runs_once_per_sweep(self, monkeypatch):
        calls = {"apply_dac": 0, "apply_phase_noise": 0, "apply_pa": 0}

        def counting(name):
            stage = getattr(impairments, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return stage(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(impairments, name, counting(name))
        powers = [-10.0, 6.0, 22.0]
        reports = run_sweep(
            load_preset("sweep_55db"),
            powers,
            DEFAULT_SPECS,
            OfdmFrameSpec(n_frames=4, seed=41),
            seed=42,
        )
        assert len(reports) == len(powers) * len(DEFAULT_SPECS)
        assert calls == {"apply_dac": 1, "apply_phase_noise": 1, "apply_pa": 3}

    def test_one_receive_call_per_sweep(self, monkeypatch):
        # The chain runs in one receive call: the scaled frames, the sweep's
        # seed, the capped training rows and the split.
        calls = []
        real_receive = cancellers.receive

        def recording_receive(x, cfg, powers, seed, fit_len, split):
            calls.append((x.copy(), cfg, list(powers), seed, fit_len, split))
            return real_receive(x, cfg, powers, seed, fit_len, split)

        monkeypatch.setattr(cancellers, "receive", recording_receive)
        cfg = load_preset("sweep_55db")
        frames = OfdmFrameSpec(n_frames=40, seed=49)
        powers = [-10.0, 6.0, 22.0]
        run_sweep(cfg, powers, [CancellerSpec(CancellerMethod.LINEAR)], frames, seed=50)
        assert len(calls) == 1
        x, got_cfg, got_powers, seed, fit_len, split = calls[0]
        scaled = gen_ofdm_frames(frames).samples * REF_DRIVE_RMS
        assert x.tobytes() == scaled.tobytes()
        assert got_cfg is cfg
        assert got_powers == powers
        assert seed == 50
        # 20 of 40 frames train, capped at MAX_TRAIN_SAMPLES digitized rows.
        assert (fit_len, split) == (cancellers.MAX_TRAIN_SAMPLES, 20 * FRAME_LEN)

    def test_thermal_noise_drawn_once_per_sweep(self, monkeypatch):
        names = []
        substream = impairments.substream

        def recording_substream(seed, name):
            names.append(name)
            return substream(seed, name)

        monkeypatch.setattr(impairments, "substream", recording_substream)
        powers = [-10.0, 6.0, 22.0]
        reports = run_sweep(
            load_preset("sweep_55db"),
            powers,
            DEFAULT_SPECS,
            OfdmFrameSpec(n_frames=4, seed=45),
            seed=46,
        )
        assert len(reports) == len(powers) * len(DEFAULT_SPECS)
        assert names.count("thermal-noise") == 1

    def test_signal_constructions_do_not_grow_with_powers(self, monkeypatch):
        # Samples pass between the chain stages as arrays: a signal is
        # built where the frames enter, not once per stage and power.
        def constructions(powers):
            count = [0]
            post_init = ComplexBasebandSignal.__post_init__

            def counting_post_init(self):
                count[0] += 1
                post_init(self)

            with monkeypatch.context() as patch:
                patch.setattr(ComplexBasebandSignal, "__post_init__", counting_post_init)
                run_sweep(
                    load_preset("sweep_55db"),
                    powers,
                    DEFAULT_SPECS,
                    OfdmFrameSpec(n_frames=4, seed=47),
                    seed=48,
                )
            return count[0]

        assert constructions([-10.0]) == constructions([-10.0, 6.0, 22.0])

    def test_empty_power_list_rejected(self):
        with pytest.raises(ValueError, match="powers must be nonempty"):
            run_sweep(
                load_preset("sweep_55db"), [], DEFAULT_SPECS, OfdmFrameSpec(n_frames=4), seed=0
            )

    def test_scoring_bases_cover_only_held_rows(self, monkeypatch):
        lengths = []
        build = cancellers.build_basis

        def recording_build_basis(x, spec):
            lengths.append(len(x))
            return build(x, spec)

        monkeypatch.setattr(cancellers, "build_basis", recording_build_basis)
        frames = OfdmFrameSpec(n_frames=10, seed=43)
        run_sweep(load_preset("sweep_55db"), [-10.0, 22.0], DEFAULT_SPECS, frames, seed=44)

        x = gen_ofdm_frames(frames)
        frame_len = len(x) // frames.n_frames
        split = round(frames.n_frames * TRAIN_FRACTION) * frame_len
        usable = frames.n_frames * frame_len
        fit_len = min(split, cancellers.MAX_TRAIN_SAMPLES)
        # All fits first, one build per family root (nonlinear and
        # joint-dac-iq), then one sample per spec for its labels, then per
        # held-out frame each spec's scoring bases: the frame plus the
        # taps - 1 samples of history before it.
        assert lengths == [fit_len] * 2 + [1] * len(DEFAULT_SPECS) + [
            frame_len + spec.channel_len - 1
            for _ in range(split, usable, frame_len)
            for spec in DEFAULT_SPECS
        ]

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
        frames = OfdmFrameSpec(n_frames=10, seed=39)
        powers = [-10.0, 22.0]
        reports = run_sweep(cfg, powers, specs, frames, seed=40)

        x = gen_ofdm_frames(frames)
        x = x.with_samples(x.samples * REF_DRIVE_RMS)
        frame_len = len(x) // frames.n_frames
        split = round(frames.n_frames * TRAIN_FRACTION) * frame_len
        fit_len = min(split, cancellers.MAX_TRAIN_SAMPLES)
        assert (fit_len < split) == (max_train is not None)
        x_train = x.samples[:fit_len]
        expected = []
        for power in powers:
            r, _ = simulate_received(x, cfg, power, 40)
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
                    for s in range(split, frames.n_frames * frame_len, frame_len)
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
        frames = OfdmFrameSpec(n_frames=20, seed=0)
        base = run_sweep(cfg, [-10.0, 22.0], DEFAULT_SPECS, frames, 0)
        for d in (10.0, -10.0):
            chan = dataclasses.replace(
                cfg.chan,
                analog_suppression_db=cfg.chan.analog_suppression_db - d,
                thermal_noise_dbfs=cfg.chan.thermal_noise_dbfs + d,
            )
            shifted = run_sweep(
                dataclasses.replace(cfg, chan=chan), [-10.0, 22.0], DEFAULT_SPECS, frames, 0
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


class TestReceive:
    """The receive step digitizes only the rows the fit and the scoring read."""

    @staticmethod
    def frames(n_frames, seed):
        return gen_ofdm_frames(OfdmFrameSpec(n_frames=n_frames, seed=seed)).samples * REF_DRIVE_RMS

    @staticmethod
    def sweep_rows(x, cfg, powers, seed, split):
        """The receive step of a sweep of ``x`` at ``cfg``, ``powers`` and
        ``seed``: :func:`receive` of the rows the sweep reads."""
        return receive(x, cfg, powers, seed, min(split, cancellers.MAX_TRAIN_SAMPLES), split)

    @staticmethod
    def every_row(x, cfg, power, seed):
        """:func:`receive` at one power over every row: decoded rows and summary."""
        _, received, (diag,) = receive(x, cfg, [power], seed, 0, 0)
        return received[:, 0], diag

    def test_rows_are_those_of_every_row_receive(self):
        # 40 frames: the split (81 920) lies past MAX_TRAIN_SAMPLES, so rows
        # [65 536, 81 920) feed the AGC but are never digitized.
        cfg = load_preset("sweep_40db")
        x = self.frames(40, 61)
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
        _, diag = TestReceive.every_row(x, cfg, power, seed)
        front, noise = transmit_front_end(x, cfg, seed), thermal_noise(len(x), cfg.chan, seed)
        assert receiver.agc_scale == diag.agc_scale
        drive = 10.0 ** ((power - MAX_TX_POWER_DBM) / 20.0) / REF_DRIVE_RMS
        antenna = apply_pa_oracle(front * drive, cfg.pa) * 10.0 ** (MAX_TX_POWER_DBM / 20.0)
        _, error, clipped, _ = channel_and_receiver_oracle(
            antenna, cfg.chan, cfg.rx_iq, noise, ADC_HEADROOM_DB
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
            r, _ = TestReceive.every_row(x, cfg, power, seed)
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
        reports = run_sweep(cfg, powers, [spec], OfdmFrameSpec(n_frames=40, seed=71), seed=72)
        x = self.frames(40, 71)
        split = 20 * (len(x) // 40)
        clips = [
            self.assert_summary_matches(rep.receiver, x, cfg, power, 72, split)
            for rep, power in zip(reports, powers)
        ]
        assert clips[1] > 0

    def test_rows_at_20_bits_are_int32_codes(self):
        # Above 16 bits a code needs 32: the rows still decode to the bits
        # of an every-row receive's.
        base = load_preset("sweep_40db")
        cfg = dataclasses.replace(base, chan=dataclasses.replace(base.chan, adc_bits=20))
        x = self.frames(10, 67)
        split = 5 * (len(x) // 10)
        powers = [-10.0, 22.0]
        train, held, receivers = TestReceive.sweep_rows(x, cfg, powers, 68, split)
        assert train.codes.dtype == held.codes.dtype == np.int32
        # The gain ranging reaches codes beyond int16 at 20 bits.
        assert np.max(np.abs(held.codes)) > np.iinfo(np.int16).max
        self.assert_rows_match(train, held, receivers, x, cfg, powers, 68, split)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_in_an_undigitized_row_is_an_error(self):
        # The overflowed sample reaches the AGC alone, and through its scale
        # every digitized row.
        cfg = load_preset("sweep_40db")
        x = self.frames(40, 63)
        split = 20 * (len(x) // 40)
        samples = x.copy()
        samples[cancellers.MAX_TRAIN_SAMPLES + 1000] = 1e200
        with pytest.raises(ValueError, match="not finite"):
            TestReceive.sweep_rows(samples, cfg, [-10.0], 64, split)

    def test_peak_memory_above_inputs_and_outputs(self):
        # sweep_40db at the CLI defaults: 100 frames, the 9 powers -10:22:4.
        cfg = load_preset("sweep_40db")
        x = self.frames(100, 65)
        n = len(x)
        split = 50 * (n // 100)
        powers = [-10.0 + 4.0 * i for i in range(9)]
        tracemalloc.start()
        try:
            train, held, _ = TestReceive.sweep_rows(x, cfg, powers, 66, split)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full = n * 16
        # receive holds its front end and noise, full-length complex arrays, throughout.
        kept = sum(rows.codes.nbytes + rows.scales.nbytes for rows in (train, held))
        transient = peak - kept - 2 * full
        assert transient <= 2.5 * full

    @staticmethod
    def sweep40_rows(seed):
        """x, the config, the powers, the split and the frame length of a
        9-power sweep_40db sweep."""
        x = TestReceive.frames(100, seed)
        powers = [-10.0 + 4.0 * i for i in range(9)]
        return x, load_preset("sweep_40db"), powers, 50 * (len(x) // 100), len(x) // 100

    def test_peak_memory_with_rows_as_codes(self):
        # The 65 536 training and 204 800 held rows of 9 powers are 9.7 MB
        # of int16 codes (38.9 MB as complex128), next to the 13.1 MB front
        # end and noise and one power's chain at a time.
        x, cfg, powers, split, _ = self.sweep40_rows(65)
        tracemalloc.start()
        try:
            TestReceive.sweep_rows(x, cfg, powers, 66, split)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 42e6

    def test_fit_and_score_peak_memory_on_codes(self):
        # The peak is the joint-dac-iq root's fit: its block buffer,
        # (192 + 4096) x (192 + 2 * 9) complex (14.4 MB), and its 65 536-row
        # real bases (3.1 MB). Rows are decoded a fit block or a held-out
        # frame at a time: all held rows at once would add 29.5 MB, and every
        # spec's full-length scoring bases 29.5 MB.
        x, cfg, powers, split, frame_len = self.sweep40_rows(69)
        train, held, _ = TestReceive.sweep_rows(x, cfg, powers, 70, split)
        noise_dbfs = cfg.chan.thermal_noise_dbfs
        tracemalloc.start()
        try:
            cancellers._fit_and_score(x, train, held, DEFAULT_SPECS, frame_len, noise_dbfs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 22e6


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
        frames = OfdmFrameSpec(n_frames=n_frames, seed=seed)
        powers = [-10.0, 22.0]
        reports = run_sweep(cfg, powers, specs, frames, seed)

        x = gen_ofdm_frames(frames)
        x = x.with_samples(x.samples * REF_DRIVE_RMS)
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

    @pytest.mark.parametrize(
        "specs, roots",
        [
            (DEFAULT_SPECS, (DEFAULT_SPECS[1], DEFAULT_SPECS[3])),
            ((DEFAULT_SPECS[0], DEFAULT_SPECS[3]), (DEFAULT_SPECS[0], DEFAULT_SPECS[3])),
            ((DEFAULT_SPECS[2],), (DEFAULT_SPECS[2],)),
            (
                (dataclasses.replace(DEFAULT_SPECS[2], channel_len=16), DEFAULT_SPECS[3]),
                (dataclasses.replace(DEFAULT_SPECS[2], channel_len=16), DEFAULT_SPECS[3]),
            ),
        ],
        ids=["default", "linear-joint", "widely-linear", "widely-linear-16-taps-joint"],
    )
    def test_qr_calls_per_family_root(self, monkeypatch, specs, roots):
        calls = []
        geqrf = cancellers._geqrf

        def counting_geqrf(buf, rows, *args):
            calls.append((rows, buf.shape[1]))
            return geqrf(buf, rows, *args)

        monkeypatch.setattr(cancellers, "_geqrf", counting_geqrf)
        frames = OfdmFrameSpec(n_frames=10, seed=46)
        reports = run_sweep(load_preset("sweep_55db"), [22.0], specs, frames, seed=47)
        assert [rep.method for rep in reports] == [spec.label() for spec in specs]

        x = gen_ofdm_frames(frames)
        split = round(frames.n_frames * TRAIN_FRACTION) * (len(x) // frames.n_frames)
        fit_len = min(split, cancellers.MAX_TRAIN_SAMPLES)
        # A root's calls are told apart by their width: its columns plus one
        # right-hand side, which a joint-dac-iq root packs as two columns
        # (Re, Im) over steps of twice the rows.
        expected = {}
        for root in roots:
            per_row = 2 if root.method is CancellerMethod.JOINT_DAC_IQ else 1
            width = len(build_basis(x.samples[:1], root)) * root.channel_len + per_row
            expected[width] = -(-fit_len // (per_row * cancellers.FIT_BLOCK_ROWS))
        assert collections.Counter(shape[1] for shape in calls) == expected


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

    def fit_and_truth(self, case, preset, frames, **chan):
        identities, spec, root, channels = self.CASES[case]
        cfg = _world(preset, identities, **chan)
        specs = list(dict.fromkeys([spec, root]))
        assert _family_root(spec, specs) == root
        rep = run_sweep(cfg, [MAX_TX_POWER_DBM], specs, frames, frames.seed)[0]
        return rep.fit, channels(cfg, MAX_TX_POWER_DBM, spec.channel_len, REF_DRIVE_RMS)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("preset", ["sweep_40db", "sweep_55db"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_noise_free_fit_recovers_channels(self, case, preset, seed):
        frames = OfdmFrameSpec(n_frames=16, seed=seed)
        fit, truth = self.fit_and_truth(
            case, preset, frames, thermal_noise_dbfs=-200.0, adc_bits=24
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
        frames = OfdmFrameSpec(n_frames=8, seed=seed)
        fit, truth = self.fit_and_truth(case, preset, frames)
        _, spec, _, _ = self.CASES[case]
        n = fit.training_len
        s = gen_ofdm_frames(frames).samples * REF_DRIVE_RMS
        a = dense_regressor(build_basis(s[:n], spec), n, spec.channel_len)
        e = fit.coefficients - truth
        sigma2 = 10.0 ** (fit.residual_power_dbfs / 10.0)
        assert np.real(e.conj() @ (a.conj().T @ a) @ e) / (sigma2 / 2) <= 2 * (2 * fit.n_params)
