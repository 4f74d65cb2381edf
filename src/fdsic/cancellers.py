"""Least-squares digital self-interference cancellation.

Each cancellation model is a set of regressor (basis) signals derived
from the known transmit baseband signal; per-basis FIR channels are
estimated jointly by least squares and the reconstructed interference is
subtracted from the received signal.

Models:

* linear          -- {x}
* nonlinear       -- odd powers of x, either literal x^n or envelope
                     terms x|x|^(n-1)
* widely-linear   -- {x, conj(x)}, capturing mixer IQ imbalance
* joint-dac-iq    -- {Re{x}^m, Im{x}^m}, capturing per-rail converter
                     distortion and IQ imbalance through composite
                     channels on the rail powers
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .impairments import REF_DRIVE_RMS, ImpairmentConfig, simulate_received
from .presets import SAMPLE_RATE
from .signals import ComplexBasebandSignal, OfdmFrameSpec, fir_convolve, gen_ofdm_frames


class CancellerMethod(str, enum.Enum):
    LINEAR = "linear"
    NONLINEAR = "nonlinear"
    WIDELY_LINEAR = "widely-linear"
    JOINT_DAC_IQ = "joint-dac-iq"

    @classmethod
    def parse(cls, name: str) -> "CancellerMethod":
        key = name.strip().lower().replace("_", "-")
        for method in cls:
            if method.value == key:
                return method
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown canceller method {name!r}; valid: {valid}")


@dataclass(frozen=True)
class CancellerSpec:
    """Which cancellation model to fit, with orders and channel length."""

    method: CancellerMethod
    channel_len: int = 32
    n_max: int | None = None
    m_max: int | None = None
    nonlinear_basis_variant: str = "power"

    def __post_init__(self):
        if self.channel_len < 1:
            raise ValueError("channel_len must be >= 1")
        if self.nonlinear_basis_variant not in ("power", "envelope"):
            raise ValueError(
                f"nonlinear_basis_variant must be 'power' or 'envelope', "
                f"got {self.nonlinear_basis_variant!r}"
            )
        if self.method is CancellerMethod.NONLINEAR:
            if self.n_max is None or self.n_max < 1 or self.n_max % 2 == 0:
                raise ValueError("nonlinear canceller requires odd n_max >= 1")
            if self.m_max is not None:
                raise ValueError("m_max is not applicable to the nonlinear canceller")
        elif self.method is CancellerMethod.JOINT_DAC_IQ:
            if self.m_max is None or self.m_max < 1:
                raise ValueError("joint-dac-iq canceller requires m_max >= 1")
            if self.n_max is not None:
                raise ValueError("n_max is not applicable to the joint-dac-iq canceller")
        else:
            if self.n_max is not None or self.m_max is not None:
                raise ValueError(
                    f"order parameters are not applicable to {self.method.value}"
                )

    def label(self) -> str:
        if self.method is CancellerMethod.NONLINEAR:
            return f"{self.method.value}(n_max={self.n_max},{self.nonlinear_basis_variant})"
        if self.method is CancellerMethod.JOINT_DAC_IQ:
            return f"{self.method.value}(m_max={self.m_max})"
        return self.method.value


# The four cancellers the comparison scores, at the orders it uses.
DEFAULT_SPECS = (
    CancellerSpec(CancellerMethod.LINEAR),
    CancellerSpec(CancellerMethod.NONLINEAR, n_max=5, nonlinear_basis_variant="envelope"),
    CancellerSpec(CancellerMethod.WIDELY_LINEAR),
    CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=3),
)


@dataclass(frozen=True)
class BasisSignal:
    label: str
    samples: np.ndarray


@dataclass(frozen=True)
class LsFit:
    """Jointly estimated per-basis FIR channels plus diagnostics."""

    channels: dict
    training_len: int
    condition_diag: dict
    residual_power_dbfs: float


@dataclass(frozen=True)
class SuppressionReport:
    """Held-out residual power relative to the thermal noise floor."""

    method: str
    tx_power_dbm: float
    residual_above_noise_db: float
    residual_above_noise_std_db: float
    apparent_noise_floor_dbfs: float


def build_basis(x: ComplexBasebandSignal, spec: CancellerSpec) -> list[BasisSignal]:
    """Ordered regressor signals for the requested cancellation model."""
    s = x.samples
    if spec.method is CancellerMethod.LINEAR:
        return [BasisSignal("x", s)]
    if spec.method is CancellerMethod.WIDELY_LINEAR:
        return [BasisSignal("x", s), BasisSignal("conj(x)", np.conj(s))]
    if spec.method is CancellerMethod.NONLINEAR:
        bases = []
        for n in range(1, spec.n_max + 1, 2):
            if spec.nonlinear_basis_variant == "power":
                bases.append(BasisSignal(f"x^{n}", s**n))
            else:
                bases.append(BasisSignal(f"x|x|^{n - 1}", s * np.abs(s) ** (n - 1)))
        return bases
    # joint-dac-iq: real rail powers lifted to complex regressors
    bases = []
    for m in range(1, spec.m_max + 1):
        bases.append(BasisSignal(f"re(x)^{m}", (s.real**m).astype(np.complex128)))
        bases.append(BasisSignal(f"im(x)^{m}", (s.imag**m).astype(np.complex128)))
    return bases


def _regressor_matrix(bases: list[BasisSignal], length: int, taps: int) -> np.ndarray:
    """Stacked causal Toeplitz blocks, column l of block b = basis_b[n - l]."""
    cols = []
    for basis in bases:
        padded = np.concatenate([np.zeros(taps - 1, dtype=np.complex128), basis.samples[:length]])
        windows = np.lib.stride_tricks.sliding_window_view(padded, taps)
        cols.append(windows[:, ::-1])
    return np.hstack(cols) if len(cols) > 1 else np.ascontiguousarray(cols[0])


def ls_estimate(
    r: ComplexBasebandSignal, bases: list[BasisSignal], channel_len: int
) -> LsFit:
    """Jointly fit one FIR channel per basis by least squares.

    Solved through an orthogonal (SVD) factorization; a rank-deficient
    regressor matrix falls back to the minimum-norm solution and is
    flagged in the conditioning report.
    """
    return _ls_fit_columns(r.samples[:, np.newaxis], bases, channel_len)[0]


def _ls_fit_columns(
    rhs: np.ndarray, bases: list[BasisSignal], channel_len: int
) -> list[LsFit]:
    """:func:`ls_estimate` for every column of ``rhs`` from one factorization.

    The regressor matrix depends only on the bases, so it is built and
    solved once with the columns as right-hand sides; fit k equals the
    fit of column k alone up to rounding.
    """
    n = rhs.shape[0]
    n_params = len(bases) * channel_len
    if n < 4 * n_params:
        raise ValueError(
            f"training length {n} must be >= 4 * (bases * taps) = {4 * n_params}"
        )
    for basis in bases:
        if basis.samples.size < n:
            raise ValueError(f"basis {basis.label!r} shorter than received signal")

    matrix = _regressor_matrix(bases, n, channel_len)
    coeffs, _, rank, singular = np.linalg.lstsq(matrix, rhs, rcond=None)

    cond = float(singular[0] / singular[-1]) if singular[-1] > 0 else float("inf")
    fits = []
    for b, h in zip(rhs.T, coeffs.T):
        # Column by column, the residual temporaries stay one signal long.
        resid_power = float(np.mean(np.abs(b - matrix @ h) ** 2))
        fits.append(
            LsFit(
                channels={
                    basis.label: h[i * channel_len : (i + 1) * channel_len]
                    for i, basis in enumerate(bases)
                },
                training_len=n,
                condition_diag={
                    "condition_number": cond,
                    "rank": int(rank),
                    "n_params": n_params,
                    "rank_deficient": bool(rank < n_params),
                },
                residual_power_dbfs=(
                    10.0 * math.log10(resid_power) if resid_power > 0 else float("-inf")
                ),
            )
        )
    return fits


def reconstruct(
    bases: list[BasisSignal], fit: LsFit, sample_rate: float
) -> ComplexBasebandSignal:
    """Sum of per-basis channel convolutions (the cancellation signal)."""
    _check_compatible(bases, fit)
    total = np.zeros(bases[0].samples.size, dtype=np.complex128)
    for basis in bases:
        taps = fit.channels[basis.label]
        sig = ComplexBasebandSignal(basis.samples, sample_rate)
        total += fir_convolve(sig, taps).samples
    return ComplexBasebandSignal(total, sample_rate)


def cancel(
    r: ComplexBasebandSignal, bases: list[BasisSignal], fit: LsFit
) -> ComplexBasebandSignal:
    """Subtract the reconstructed self-interference from ``r``."""
    _check_compatible(bases, fit)
    if any(basis.samples.size < len(r) for basis in bases):
        raise ValueError("basis signals shorter than received signal")
    est = reconstruct(
        [BasisSignal(b.label, b.samples[: len(r)]) for b in bases], fit, r.sample_rate
    )
    return r.with_samples(r.samples - est.samples)


def _check_compatible(bases: list[BasisSignal], fit: LsFit) -> None:
    labels = [b.label for b in bases]
    if sorted(labels) != sorted(fit.channels.keys()):
        raise ValueError(
            f"basis set {labels} does not match fitted channels "
            f"{sorted(fit.channels.keys())}"
        )


# Fitting more training rows than this buys no measurable accuracy for the
# sweep scenarios but dominates runtime, so run_comparison caps the fit.
MAX_TRAIN_SAMPLES = 65536


def run_comparison(
    x: ComplexBasebandSignal,
    cfg: ImpairmentConfig,
    specs: Sequence[CancellerSpec],
    seed: int,
    train_fraction: float = 0.5,
    n_frames: int = 100,
    max_train_samples: int = MAX_TRAIN_SAMPLES,
) -> list[SuppressionReport]:
    """Simulate, fit each canceller on the training split, and score the rest.

    The signal is treated as ``n_frames`` equal-length frames; the first
    ``train_fraction`` of frames trains the fits and the remainder is
    held out. Residual-above-noise statistics are aggregated across the
    held-out frames (mean and one-standard-deviation spread).
    """
    return _compare(x, [cfg], specs, seed, train_fraction, n_frames, max_train_samples)


def run_sweep(
    cfg: ImpairmentConfig,
    powers: Sequence[float],
    specs: Sequence[CancellerSpec],
    frames: OfdmFrameSpec,
    seed: int,
) -> list[SuppressionReport]:
    """Run the canceller comparison at each transmit power.

    The transmit frames are generated once, scaled to the nominal DAC
    drive and shared by every power, so each canceller is fitted at all
    powers with one factorization. Reports come in (power, spec) order
    and match :func:`run_comparison` at each power up to rounding.
    """
    x = gen_ofdm_frames(frames, SAMPLE_RATE)
    x = x.with_samples(x.samples * REF_DRIVE_RMS)
    cfgs = [cfg.with_tx_power(power) for power in powers]
    return _compare(x, cfgs, specs, seed, n_frames=frames.n_frames)


def _compare(
    x: ComplexBasebandSignal,
    cfgs: Sequence[ImpairmentConfig],
    specs: Sequence[CancellerSpec],
    seed: int,
    train_fraction: float = 0.5,
    n_frames: int = 100,
    max_train_samples: int = MAX_TRAIN_SAMPLES,
) -> list[SuppressionReport]:
    """:func:`run_comparison` at every config in ``cfgs``, one LS solve per spec.

    Reports come in (config, spec) order. Every spec is fitted before any
    is scored: scoring between fits left more heap in use under the large
    joint-dac-iq solve and raised peak memory by about 9 %.
    """
    if not specs:
        raise ValueError("specs must be nonempty")
    if not (0 < train_fraction < 1):
        raise ValueError("train_fraction must lie in (0, 1)")
    if n_frames < 2:
        raise ValueError(
            f"a comparison needs at least 2 frames (one to train, one held out), "
            f"got {n_frames}"
        )
    if not all(math.isfinite(cfg.chan.thermal_noise_dbfs) for cfg in cfgs):
        raise ValueError("run_comparison requires a finite thermal noise floor")

    frame_len = len(x) // n_frames
    if frame_len < 1:
        raise ValueError("signal shorter than the number of frames")
    n_train_frames = int(round(n_frames * train_fraction))
    n_train_frames = min(max(n_train_frames, 1), n_frames - 1)
    split = n_train_frames * frame_len
    usable = n_frames * frame_len

    # Simulate: keep only the received samples (one column per config) and
    # the apparent floor; each chain's stage signals are dropped at once.
    received = np.empty((len(x), len(cfgs)), dtype=np.complex128, order="F")
    floors = []
    for k, cfg in enumerate(cfgs):
        r, stages = simulate_received(x, cfg, seed)
        received[:, k] = r.samples
        extra = stages["noise"][split:usable] + stages["quant_error"][split:usable]
        floors.append(10.0 * math.log10(float(np.mean(np.abs(extra) ** 2))))
        del r, stages, extra

    # Fit: one factorization per spec, every config a right-hand side.
    fit_len = min(split, max_train_samples)
    x_train = x.with_samples(x.samples[:fit_len])
    fits = [
        _ls_fit_columns(received[:fit_len], build_basis(x_train, spec), spec.channel_len)
        for spec in specs
    ]

    # Score each (config, spec) on the held-out frames.
    bases = [build_basis(x, spec) for spec in specs]
    reports = []
    for k, cfg in enumerate(cfgs):
        r = x.with_samples(received[:, k])
        noise_floor = 10.0 ** (cfg.chan.thermal_noise_dbfs / 10.0)
        for spec, spec_bases, spec_fits in zip(specs, bases, fits):
            residual = cancel(r, spec_bases, spec_fits[k])
            per_frame = []
            for start in range(split, usable, frame_len):
                p = float(np.mean(np.abs(residual.samples[start : start + frame_len]) ** 2))
                per_frame.append(10.0 * math.log10(max(p, 1e-300) / noise_floor))
            per_frame = np.asarray(per_frame)
            reports.append(
                SuppressionReport(
                    method=spec.label(),
                    tx_power_dbm=cfg.tx_power_dbm,
                    residual_above_noise_db=float(np.mean(per_frame)),
                    residual_above_noise_std_db=float(np.std(per_frame)),
                    apparent_noise_floor_dbfs=floors[k],
                )
            )
    return reports
