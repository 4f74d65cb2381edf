"""Least-squares digital self-interference cancellation.

Each cancellation model is a set of regressor (basis) signals derived
from the known transmit baseband signal; per-basis FIR channels are
estimated jointly by least squares and the reconstructed interference is
subtracted from the received signal.

Models:

* linear          -- {x}
* nonlinear       -- odd-order envelope terms x|x|^(n-1)
* widely-linear   -- {x, conj(x)}, capturing mixer IQ imbalance
* joint-dac-iq    -- {Re{x}^m, Im{x}^m}, capturing per-rail converter
                     distortion and IQ imbalance through composite
                     channels on the rail powers
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.linalg import lapack_lite

from ._rng import _require_int, substream
from .impairments import (
    REF_DRIVE_RMS,
    AdcCodes,
    ImpairmentConfig,
    ReceiverDiagnostics,
    check_tx_power,
    receive,
)
from .signals import FRAME_LEN, gen_ofdm_frames


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


# The CancellerSpec fields each method takes besides ``channel_len``, which
# every method takes; a method not listed takes none. The spec rejects an
# order its method does not list, and the CLI sets and records these fields.
ORDER_FIELDS = {
    CancellerMethod.NONLINEAR: ("n_max",),
    CancellerMethod.JOINT_DAC_IQ: ("m_max",),
}


@dataclass(frozen=True)
class CancellerSpec:
    """Which cancellation model to fit, with orders and channel length."""

    method: CancellerMethod
    channel_len: int = 32
    n_max: int | None = None
    m_max: int | None = None

    def __post_init__(self):
        if not isinstance(self.method, CancellerMethod):
            raise ValueError(f"method must be a CancellerMethod, got {self.method!r}")
        _require_int(self.channel_len, "channel_len")
        for name in ("n_max", "m_max"):
            if getattr(self, name) is not None:
                _require_int(getattr(self, name), name)
                if name not in ORDER_FIELDS.get(self.method, ()):
                    raise ValueError(f"{name} is not applicable to the {self.method.value} canceller")
        if self.channel_len < 1:
            raise ValueError("channel_len must be >= 1")
        if self.method is CancellerMethod.NONLINEAR and (
            self.n_max is None or self.n_max < 1 or self.n_max % 2 == 0
        ):
            raise ValueError("nonlinear canceller requires odd n_max >= 1")
        if self.method is CancellerMethod.JOINT_DAC_IQ and (self.m_max is None or self.m_max < 1):
            raise ValueError("joint-dac-iq canceller requires m_max >= 1")

    @property
    def n_bases(self) -> int:
        """How many regressor signals :func:`build_basis` makes for this model."""
        if self.method is CancellerMethod.NONLINEAR:
            return (self.n_max + 1) // 2
        if self.method is CancellerMethod.JOINT_DAC_IQ:
            return 2 * self.m_max
        return 2 if self.method is CancellerMethod.WIDELY_LINEAR else 1

    def label(self) -> str:
        if self.method is CancellerMethod.NONLINEAR:
            return f"{self.method.value}(n_max={self.n_max},envelope)"
        if self.method is CancellerMethod.JOINT_DAC_IQ:
            return f"{self.method.value}(m_max={self.m_max})"
        return self.method.value


# The four cancellers the comparison scores, at the orders it uses.
DEFAULT_SPECS = (
    CancellerSpec(CancellerMethod.LINEAR),
    CancellerSpec(CancellerMethod.NONLINEAR, n_max=5),
    CancellerSpec(CancellerMethod.WIDELY_LINEAR),
    CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=3),
)

# How many transmit frames the comparison draws (``fdsic sweep --frames``).
DEFAULT_N_FRAMES = 100


@dataclass(frozen=True)
class BasisSignal:
    label: str
    samples: np.ndarray


@dataclass(frozen=True)
class LsFit:
    """Jointly estimated per-basis FIR channels plus diagnostics.

    ``coefficients`` holds each basis's taps back to back, in the order of
    ``labels`` (the order of :func:`build_basis`). ``rank`` is the
    regressor's numerical rank out of ``n_params`` columns; below
    ``n_params`` the coefficients are the minimum-norm solution.
    ``residual_power_dbfs`` is the power per training row outside the kept directions.
    """

    labels: tuple[str, ...]
    coefficients: np.ndarray
    training_len: int
    condition_number: float
    rank: int
    residual_power_dbfs: float

    @property
    def n_params(self) -> int:
        return self.coefficients.size


@dataclass(frozen=True)
class SuppressionReport:
    """Held-out residual power relative to the thermal noise floor.

    ``receiver`` is the receiver's summary at this report's transmit power,
    shared by every canceller at that power: clipped samples over the rows
    the sweep digitizes, the AGC scale, and the apparent floor (noise plus
    quantization error) over the held-out rows the figures are scored on.
    ``fit`` is the LS fit the figures come from: the fit of this report's
    own transmit power and canceller. It takes no part in comparing or
    hashing reports, which its coefficient array would make ambiguous.
    """

    method: str
    tx_power_dbm: float
    residual_above_noise_db: float
    residual_above_noise_std_db: float
    receiver: ReceiverDiagnostics
    fit: LsFit = field(compare=False)


def build_basis(s: np.ndarray, spec: CancellerSpec) -> list[BasisSignal]:
    """Ordered regressor signals of the transmit samples ``s`` for the model.

    joint-dac-iq's rail powers stay real (float64); every other model's
    bases are complex. :func:`_ls_factor` packs a fit whose bases are all
    real two training rows to a complex row.
    """
    if spec.method is CancellerMethod.LINEAR:
        pairs = [("x", s)]
    elif spec.method is CancellerMethod.WIDELY_LINEAR:
        pairs = [("x", s), ("conj(x)", np.conj(s))]
    elif spec.method is CancellerMethod.NONLINEAR:
        pairs = [(f"x|x|^{n - 1}", s * np.abs(s) ** (n - 1)) for n in range(1, spec.n_max + 1, 2)]
    else:
        # Each rail power is the one below it times the rail: numpy's ``**``
        # takes a slow path for a real base with negative entries.
        powers = {"re": 1.0, "im": 1.0}
        pairs = []
        for m in range(1, spec.m_max + 1):
            for name, rail in (("re", s.real), ("im", s.imag)):
                powers[name] = rail * powers[name]
                pairs.append((f"{name}(x)^{m}", powers[name]))
    return [BasisSignal(label, x) for label, x in pairs]


def _family_root(spec: CancellerSpec, specs: Sequence[CancellerSpec]) -> CancellerSpec:
    """The spec of ``specs`` whose LS factor ``spec`` is fitted from.

    Two models are the leading columns of a larger one at the same
    channel length: linear is nonlinear's leading basis (``x|x|^0`` is
    ``x``), and widely-linear spans joint-dac-iq's leading bases
    ``re(x)``, ``im(x)`` (see :func:`_ls_solve`). A spec with no such
    root in ``specs`` is its own root.
    """
    for root in specs:
        if root.channel_len == spec.channel_len and (
            (spec.method, root.method)
            in (
                (CancellerMethod.LINEAR, CancellerMethod.NONLINEAR),
                (CancellerMethod.WIDELY_LINEAR, CancellerMethod.JOINT_DAC_IQ),
            )
        ):
            return root
    return spec


# Training rows added to the triangular factor per QR step of the streamed
# LS fit. At 1024 a one-power 10-frame sweep would peak at ≈ 47 MB, not ≈ 54
# (process RSS, numpy 2.4.6), but the ill-posed 10-frame joint-dac-iq fits
# would round so differently that sweeps no longer match their single-power
# runs within 1e-9 dB. At 2048 the QR of a 9-power sweep_40db sweep took a
# median ≈ 10 % less time (0-20 % over 3 alternating runs of 3 sweeps, 2 vCPU),
# but the rank-deficient 10-frame joint-dac-iq fits of a sweep then differ
# from their single-power fits by 2e-12 relative, against 1e-12 allowed.
FIT_BLOCK_ROWS = 4096


def _fill_regressor(
    out: np.ndarray, bases: list[BasisSignal], start: int, stop: int, taps: int
) -> None:
    """Write rows ``[start, stop)`` of the stacked causal Toeplitz regressor.

    Column ``b * taps + l`` of row n is ``basis_b[n - l]``, zero before
    sample 0. ``out`` is the caller's column-major ``(stop - start) x
    len(bases) * taps`` buffer, or the real or imaginary part of one, so the
    fit reuses one buffer for every block; a basis's ``taps`` columns are
    one copy of a strided view of its window, lags reversed. The zero
    history has the basis's dtype, so real bases stay real until written.
    """
    first = start - taps + 1
    for b, basis in enumerate(bases):
        seg = np.pad(basis.samples[max(first, 0) : stop], (max(-first, 0), 0))
        out[:, b * taps : (b + 1) * taps] = sliding_window_view(seg, taps)[:, ::-1]


def _check_training_len(n: int, n_params: int) -> None:
    """Reject a fit of ``n_params`` columns on fewer than four rows per column."""
    if n < 4 * n_params:
        raise ValueError(
            f"training length {n} must be >= 4 * (bases * taps) = {4 * n_params}"
        )


class _LsFactor(NamedTuple):
    """The triangular factor of a fit's training rows ``[A | rhs]``.

    ``r`` holds the ``n_params`` rows ``[R11 | R12]`` carried out of the
    last QR step, zero below the diagonal; ``dropped`` is, per column of
    ``R12``, the energy of the rows each step left below them, which no fit
    explains. A ``packed`` factor is of real bases: two training rows
    share each complex row of ``[R11 | R12]``, and ``R12`` holds the real
    parts of the right-hand sides, then their imaginary parts.
    """

    r: np.ndarray
    dropped: np.ndarray
    training_len: int
    packed: bool


def _ls_factor(
    rhs: np.ndarray | AdcCodes, bases: list[BasisSignal], channel_len: int
) -> _LsFactor:
    """Reduce the training rows of ``[A | rhs]`` to their triangular factor.

    The rows are streamed in blocks, so no full-length regressor ``A`` is
    ever built, and ``rhs`` is read a block of rows at a time (only that
    block is decoded when ``rhs`` is :class:`~fdsic.impairments.AdcCodes`).
    One column-major buffer of ``n_params + FIT_BLOCK_ROWS``
    complex rows serves every step: :func:`_fill_regressor` writes the
    block's regressor rows below the ``n_params`` carried rows ``[R11 |
    R12]`` column by column, the right-hand sides follow, and
    :func:`_geqrf` factors the filled rows in place. The step's ``R`` is
    then in the buffer's upper triangle, so the leading ``n_params`` rows,
    with their Householder reflectors zeroed, are the next step's carried
    rows where they lie. The triangle's rows below ``n_params`` are zero in
    the regressor columns: their energy is residual that no fit explains,
    and it is added up per column.

    When every basis is real (joint-dac-iq), each step takes
    ``2 * FIT_BLOCK_ROWS`` rows: the first half of the block goes to the
    buffer's real part and the second half to its imaginary part (zero
    padded when the block is odd), and each right-hand side ``b`` becomes
    the two columns ``Re b`` and ``Im b``. For real coefficients ``g`` the
    packed rows ``C = A_1 + i A_2`` keep the residual, ``|C g - (d_1 + i
    d_2)|² = |A_1 g - d_1|² + |A_2 g - d_2|²``, so the complex fit
    ``h = g_re + i g_im`` is solved from the packed factor with half the
    rows through the QR (see :func:`_ls_solve`).
    """
    n, n_rhs = rhs.shape
    n_params = len(bases) * channel_len
    _check_training_len(n, n_params)
    for basis in bases:
        if basis.samples.size < n:
            raise ValueError(f"basis {basis.label!r} shorter than received signal")

    packed = not any(np.iscomplexobj(basis.samples) for basis in bases)
    per_row = 2 if packed else 1
    step = per_row * FIT_BLOCK_ROWS
    ncols = n_params + per_row * n_rhs
    buf = np.empty(
        (n_params + min(FIT_BLOCK_ROWS, -(-n // per_row)), ncols),
        dtype=np.complex128,
        order="F",
    )
    carried = 0
    dropped = np.zeros(per_row * n_rhs)
    for start in range(0, n, step):
        stop = min(start + step, n)
        mid = stop - (stop - start) // 2 if packed else stop
        parts = ((buf.real, start, mid), (buf.imag, mid, stop)) if packed else ((buf, start, stop),)
        rows = carried + mid - start
        for part, lo, hi in parts:
            block = part[carried:rows]
            block[hi - lo :] = 0.0
            _fill_regressor(block[: hi - lo, :n_params], bases, lo, hi, channel_len)
            received = rhs[lo:hi]
            block[: hi - lo, n_params:] = (
                np.hstack([received.real, received.imag]) if packed else received
            )
        _geqrf(buf, rows)
        buf[:n_params] = np.triu(buf[:n_params])
        carried = n_params
        dropped += np.sum(np.abs(np.triu(buf[n_params : min(rows, ncols), n_params:])) ** 2, axis=0)
    # A C-ordered copy: laid out as np.linalg.qr's R, it makes the sums and
    # products of _ls_solve round as they did, and it lets the buffer go.
    return _LsFactor(np.ascontiguousarray(buf[:n_params]), dropped, n, packed)


def _geqrf(buf: np.ndarray, rows: int) -> None:
    """Factor ``buf[:rows]`` by QR in place with LAPACK's ``zgeqrf``.

    ``buf`` is a column-major complex128 array. ``R`` is left in the upper
    triangle of the leading rows and the Householder reflectors below it.
    ``lapack_lite`` is the LAPACK that ``np.linalg.qr`` calls, so ``R`` is
    the one ``np.linalg.qr(buf[:rows], mode="r")`` returns, bit for bit,
    without its copies. ``buf.T`` is the same memory in C order, as
    ``lapack_lite`` takes it, and its leading dimension ``len(buf)`` lets a
    block shorter than the buffer be factored where it lies. It sizes its
    own workspace by LAPACK's query, so ``zgeqrf`` runs at its full block
    size. ``lapack_lite``
    checks the layout and dtype; LAPACK checks the sizes before it touches
    memory and reports a bad one in ``info``.
    """
    cols = buf.shape[1]
    tau, work = np.empty(cols, dtype=np.complex128), np.empty(1, dtype=np.complex128)
    lapack_lite.zgeqrf(len(buf), cols, buf.T, len(buf), tau, work, -1, 0)
    work = np.empty(int(work[0].real), dtype=np.complex128)
    info = lapack_lite.zgeqrf(rows, cols, buf.T, len(buf), tau, work, len(work), 0)["info"]
    if info:
        raise ValueError(f"zgeqrf argument {-info} is illegal")


def _ls_solve(factor: _LsFactor, bases: list[BasisSignal], channel_len: int) -> list[LsFit]:
    """Fit every right-hand side on the factor's leading ``q`` columns.

    ``q = len(bases) * channel_len``, and the fits carry the labels of
    ``bases``. The leading ``q x q`` block of ``R11`` is the triangular
    factor of the regressor's leading ``q`` columns, and ``R12[:q]`` is
    their share of the right-hand sides. One SVD ``R11[:q, :q] = U S Vᴴ``
    keeps the singular values above the dense problem's ``lstsq``
    threshold ``eps * max(n, q) * s_max``: their count is the rank, and
    each right-hand side ``b = R12[:q, k]`` gets the minimum-norm solution
    ``h = V_r (z / s_r)``, ``z = U_rᴴ b``. Its training residual is the part
    of ``b`` outside the kept left singular vectors, ``|b - U_r z|²``, plus
    ``|R12[q:, k]|² + dropped_k``; ``b - R11 h`` would scale rounding by
    ``|h|``, ≈ 4e5 on a rank-deficient fit. Each column is solved on its
    own, so its bits do not depend on how many columns share the factor.

    Complex ``bases`` on a ``packed`` factor are read through the rail
    map: the factor's leading columns are then joint-dac-iq's ``re(x)``,
    ``im(x)`` bases and ``bases`` are widely-linear's ``x``, ``conj(x)``,
    which span the same columns. The rail fit ``g`` maps per tap to
    ``h_x = (g_re - i g_im) / 2`` and ``h_conj(x) = (g_re + i g_im) / 2``:
    √2 times a unitary map, so the rank, condition number, residual and
    minimum norm are the widely-linear fit's own.

    A ``packed`` factor (see :func:`_ls_factor`) is unpacked first: for
    real ``g``, ``|R11 g - R12|² = |[Re R11; Im R11] g - [Re R12; Im R12]|²``,
    and ``[Re R11; Im R11]`` (``2q x q``, real) has the singular values of
    the real regressor. The halves of a right-hand side, ``Re b`` and
    ``Im b``, are joined back into one complex column, so the one real
    SVD gives ``h = g_re + i g_im`` directly, and a column's residual adds
    the energy of both halves.

    The blocked QR may round the factor's regressor columns differently
    with the number of right-hand sides (it does for some widely-linear
    blocks with OpenBLAS), so fit k equals the fit of column k alone
    within 1e-12 relative, not bit for bit. Well-posed fits give the
    dense SVD solve's coefficients within 1e-14 relative, packed or not. A
    rank-deficient fit (the joint-dac-iq fit on 10 frames) rounds its
    near-null directions differently, which moves its held-out figures by
    up to 8e-5 dB from the dense solve's and leaves its rank unchanged.
    """
    n = factor.training_len
    n_params = len(factor.r)
    q = len(bases) * channel_len
    labels = tuple(basis.label for basis in bases)
    rails = factor.packed and any(np.iscomplexobj(basis.samples) for basis in bases)
    r11, r12 = factor.r[:q, :q], factor.r[:q, n_params:]
    unexplained = np.sum(np.abs(factor.r[q:, n_params:]) ** 2, axis=0) + factor.dropped
    if factor.packed:
        n_rhs = r12.shape[1] // 2
        r11 = np.concatenate([r11.real, r11.imag])
        r12 = np.concatenate([r12.real, r12.imag])
        r12 = r12[:, :n_rhs] + 1j * r12[:, n_rhs:]
        unexplained = unexplained[:n_rhs] + unexplained[n_rhs:]
    u, singular, vh = np.linalg.svd(r11, full_matrices=False)
    rank = int(np.count_nonzero(singular > np.finfo(np.float64).eps * max(n, q) * singular[0]))
    cond = float(singular[0] / singular[-1]) if singular[-1] > 0 else float("inf")
    u, kept, v = u[:, :rank], singular[:rank], vh[:rank].conj().T
    fits = []
    for k, energy in enumerate(unexplained):
        z = u.conj().T @ r12[:, k]
        g = v @ (z / kept)
        resid_power = (float(np.sum(np.abs(r12[:, k] - u @ z) ** 2)) + energy) / n
        if rails:
            g_re, g_im = g[:channel_len], g[channel_len:]
            h = np.concatenate([(g_re - 1j * g_im) / 2, (g_re + 1j * g_im) / 2])
        else:
            h = g
        fits.append(
            LsFit(
                labels=labels,
                coefficients=h,
                training_len=n,
                condition_number=cond,
                rank=rank,
                residual_power_dbfs=(
                    10.0 * math.log10(resid_power) if resid_power > 0 else float("-inf")
                ),
            )
        )
    return fits


def _block_operator(h: np.ndarray, n_bases: int, taps: int) -> np.ndarray:
    """The ``taps`` outputs of a causal FIR block as one matrix product.

    Output ``p`` of a block reads input samples ``p - taps + 1 .. p`` of
    each basis. A row that holds, for each basis in order, the
    ``2 * taps`` input samples from ``taps - 1`` before the block's first
    output on, times the returned ``(2 * taps * n_bases) x (taps * n_rhs)``
    matrix, gives the block's outputs for every column of ``h`` in
    ``(p, k)`` order: its entry at row ``(b, m)``, column ``(p, k)`` is
    ``h[b*taps + taps-1-(m-p), k]`` when ``0 <= m - p < taps``, else 0.
    ``h`` holds ``taps`` coefficients per basis in basis order, one column
    per right-hand side.
    """
    lag = np.arange(2 * taps)[:, np.newaxis] - np.arange(taps)
    inside = (lag >= 0) & (lag < taps)
    g = h.reshape(n_bases, taps, h.shape[1])[:, np.where(inside, taps - 1 - lag, 0)]
    g[:, ~inside] = 0.0
    return g.reshape(2 * taps * n_bases, taps * h.shape[1])


# Fitting more training rows than this buys no measurable accuracy for the
# sweep scenarios but dominates runtime, so run_sweep caps the fit.
MAX_TRAIN_SAMPLES = 65536

# Share of the frames that trains the fits; the rest is held out for scoring.
TRAIN_FRACTION = 0.5


def run_sweep(
    cfg: ImpairmentConfig,
    powers: Sequence[float],
    specs: Sequence[CancellerSpec],
    n_frames: int,
    seed: int,
) -> list[SuppressionReport]:
    """Simulate, fit each canceller on the training frames, and score the rest.

    ``cfg`` is the hardware and each of ``powers`` (dBm) one amplifier
    drive. ``seed`` draws the ``n_frames`` transmit frames and every noise
    of the chain, each from its own named substream. The frames are
    generated once, scaled to the nominal DAC drive and received at every
    power in one :func:`~fdsic.impairments.receive` call, and each canceller
    family is factored once (see :func:`_fit_and_score`). The first
    ``TRAIN_FRACTION`` of frames trains the fits (at most
    ``MAX_TRAIN_SAMPLES`` rows, the only training rows digitized) and the
    remainder is held out. Residual-above-noise statistics are aggregated
    across the held-out frames (mean and one-standard-deviation spread).
    Each report carries its power's receiver summary (``receiver``), one
    object shared by every spec at that power. Reports come in (power,
    spec) order and match a one-power sweep at each power up to rounding.
    """
    if not specs:
        raise ValueError("specs must be nonempty")
    if not powers:
        raise ValueError("powers must be nonempty")
    _require_int(n_frames, "n_frames")
    if n_frames < 2:
        raise ValueError(
            f"a comparison needs at least 2 frames (one to train, one held out), "
            f"got {n_frames}"
        )
    if not math.isfinite(cfg.chan.thermal_noise_dbfs):
        raise ValueError(
            "a comparison scores residuals against the noise floor, so "
            f"chan.thermal_noise_dbfs must be finite, got {cfg.chan.thermal_noise_dbfs}"
        )
    for power in powers:
        check_tx_power(power)
    substream(seed)  # checks the seed before any frame is drawn
    n_train_frames = round(n_frames * TRAIN_FRACTION)
    split = n_train_frames * FRAME_LEN
    n_train = min(split, MAX_TRAIN_SAMPLES)
    # Every family root is one of specs, so this checks each fit's size
    # before any frame is drawn.
    for spec in specs:
        _check_training_len(n_train, spec.n_bases * spec.channel_len)

    x = gen_ofdm_frames(n_frames, seed).samples * REF_DRIVE_RMS
    train, held, diags = receive(x, cfg, powers, seed, n_train, split)
    fits, per_frame_db = _fit_and_score(
        x, train, held, specs, FRAME_LEN, cfg.chan.thermal_noise_dbfs
    )
    return [
        SuppressionReport(
            method=spec.label(),
            tx_power_dbm=power,
            residual_above_noise_db=float(np.mean(db[k])),
            residual_above_noise_std_db=float(np.std(db[k])),
            receiver=diags[k],
            fit=spec_fits[k],
        )
        for k, power in enumerate(powers)
        for spec, spec_fits, db in zip(specs, fits, per_frame_db)
    ]


def _fit_and_score(
    s: np.ndarray,
    train: np.ndarray | AdcCodes,
    held: np.ndarray | AdcCodes,
    specs: Sequence[CancellerSpec],
    frame_len: int,
    noise_dbfs: float,
) -> tuple[list[list[LsFit]], list[np.ndarray]]:
    """Fit each spec to the received columns and score the held-out frames.

    One column per power, ``train`` holds the rows received for the first
    ``len(train)`` transmit samples ``s`` and ``held`` those for the last
    ``len(held)``, whole frames of ``frame_len`` after the training rows.
    Either is a complex array or the :class:`~fdsic.impairments.AdcCodes`
    of :func:`~fdsic.impairments.receive`, of which only the rows being
    read are decoded: one fit block at a time, and each held-out frame
    once, for all specs.
    Each family root is factored once (:func:`_family_root`). Returns per
    spec its fits and a (power, frame) array of held-out residual power in
    dB above ``noise_dbfs``. A frame is scored on the bases of its own
    samples and the taps - 1 before them. Output block i (frame samples
    [i*taps, (i+1)*taps)) reads only blocks i and i + 1 of each basis's
    window, zero padded to whole blocks, so a frame's reconstruction at
    every power is one product of those block pairs (``pairs``, strided
    windows of the padded window) with the spec's :func:`_block_operator`
    viewed as the dtype of ``pairs``: real bases make one real product
    whose rows read back as complex. No kept output reads the padding.
    """
    roots = [_family_root(spec, specs) for spec in specs]
    factors = {
        root: _ls_factor(train, build_basis(s[: len(train)], root), root.channel_len)
        for root in dict.fromkeys(roots)
    }
    noise_floor = 10.0 ** (noise_dbfs / 10.0)
    offsets = range(0, len(held), frame_len)
    fits = []
    scorers = []
    for spec, root in zip(specs, roots):
        taps = spec.channel_len
        # The bases of one sample: the model's labels, count and dtype.
        probe = build_basis(s[:1], spec)
        spec_fits = _ls_solve(factors[root], probe, taps)
        h = np.stack([fit.coefficients for fit in spec_fits], axis=1)
        fits.append(spec_fits)
        scorers.append((spec, _block_operator(h, len(probe), taps)))
    per_frame_db = [np.empty((held.shape[1], len(offsets))) for _ in specs]
    for i, offset in enumerate(offsets):
        received = held[offset : offset + frame_len]
        first = len(s) - len(held) + offset
        for (spec, operator), db in zip(scorers, per_frame_db):
            taps = spec.channel_len
            window = build_basis(s[first - taps + 1 : first + frame_len], spec)
            pad = (0, -frame_len % taps + 1)
            pairs = np.hstack(
                [sliding_window_view(np.pad(b.samples, pad), 2 * taps)[::taps] for b in window]
            )
            estimate = (pairs @ operator.view(pairs.dtype)).view(np.complex128)
            estimate = estimate.reshape(len(pairs) * taps, held.shape[1])[:frame_len]
            residual = received - estimate
            power = np.mean(np.abs(residual) ** 2, axis=0)
            db[:, i] = 10.0 * np.log10(np.maximum(power, 1e-300) / noise_floor)
    return fits, per_frame_db
