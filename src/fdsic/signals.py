"""Complex baseband signal generation and manipulation.

:class:`ComplexBasebandSignal` is a uniformly sampled complex sequence
with its sample rate: the type of a signal that enters or leaves the
program. The generators and :func:`read_iq` build one, and its
constructor checks the samples and the rate; :func:`write_iq`,
:func:`power_db`, :func:`papr_db` and the spectrum read one. Stages that
compute on samples, such as :func:`fir_convolve`, take and return plain
arrays. Amplitudes are dimensionless with full scale at 1.0; powers are
reported in dBFS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._rng import substream


@dataclass(frozen=True)
class ComplexBasebandSignal:
    """Uniformly sampled complex baseband sequence.

    Attributes
    ----------
    samples : np.ndarray
        Complex sample values, dimensionless, full scale = 1.0.
    sample_rate : float
        Sampling rate in Hz.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128, order="C")
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a nonempty 1-D sequence")
        if not (0 < self.sample_rate < math.inf):
            raise ValueError(
                f"sample_rate must be finite and positive, got {self.sample_rate}"
            )
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise ValueError("samples contain non-finite values")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    def with_samples(self, samples: np.ndarray) -> "ComplexBasebandSignal":
        """New signal with the same sample rate and different samples."""
        return ComplexBasebandSignal(samples, self.sample_rate)


@dataclass(frozen=True)
class OfdmFrameSpec:
    """Parameters of the multi-tone (OFDM-like) frame generator.

    ``n_tones`` QAM-modulated tones are spread uniformly over
    ``bandwidth``; the output is oversampled by zero-padding the tone
    grid up to the simulation sample rate.
    """

    n_tones: int = 512
    bandwidth: float = 10e6
    constellation_order: int = 4
    n_frames: int = 100
    cp_length: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n_tones < 1 or (self.n_tones & (self.n_tones - 1)) != 0:
            raise ValueError(f"n_tones must be a power of two, got {self.n_tones}")
        if self.constellation_order not in (4, 16, 64):
            raise ValueError(
                f"constellation_order must be one of 4, 16, 64, got {self.constellation_order}"
            )
        if self.cp_length < 0:
            raise ValueError("cp_length must be >= 0")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if not (self.bandwidth > 0):
            raise ValueError("bandwidth must be positive")


def gen_tone(
    freq: float, amplitude: float, n_samples: int, sample_rate: float
) -> ComplexBasebandSignal:
    """Complex exponential amplitude * exp(j*2*pi*freq*n/sample_rate).

    ``freq`` must lie strictly inside the Nyquist range and ``amplitude``
    in (0, 1].
    """
    if not (abs(freq) < sample_rate / 2):
        raise ValueError(
            f"tone frequency {freq} Hz outside Nyquist range +-{sample_rate / 2} Hz"
        )
    if not (0 < amplitude <= 1.0):
        raise ValueError(f"amplitude must be in (0, 1], got {amplitude}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = np.arange(n_samples)
    samples = amplitude * np.exp(2j * np.pi * freq * n / sample_rate)
    return ComplexBasebandSignal(samples, sample_rate)


def _qam_constellation(order: int) -> np.ndarray:
    """Square QAM constellation normalized to unit average power."""
    side = int(round(math.sqrt(order)))
    levels = np.arange(side) * 2.0 - (side - 1)
    points = (levels[:, None] + 1j * levels[None, :]).ravel()
    return points / np.sqrt(np.mean(np.abs(points) ** 2))


def gen_ofdm_frames(spec: OfdmFrameSpec, sample_rate: float) -> ComplexBasebandSignal:
    """Concatenated QAM-on-tone-grid frames, unit average power.

    The tone grid occupies +-bandwidth/2; oversampling is obtained by
    zero-padding the grid ('sample_rate' must be an integer multiple of
    'bandwidth'). Deterministic for a given spec (including its seed).
    """
    if spec.bandwidth > sample_rate:
        raise ValueError(
            f"bandwidth {spec.bandwidth} Hz exceeds sample rate {sample_rate} Hz"
        )
    oversampling = sample_rate / spec.bandwidth
    if abs(oversampling - round(oversampling)) > 1e-9:
        raise ValueError(
            "sample_rate must be an integer multiple of bandwidth "
            f"(got ratio {oversampling})"
        )
    oversampling = int(round(oversampling))
    n_fft = spec.n_tones * oversampling
    constellation = _qam_constellation(spec.constellation_order)
    rng = substream(spec.seed, "ofdm-frames")

    # Centered tone indices; for a single tone this degenerates to DC.
    tone_idx = np.arange(-(spec.n_tones // 2), (spec.n_tones + 1) // 2)
    bins = tone_idx % n_fft

    frames = []
    for _ in range(spec.n_frames):
        symbols = constellation[rng.integers(0, len(constellation), spec.n_tones)]
        grid = np.zeros(n_fft, dtype=np.complex128)
        grid[bins] = symbols
        body = np.fft.ifft(grid) * n_fft / np.sqrt(spec.n_tones)
        if spec.cp_length:
            body = np.concatenate([body[-spec.cp_length:], body])
        frames.append(body)
    samples = np.concatenate(frames)
    samples /= np.sqrt(np.mean(np.abs(samples) ** 2))
    return ComplexBasebandSignal(samples, sample_rate)


def fir_convolve(x: np.ndarray, taps) -> np.ndarray:
    """Linear convolution of the samples ``x``, trimmed to their length.

    Returns a new array and leaves ``x`` unchanged. Alignment: output
    sample 0 corresponds to input sample 0 filtered by taps[0] (i.e. the
    filter is causal and the leading transient is kept).
    """
    taps = np.atleast_1d(np.asarray(taps, dtype=np.complex128))
    if taps.size < 1 or taps.ndim != 1:
        raise ValueError("taps must be a nonempty 1-D sequence")
    # Shift and add, one vector pass per tap: the filters here are short,
    # and np.convolve makes one dot-product call per output sample. Every
    # tap's product goes through one scratch buffer.
    out = x * taps[0]
    if taps.size > 1:
        scratch = np.empty_like(out)
    for k in range(1, taps.size):
        product = np.multiply(x[:-k], taps[k], out=scratch[k:])
        out[k:] += product
    return out


def power_db(signal: ComplexBasebandSignal) -> float:
    """Mean power 10*log10(mean |x|^2) in dBFS; -inf for an all-zero signal."""
    p = float(np.mean(np.abs(signal.samples) ** 2))
    if p == 0.0:
        return float("-inf")
    return 10.0 * math.log10(p)


def papr_db(signal: ComplexBasebandSignal) -> float:
    """Peak-to-average power ratio 10*log10(max|x|^2 / mean|x|^2) in dB."""
    p = float(np.mean(np.abs(signal.samples) ** 2))
    if p == 0.0:
        return float("-inf")
    peak = float(np.max(np.abs(signal.samples) ** 2))
    return 10.0 * math.log10(peak / p)


# --- binary IQ file interface -------------------------------------------
#
# Format: little-endian float64 pairs (I, Q) interleaved, plus a sidecar
# text header "<path>.hdr" carrying the sample rate and length.

_HDR_SUFFIX = ".hdr"


def write_iq(signal: ComplexBasebandSignal, path) -> Path:
    """Write samples as interleaved little-endian float64 I/Q plus header.

    A little-endian complex128 buffer already holds that layout, so the
    samples are written from their own buffer.
    """
    path = Path(path)
    path.write_bytes(signal.samples.astype("<c16", copy=False))
    header = (
        "format=iq-float64-le-interleaved\n"
        f"sample_rate_hz={signal.sample_rate!r}\n"
        f"length={len(signal)}\n"
    )
    Path(str(path) + _HDR_SUFFIX).write_text(header)
    return path


def read_iq(path) -> ComplexBasebandSignal:
    """Read a signal written by :func:`write_iq`."""
    path = Path(path)
    header_path = Path(str(path) + _HDR_SUFFIX)
    if not header_path.exists():
        raise FileNotFoundError(f"missing sidecar header {header_path}")
    fields = {}
    for line in header_path.read_text().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            fields[key.strip()] = value.strip()

    def number(key, kind):
        if key not in fields:
            raise ValueError(f"header {header_path} is missing key {key!r}")
        try:
            return kind(fields[key])
        except ValueError:
            raise ValueError(
                f"header {header_path} field {key!r} is not numeric: {fields[key]!r}"
            ) from None

    sample_rate = number("sample_rate_hz", float)
    if not (0 < sample_rate < math.inf):
        raise ValueError(
            f"header {header_path} field 'sample_rate_hz' must be finite and positive, "
            f"got {fields['sample_rate_hz']!r}"
        )
    length = number("length", int)
    raw = np.frombuffer(path.read_bytes(), dtype="<f8")
    if raw.size != 2 * length:
        raise ValueError(
            f"IQ payload holds {raw.size // 2} samples but header says {length}"
        )
    return ComplexBasebandSignal(raw[0::2] + 1j * raw[1::2], sample_rate)
