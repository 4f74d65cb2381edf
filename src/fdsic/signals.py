"""Complex baseband signal generation and manipulation.

The generators make their signals at the simulator's one rate,
``SAMPLE_RATE``. :class:`ComplexBasebandSignal` is a uniformly sampled
complex sequence with its sample rate, the type of a signal that enters
or leaves the program (an IQ capture carries its own rate). The
generators and :func:`read_iq` build one, and its constructor checks the
samples and the rate; :func:`write_iq`, :func:`power_db` and the
spectrum read one. Stages that compute on samples, such as
:func:`fir_convolve`, take and return plain arrays. Amplitudes are
dimensionless with full scale at 1.0; powers are reported in dBFS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._rng import _require_int, substream

# The simulator's one rate: 8x oversampling of the 10 MHz band keeps 3rd
# and 5th order products of in-band content alias-free.
SAMPLE_RATE = 80e6
OFDM_BANDWIDTH = 10e6

# Transmit frame format: frames of FRAME_LEN samples, each N_TONES QPSK tones at
# unit average power spread uniformly over OFDM_BANDWIDTH, zero-padded to SAMPLE_RATE.
N_TONES = 512
FRAME_LEN = N_TONES * round(SAMPLE_RATE / OFDM_BANDWIDTH)
_QPSK = np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j]) / math.sqrt(2.0)


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


def gen_tone(freq: float, amplitude: float, n_samples: int) -> ComplexBasebandSignal:
    """Complex exponential amplitude * exp(j*2*pi*freq*n/SAMPLE_RATE).

    ``freq`` must lie strictly inside the Nyquist range of ``SAMPLE_RATE``
    and ``amplitude`` in (0, 1].
    """
    if not (abs(freq) < SAMPLE_RATE / 2):
        raise ValueError(
            f"tone frequency {freq} Hz outside Nyquist range +-{SAMPLE_RATE / 2} Hz"
        )
    if not (0 < amplitude <= 1.0):
        raise ValueError(f"amplitude must be in (0, 1], got {amplitude}")
    _require_int(n_samples, "n_samples")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    phase = 2.0 * np.pi * freq * np.arange(n_samples) * (1.0 / SAMPLE_RATE)
    return ComplexBasebandSignal(amplitude * (np.cos(phase) + 1j * np.sin(phase)), SAMPLE_RATE)


def gen_ofdm_frames(n_frames: int, seed: int) -> ComplexBasebandSignal:
    """``n_frames`` concatenated OFDM frames at ``SAMPLE_RATE``, unit average power.

    Each frame is one ``FRAME_LEN``-sample IFFT block: ``N_TONES`` QPSK
    symbols on the centered tone grid that spans ``OFDM_BANDWIDTH``,
    zero-padded to the sample rate, so every frame is exactly
    band-limited. Frames are joined with no cyclic prefix. The symbols
    are drawn from the ``"ofdm-frames"`` substream of ``seed``, so the
    frames are fixed by the count and the seed.
    """
    _require_int(n_frames, "n_frames")
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    rng = substream(seed, "ofdm-frames")
    bins = np.arange(-(N_TONES // 2), N_TONES // 2) % FRAME_LEN
    # One allocation up front: a count too large for memory fails at once.
    samples = np.empty(n_frames * FRAME_LEN, dtype=np.complex128)
    grid = np.zeros(FRAME_LEN, dtype=np.complex128)
    for frame in samples.reshape(n_frames, FRAME_LEN):
        grid[bins] = _QPSK[rng.integers(0, _QPSK.size, N_TONES)]
        frame[:] = np.fft.ifft(grid) * FRAME_LEN / np.sqrt(N_TONES)
    samples /= np.sqrt(np.mean(np.abs(samples) ** 2))
    return ComplexBasebandSignal(samples, SAMPLE_RATE)


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


# --- binary IQ file interface -------------------------------------------
#
# Format: little-endian float64 pairs (I, Q) interleaved, plus a sidecar
# text header "<path>.hdr" carrying the format, sample rate and length.

_HDR_SUFFIX = ".hdr"
_IQ_FORMAT = "iq-float64-le-interleaved"


def write_iq(signal: ComplexBasebandSignal, path) -> Path:
    """Write samples as interleaved little-endian float64 I/Q plus header.

    A little-endian complex128 buffer already holds that layout, so the
    samples are written from their own buffer.
    """
    path = Path(path)
    path.write_bytes(signal.samples.astype("<c16", copy=False))
    header = (
        f"format={_IQ_FORMAT}\n"
        f"sample_rate_hz={signal.sample_rate!r}\n"
        f"length={len(signal)}\n"
    )
    Path(str(path) + _HDR_SUFFIX).write_text(header)
    return path


def read_iq(path) -> ComplexBasebandSignal:
    """Read a signal written by :func:`write_iq`.

    The sidecar must name the format :func:`write_iq` writes; a header
    with no ``format`` key, or any other format, is a ``ValueError``.
    """
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
    if "format" not in fields:
        raise ValueError(f"header {header_path} is missing key 'format'")
    if fields["format"] != _IQ_FORMAT:
        raise ValueError(
            f"header {header_path} field 'format' must be {_IQ_FORMAT!r}, "
            f"got {fields['format']!r}"
        )
    length = number("length", int)
    size = path.stat().st_size
    if size != 16 * length:
        raise ValueError(f"IQ payload holds {size // 16} samples but header says {length}")
    return ComplexBasebandSignal(np.fromfile(path, dtype="<c16"), sample_rate)
