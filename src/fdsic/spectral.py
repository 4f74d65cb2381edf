"""Averaged periodogram spectral analysis.

The estimator is Welch-style: Hann-windowed segments with 50% overlap,
periodograms averaged, bins centered with ``fftshift``. Normalization is
chosen so that the *sum* of linear bin powers equals the time-domain mean
power (Parseval consistency). A spectral line therefore spreads its power
over the window main lobe; :func:`measure_line_db` integrates the lobe to
read back the exact line power ("windowing loss compensated").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._rng import _require_int
from .signals import ComplexBasebandSignal

# Lowest representable bin power; keeps power_db finite for silent bins.
FLOOR_DB = -300.0

# Half-width (in bins) of the window main lobe integrated by measure_line_db.
LINE_HALFWIDTH_BINS = 3

# Half-width (in bins) of the window skirt_peak_dbc searches around a tone.
SKIRT_SEARCH_BINS = 32

# Segment length of a spectrum when none is given, and of the CLI's --n-fft.
DEFAULT_N_FFT = 4096


@dataclass(frozen=True)
class Spectrum:
    """Averaged power spectrum of a complex baseband signal.

    Attributes
    ----------
    bin_freqs : np.ndarray
        Strictly increasing bin center frequencies in Hz, symmetric
        about 0 for complex input.
    power_db : np.ndarray
        Power per bin in dBFS, normalized so the linear bin powers sum to
        the signal mean power.
    """

    bin_freqs: np.ndarray
    power_db: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.bin_freqs, dtype=np.float64)
        powers = np.asarray(self.power_db, dtype=np.float64)
        if freqs.shape != powers.shape or freqs.ndim != 1:
            raise ValueError("bin_freqs and power_db must be matching 1-D arrays")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("bin_freqs must be strictly increasing")
        if not np.all(np.isfinite(powers)):
            raise ValueError("power_db must be finite for all bins")
        object.__setattr__(self, "bin_freqs", freqs)
        object.__setattr__(self, "power_db", powers)

    @property
    def bin_spacing(self) -> float:
        return float(self.bin_freqs[1] - self.bin_freqs[0])

    def power_linear(self) -> np.ndarray:
        return 10.0 ** (self.power_db / 10.0)

    def nearest_bin(self, freq: float) -> int:
        return int(np.argmin(np.abs(self.bin_freqs - freq)))


def spectrum(
    signal: ComplexBasebandSignal,
    n_fft: int = DEFAULT_N_FFT,
    averaging: int | None = None,
) -> Spectrum:
    """Welch-averaged power spectrum of periodic Hann segments, 50% overlapped.

    ``averaging`` selects the number of segments (default: as many as the
    signal allows). Normalization is Parseval-consistent: the linear bin
    powers sum to the signal mean power to within the window bias.
    """
    _require_int(n_fft, "n_fft")
    n = len(signal)
    if n_fft > n:
        raise ValueError(f"n_fft {n_fft} exceeds signal length {n}")
    if n_fft < 2:
        raise ValueError("n_fft must be >= 2")
    hop = n_fft // 2
    max_segments = 1 + (n - n_fft) // hop
    if averaging is None:
        averaging = max_segments
    _require_int(averaging, "averaging")
    if not (1 <= averaging <= max_segments):
        raise ValueError(
            f"averaging must be in [1, {max_segments}] for length {n}, got {averaging}"
        )

    # Periodic (DFT-even) Hann window.
    win = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n_fft + 1)))[:-1]
    win_power = float(np.sum(win**2))
    acc = np.zeros(n_fft, dtype=np.float64)
    for k in range(averaging):
        seg = signal.samples[k * hop : k * hop + n_fft]
        spec = np.fft.fft(seg * win)
        acc += np.abs(spec) ** 2
    # Per-bin power such that sum over bins == mean |x|^2 (per segment).
    pxx = acc / (averaging * n_fft * win_power)
    pxx = np.fft.fftshift(pxx)
    freqs = np.fft.fftshift(np.fft.fftfreq(n_fft, d=1.0 / signal.sample_rate))

    power_db = 10.0 * np.log10(np.maximum(pxx, 10.0 ** (FLOOR_DB / 10.0)))
    return Spectrum(freqs, power_db)


def measure_line_db(spec: Spectrum, freq: float) -> float:
    """Power of the spectral line nearest ``freq``, in dBFS.

    Sums the linear power over the window main lobe
    (+-``LINE_HALFWIDTH_BINS`` bins), which for a coherently placed tone
    recovers the exact tone power under the Parseval normalization.
    """
    k = spec.nearest_bin(freq)
    lo = max(0, k - LINE_HALFWIDTH_BINS)
    hi = min(len(spec.power_db), k + LINE_HALFWIDTH_BINS + 1)
    p = float(np.sum(spec.power_linear()[lo:hi]))
    return 10.0 * math.log10(max(p, 10.0 ** (FLOOR_DB / 10.0)))


def skirt_peak_dbc(spec: Spectrum, tone_freq: float) -> float:
    """Strongest bin near a tone, excluding the tone's own main lobe.

    Returns the peak bin power within +-``SKIRT_SEARCH_BINS`` of the tone,
    outside its +-``LINE_HALFWIDTH_BINS`` main lobe, relative to the tone
    line power (dBc). This is the quantity used to quantify an oscillator
    phase-noise skirt around a carrier.
    """
    k = spec.nearest_bin(tone_freq)
    lo = max(0, k - SKIRT_SEARCH_BINS)
    hi = min(len(spec.power_db), k + SKIRT_SEARCH_BINS + 1)
    mask = np.ones(hi - lo, dtype=bool)
    ex_lo = max(lo, k - LINE_HALFWIDTH_BINS) - lo
    ex_hi = min(hi, k + LINE_HALFWIDTH_BINS + 1) - lo
    mask[ex_lo:ex_hi] = False
    if not np.any(mask):
        raise ValueError("search window contains no bins outside the line lobe")
    peak = float(np.max(spec.power_db[lo:hi][mask]))
    return peak - measure_line_db(spec, tone_freq)


def floor_estimate_db(spec: Spectrum) -> float:
    """Robust per-bin noise floor estimate (median bin power)."""
    return float(np.median(spec.power_db))


def write_spectrum_csv(spec: Spectrum, path) -> Path:
    """Export a spectrum as CSV with columns freq_hz, power_db.

    Rows end in ``\\r\\n`` and values carry six decimals, as
    :class:`csv.writer` writes them; the file is formatted in one pass and
    written at once.
    """
    path = Path(path)
    values = np.column_stack([spec.bin_freqs, spec.power_db]).ravel().tolist()
    rows = ("%.6f,%.6f\r\n" * spec.bin_freqs.size) % tuple(values)
    path.write_bytes(("freq_hz,power_db\r\n" + rows).encode("ascii"))
    return path
