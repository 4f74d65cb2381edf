"""Independent reference implementations shared by the test suite.

These deliberately avoid the library's own code paths: brute-force
numerics stand in for closed forms, dense normal equations stand in for
the orthogonal-factorization solver, and a per-basis convolution
stands in for the blocked scoring of the held-out frames.
"""

import math

import numpy as np


def passband_harmonic_oracle(m: int):
    """Brute-force rail-polynomial harmonic locations.

    Numerically raise the sampled rails of a tone to the m-th power, mix
    onto a carrier, downconvert, low-pass, FFT, and read off which tone
    multiples carry energy.

    Returns a list of (multiple_of_tone, power_db) pairs.
    """
    n = 1 << 16
    fs = float(n)  # 1 Hz bins
    f0 = 32.0
    fc = 8192.0
    t = np.arange(n) / fs
    rail_i = np.cos(2 * np.pi * f0 * t) ** m
    rail_q = np.sin(2 * np.pi * f0 * t) ** m
    passband = rail_i * np.cos(2 * np.pi * fc * t) - rail_q * np.sin(2 * np.pi * fc * t)
    analytic = passband * np.exp(-2j * np.pi * fc * t) * 2.0
    spec = np.fft.fft(analytic) / n
    freqs = np.fft.fftfreq(n, 1 / fs)
    keep = np.abs(freqs) < fc / 2
    spec, freqs = spec[keep], freqs[keep]
    power = np.abs(spec) ** 2
    lines = []
    for k in range(-m, m + 1):
        if k == 0:
            continue
        idx = np.argmin(np.abs(freqs - k * f0))
        if power[idx] > 1e-12:
            lines.append((k, 10 * math.log10(power[idx])))
    return lines


def dense_regressor(bases, n: int, taps: int) -> np.ndarray:
    """Full n-row causal Toeplitz regressor, one block of taps columns per basis."""
    cols = []
    for basis in bases:
        padded = np.concatenate([np.zeros(taps - 1, dtype=complex), basis.samples[:n]])
        shifted = np.lib.stride_tricks.sliding_window_view(padded, taps)[:, ::-1]
        cols.append(shifted)
    return np.hstack(cols)


def normal_equations_fit(r_samples: np.ndarray, bases, taps: int) -> np.ndarray:
    """Dense normal-equations least squares h = (A^H A)^-1 A^H r."""
    a = dense_regressor(bases, len(r_samples), taps)
    gram = a.conj().T @ a
    rhs = a.conj().T @ r_samples
    return np.linalg.solve(gram, rhs)


def cancel(r, bases, fit):
    """``r`` minus every basis convolved with its slice of ``fit.coefficients``.

    The taps are positional, so the bases must carry the fit's labels in
    the fit's order.
    """
    labels = tuple(basis.label for basis in bases)
    if labels != fit.labels:
        raise ValueError(f"basis set {labels} does not match fitted labels {fit.labels}")
    n = len(r)
    if any(basis.samples.size < n for basis in bases):
        raise ValueError("basis signals shorter than received signal")
    taps = fit.n_params // len(bases)
    estimate = np.zeros(n, dtype=np.complex128)
    for i, basis in enumerate(bases):
        h = fit.coefficients[i * taps : (i + 1) * taps]
        estimate += np.convolve(basis.samples[:n], h)[:n]
    return r - estimate
