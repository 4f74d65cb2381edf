"""Independent reference implementations shared by the test suite.

These deliberately avoid the library's own code paths: brute-force
numerics stand in for closed forms, dense normal equations stand in for
the orthogonal-factorization solver, a per-basis convolution stands
in for the blocked scoring of the held-out frames, and plain
out-of-place formulas and :class:`csv.writer` stand in for the impairment
stages that work on scratch buffers and for the one-pass file writers.
The two exceptions run the library's own code on one signal:
:func:`ls_estimate` factors and solves one received signal, and with
:func:`cancel` it is the one-signal reference the sweep's fits are
compared with; :func:`receive_every_row` receives one power over every
row, the reference the sweep's digitized rows are compared with. The last
section builds the inputs many tests start from.
"""

import csv
import math

import numpy as np

from fdsic.cancellers import _ls_factor, _ls_solve
from fdsic.impairments import (
    MAX_TX_POWER_DBM,
    REF_DRIVE_RMS,
    DacNonlinearity,
    ImpairmentConfig,
    IqImbalance,
    PaNonlinearity,
    PhaseNoiseSpec,
    receive,
)
from fdsic.signals import gen_ofdm_frames


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


def ls_estimate(r: np.ndarray, bases, channel_len: int):
    """The :class:`~fdsic.cancellers.LsFit` of one FIR channel per basis to ``r``.

    The library's fit of one received signal: the training rows are
    reduced block by block to their triangular factor
    (:func:`~fdsic.cancellers._ls_factor`), which an SVD then solves
    (:func:`~fdsic.cancellers._ls_solve`). A rank-deficient regressor gets
    the minimum-norm solution, and the fit's ``rank`` is then below its
    ``n_params``. With :func:`cancel` it fits and cancels one signal, the
    minimum-norm reference the sweep's fits are checked against.
    """
    return _ls_solve(_ls_factor(r[:, np.newaxis], bases, channel_len), bases, channel_len)[0]


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


# --- file writers and impairment stages: the bits the library must keep ---


def spectrum_csv_oracle(spec, path) -> None:
    """Spectrum CSV written row by row with :class:`csv.writer`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "power_db"])
        for f, p in zip(spec.bin_freqs, spec.power_db):
            writer.writerow([f"{f:.6f}", f"{p:.6f}"])


def iq_bytes_oracle(samples: np.ndarray) -> bytes:
    """Samples as explicitly interleaved little-endian float64 (I, Q) pairs."""
    interleaved = np.empty(2 * samples.size, dtype="<f8")
    interleaved[0::2] = samples.real
    interleaved[1::2] = samples.imag
    return interleaved.tobytes()


def fir_convolve_oracle(x: np.ndarray, taps) -> np.ndarray:
    """Shift-and-add FIR with a fresh product array per tap."""
    taps = np.atleast_1d(np.asarray(taps, dtype=np.complex128))
    out = x * taps[0]
    for k in range(1, taps.size):
        out[k:] += x[:-k] * taps[k]
    return out


def apply_iq_oracle(x: np.ndarray, iq) -> np.ndarray:
    return fir_convolve_oracle(x, iq.gamma) + fir_convolve_oracle(np.conj(x), iq.delta)


def apply_dac_oracle(x: np.ndarray, dac) -> np.ndarray:
    def rail(values, coeffs):
        acc = np.zeros_like(values)
        for a in coeffs[::-1]:
            acc = acc * values + a
        return acc * values

    return rail(x.real, dac.coeffs_i) + 1j * rail(x.imag, dac.coeffs_q)


def apply_pa_oracle(x: np.ndarray, pa) -> np.ndarray:
    env2 = np.abs(x) ** 2
    gain = np.zeros_like(env2)
    for bp in pa.baseband_coeffs()[::-1]:
        gain = gain * env2 + bp
    return gain * x


def channel_and_receiver_oracle(x: np.ndarray, chan, rx_iq, noise, headroom_db: float):
    """(digitized, quant_error, clip mask, agc_scale) of the receiver.

    The clip mask is True for each sample with a clipped rail, so a count
    over any rows is ``np.count_nonzero(mask[rows])``.
    """
    attenuated = x * 10.0 ** (-chan.analog_suppression_db / 20.0)
    through = fir_convolve_oracle(attenuated, chan.h_si)
    analog = apply_iq_oracle(through, rx_iq) + noise
    rms = math.sqrt(float(np.mean(np.abs(analog) ** 2)))
    scale = 1.0 if rms == 0.0 else 1.0 / (rms * 10.0 ** (headroom_db / 20.0))
    _, digitized, clipped = converter_oracle(analog, scale, chan)
    return digitized, digitized - analog, clipped, scale


def converter_oracle(analog: np.ndarray, scale: float, chan):
    """(codes of each rail, digitized samples, clip mask) of the converter
    at the gain ``scale``, all in float64.

    The clip mask is True for each sample with a clipped rail.
    """
    step = 2.0 / 2**chan.adc_bits
    top = 2 ** (chan.adc_bits - 1) - 1
    rails = []
    clipped = np.zeros(len(analog), dtype=bool)
    for rail in (analog.real, analog.imag):
        idx = np.floor(rail * scale / step)
        clipped |= (idx > top) | (idx < -top - 1)
        rails.append(np.clip(idx, -top - 1, top))
    digitized = np.empty(len(analog), dtype=np.complex128)
    digitized.real = (rails[0] + 0.5) * step / scale
    digitized.imag = (rails[1] + 0.5) * step / scale
    return rails, digitized, clipped


def antenna_oracle(front: np.ndarray, pa, power: float) -> np.ndarray:
    """The antenna-referred samples at ``power`` dBm of the front end's
    output ``front``, from frames at ``REF_DRIVE_RMS``: the amplifier at the
    drive :func:`_pa_drive`, then the gain that brings its unit-RMS output
    to full power."""
    drive = _pa_drive(power, REF_DRIVE_RMS)
    return apply_pa_oracle(front * drive, pa) * 10.0 ** (MAX_TX_POWER_DBM / 20.0)


def receive_every_row(x: np.ndarray, cfg, power: float, seed: int):
    """:func:`~fdsic.impairments.receive` at ``power`` and ``seed`` over every
    row of the transmit samples ``x``: the decoded samples and the receiver
    summary."""
    _, received, (diag,) = receive(x, cfg, [power], seed, 0, 0)
    return received[:, 0], diag


# --- closed-form models: the channels a fit must recover ---


def _add_taps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum of two FIR tap sequences, the shorter zero padded."""
    out = np.zeros(max(a.size, b.size), dtype=np.complex128)
    out[: a.size] += a
    out[: b.size] += b
    return out


def _si_gain(cfg, power: float, drive_rms: float) -> float:
    """The flat gain from frames at ``drive_rms`` to the antenna-referred SI.

    ``drive * 10^(22/20) * 10^(-suppression/20) = 10^((P - suppression)/20)
    / drive_rms`` at the transmit power ``P = power`` (dBm).
    """
    return 10.0 ** ((power - cfg.chan.analog_suppression_db) / 20.0) / drive_rms


def _pa_drive(power: float, drive_rms: float) -> float:
    """The amplifier input's scale ``d`` for frames at ``drive_rms``.

    ``d = 10^((P - 22)/20) / drive_rms``: at 22 dBm frames at ``drive_rms``
    reach the amplifier at unit RMS.
    """
    return 10.0 ** ((power - 22.0) / 20.0) / drive_rms


def _fit_taps(h: np.ndarray, taps: int) -> np.ndarray:
    """``h`` zero padded to a fit's ``taps``, which must hold it."""
    if h.size > taps:
        raise ValueError(f"composite channel has {h.size} taps, the fit {taps}")
    return np.pad(h, (0, taps - h.size))


def joint_dac_iq_channels(cfg, power: float, taps: int, drive_rms: float) -> np.ndarray:
    """Closed-form composite channels of joint-dac-iq's bases, ``taps`` each.

    Exact with the amplifier at identity and no phase noise, where the
    received signal is linear in the rail powers ``re(x)^m``, ``im(x)^m``
    of the DAC input ``x`` (frames at ``drive_rms``, sent at ``power``
    dBm). With the antenna gain ``c`` (:func:`_si_gain`), the TX mixer maps DAC order m's rails
    to ``t_re = a_i,m (gamma_T + delta_T)`` and ``t_im = j a_q,m (gamma_T -
    delta_T)``; with ``w = c h_si * t`` the basis's channel is ``gamma_R *
    w + delta_R * conj(w)``, zero padded to ``taps``. The channels come
    back to back in the basis order of the fit (re, im per order).
    """
    c = _si_gain(cfg, power, drive_rms)
    plus = _add_taps(cfg.tx_iq.gamma, cfg.tx_iq.delta)
    minus = _add_taps(cfg.tx_iq.gamma, -cfg.tx_iq.delta)
    channels = []
    for a_i, a_q in zip(cfg.dac.coeffs_i, cfg.dac.coeffs_q):
        for t in (a_i * plus, 1j * a_q * minus):
            w = c * np.convolve(cfg.chan.h_si, t)
            h = _add_taps(np.convolve(cfg.rx_iq.gamma, w), np.convolve(cfg.rx_iq.delta, np.conj(w)))
            channels.append(_fit_taps(h, taps))
    return np.concatenate(channels)


def widely_linear_channels(cfg, power: float, taps: int, drive_rms: float) -> np.ndarray:
    """Closed-form channels of widely-linear's bases ``x``, ``conj(x)``, ``taps`` each.

    Exact with the DAC and the amplifier at identity and no phase noise,
    where the received signal is widely linear in the DAC input ``x``
    (frames at ``drive_rms``, sent at ``power`` dBm). With the antenna gain
    ``c`` (:func:`_si_gain`), the TX mixer and the SI channel give ``x`` the
    channel ``w_x = c h_si * gamma_T`` and ``conj(x)`` the channel ``w_c =
    c h_si * delta_T``. The RX mixer's image term conjugates both, so the
    channel of ``x`` is ``gamma_R * w_x + delta_R * conj(w_c)`` and that of
    ``conj(x)`` is ``gamma_R * w_c + delta_R * conj(w_x)``, each zero
    padded to ``taps`` and back to back in the basis order of the fit.
    """
    c = _si_gain(cfg, power, drive_rms)
    w_x = c * np.convolve(cfg.chan.h_si, cfg.tx_iq.gamma)
    w_c = c * np.convolve(cfg.chan.h_si, cfg.tx_iq.delta)
    return np.concatenate([
        _fit_taps(
            _add_taps(np.convolve(cfg.rx_iq.gamma, w), np.convolve(cfg.rx_iq.delta, np.conj(image))),
            taps,
        )
        for w, image in ((w_x, w_c), (w_c, w_x))
    ])


def nonlinear_channels(cfg, power: float, taps: int, drive_rms: float) -> np.ndarray:
    """Closed-form channels of nonlinear's envelope bases ``x|x|^(n-1)``, ``taps`` each.

    Exact with the DAC and both IQ stages at identity and no phase noise,
    where the received signal is the amplifier's envelope polynomial of the
    DAC input ``x`` (frames at ``drive_rms``, sent at ``power`` dBm) through
    the SI channel. The amplifier input is ``d x`` (:func:`_pa_drive`) and
    the antenna gain ``c`` (:func:`_si_gain`) holds one ``d``, so order n's
    basis has the channel ``beta'_n d^(n-1) c h_si``, with ``beta'_n`` from
    ``cfg.pa.baseband_coeffs()``, zero padded to ``taps``. The channels
    come back to back for each odd order n of the amplifier, so the fit's
    ``n_max`` is the amplifier's order; with the amplifier at identity
    they are linear's one channel ``c h_si``.
    """
    c, d = _si_gain(cfg, power, drive_rms), _pa_drive(power, drive_rms)
    return np.concatenate([
        _fit_taps(beta * d ** (2 * i) * c * cfg.chan.h_si, taps)
        for i, beta in enumerate(cfg.pa.baseband_coeffs())
    ])


# --- test inputs ---


def identity_config(chan, rx_iq=IqImbalance.identity()) -> ImpairmentConfig:
    """Every stage at identity and no phase noise, but the receiver: the
    channel and converter ``chan`` and the receive IQ stage ``rx_iq``."""
    return ImpairmentConfig(
        DacNonlinearity.identity(), IqImbalance.identity(), rx_iq, PhaseNoiseSpec(),
        PaNonlinearity.identity(), chan,
    )


def transmit_samples(n_frames: int, seed: int) -> np.ndarray:
    """The ``n_frames`` OFDM frames of ``seed`` at the nominal DAC drive
    ``REF_DRIVE_RMS``, as a sweep of that seed sends them."""
    return gen_ofdm_frames(n_frames, seed).samples * REF_DRIVE_RMS


def random_signal(n: int, seed: int) -> np.ndarray:
    """``n`` samples of unit-power complex Gaussian noise."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
