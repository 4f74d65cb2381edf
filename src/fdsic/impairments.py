"""Transmitter/receiver hardware impairment chain.

Applies per-rail DAC polynomial distortion, widely-linear mixer IQ
imbalance, Wiener oscillator phase noise, odd-order baseband-equivalent
amplifier distortion, the self-interference channel with flat analog
suppression, thermal noise, and a gain-ranged quantizing receiver.

Stage order is fixed: DAC -> TX IQ -> phase noise -> PA -> channel ->
RX IQ -> noise -> ADC. The transmit power enters only at the PA drive, so
the chain splits there into ``transmit_front_end`` and ``receive``. All
randomness derives from an explicit seed via named substreams. The
receiver's thermal noise does not depend on the transmit power either:
``thermal_noise`` draws it, and ``receive`` takes the drawn array. So a
power sweep runs the front end and draws the noise once, then calls
``receive`` once with its configuration and the list of its powers.

The stages take and return plain sample arrays. Each returns a new array
and never modifies its inputs; it works in place only on arrays it made.
``receive`` is the one place the per-power part of the chain runs, for
``simulate_received`` and for the power sweep alike. Per power, the
amplifier to the ADC input streams in ``CHAIN_BLOCK``-sample blocks
(``_analog_chain``), and the converter digitizes only the rows asked for,
with the bits of the whole: ``_quantize`` writes each rail's clipped
integer code (int16 up to 16 bits, else int32) and ``_decode`` turns codes
back into antenna-referred samples. The rows are kept as codes
(:class:`AdcCodes`, a quarter of the bytes of complex128 at up to 16
bits), and a slice of them decodes when it is read. With the rows comes
a summary of what the receiver saw over them (:class:`ReceiverDiagnostics`:
clipped samples, AGC scale and the apparent floor that noise and
quantization leave). ``simulate_received`` digitizes every row and
decodes them all.
Only ``transmit_front_end`` reads a :class:`ComplexBasebandSignal` (for
its sample rate) and only ``simulate_received`` returns one. Every number of
a configuration must be finite, except a ``-inf`` thermal noise floor
(no noise). Finite values can still overflow the chain, so the receiver
rejects a digitized output that is not finite: one error, in place of
the floating-point warnings that the chain functions silence.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from math import comb
from pathlib import Path

import numpy as np

from ._rng import substream
from .signals import ComplexBasebandSignal, _require_int, fir_convolve

# Rated maximum transmitter output power; tx_power_dbm = MAX_TX_POWER_DBM
# drives the amplifier model at unit RMS for the nominal digital drive.
MAX_TX_POWER_DBM = 22.0

# Lowest transmit power the impairment models are calibrated for.
MIN_TX_POWER_DBM = -10.0

# Nominal RMS of the digital baseband drive at the DAC input: multi-tone
# frames are scaled to it before the chain. The power sweep scales the RF
# drive, not the DAC input, so baseband distortion levels stay fixed
# across output powers while amplifier distortion grows.
REF_DRIVE_RMS = 0.2

# Receiver gain ranging backs the converter off its full scale by this
# headroom above the input RMS. Per-rail Gaussian peaks of a multi-tone
# signal reach ~13 dB above the complex RMS, so 12 dB keeps hard clips
# rare enough that they stay below the quantization error budget.
ADC_HEADROOM_DB = 12.0


def _check_finite(values: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite, got {values.tolist()}")
    return values


def _as_complex_taps(taps, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(taps, dtype=np.complex128))
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-D tap sequence")
    return _check_finite(arr, name)


@dataclass(frozen=True)
class DacNonlinearity:
    """Per-rail polynomial DAC model.

    ``coeffs_i[m-1]`` scales Re{x}^m on the in-phase rail and
    ``coeffs_q[m-1]`` scales Im{x}^m on the quadrature rail.
    """

    coeffs_i: np.ndarray
    coeffs_q: np.ndarray

    def __post_init__(self):
        ci = _check_finite(np.atleast_1d(np.asarray(self.coeffs_i, dtype=np.float64)), "coeffs_i")
        cq = _check_finite(np.atleast_1d(np.asarray(self.coeffs_q, dtype=np.float64)), "coeffs_q")
        if ci.size != cq.size:
            raise ValueError("coeffs_i and coeffs_q must have equal length")
        if ci.size < 1:
            raise ValueError("DAC polynomial needs at least the linear term")
        if ci[0] == 0.0 or cq[0] == 0.0:
            raise ValueError("linear DAC coefficients must be nonzero")
        object.__setattr__(self, "coeffs_i", ci)
        object.__setattr__(self, "coeffs_q", cq)

    @classmethod
    def identity(cls) -> "DacNonlinearity":
        return cls(np.array([1.0]), np.array([1.0]))


@dataclass(frozen=True)
class IqImbalance:
    """Widely-linear mixer model y = gamma * x + delta * conj(x).

    Both taps may be frequency selective (length L_iq FIR).
    """

    gamma: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        g = _as_complex_taps(self.gamma, "gamma")
        d = _as_complex_taps(self.delta, "delta")
        if not np.any(g):
            raise ValueError("gamma must not be all-zero")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "delta", d)

    @classmethod
    def identity(cls) -> "IqImbalance":
        return cls(np.array([1.0 + 0j]), np.array([0.0 + 0j]))


@dataclass(frozen=True)
class PhaseNoiseSpec:
    """Wiener (random-walk) oscillator phase noise.

    ``linewidth`` is the Lorentzian linewidth of one oscillator in Hz.
    With ``shared_oscillator`` the receiver reuses the transmit phase
    path and only the residual phi(t) - phi(t - delay) survives; with
    independent oscillators two uncorrelated paths are drawn.
    """

    linewidth: float = 0.0
    shared_oscillator: bool = True
    delay_samples: int = 0

    def __post_init__(self):
        if not (0 <= self.linewidth < math.inf):
            raise ValueError(f"linewidth must be finite and >= 0, got {self.linewidth}")
        if not isinstance(self.shared_oscillator, bool):
            raise ValueError(
                f"shared_oscillator must be true or false, got {self.shared_oscillator!r}"
            )
        if not (0 <= self.delay_samples < math.inf) or int(self.delay_samples) != self.delay_samples:
            raise ValueError("delay_samples must be a nonnegative integer")
        object.__setattr__(self, "delay_samples", int(self.delay_samples))


@dataclass(frozen=True)
class PaNonlinearity:
    """Odd-order amplifier Taylor model, baseband-equivalent form.

    ``coeffs`` holds (beta_1, beta_3, ..., beta_n_max). In complex
    baseband the order-n term contributes
    beta_n / 2^(n-1) * C(n, (n-1)/2) * x |x|^(n-1); even-order products
    fall out of band and are discarded.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = _check_finite(np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64)), "PA coeffs")
        if c.size < 1:
            raise ValueError("PA polynomial needs at least the linear term")
        if c[0] <= 0.0:
            raise ValueError("linear PA gain beta_1 must be positive")
        object.__setattr__(self, "coeffs", c)

    def baseband_coeffs(self) -> np.ndarray:
        """Effective envelope coefficients beta'_n per odd order n."""
        out = np.empty_like(self.coeffs)
        for i, beta in enumerate(self.coeffs):
            n = 2 * i + 1
            out[i] = beta * comb(n, (n - 1) // 2) / 2.0 ** (n - 1)
        return out

    @classmethod
    def identity(cls) -> "PaNonlinearity":
        return cls(np.array([1.0]))


@dataclass(frozen=True)
class ChannelAndReceiver:
    """Self-interference channel plus receiver front end.

    ``analog_suppression_db`` lumps passive isolation and any active
    analog cancellation into one flat attenuation. The ADC quantizes I
    and Q uniformly to ``adc_bits`` over +-``adc_full_scale``; receiver
    gain ranging loads the converter at ADC_HEADROOM_DB below full scale
    and the output is referred back to the antenna, so the quantization
    floor tracks the input level.
    """

    h_si: np.ndarray
    analog_suppression_db: float = 40.0
    thermal_noise_dbfs: float = -90.0
    adc_bits: int = 14
    adc_full_scale: float = 1.0

    def __post_init__(self):
        h = _as_complex_taps(self.h_si, "h_si")
        if not (0 <= self.analog_suppression_db < math.inf):
            raise ValueError(
                f"analog_suppression_db must be finite and >= 0, got {self.analog_suppression_db}"
            )
        if not (self.thermal_noise_dbfs < math.inf):
            raise ValueError(
                "thermal_noise_dbfs must be finite, or -inf for no noise, "
                f"got {self.thermal_noise_dbfs}"
            )
        _require_int(self.adc_bits, "adc_bits")
        if not (4 <= self.adc_bits <= 24):
            raise ValueError("adc_bits must lie in [4, 24]")
        if not (0 < self.adc_full_scale < math.inf):
            raise ValueError(
                f"adc_full_scale must be finite and positive, got {self.adc_full_scale}"
            )
        object.__setattr__(self, "h_si", h)


@dataclass(frozen=True)
class ImpairmentConfig:
    """Complete transceiver impairment parameterization."""

    dac: DacNonlinearity
    tx_iq: IqImbalance
    rx_iq: IqImbalance
    pn: PhaseNoiseSpec
    pa: PaNonlinearity
    chan: ChannelAndReceiver
    tx_power_dbm: float = -10.0

    def __post_init__(self):
        if not (MIN_TX_POWER_DBM <= self.tx_power_dbm <= MAX_TX_POWER_DBM):
            raise ValueError(
                f"tx_power_dbm must lie in [{MIN_TX_POWER_DBM:g}, {MAX_TX_POWER_DBM}], "
                f"got {self.tx_power_dbm}"
            )


def _horner(values: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m] * values^m as a new real array, evaluated in place."""
    acc = np.zeros(values.shape)
    for c in coeffs[::-1]:
        acc *= values
        acc += c
    return acc


def apply_dac(x: np.ndarray, dac: DacNonlinearity) -> np.ndarray:
    """Per-rail polynomial: sum_m a1_m Re{x}^m + j sum_m a2_m Im{x}^m.

    Returns a new array and leaves ``x`` unchanged.
    """
    rail_i = _horner(x.real, dac.coeffs_i)
    rail_i *= x.real
    rail_q = _horner(x.imag, dac.coeffs_q)
    rail_q *= x.imag
    # rail_i + 1j * rail_q, the sum written over the product.
    out = np.multiply(1j, rail_q)
    return np.add(rail_i, out, out=out)


def apply_iq(x: np.ndarray, iq: IqImbalance) -> np.ndarray:
    """Widely-linear filter gamma * x + delta * conj(x).

    Returns a new array and leaves ``x`` unchanged.
    """
    out = fir_convolve(x, iq.gamma)
    out += fir_convolve(np.conj(x), iq.delta)
    return out


def apply_phase_noise(
    x: np.ndarray, pn: PhaseNoiseSpec, seed: int, sample_rate: float
) -> np.ndarray:
    """Rotate each sample by exp(j(phi_tx[n] - phi_rx[n - delay])).

    ``sample_rate`` in Hz sets the phase step per sample for the linewidth.
    Returns a new array and leaves ``x`` unchanged. Raises ``ValueError``
    for a shared oscillator whose delay is longer than the signal, before
    any draw: its walk would need ``len(x) + delay`` steps.
    """
    n = len(x)
    dt = pn.delay_samples
    sigma = math.sqrt(2.0 * math.pi * pn.linewidth / sample_rate)
    if pn.shared_oscillator:
        if dt > n:
            raise ValueError(
                f"delay_samples ({dt}) must not exceed the signal length ({n} samples)"
            )
        # One walk covering [-dt, n); residual rotation phi[k] - phi[k-dt].
        path = np.cumsum(substream(seed, "phase-noise-shared").normal(0.0, sigma, n + dt))
        rotation = path[dt:] - path[:n]
    else:
        phi_tx = np.cumsum(substream(seed, "phase-noise-tx").normal(0.0, sigma, n))
        phi_rx = np.cumsum(substream(seed, "phase-noise-rx").normal(0.0, sigma, n))
        rotation = phi_tx - phi_rx
    return x * np.exp(1j * rotation)


def apply_pa(x: np.ndarray, pa: PaNonlinearity) -> np.ndarray:
    """Odd-order envelope polynomial y = sum_n beta'_n x |x|^(n-1).

    Returns a new array and leaves ``x`` unchanged.
    """
    env2 = np.abs(x)
    np.square(env2, out=env2)
    return _horner(env2, pa.baseband_coeffs()) * x


@dataclass(frozen=True)
class ReceiverDiagnostics:
    """What the receiver reports over the rows it digitized.

    ``clipped_samples`` counts the samples whose in-phase or quadrature
    code clipped, ``agc_scale`` is the gain ranging's scale (set by every
    row of the ADC input) and ``apparent_floor_dbfs`` is the mean power of
    noise plus quantization error in dBFS: the floor left under the
    self-interference by the receiver itself.
    """

    clipped_samples: int
    agc_scale: float
    apparent_floor_dbfs: float


def thermal_noise(n: int, chan: ChannelAndReceiver, seed: int) -> np.ndarray:
    """``n`` samples of the receiver's complex Gaussian thermal noise.

    The power is ``chan.thermal_noise_dbfs`` (zeros when it is ``-inf``),
    drawn from the seed's ``thermal-noise`` substream: the in-phase rails,
    then the quadrature rails.
    """
    if not math.isfinite(chan.thermal_noise_dbfs):
        return np.zeros(n, dtype=np.complex128)
    rng = substream(seed, "thermal-noise")
    noise = np.empty(n, dtype=np.complex128)
    noise.real = rng.standard_normal(n)
    noise.imag = rng.standard_normal(n)
    noise *= 10.0 ** (chan.thermal_noise_dbfs / 20.0) / math.sqrt(2.0)
    return noise


# The per-power chain, amplifier to ADC input, runs in blocks of this many
# samples: a block's temporaries stay in cache, and no stage makes a
# full-length copy of the signal.
CHAIN_BLOCK = 16384


@np.errstate(all="ignore")
def _analog_chain(
    x: np.ndarray, cfg: ImpairmentConfig, noise: np.ndarray
) -> tuple[np.ndarray, float]:
    """The ADC input and its AGC scale, streamed in ``CHAIN_BLOCK`` blocks.

    ``x`` is the :func:`transmit_front_end` output, and ``cfg`` is set to
    one power of :func:`receive`: each block is driven through the
    amplifier at ``cfg.tx_power_dbm``, referred to the antenna, and passed
    through analog suppression, the SI channel, RX IQ imbalance and
    ``noise``. A block reads the ``len(h_si) - 1`` plus RX IQ taps - 1
    input samples before it (none for the first), so each output sample
    has the bits of the unblocked chain. The scale is set by the mean of
    ``|analog|^2`` over all of ``x``: every sample reaches the AGC,
    digitized or not. Returns a new analog array and leaves ``x`` and
    ``noise`` unchanged.
    """
    if len(noise) != len(x):
        raise ValueError(f"noise has {len(noise)} samples, the signal {len(x)}")
    chan, rx_iq = cfg.chan, cfg.rx_iq
    n = len(x)
    history = chan.h_si.size + max(rx_iq.gamma.size, rx_iq.delta.size) - 2
    drive = 10.0 ** ((cfg.tx_power_dbm - MAX_TX_POWER_DBM) / 20.0) / REF_DRIVE_RMS
    suppression = 10.0 ** (-chan.analog_suppression_db / 20.0)
    analog = np.empty(n, dtype=np.complex128)
    power = np.empty(n)
    for start in range(0, n, CHAIN_BLOCK):
        stop = min(start + CHAIN_BLOCK, n)
        lo = max(start - history, 0)
        v = apply_pa(x[lo:stop] * drive, cfg.pa)
        # Refer the amplifier output to the antenna: full drive <-> max power.
        v *= 10.0 ** (MAX_TX_POWER_DBM / 20.0)
        v *= suppression
        v = apply_iq(fir_convolve(v, chan.h_si), rx_iq)
        block = np.add(v[start - lo :], noise[start:stop], out=analog[start:stop])
        np.abs(block, out=power[start:stop])
    # The whole buffer in one mean: the sum, and so the scale, keeps the
    # bits of the unblocked chain.
    np.square(power, out=power)
    rms = math.sqrt(float(np.mean(power)))
    if rms == 0.0:
        return analog, 1.0
    return analog, chan.adc_full_scale / (rms * 10.0 ** (ADC_HEADROOM_DB / 20.0))


def _adc_grid(chan: ChannelAndReceiver) -> tuple[float, int]:
    """The converter's code step at unit scale and its top code."""
    return 2.0 * chan.adc_full_scale / 2**chan.adc_bits, 2 ** (chan.adc_bits - 1) - 1


def _code_dtype(chan: ChannelAndReceiver) -> type:
    """The narrowest integer type that holds every code of ``chan``'s ADC."""
    return np.int16 if chan.adc_bits <= 16 else np.int32


@np.errstate(all="ignore")
def _quantize(
    analog: np.ndarray, scale: float, chan: ChannelAndReceiver, codes: np.ndarray
) -> np.ndarray:
    """Write the ADC codes of ``analog`` at the AGC ``scale``; return the clip mask.

    Row n of ``codes`` (``len(analog) x 2``, of :func:`_code_dtype`) gets
    clip(floor(rail * scale / step)) of the in-phase and quadrature rails
    of sample n. The converter works sample by sample, so any rows of a
    :func:`_analog_chain` output quantize to the codes of the same rows of
    the whole. Raises ``ValueError`` when a code would decode
    (:func:`_decode`) to a value that is not finite: a configuration of
    finite values that overflows the chain leaves a scale of 0 or NaN, and
    so ends here at any rows. The check comes before a code is cast to an
    integer, and it reads the extreme codes only: the decoded level is
    monotone in the code, and NaN stays NaN through both steps.
    """
    step, top = _adc_grid(chan)
    clipped = np.zeros(len(analog), dtype=bool)
    idx = np.empty(len(analog))
    for r, rail in enumerate((analog.real, analog.imag)):
        np.multiply(rail, scale, out=idx)
        idx /= step
        np.floor(idx, out=idx)
        clipped |= idx > top
        clipped |= idx < -top - 1
        np.clip(idx, -top - 1, top, out=idx)
        if idx.size and not np.all(
            np.isfinite(((np.array([idx.min(), idx.max()]) + 0.5) * step) / scale)
        ):
            raise ValueError(
                "the digitized received signal is not finite: "
                "the configuration overflows the impairment chain"
            )
        codes[:, r] = idx
    return clipped


def _decode(
    codes: np.ndarray, scale: float | np.ndarray, chan: ChannelAndReceiver
) -> np.ndarray:
    """The complex samples ``((code + 0.5) * step) / scale`` of ADC ``codes``.

    ``codes`` is ``rows x 2`` (in-phase, quadrature) with one AGC
    ``scale``, or ``columns x rows x 2`` with one scale per column. The
    operations and their order are the float converter's, so the result
    has its bits. Returns a new C-ordered complex128 array of ``codes``'
    shape without the rail axis; each loop runs along a column's rows.
    """
    step, _ = _adc_grid(chan)
    out = np.empty(codes.shape[:-1], dtype=np.complex128)
    levels = out.view(np.float64).reshape(codes.shape)
    np.add(codes, 0.5, out=levels)
    levels *= step
    levels /= np.reshape(scale, np.shape(scale) + (1, 1))
    return out


@dataclass(frozen=True)
class AdcCodes:
    """Digitized rows kept as the converter's codes, one column per config.

    ``codes`` is ``columns x rows x 2`` (in-phase, quadrature) of
    :func:`_code_dtype`, so each column's codes lie together, and
    ``scales`` holds each column's AGC scale. Indexed as a ``rows x
    columns`` array, it decodes (:func:`_decode`) to the complex samples
    of the float converter, bit for bit: ``[a:b]`` is a column-major
    ``(b - a) x columns`` array and ``[a:b, k]`` column k's samples, so a
    reader of complex rows reads these unchanged.
    """

    codes: np.ndarray
    scales: np.ndarray
    chan: ChannelAndReceiver

    @classmethod
    def empty(cls, rows: int, columns: int, chan: ChannelAndReceiver) -> "AdcCodes":
        """Room for ``rows`` rows of ``columns`` columns, to quantize into."""
        return cls(
            np.empty((columns, rows, 2), dtype=_code_dtype(chan)), np.empty(columns), chan
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape[1], self.codes.shape[0]

    def __len__(self) -> int:
        return self.codes.shape[1]

    def __getitem__(self, key) -> np.ndarray:
        rows, columns = key if isinstance(key, tuple) else (key, slice(None))
        return _decode(self.codes[columns, rows], self.scales[columns], self.chan).T


@np.errstate(all="ignore")
def transmit_front_end(
    x: ComplexBasebandSignal, cfg: ImpairmentConfig, seed: int
) -> np.ndarray:
    """DAC -> TX IQ -> phase noise: the stages before the power enters.

    The output does not depend on ``cfg.tx_power_dbm``, so a power sweep
    can run it once and feed it to :func:`receive` at every power.
    """
    v = apply_dac(x.samples, cfg.dac)
    v = apply_iq(v, cfg.tx_iq)
    return apply_phase_noise(v, cfg.pn, seed, x.sample_rate)


@np.errstate(all="ignore")
def receive(
    front: np.ndarray,
    cfg: ImpairmentConfig,
    powers: Sequence[float],
    noise: np.ndarray,
    fit_len: int,
    split: int,
) -> tuple[AdcCodes, AdcCodes, list[ReceiverDiagnostics]]:
    """Drive -> PA -> antenna reference -> channel and receiver, at each power.

    ``front`` is the :func:`transmit_front_end` output of ``cfg`` and
    ``noise`` the receiver noise, :func:`thermal_noise` of ``len(front)``;
    neither depends on the power, and both are left unchanged. Each of
    ``powers`` (dBm, checked as ``cfg.tx_power_dbm`` is, which is unused)
    sets the amplifier drive of one column; every other stage is ``cfg``'s.
    Per power the analog chain streams over every row
    (:func:`_analog_chain`), so every row reaches the AGC, but only rows
    ``[0, fit_len)`` and ``[split, n)`` are quantized (:func:`_quantize`),
    straight into the power's column of the two returned :class:`AdcCodes`.
    Returns those two sets of rows and per power the receiver's summary:
    clipped samples over both sets of rows, the AGC scale, and the mean of
    ``|noise + (digitized - analog)|^2`` over rows ``[split, n)`` in dBFS.
    ``receive(front, cfg, [cfg.tx_power_dbm], noise, 0, 0)`` digitizes
    every row. Raises ``ValueError`` when the digitized output is not
    finite: a configuration of finite values that overflows the chain
    ends here.
    """
    n = len(front)
    if not 0 <= fit_len <= split < n:
        raise ValueError(f"need 0 <= fit_len ({fit_len}) <= split ({split}) < {n} rows")
    power_cfgs = [replace(cfg, tx_power_dbm=power) for power in powers]
    chan = cfg.chan
    train = AdcCodes.empty(fit_len, len(powers), chan)
    held = AdcCodes.empty(n - split, len(powers), chan)
    extra = np.empty(n - split)
    receivers = []
    for k, power_cfg in enumerate(power_cfgs):
        analog, scale = _analog_chain(front, power_cfg, noise)
        train.scales[k] = held.scales[k] = scale
        clipped = np.count_nonzero(_quantize(analog[:fit_len], scale, chan, train.codes[k]))
        # Each held row becomes noise + (digitized - analog) in place, a
        # block at a time, so no full-length complex temporary is made.
        for lo in range(0, n - split, CHAIN_BLOCK):
            block = slice(lo, min(lo + CHAIN_BLOCK, n - split))
            rows = slice(split + block.start, split + block.stop)
            codes = held.codes[k, block]
            clipped += np.count_nonzero(_quantize(analog[rows], scale, chan, codes))
            np.subtract(_decode(codes, scale, chan), analog[rows], out=analog[rows])
            analog[rows] += noise[rows]
            np.abs(analog[rows], out=extra[block])
        del analog
        # The whole buffer in one mean: the sum keeps the bits of one pass.
        np.square(extra, out=extra)
        floor = 10.0 * math.log10(float(np.mean(extra)))
        receivers.append(ReceiverDiagnostics(int(clipped), scale, floor))
    return train, held, receivers


def simulate_received(
    x: ComplexBasebandSignal, cfg: ImpairmentConfig, seed: int
) -> tuple[ComplexBasebandSignal, ReceiverDiagnostics]:
    """Run the full impairment chain on a digital baseband signal.

    Returns the received self-interference signal (in antenna-referred
    units where mean power in dB reads as dBm) and the receiver's summary
    over every sample: clipping, AGC scale and apparent floor.
    """
    front = transmit_front_end(x, cfg, seed)
    noise = thermal_noise(len(x), cfg.chan, seed)
    _, received, (diag,) = receive(front, cfg, [cfg.tx_power_dbm], noise, 0, 0)
    return x.with_samples(received[:, 0]), diag


# --- configuration file round trip ----------------------------------------


def _reals(arr: np.ndarray) -> list:
    return [float(v) for v in arr]


def _taps(arr: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in arr]


def _complex_array(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


# The configuration file format. Each section holds the ImpairmentConfig
# field of its name, of the class given; each of its keys holds one field
# of that class, written to JSON by the function next to it. Taps
# (``_taps``) are [re, im] pairs, read back as complex; every other value
# is read as it is, for the class to check. ``_TOP_LEVEL`` holds
# ImpairmentConfig's own fields, outside any section.
_IQ_KEYS = {"gamma": ("gamma", _taps), "delta": ("delta", _taps)}
_SECTIONS = {
    "dac": (DacNonlinearity, {"coeffs_i": ("coeffs_i", _reals), "coeffs_q": ("coeffs_q", _reals)}),
    "tx_iq": (IqImbalance, _IQ_KEYS),
    "rx_iq": (IqImbalance, _IQ_KEYS),
    "pn": (PhaseNoiseSpec, {
        "linewidth_hz": ("linewidth", float),
        "shared_oscillator": ("shared_oscillator", bool),
        "delay_samples": ("delay_samples", int),
    }),
    "pa": (PaNonlinearity, {"coeffs_odd": ("coeffs", _reals)}),
    "chan": (ChannelAndReceiver, {
        "h_si": ("h_si", _taps),
        "analog_suppression_db": ("analog_suppression_db", float),
        "thermal_noise_dbfs": ("thermal_noise_dbfs", float),
        "adc_bits": ("adc_bits", int),
        "adc_full_scale": ("adc_full_scale", float),
    }),
}
_TOP_LEVEL = {"tx_power_dbm": ("tx_power_dbm", float)}


def _to_dict(obj, keys: dict) -> dict:
    return {key: write(getattr(obj, field)) for key, (field, write) in keys.items()}


def _holds_boolean(value) -> bool:
    return isinstance(value, bool) or (
        isinstance(value, (list, tuple)) and any(map(_holds_boolean, value))
    )


def _fields(values: dict, keys: dict) -> dict:
    """The constructor arguments in ``values``, the part of a file ``keys`` describes.

    JSON's ``true`` and ``false`` are Python's ``True`` and ``False``, which
    count as 1 and 0: only a key written as a boolean may hold one.
    """
    fields = {}
    for key, (field, write) in keys.items():
        value = values[key]
        if write is not bool and _holds_boolean(value):
            raise ValueError(
                f"{key} must be numeric, not true or false, got {json.dumps(value)}"
            )
        fields[field] = _complex_array(value) if write is _taps else value
    return fields


def config_to_dict(cfg: ImpairmentConfig) -> dict:
    sections = {name: _to_dict(getattr(cfg, name), keys) for name, (_, keys) in _SECTIONS.items()}
    return {**sections, **_to_dict(cfg, _TOP_LEVEL)}


def _config_section(data: dict, name: str):
    """Section ``name`` of ``data`` as its class, with any error naming the section."""
    cls, keys = _SECTIONS[name]
    section = data[name]
    try:
        return cls(**_fields(section, keys))
    except KeyError as exc:
        raise KeyError(f"{name}.{exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def config_from_dict(data: dict) -> ImpairmentConfig:
    """The configuration ``data`` describes; a key the format lacks is an error."""
    try:
        cfg = ImpairmentConfig(
            **{name: _config_section(data, name) for name in _SECTIONS},
            **_fields(data, _TOP_LEVEL),
        )
    except KeyError as exc:
        raise ValueError(f"configuration is missing key {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"configuration value has the wrong type: {exc}") from exc
    # Built, ``data`` and each of its sections are dicts.
    unknown = [name for name in data if name not in _SECTIONS and name not in _TOP_LEVEL]
    for name, (_, keys) in _SECTIONS.items():
        unknown += [f"{name}.{key}" for key in data[name] if key not in keys]
    if unknown:
        raise ValueError(f"configuration has unknown key {unknown[0]!r}")
    return cfg


def save_config(cfg: ImpairmentConfig, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
    return path


def load_config(path) -> ImpairmentConfig:
    return config_from_dict(json.loads(Path(path).read_text()))
