"""Transmitter/receiver hardware impairment chain.

Applies per-rail DAC polynomial distortion, widely-linear mixer IQ
imbalance, Wiener oscillator phase noise, odd-order baseband-equivalent
amplifier distortion, the self-interference channel with flat analog
suppression, thermal noise, and a gain-ranged quantizing receiver.

Stage order is fixed: DAC -> TX IQ -> phase noise -> PA -> channel ->
RX IQ -> noise -> ADC. All randomness derives from an explicit seed via
named substreams.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import comb
from numbers import Integral
from pathlib import Path

import numpy as np

from ._rng import substream
from .signals import ComplexBasebandSignal, fir_convolve

# Rated maximum transmitter output power; tx_power_dbm = MAX_TX_POWER_DBM
# drives the amplifier model at unit RMS for the nominal digital drive.
MAX_TX_POWER_DBM = 22.0

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


def _as_complex_taps(taps, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(taps, dtype=np.complex128))
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-D tap sequence")
    return arr


@dataclass(frozen=True)
class DacNonlinearity:
    """Per-rail polynomial DAC model.

    ``coeffs_i[m-1]`` scales Re{x}^m on the in-phase rail and
    ``coeffs_q[m-1]`` scales Im{x}^m on the quadrature rail.
    """

    coeffs_i: np.ndarray
    coeffs_q: np.ndarray

    def __post_init__(self):
        ci = np.atleast_1d(np.asarray(self.coeffs_i, dtype=np.float64))
        cq = np.atleast_1d(np.asarray(self.coeffs_q, dtype=np.float64))
        if ci.size != cq.size:
            raise ValueError("coeffs_i and coeffs_q must have equal length")
        if ci.size < 1:
            raise ValueError("DAC polynomial needs at least the linear term")
        if ci[0] == 0.0 or cq[0] == 0.0:
            raise ValueError("linear DAC coefficients must be nonzero")
        object.__setattr__(self, "coeffs_i", ci)
        object.__setattr__(self, "coeffs_q", cq)

    @property
    def m_max(self) -> int:
        return self.coeffs_i.size

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

    @property
    def image_rejection_db(self) -> float:
        """Image-to-signal power ratio 10*log10(|delta|^2/|gamma|^2)."""
        dp = float(np.sum(np.abs(self.delta) ** 2))
        gp = float(np.sum(np.abs(self.gamma) ** 2))
        if dp == 0.0:
            return float("-inf")
        return 10.0 * math.log10(dp / gp)

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
        if self.linewidth < 0:
            raise ValueError("linewidth must be >= 0")
        if not isinstance(self.shared_oscillator, bool):
            raise ValueError(
                f"shared_oscillator must be true or false, got {self.shared_oscillator!r}"
            )
        if self.delay_samples < 0 or int(self.delay_samples) != self.delay_samples:
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
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        if c.size < 1:
            raise ValueError("PA polynomial needs at least the linear term")
        if c[0] <= 0.0:
            raise ValueError("linear PA gain beta_1 must be positive")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_max(self) -> int:
        return 2 * self.coeffs.size - 1

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
        if self.analog_suppression_db < 0:
            raise ValueError("analog_suppression_db must be >= 0")
        if not isinstance(self.adc_bits, Integral):
            raise ValueError(f"adc_bits must be an integer, got {self.adc_bits!r}")
        if not (4 <= self.adc_bits <= 24):
            raise ValueError("adc_bits must lie in [4, 24]")
        if not (self.adc_full_scale > 0):
            raise ValueError("adc_full_scale must be positive")
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
        if not (-10.0 <= self.tx_power_dbm <= MAX_TX_POWER_DBM):
            raise ValueError(
                f"tx_power_dbm must lie in [-10, {MAX_TX_POWER_DBM}], got {self.tx_power_dbm}"
            )

    def with_tx_power(self, tx_power_dbm: float) -> "ImpairmentConfig":
        return ImpairmentConfig(
            self.dac, self.tx_iq, self.rx_iq, self.pn, self.pa, self.chan, tx_power_dbm
        )


def apply_dac(x: ComplexBasebandSignal, dac: DacNonlinearity) -> ComplexBasebandSignal:
    """Per-rail polynomial: sum_m a1_m Re{x}^m + j sum_m a2_m Im{x}^m."""

    def rail(values: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(values)
        for a in coeffs[::-1]:
            acc = acc * values + a
        return acc * values

    return x.with_samples(
        rail(x.samples.real, dac.coeffs_i) + 1j * rail(x.samples.imag, dac.coeffs_q)
    )


def apply_iq(x: ComplexBasebandSignal, iq: IqImbalance) -> ComplexBasebandSignal:
    """Widely-linear filter gamma * x + delta * conj(x)."""
    direct = fir_convolve(x, iq.gamma)
    image = fir_convolve(x.with_samples(np.conj(x.samples)), iq.delta)
    return x.with_samples(direct.samples + image.samples)


def apply_phase_noise(
    x: ComplexBasebandSignal, pn: PhaseNoiseSpec, seed: int
) -> ComplexBasebandSignal:
    """Rotate each sample by exp(j(phi_tx[n] - phi_rx[n - delay]))."""
    n = len(x)
    dt = pn.delay_samples
    sigma = math.sqrt(2.0 * math.pi * pn.linewidth / x.sample_rate)
    if pn.shared_oscillator:
        # One walk covering [-dt, n); residual rotation phi[k] - phi[k-dt].
        path = np.cumsum(substream(seed, "phase-noise-shared").normal(0.0, sigma, n + dt))
        rotation = path[dt:] - path[:n]
    else:
        phi_tx = np.cumsum(substream(seed, "phase-noise-tx").normal(0.0, sigma, n))
        phi_rx = np.cumsum(substream(seed, "phase-noise-rx").normal(0.0, sigma, n))
        rotation = phi_tx - phi_rx
    return x.with_samples(x.samples * np.exp(1j * rotation))


def apply_pa(x: ComplexBasebandSignal, pa: PaNonlinearity) -> ComplexBasebandSignal:
    """Odd-order envelope polynomial y = sum_n beta'_n x |x|^(n-1)."""
    u = x.samples
    env2 = np.abs(u) ** 2
    gain = np.zeros_like(env2)
    for bp in pa.baseband_coeffs()[::-1]:
        gain = gain * env2 + bp
    return x.with_samples(gain * u)


@dataclass(frozen=True)
class ReceiverDiagnostics:
    """Per-run receiver internals for floor and clipping analysis."""

    noise: np.ndarray
    quant_error: np.ndarray
    clipped_samples: int
    agc_scale: float


def apply_channel_and_receiver(
    x: ComplexBasebandSignal,
    chan: ChannelAndReceiver,
    rx_iq: IqImbalance,
    seed: int,
) -> tuple[ComplexBasebandSignal, ReceiverDiagnostics]:
    """Suppression, SI channel, RX IQ imbalance, noise, and gain-ranged ADC."""
    attenuated = x.samples * 10.0 ** (-chan.analog_suppression_db / 20.0)
    through = fir_convolve(x.with_samples(attenuated), chan.h_si)
    clean = apply_iq(through, rx_iq)

    if math.isfinite(chan.thermal_noise_dbfs):
        noise_rms = 10.0 ** (chan.thermal_noise_dbfs / 20.0)
        rng = substream(seed, "thermal-noise")
        noise = (noise_rms / math.sqrt(2.0)) * (
            rng.standard_normal(len(clean)) + 1j * rng.standard_normal(len(clean))
        )
    else:
        noise = np.zeros(len(clean), dtype=np.complex128)
    analog = clean.samples + noise

    rms = math.sqrt(float(np.mean(np.abs(analog) ** 2)))
    if rms == 0.0:
        scale = 1.0
    else:
        scale = chan.adc_full_scale / (rms * 10.0 ** (ADC_HEADROOM_DB / 20.0))

    step = 2.0 * chan.adc_full_scale / 2**chan.adc_bits
    top = 2 ** (chan.adc_bits - 1) - 1

    def quantize(rail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.floor(rail * scale / step)
        clipped = (idx > top) | (idx < -top - 1)
        return (np.clip(idx, -top - 1, top) + 0.5) * step / scale, clipped

    q_i, clip_i = quantize(analog.real)
    q_q, clip_q = quantize(analog.imag)
    digitized = q_i + 1j * q_q
    clipped_samples = int(np.count_nonzero(clip_i | clip_q))

    received = x.with_samples(digitized)
    diag = ReceiverDiagnostics(
        noise=noise,
        quant_error=digitized - analog,
        clipped_samples=clipped_samples,
        agc_scale=scale,
    )
    return received, diag


def simulate_received(
    x: ComplexBasebandSignal, cfg: ImpairmentConfig, seed: int
) -> tuple[ComplexBasebandSignal, ReceiverDiagnostics]:
    """Run the full impairment chain on a digital baseband signal.

    Returns the received self-interference signal (in antenna-referred
    units where mean power in dB reads as dBm) and the receiver
    diagnostics: noise, quantization error, clipping and AGC scale.
    """
    v = apply_dac(x, cfg.dac)
    v = apply_iq(v, cfg.tx_iq)
    v = apply_phase_noise(v, cfg.pn, seed)
    drive = 10.0 ** ((cfg.tx_power_dbm - MAX_TX_POWER_DBM) / 20.0) / REF_DRIVE_RMS
    v = apply_pa(v.with_samples(v.samples * drive), cfg.pa)
    # Refer the amplifier output to the antenna: full drive <-> max power.
    v = v.with_samples(v.samples * 10.0 ** (MAX_TX_POWER_DBM / 20.0))
    return apply_channel_and_receiver(v, cfg.chan, cfg.rx_iq, seed)


# --- configuration file round trip ----------------------------------------


def _complex_list(arr: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(arr, dtype=np.complex128)]


def _complex_array(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


def config_to_dict(cfg: ImpairmentConfig) -> dict:
    return {
        "dac": {
            "coeffs_i": [float(v) for v in cfg.dac.coeffs_i],
            "coeffs_q": [float(v) for v in cfg.dac.coeffs_q],
        },
        "tx_iq": {
            "gamma": _complex_list(cfg.tx_iq.gamma),
            "delta": _complex_list(cfg.tx_iq.delta),
        },
        "rx_iq": {
            "gamma": _complex_list(cfg.rx_iq.gamma),
            "delta": _complex_list(cfg.rx_iq.delta),
        },
        "pn": {
            "linewidth_hz": float(cfg.pn.linewidth),
            "shared_oscillator": bool(cfg.pn.shared_oscillator),
            "delay_samples": int(cfg.pn.delay_samples),
        },
        "pa": {"coeffs_odd": [float(v) for v in cfg.pa.coeffs]},
        "chan": {
            "h_si": _complex_list(cfg.chan.h_si),
            "analog_suppression_db": float(cfg.chan.analog_suppression_db),
            "thermal_noise_dbfs": float(cfg.chan.thermal_noise_dbfs),
            "adc_bits": int(cfg.chan.adc_bits),
            "adc_full_scale": float(cfg.chan.adc_full_scale),
        },
        "tx_power_dbm": float(cfg.tx_power_dbm),
    }


def config_from_dict(data: dict) -> ImpairmentConfig:
    try:
        return ImpairmentConfig(
            dac=DacNonlinearity(data["dac"]["coeffs_i"], data["dac"]["coeffs_q"]),
            tx_iq=IqImbalance(
                _complex_array(data["tx_iq"]["gamma"]),
                _complex_array(data["tx_iq"]["delta"]),
            ),
            rx_iq=IqImbalance(
                _complex_array(data["rx_iq"]["gamma"]),
                _complex_array(data["rx_iq"]["delta"]),
            ),
            pn=PhaseNoiseSpec(
                linewidth=data["pn"]["linewidth_hz"],
                shared_oscillator=data["pn"]["shared_oscillator"],
                delay_samples=data["pn"]["delay_samples"],
            ),
            pa=PaNonlinearity(data["pa"]["coeffs_odd"]),
            chan=ChannelAndReceiver(
                h_si=_complex_array(data["chan"]["h_si"]),
                analog_suppression_db=data["chan"]["analog_suppression_db"],
                thermal_noise_dbfs=data["chan"]["thermal_noise_dbfs"],
                adc_bits=data["chan"]["adc_bits"],
                adc_full_scale=data["chan"]["adc_full_scale"],
            ),
            tx_power_dbm=data["tx_power_dbm"],
        )
    except KeyError as exc:
        raise ValueError(f"configuration is missing key {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"configuration value has the wrong type: {exc}") from exc


def save_config(cfg: ImpairmentConfig, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
    return path


def load_config(path) -> ImpairmentConfig:
    return config_from_dict(json.loads(Path(path).read_text()))
