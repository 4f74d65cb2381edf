"""Shipped impairment presets.

The hardware the measurements behind these scenarios came from was never
characterized down to coefficient values, so every number here is a
calibration knob: the set was tuned (see scripts/calibrate.py) so the
shipped scenarios reproduce the qualitative one-tone signatures and the
relative canceller performance the simulator is meant to demonstrate.
They are presets, not ground truth.
"""

from __future__ import annotations

import numpy as np

from .impairments import (
    ChannelAndReceiver,
    DacNonlinearity,
    ImpairmentConfig,
    IqImbalance,
    PaNonlinearity,
    PhaseNoiseSpec,
)
from .signals import OFDM_BANDWIDTH

# One-tone tests drive the DAC with this fixed tone amplitude (multi-tone
# frames are scaled to impairments.REF_DRIVE_RMS instead).
TONE_AMPLITUDE = 0.5

# Default one-tone test frequency (bandwidth / 8), coherent on a 4096-bin
# grid at SAMPLE_RATE.
TONE_FREQ = OFDM_BANDWIDTH / 8

# Matched-rail DAC polynomial [a1, a2, a3].
DAC_COEFFS = [1.0, 0.038, 0.38]

# Mixer IQ imbalance taps. The leading transmit-side delta tap is kept on
# the imaginary axis so the two mechanisms that land on +3f in a one-tone
# test (the transmit image of the 3rd-order rail product, and amplifier
# mixing of the tone with its own image) add constructively.
TX_IQ_GAMMA = [1.0 + 0.0j, 0.012 - 0.006j]
TX_IQ_DELTA = [0.0 + 0.0165j, -0.0009 + 0.0025j]
RX_IQ_GAMMA = [1.0 + 0.0j]
RX_IQ_DELTA = [0.0021 - 0.0019j]

# Oscillator linewidth calibrated so a one-tone test with independent
# oscillators shows a -46 dBc skirt peak under the default spectral
# analysis settings; the shared-oscillator path reuse leaves only the
# one-sample-delay residual.
PHASE_NOISE_LINEWIDTH_HZ = 18.8
PHASE_NOISE_DELAY_SAMPLES = 1

# Amplifier odd-order Taylor coefficients (beta_1, beta_3, beta_5). The
# 5th-order term carries the distortion so it switches on steeply
# (4 dB per dB of drive) near the top of the power range; the 3rd-order
# term is kept small because in complex baseband it rides the same
# x|x|^2 direction as the converter rail distortion and a strong
# compressive cubic would partially cancel it at high drive.
PA_COEFFS = [1.0, -1.0e-3, -0.6e-3]

THERMAL_NOISE_DBFS = -90.0
ADC_BITS = 14

# Scenario name -> (tx_power_dbm, suppression_db, shared_oscillator). The
# power is the scenario's, not the hardware's: load_preset leaves it out
# and tone-test takes it as its default power. The two sweep presets are
# the acceptance sweeps; fig5_m10dbm, fig7_20dbm and sweep_40db load the
# same hardware under two one-tone powers and a sweep name.
PRESETS = {
    "fig5_m10dbm": (-10.0, 40.0, True),
    "fig7_20dbm": (20.0, 40.0, True),
    "fig4_m10dbm_indosc": (-10.0, 40.0, False),
    "sweep_40db": (-10.0, 40.0, True),
    "sweep_55db": (-10.0, 55.0, True),
}
PRESET_NAMES = tuple(PRESETS)


# Self-interference channel: a dominant direct path with a weak, mildly
# dispersive tail (antennas sit next to each other). Keeping the tail
# small and nearly real keeps the channel magnitude response close to
# symmetric, so mirror-frequency line pairs are not skewed by the channel.
H_SI_TAPS = [1.0 + 0.0j, 0.12 + 0.015j, 0.025 - 0.008j, 0.006 + 0.002j]


def _h_si() -> np.ndarray:
    """Unit-norm preset SI channel."""
    taps = np.asarray(H_SI_TAPS, dtype=np.complex128)
    return taps / np.linalg.norm(taps)


def load_preset(name: str) -> ImpairmentConfig:
    """Build a shipped scenario's hardware configuration by name."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; valid: {', '.join(PRESET_NAMES)}")
    _, suppression_db, shared_oscillator = PRESETS[name]
    return ImpairmentConfig(
        dac=DacNonlinearity(DAC_COEFFS, DAC_COEFFS),
        tx_iq=IqImbalance(TX_IQ_GAMMA, TX_IQ_DELTA),
        rx_iq=IqImbalance(RX_IQ_GAMMA, RX_IQ_DELTA),
        pn=PhaseNoiseSpec(
            linewidth=PHASE_NOISE_LINEWIDTH_HZ,
            shared_oscillator=shared_oscillator,
            delay_samples=PHASE_NOISE_DELAY_SAMPLES,
        ),
        pa=PaNonlinearity(PA_COEFFS),
        chan=ChannelAndReceiver(
            h_si=_h_si(),
            analog_suppression_db=suppression_db,
            thermal_noise_dbfs=THERMAL_NOISE_DBFS,
            adc_bits=ADC_BITS,
        ),
    )
