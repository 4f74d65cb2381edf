#!/usr/bin/env python3
"""Oscillator phase noise and the benefit of sharing one oscillator.

With independent transmit and receive oscillators the two random phase
walks never cancel, leaving a wide skirt under the received tone. When
both mixers run from the same oscillator, only the walk accumulated over
the round-trip delay survives, and the skirt collapses.
"""

from fdsic import apply_phase_noise, gen_tone, skirt_peak_dbc, spectrum
from fdsic.impairments import PhaseNoiseSpec
from fdsic.presets import PHASE_NOISE_LINEWIDTH_HZ, SAMPLE_RATE, TONE_FREQ

print(__doc__)

tone = gen_tone(TONE_FREQ, 0.5, 4096 * 33, SAMPLE_RATE)
print(f"Calibrated oscillator linewidth: {PHASE_NOISE_LINEWIDTH_HZ} Hz\n")

for shared, label in ((False, "independent oscillators"), (True, "shared oscillator")):
    pn = PhaseNoiseSpec(PHASE_NOISE_LINEWIDTH_HZ, shared_oscillator=shared, delay_samples=1)
    rotated = tone.with_samples(apply_phase_noise(tone.samples, pn, 3, SAMPLE_RATE))
    skirt = skirt_peak_dbc(spectrum(rotated, n_fft=4096), TONE_FREQ)
    print(f"  {label:<26s}: skirt peak {skirt:6.1f} dBc")

print("\nResidual growth with round-trip delay (shared oscillator):")
for delay in (1, 8, 64, 512):
    pn = PhaseNoiseSpec(PHASE_NOISE_LINEWIDTH_HZ, shared_oscillator=True, delay_samples=delay)
    rotated = tone.with_samples(apply_phase_noise(tone.samples, pn, 3, SAMPLE_RATE))
    skirt = skirt_peak_dbc(spectrum(rotated, n_fft=4096), TONE_FREQ)
    print(f"  delay {delay:4d} samples: skirt peak {skirt:6.1f} dBc")

print(
    "\nSharing the oscillator buys tens of dB; the residual returns as "
    "the delay spreads the two mixing instants apart."
)
