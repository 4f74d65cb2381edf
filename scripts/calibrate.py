#!/usr/bin/env python3
"""Derive the presets' oscillator linewidth, PHASE_NOISE_LINEWIDTH_HZ.

Bisects the linewidth at which a one-tone test with independent
oscillators shows the -46 dBc phase-noise skirt, then prints the skirt of
independent and shared oscillators at half, once and twice that width.
Run it after touching the tone or the spectrum settings the skirt depends
on. The other preset margins are printed by demos 02 (one-tone lines) and
04 (the canceller sweep), and checked by acceptance criteria 6 and 7.
"""

import time

import numpy as np

from fdsic import apply_phase_noise, gen_tone, skirt_peak_dbc, spectrum
from fdsic.impairments import PhaseNoiseSpec
from fdsic.presets import TONE_AMPLITUDE, TONE_FREQ


def skirt_for_linewidth(linewidth: float, shared: bool, seed: int = 3) -> float:
    x = gen_tone(TONE_FREQ, TONE_AMPLITUDE, 4096 * 33)
    pn = PhaseNoiseSpec(linewidth=linewidth, shared_oscillator=shared, delay_samples=1)
    y = x.with_samples(apply_phase_noise(x.samples, pn, seed))
    return skirt_peak_dbc(spectrum(y, n_fft=4096), TONE_FREQ)


def calibrate_linewidth(target_dbc: float = -46.0):
    print("--- phase-noise linewidth sweep (independent oscillators) ---")
    lo, hi = 0.1, 100.0
    for _ in range(24):
        mid = np.sqrt(lo * hi)
        skirt = skirt_for_linewidth(mid, shared=False)
        if skirt < target_dbc:
            lo = mid
        else:
            hi = mid
    mid = np.sqrt(lo * hi)
    print(f"  linewidth {mid:.3f} Hz -> skirt {skirt_for_linewidth(mid, False):.2f} dBc")
    for lw in (mid / 2, mid, 2 * mid):
        print(
            f"  check lw={lw:7.3f} Hz: independent {skirt_for_linewidth(lw, False):7.2f} dBc"
            f"  shared {skirt_for_linewidth(lw, True):7.2f} dBc"
        )
    return mid


if __name__ == "__main__":
    t0 = time.time()
    calibrate_linewidth()
    print(f"total {time.time() - t0:.1f}s")
