#!/usr/bin/env python3
"""Calibration and margin verification for the shipped presets.

Run after touching any preset constant. Prints every quantity the preset
suite is expected to exhibit, so drifts are caught before freezing:

1. one-tone line levels (image, 2nd/3rd products, amplifier mixing)
2. phase-noise skirt calibration sweep (independent oscillators)
3. multi-tone component budget per canceller family
4. sweep behavior at the scenario corner points
"""

import sys
import time

import numpy as np

from fdsic import (
    DEFAULT_SPECS,
    apply_phase_noise,
    gen_tone,
    load_preset,
    measure_line_db,
    power_db,
    run_sweep,
    simulate_received,
    skirt_peak_dbc,
    spectrum,
)
from fdsic.impairments import PhaseNoiseSpec
from fdsic.presets import PRESETS, TONE_AMPLITUDE, TONE_FREQ
from fdsic.signals import OfdmFrameSpec
from fdsic.spectral import floor_estimate_db


def tone_signature(preset_name: str, seed: int = 1):
    cfg = load_preset(preset_name)
    x = gen_tone(TONE_FREQ, TONE_AMPLITUDE, 4096 * 33)
    r, diag = simulate_received(x, cfg, PRESETS[preset_name][0], seed)
    spec = spectrum(r, n_fft=4096)
    carrier = measure_line_db(spec, TONE_FREQ)
    print(f"--- {preset_name}: tone test, rx power {power_db(r):.1f} dB ---")
    for mult in (-3, -2, -1, 1, 2, 3, 5):
        level = measure_line_db(spec, mult * TONE_FREQ) - carrier
        print(f"  line {mult:+d}f: {level:8.1f} dBc")
    floor = floor_estimate_db(spec) - carrier
    print(f"  per-bin floor: {floor:8.1f} dBc, clipped={diag.clipped_samples}")


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


def sweep_behavior(preset_name: str, powers, seed: int = 7):
    print(f"--- {preset_name}: canceller sweep ---")
    t0 = time.time()
    reports = run_sweep(
        load_preset(preset_name), powers, DEFAULT_SPECS, OfdmFrameSpec(seed=123), seed
    )
    header = ["P(dBm)"] + [s.label() for s in DEFAULT_SPECS] + ["floor(dB)"]
    print("  " + "  ".join(f"{h:>28s}" if i else f"{h:>7s}" for i, h in enumerate(header)))
    n = len(DEFAULT_SPECS)
    for i, p in enumerate(powers):
        row = [f"{p:7.1f}"]
        for rep in reports[i * n : (i + 1) * n]:
            row.append(f"{rep.residual_above_noise_db:22.2f}+-{rep.residual_above_noise_std_db:4.2f}")
        row.append(f"{reports[i * n].receiver.apparent_floor_dbfs:8.1f}")
        print("  " + "  ".join(row))
    print(f"  [{time.time() - t0:.1f}s]")


if __name__ == "__main__":
    t0 = time.time()
    if "--skip-tones" not in sys.argv:
        tone_signature("fig5_m10dbm")
        tone_signature("fig7_20dbm")
    if "--skip-pn" not in sys.argv:
        calibrate_linewidth()
    if "--skip-sweep" not in sys.argv:
        sweep_behavior("sweep_40db", [-10, 6, 18, 22])
        sweep_behavior("sweep_55db", [-10, 6, 18, 22])
    print(f"total {time.time() - t0:.1f}s")
