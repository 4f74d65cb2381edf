#!/usr/bin/env python3
"""Digital cancellation shoot-out across transmit powers.

Four least-squares cancellers fit the known transmit frames against the
received self-interference and subtract their reconstruction:

* linear         - one FIR channel on x
* nonlinear      - odd envelope terms x|x|^(n-1), amplifier-style
* widely-linear  - x and conj(x), mixer-image-aware
* joint-dac-iq   - per-rail powers Re{x}^m, Im{x}^m, which absorb
                   converter distortion and IQ imbalance in one model

Residual power is reported as distance from the thermal noise floor on
held-out frames (smaller is better). Each power's receiver summary
follows: the AGC scale the gain ranging chose, how many samples clipped
the converter, and the apparent floor that noise and quantization leave.
A short grid keeps this demo quick; the CLI `fdsic sweep` runs the full
one.
"""

from fdsic import DEFAULT_SPECS, load_preset, run_sweep

print(__doc__)

powers = (-10, 2, 14, 22)
for preset in ("sweep_40db", "sweep_55db"):
    reports = run_sweep(load_preset(preset), powers, DEFAULT_SPECS, n_frames=40, seed=0)
    print(f"--- {preset} (residual above thermal floor, dB) ---")
    header = " ".join(f"{s.label():>28s}" for s in DEFAULT_SPECS)
    print(f"{'P(dBm)':>7s} {header}")
    n = len(DEFAULT_SPECS)
    for i, power in enumerate(powers):
        cells = " ".join(
            f"{rep.residual_above_noise_db:22.2f}+-{rep.residual_above_noise_std_db:4.2f}"
            for rep in reports[i * n : (i + 1) * n]
        )
        print(f"{power:7.0f} {cells}")
    print(f"{'P(dBm)':>7s} {'AGC scale':>10s} {'clipped':>8s} {'floor(dBFS)':>12s}")
    for i, power in enumerate(powers):
        rx = reports[i * n].receiver
        print(
            f"{power:7.0f} {rx.agc_scale:10.3f} {rx.clipped_samples:8d} "
            f"{rx.apparent_floor_dbfs:12.2f}"
        )
    print()

print(
    "The joint per-rail model tracks the floor until the amplifier "
    "enters compression at the top of the power range, where every "
    "purely-baseband model runs out of physics."
)
