#!/usr/bin/env python3
"""One-tone impairment signatures.

Push a single tone at +f through the transmitter model and look at where
energy lands in the received spectrum:

* mixer IQ imbalance mirrors the tone to -f;
* matched per-rail DAC polynomials put odd-order products on one side
  only (-3f for order 3) and even-order products symmetrically at +-2f;
* at high drive the amplifier mixes the tone with its own image and the
  DAC products, lighting up +3f and +5f and raising the floor.

The predict/verify pair automates reading such a spectrum.
"""

from fdsic import gen_tone, predict_harmonics, simulate_received, spectrum, verify_harmonics
from fdsic.presets import PRESETS, TONE_AMPLITUDE, TONE_FREQ, load_preset
from fdsic.spectral import floor_estimate_db, measure_line_db

print(__doc__)

print("Closed-form line predictions for a tone at f:")
for m in range(1, 6):
    pred = predict_harmonics(m, 1.0)
    sides = " and ".join(f"{int(f):+d}f" for f in sorted(pred.frequencies))
    tag = " (equal power)" if pred.equal_power else ""
    print(f"  order {m}: {sides}{tag}")
print()

tone = gen_tone(TONE_FREQ, TONE_AMPLITUDE, 4096 * 16)
for name in ("fig5_m10dbm", "fig7_20dbm"):
    power = PRESETS[name][0]
    received, _ = simulate_received(tone, load_preset(name), power, seed=1)
    spec = spectrum(received, n_fft=4096)
    carrier = measure_line_db(spec, TONE_FREQ)
    print(f"--- scenario {name} (tx {power:+.0f} dBm) ---")
    for mult in (-3, -2, -1, 2, 3, 5):
        level = measure_line_db(spec, mult * TONE_FREQ) - carrier
        print(f"  {mult:+d}f: {level:7.1f} dBc")
    floor = floor_estimate_db(spec) - carrier
    print(f"  median per-bin floor: {floor:7.1f} dBc")
    checks = verify_harmonics(spec, TONE_FREQ, m_max=3)
    verdict = ", ".join(f"m={c.order}:{'ok' if c.passed else 'FAIL'}" for c in checks)
    print(f"  verification: {verdict}")
    print()

print(
    "Note the one-sided third-order product: -3f carries a strong line "
    "while +3f only fills in at high drive, where the amplifier mixes "
    "the tone with its mirror image."
)
