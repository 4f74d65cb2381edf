#!/usr/bin/env python3
"""IQ capture files and offline spectral analysis.

Received baseband is exchanged as raw interleaved float64 I/Q with a
small text sidecar header; spectra travel as two-column CSV. This demo
simulates a capture, round-trips it through the file format, and writes
the spectrum a downstream plotting tool would consume.
"""

import tempfile
from pathlib import Path

import numpy as np

from fdsic import gen_tone, read_iq, simulate_received, spectrum, write_iq
from fdsic.presets import TONE_AMPLITUDE, TONE_FREQ, load_preset
from fdsic.spectral import write_spectrum_csv

print(__doc__)

with tempfile.TemporaryDirectory(prefix="fdsic-demo-") as tmp:
    workdir = Path(tmp)
    tone = gen_tone(TONE_FREQ, TONE_AMPLITUDE, 4096 * 8)
    received, _ = simulate_received(tone, load_preset("fig5_m10dbm"), -10.0, seed=7)

    iq_path = write_iq(received, workdir / "capture.iq")
    print(f"wrote {iq_path} ({iq_path.stat().st_size} bytes)")
    print((workdir / "capture.iq.hdr").read_text())

    loopback = read_iq(iq_path)
    assert np.array_equal(loopback.samples, received.samples)
    print("read back bit-exact:", len(loopback), "samples at", loopback.sample_rate, "Hz")

    csv_path = write_spectrum_csv(spectrum(loopback, n_fft=4096), workdir / "spectrum.csv")
    head = csv_path.read_text().splitlines()
    print(f"\nwrote {csv_path}; first rows:")
    for line in head[:4]:
        print(" ", line)
