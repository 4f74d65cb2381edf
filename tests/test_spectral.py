"""Tests for the averaged periodogram and line measurement."""

import numpy as np

from fdsic.signals import ComplexBasebandSignal, gen_tone
from fdsic.spectral import (
    floor_estimate_db,
    measure_line_db,
    skirt_peak_dbc,
    spectrum,
    write_spectrum_csv,
)

FS = 80e6


class TestSpectrumEstimator:
    def test_parseval_on_tone(self):
        sig = gen_tone(1.25e6, 0.8, 4096 * 8)
        spec = spectrum(sig, n_fft=4096)
        assert abs(10 * np.log10(np.sum(spec.power_linear())) - 20 * np.log10(0.8)) < 0.1

    def test_parseval_on_white_noise(self):
        errs = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            x = (rng.standard_normal(4096 * 12) + 1j * rng.standard_normal(4096 * 12)) * 0.05
            sig = ComplexBasebandSignal(x, FS)
            spec = spectrum(sig, n_fft=4096)
            time_power = 10 * np.log10(np.mean(np.abs(x) ** 2))
            errs.append(10 * np.log10(np.sum(spec.power_linear())) - time_power)
        assert abs(np.mean(errs)) < 0.1

    def test_white_noise_is_flat(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4096 * 32) + 1j * rng.standard_normal(4096 * 32)
        spec = spectrum(ComplexBasebandSignal(x, FS), n_fft=1024)
        spread = np.percentile(spec.power_db, 95) - np.percentile(spec.power_db, 5)
        assert spread < 3.0

    def test_tone_line_reading_compensates_window(self):
        sig = gen_tone(1.25e6, 1.0, 4096 * 8)
        spec = spectrum(sig, n_fft=4096)
        assert abs(measure_line_db(spec, 1.25e6)) < 0.5

    def test_zero_signal_floor_is_finite(self):
        sig = ComplexBasebandSignal(np.zeros(8192, dtype=complex), FS)
        spec = spectrum(sig, n_fft=1024)
        assert np.all(np.isfinite(spec.power_db))
        assert np.max(spec.power_db) <= -290.0

    # The other counts of a tone test: the tone's length and the harmonic orders.
    def test_bin_axis_symmetric_and_increasing(self):
        sig = gen_tone(1e6, 1.0, 8192)
        spec = spectrum(sig, n_fft=4096)
        assert np.all(np.diff(spec.bin_freqs) > 0)
        assert spec.bin_freqs[0] == -FS / 2
        assert abs(spec.bin_freqs[spec.nearest_bin(0.0)]) < 1e-9


class TestMeasurements:
    def test_skirt_excludes_line_lobe(self):
        rng = np.random.default_rng(3)
        tone = gen_tone(1.25e6, 1.0, 4096 * 16)
        noisy = tone.with_samples(
            tone.samples
            + 0.001 * (rng.standard_normal(len(tone)) + 1j * rng.standard_normal(len(tone)))
        )
        spec = spectrum(noisy, n_fft=4096)
        skirt = skirt_peak_dbc(spec, 1.25e6)
        # noise sits ~ -60 dBc total, spread over 4096 bins
        assert -100.0 < skirt < -80.0

    def test_floor_estimate_tracks_noise(self):
        rng = np.random.default_rng(5)
        x = (rng.standard_normal(4096 * 8) + 1j * rng.standard_normal(4096 * 8)) * 1e-3
        spec = spectrum(ComplexBasebandSignal(x, FS), n_fft=4096)
        expected = 10 * np.log10(np.mean(np.abs(x) ** 2) / 4096)
        assert abs(floor_estimate_db(spec) - expected) < 2.0


class TestCsvExport:
    def test_header_and_shape(self, tmp_path):
        sig = gen_tone(1e6, 1.0, 4096)
        spec = spectrum(sig, n_fft=1024)
        path = write_spectrum_csv(spec, tmp_path / "spec.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "freq_hz,power_db"
        assert len(lines) == 1 + 1024

    def test_deterministic_bytes(self, tmp_path):
        sig = gen_tone(1e6, 1.0, 4096)
        spec = spectrum(sig, n_fft=1024)
        a = write_spectrum_csv(spec, tmp_path / "a.csv").read_bytes()
        b = write_spectrum_csv(spec, tmp_path / "b.csv").read_bytes()
        assert a == b
