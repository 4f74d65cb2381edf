"""Tests for the averaged periodogram and line measurement."""

import numpy as np
import pytest

from helpers_oracles import spectrum_csv_oracle
from fdsic.analysis import predict_harmonics, verify_harmonics
from fdsic.signals import ComplexBasebandSignal, gen_tone
from fdsic.spectral import (
    Spectrum,
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

    def test_rejects_nfft_above_length(self):
        sig = gen_tone(1e6, 1.0, 512)
        with pytest.raises(ValueError, match="exceeds"):
            spectrum(sig, n_fft=1024)

    def test_rejects_nfft_below_two(self):
        sig = gen_tone(1e6, 1.0, 512)
        with pytest.raises(ValueError, match="^n_fft must be >= 2$"):
            spectrum(sig, n_fft=1)

    def test_rejects_bad_averaging(self):
        sig = gen_tone(1e6, 1.0, 4096)
        with pytest.raises(ValueError, match="averaging"):
            spectrum(sig, n_fft=4096, averaging=2)

    @pytest.mark.parametrize(
        ("kwargs", "name"),
        [({"n_fft": 4096.0}, "n_fft"), ({"n_fft": 4096, "averaging": True}, "averaging")],
        ids=["n_fft-float", "averaging-bool"],
    )
    def test_count_of_wrong_type_is_rejected(self, kwargs, name):
        sig = gen_tone(1e6, 1.0, 8192)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            spectrum(sig, **kwargs)

    # The other counts of a tone test: the tone's length and the harmonic orders.
    @pytest.mark.parametrize(
        ("call", "name"),
        [
            (lambda spec: gen_tone(1e6, 0.5, 100.5), "n_samples"),
            (lambda spec: gen_tone(1e6, 0.5, True), "n_samples"),
            (lambda spec: verify_harmonics(spec, 1e6, m_max=True), "m_max"),
            (lambda spec: verify_harmonics(spec, 1e6, m_max=3.0), "m_max"),
            (lambda spec: predict_harmonics(2.5, 1e6), "m"),
            (lambda spec: predict_harmonics(True, 1e6), "m"),
        ],
        ids=[
            "n_samples-fraction", "n_samples-bool", "m_max-bool", "m_max-float",
            "m-fraction", "m-bool",
        ],
    )
    def test_tone_test_count_of_wrong_type_is_rejected(self, call, name):
        spec = spectrum(gen_tone(1e6, 1.0, 8192))
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(spec)

    def test_bin_axis_symmetric_and_increasing(self):
        sig = gen_tone(1e6, 1.0, 8192)
        spec = spectrum(sig, n_fft=4096)
        assert np.all(np.diff(spec.bin_freqs) > 0)
        assert spec.bin_freqs[0] == -FS / 2
        assert abs(spec.bin_freqs[spec.nearest_bin(0.0)]) < 1e-9


class TestSpectrumType:
    def test_rejects_unsorted_bins(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, -1.0]), np.array([0.0, 0.0]))

    def test_rejects_nonfinite_power(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 1.0]), np.array([0.0, -np.inf]))

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError, match="must be matching 1-D arrays"):
            Spectrum(np.arange(3.0), np.zeros(4))


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

    def test_skirt_needs_bins_outside_the_line_lobe(self):
        # Four bins all lie within the tone's +-3-bin main lobe.
        spec = spectrum(gen_tone(0.0, 1.0, 4), n_fft=4)
        message = "^search window contains no bins outside the line lobe$"
        with pytest.raises(ValueError, match=message):
            skirt_peak_dbc(spec, 0.0)

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

    def test_same_bytes_as_csv_writer(self, tmp_path):
        # Signed zeros, negative frequencies, values that round to -0 and
        # large values, plus a real spectrum.
        odd = Spectrum(
            np.array([-4.0e7, -1.5, -1e-9, -0.0, 2.5e-7, 3.999999999e7]),
            np.array([-0.0, -300.0, 12345678.9, -4e-7, 0.0, 1e300]),
        )
        real = spectrum(gen_tone(1e6, 1.0, 4096), n_fft=1024)
        for k, spec in enumerate((odd, real)):
            ours = write_spectrum_csv(spec, tmp_path / f"ours{k}.csv").read_bytes()
            spectrum_csv_oracle(spec, tmp_path / f"oracle{k}.csv")
            assert ours == (tmp_path / f"oracle{k}.csv").read_bytes()

    def test_deterministic_bytes(self, tmp_path):
        sig = gen_tone(1e6, 1.0, 4096)
        spec = spectrum(sig, n_fft=1024)
        a = write_spectrum_csv(spec, tmp_path / "a.csv").read_bytes()
        b = write_spectrum_csv(spec, tmp_path / "b.csv").read_bytes()
        assert a == b
