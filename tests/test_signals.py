"""Tests for signal generation, convolution and IQ files."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsic._rng import substream
from fdsic.signals import (
    ComplexBasebandSignal,
    fir_convolve,
    gen_ofdm_frames,
    gen_tone,
    read_iq,
    write_iq,
)
from fdsic.spectral import measure_line_db, spectrum

FS = 80e6


def direct_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """O(N*L) reference convolution, trimmed to len(x)."""
    out = np.zeros(len(x), dtype=np.complex128)
    for n in range(len(x)):
        acc = 0.0 + 0.0j
        for l, h in enumerate(taps):
            if n - l >= 0:
                acc += h * x[n - l]
        out[n] = acc
    return out


class TestGenTone:
    def test_dc_tone_is_constant(self):
        sig = gen_tone(0.0, 0.5, 16)
        assert np.allclose(sig.samples, 0.5)
        assert math.isclose(np.mean(np.abs(sig.samples) ** 2), 0.25)

    def test_power_matches_amplitude(self):
        sig = gen_tone(1e6, 1.0, 4096)
        assert abs(10 * np.log10(np.mean(np.abs(sig.samples) ** 2))) < 1e-9

    def test_spectral_line_at_tone(self):
        sig = gen_tone(1e6, 1.0, 4096 * 8)
        spec = spectrum(sig, n_fft=4096)
        assert abs(measure_line_db(spec, 1e6) - 0.0) < 0.5

    def test_negative_tone_has_no_positive_image(self):
        sig = gen_tone(-1e6, 1.0, 4096 * 8)
        spec = spectrum(sig, n_fft=4096)
        line = measure_line_db(spec, -1e6)
        image = spec.power_db[spec.nearest_bin(+1e6)]
        assert line > -0.5
        assert image - line < -100.0


class TestGenOfdmFrames:
    def test_unit_power_and_determinism(self):
        a = gen_ofdm_frames(5, 11)
        b = gen_ofdm_frames(5, 11)
        assert np.array_equal(a.samples, b.samples)
        assert abs(10 * np.log10(np.mean(np.abs(a.samples) ** 2))) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_papr_near_10_db(self, seed):
        # The absolute-max PAPR of 100 oversampled 512-tone frames sits at
        # 11.3 +- 0.5 dB across seeds (extreme-value statistics); the
        # nominal budget figure of ~10 dB refers to the same waveform, so
        # accept the band around both.
        power = np.abs(gen_ofdm_frames(100, seed).samples) ** 2
        assert 8.5 <= 10 * np.log10(np.max(power) / np.mean(power)) <= 12.0

    def test_frame_format(self):
        # Every 4096-sample frame at 80 MHz is one IFFT block: QPSK symbols
        # times one common scale on the 512 centered tone bins (+-5 MHz),
        # and nothing on any other bin.
        sig = gen_ofdm_frames(6, 7)
        assert sig.sample_rate == FS and len(sig) == 6 * 4096
        grid = np.fft.fft(sig.samples.reshape(6, 4096), axis=1)
        tone_bins = np.arange(-256, 256) % 4096
        off_tone = np.ones(4096, dtype=bool)
        off_tone[tone_bins] = False
        assert np.all(np.abs(grid[:, off_tone]) <= 1e-9 * np.max(np.abs(grid)))
        tones = grid[:, tone_bins]
        symbols = tones / np.mean(np.abs(tones)) * np.sqrt(2)
        assert np.allclose(np.abs(symbols.real), 1, rtol=0, atol=1e-9)
        assert np.allclose(np.abs(symbols.imag), 1, rtol=0, atol=1e-9)

    def test_occupied_band_power_fraction(self):
        def in_band_fraction(spec):
            lin = spec.power_linear()
            band = np.abs(spec.bin_freqs) <= 5e6 + spec.bin_spacing / 2
            return np.sum(lin[band]) / np.sum(lin)

        sig = gen_ofdm_frames(100, 5)
        # Each frame is periodic on the analysis grid, so a frame-aligned
        # FFT resolves the exact line spectrum.
        freqs = np.fft.fftfreq(4096, d=1.0 / FS)
        band = np.abs(freqs) <= 5e6 + FS / 4096 / 2
        for start in (0, 4096, 50 * 4096):
            lines = np.abs(np.fft.fft(sig.samples[start : start + 4096])) ** 2
            assert np.sum(lines[band]) / np.sum(lines) > 0.999
        # The windowed whole-capture view adds frame-boundary and window
        # leakage but stays strongly band-confined.
        assert in_band_fraction(spectrum(sig, n_fft=4096)) > 0.995


class TestSubstream:
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_seed_and_label_hashes_seed_the_stream(self, seed):
        label = int.from_bytes(hashlib.sha256(b"thermal-noise").digest()[:8], "little")
        expected = np.random.default_rng(np.random.SeedSequence([int(seed), label]))
        drawn = substream(seed, "thermal-noise").standard_normal(4)
        assert np.array_equal(drawn, expected.standard_normal(4))


class TestFirConvolve:
    def test_identity(self):
        sig = gen_tone(1e6, 0.7, 128).samples
        out = fir_convolve(sig, [1.0])
        assert np.allclose(out, sig)

    def test_single_delay_shift_theorem(self):
        f = 2.5e6
        sig = gen_tone(f, 1.0, 256).samples
        out = fir_convolve(sig, [0.0, 1.0])
        expected_rot = np.exp(-2j * np.pi * f / FS)
        ratio = out[1:] / sig[1:]
        assert np.allclose(ratio, expected_rot, atol=1e-12)
        assert out[0] == 0.0

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        taps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        out = fir_convolve(x, taps)
        ref = direct_convolve(x, taps)
        assert np.max(np.abs(out - ref)) / np.max(np.abs(ref)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=1024),
        l=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_direct_sum_property(self, n, l, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        taps = rng.standard_normal(l) + 1j * rng.standard_normal(l)
        out = fir_convolve(x, taps)
        ref = direct_convolve(x, taps)
        scale = max(np.max(np.abs(ref)), 1e-30)
        assert np.max(np.abs(out - ref)) / scale < 1e-12

class TestIqFile:
    def test_roundtrip_exact(self, tmp_path):
        frames = gen_ofdm_frames(2, 9)
        # A capture's header is where a rate other than the simulator's
        # comes in: it reads back, and its spectrum spans that rate.
        for sig, last_bin in [
            (frames, 39_980_468.75),
            (ComplexBasebandSignal(frames.samples, 40e6), 19_990_234.375),
        ]:
            path = tmp_path / "capture.iq"
            write_iq(sig, path)
            back = read_iq(path)
            assert back.sample_rate == sig.sample_rate
            assert np.array_equal(back.samples, sig.samples)
            freqs = spectrum(back, n_fft=4096).bin_freqs
            assert (freqs[0], freqs[-1]) == (-sig.sample_rate / 2, last_bin)

    def test_header_contents(self, tmp_path):
        sig = gen_tone(1e6, 1.0, 64)
        path = tmp_path / "tone.iq"
        write_iq(sig, path)
        header = (tmp_path / "tone.iq.hdr").read_text()
        assert "sample_rate_hz=80000000.0" in header
        assert "length=64" in header
        assert path.stat().st_size == 64 * 16
