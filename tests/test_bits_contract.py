"""The bits contract: each fast path that keeps a plain formula's bits is one row.

``BITS`` maps a name to ``(fast, plain)``. Each side takes the test's
``tmp_path`` and returns a tuple of values: ``fast`` runs a device of the
library, ``plain`` the formula whose bits it keeps, and each pair must be
:func:`same_bits`. An input the device must leave alone is returned by
``fast`` after the call and by ``plain`` as built. A row whose input must
have a property (it clips, its split lies past ``MAX_TRAIN_SAMPLES``)
asserts it in its own side. A row's name starts with its device.

One known exception: the prefix rows start at length 2. At length 1
numpy's in-place complex multiply rounds unlike its vector loop, so the
phase noise of ``x[:1]`` may differ in the last bit from the first sample
of a longer call's.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from helpers_oracles import (
    antenna_input, apply_dac_oracle, apply_iq_oracle, apply_pa_oracle, converter_oracle,
    dense_regressor, fir_convolve_oracle, iq_bytes_oracle, random_signal, receive_every_row,
    receiver_oracle, spectrum_csv_oracle, transmit_samples,
)
from fdsic import cancellers
from fdsic._rng import substream
from fdsic.cancellers import (
    DEFAULT_SPECS, FIT_BLOCK_ROWS, MAX_TRAIN_SAMPLES, CancellerMethod, CancellerSpec,
    _fill_regressor, _geqrf, _ls_factor, build_basis,
)
from fdsic.impairments import (
    CHAIN_BLOCK, REF_DRIVE_RMS, ChannelAndReceiver, DacNonlinearity, IqImbalance,
    PaNonlinearity, PhaseNoiseSpec, apply_dac, apply_iq, apply_pa, apply_phase_noise, receive,
    simulate_received, thermal_noise, transmit_front_end, _code_dtype, _decode, _quantize,
)
from fdsic.presets import PHASE_NOISE_LINEWIDTH_HZ, PRESET_NAMES, PRESETS, load_preset
from fdsic.signals import (
    SAMPLE_RATE, ComplexBasebandSignal, fir_convolve, gen_tone, read_iq, write_iq,
)
from fdsic.spectral import Spectrum, spectrum, write_spectrum_csv


def same_bits(a, b) -> bool:
    """Arrays: equal dtype, shape and bytes in C order, so signed zeros count
    and a column-major block compares with its row-major twin. Anything else
    (``bytes``, Python scalars): equal type and ``==``."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def complex_normal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def stage_input(n: int, seed: int, rms: float = 0.3) -> np.ndarray:
    """Complex Gaussian samples with signed zeros on either rail."""
    rng = np.random.default_rng(seed)
    x = rms / math.sqrt(2) * complex_normal(rng, n)
    x[[0, 7, 8, 9]] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    return x


def sides(make, fast, plain):
    """The row ``fast(tmp, *make())``, ``plain(tmp, *make())``: each side builds its inputs."""
    return lambda tmp: fast(tmp, *make()), lambda tmp: plain(tmp, *make())


def out_of_place(run, oracle, make):
    """The row of ``run``, which must return a new array with ``oracle``'s
    bits and leave the input ``x`` of ``make() = (x, *params)`` unchanged."""
    def fast(tmp, x, *params):
        out = run(x, *params)
        return out, x, np.shares_memory(out, x)

    return sides(make, fast, lambda tmp, x, *params: (oracle(x, *params), x, False))


def received(r, diag):
    """Received samples, of a signal or an array, and the receiver summary."""
    return getattr(r, "samples", r), *dataclasses.astuple(diag)


def phase_noise_row(n, shared):
    # The rotation from its cosine and sine keeps the bits of the complex
    # exponential, with the phasor as the product's first operand below and
    # above numpy's 256 KiB temporary elision (which, when it applies, takes
    # that same order).
    pn = PhaseNoiseSpec(PHASE_NOISE_LINEWIDTH_HZ, shared, 1)

    def plain(tmp):
        sigma = math.sqrt(2.0 * math.pi * pn.linewidth / SAMPLE_RATE)
        if shared:
            path = np.cumsum(substream(3, "phase-noise-shared").normal(0.0, sigma, n + 1))
            rotation = path[1:] - path[:n]
        else:
            phi_tx = np.cumsum(substream(3, "phase-noise-tx").normal(0.0, sigma, n))
            rotation = phi_tx - np.cumsum(substream(3, "phase-noise-rx").normal(0.0, sigma, n))
        return (np.exp(1j * rotation) * stage_input(n, 5),)

    return lambda tmp: (apply_phase_noise(stage_input(n, 5), pn, 3),), plain


def front_end_prefix_row(preset):
    # The lengths lie on both sides of numpy's 256 KiB (16 384-sample)
    # temporary elision: no sample's bits depend on the signal's length.
    lengths = (2, 4096, 16383, 16384, 65536)
    return sides(
        lambda: (stage_input(65536 + 7, 11, rms=REF_DRIVE_RMS), load_preset(preset)),
        lambda tmp, x, cfg: tuple(transmit_front_end(x[:m], cfg, 3) for m in lengths),
        lambda tmp, x, cfg: tuple(transmit_front_end(x, cfg, 3)[:m] for m in lengths),
    )


def adc_codes_row(bits):
    # Integer codes, then decoded samples, against the float converter. Hot
    # samples on either sign of each rail clip at both ends; the full-scale
    # edges sit on either side of the last code.
    chan, scale, edge = ChannelAndReceiver(h_si=[1.0], adc_bits=bits), 0.37, 1.0 / 0.37

    def analog():
        x = stage_input(4096, bits, rms=0.3 / scale)
        x[100:104] = [40.0 + 1j, -40.0 - 1j, 1.0 + 40j, -1.0 - 40j]
        x[200:204] = [edge, -edge, 1j * np.nextafter(edge, 0.0), -1j * np.nextafter(edge, 0.0)]
        return (x,)

    def fast(tmp, x):
        codes = np.empty((len(x), 2), dtype=_code_dtype(chan))
        clipped = _quantize(x, scale, chan, codes)
        assert list(codes.min(axis=0)) == [-(2 ** (bits - 1))] * 2
        assert list(codes.max(axis=0)) == [2 ** (bits - 1) - 1] * 2
        return codes, clipped, _decode(codes, scale, chan)

    def plain(tmp, x):
        rails, digitized, clipped = converter_oracle(x, scale, chan)
        return np.column_stack(rails).astype("int16" if bits <= 16 else "int32"), clipped, digitized

    return sides(analog, fast, plain)


def adc_decode_per_column():
    chan, scales = ChannelAndReceiver(h_si=[1.0], adc_bits=14), np.array([0.8, 3.0])

    def fast(tmp, analog):
        codes = np.empty((2, 500, 2), dtype=np.int16)
        for k in range(2):
            _quantize(analog[:, k], scales[k], chan, codes[k])
        return (_decode(codes, scales, chan),)

    return sides(lambda: (stage_input(1000, 9).reshape(500, 2),), fast, lambda tmp, analog: (
        np.stack([converter_oracle(analog[:, k], scales[k], chan)[1] for k in range(2)]),))


def chain_block_row(stage, n, filters, clips):
    """fig7_20dbm's chain at length ``n``: ``stage`` "receive" the whole chain
    at the preset's power and seed 3, "channel-and-receiver" the channel and
    receiver alone on antenna-referred samples at seed 2. "long" ``filters``
    (7 SI channel taps, 3 RX IQ taps) need more history per block than the
    preset's 4 + 1. When ``clips``, sparse peaks, some on block edges, overload the ADC."""
    def inputs():
        cfg = load_preset("fig7_20dbm")
        if filters == "long":
            h_si = cfg.chan.h_si[0] * np.array([1.0, 0.4j, -0.2, 0.1 - 0.1j, 0.05, -0.02j, 0.01])
            cfg = dataclasses.replace(
                cfg, chan=dataclasses.replace(cfg.chan, h_si=h_si),
                rx_iq=IqImbalance([1.0, 0.05 - 0.02j, -0.01j], [0.03 + 0.01j, 0.0, 0.005]),
            )
        if stage == "receive":
            v = stage_input(n, n + 1, rms=REF_DRIVE_RMS)
            if clips:
                v[::512] *= 20.0
            return v, cfg, PRESETS["fig7_20dbm"][0], 3
        x = stage_input(n, n, rms=3.0)
        if clips:
            x[::512] *= 200.0
        return *antenna_input(x, cfg.chan, cfg.rx_iq), 2

    def fast(tmp, v, cfg, power, seed):
        values = received(*receive_every_row(v, cfg, power, seed))
        assert (values[1] > 0) == clips
        return *values, v

    return sides(inputs, fast, lambda tmp, v, *args: (*receiver_oracle(v, *args, 0, 0), v))


def tone_inputs():
    # fig5_m10dbm's front end has phase noise and TX IQ imbalance.
    cfg = load_preset("fig5_m10dbm")
    assert cfg.pn.linewidth > 0 and np.any(cfg.tx_iq.delta)
    return gen_tone(SAMPLE_RATE / 4096 * 64, 0.2, 8192), cfg


def receive_two_powers(tmp, sig, cfg):
    _, rows, _ = receive(sig.samples, cfg, [-10.0, 22.0], 6, 0, 0)
    return rows[:, 0], rows[:, 1]


def receive_rows_row(n_frames, frames_seed, seed, powers, bits, check):
    """The rows a sweep of ``n_frames`` sweep_40db frames of ``frames_seed``
    digitizes at ``powers`` and ``seed``, its ADC at ``bits`` bits (the
    preset's when ``None``), and their code width: each power's rows decode
    to an every-row receive's, and its summary is that receive's AGC scale
    and :func:`receiver_oracle`'s clips and floor. ``check(split, held)``."""
    def inputs():
        cfg = load_preset("sweep_40db")
        if bits is not None:
            cfg = dataclasses.replace(cfg, chan=dataclasses.replace(cfg.chan, adc_bits=bits))
        x = transmit_samples(n_frames, frames_seed)
        split = n_frames // 2 * (len(x) // n_frames)
        return x, cfg, split, min(split, MAX_TRAIN_SAMPLES)

    def fast(tmp, x, cfg, split, fit_len):
        train, held, receivers = receive(x, cfg, powers, seed, fit_len, split)
        assert check(split, held) and train.shape == (fit_len, len(powers))
        return train.codes.dtype.name, held.codes.dtype.name, *(
            value for k, diag in enumerate(receivers)
            for value in (train[:, k], held[:, k], *dataclasses.astuple(diag)))

    def plain(tmp, x, cfg, split, fit_len):
        values = ["int16" if cfg.chan.adc_bits <= 16 else "int32"] * 2
        for power in powers:
            r, diag = receive_every_row(x, cfg, power, seed)
            _, clips, _, floor = receiver_oracle(x, cfg, power, seed, fit_len, split)
            values += [r[:fit_len], r[split:], clips, diag.agc_scale, floor]
        return tuple(values)

    return sides(inputs, fast, plain)


def fir_input(seed, n, taps=None):
    """``n`` samples and, unless given, as many taps as ``seed``, with signed
    zeros in the samples."""
    rng = np.random.default_rng(seed)
    x = complex_normal(rng, n)
    if taps is not None:
        return x, taps
    x[[3, 50, 51]] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]
    return x, complex_normal(rng, seed)


def iq_signals():
    """Signed zeros and extreme values, and a strided view, which the signal
    stores contiguously."""
    wide = complex_normal(np.random.default_rng(4), 40)
    wide[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), 1e300 - 1e-300j, -5e-324 + 1j]
    return [ComplexBasebandSignal(samples, SAMPLE_RATE) for samples in (wide, wide[::2])]


def csv_bytes(write, tag):
    """The side that writes with ``write(spec, path)`` signed zeros, negative frequencies,
    values that round to -0 and large values, and a real spectrum."""
    def side(tmp):
        odd = Spectrum(
            np.array([-4.0e7, -1.5, -1e-9, -0.0, 2.5e-7, 3.999999999e7]),
            np.array([-0.0, -300.0, 12345678.9, -4e-7, 0.0, 1e300]),
        )
        for k, spec in enumerate((odd, spectrum(gen_tone(1e6, 1.0, 4096), n_fft=1024))):
            write(spec, tmp / f"{tag}{k}.csv")
        return tuple((tmp / f"{tag}{k}.csv").read_bytes() for k in range(2))

    return side


def fill_regressor_row(spec, start, stop):
    # [0, 5) and [3, 40) start inside the zero history before sample 0.
    def fast(tmp, bases, taps):
        out = np.empty((stop - start, len(bases) * taps), dtype=np.complex128, order="F")
        _fill_regressor(out, bases, start, stop, taps)
        return (out,)

    return sides(lambda: (build_basis(random_signal(9000, 55), spec), spec.channel_len), fast,
                 lambda tmp, bases, taps: (dense_regressor(bases, 9000, taps)[start:stop],))


def geqrf_blocks(kind):
    """``[(buf, rows)]``: a full 4096-row block, 1000 rows of a longer buffer, or
    each block the packed joint-dac-iq fit of 9001 rows factors, copied before
    ``_geqrf`` runs on it; the second is odd."""
    if kind != "packed":
        a = complex_normal(np.random.default_rng(59), (4288, 194))
        if kind == "full":
            return [(np.asfortranarray(a[:4096]), 4096)]
        return [(np.asfortranarray(a), 1000)]
    blocks, n, spec = [], 9001, DEFAULT_SPECS[3]

    def record(buf, rows):
        blocks.append((buf.copy(order="F"), rows))
        return _geqrf(buf, rows)

    bases = build_basis(random_signal(n, 60), spec)
    with mock.patch.object(cancellers, "_geqrf", wraps=record) as spy:
        factor = _ls_factor(random_signal(n, 61)[:, np.newaxis], bases, spec.channel_len)
    assert factor.packed and spy.call_count == -(-n // (2 * FIT_BLOCK_ROWS))
    return blocks


def geqrf_row(kind):
    # lapack_lite is the LAPACK numpy.linalg itself calls, so the in-place
    # factor keeps np.linalg.qr's bits.
    def fast(tmp, blocks):
        for buf, rows in blocks:
            _geqrf(buf, rows)
        return tuple(np.triu(buf[: min(rows, buf.shape[1])]) for buf, rows in blocks)

    return sides(lambda: (geqrf_blocks(kind),), fast, lambda tmp, blocks: tuple(
        np.linalg.qr(buf[:rows], mode="r") for buf, rows in blocks))


BITS = {
    # Each stage with a preset's parameters: its config field of that name.
    **{f"stage-{stage}-{preset}": out_of_place(run, oracle, lambda stage=stage, preset=preset: (
        stage_input(4096, len(preset)), getattr(load_preset(preset), stage)))
       for stage, run, oracle in [
           ("dac", apply_dac, apply_dac_oracle), ("tx_iq", apply_iq, apply_iq_oracle),
           ("rx_iq", apply_iq, apply_iq_oracle), ("pa", apply_pa, apply_pa_oracle)]
       for preset in PRESET_NAMES},
    # Drawn into one buffer and scaled in place: the bits of the out-of-place
    # sum and product.
    **{f"thermal-noise-{n}": (
        lambda tmp, n=n: (
            thermal_noise(n, ChannelAndReceiver(h_si=[1.0], thermal_noise_dbfs=-90.0), 7),),
        lambda tmp, n=n: (10.0 ** (-90.0 / 20.0) / math.sqrt(2.0)
                          * complex_normal(substream(7, "thermal-noise"), n),))
       for n in (1, 40960, 65536)},
    **{f"phase-noise-{'shared' if shared else 'independent'}-{n}": phase_noise_row(n, shared)
       for shared in (True, False) for n in (4096, 65536)},
    "front-end-prefix-shared": front_end_prefix_row("sweep_40db"),
    "front-end-prefix-independent": front_end_prefix_row("fig4_m10dbm_indosc"),
    # Zero middle coefficients make the Horner steps produce signed zeros.
    "dac-zero-coefficients": out_of_place(apply_dac, apply_dac_oracle, lambda: (
        stage_input(2048, 3), DacNonlinearity([1.0, 0.0, -0.2, 0.0], [0.9, 0.0, 0.0, 0.05]))),
    "pa-zero-coefficients": out_of_place(
        apply_pa, apply_pa_oracle, lambda: (stage_input(2048, 3), PaNonlinearity([1.0, 0.0, -0.3]))
    ),
    **{f"adc-codes-{bits}-bits": adc_codes_row(bits) for bits in (4, 14, 16, 17, 24)},
    "adc-decode-one-scale-per-column": adc_decode_per_column(),
    **{f"chain-block-{stage}-{n}-{filters}-{'clipping' if clips else 'in-range'}":
       chain_block_row(stage, n, filters, clips)
       for stage in ("channel-and-receiver", "receive")
       for n in (CHAIN_BLOCK - 1, CHAIN_BLOCK, CHAIN_BLOCK + 1, 2 * CHAIN_BLOCK + 5)
       for filters in ("preset", "long") for clips in (False, True)},
    "simulate-received-is-one-every-row-receive": sides(
        tone_inputs, lambda tmp, sig, cfg: received(*simulate_received(sig, cfg, -10.0, seed=6)),
        lambda tmp, sig, cfg: received(*receive_every_row(sig.samples, cfg, -10.0, 6))),
    # One front end serves every power: receive at two powers has the bits of
    # simulate_received at each.
    "receive-powers-share-one-front-end": sides(
        tone_inputs, receive_two_powers, lambda tmp, sig, cfg: tuple(
            simulate_received(sig, cfg, power, seed=6)[0].samples for power in (-10.0, 22.0))),
    # 40 frames: rows [65 536, 81 920) feed the AGC but are never digitized.
    "receive-rows-past-max-train": receive_rows_row(
        40, 61, 62, [-10.0, 6.0, 22.0], None, lambda split, held: split > MAX_TRAIN_SAMPLES),
    # The gain ranging reaches codes beyond int16 at 20 bits.
    "receive-rows-int32-codes-at-20-bits": receive_rows_row(
        10, 67, 68, [-10.0, 22.0], 20,
        lambda split, held: np.max(np.abs(held.codes)) > np.iinfo(np.int16).max),
    **{f"fir-convolve-{n_taps}-taps": out_of_place(
        fir_convolve, fir_convolve_oracle, lambda n_taps=n_taps: fir_input(n_taps, 300))
       for n_taps in (1, 2, 4)},
    "fir-convolve-leaves-input-unchanged": out_of_place(
        fir_convolve, fir_convolve_oracle, lambda: fir_input(7, 64, [0.5, 0.25j, -0.1])),
    # A signed zero on either rail, and a subnormal, come back as written.
    "iq-file-roundtrip": sides(
        lambda: (ComplexBasebandSignal(np.array(
            [complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0), 5e-324 - 2.5j]),
            SAMPLE_RATE),),
        lambda tmp, sig: (read_iq(write_iq(sig, tmp / "zeros.iq")).samples,),
        lambda tmp, sig: (sig.samples,),
    ),
    "iq-file-bytes-are-the-explicit-interleave": (
        lambda tmp: tuple(write_iq(sig, tmp / f"x{k}.iq").read_bytes()
                          for k, sig in enumerate(iq_signals())),
        lambda tmp: tuple(iq_bytes_oracle(sig.samples) for sig in iq_signals()),
    ),
    "spectrum-csv-bytes": (
        csv_bytes(write_spectrum_csv, "ours"), csv_bytes(spectrum_csv_oracle, "oracle")),
    **{f"fill-regressor-{spec.method.value}-{start}-{stop}": fill_regressor_row(spec, start, stop)
       for spec in (CancellerSpec(CancellerMethod.LINEAR),
                    CancellerSpec(CancellerMethod.WIDELY_LINEAR),
                    CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=3))
       for start, stop in [(0, 5), (3, 40), (4096, 8192), (8190, 9000)]},
    "geqrf-full-block": geqrf_row("full"),
    "geqrf-block-shorter-than-buffer": geqrf_row("short"),
    "geqrf-packed-joint-blocks": geqrf_row("packed"),
}


@pytest.mark.parametrize("name", sorted(BITS))
def test_same_bits(tmp_path, name):
    fast, plain = BITS[name]
    got, want = fast(tmp_path), plain(tmp_path)
    assert len(got) == len(want)
    assert [k for k, (a, b) in enumerate(zip(got, want)) if not same_bits(a, b)] == []


def test_same_bits_tells_every_bit_apart():
    zeros = np.zeros(4)
    assert same_bits(np.asfortranarray(np.eye(3)), np.eye(3)) and same_bits(b"\x00", b"\x00")
    assert not same_bits(zeros, -zeros) and not same_bits(zeros, zeros.astype(np.float32))
    assert not same_bits(zeros, zeros.reshape(2, 2)) and not same_bits(zeros, 0.0)
    assert not same_bits(zeros.astype(np.int64), zeros.astype(np.uint64))
    assert same_bits(2, 2) and not same_bits(1, 1.0) and not same_bits(b"a", "a")
