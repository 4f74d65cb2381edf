"""The sweep's work and memory contract, one row per property.

``WORK`` maps a name to ``(spied, measure, expected)``. ``spied`` names a
callable ``(owner, attribute)``, which :func:`spied_sweep` spies on through
:mod:`unittest.mock` over one sweep_55db sweep of ``DEFAULT_SPECS``
(``N_FRAMES``, ``POWERS``, ``SEED``); ``measure`` of its spy must equal
``expected``, or with ``TWIN`` the measure over the sweep's one-power twin.

``PEAKS`` maps a name to ``(run, bound)``. ``run()`` builds its inputs and
returns the work to trace; the tracemalloc peak of that work must lie below
``bound(result)`` bytes, ``result`` being what the work returned.

A change that moves a count or a bound edits its row.
"""

import collections
import contextlib
import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from helpers_oracles import random_signal, transmit_samples

from fdsic import cancellers, impairments
from fdsic.cancellers import (
    DEFAULT_SPECS,
    FIT_BLOCK_ROWS,
    MAX_TRAIN_SAMPLES,
    CancellerMethod,
    _fit_and_score,
    _ls_factor,
    _ls_solve,
    build_basis,
    run_sweep,
)
from fdsic.impairments import CHAIN_BLOCK, receive
from fdsic.presets import load_preset
from fdsic.signals import FRAME_LEN, ComplexBasebandSignal

CFG = load_preset("sweep_55db")
N_FRAMES = 40
POWERS = [-10.0, 6.0, 22.0]
SEED = 49
N = N_FRAMES * FRAME_LEN
# 20 of 40 frames train, capped at MAX_TRAIN_SAMPLES digitized rows.
SPLIT = 20 * FRAME_LEN
FIT_LEN = MAX_TRAIN_SAMPLES
LINEAR, NONLINEAR, WIDELY_LINEAR, JOINT = DEFAULT_SPECS
GEQRF = (cancellers, "_geqrf")


def spy(owner, name):
    """A patch that records each call of ``owner.name`` and runs the original.

    A method of a class must bind ``self``, which only an autospec'd function does.
    """
    original = getattr(owner, name)
    if isinstance(owner, type):
        return mock.patch.object(owner, name, autospec=True, side_effect=original)
    return mock.patch.object(owner, name, wraps=original)


def spied_sweep(spied, powers, specs=DEFAULT_SPECS, n_frames=N_FRAMES, seed=SEED):
    """The reports of a sweep of ``CFG`` and the spies on each of ``spied`` over it."""
    with contextlib.ExitStack() as stack:
        spies = {target: stack.enter_context(spy(*target)) for target in spied}
        reports = run_sweep(CFG, powers, specs, n_frames, seed)
    return reports, spies


def args(spy, i=0):
    """Argument ``i`` of each call ``spy`` recorded."""
    return [call.args[i] for call in spy.call_args_list]


def block_buffer(root, fit_len, n_rhs):
    """The shape of the buffer that streams ``root``'s fit of ``fit_len`` rows
    to ``n_rhs`` powers, and the QR steps that fill it: its triangular factor
    over one block of up to ``FIT_BLOCK_ROWS`` rows, and its columns plus the
    right-hand sides. A joint-dac-iq root packs two real rows into one
    complex row, so each right-hand side takes two columns (Re, Im) and a
    step reads twice the rows."""
    per_row = 2 if root.method is CancellerMethod.JOINT_DAC_IQ else 1
    n_params = root.n_bases * root.channel_len
    rows = n_params + min(FIT_BLOCK_ROWS, -(-fit_len // per_row))
    return (rows, n_params + per_row * n_rhs), -(-fit_len // (per_row * FIT_BLOCK_ROWS))


def qr_steps(roots, fit_len, n_rhs):
    """Per (buffer shape, dtype), the complex QR steps of a sweep's fits when
    each of ``roots`` is factored once."""
    return collections.Counter(
        {(shape, np.dtype(np.complex128)): steps
         for shape, steps in (block_buffer(root, fit_len, n_rhs) for root in roots)}
    )


def qr_calls(spy):
    return collections.Counter((buf.shape, buf.dtype) for buf in args(spy))


def count(spy):
    return spy.call_count


def receive_calls(spy):
    """Per receive call: whether it got the sweep's scaled frames and its
    config, and the powers, seed and rows it got."""
    x = transmit_samples(N_FRAMES, SEED)
    return [
        (got.tobytes() == x.tobytes(), cfg is CFG, list(powers), seed, fit_len, split)
        for got, cfg, powers, seed, fit_len, split in (c.args for c in spy.call_args_list)
    ]


TWIN = object()

# name -> (spied callable, measure(spy), expected)
WORK = {
    # The transmit front end runs once per sweep; the amplifier, which each
    # power drives, once per power and chain block.
    "apply_dac-once": ((impairments, "apply_dac"), count, 1),
    "apply_phase_noise-once": ((impairments, "apply_phase_noise"), count, 1),
    "apply_pa-per-power-and-block": (
        (impairments, "apply_pa"), count, len(POWERS) * -(-N // CHAIN_BLOCK)
    ),
    "thermal-noise-drawn-once": (
        (impairments, "substream"), lambda spy: args(spy, 1).count("thermal-noise"), 1
    ),
    # Samples pass between the chain stages as arrays: a signal is built
    # where the frames enter, not once per stage and power.
    "signal-constructions-flat-in-powers": ((ComplexBasebandSignal, "__post_init__"), count, TWIN),
    # The chain runs in one receive call: the scaled frames, the sweep's
    # seed, the capped training rows and the split.
    "one-receive-call": (
        (cancellers, "receive"), receive_calls, [(True, True, POWERS, SEED, FIT_LEN, SPLIT)]
    ),
    # Each canceller is solved once for every power: one SVD per canceller,
    # as in the one-power twin.
    "one-svd-per-canceller": ((np.linalg, "svd"), count, len(DEFAULT_SPECS)),
    # The frames and every noise are drawn from the substreams of the
    # sweep's one seed.
    "every-substream-at-the-sweep-seed": (
        (np.random, "SeedSequence"), lambda spy: {words[0] for words in args(spy)}, {SEED}
    ),
    # Linear and widely-linear are read off the nonlinear and joint-dac-iq
    # factors, and the joint-dac-iq rails are real, so packed.
    "qr-steps-per-family-root": (
        GEQRF, qr_calls, qr_steps((NONLINEAR, JOINT), FIT_LEN, len(POWERS))
    ),
    # All fits first, one build per family root, then one sample per spec
    # for its labels, then per held-out frame each spec's scoring bases:
    # the frame plus the taps - 1 samples of history before it.
    "scoring-bases-cover-only-held-rows": (
        (cancellers, "build_basis"),
        lambda spy: [len(x) for x in args(spy)],
        [FIT_LEN] * 2 + [1] * len(DEFAULT_SPECS) + [
            FRAME_LEN + spec.channel_len - 1
            for _ in range(SPLIT, N, FRAME_LEN)
            for spec in DEFAULT_SPECS
        ],
    ),
}


@pytest.fixture(scope="module")
def spies():
    """Each spied callable's spy over the sweep and over its one-power twin."""
    spied = {target for target, _, _ in WORK.values()}
    return spied_sweep(spied, POWERS)[1], spied_sweep(spied, POWERS[:1])[1]


@pytest.mark.parametrize("name", sorted(WORK))
def test_sweep_work(spies, name):
    target, measure, expected = WORK[name]
    sweep, twin = spies
    if expected is TWIN:
        expected = measure(twin[target])
    assert measure(sweep[target]) == expected


@pytest.mark.parametrize(
    "specs, roots",
    [
        ((LINEAR, JOINT), (LINEAR, JOINT)),
        ((WIDELY_LINEAR,), (WIDELY_LINEAR,)),
        (
            (dataclasses.replace(WIDELY_LINEAR, channel_len=16), JOINT),
            (dataclasses.replace(WIDELY_LINEAR, channel_len=16), JOINT),
        ),
    ],
    ids=["linear-joint", "widely-linear", "widely-linear-16-taps-joint"],
)
def test_qr_steps_per_family_root(specs, roots):
    # The other spec sets of the "qr-steps-per-family-root" row: a spec
    # with no root in the set is factored on its own.
    reports, spies = spied_sweep([GEQRF], [22.0], specs, n_frames=10, seed=46)
    assert [rep.method for rep in reports] == [spec.label() for spec in specs]
    assert qr_calls(spies[GEQRF]) == qr_steps(roots, 5 * FRAME_LEN, 1)


def ls_fit(spec, solve):
    """The streamed fit of 65 536 random rows to 3 right-hand sides on
    ``spec``'s bases: its factor, and its solve with ``solve``."""
    n, n_rhs = 65536, 3
    bases = build_basis(random_signal(n, 53), spec)
    rhs = random_signal(n * n_rhs, 54).reshape(n, n_rhs)
    taps = spec.channel_len

    def work():
        factor = _ls_factor(rhs, bases, taps)
        return _ls_solve(factor, bases, taps) if solve else factor

    return work


# sweep_40db at the CLI defaults: 100 frames, the 9 powers -10:22:4.
SWEEP40 = load_preset("sweep_40db")
SWEEP40_POWERS = [-10.0 + 4.0 * i for i in range(9)]
FULL = 100 * FRAME_LEN * 16  # bytes of one full-length complex array


def sweep40_receive(frames_seed, seed):
    """The receive step of a sweep_40db sweep at the CLI defaults."""
    x = transmit_samples(100, frames_seed)
    return x, lambda: receive(x, SWEEP40, SWEEP40_POWERS, seed, MAX_TRAIN_SAMPLES, 50 * FRAME_LEN)


def sweep40_fit_and_score():
    """The fit-and-score step of a sweep_40db sweep at the CLI defaults."""
    x, work = sweep40_receive(69, 70)
    train, held, _ = work()
    noise_dbfs = SWEEP40.chan.thermal_noise_dbfs
    return lambda: _fit_and_score(x, train, held, DEFAULT_SPECS, FRAME_LEN, noise_dbfs)


# name -> (run, bound(result)), in bytes
PEAKS = {
    # The streamed fit holds a fraction of the 201 MB dense regressor.
    "ls_fit-below-a-third-of-the-dense-regressor": (
        lambda: ls_fit(JOINT, solve=True),
        lambda _: 65536 * JOINT.n_bases * JOINT.channel_len * 16 / 3,
    ),
    # Each block is factored where it lies: the fit holds little more than
    # its one block buffer.
    **{
        f"ls_factor-near-one-block-buffer-{name}": (
            lambda spec=spec: ls_fit(spec, solve=False),
            lambda _, spec=spec: 1.25 * 16 * math.prod(block_buffer(spec, 65536, 3)[0]),
        )
        for name, spec in (("nonlinear", NONLINEAR), ("joint-dac-iq", JOINT))
    },
    # receive holds its rows, and its front end and noise, two full-length
    # complex arrays, throughout; beyond them, at most 2.5 more.
    "receive-above-inputs-and-outputs": (
        lambda: sweep40_receive(65, 66)[1],
        lambda rows: sum(r.codes.nbytes + r.scales.nbytes for r in rows[:2]) + 4.5 * FULL,
    ),
    # The 65 536 training and 204 800 held rows of 9 powers are 9.7 MB of
    # int16 codes (38.9 MB as complex128), next to the 13.1 MB front end
    # and noise and one power's chain at a time.
    "receive-rows-as-codes": (lambda: sweep40_receive(65, 66)[1], lambda _: 42e6),
    # The peak is the joint-dac-iq root's fit: its block buffer,
    # (192 + 4096) x (192 + 2 * 9) complex (14.4 MB), and its 65 536-row
    # real bases (3.1 MB). Rows are decoded a fit block or a held-out frame
    # at a time: all held rows at once would add 29.5 MB, and every spec's
    # full-length scoring bases 29.5 MB.
    "fit_and_score-on-codes": (sweep40_fit_and_score, lambda _: 22e6),
}


@pytest.mark.parametrize("name", sorted(PEAKS))
def test_peak_memory(name):
    run, bound = PEAKS[name]
    work = run()
    tracemalloc.start()
    try:
        result = work()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound(result)
