"""Acceptance suite: every shipped claim checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary
line per criterion.
"""

import dataclasses
import time

import numpy as np
import pytest

from helpers_oracles import (
    ls_estimate,
    normal_equations_fit,
    passband_harmonic_oracle,
    transmit_samples,
)

from fdsic.analysis import BudgetInput, predict_harmonics, suppression_budget
from fdsic.cancellers import (
    DEFAULT_N_FRAMES,
    DEFAULT_SPECS,
    BasisSignal,
    CancellerMethod,
    CancellerSpec,
    build_basis,
    run_sweep,
)
from fdsic.cli import main as cli_main
from fdsic.impairments import (
    PhaseNoiseSpec,
    apply_phase_noise,
    simulate_received,
)
from fdsic.presets import (
    PHASE_NOISE_LINEWIDTH_HZ,
    TONE_AMPLITUDE,
    TONE_FREQ,
    load_preset,
)
from fdsic.signals import SAMPLE_RATE, ComplexBasebandSignal, gen_tone
from fdsic.spectral import measure_line_db, skirt_peak_dbc, spectrum

POWERS = [-10, -6, -2, 2, 6, 10, 14, 18, 22]
LINEAR, NONLINEAR, WIDELY_LINEAR, JOINT = (spec.label() for spec in DEFAULT_SPECS)


def announce(number, passed, detail):
    print(f"ACCEPTANCE {number:>2}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def sweep_table(preset_name):
    """{power: {method label: report}} over POWERS for the default cancellers."""
    reports = run_sweep(load_preset(preset_name), POWERS, DEFAULT_SPECS, DEFAULT_N_FRAMES, 0)
    table = {}
    for rep in reports:
        table.setdefault(rep.tx_power_dbm, {})[rep.method] = rep
    return table


@pytest.fixture(scope="module")
def sweep_40db():
    start = time.monotonic()
    table = sweep_table("sweep_40db")
    return table, time.monotonic() - start


@pytest.fixture(scope="module")
def sweep_55db():
    start = time.monotonic()
    table = sweep_table("sweep_55db")
    return table, time.monotonic() - start


def test_criterion_01_harmonic_predictor_matches_brute_force():
    start = time.monotonic()
    failures = []
    for m in range(1, 8):
        pred = predict_harmonics(m, 1.0)
        lines = passband_harmonic_oracle(m)
        measured_at_m = {k: p for k, p in lines if abs(k) == m}
        if set(measured_at_m) != {int(f) for f in pred.frequencies}:
            failures.append(f"m={m}: locations {sorted(measured_at_m)} vs {pred.frequencies}")
        if m % 2 == 1 and len(measured_at_m) != 1:
            failures.append(f"m={m}: expected a single line")
        if m % 2 == 0:
            if len(measured_at_m) != 2:
                failures.append(f"m={m}: expected two lines")
            elif abs(measured_at_m[m] - measured_at_m[-m]) > 0.2:
                failures.append(f"m={m}: uneven pair {measured_at_m}")
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    announce(1, not failures, f"orders 1..7 vs passband oracle in {elapsed:.1f}s {failures}")


def test_criterion_02_low_power_tone_signature():
    start = time.monotonic()
    cfg = load_preset("fig5_m10dbm")
    tone = gen_tone(TONE_FREQ, TONE_AMPLITUDE, 4096 * 16)
    received, _ = simulate_received(tone, cfg, -10.0, seed=1)
    spec = spectrum(received, n_fft=4096)
    reference = measure_line_db(spec, 3 * TONE_FREQ)
    margins = {
        mult: measure_line_db(spec, mult * TONE_FREQ) - reference
        for mult in (1, -1, -2, 2, -3)
    }
    elapsed = time.monotonic() - start
    ok = all(margin >= 20.0 for margin in margins.values()) and elapsed < 10.0
    announce(
        2,
        ok,
        "lines above +3f bin by "
        + ", ".join(f"{m:+d}f:{v:.1f}dB" for m, v in margins.items())
        + f" in {elapsed:.1f}s",
    )


def test_criterion_03_phase_noise_calibration():
    start = time.monotonic()
    tone = gen_tone(TONE_FREQ, TONE_AMPLITUDE, 4096 * 33)

    independent = PhaseNoiseSpec(PHASE_NOISE_LINEWIDTH_HZ, shared_oscillator=False, delay_samples=1)
    skirt_ind = skirt_peak_dbc(
        spectrum(
            tone.with_samples(apply_phase_noise(tone.samples, independent, 3)),
            n_fft=4096,
        ),
        TONE_FREQ,
    )
    shared = dataclasses.replace(independent, shared_oscillator=True)
    skirt_shared = skirt_peak_dbc(
        spectrum(
            tone.with_samples(apply_phase_noise(tone.samples, shared, 3)),
            n_fft=4096,
        ),
        TONE_FREQ,
    )
    elapsed = time.monotonic() - start
    ok = abs(skirt_ind - (-46.0)) <= 3.0 and skirt_shared <= -70.0 and elapsed < 30.0
    announce(
        3,
        ok,
        f"independent skirt {skirt_ind:.1f} dBc (target -46+-3), "
        f"shared {skirt_shared:.1f} dBc (<= -70) in {elapsed:.1f}s",
    )


def test_criterion_04_ls_solver_matches_normal_equations():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(50):
        n_bases = int(rng.integers(1, 5))
        taps = int(rng.integers(1, 5))
        n = int(rng.integers(4 * n_bases * taps, 257))
        bases = [
            BasisSignal(f"b{i}", rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for i in range(n_bases)
        ]
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fit = ls_estimate(r, bases, taps)
        got = fit.coefficients
        ref = normal_equations_fit(r, bases, taps)
        worst = max(worst, float(np.linalg.norm(got - ref) / np.linalg.norm(ref)))
    announce(4, worst < 1e-9, f"50 instances, worst relative coefficient error {worst:.2e}")


def test_criterion_05_joint_m1_spans_widely_linear():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 4096
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = (
            np.convolve(x, [1.0, 0.3 - 0.1j])[:n]
            + 0.05 * np.conj(x)
            + 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        )
        fits = []
        for spec in (
            CancellerSpec(CancellerMethod.WIDELY_LINEAR, channel_len=4),
            CancellerSpec(CancellerMethod.JOINT_DAC_IQ, m_max=1, channel_len=4),
        ):
            fits.append(ls_estimate(r, build_basis(x, spec), 4).residual_power_dbfs)
        worst = max(worst, abs(fits[0] - fits[1]))
    announce(5, worst <= 1e-6, f"20 seeds, worst training-residual gap {worst:.2e} dB")


def test_criterion_06_forty_db_preset_comparison(sweep_40db):
    table, elapsed = sweep_40db
    failures = []

    linear_above = {p: table[p][LINEAR].residual_above_noise_db for p in POWERS}
    if min(linear_above.values()) < 7.0:
        failures.append(f"linear dips to {min(linear_above.values()):.2f} dB above floor")

    gaps = [
        table[p][LINEAR].residual_above_noise_db - table[p][NONLINEAR].residual_above_noise_db
        for p in POWERS
    ]
    if not (1.0 <= float(np.mean(gaps)) <= 3.0):
        failures.append(f"nonlinear mean gain {np.mean(gaps):.2f} dB outside 2+-1")
    if min(gaps) < 0.25:
        failures.append(f"nonlinear gain collapses to {min(gaps):.2f} dB")

    for p in POWERS:
        joint = table[p][JOINT].residual_above_noise_db
        others = [
            table[p][m].residual_above_noise_db for m in (LINEAR, NONLINEAR, WIDELY_LINEAR)
        ]
        if joint > min(others) + 1e-9:
            failures.append(f"joint not best at {p} dBm ({joint:.2f} vs {min(others):.2f})")

    best_prior_22 = min(
        table[22][m].residual_above_noise_db for m in (LINEAR, NONLINEAR, WIDELY_LINEAR)
    )
    gap_22 = best_prior_22 - table[22][JOINT].residual_above_noise_db
    if gap_22 < 10.0:
        failures.append(f"joint advantage at 22 dBm only {gap_22:.2f} dB")

    for p in (18, 22):  # full curve ordering at high power
        ordered = [table[p][m].residual_above_noise_db for m in (JOINT, WIDELY_LINEAR, NONLINEAR, LINEAR)]
        if not all(a < b for a, b in zip(ordered, ordered[1:])):
            failures.append(f"curve ordering broken at {p} dBm: {ordered}")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 300s")

    announce(
        6,
        not failures,
        f"linear min {min(linear_above.values()):.1f} dB, nonlinear mean gain "
        f"{np.mean(gaps):.2f} dB, joint advantage at 22 dBm {gap_22:.1f} dB, "
        f"{elapsed:.0f}s {failures}",
    )


def test_criterion_07_fiftyfive_db_preset_comparison(sweep_55db):
    table, elapsed = sweep_55db
    failures = []

    at_low = [table[-10][m].residual_above_noise_db for m in (LINEAR, NONLINEAR, WIDELY_LINEAR, JOINT)]
    spread = max(at_low) - min(at_low)
    if spread > 1.5:
        failures.append(f"spread at -10 dBm {spread:.2f} dB > 1.5")

    joint_through_18 = {p: table[p][JOINT].residual_above_noise_db for p in POWERS if p <= 18}
    worst_joint = max(joint_through_18.values())
    if worst_joint > 3.0:
        failures.append(f"joint reaches {worst_joint:.2f} dB above floor below 18 dBm")

    for method in (LINEAR, NONLINEAR, WIDELY_LINEAR, JOINT):
        rise = (
            table[22][method].residual_above_noise_db
            - table[18][method].residual_above_noise_db
        )
        if rise < 1.0:
            failures.append(f"{method} does not degrade above 18 dBm (rise {rise:.2f} dB)")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 300s")

    announce(
        7,
        not failures,
        f"spread at -10 dBm {spread:.2f} dB, joint max through 18 dBm {worst_joint:.2f} dB, "
        f"joint at 22 dBm {table[22][JOINT].residual_above_noise_db:.1f} dB, "
        f"{elapsed:.0f}s {failures}",
    )


def test_criterion_08_quantization_floor_tracks_power():
    cfg = load_preset("sweep_40db")
    cfg = dataclasses.replace(
        cfg,
        chan=dataclasses.replace(cfg.chan, thermal_noise_dbfs=-140.0, adc_bits=12),
    )
    x = ComplexBasebandSignal(transmit_samples(20, 0), SAMPLE_RATE)
    floors = {}
    for power in (0.0, 20.0):
        _, diag = simulate_received(x, cfg, power, seed=5)
        floors[power] = diag.apparent_floor_dbfs
    rise = floors[20.0] - floors[0.0]
    announce(8, abs(rise - 20.0) <= 1.0, f"apparent floor rise {rise:.2f} dB for +20 dB drive")


def test_criterion_09_budget_default_is_50_db():
    required = suppression_budget(BudgetInput()).required_suppression_db
    announce(9, abs(required - 50.0) < 1e-12, f"default budget requires {required:.2f} dB")


def test_criterion_10_identical_manifests_identical_csvs(tmp_path):
    digests = []
    for run in ("first", "second"):
        out = tmp_path / run
        rc_sweep = cli_main(
            ["sweep", "--preset", "sweep_55db", "--powers=-10:2:12", "--frames", "10",
             "--methods", "linear,joint-dac-iq", "--seed", "11", "--out", str(out)]
        )
        rc_tone = cli_main(
            ["tone-test", "--preset", "fig5_m10dbm", "--seed", "11", "--segments", "4",
             "--out", str(out / "tone")]
        )
        assert rc_sweep == 0 and rc_tone == 0
        digests.append(
            (
                (out / "suppression.csv").read_bytes(),
                (out / "manifest.json").read_bytes(),
                (out / "tone" / "spectrum.csv").read_bytes(),
                (out / "tone" / "harmonics.csv").read_bytes(),
                (out / "tone" / "capture.iq").read_bytes(),
            )
        )
    announce(10, digests[0] == digests[1], "two runs produced byte-identical artifacts")
