"""Batch command-line front door.

Subcommands
-----------
tone-test   one-tone spectrum plus harmonic verification report
sweep       canceller comparison across transmit powers (CSV)
budget      front-end suppression budget table
spectrum    averaged spectrum of a recorded IQ file

Every run echoes its fully resolved configuration into ``manifest.json``
next to the outputs, and identical manifests with the same seed produce
byte-identical CSV files. Every command ends in :func:`_write_outputs`:
the manifest and every file's content are computed before ``--out`` is
made, so a run that fails on its input leaves no folder. An existing
``--out`` is written into.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from functools import partial
from pathlib import Path

from .analysis import DEFAULT_MARGIN_DB, BudgetInput, suppression_budget, verify_harmonics
from .cancellers import (
    DEFAULT_N_FRAMES, DEFAULT_SPECS, ORDER_FIELDS, CancellerMethod, CancellerSpec, run_sweep,
)
from .impairments import (
    MAX_TX_POWER_DBM,
    MIN_TX_POWER_DBM,
    ImpairmentConfig,
    check_tx_power,
    config_to_dict,
    load_config,
    simulate_received,
)
from .presets import PRESET_NAMES, PRESETS, TONE_AMPLITUDE, TONE_FREQ, load_preset
from .signals import gen_tone, read_iq, write_iq
from .spectral import DEFAULT_N_FFT, spectrum, write_spectrum_csv


def _parse_powers(text: str) -> list[float]:
    """Parse a power grid 'a:b:step' (inclusive) or a single value.

    The endpoints must pass :func:`~fdsic.impairments.check_tx_power`, and
    the step must be at least 0.001 dB, the resolution of ``tx_power_dbm``
    in suppression.csv (a finer step only writes duplicate rows), so the
    grid is bounded before it is built.
    """
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"--powers must be 'a:b:step' or a single value, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"--powers must be numbers in dBm, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"--powers must be finite, got {text!r}")
    for value in values[:2]:
        check_tx_power(value, "--powers")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step < 0.001:
        raise ValueError(f"--powers step must be at least 0.001 dB, got {text!r}")
    grid = []
    value = start
    while value <= stop + 1e-9:
        grid.append(round(value, 9))
        value += step
    if not grid:
        raise ValueError(f"--powers grid {text!r} is empty")
    return grid


def _resolve_config(args) -> tuple[ImpairmentConfig, dict]:
    """The configuration of exactly one of ``--preset`` and ``--config``."""
    if args.preset and args.config:
        raise ValueError("--preset and --config are mutually exclusive; give one")
    if args.preset:
        cfg = load_preset(args.preset)
        source = {"preset": args.preset}
    elif args.config:
        cfg = load_config(args.config)
        source = {"config_path": str(args.config)}
    else:
        raise ValueError("one of --preset or --config is required")
    return cfg, source


def _canceller_specs(args) -> list[CancellerSpec]:
    """One spec per ``--methods`` name, each order field set by the flag of its name."""
    names = (name.strip() for name in args.methods.split(","))
    methods = list(map(CancellerMethod.parse, filter(None, names)))
    if not methods:
        raise ValueError("method list is empty")
    for k, method in enumerate(methods):
        if method in methods[:k]:
            raise ValueError(f"--methods names {method.value!r} more than once")
    return [
        CancellerSpec(
            method,
            channel_len=args.channel_len,
            **{name: getattr(args, name) for name in ORDER_FIELDS.get(method, ())},
        )
        for method in methods
    ]


def _spec_record(spec: CancellerSpec) -> dict:
    """The manifest's record of ``spec``: its label and the fields its method takes."""
    fields = ["channel_len", *ORDER_FIELDS.get(spec.method, ())]
    return {"label": spec.label(), **{name: getattr(spec, name) for name in fields}}


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _write_outputs(
    out: Path, command: str, args_echo: dict, cfg: ImpairmentConfig | None, files: dict
) -> None:
    """Make ``out`` and write a run's files into it, ``manifest.json`` last.

    Everything a run computes from its inputs, the manifest included, is
    done before ``out`` is made, so a bad input leaves no folder. Each
    ``name -> writer`` of ``files`` then writes ``out / name``.
    """
    manifest = {"command": command, "args": args_echo}
    if cfg is not None:
        manifest["resolved_config"] = config_to_dict(cfg)
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(out / name)
    (out / "manifest.json").write_text(text)


def cmd_tone_test(args) -> int:
    cfg, source = _resolve_config(args)
    power = args.power
    if power is None:
        power = PRESETS[args.preset][0] if args.preset else MIN_TX_POWER_DBM
    check_tx_power(power, "--power")
    n_fft = args.n_fft
    # The capture is n_fft * segments long, so each flag is checked by its own name.
    if n_fft < 2:
        raise ValueError(f"--n-fft must be >= 2, got {n_fft}")
    if args.segments < 1:
        raise ValueError(f"--segments must be >= 1, got {args.segments}")
    tone = gen_tone(args.freq, TONE_AMPLITUDE, n_fft * args.segments)
    received, diag = simulate_received(tone, cfg, power, args.seed)
    spec = spectrum(received, n_fft=n_fft)
    checks = verify_harmonics(spec, args.freq, m_max=args.m_max, margin_db=args.margin)
    header = ["m", "predicted_freqs_hz", "measured_dbc", "counterpart_dbc", "pass"]
    rows = [
        [str(check.order),
         *(";".join(f"{v:.6f}" for v in values)
           for values in (check.predicted_freqs, check.measured_dbc, check.counterpart_dbc)),
         "pass" if check.passed else "fail"]
        for check in checks
    ]
    _write_outputs(
        args.out, "tone-test",
        {**source, "power_dbm": power, "freq_hz": args.freq, "seed": args.seed, "n_fft": n_fft,
         "segments": args.segments, "m_max": args.m_max, "margin_db": args.margin,
         "clipped_samples": diag.clipped_samples},
        cfg,
        {"spectrum.csv": partial(write_spectrum_csv, spec),
         "harmonics.csv": partial(_write_csv, header=header, rows=rows),
         "capture.iq": partial(write_iq, received)},
    )
    print(f"tone-test: {len(checks)} orders checked, all_pass={all(c.passed for c in checks)}")
    return 0 if all(c.passed for c in checks) or not args.strict else 3


def cmd_sweep(args) -> int:
    cfg, source = _resolve_config(args)
    # The frames and taps are checked by their flags' names before any work.
    for flag, value in (("--frames", args.frames), ("--channel-len", args.channel_len)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    powers = _parse_powers(args.powers)
    specs = _canceller_specs(args)

    header = ["tx_power_dbm", "method", "mean_residual_above_noise_db", "std_db",
              "apparent_floor_dbfs"]
    rows = [
        [f"{rep.tx_power_dbm:.3f}", rep.method, f"{rep.residual_above_noise_db:.6f}",
         f"{rep.residual_above_noise_std_db:.6f}", f"{rep.receiver.apparent_floor_dbfs:.6f}"]
        for rep in run_sweep(cfg, powers, specs, args.frames, args.seed)
    ]
    _write_outputs(
        args.out, "sweep",
        {**source, "powers": powers, "methods": args.methods, "seed": args.seed,
         "frames": args.frames, "cancellers": [_spec_record(spec) for spec in specs]},
        cfg,
        {"suppression.csv": partial(_write_csv, header=header, rows=rows)},
    )
    print(f"sweep: {len(powers)} powers x {len(specs)} methods -> {args.out / 'suppression.csv'}")
    return 0


def cmd_budget(args) -> int:
    inputs = BudgetInput(args.tx_power, args.noise_floor, args.papr, args.adc_dynamic_range)
    report = suppression_budget(inputs)
    width = max(len(label) for label, _ in report.breakdown)
    for label, value in report.breakdown:
        print(f"{label:<{width}} : {value:8.2f}")
    if args.out:
        rows = [[label, f"{value:.6f}"] for label, value in report.breakdown]
        _write_outputs(
            args.out, "budget", dataclasses.asdict(inputs), None,
            {"budget.csv": partial(_write_csv, header=["quantity", "value"], rows=rows)},
        )
    return 0


def cmd_spectrum(args) -> int:
    if args.n_fft < 2:
        raise ValueError(f"--n-fft must be >= 2, got {args.n_fft}")
    sig = read_iq(args.input)
    spec = spectrum(sig, n_fft=args.n_fft, averaging=args.averaging)
    _write_outputs(
        args.out, "spectrum",
        {"input": str(args.input), "n_fft": args.n_fft, "averaging": args.averaging},
        None,
        {"spectrum.csv": partial(write_spectrum_csv, spec)},
    )
    print(f"spectrum: {len(spec.power_db)} bins -> {args.out / 'spectrum.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdsic",
        description="Full-duplex impairment simulation and digital self-interference cancellation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--preset", choices=PRESET_NAMES, help="shipped scenario name")
        p.add_argument("--config", type=Path, help="impairment configuration JSON")
        p.add_argument("--seed", type=int, default=0, help="manifest seed (default 0)")
        p.add_argument("--out", type=Path, required=True, help="output directory")

    p_tone = sub.add_parser("tone-test", help="one-tone impairment signature")
    add_config_args(p_tone)
    p_tone.add_argument(
        "--power", type=float,
        help=f"transmit power in dBm (default: the preset's; {MIN_TX_POWER_DBM:g} with --config)",
    )
    p_tone.add_argument("--freq", type=float, default=TONE_FREQ, help="tone frequency in Hz")
    p_tone.add_argument("--n-fft", type=int, default=DEFAULT_N_FFT)
    p_tone.add_argument("--segments", type=int, default=16, help="capture length in FFT frames")
    p_tone.add_argument("--m-max", type=int, default=3, help="highest harmonic order to verify")
    p_tone.add_argument("--margin", type=float, default=DEFAULT_MARGIN_DB, help="pass margin in dB")
    p_tone.add_argument("--strict", action="store_true", help="nonzero exit if any order fails")
    p_tone.set_defaults(func=cmd_tone_test)

    p_sweep = sub.add_parser("sweep", help="canceller comparison over transmit powers")
    add_config_args(p_sweep)
    p_sweep.add_argument(
        "--powers", default=f"{MIN_TX_POWER_DBM:g}:{MAX_TX_POWER_DBM:g}:4",
        help="grid a:b:step in dBm",
    )
    p_sweep.add_argument(
        "--methods",
        default=",".join(s.method.value for s in DEFAULT_SPECS),
        help="comma-separated canceller list",
    )
    p_sweep.add_argument("--frames", type=int, default=DEFAULT_N_FRAMES)
    # The default canceller set seeds the channel-length and order flags.
    defaults = {spec.method: spec for spec in DEFAULT_SPECS}
    p_sweep.add_argument(
        "--channel-len", type=int, default=defaults[CancellerMethod.LINEAR].channel_len
    )
    p_sweep.add_argument("--n-max", type=int, default=defaults[CancellerMethod.NONLINEAR].n_max)
    p_sweep.add_argument("--m-max", type=int, default=defaults[CancellerMethod.JOINT_DAC_IQ].m_max)
    p_sweep.set_defaults(func=cmd_sweep)

    p_budget = sub.add_parser("budget", help="front-end suppression budget")
    p_budget.add_argument("--tx-power", type=float, default=BudgetInput.tx_power_dbm)
    p_budget.add_argument("--noise-floor", type=float, default=BudgetInput.noise_floor_dbm)
    p_budget.add_argument("--papr", type=float, default=BudgetInput.papr_headroom_db)
    p_budget.add_argument(
        "--adc-dynamic-range", type=float, default=BudgetInput.adc_dynamic_range_db
    )
    p_budget.add_argument("--out", type=Path, help="optional output directory for budget.csv")
    p_budget.set_defaults(func=cmd_budget)

    p_spec = sub.add_parser("spectrum", help="spectrum of a recorded IQ file")
    p_spec.add_argument("--input", type=Path, required=True, help="IQ file (with .hdr sidecar)")
    p_spec.add_argument("--n-fft", type=int, default=DEFAULT_N_FFT)
    p_spec.add_argument("--averaging", type=int, default=None)
    p_spec.add_argument("--out", type=Path, required=True)
    p_spec.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: ran out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
