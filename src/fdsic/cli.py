"""Batch command-line front door.

Subcommands
-----------
tone-test   one-tone spectrum plus harmonic verification report
sweep       canceller comparison across transmit powers (CSV)
budget      front-end suppression budget table
spectrum    averaged spectrum of a recorded IQ file

Every run echoes its fully resolved configuration into ``manifest.json``
next to the outputs, and identical manifests with the same seed produce
byte-identical CSV files. A failed run makes no output folder.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from .analysis import BudgetInput, suppression_budget, verify_harmonics, write_harmonics_csv
from .cancellers import DEFAULT_SPECS, CancellerMethod, CancellerSpec, run_sweep
from .impairments import (
    MAX_TX_POWER_DBM,
    MIN_TX_POWER_DBM,
    ImpairmentConfig,
    config_to_dict,
    load_config,
    simulate_received,
)
from .presets import PRESET_NAMES, TONE_AMPLITUDE, TONE_FREQ, load_preset
from .signals import SAMPLE_RATE, OfdmFrameSpec, gen_tone, read_iq, write_iq
from .spectral import spectrum, write_spectrum_csv


def _parse_powers(text: str) -> list[float]:
    """Parse a power grid 'a:b:step' (inclusive) or a single value.

    The endpoints must lie in the transmit power range the impairment
    models accept, and the step must be at least 0.001 dB, the resolution
    of ``tx_power_dbm`` in suppression.csv (a finer step only writes
    duplicate rows), so the grid is bounded before it is built.
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
    if not all(MIN_TX_POWER_DBM <= v <= MAX_TX_POWER_DBM for v in values[:2]):
        raise ValueError(
            f"--powers must lie in [{MIN_TX_POWER_DBM:g}, {MAX_TX_POWER_DBM:g}] dBm, "
            f"got {text!r}"
        )
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


# The spec fields each method takes besides ``channel_len``, which every
# method takes, each with the parsed flag that sets it.
_ORDER_FLAGS = {
    CancellerMethod.NONLINEAR: {"n_max": "n_max", "nonlinear_basis_variant": "nonlinear_variant"},
    CancellerMethod.JOINT_DAC_IQ: {"m_max": "m_max"},
}


def _canceller_specs(args) -> list[CancellerSpec]:
    names = (name.strip() for name in args.methods.split(","))
    specs = [
        CancellerSpec(
            method,
            channel_len=args.channel_len,
            **{field: getattr(args, flag) for field, flag in _ORDER_FLAGS.get(method, {}).items()},
        )
        for method in map(CancellerMethod.parse, filter(None, names))
    ]
    if not specs:
        raise ValueError("method list is empty")
    return specs


def _spec_record(spec: CancellerSpec) -> dict:
    """The manifest's record of ``spec``: its label and the fields its method takes."""
    fields = ["channel_len", *_ORDER_FLAGS.get(spec.method, {})]
    return {"label": spec.label(), **{name: getattr(spec, name) for name in fields}}


def _write_manifest(out_dir: Path, command: str, args_echo: dict, cfg: ImpairmentConfig | None):
    manifest = {"command": command, "args": args_echo}
    if cfg is not None:
        manifest["resolved_config"] = config_to_dict(cfg)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def cmd_tone_test(args) -> int:
    cfg, source = _resolve_config(args)
    n_fft = args.n_fft
    tone = gen_tone(args.freq, TONE_AMPLITUDE, n_fft * args.segments, SAMPLE_RATE)
    received, diag = simulate_received(tone, cfg, args.seed)
    spec = spectrum(received, n_fft=n_fft)
    checks = verify_harmonics(spec, args.freq, m_max=args.m_max, margin_db=args.margin)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_spectrum_csv(spec, out_dir / "spectrum.csv")
    write_harmonics_csv(checks, out_dir / "harmonics.csv")
    write_iq(received, out_dir / "capture.iq")
    _write_manifest(
        out_dir,
        "tone-test",
        {**source, "freq_hz": args.freq, "seed": args.seed, "n_fft": n_fft,
         "segments": args.segments, "m_max": args.m_max, "margin_db": args.margin,
         "clipped_samples": diag.clipped_samples},
        cfg,
    )
    print(f"tone-test: {len(checks)} orders checked, all_pass={all(c.passed for c in checks)}")
    return 0 if all(c.passed for c in checks) or not args.strict else 3


def cmd_sweep(args) -> int:
    cfg, source = _resolve_config(args)
    powers = _parse_powers(args.powers)
    specs = _canceller_specs(args)

    frames = OfdmFrameSpec(n_frames=args.frames, seed=args.seed)
    rows = run_sweep(cfg, powers, specs, frames, args.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "suppression.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "tx_power_dbm",
                "method",
                "mean_residual_above_noise_db",
                "std_db",
                "apparent_floor_dbfs",
            ]
        )
        for rep in rows:
            writer.writerow(
                [
                    f"{rep.tx_power_dbm:.3f}",
                    rep.method,
                    f"{rep.residual_above_noise_db:.6f}",
                    f"{rep.residual_above_noise_std_db:.6f}",
                    f"{rep.receiver.apparent_floor_dbfs:.6f}",
                ]
            )
    _write_manifest(
        out_dir,
        "sweep",
        {**source, "powers": powers, "methods": args.methods, "seed": args.seed,
         "frames": args.frames, "cancellers": [_spec_record(spec) for spec in specs]},
        cfg,
    )
    print(f"sweep: {len(powers)} powers x {len(specs)} methods -> {csv_path}")
    return 0


def cmd_budget(args) -> int:
    inputs = BudgetInput(args.tx_power, args.noise_floor, args.papr, args.adc_dynamic_range)
    report = suppression_budget(inputs)
    width = max(len(label) for label, _ in report.breakdown)
    for label, value in report.breakdown:
        print(f"{label:<{width}} : {value:8.2f}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / "budget.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["quantity", "value"])
            for label, value in report.breakdown:
                writer.writerow([label, f"{value:.6f}"])
        _write_manifest(out_dir, "budget", dataclasses.asdict(inputs), None)
    return 0


def cmd_spectrum(args) -> int:
    sig = read_iq(args.input)
    spec = spectrum(sig, n_fft=args.n_fft, averaging=args.averaging)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_spectrum_csv(spec, out_dir / "spectrum.csv")
    _write_manifest(
        out_dir,
        "spectrum",
        {"input": str(args.input), "n_fft": args.n_fft, "averaging": args.averaging},
        None,
    )
    print(f"spectrum: {len(spec.power_db)} bins -> {out_dir / 'spectrum.csv'}")
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
    p_tone.add_argument("--freq", type=float, default=TONE_FREQ, help="tone frequency in Hz")
    p_tone.add_argument("--n-fft", type=int, default=4096)
    p_tone.add_argument("--segments", type=int, default=16, help="capture length in FFT frames")
    p_tone.add_argument("--m-max", type=int, default=3, help="highest harmonic order to verify")
    p_tone.add_argument("--margin", type=float, default=20.0, help="pass margin in dB")
    p_tone.add_argument("--strict", action="store_true", help="nonzero exit if any order fails")
    p_tone.set_defaults(func=cmd_tone_test)

    p_sweep = sub.add_parser("sweep", help="canceller comparison over transmit powers")
    add_config_args(p_sweep)
    p_sweep.add_argument("--powers", default="-10:22:4", help="grid a:b:step in dBm")
    p_sweep.add_argument(
        "--methods",
        default=",".join(s.method.value for s in DEFAULT_SPECS),
        help="comma-separated canceller list",
    )
    p_sweep.add_argument("--frames", type=int, default=OfdmFrameSpec.n_frames)
    # The default canceller set seeds the channel-length and order flags.
    defaults = {spec.method: spec for spec in DEFAULT_SPECS}
    p_sweep.add_argument(
        "--channel-len", type=int, default=defaults[CancellerMethod.LINEAR].channel_len
    )
    p_sweep.add_argument("--n-max", type=int, default=defaults[CancellerMethod.NONLINEAR].n_max)
    p_sweep.add_argument("--m-max", type=int, default=defaults[CancellerMethod.JOINT_DAC_IQ].m_max)
    p_sweep.add_argument(
        "--nonlinear-variant",
        choices=("power", "envelope"),
        default=defaults[CancellerMethod.NONLINEAR].nonlinear_basis_variant,
    )
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
    p_spec.add_argument("--n-fft", type=int, default=4096)
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
