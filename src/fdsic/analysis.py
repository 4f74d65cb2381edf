"""Analytical oracles and reporting.

Covers the closed-form predictor for where matched per-rail polynomial
distortion of a complex tone lands in the baseband spectrum, automated
verification of those predictions against a measured spectrum, and the
front-end suppression budget calculator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .spectral import LINE_HALFWIDTH_BINS, Spectrum, floor_estimate_db, measure_line_db

# An even order passes when its two lines agree within this many dB.
EQUAL_POWER_TOL_DB = 1.0

# A line reading within this many dB of the lobe-summed floor is at the floor.
FLOOR_MARGIN_DB = 8.0


@dataclass(frozen=True)
class HarmonicPrediction:
    """Predicted baseband line locations for distortion order m.

    For matched rails, odd orders place a single line at
    m * (-1)^((m-1)/2) * f; even orders place lines at both -m*f and
    +m*f with equal power.
    """

    order: int
    frequencies: tuple
    equal_power: bool


def predict_harmonics(m: int, f: float) -> HarmonicPrediction:
    """Baseband harmonic locations of a tone at ``f`` for rail order ``m``."""
    if m < 1:
        raise ValueError(f"harmonic order must be >= 1, got {m}")
    if m % 2 == 1:
        sign = -1 if ((m - 1) // 2) % 2 else 1
        return HarmonicPrediction(m, (sign * m * f,), equal_power=False)
    return HarmonicPrediction(m, (-m * f, m * f), equal_power=True)


@dataclass(frozen=True)
class HarmonicCheck:
    """Measured outcome of one predicted harmonic order."""

    order: int
    predicted_freqs: tuple
    measured_dbc: tuple
    counterpart_dbc: tuple
    passed: bool


def verify_harmonics(
    spec: Spectrum,
    f: float,
    m_max: int,
    margin_db: float = 20.0,
) -> list[HarmonicCheck]:
    """Check predicted harmonic lines of a tone test against a spectrum.

    Odd orders pass when the predicted line exceeds its sign-flipped
    counterpart by ``margin_db`` or the counterpart sits at the floor;
    even orders pass when both lines are present and agree within
    ``EQUAL_POWER_TOL_DB``. The tone must be coherently placed (its
    frequency on the spectrum bin grid) and nonzero, every predicted line
    up to ``m_max`` must lie inside the sampled band ``|freq| < fs/2``
    (its counterpart, the sign-flipped line, then does too), and
    ``margin_db`` must be finite; otherwise no order is checked and
    ``ValueError`` is raised.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if not math.isfinite(margin_db):
        raise ValueError(f"margin_db must be finite, got {margin_db}")
    if not (math.isfinite(f) and f != 0.0):
        raise ValueError(f"tone frequency must be finite and nonzero, got {f} Hz")
    spacing = spec.bin_spacing
    # The bins of an FFT spectrum span [-fs/2, fs/2); a line at or beyond
    # fs/2 would be read from the band edge or from its alias.
    nyquist = len(spec.bin_freqs) * spacing / 2.0
    predictions = [predict_harmonics(m, f) for m in range(1, m_max + 1)]
    for prediction in predictions:
        for freq in prediction.frequencies:
            if abs(freq) >= nyquist:
                raise ValueError(
                    f"harmonic order {prediction.order} lies at {freq:g} Hz, outside "
                    f"the sampled band +-{nyquist:g} Hz"
                )
    for target in (f, -f):
        offset = abs(spec.bin_freqs[spec.nearest_bin(target)] - target)
        if offset > spacing / 100.0:
            raise ValueError(
                f"tone frequency {target} Hz is off the analysis bin grid "
                f"(nearest bin {offset:.3g} Hz away); coherent placement required"
            )

    carrier_db = measure_line_db(spec, f)
    floor_db = floor_estimate_db(spec)
    # A 'line' reading is floor-level when its lobe integral is within the
    # lobe-summed floor plus a small margin.
    lobe_bins = 2 * LINE_HALFWIDTH_BINS + 1
    floor_line_db = floor_db + 10.0 * math.log10(lobe_bins) + FLOOR_MARGIN_DB

    checks = []
    for prediction in predictions:
        measured = tuple(measure_line_db(spec, freq) - carrier_db for freq in prediction.frequencies)
        counterparts = tuple(-freq for freq in prediction.frequencies)
        counterpart_db = tuple(
            measure_line_db(spec, freq) - carrier_db for freq in counterparts
        )
        if prediction.equal_power:
            present = [db + carrier_db > floor_line_db for db in measured]
            if all(present):
                passed = abs(measured[0] - measured[1]) <= EQUAL_POWER_TOL_DB
            else:
                # both lines at the floor is consistent (no distortion at
                # this order); a single-sided line is not
                passed = not any(present)
        else:
            counterpart_abs = counterpart_db[0] + carrier_db
            passed = (
                measured[0] - counterpart_db[0] >= margin_db
                or counterpart_abs <= floor_line_db
            )
        checks.append(
            HarmonicCheck(
                order=prediction.order,
                predicted_freqs=prediction.frequencies,
                measured_dbc=measured,
                counterpart_dbc=counterpart_db,
                passed=passed,
            )
        )
    return checks


def write_harmonics_csv(checks: list[HarmonicCheck], path) -> Path:
    """Export harmonic verification results as CSV."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "predicted_freqs_hz", "measured_dbc", "counterpart_dbc", "pass"])
        for check in checks:
            writer.writerow(
                [
                    check.order,
                    ";".join(f"{v:.6f}" for v in check.predicted_freqs),
                    ";".join(f"{v:.6f}" for v in check.measured_dbc),
                    ";".join(f"{v:.6f}" for v in check.counterpart_dbc),
                    "pass" if check.passed else "fail",
                ]
            )
    return path


@dataclass(frozen=True)
class BudgetInput:
    """Inputs to the front-end suppression budget."""

    tx_power_dbm: float = 20.0
    noise_floor_dbm: float = -90.0
    papr_headroom_db: float = 10.0
    adc_dynamic_range_db: float = 70.0

    def __post_init__(self):
        for name in ("tx_power_dbm", "noise_floor_dbm", "papr_headroom_db", "adc_dynamic_range_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.papr_headroom_db < 0.0:
            raise ValueError(f"papr_headroom_db must be >= 0, got {self.papr_headroom_db}")
        if self.adc_dynamic_range_db <= 0.0:
            raise ValueError(
                f"adc_dynamic_range_db must be positive, got {self.adc_dynamic_range_db}"
            )


@dataclass(frozen=True)
class BudgetReport:
    required_suppression_db: float
    breakdown: tuple


def suppression_budget(b: BudgetInput) -> BudgetReport:
    """Passive+analog suppression needed before the signal is digitized.

    The converter window must span from the noise floor up to the peak of
    the residual interference; the strongest tolerable interference at
    the receiver input is therefore
    noise_floor + adc_dynamic_range - papr_headroom, and everything above
    that must be removed ahead of the converter.
    """
    max_si_dbm = b.noise_floor_dbm + b.adc_dynamic_range_db - b.papr_headroom_db
    required = max(0.0, b.tx_power_dbm - max_si_dbm)
    breakdown = (
        ("transmit power (dBm)", b.tx_power_dbm),
        ("noise floor (dBm)", b.noise_floor_dbm),
        ("converter dynamic range (dB)", b.adc_dynamic_range_db),
        ("peak headroom (dB)", b.papr_headroom_db),
        ("max tolerable interference at receiver (dBm)", max_si_dbm),
        ("required passive+analog suppression (dB)", required),
    )
    return BudgetReport(required_suppression_db=required, breakdown=breakdown)
