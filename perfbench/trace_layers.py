"""Per-layer tracing of fdsic from outside the library.

``Tracer.tracing()`` replaces the public functions named in ``TARGETS``
with wrappers in every loaded ``fdsic`` module that holds them (so
``cli``'s imported names and each module's ``fir_convolve`` are all
covered), records one span per call, and puts the originals back on
exit. Spans stay in memory as ``[name, start, end, parent, op]``.
A target the library no longer has is skipped and reads as zero. A
counter that cannot be read from a call's arguments or result is not
guessed: the call is left out of that counter and the reason is kept in
``count_errors``, whose length is reported as ``trace.count_errors``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

TARGETS = {
    "signals": ("gen_ofdm_frames", "gen_tone", "fir_convolve", "write_iq"),
    "impairments": ("simulate_received", "apply_dac", "apply_iq", "apply_phase_noise",
                    "apply_pa", "apply_channel_and_receiver"),
    "cancellers": ("run_comparison", "build_basis", "ls_estimate", "cancel"),
    "spectral": ("spectrum", "write_spectrum_csv"),
    "analysis": ("verify_harmonics", "write_harmonics_csv"),
    "presets": ("load_preset",),
    "cli": ("main",),
}

# Spans that record a tracemalloc peak (bytes allocated above the span's
# start; memory freed that was allocated before the outermost one began
# is not subtracted).
PEAK = ("cancellers.ls_estimate", "cancellers.run_comparison", "impairments.simulate_received")

# Reported per layer: (span name, stats) with stats from calls, busy_s, self_s, peak_mb.
REPORT = (
    ("cancellers.ls_estimate", ("calls", "busy_s", "peak_mb")),
    ("cancellers.run_comparison", ("calls", "busy_s", "self_s", "peak_mb")),
    ("cancellers.build_basis", ("calls", "busy_s")),
    ("cancellers.cancel", ("calls", "busy_s")),
    ("impairments.simulate_received", ("calls", "busy_s", "self_s", "peak_mb")),
    ("impairments.apply_dac", ("busy_s",)),
    ("impairments.apply_iq", ("busy_s",)),
    ("impairments.apply_phase_noise", ("busy_s",)),
    ("impairments.apply_pa", ("busy_s",)),
    ("impairments.apply_channel_and_receiver", ("busy_s",)),
    ("signals.gen_ofdm_frames", ("calls", "busy_s")),
    ("signals.gen_tone", ("calls", "busy_s")),
    ("signals.fir_convolve", ("calls", "busy_s")),
    ("signals.write_iq", ("busy_s",)),
    ("spectral.spectrum", ("calls", "busy_s")),
    ("spectral.write_spectrum_csv", ("busy_s",)),
    ("analysis.verify_harmonics", ("busy_s",)),
    ("analysis.write_harmonics_csv", ("busy_s",)),
    ("presets.load_preset", ("busy_s",)),
    ("cli.main", ("busy_s", "self_s")),
)

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "peak_mb": "MB"}


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.peaks: dict[str, list[int]] = defaultdict(list)
        self.fits: list[tuple] = []  # (rows, cols, rank) per ls_estimate call
        self.counts: dict[str, int] = defaultdict(int)
        # Why a call was left out of a counter (its source changed shape).
        self.count_errors: list[str] = []
        self._stack: list[int] = []
        self._peak_stack: list[list[int]] = []
        self._patched: list[tuple] = []
        self._op = None

    @contextlib.contextmanager
    def tracing(self, op):
        """Trace one op: install the wrappers, then put the originals back."""
        self._op = op
        self._install()
        try:
            yield self
        finally:
            self._uninstall()
            self._op = None

    def _install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fdsic" or name.startswith("fdsic."))]
        for short, names in TARGETS.items():
            module = sys.modules.get(f"fdsic.{short}")
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{short}.{name}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))

    def _uninstall(self):
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def _wrap(self, name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._call(name, original, args, kwargs)

        wrapper.__perfbench_original__ = original
        return wrapper

    def _call(self, name, original, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        track_peak = name in PEAK
        if track_peak:
            self._peak_enter()
        span[1] = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if track_peak:
                self.peaks[name].append(self._peak_exit())
        try:
            self._count(name, original, args, kwargs, result)
        except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError) as exc:
            self.count_errors.append(f"{name}: {exc!r}")
        return result

    # tracemalloc runs only inside the outermost peak span, so it slows
    # nothing else. It keeps one peak; nested spans save and restore the
    # enclosing span's running peak around their own reset.
    def _peak_enter(self):
        if not self._peak_stack:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._peak_stack:
            self._peak_stack[-1][1] = max(self._peak_stack[-1][1], peak)
        tracemalloc.reset_peak()
        self._peak_stack.append([current, current])

    def _peak_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        start, running = self._peak_stack.pop()
        span_peak = max(running, peak)
        if self._peak_stack:
            self._peak_stack[-1][1] = max(self._peak_stack[-1][1], span_peak)
            tracemalloc.reset_peak()
        else:
            tracemalloc.stop()
        return span_peak - start

    def _count(self, name, original, args, kwargs, result):
        if name == "cancellers.ls_estimate":
            diag = result.condition_diag
            self.fits.append((int(result.training_len), int(diag["n_params"]),
                              int(diag["rank"])))
        elif name == "impairments.simulate_received":
            samples = len(_bind(original, args, kwargs)["x"])
            clipped = int(result[1]["clipped_samples"])
            self.counts["impairments.simulate_received.samples"] += samples
            self.counts["impairments.clipped_samples"] += clipped
        elif name == "spectral.spectrum":
            a = _bind(original, args, kwargs)
            segments = a["averaging"]
            if segments is None:
                segments = 1 + (len(a["signal"]) - a["n_fft"]) // (a["n_fft"] // 2)
            self.counts["spectral.spectrum.segments"] += segments
        elif name == "signals.write_iq":
            self.counts["signals.write_iq.bytes"] += os.path.getsize(result)

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics; counts and times are per traced op."""
        busy = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent, _op in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        per_op = max(n_ops, 1)
        stats = {
            "calls": lambda n: calls[n] / per_op,
            "busy_s": lambda n: busy[n] / per_op,
            "self_s": lambda n: self_s[n] / per_op,
            "peak_mb": lambda n: max(self.peaks[n], default=0) / 1e6,
        }
        out = {}
        for name, wanted in REPORT:
            for stat in wanted:
                out[f"{name}.{stat}"] = {"value": stats[stat](name), "unit": UNITS[stat]}
        fits = self.fits
        rows = max((f[0] for f in fits), default=0)
        cols = max((f[1] for f in fits), default=0)
        out["cancellers.ls_estimate.rows"] = {"value": rows, "unit": "count"}
        out["cancellers.ls_estimate.cols"] = {"value": cols, "unit": "count"}
        out["cancellers.ls_estimate.regressor_mb"] = {
            "value": max((f[0] * f[1] * 16 for f in fits), default=0) / 1e6, "unit": "MB"}
        out["cancellers.ls_estimate.full_rank_ratio"] = {
            "value": sum(f[2] == f[1] for f in fits) / len(fits) if fits else 0.0,
            "unit": "ratio"}
        for name, unit in (("impairments.simulate_received.samples", "count"),
                           ("impairments.clipped_samples", "count"),
                           ("spectral.spectrum.segments", "count"),
                           ("signals.write_iq.bytes", "B")):
            out[name] = {"value": self.counts[name] / per_op, "unit": unit}
        out["trace.count_errors"] = {"value": len(self.count_errors), "unit": "count"}
        return out
