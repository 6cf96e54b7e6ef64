"""Span recording around the program's module boundaries.

The program is not instrumented.  Instead each boundary function is replaced,
at the module attribute its caller looks it up from, by a wrapper that records
a span (name, start, end, parent, op, phase) and the work it was asked to do.
A name the program no longer has is skipped and reported as absent; metrics
that need it are then left out rather than reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "grid", "quad", "forward", "fourier_inv", "direct_inv", "sphere", "sas", "cli")


def _rows_read(args, kwargs, result):
    return {"cli.csv_rows": len(result[1])}


def _rows_written(args, kwargs, result):
    return {"cli.csv_rows": len(args[3][0])}


def _noise_draws(args, kwargs, result):
    return {"cli.noise_draws": len(result)}


def _solve_rows(args, kwargs, result):
    return {"fourier_inv.solve_rows": len(result)}


def _coeff_terms(args, kwargs, result):
    return {"specfun.coeff_terms": len(result.coeffs)}


def _eval_points(args, kwargs, result):
    return {"grid.eval_points": np.size(result)}


def _clipped_mass(args, kwargs, result):
    return {"sphere.clipped_mass_max": ("max", float(result.clipped_mass))}


# (owner, attribute, span name, work counter).  The span name's prefix is the
# layer that owns the work: e.g. forward.py looks integrate_kernel_split up in
# its own namespace, and the time inside it belongs to quad.
WRAPS = (
    ("alphasine.cli", "main", "cli.main", None),
    ("alphasine.cli", "read_csv", "cli.read_csv", _rows_read),
    ("alphasine.cli", "write_csv", "cli.write_csv", _rows_written),
    ("alphasine.cli", "gaussian_noise", "cli.gaussian_noise", _noise_draws),
    ("alphasine.cli", "t_sine", "forward.t_sine", None),
    ("alphasine.forward", "integrate_kernel_split", "quad.kernel_split", None),
    ("alphasine.forward", "integrate", "quad.integrate", None),
    ("alphasine.cli", "invert_fourier", "fourier_inv.invert_fourier", None),
    ("alphasine.fourier_inv", "estimate_f0", "fourier_inv.estimate_f0", None),
    ("alphasine.fourier_inv", "build_rhs", "fourier_inv.build_rhs", None),
    ("alphasine.fourier_inv", "solve_xi", "fourier_inv.solve_xi", _solve_rows),
    ("alphasine.fourier_inv", "sine_coeffs", "specfun.sine_coeffs", _coeff_terms),
    ("alphasine.sphere", "cosine_coeffs", "specfun.cosine_coeffs", _coeff_terms),
    ("alphasine.cli", "lambda_alpha", "specfun.lambda_alpha", None),
    ("alphasine.grid.SampledFunction", "eval", "grid.eval", _eval_points),
    ("alphasine.sphere", "k_sphere_grid", "sphere.k_sphere_grid", None),
    ("alphasine.sphere", "_kernel_coeffs_quad", "quad.sphere_coeffs", None),
    ("alphasine.cli", "invert_sphere", "sphere.invert_sphere", _clipped_mass),
    ("alphasine.cli", "invert_direct", "direct_inv.invert_direct", None),
    ("alphasine.direct_inv", "mu_table", "direct_inv.mu_table", None),
    ("alphasine.direct_inv", "_h_values", "direct_inv.h_values", None),
    ("alphasine.direct_inv", "_h2_values", "direct_inv.h2_values", None),
    ("alphasine.cli", "f0_from_scale", "sas.f0_from_scale", None),
)

# The builtin integrands are counted, not timed: quad.f_nodes is the number of
# abscissae at which the quadrature evaluated f.
INTEGRANDS = ("alphasine.cli", "BUILTINS")


def _resolve(path: str):
    """The module or class named by a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Keeps spans in memory; `op` and `phase` tag the spans opened under them."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, op, phase]
        self.work: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.op: int | None = None
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for owner_path, attr, name, counter in WRAPS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        owner = _resolve(INTEGRANDS[0])
        table = getattr(owner, INTEGRANDS[1], None) if owner is not None else None
        if not isinstance(table, dict):
            self.absent.append("quad.f_nodes")
            return
        counted = dict(table)
        for key, (f, *rest) in table.items():
            counted[key] = (self._count_nodes(f), *rest)
        self._saved.append((owner, INTEGRANDS[1], table))
        setattr(owner, INTEGRANDS[1], counted)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, 0.0, 0.0, parent, tracer.op, tracer.phase]
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = tracer.clock()
                tracer._stack.pop()
            if counter is not None and tracer.phase == "op":
                for key, amount in counter(args, kwargs, result).items():
                    if isinstance(amount, tuple):
                        tracer.work[key] = max(tracer.work[key], amount[1])
                    else:
                        tracer.work[key] += amount
            return result

        return traced

    def _count_nodes(self, f):
        tracer = self

        @functools.wraps(f)
        def counted(x):
            if tracer.phase == "op":
                tracer.work["quad.f_nodes"] += np.size(x)
            return f(x)

        return counted

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op", "phase")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": keys, "absent": self.absent, "spans": self.spans}, fh)


def _times(spans: list[list], phase: str) -> tuple[dict, dict, dict]:
    """Inclusive seconds, self seconds and call counts per span name, over the
    spans of one phase."""
    children: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for index, (name, start, end, _, _, span_phase) in enumerate(spans):
        if span_phase == phase:
            inclusive[name] += end - start
            own[name] += (end - start) - children[index]
            calls[name] += 1
    return inclusive, own, calls


# per-layer metric -> (kind, wrapped name it needs).  Kinds: "s" inclusive
# seconds per op, "self_s" self seconds per op, "calls" calls per op, "work"
# the metric's work counter per op, "max" the largest value its counter saw.
SPAN_METRICS = {
    "forward.t_sine_calls": ("calls", "forward.t_sine"),
    "forward.t_sine_s": ("s", "forward.t_sine"),
    "quad.kernel_split_calls": ("calls", "quad.kernel_split"),
    "quad.kernel_split_s": ("s", "quad.kernel_split"),
    "quad.f_nodes": ("work", "quad.f_nodes"),
    "quad.sphere_coeffs_s": ("s", "quad.sphere_coeffs"),
    "fourier_inv.invert_fourier_s": ("s", "fourier_inv.invert_fourier"),
    "fourier_inv.solve_xi_s": ("s", "fourier_inv.solve_xi"),
    "fourier_inv.solve_rows": ("work", "fourier_inv.solve_xi"),
    "fourier_inv.build_rhs_s": ("s", "fourier_inv.build_rhs"),
    "fourier_inv.synthesis_s": ("self_s", "fourier_inv.invert_fourier"),
    "specfun.sine_coeffs_s": ("s", "specfun.sine_coeffs"),
    "specfun.cosine_coeffs_s": ("s", "specfun.cosine_coeffs"),
    "specfun.coeff_terms": ("work", "specfun.sine_coeffs"),
    "grid.eval_s": ("s", "grid.eval"),
    "grid.eval_points": ("work", "grid.eval"),
    "sphere.k_sphere_grid_s": ("s", "sphere.k_sphere_grid"),
    "sphere.invert_sphere_s": ("s", "sphere.invert_sphere"),
    "sphere.clipped_mass_max": ("max", "sphere.invert_sphere"),
    "cli.read_csv_s": ("s", "cli.read_csv"),
    "cli.write_csv_s": ("s", "cli.write_csv"),
    "cli.csv_rows": ("work", "cli.read_csv"),
    "cli.gaussian_noise_s": ("s", "cli.gaussian_noise"),
    "cli.noise_draws": ("work", "cli.gaussian_noise"),
    "cli.main_self_s": ("self_s", "cli.main"),
    "direct_inv.invert_direct_s": ("s", "direct_inv.invert_direct"),
    "direct_inv.h_values_s": ("s", "direct_inv.h_values"),
    "direct_inv.h2_values_s": ("s", "direct_inv.h2_values"),
}


def layer_metrics(tracer: Tracer, op_seconds: list[float]) -> dict[str, float]:
    """Per-op layer figures over the traced ops, plus each layer's share of
    op time (self time summed by layer over total op wall time)."""
    n_ops = len(op_seconds)
    busy = float(sum(op_seconds))
    inclusive, own, calls = _times(tracer.spans, "op")
    absent = set(tracer.absent)
    out: dict[str, float] = {}
    for metric, (kind, source) in SPAN_METRICS.items():
        if source in absent:
            continue
        if kind == "s":
            out[metric] = inclusive[source] / n_ops
        elif kind == "self_s":
            out[metric] = own[source] / n_ops
        elif kind == "calls":
            out[metric] = calls[source] / n_ops
        elif kind == "work":
            out[metric] = tracer.work[metric] / n_ops
        else:
            out[metric] = tracer.work[metric]
    for layer in LAYERS:
        self_s = sum(v for k, v in own.items() if k.split(".", 1)[0] == layer)
        out[f"{layer}.op_share"] = self_s / busy
    if "direct_inv.mu_table" not in absent:
        setup = [e - s for name, s, e, _, _, phase in tracer.spans
                 if name == "direct_inv.mu_table" and phase == "setup"]
        out["direct_inv.mu_table_s"] = statistics.median(setup) if setup else 0.0
    out["trace.spans_per_op"] = sum(calls.values()) / n_ops
    return out
