"""Independent oracles and strict CSV handling for the benchmark.

Everything here is computed from closed forms with the standard library and
numpy; nothing is imported from alphasine, so a defect in the program cannot
hide in its own check.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

SQRT_PI = math.sqrt(math.pi)


def f_values(name: str, x: np.ndarray) -> np.ndarray:
    """The three builtin half-line functions of the CLI."""
    x = np.asarray(x, dtype=float)
    if name == "f1":
        return np.exp(-x * x)
    if name == "f2":
        return x * x * np.exp(-np.abs(x))
    if name == "f3":
        return (1.0 + x * x) ** -2.0
    raise ValueError(f"unknown function {name!r}")


def fhat_values(name: str, t) -> np.ndarray:
    """Fourier transforms of the even extensions of f1, f2, f3."""
    t = np.asarray(t, dtype=float)
    if name == "f1":
        return SQRT_PI * np.exp(-t * t / 4.0)
    if name == "f2":
        return 4.0 * (1.0 - 3.0 * t * t) / (1.0 + t * t) ** 3
    if name == "f3":
        at = np.abs(t)
        return math.pi / 2.0 * (1.0 + at) * np.exp(-at)
    raise ValueError(f"unknown function {name!r}")


def fhat0(name: str) -> float:
    """F f(0), the integral of the even extension over the line."""
    return float(fhat_values(name, 0.0))


def t2_values(name: str, y: np.ndarray) -> np.ndarray:
    """Closed forms of the |sin|^2 transforms T_2 f."""
    y = np.abs(np.asarray(y, dtype=float))
    if name == "f1":
        return SQRT_PI / 4.0 * (1.0 - np.exp(-y * y))
    if name == "f2":
        y2 = y * y
        return 8.0 * y2 * (3.0 + 6.0 * y2 + 8.0 * y2 * y2) / (1.0 + 4.0 * y2) ** 3
    if name == "f3":
        return math.pi / 8.0 * (1.0 - np.exp(-2.0 * y) * (1.0 + 2.0 * y))
    raise ValueError(f"unknown function {name!r}")


def tail_integral(name: str, cut: float) -> float:
    """Integral of f over (cut, inf)."""
    if name == "f1":
        return 0.5 * SQRT_PI * math.erfc(cut)
    if name == "f2":
        return math.exp(-cut) * (cut * cut + 2.0 * cut + 2.0)
    if name == "f3":
        return 0.5 * (0.5 * math.pi - math.atan(cut) - cut / (1.0 + cut * cut))
    raise ValueError(f"unknown function {name!r}")


def sin_power_integral(a: float) -> float:
    """C_a = integral of |sin u|^a over one lobe (0, pi)."""
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(0.5 * (1.0 + a)) - math.lgamma(1.0 + 0.5 * a))


def lambda_alpha(a: float) -> float:
    """Mean of |sin|^a over a period."""
    return sin_power_integral(a) / math.pi


TAIL_CUT = 30.0  # the CLI's default --tail-cut
QUAD_SLACK = 1e-6


def forward_bound(name: str, a: float, ys: np.ndarray) -> np.ndarray:
    """Worst admissible |T_a f(y) truncated at TAIL_CUT - T_a f(y)|, per y.

    The truncated transform misses the integral over (TAIL_CUT, inf).  For
    a >= 0 the kernel is at most 1, so the miss is at most the tail of f.
    For a < 0 the kernel is unbounded but each lobe (length pi/y) integrates
    to C_a/y; with f decreasing past the cut, the first partial lobe costs at
    most C_a f(cut)/y and the rest at most lambda_a times the tail of f.
    QUAD_SLACK covers the quadrature tolerance and series truncation.
    """
    ys = np.asarray(ys, dtype=float)
    tail = tail_integral(name, TAIL_CUT)
    if a >= 0.0:
        miss = np.full(ys.shape, tail)
    else:
        f_cut = float(f_values(name, TAIL_CUT))
        miss = lambda_alpha(a) * tail + sin_power_integral(a) * f_cut / ys
    return QUAD_SLACK + miss


def rel_l2(approx: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(approx - truth) / np.linalg.norm(truth))


# -- periodic densities on [-pi, pi), normalized to grid trapezoid mass 1 ----

def circle_points(m: int) -> np.ndarray:
    return -math.pi + (2.0 * math.pi / m) * np.arange(m)


def circle_density(kind: str, shift: float, m: int) -> np.ndarray:
    x = circle_points(m) - shift
    if kind == "shifted_sine":
        vals = np.abs(np.sin(x))
    elif kind == "vonmises4":
        vals = np.exp(np.cos(4.0 * x))
    elif kind == "watson":
        vals = np.exp(np.cos(x) ** 2)
    else:
        raise ValueError(f"unknown density {kind!r}")
    return vals / ((2.0 * math.pi / m) * float(np.sum(vals)))


# -- CSV ---------------------------------------------------------------------

class MalformedOutput(Exception):
    """An output file that does not parse as the expected CSV."""


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = np.column_stack(columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_csv(path: Path, header: list[str], rows: int) -> tuple[list[str], np.ndarray]:
    """Parse a CLI output file: '#' comments, then exactly this header, then
    exactly `rows` rows of finite numbers.  Returns (comments, data)."""
    comments: list[str] = []
    seen_header = None
    data = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    comments.append(line[1:].strip())
                    continue
                if seen_header is None:
                    seen_header = [c.strip() for c in line.split(",")]
                    continue
                data.append([float(c) for c in line.split(",")])
    except (OSError, ValueError) as exc:
        raise MalformedOutput(f"{path.name}: {exc}") from exc
    if seen_header != header:
        raise MalformedOutput(f"{path.name}: header {seen_header}, expected {header}")
    if len(data) != rows or any(len(r) != len(header) for r in data):
        raise MalformedOutput(f"{path.name}: expected {rows} rows of {len(header)} fields")
    arr = np.array(data, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise MalformedOutput(f"{path.name}: non-finite values")
    return comments, arr


def comment_value(comments: list[str], key: str) -> float:
    """The number in a '# key = value' comment line."""
    for line in comments:
        name, sep, value = line.partition("=")
        if sep and name.strip() == key:
            try:
                return float(value)
            except ValueError as exc:
                raise MalformedOutput(f"comment {key!r}: {exc}") from exc
    raise MalformedOutput(f"no '{key} = ...' comment")
