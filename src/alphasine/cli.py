"""Command-line front end: forward sampling, the three inverters, reproducible
noise injection, and the stable-process bridge.  All I/O is CSV.

CSV conventions: '#' lines are comments (the full parameter set is recorded
there), the first row is a header, numbers carry 17 significant digits so
floats round-trip losslessly.  Exit codes: 0 success, 2 validation error,
3 numerical nonconvergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .direct_inv import DirectConfig, invert_direct
from .errors import NonConvergence
from .forward import t_sine, t_sine_series
from .fourier_inv import MollifierKind, invert_fourier
from .grid import SampledFunction, UniformGrid
from .quad import QuadSpec
from .sas import SasParams, f0_from_scale
from .specfun import cosine_coeffs, lambda_alpha, sine_coeffs
from .sphere import invert_sphere

BUILTINS = {
    "f1": (lambda x: np.exp(-np.asarray(x) ** 2),
           lambda t: math.sqrt(math.pi) * np.exp(-np.asarray(t) ** 2 / 4.0)),
    "f2": (lambda x: np.asarray(x) ** 2 * np.exp(-np.abs(x)),
           lambda t: 4.0 * (1.0 - 3.0 * np.asarray(t) ** 2) / (1.0 + np.asarray(t) ** 2) ** 3),
    "f3": (lambda x: (1.0 + np.asarray(x) ** 2) ** -2.0,
           lambda t: math.pi / 2.0 * (1.0 + np.abs(t)) * np.exp(-np.abs(t))),
}


def gaussian_noise(seed: int, count: int) -> np.ndarray:
    """Counter-based standard normals: draw i comes from Philox keyed (seed, i),
    so any subset can be generated independently and deterministically."""
    out = np.empty(count)
    for i in range(count):
        bitgen = np.random.Philox(key=np.array([seed, i], dtype=np.uint64))
        out[i] = np.random.Generator(bitgen).standard_normal()
    return out


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_csv(stream, comments: list[str], header: list[str], columns: list[np.ndarray]) -> None:
    for line in comments:
        stream.write(f"# {line}\n")
    stream.write(",".join(header) + "\n")
    for row in zip(*columns):
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and data rows of a CSV with at least two columns of finite numbers."""
    header: list[str] | None = None
    rows = []
    line_numbers = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if header is None:
                if len(fields) < 2:
                    raise ValueError(f"{path}, line {number}: need at least two columns")
                header = [c.strip() for c in fields]
                continue
            if len(fields) != len(header):
                raise ValueError(
                    f"{path}, line {number}: {len(fields)} fields, the header has {len(header)}"
                )
            rows.append(list(map(float, fields)))
            line_numbers.append(number)
    if header is None or not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.array(rows)
    bad = np.flatnonzero(~np.all(np.isfinite(data), axis=1))
    if len(bad):
        raise ValueError(f"{path}, line {line_numbers[bad[0]]}: value is not finite")
    return header, data


def sampled_from_csv(path: str) -> SampledFunction:
    _, data = read_csv(path)
    x = data[:, 0]
    steps = np.diff(x)
    if len(steps) == 0:
        raise ValueError(f"{path}: need at least two samples")
    step = float(np.median(steps))
    if np.max(np.abs(steps - step)) > 1e-8 * max(1.0, abs(step)):
        raise ValueError(f"{path}: abscissae are not uniformly spaced")
    return SampledFunction(UniformGrid(float(x[0]), step, len(x)), data[:, 1])


def parse_grid(text: str) -> UniformGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {text!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1 or stop <= start:
        raise ValueError(f"bad grid specification {text!r}")
    return UniformGrid.from_span(start, stop, count)


def read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _merge_config(args: argparse.Namespace) -> None:
    """Fill every still-unset option from the config file; flags win."""
    if not getattr(args, "config", None):
        return
    cfg = read_config(args.config)
    for key, raw in cfg.items():
        if key == "in":  # the flag --in parses into args.infile
            key = "infile"
        if not hasattr(args, key):
            raise ValueError(f"config key {key!r} is not an option of this command")
        if getattr(args, key) is None:
            setattr(args, key, raw)


def _need(args, name: str, conv, default=None):
    raw = getattr(args, name, None)
    if raw is None:
        if default is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")
        return default
    return conv(raw) if isinstance(raw, str) else raw


@contextmanager
def _out_stream(args):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    else:
        yield sys.stdout


def _params_comment(cmd: str, pairs: dict) -> str:
    body = " ".join(f"{k}={v}" for k, v in sorted(pairs.items()))
    return f"alphasine {cmd} {body}"


def cmd_coeffs(args) -> int:
    alpha = _need(args, "alpha", float)
    count = int(_need(args, "count", int, 10))
    kind = _need(args, "kind", str, "sine")
    table = sine_coeffs(alpha, count) if kind == "sine" else cosine_coeffs(alpha, count)
    j = np.arange(count + 1, dtype=float)
    with _out_stream(args) as out:
        write_csv(out, [_params_comment("coeffs", {"alpha": alpha, "count": count, "kind": kind})],
                  ["j", "c_j"], [j, table.coeffs])
    return 0


def cmd_forward(args) -> int:
    alpha = _need(args, "alpha", float)
    method = _need(args, "method", str, "quad")
    grid = parse_grid(_need(args, "grid", str, "0:20:401"))
    tail_cut = float(_need(args, "tail_cut", float, 30.0))
    terms = int(_need(args, "terms", int, 10_000))
    spec = QuadSpec(tail_cut=tail_cut)
    name = getattr(args, "f", None)
    if name is not None:
        if name not in BUILTINS:
            raise ValueError(f"unknown builtin {name!r}; choose from {sorted(BUILTINS)}")
        f, fhat = BUILTINS[name]
    elif getattr(args, "infile", None):
        samples = sampled_from_csv(args.infile)
        f, fhat = samples.eval, None
        name = args.infile
        # sampled inputs carry interpolation error well above 1e-6, so a
        # tighter quadrature tolerance is unreachable past the kinks of the
        # interpolant, and the tail ends at the data
        spec = QuadSpec(abs_tol=1e-6, rel_tol=1e-6,
                        tail_cut=min(tail_cut, samples.grid.last))
    else:
        raise ValueError("need --f or --in")
    ys = grid.points()
    if method == "quad":
        vals = np.array([t_sine(f, alpha, y, spec) for y in ys])
    elif method == "series":
        if fhat is None:
            raise ValueError("method=series needs a builtin f with a known Fourier transform")
        vals = np.array([
            t_sine_series(fhat, alpha, y, terms, fhat_decays=True) if y > 0.0
            else t_sine(f, alpha, y, spec)
            for y in ys
        ])
    else:
        raise ValueError(f"unknown method {method!r}")
    params = {"alpha": alpha, "f": name, "method": method, "grid": args.grid or "0:20:401",
              "tail_cut": tail_cut}
    with _out_stream(args) as out:
        write_csv(out, [_params_comment("forward", params)], ["y", "value"], [ys, vals])
    return 0


def _flatness(g: SampledFunction, r: float) -> float:
    tail = np.real(g.values[g.xs > r])
    if len(tail) < 2:
        return float("nan")
    return float(np.std(tail) / max(abs(np.mean(tail)), 1e-300))


def cmd_invert(args) -> int:
    method = _need(args, "method", str)
    if not getattr(args, "infile", None):
        raise ValueError("need --in with transform samples")
    alpha = _need(args, "alpha", float)
    comments = []
    if method == "fourier":
        g = sampled_from_csv(args.infile)
        n = int(_need(args, "n", int, 100))
        r = float(_need(args, "r", float, 10.0))
        out_grid = parse_grid(_need(args, "grid", str, "0:5:501"))
        interp = _need(args, "interp", str, "sinc")
        moll = None
        if getattr(args, "mollifier", None):
            moll = MollifierKind(args.mollifier, float(_need(args, "gamma", float, 0.5)))
        f0 = getattr(args, "f0", None)
        f0 = float(f0) if f0 is not None else None
        rec = invert_fourier(g, alpha, n, r, out_grid,
                             f0_override=f0, interpolation=interp, mollifier=moll)
        comments.append(f"tail_flatness = {_flatness(g, r):.6g}")
        params = {"method": method, "alpha": alpha, "n": n, "r": r, "interp": interp,
                  "mollifier": getattr(args, "mollifier", None) or "none"}
    elif method == "direct":
        g = sampled_from_csv(args.infile)
        epsilon = float(_need(args, "epsilon", float, 0.025))
        out_grid = parse_grid(_need(args, "grid", str, "0.2:3:281"))
        cfg = DirectConfig(alpha=alpha, epsilon=epsilon)
        rec = invert_direct(g, cfg, out_grid)
        params = {"method": method, "alpha": alpha, "epsilon": epsilon,
                  "c": cfg.weight_exponent}
    elif method == "sphere":
        kf = sampled_from_csv(args.infile)
        n = int(_need(args, "n", int, 10))
        density = invert_sphere(kf, alpha, n)
        rec = density.values
        comments.append(f"clipped_mass = {density.clipped_mass:.6g}")
        params = {"method": method, "alpha": alpha, "n": n}
    else:
        raise ValueError(f"unknown inversion method {method!r}")
    xs = rec.xs
    vals = np.real(rec.values)
    columns = [xs, vals]
    header_row = ["x", "value"]
    if getattr(args, "truth", None):
        _, tdata = read_csv(args.truth)
        truth = np.interp(xs, tdata[:, 0], tdata[:, 1])
        err = float(np.linalg.norm(vals - truth) / max(np.linalg.norm(truth), 1e-300))
        comments.append(f"l2_error = {err:.6g}")
        columns.append(truth)
        header_row.append("truth")
    with _out_stream(args) as out:
        write_csv(out, [_params_comment("invert", params)] + comments, header_row, columns)
    for line in comments:
        print(line, file=sys.stderr)
    return 0


def cmd_noise(args) -> int:
    if not getattr(args, "infile", None):
        raise ValueError("need --in")
    sigma = float(_need(args, "sigma", float, 0.1))
    seed = int(_need(args, "seed", int, 0))
    header, data = read_csv(args.infile)
    vals = data[:, 1]
    if sigma != 0.0:
        vals = vals + sigma * gaussian_noise(seed, len(vals))
    params = {"sigma": sigma, "seed": seed, "in": args.infile}
    with _out_stream(args) as out:
        write_csv(out, [_params_comment("noise", params)], ["x", "value"], [data[:, 0], vals])
    return 0


def cmd_sas(args) -> int:
    if not getattr(args, "infile", None):
        raise ValueError("need --in with codifference samples (t, tau)")
    sigma = float(_need(args, "sigma", float))
    alpha = _need(args, "alpha", float)
    p = SasParams(sigma, alpha)
    _, data = read_csv(args.infile)
    t_in = data[:, 0]
    if np.any(t_in <= 0.0):
        raise ValueError("codifference abscissae must be positive")
    tau_vals = data[:, 1]
    # emit g on the halved abscissae so tau(2t) uses the samples exactly
    a = p.alpha.value
    g_vals = (2.0 * sigma**a - tau_vals) / (2.0 ** (a + 1.0) * lambda_alpha(p.alpha))
    f0 = f0_from_scale(p)
    params = {"sigma": sigma, "alpha": a, "in": args.infile}
    with _out_stream(args) as out:
        write_csv(out, [_params_comment("sas", params), f"f0 = {_fmt(f0)}"],
                  ["t", "g"], [t_in / 2.0, g_vals])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphasine",
        description="Forward and inverse |sin|^a / |cos|^a kernel transforms.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value file; explicit flags win")
        p.add_argument("--in", dest="infile", help="input CSV")
        p.add_argument("--out", help="output CSV (default stdout)")
        p.add_argument("--alpha", type=float)

    p = sub.add_parser("coeffs", help="kernel expansion coefficients c_j")
    common(p)
    p.add_argument("--count", type=int)
    p.add_argument("--kind", choices=["sine", "cosine"])
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("forward", help="sample the forward transform")
    common(p)
    p.add_argument("--f", choices=sorted(BUILTINS))
    p.add_argument("--method", choices=["quad", "series"])
    p.add_argument("--grid", help="start:stop:count for the y samples")
    p.add_argument("--tail-cut", dest="tail_cut", type=float)
    p.add_argument("--terms", type=int)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("invert", help="run one of the inverters")
    common(p)
    p.add_argument("--method", choices=["fourier", "direct", "sphere"])
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--mollifier", choices=["triangle", "gaussian"])
    p.add_argument("--interp", choices=["sinc", "linear"])
    p.add_argument("--f0", type=float)
    p.add_argument("--grid", help="start:stop:count for the output")
    p.add_argument("--truth", help="CSV with the true f for the error diagnostic")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("noise", help="add reproducible Gaussian noise to a CSV")
    common(p)
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("sas", help="codifference samples to transform samples g")
    common(p)
    p.add_argument("--sigma", type=float)
    p.set_defaults(func=cmd_sas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        return args.func(args)
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
