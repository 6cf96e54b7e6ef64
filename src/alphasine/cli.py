"""Command-line front end: forward sampling, the three inverters, reproducible
noise injection, and the stable-process bridge.  All I/O is CSV.

CSV conventions: '#' lines are comments (the full parameter set is recorded
there), the first row is a header, numbers carry 17 significant digits so
floats round-trip losslessly.  Exit codes: 0 success, 2 validation error,
3 numerical nonconvergence.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .direct_inv import DirectConfig, invert_direct
from .errors import NonConvergence
from .examples import BUILTINS
from .forward import SERIES_TERMS, t_sine, t_sine_series
from .fourier_inv import MollifierKind, invert_fourier
from .grid import SampledFunction, UniformGrid
from .quad import QuadSpec
from .sas import SasParams, f0_from_scale, g_from_codifference
# lambda_alpha is unused here; perfbench traces it under this name
from .specfun import cosine_coeffs, lambda_alpha, sine_coeffs  # noqa: F401
from .sphere import invert_sphere

# --gamma is valid only beside --mollifier, as --terms only beside --method series:
# the parser leaves both unset, so giving one where it does not apply is an error
_GAMMA = 0.5
# CSV rows converted at once: one pass per block, without holding the
# strings of a whole file
_CSV_BLOCK = 1024


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
    """Header and data rows of a CSV with at least two columns of finite numbers.

    Rows are converted _CSV_BLOCK at a time, the fields of a block joined and
    parsed in one pass; an error names the first line at fault, in file order."""
    header: list[str] | None = None
    blocks: list[np.ndarray] = []
    block: list[str] = []
    numbers: list[int] = []

    def flush():
        if not block:
            return
        fields = ",".join(block).split(",")
        try:
            blocks.append(np.array(list(map(float, fields))).reshape(len(block), len(header)))
        except ValueError:
            first = len(numbers) - len(block)
            for i, field in enumerate(fields):
                try:
                    float(field)
                except ValueError as exc:
                    number = numbers[first + i // len(header)]
                    raise ValueError(f"{path}, line {number}: {exc}") from None
        block.clear()

    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                if len(header) < 2:
                    raise ValueError(f"{path}, line {number}: need at least two columns")
                continue
            if line.count(",") != len(header) - 1:
                flush()  # a bad number on an earlier line is the first fault
                raise ValueError(
                    f"{path}, line {number}: {line.count(',') + 1} fields, "
                    f"the header has {len(header)}"
                )
            block.append(line)
            numbers.append(number)
            if len(block) == _CSV_BLOCK:
                flush()
    flush()
    if not numbers:
        raise ValueError(f"{path}: no data rows")
    data = np.concatenate(blocks)
    bad = np.flatnonzero(~np.all(np.isfinite(data), axis=1))
    if len(bad):
        raise ValueError(f"{path}, line {numbers[bad[0]]}: value is not finite")
    return header, data


def sampled_from_csv(path: str) -> SampledFunction:
    _, data = read_csv(path)
    x = data[:, 0]
    steps = np.diff(x)
    if len(steps) == 0:
        raise ValueError(f"{path}: need at least two samples")
    if not np.all(steps > 0.0):
        raise ValueError(f"{path}: abscissae must increase")
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
    """Option name (with '-', as on the command line) -> value of each
    `key = value` line."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}, line {number}: config line without '='")
            key, _, value = line.partition("=")
            out[key.strip().replace("_", "-")] = value.strip()
    return out


def _last_flag(argv: list[str], flag: str) -> str | None:
    """Value of the last `flag v` or `flag=v` in argv, None if there is none."""
    value = None
    for arg, following in zip(argv, argv[1:] + [None]):
        if arg == flag:
            value = following
        elif arg.startswith(flag + "="):
            value = arg.partition("=")[2]
    return value


def _expand_config(argv: list[str]) -> list[str]:
    """argv with the lines of its --config file inserted as --key=value flags
    right after the command name.  argparse then checks them like flags, the
    user's own flags come later and win, and the '=' form keeps a value such
    as -3:3:7 from being read as an option."""
    path = _last_flag(argv, "--config")
    if path is None:
        return argv
    flags = [f"--{key}={value}" for key, value in read_config(path).items()]
    return argv[:1] + flags + argv[1:]


def _method_first(argv: list[str]) -> list[str]:
    """`invert ... --method M ...` as `invert M ...`: argparse picks a
    subcommand by a word, not by the value of an option.  The last --method
    wins, so a flag overrides a config line."""
    if argv[:1] != ["invert"]:
        return argv
    method = _last_flag(argv, "--method")
    if method is None:  # argparse then reports the missing --method, or prints the help
        return argv[:1] + [arg for arg in argv[1:] if arg in ("-h", "--help")]
    flag_at = {i for i, arg in enumerate(argv) if arg == "--method"}
    rest = [arg for i, arg in enumerate(argv) if i > 0 and i not in flag_at
            and i - 1 not in flag_at and not arg.startswith("--method=")]
    return ["invert", method] + rest


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv as main() parses it: config lines become flags, then --method a subcommand."""
    return build_parser().parse_args(_method_first(_expand_config(argv)))


@contextmanager
def _out_stream(args):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    else:
        yield sys.stdout


def _params_comment(cmd: str, pairs: dict) -> str:
    body = " ".join(f"{k}={v}" for k, v in sorted(pairs.items()))
    return f"alphasine {cmd} {body}"


def cmd_coeffs(args) -> int:
    coeffs = sine_coeffs if args.kind == "sine" else cosine_coeffs
    table = coeffs(args.alpha, args.count)
    j = np.arange(args.count + 1, dtype=float)
    params = {"alpha": args.alpha, "count": args.count, "kind": args.kind}
    with _out_stream(args) as out:
        write_csv(out, [_params_comment("coeffs", params)], ["j", "c_j"], [j, table.coeffs])
    return 0


def cmd_forward(args) -> int:
    ys = parse_grid(args.grid).points()
    spec = QuadSpec(tail_cut=args.tail_cut)
    if args.f is not None:
        f, fhat = BUILTINS[args.f]
        name = args.f
    else:
        samples = sampled_from_csv(args.infile)
        f, fhat, name = samples.eval, None, args.infile
        # sampled inputs carry interpolation error well above 1e-6, so a
        # tighter quadrature tolerance is unreachable past the kinks of the
        # interpolant, and the tail ends at the data
        spec = QuadSpec(abs_tol=1e-6, rel_tol=1e-6,
                        tail_cut=min(args.tail_cut, samples.grid.last))
    params = {"alpha": args.alpha, "f": name, "method": args.method, "grid": args.grid,
              "tail_cut": args.tail_cut}
    if args.method == "quad":
        if args.terms is not None:
            raise ValueError("--terms applies to --method series only")
        vals = t_sine(f, args.alpha, ys, spec)
    else:
        if fhat is None:
            raise ValueError("method=series needs a builtin f with a known Fourier transform")
        params["terms"] = terms = SERIES_TERMS if args.terms is None else args.terms
        vals = np.empty(len(ys))
        pos = ys > 0.0
        vals[pos] = t_sine_series(fhat, args.alpha, ys[pos], terms, fhat_decays=True)
        vals[~pos] = t_sine(f, args.alpha, ys[~pos], spec)
    with _out_stream(args) as out:
        write_csv(out, [_params_comment("forward", params)], ["y", "value"], [ys, vals])
    return 0


def _flatness(g: SampledFunction, r: float) -> float:
    tail = np.real(g.values[g.xs > r])
    if len(tail) < 2:
        return float("nan")
    return float(np.std(tail) / max(abs(np.mean(tail)), 1e-300))


def cmd_invert(args) -> int:
    g = sampled_from_csv(args.infile)
    comments = []
    params = {"method": args.method, "alpha": args.alpha}
    if args.method == "fourier":
        moll = None
        if args.mollifier:
            moll = MollifierKind(args.mollifier, _GAMMA if args.gamma is None else args.gamma)
            params["gamma"] = moll.gamma
        elif args.gamma is not None:
            raise ValueError("--gamma is the scale of a mollifier and needs --mollifier")
        rec = invert_fourier(g, args.alpha, args.n, args.r, parse_grid(args.grid),
                             f0_override=args.f0, interpolation=args.interp, mollifier=moll)
        comments.append(f"tail_flatness = {_flatness(g, args.r):.6g}")
        params.update(n=args.n, r=args.r, interp=args.interp, mollifier=args.mollifier or "none")
    elif args.method == "direct":
        cfg = DirectConfig(alpha=args.alpha, epsilon=args.epsilon)
        rec = invert_direct(g, cfg, parse_grid(args.grid))
        params.update(epsilon=args.epsilon, c=cfg.weight_exponent)
    else:
        density = invert_sphere(g, args.alpha, args.n)
        rec = density.values
        comments.append(f"clipped_mass = {density.clipped_mass:.6g}")
        params["n"] = args.n
    xs = rec.xs
    vals = np.real(rec.values)
    columns = [xs, vals]
    header_row = ["x", "value"]
    if args.truth:
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
    _, data = read_csv(args.infile)
    vals = data[:, 1]
    if args.sigma != 0.0:
        vals = vals + args.sigma * gaussian_noise(args.seed, len(vals))
    params = {"sigma": args.sigma, "seed": args.seed, "in": args.infile}
    with _out_stream(args) as out:
        write_csv(out, [_params_comment("noise", params)], ["x", "value"], [data[:, 0], vals])
    return 0


def cmd_sas(args) -> int:
    p = SasParams(args.sigma, args.alpha)
    _, data = read_csv(args.infile)
    bad = data[:, 0] <= 0.0
    if bad.any():
        raise ValueError(f"{args.infile}: t must be positive, got {data[bad, 0][0]}")
    # emit g on the halved abscissae so tau(2t) uses the samples exactly
    t = data[:, 0] / 2.0
    g_vals = g_from_codifference(data[:, 1], p, t)
    params = {"sigma": args.sigma, "alpha": p.alpha.value, "in": args.infile}
    with _out_stream(args) as out:
        write_csv(out, [_params_comment("sas", params), f"f0 = {_fmt(f0_from_scale(p))}"],
                  ["t", "g"], [t, g_vals])
    return 0


class _DefaultsShown(argparse.ArgumentDefaultsHelpFormatter):
    """--help shows each option's default; an option left unset by default
    says in its help text what applies instead."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    """Exact option names only, defaults shown by --help, and a parse error
    raised as ValueError so that main() returns exit code 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, formatter_class=_DefaultsShown, **kwargs)

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The one declaration of every option: type, choices, default, required."""
    parser = _Parser(
        prog="alphasine",
        description="Forward and inverse |sin|^a / |cos|^a kernel transforms.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *, infile=True, alpha=True, within=sub):
        """infile, alpha: takes a required --in, --alpha; within: the subcommands it joins."""
        p = within.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="file of key = value lines, read as flags; "
                                        "explicit flags win")
        if infile:
            p.add_argument("--in", dest="infile", required=True, help="input CSV")
        p.add_argument("--out", help="output CSV; stdout if not given")
        if alpha:
            p.add_argument("--alpha", type=float, required=True)
        return p

    p = command("coeffs", cmd_coeffs, "kernel expansion coefficients c_j", infile=False)
    p.add_argument("--count", type=int, default=10, help="last index j")
    p.add_argument("--kind", choices=["sine", "cosine"], default="sine", help="kernel")

    p = command("forward", cmd_forward, "sample the forward transform", infile=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--f", choices=sorted(BUILTINS), help="builtin f")
    source.add_argument("--in", dest="infile", help="input CSV of samples of f")
    p.add_argument("--method", choices=["quad", "series"], default="quad", help="route")
    p.add_argument("--grid", default="0:20:401", help="start:stop:count for the y samples")
    p.add_argument("--tail-cut", dest="tail_cut", type=float, default=30.0,
                   help="upper end of the x integral")
    p.add_argument("--terms", type=int,
                   help=f"series terms, {SERIES_TERMS} if not given; --method series only")

    invert = sub.add_parser("invert", help="run one of the inverters, chosen by --method")
    methods = invert.add_subparsers(dest="method", required=True,
                                    metavar="--method {fourier,direct,sphere}")

    def method(name, summary):
        p = command(name, cmd_invert, summary, within=methods)
        p.add_argument("--truth", help="CSV with the true f for the error diagnostic")
        return p

    p = method("fourier", "Fourier-side triangular solve, all a > -1")
    p.add_argument("--n", type=int, default=100, help="sample count N")
    p.add_argument("--r", type=float, default=10.0, help="last sample abscissa R")
    p.add_argument("--interp", choices=["sinc", "linear"], default="sinc", help="synthesis")
    p.add_argument("--mollifier", choices=["triangle", "gaussian"])
    p.add_argument("--gamma", type=float,
                   help=f"mollifier scale, {_GAMMA} if not given; needs --mollifier")
    p.add_argument("--f0", type=float, help="F f(0); estimated from the tail if not given")
    p.add_argument("--grid", default="0:5:501", help="start:stop:count for the output")

    p = method("direct", "direct route in log coordinates, a > 1")
    p.add_argument("--epsilon", type=float, default=0.025, help="cutoff of |mu|")
    p.add_argument("--grid", default="0.2:3:281", help="start:stop:count for the output")

    p = method("sphere", "circle densities")
    p.add_argument("--n", type=int, default=10, help="last harmonic")

    p = command("noise", cmd_noise, "add reproducible Gaussian noise to a CSV", alpha=False)
    p.add_argument("--sigma", type=float, default=0.1, help="noise standard deviation")
    p.add_argument("--seed", type=int, default=0, help="Philox key")

    p = command("sas", cmd_sas, "codifference samples to transform samples g")
    p.add_argument("--sigma", type=float, required=True)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
        return args.func(args)
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
