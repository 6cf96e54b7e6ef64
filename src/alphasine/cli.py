"""Command-line front end: forward sampling, the three inverters, reproducible
noise injection, and the stable-process bridge.  All I/O is CSV.

CSV conventions: '#' lines are comments (the full parameter set is recorded
there), the first row is a header, numbers carry 17 significant digits so
floats round-trip losslessly.  Exit codes: 0 success, 2 validation error,
3 numerical nonconvergence.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
import warnings

import numpy as np

from . import __version__
from .direct_inv import DirectConfig, invert_direct
from .errors import NonConvergence, ShortSampleRange
from .examples import BUILTINS
from .forward import SERIES_TERMS, t_sine, t_sine_series
from .fourier_inv import MollifierKind, invert_fourier
from .grid import SampledFunction, UniformGrid, _scalar
from .quad import QuadSpec
from .sas import SasParams, f0_from_scale, g_from_codifference
# lambda_alpha is unused here; perfbench traces it under this name
from .specfun import cosine_coeffs, lambda_alpha, sine_coeffs  # noqa: F401
from .sphere import invert_sphere

# --gamma is valid only beside --mollifier, as --terms only beside --method series:
# the parser leaves both unset, so giving one where it does not apply is an error
_GAMMA = 0.5


def gaussian_noise(seed: int, count: int) -> np.ndarray:
    """Counter-based standard normals: draw i comes from Philox keyed (seed, i),
    so any subset can be generated independently and deterministically.

    One generator serves every draw: setting its state to the fresh state of
    key (seed, i) (counter zero, buffer empty) is the same as building a new
    Philox with that key, without the seeding that the key then overwrites."""
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    out = np.empty(count)
    for i in range(count):
        key[1] = i
        bitgen.state = state
        out[i] = gen.standard_normal()
    return out


def write_csv(stream, comments: list[str], header: list[str], columns: list[np.ndarray]) -> None:
    """One write of the whole file.  Values go through .tolist(), because a
    Python float formats faster than, and exactly as, an np.float64."""
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    stream.write("".join([f"# {line}\n" for line in comments] + [",".join(header) + "\n"]
                         + [row.format(*r) for r in rows]))


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and data rows of a CSV with at least two columns of finite numbers.

    The rows after the header are parsed in one np.loadtxt pass.  loadtxt
    refuses some files that the row parser reads (a whitespace-only or '#'
    line after the header, a field such as "1_0" or a non-ASCII digit), so
    its result is kept only when it has rows, the header's width and finite
    values; any other file is read again by _read_csv_rows, in one pass of
    its own, which decides every error and its message."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header, data = None, None
    # loadtxt strips the ASCII separators 0x1c-0x1f around a number, float() does not
    if not any(c in raw for c in b"\x1c\x1d\x1e\x1f"):
        try:
            text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
            for line in iter(text.readline, ""):
                line = line.strip()
                if line and not line.startswith("#"):
                    header = [c.strip() for c in line.split(",")]
                    break
            if header is not None and len(header) >= 2:
                with warnings.catch_warnings():
                    # a header-only file; the fallback reports it as "no data rows"
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                            UserWarning)
                    data = np.loadtxt(text, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            pass  # the row parser reads the file again and names the fault
    if data is not None and len(data) and data.shape[1] == len(header) and np.isfinite(data).all():
        return header, data
    return _read_csv_rows(path)


def _content_lines(path: str):
    """(number, line) of each line of a UTF-8 text file that is neither blank
    nor a '#' comment, stripped.  Lines end at \\n, \\r\\n or \\r.  A line that
    is not UTF-8 is refused, by number, when the pass reaches it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # each line is decoded with its ending: a character it cuts short is then
    # an invalid continuation byte, not an unexpected end of data
    for number, line in enumerate(raw.splitlines(keepends=True), 1):
        try:
            line = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}, line {number}: not UTF-8 text ({exc})") from None
        if line and not line.startswith("#"):
            yield number, line


def _read_csv_rows(path: str) -> tuple[list[str], np.ndarray]:
    """read_csv line by line: every input float() reads, and every error.

    One pass over the content lines: the first is the header, of at least two
    columns, and each later one a row of the header's width whose fields
    float() reads.  The first fault in file order is raised and names its
    line: a line that is not UTF-8, a one-column header, a ragged row, a
    field float() refuses.  After the pass come, in this order, no data rows
    and a value that is not finite, which names the first line holding one."""
    header: list[str] | None = None
    numbers: list[int] = []
    values: list[float] = []
    for number, line in _content_lines(path):
        fields = line.split(",")
        if header is None:
            header = [c.strip() for c in fields]
            if len(header) < 2:
                raise ValueError(f"{path}, line {number}: need at least two columns")
            continue
        if len(fields) != len(header):
            raise ValueError(f"{path}, line {number}: {len(fields)} fields, "
                             f"the header has {len(header)}")
        try:
            values.extend(map(float, fields))
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from None
        numbers.append(number)
    if not numbers:
        raise ValueError(f"{path}: no data rows")
    data = np.array(values).reshape(len(numbers), len(header))
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}, line {numbers[bad[0]]}: value is not finite")
    return header, data


def _increasing(path: str, x: np.ndarray) -> None:
    """Refuse the abscissae x read from path unless they increase."""
    if not np.all(np.diff(x) > 0.0):
        raise ValueError(f"{path}: abscissae must increase")


def sampled_from_csv(path: str) -> SampledFunction:
    _, data = read_csv(path)
    x = data[:, 0]
    if len(x) < 2:
        raise ValueError(f"{path}: need at least two samples")
    _increasing(path, x)
    grid = UniformGrid.from_span(float(x[0]), float(x[-1]), len(x))
    # each abscissa within 1e-8 of a step of its grid point, beyond rounding
    if np.max(np.abs(x - grid.points())) > 1e-8 * grid.step + 8.0 * np.spacing(np.max(np.abs(x))):
        raise ValueError(f"{path}: abscissae are not uniformly spaced")
    return SampledFunction(grid, data[:, 1])


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
    for number, line in _content_lines(path):
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


def _emit(args, params: dict, header: list[str], columns: list[np.ndarray], comments=()) -> None:
    """Write a command's output to --out, or to stdout if it is not given: a
    '#' line "alphasine COMMAND key=value ..." with params in key order, a '#'
    line for each comment, then the table."""
    body = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    lines = [f"alphasine {args.command} {body}", *comments]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write_csv(fh, lines, header, columns)
    else:
        write_csv(sys.stdout, lines, header, columns)


def cmd_coeffs(args) -> int:
    coeffs = sine_coeffs if args.kind == "sine" else cosine_coeffs
    table = coeffs(args.alpha, args.count)
    j = np.arange(args.count + 1, dtype=float)
    params = {"alpha": args.alpha, "count": args.count, "kind": args.kind}
    _emit(args, params, ["j", "c_j"], [j, table.coeffs])
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
              "tail_cut": spec.tail_cut}
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
    _emit(args, params, ["y", "value"], [ys, vals])
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
        try:
            rec = invert_direct(g, cfg, parse_grid(args.grid))
        except ShortSampleRange as exc:
            raise ShortSampleRange(f"{args.infile}: {exc}") from exc
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
        _increasing(args.truth, tdata[:, 0])
        truth = np.interp(xs, tdata[:, 0], tdata[:, 1])
        err = float(np.linalg.norm(vals - truth) / max(np.linalg.norm(truth), 1e-300))
        comments.append(f"l2_error = {err:.6g}")
        columns.append(truth)
        header_row.append("truth")
    _emit(args, params, header_row, columns, comments)
    for line in comments:
        print(line, file=sys.stderr)
    return 0


def cmd_noise(args) -> int:
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed must be in [0, 2**64), got {args.seed}")
    sigma = _scalar(args.sigma, "--sigma", "non-negative")
    _, data = read_csv(args.infile)
    vals = data[:, 1]
    if sigma != 0.0:
        vals = vals + sigma * gaussian_noise(args.seed, len(vals))
    params = {"sigma": args.sigma, "seed": args.seed, "in": args.infile}
    _emit(args, params, ["x", "value"], [data[:, 0], vals])
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
    params = {"sigma": args.sigma, "alpha": p.alpha, "in": args.infile}
    _emit(args, params, ["t", "g"], [t, g_vals], [f"f0 = {f0_from_scale(p):.17g}"])
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one declaration of every option: type, choices, default, required.

    Built once per process: parsing leaves the parser as it was, so every
    main() call in one process shares it."""
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
    p.add_argument("--tail-cut", dest="tail_cut", type=float, default=QuadSpec.tail_cut,
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
    p.add_argument("--epsilon", type=float, default=DirectConfig.epsilon, help="cutoff of |mu|")
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
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
