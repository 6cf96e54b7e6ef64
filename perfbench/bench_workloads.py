"""The three workloads: inputs made from the seed, ops that drive the program
the way its users do, and a correctness check on every op.

Each workload is a closed loop with one client: the next op starts only after
the previous one has completed.  Ops come in cycles; a run always completes
the cycle it has started, so every run holds the same mix of op kinds.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from alphasine import cli, direct_inv, forward, grid, sphere

import bench_oracles as orc

OUT_GRID = "0:3:301"
OUT_X = np.linspace(0.0, 3.0, 301)


class StepFailed(Exception):
    """A program call that exited with a non-zero code."""


@dataclass
class OpRecord:
    """What one op produced: its time and the accuracy of its outputs."""

    seconds: float = 0.0
    ref: float = 0.0  # seconds the reference kernel took during the op
    rel_l2: list[float] = field(default_factory=list)
    fwd_dev: float = 0.0
    problems: list[str] = field(default_factory=list)

    def within(self, what: str, value: float, limit: float) -> None:
        if not value <= limit:
            self.problems.append(f"{what} = {value:.4g} exceeds {limit:.4g}")


class Runner:
    """Makes the timed program calls of one op.

    Only the program's own work is timed; writing inputs and checking outputs
    are not.  `tamper`, when set, is applied to every output file before it
    is checked (the benchmark's tests use it to corrupt an output).
    """

    def __init__(self, record: OpRecord, clock=perf_counter, tracer=None,
                 op_index: int | None = None, tamper=None):
        self.record = record
        self.clock = clock
        self.tracer = tracer
        self.op_index = op_index
        self.tamper = tamper

    def call(self, fn):
        if self.tracer is not None:
            self.tracer.op, self.tracer.phase = self.op_index, "op"
        start = self.clock()
        try:
            return fn()
        finally:
            self.record.seconds += self.clock() - start
            if self.tracer is not None:
                self.tracer.op, self.tracer.phase = None, "check"

    def cli(self, *argv) -> None:
        argv = [str(a) for a in argv]
        out = Path(argv[argv.index("--out") + 1])
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.call(lambda: cli.main(argv))
        if code != 0:
            raise StepFailed(f"alphasine {argv[0]} exited {code}: {err.getvalue().strip()}")
        if self.tamper is not None:
            self.tamper(out)


def _same_x(data: np.ndarray, xs: np.ndarray, path: Path) -> None:
    if np.max(np.abs(data[:, 0] - xs)) > 1e-9:
        raise orc.MalformedOutput(f"{path.name}: abscissae differ from the requested grid")


def _inversion_error(path: Path, name: str, record: OpRecord) -> float:
    """Relative L2 error of an `invert` output on OUT_GRID against f itself."""
    _, data = orc.read_csv(path, ["x", "value", "truth"], len(OUT_X))
    _same_x(data, OUT_X, path)
    err = orc.rel_l2(data[:, 1], orc.f_values(name, OUT_X))
    record.rel_l2.append(err)
    return err


class ForwardInvert:
    """README pipeline: forward quadrature of a builtin f, then the Fourier
    inversion.  A cycle pairs each f with one a, so each function and each
    exponent occur once, in a seed-drawn order.  The pairing is fixed: with
    only a few 4-8 s ops in a run, a drawn pairing would make every figure
    depend on which pairs the seed picked."""

    name = "forward_invert"
    Y_GRID = "0.05:20:400"
    YS = 0.05 * np.arange(1, 401)
    ALPHAS = (1.5, -0.5, -0.9)
    # acceptance bounds of criteria 5 and 6 on the inversion's relative L2 error
    INVERSION_BOUND = {1.5: 0.05, -0.5: 0.1, -0.9: 0.3}

    def __init__(self, work: Path, rng: np.random.Generator):
        self.work = work
        self.rng = rng
        self.pairs = list(zip(("f1", "f2", "f3"), self.ALPHAS))
        self.oracle: dict = {}

    def setup(self, rep: int, reps: int) -> None:
        for name in ("f1", "f2", "f3"):
            orc.write_csv(self.work / f"truth_{name}.csv", ["x", "value"],
                          [OUT_X, orc.f_values(name, OUT_X)])
        for name, a in self.pairs:
            fhat = _fhat(name)
            self.oracle[name, a] = np.array(
                [forward.t_sine_series(fhat, a, y, fhat_decays=True) for y in self.YS]
            )

    def cycle(self) -> list:
        return [self.pairs[i] for i in self.rng.permutation(len(self.pairs))]

    def run_op(self, op, run: Runner) -> None:
        name, a = op
        g, rec = self.work / "g.csv", self.work / "rec.csv"
        run.cli("forward", "--f", name, "--alpha", repr(a), "--grid", self.Y_GRID, "--out", g)
        run.cli("invert", "--method", "fourier", "--in", g, "--alpha", repr(a), "--n", 100,
                "--r", 10, "--grid", OUT_GRID, "--truth", self.work / f"truth_{name}.csv",
                "--out", rec)
        _, data = orc.read_csv(g, ["y", "value"], len(self.YS))
        _same_x(data, self.YS, g)
        dev = np.abs(data[:, 1] - self.oracle[name, a])
        run.record.fwd_dev = float(np.max(dev))
        excess = dev / orc.forward_bound(name, a, self.YS)
        run.record.within(f"forward {name} a={a} deviation / bound", float(np.max(excess)), 1.0)
        err = _inversion_error(rec, name, run.record)
        run.record.within(f"inversion {name} a={a} rel L2", err, self.INVERSION_BOUND[a])


def _fhat(name: str):
    return lambda t: orc.fhat_values(name, t)


@dataclass(frozen=True)
class SessionOp:
    f: str
    noise_seed: int
    interp: str
    density: str
    shift: float
    sphere_alpha: float


class InverseCli:
    """A session of the four README inverse pipelines, no forward quadrature:
    noise then plain and smoothed inversion, a dense N = 1e4 inversion, the
    circle round trip at a fresh alpha, and the sas bridge."""

    name = "inverse_cli"
    ALPHA = 1.5
    SIGMA = 0.1
    CYCLE = 12
    NOISE_KEY0 = 101
    YS = np.linspace(0.0, 20.0, 400)
    DENSE_X = np.linspace(0.0, 20.0, 20001)
    M = 512
    # the stable process whose spectral density is f has sigma^a = lambda_a F f(0)
    LAMBDA = orc.lambda_alpha(ALPHA)

    def __init__(self, work: Path, rng: np.random.Generator):
        self.work = work
        self.rng = rng
        self.clean: dict[str, np.ndarray] = {}
        self.sigma = {n: (self.LAMBDA * orc.fhat0(n)) ** (1.0 / self.ALPHA)
                      for n in ("f1", "f2", "f3")}

    def setup(self, rep: int, reps: int) -> None:
        a, lam = self.ALPHA, self.LAMBDA
        for name in ("f1", "f2", "f3"):
            fhat = _fhat(name)
            g = np.array([forward.t_sine_series(fhat, a, y) for y in self.YS[1:]])
            self.clean[name] = np.concatenate(([0.0], g))
            orc.write_csv(self.work / f"clean_{name}.csv", ["x", "value"], [self.YS, self.clean[name]])
            # codifference samples tau(2y) of that process
            tau = lam * (2.0 * orc.fhat0(name) - 2.0 ** (a + 1.0) * g)
            orc.write_csv(self.work / f"tau_{name}.csv", ["t", "tau"], [2.0 * self.YS[1:], tau])
            orc.write_csv(self.work / f"dense_{name}.csv", ["x", "value"],
                          [self.DENSE_X, orc.t2_values(name, self.DENSE_X)])
            orc.write_csv(self.work / f"truth_{name}.csv", ["x", "value"],
                          [OUT_X, orc.f_values(name, OUT_X)])

    def _sphere_alpha(self) -> float:
        while True:
            a = float(self.rng.uniform(-0.9, 5.0))
            if min(abs(a - k) for k in (0.0, 2.0, 4.0)) >= 0.2:
                return a

    def cycle(self) -> list:
        """Twelve sessions in a seed-drawn order, each at a fresh circle input.

        The noisy inputs are the same twelve (f, interpolation, noise key)
        triples in every cycle and every run: the worst noisy error is then a
        property of the code, comparable between runs, rather than an extreme
        of whichever noise the seed drew (that extreme spreads by 10-15%
        between seeds).  Each op still adds noise under its own key.
        """
        kinds = ("shifted_sine", "vonmises4", "watson")
        return [
            SessionOp(
                f=("f1", "f2", "f3")[i % 3],
                noise_seed=self.NOISE_KEY0 + int(i),
                interp=("sinc", "linear")[i % 2],
                density=kinds[int(self.rng.integers(3))],
                shift=float(self.rng.uniform(-math.pi, math.pi)),
                sphere_alpha=self._sphere_alpha(),
            )
            for i in self.rng.permutation(self.CYCLE)
        ]

    def run_op(self, op: SessionOp, run: Runner) -> None:
        w, rec = self.work, run.record
        truth = w / f"truth_{op.f}.csv"
        f0 = repr(orc.fhat0(op.f))

        # 1. noise, then the unsmoothed and the smoothed inversion (criterion 7)
        gn = w / "gn.csv"
        run.cli("noise", "--in", w / f"clean_{op.f}.csv", "--sigma", self.SIGMA,
                "--seed", op.noise_seed, "--out", gn)
        fourier = ["--method", "fourier", "--in", gn, "--alpha", self.ALPHA, "--n", 400,
                   "--r", 20, "--grid", OUT_GRID, "--interp", op.interp, "--f0", f0,
                   "--truth", truth]
        run.cli("invert", *fourier, "--out", w / "plain.csv")
        run.cli("invert", *fourier, "--mollifier", "triangle", "--gamma", 0.5,
                "--out", w / "smooth.csv")
        _, data = orc.read_csv(gn, ["x", "value"], len(self.YS))
        _same_x(data, self.YS, gn)
        z = (data[:, 1] - self.clean[op.f]) / self.SIGMA
        # 400 standard normals: mean within 6 and std within 5.7 standard errors
        rec.within("noise |mean|", abs(float(np.mean(z))), 0.3)
        rec.within("noise |std - 1|", abs(float(np.std(z)) - 1.0), 0.2)
        e_plain = _inversion_error(w / "plain.csv", op.f, rec)
        e_smooth = _inversion_error(w / "smooth.csv", op.f, rec)
        rec.within("smoothed / unsmoothed rel L2", e_smooth / e_plain, 1.0 - 1e-12)

        # 2. dense inversion of the closed-form T_2 f: the triangular solve at N = 1e4
        run.cli("invert", "--method", "fourier", "--in", w / f"dense_{op.f}.csv", "--alpha", 2,
                "--n", 10000, "--r", 10, "--grid", OUT_GRID, "--truth", truth,
                "--out", w / "dense_rec.csv")
        err = _inversion_error(w / "dense_rec.csv", op.f, rec)
        rec.within("dense inversion rel L2", err, 0.05)

        # 3. circle: forward by the library at M = 512, inverse through the CLI
        values = orc.circle_density(op.density, op.shift, self.M)
        density = sphere.PeriodicDensity(
            grid.SampledFunction(sphere.circle_grid(self.M), values), certified_pi_periodic=True
        )
        kf = run.call(lambda: sphere.k_sphere_grid(density, op.sphere_alpha))
        kf_csv = w / "kf.csv"
        orc.write_csv(kf_csv, ["x", "value"], [orc.circle_points(self.M), np.asarray(kf.values)])
        run.cli("invert", "--method", "sphere", "--in", kf_csv, "--alpha", repr(op.sphere_alpha),
                "--n", 10, "--out", w / "density.csv")
        comments, data = orc.read_csv(w / "density.csv", ["x", "value"], self.M)
        orc.comment_value(comments, "clipped_mass")
        linf = float(np.max(np.abs(data[:, 1] - values)))
        rec.within(f"sphere {op.density} a={op.sphere_alpha:.4f} Linf", linf, 0.02)

        # 4. codifference -> g with the emitted f0, then the inversion (criterion 10)
        gsas = w / "gsas.csv"
        run.cli("sas", "--in", w / f"tau_{op.f}.csv", "--sigma", repr(self.sigma[op.f]),
                "--alpha", self.ALPHA, "--out", gsas)
        comments, data = orc.read_csv(gsas, ["t", "g"], len(self.YS) - 1)
        _same_x(data, self.YS[1:], gsas)
        emitted_f0 = orc.comment_value(comments, "f0")
        rec.within("sas g deviation", float(np.max(np.abs(data[:, 1] - self.clean[op.f][1:]))), 1e-9)
        rec.within("sas f0 relative deviation", abs(emitted_f0 / orc.fhat0(op.f) - 1.0), 1e-9)
        run.cli("invert", "--method", "fourier", "--in", gsas, "--alpha", self.ALPHA, "--n", 100,
                "--r", 10, "--grid", OUT_GRID, "--f0", repr(emitted_f0), "--truth", truth,
                "--out", w / "sas_rec.csv")
        err = _inversion_error(w / "sas_rec.csv", op.f, rec)
        rec.within("sas inversion rel L2", err, 0.05)


class Direct:
    """Direct route for a = 2 on the README's 20001-sample g2 = T_2 f1, with
    the cutoff epsilon cycling through {0.025, 0.05, 0.1}."""

    name = "direct"
    EPSILONS = (0.025, 0.05, 0.1)
    REC_GRID = "0.2:3:281"
    REC_X = np.linspace(0.2, 3.0, 281)
    G_X = np.linspace(0.0, 20.0, 20001)

    def __init__(self, work: Path, rng: np.random.Generator):
        self.work = work
        self.rng = rng
        self.mu_abs: np.ndarray | None = None

    def setup(self, rep: int, reps: int) -> None:
        orc.write_csv(self.work / "g2.csv", ["x", "value"], [self.G_X, orc.t2_values("f1", self.G_X)])
        orc.write_csv(self.work / "truth.csv", ["x", "value"],
                      [self.REC_X, orc.f_values("f1", self.REC_X)])
        # the table every CLI invocation at a = 2 uses comes last; the earlier
        # repetitions move t_cut by whole lobes so each one is a fresh table
        base = direct_inv.DirectConfig(alpha=2.0)
        cfg = direct_inv.DirectConfig(alpha=2.0, t_cut=base.t_cut + math.pi * (reps - 1 - rep))
        table = direct_inv.mu_table(cfg)
        self.mu_abs = np.abs(np.asarray(table.values))

    def cycle(self) -> list:
        return [self.EPSILONS[i] for i in self.rng.permutation(len(self.EPSILONS))]

    def run_op(self, eps: float, run: Runner) -> None:
        out = self.work / "rec.csv"
        run.cli("invert", "--method", "direct", "--in", self.work / "g2.csv", "--alpha", 2,
                "--epsilon", repr(eps), "--grid", self.REC_GRID, "--truth", self.work / "truth.csv",
                "--out", out)
        _, data = orc.read_csv(out, ["x", "value", "truth"], len(self.REC_X))
        _same_x(data, self.REC_X, out)
        err = orc.rel_l2(data[:, 1], orc.f_values("f1", self.REC_X))
        run.record.rel_l2.append(err)
        # criterion 8 bound, applied at every epsilon of the cycle
        run.record.within(f"direct eps={eps} rel L2", err, 0.1)

    def keep_count(self, eps: float) -> int:
        """Size of {|mu| > eps} on the tabulation grid."""
        return int(np.count_nonzero(self.mu_abs > eps))


WORKLOADS = {w.name: w for w in (ForwardInvert, InverseCli, Direct)}
