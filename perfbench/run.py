"""alphasine benchmark: closed-loop CLI traffic with end-to-end and per-layer metrics.

Run from the root of a source checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload forward_invert --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  forward_invert  forward quadrature of f1/f2/f3 at a in {1.5, -0.5, -0.9}, then
                  the Fourier inversion; one cycle is all nine pairs
  inverse_cli     noise + plain/smoothed inversion, dense N = 1e4 inversion,
                  circle round trip, sas bridge; one cycle is 12 sessions
  direct          direct route at a = 2 with epsilon cycling {0.025, 0.05, 0.1}

A run sets up three times (setup_s is the median), then runs whole cycles of
ops until --seconds have passed.  Timings are in nominal seconds, corrected
for the machine's drifting CPU speed by a reference kernel timed during each
op and set-up (see bench_clock.py); raw wall seconds go to the result file.  Every op's outputs are checked against
independent oracles; a failed check counts the op as failed, it does not stop
the run.  With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 the same ops run with span recording and it carries the
per-layer metrics instead (spans are written to perfbench/_out/).  --smoke
runs a single op and one setup, for the benchmark's own tests.

The layer each per-layer metric belongs to, and the end-to-end metric it is
expected to move on each workload, are listed in perfbench/layer_map.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3


def pin_blas_threads() -> int:
    """Cap the BLAS pools at the CPUs this process may use; numpy reads these
    variables when it is first imported."""
    ncpu = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= ncpu:
            os.environ[var] = str(ncpu)
    return ncpu


def import_program():
    """Import alphasine from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import alphasine
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import alphasine from {src}: {exc}")
    if Path(alphasine.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: alphasine was imported from {alphasine.__file__}, not {src}")
    return alphasine


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(ncpu: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": ncpu,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(workload, op, index: int, clock=perf_counter, tracer=None, tamper=None):
    """One op with its checks.  Any failure is recorded on the op, never raised."""
    from bench_oracles import MalformedOutput
    from bench_workloads import OpRecord, Runner, StepFailed

    record = OpRecord()
    runner = Runner(record, clock, tracer, index, tamper)
    try:
        workload.run_op(op, runner)
    except (StepFailed, MalformedOutput) as exc:
        record.problems.append(str(exc))
    except Exception:  # a crash inside the program fails this op only
        record.problems.append(traceback.format_exc())
    return record


def end_to_end(records, setups) -> dict:
    from bench_clock import nominal

    seconds = [nominal(r.seconds, r.ref) for r in records]
    errors = [e for r in records for e in r.rel_l2]
    return {
        "op_s_p50": statistics.median(seconds),
        "ops_per_s": len(seconds) / sum(seconds),
        "setup_s": statistics.median(nominal(s, ref) for s, ref in setups),
        "peak_rss_mb": peak_rss_mb(),
        "rel_l2_max": max(errors, default=1.0),
        "ops_ok_frac": sum(1 for r in records if not r.problems) / len(records),
    }


def per_layer(tracer, workload, ops, records) -> dict:
    from bench_clock import nominal
    from bench_trace import layer_metrics

    values = layer_metrics(tracer, [r.seconds for r in records])
    values["trace.op_s_p50"] = statistics.median(nominal(r.seconds, r.ref) for r in records)
    values["forward.dev_max"] = max(r.fwd_dev for r in records)
    keep = getattr(workload, "keep_count", None)
    values["direct_inv.keep_count"] = (
        statistics.fmean(keep(op) for op in ops) if keep is not None else 0.0
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["forward_invert", "inverse_cli", "direct"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="one setup and one op")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ncpu = pin_blas_threads()
    import_program()
    import numpy as np

    from bench_clock import SpeedProbe
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS

    machine = machine_record(ncpu)
    print("machine " + json.dumps(machine), flush=True)

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe()
    tracer = Tracer(probe.clock) if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        workload = WORKLOADS[args.workload](work, np.random.default_rng(args.seed))
        reps = 1 if args.smoke else SETUP_REPS
        setups, ops, records = [], [], []
        with probe:
            for rep in range(reps):
                start = probe.clock()
                _, ref = probe.timed(lambda: workload.setup(rep, reps))
                setups.append((probe.clock() - start, ref))
            deadline = perf_counter() + args.seconds
            while not ops or (not args.smoke and perf_counter() < deadline):
                cycle = workload.cycle()
                for op in cycle[:1] if args.smoke else cycle:
                    record, ref = probe.timed(
                        lambda: run_op(workload, op, len(ops), probe.clock, tracer))
                    record.ref = ref
                    records.append(record)
                    ops.append(op)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    failed = 0
    for i, (op, record) in enumerate(zip(ops, records)):
        if record.problems:
            failed += 1
            print(f"op {i} {op!r} FAILED: " + "; ".join(record.problems), file=sys.stderr)
    if tracer is not None:
        metrics = per_layer(tracer, workload, ops, records)
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.json")
        if tracer.absent:
            print("absent from the program: " + ", ".join(tracer.absent), file=sys.stderr)
    else:
        metrics = end_to_end(records, setups)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=machine, setup_wall_s=[s for s, _ in setups],
                  op_wall_s_p50=statistics.median(r.seconds for r in records),
                  ops=[{"op": repr(op), "seconds": r.seconds, "ref_s": r.ref,
                        "rel_l2": r.rel_l2, "problems": r.problems}
                       for op, r in zip(ops, records)])
    with open(out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
