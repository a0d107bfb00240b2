"""vortexlab benchmark: three workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload {scaling,cell-psi,descent} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else.  BLAS and OpenMP pools are pinned to
one thread before numpy loads; every program option keeps its default.

--trace 0 repeats the workload's pass for about S seconds and reports the
median pass (`run_s`), the set-up time (`setup_s`, median of three fresh
interpreters) and the peak resident set size (`peak_rss_mib`).

--trace 1 runs the named workload's pass untraced, then one traced pass
of every workload, and reports every per-layer metric; the spans are
written to `.perfbench/trace-<workload>-seed<N>.json`.

The last line of standard output is the JSON result.  The exit code is
0 when every check passed and 1 otherwise.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in this process or its children.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
SETUP_SAMPLES = 3
READY = "perfbench-ready"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("scaling", "cell-psi", "descent"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import vortexlab from this checkout's src/ and the LP oracle from tests/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vortexlab
    import vortexlab.cli  # noqa: F401  (loads every module the workloads use)

    origin = Path(vortexlab.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"vortexlab was imported from {origin}, not from {src}")
    spec = importlib.util.spec_from_file_location(
        "lp_oracle", ROOT / "tests" / "lp_oracle.py")
    lp_oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lp_oracle)
    return vortexlab, lp_oracle.grid_lp_flat_norm


def environment() -> dict:
    import numpy
    import scipy

    # getconf asks the C library, which reads the sizes from the CPU itself
    conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                          check=False).stdout
    caches = {}
    for line in conf.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
            caches[parts[0]] = int(parts[1])
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def _setup_seconds(args) -> list[float]:
    """Time fresh interpreters from launch to the end of input generation."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            code = child.wait()
        if line.strip() != READY or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(t1 - t0)
    return samples


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Accumulates passes, operation counts and check failures."""

    def __init__(self, vl, oracle, workloads):
        self.vl = vl
        self.oracle = oracle
        self.wl = workloads
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, workload, inputs, counted=True, tracer=None):
        """Run and check one pass; returns (wall s, cpu s, outcome or None).

        With a tracer, the pass (not its checks) runs inside a root span."""
        ops = None
        root = tracer.open("pass", {}) if tracer else None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outcome = self.wl.run_pass(workload, inputs, self.vl)
        except Exception:
            wall = time.perf_counter() - t0
            self.problems.append(f"{workload}: pass raised\n{traceback.format_exc()}")
            outcome = None
        else:
            wall = time.perf_counter() - t0
            ops = outcome.ops
        cpu = time.process_time() - c0
        if root:
            tracer.close(root)
        if outcome is not None:
            self.problems += self.wl.check(workload, outcome, self.oracle)
        if counted:
            # a pass that raised counts as one attempted, failed operation
            self.attempted += ops.attempted if ops else 1
            self.failed += ops.failed if ops else 1
        return wall, cpu, outcome

    def result(self, metrics) -> dict:
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _measure(args, run, inputs) -> list[float]:
    """Untraced passes while the passes so far plus one median pass fit in
    --seconds (at least one); returns their wall times."""
    walls = []
    while True:
        wall, _, outcome = run.one_pass(args.workload, inputs)
        walls.append(wall)
        print(f"pass {len(walls)}: {wall:.3f} s", flush=True)
        if outcome is None or run.problems:
            break
        if sum(walls) + statistics.median(walls) > args.seconds:
            break
    return walls


def _trace(args, run, inputs, spans_mod) -> tuple[dict, dict]:
    """Untraced pass of the workload, then one traced pass of every workload."""
    untraced, _, _ = run.one_pass(args.workload, inputs)
    print(f"untraced {args.workload} pass: {untraced:.3f} s", flush=True)

    tracer = spans_mod.Tracer()
    order = [args.workload] + [w for w in run.wl.WORKLOADS if w != args.workload]
    traced, cpu, outcomes = {}, {}, {}
    restore = spans_mod.instrument(tracer, run.vl)
    try:
        for w in order:
            w_inputs = inputs if w == args.workload else \
                run.wl.prepare(w, args.seed, WORKDIR, run.vl)
            tracer.workload = w
            traced[w], cpu[w], outcomes[w] = run.one_pass(
                w, w_inputs, counted=(w == args.workload), tracer=tracer)
            print(f"traced {w} pass: {traced[w]:.3f} s", flush=True)
    finally:
        restore()
    if any(o is None for o in outcomes.values()) or run.problems:
        return {}, {}

    spans = tracer.spans
    summary = outcomes["scaling"].values["summary"]
    metrics, unavailable = spans_mod.layer_metrics(spans, summary, cpu[args.workload])
    for name, reason in unavailable.items():
        print(f"per-layer metric {name} unavailable: {reason}")
    report = {
        "overhead": traced[args.workload] / untraced - 1.0,
        "untraced_s": untraced,
        "traced_s": traced,
        "coverage": {w: spans_mod.coverage(spans, w) for w in order},
        "self_seconds": spans_mod.self_seconds(spans),
    }
    print(f"tracing overhead on {args.workload}: {100 * report['overhead']:+.1f}% "
          f"({traced[args.workload]:.3f} s traced vs {untraced:.3f} s untraced)")
    for w, share in report["coverage"].items():
        note = "" if share >= 0.95 else "  (below 95%)"
        print(f"span coverage of the {w} pass: {100 * share:.2f}%{note}")
    _compare_counts(metrics)

    out = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({
        "environment": environment(), "report": report, "metrics": metrics,
        "spans": [[s["id"], s["name"], s["workload"], s["parent"], s["start"],
                   s["end"], s["attrs"]] for s in spans],
    }, default=str) + "\n")
    print(f"spans: {len(spans)} -> {out}")
    return metrics, report


COUNT_METRICS = ("cell_problem.cg_iterations", "gl_solver.core_radius.cg_iterations",
                 "gl_solver.minimize.iterations")


def _compare_counts(metrics) -> None:
    """Counts must repeat exactly between traced runs in this checkout; their
    inputs do not depend on the seed."""
    counts = {k: metrics[k]["value"] for k in COUNT_METRICS if k in metrics}
    path = WORKDIR / "counts.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        changed = {k: (earlier.get(k), v) for k, v in counts.items()
                   if earlier.get(k) != v}
        if changed:
            print(f"COUNTS DID NOT REPEAT (earlier, now): {changed}")
        else:
            print(f"counts repeat exactly: {counts}")
    else:
        print(f"counts recorded for later traced runs: {counts}")
    path.write_text(json.dumps(counts) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        vl, lp = _import_program()
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans as spans_mod
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    inputs = workloads.prepare(args.workload, args.seed, WORKDIR, vl)
    if args.setup_probe:
        print(READY, flush=True)
        return 0

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)
    run = Run(vl, workloads.LPOracle(lp), workloads)
    if args.trace:
        metrics, details = _trace(args, run, inputs, spans_mod)
    else:
        setup = _setup_seconds(args)
        walls = _measure(args, run, inputs)
        print(f"setup samples: {', '.join(f'{s:.3f}' for s in setup)} s; "
              f"{len(walls)} passes, run_s is their median", flush=True)
        details = {"setup_s": setup, "pass_s": walls}
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mib": {"value": _peak_rss_mib(), "unit": "MiB"},
        }
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", flush=True)
    result = run.result(metrics)
    record = WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "result": result,
                                  "details": details}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
