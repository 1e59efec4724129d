"""Throughput benchmark of jcsim's rate and detection sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload rates-table1 --seed 20200 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the same calls twice, first untraced for half the time and then traced,
and prints the per-layer metrics plus the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record (the
environment, per-call timings, failed checks) and, for a traced run, every
span go to ``perfbench/out/``.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before numpy is imported

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
DEFAULT_SEED = 20200
SETUP_RUNS = 3  # set-ups per untraced run, this process included; setup_s is their median
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
WORKLOAD_NAMES = ("rates-desk", "rates-table1", "detect-desk")
END_TO_END = {
    "scenarios_per_s": "1/s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; confirm a claimed gain on the held-out seed 4207")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_blas_threads() -> int:
    """Run BLAS on one thread; return that count.

    One client makes one call at a time, on matrices of at most N_A x N_A.
    On the 2-vCPU reference box a second OpenBLAS thread made rates-table1
    1.6 to 2.6 times slower, and no steadier.
    """
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if none is loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(blas_threads: int) -> dict:
    import numpy as np
    import scipy

    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {"set": blas_threads, "reported": openblas_threads()},
        "git_commit": git_commit(),
    }


class Tally:
    """The calls of one measuring loop over a pool of inputs, kept per input."""

    def __init__(self, pool_size: int):
        self.call_s: list[float] = []  # every call, in call order
        self.input_s: list[list[float]] = [[] for _ in range(pool_size)]
        self.outcomes: list = [None] * pool_size  # each input's first outcome
        self.work = {"scenarios": 0, "trials": 0}  # over every call
        self.errors: list[str] = []  # tracebacks of calls that raised
        self.problems: list[str] = []  # failed output checks

    @property
    def calls(self) -> int:
        return len(self.call_s)

    @property
    def wall_s(self) -> float:
        return sum(self.call_s)

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes if o is not None)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes if o is not None)

    def add(self, index, seconds, outcome):
        """Record a call on input ``index``; a repeat must end as the first call did."""
        self.call_s.append(seconds)
        self.input_s[index].append(seconds)
        self.work["scenarios"] += outcome.scenarios
        self.work["trials"] += outcome.trials
        self.problems.extend(outcome.problems)
        first = self.outcomes[index]
        if first is None:
            self.outcomes[index] = outcome
        elif (outcome.failed, outcome.scenarios, outcome.trials) != (first.failed, first.scenarios, first.trials):
            self.problems.append(
                f"input {index}: repeat gave failed/scenarios/trials "
                f"{outcome.failed}/{outcome.scenarios}/{outcome.trials}, "
                f"first call {first.failed}/{first.scenarios}/{first.trials}"
            )
            first.failed = first.attempted

    def typical_s(self) -> float:
        """One pass over the pool, each input at its fastest call."""
        return sum(min(times) for times in self.input_s if times)

    def per_second(self, unit: str) -> float:
        """Work per second of a pass over the pool at each input's fastest call.

        An input does the same work on every call (``add`` checks that), so
        its slower calls were slowed by something outside the program, such
        as other tenants of a shared host.
        """
        return sum(getattr(o, unit) for o in self.outcomes if o is not None) / self.typical_s()


def measure(workload, pool, seconds=None, n_calls=None) -> Tally:
    """Closed loop: call the driver on the pool's inputs in turn, one at a time.

    Cycles through the pool until ``n_calls`` calls, or until the first
    call to end after ``seconds`` of call time, but never before every
    input has been called once.  Only the driver call is timed.  The pool
    is fixed by the seed, so ``attempted`` and ``failed`` (counted per
    input) do not depend on how fast the program is.
    """
    tally = Tally(len(pool))
    while tally.calls < len(pool) or (tally.calls < n_calls if n_calls else tally.wall_s < seconds):
        index = tally.calls % len(pool)
        start = time.perf_counter()
        try:
            result = workload.call(pool[index])
        except Exception:
            result = None
            tally.errors.append(traceback.format_exc())
        tally.add(index, time.perf_counter() - start, workload.check(pool[index], result))
    return tally


def setup_probes(args, n: int) -> list[float]:
    """Set-up times of ``n`` fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    out = []
    for _ in range(n):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "jcsim" / "__init__.py").is_file():
        print(f"perfbench: no jcsim sources under {src}", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(src))
    import jcsim

    if Path(jcsim.__file__).resolve().parent != src / "jcsim":
        print(f"perfbench: imported jcsim from {jcsim.__file__}, not {src}", file=sys.stderr)
        return 2
    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    pool = workload.pool(args.seed, args.tiny)
    warmup = measure(workload, [workload.warmup], n_calls=1)
    if warmup.errors or warmup.problems:
        print("".join(warmup.errors + warmup.problems), file=sys.stderr)
        return 1
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": environment(blas_threads)}
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace == 0:
        setups = [setup_s] + setup_probes(args, 1 if args.tiny else SETUP_RUNS - 1)
        runs = [measure(workload, pool, seconds=args.seconds)]
        metrics = {
            "scenarios_per_s": runs[0].per_second("scenarios"),
            "trials_per_s": runs[0].per_second("trials"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - runs[0].failed / runs[0].attempted,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
        record["setup_runs_s"] = setups
    else:
        untraced = measure(workload, pool, seconds=args.seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = measure(workload, pool, n_calls=untraced.calls)
        runs = [untraced, traced]
        layers = layer_metrics(tracer.spans, tracer.counts, traced.work["scenarios"], traced.wall_s)
        layers["trace.overhead_frac"] = traced.typical_s() / untraced.typical_s() - 1.0
        metrics = {name: layers[name] for name in PER_LAYER}
        units = PER_LAYER
        record["run_id"] = tracer.run_id
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    errors = [e for r in runs for e in r.errors]
    problems = [p for r in runs for p in r.problems]
    record.update(
        pool_size=len(pool),
        calls=[r.calls for r in runs],
        call_s=[r.call_s for r in runs],
        attempted=attempted,
        failed=failed,
        errors=errors,
        problems=problems,
        metrics=metrics,
    )
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("env:", json.dumps(record["environment"]))
    for error in errors[:10]:
        print("call raised:", error.strip().splitlines()[-1])
    for problem in problems[:10]:
        print("check failed:", problem)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
