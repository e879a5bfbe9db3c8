#!/usr/bin/env python3
"""The wlab benchmark: one workload per run, every metric, every output checked.

Usage (from the repository root):

    python3 bench/run.py --workload fixtures --seed 1 --seconds 10 --trace 0

Workloads: fixtures, ladder_generic, ladder_ramified, mesh (see README.md).
wlab is driven from outside, in-process: each op is one call of
``wlab.cli.main`` with stdout and stderr captured, in a closed loop with a
single client (each op starts when the previous one returns).  The timed
phase repeats the workload's cycle of ops, in whole cycles, until the ops
have run for ``--seconds`` and for the workload's minimum number of cycles.
Op times are scaled to a reference host speed (speed.py).  With
``--trace 1`` the same timed phase runs untraced, then one more cycle (and
the ladder sweep) runs with every public function of the traced layers
wrapped, and the per-layer metrics come from that traced part.

The last line of stdout is the result object; the line before it holds the
details (sample counts, failures by error class, versions).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
# stop starting timed cycles after this much wall time, so a slow program
# still ends the run well inside the harness's time limit
MAX_TIMED_WALL_S = 90.0
WORKLOAD_NAMES = ("fixtures", "ladder_generic", "ladder_ramified", "mesh")
REQUIRED = ("src/wlab/cli.py", "fixtures", "tests/snapshots")


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; BaseException so wlab's handlers pass it."""


def _alarm(signum, frame):
    raise OpTimeout()


class Result:
    __slots__ = ("op", "seconds", "norm", "error", "problems", "summary", "vertices")

    def __init__(self, op, seconds, error, problems, summary=None, vertices=0):
        self.op = op
        self.seconds = seconds
        self.norm = seconds  # seconds at the reference speed, once bracketed
        self.error = error  # None when the op succeeded
        self.problems = problems  # failed output checks
        self.summary = summary
        self.vertices = vertices

    @property
    def ok(self) -> bool:
        return self.error is None


def _error_class(rc: int, stdout: str, stderr: str) -> str:
    for line in stderr.splitlines():
        if line.startswith("failure: "):
            return line[len("failure: "):].split(":", 1)[0].strip()
        if line.startswith("error: "):
            return "usage_error"
    return f"exit_{rc}"


def run_op(main, op, tracer=None, op_id=0) -> Result:
    """One closed-loop op with the harness time limit; checks outside timing."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    error = None
    if tracer is not None:
        tracer.begin_op(op_id)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.timeout)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(list(op.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        error = "timeout"
    except Exception as exc:  # wlab.cli.main should catch these itself
        error = f"escaped_{type(exc).__name__}"
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op(keep=error != "timeout")
    stdout, stderr = out.getvalue(), err.getvalue()
    problems: list[str] = []
    summary = None
    vertices = 0
    if error is None and rc != op.expect_exit:
        error = _error_class(rc, stdout, stderr)
        if op.summarize is None:  # fixtures and mesh expect exact exit codes
            problems.append(f"{op.name}: exit code {rc}, expected {op.expect_exit}")
    if error is None:
        try:
            if op.check is not None:
                problems.extend(f"{op.name}: {p}" for p in op.check(stdout, stderr))
            if op.summarize is not None:
                summary = op.summarize(stdout)
            if op.vertices is not None:
                vertices = op.vertices(stdout)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{op.name}: unreadable output ({type(exc).__name__}: {exc})")
        if problems:
            error = "check"
    return Result(op, seconds, error, problems, summary, vertices)


def _fresh_import():
    """Import wlab from source, dropping any copy a previous set-up imported."""
    import importlib

    for name in [n for n in sys.modules if n == "wlab" or n.startswith("wlab.")]:
        del sys.modules[name]
    return importlib.import_module("wlab.cli")


def _build_plan(args, work: Path, reference: dict):
    """The workload's ops; --seed orders the ops of the cycle and the sweep."""
    import random

    import workloads

    if args.workload == "fixtures":
        plan = workloads.fixture_plan(ROOT, work, reference)
    elif args.workload == "mesh":
        plan = workloads.mesh_plan(ROOT, work, reference)
    else:
        plan = workloads.ladder_plan(args.workload, args.ladder_seed, work)
    rng = random.Random(args.seed)
    rng.shuffle(plan.cycle)
    rng.shuffle(plan.sweep)
    return plan


def run_bracketed(main, ops, speed, tracer=None) -> list[Result]:
    """Run ops back to back with speed probes between them (see speed.py)."""
    results = []
    before = speed.bracket()
    for i, op in enumerate(ops):
        r = run_op(main, op, tracer, i)
        after = speed.bracket()
        r.norm = r.seconds * speed.factor(before, after)
        results.append(r)
        before = after
    return results


def timed_phase(main, plan, seconds: float, speed) -> tuple[list[Result], int]:
    results: list[Result] = []
    busy = 0.0
    cycles = 0
    wall0 = time.perf_counter()
    while True:
        for r in run_bracketed(main, plan.cycle, speed):
            results.append(r)
            busy += r.seconds
        cycles += 1
        if time.perf_counter() - wall0 > MAX_TIMED_WALL_S:
            break
        if busy >= seconds and cycles >= plan.min_cycles:
            break
    return results, cycles


def _per_op_ms(results, raw: bool = False) -> dict:
    times: dict = {}
    for r in results:
        times.setdefault(r.op.name, []).append((r.seconds if raw else r.norm) * 1000.0)
    return {name: statistics.median(v) for name, v in times.items()}


def _percentile(results, q: int) -> float:
    """Percentile across ops of each op's median time over the cycles.

    The cycle is a fixed mix, so a percentile of the pooled samples is the
    time of one op class, read from the extremes of its samples; those vary
    by +-20% from one op to the next on a shared machine.  Each op's median
    keeps the percentile on the op class without reading a noise tail.
    """
    values = list(_per_op_ms(results).values())
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _rate(results, raw: bool = False) -> float:
    busy = sum(r.seconds if raw else r.norm for r in results)
    return sum(1 for r in results if r.ok) / busy if busy > 0 else 0.0


def _max_clean_degree(results) -> int:
    """Highest degree d such that every op on inputs of degree <= d succeeded."""
    best = 0
    for degree in sorted({r.op.degree for r in results}):
        if not all(r.ok for r in results if r.op.degree <= degree):
            break
        best = degree
    return best


def _verify_ladder(plan, results) -> float:
    """Check solved ladder maps against the exact oracle; returns its time."""
    from checks import check_ladder, ladder_oracle

    t0 = time.perf_counter()
    expected = ladder_oracle(plan.maps)
    for r in results:
        if r.summary is None:
            continue
        problems = check_ladder(r.summary, expected[r.op.map_index])
        if problems:
            r.problems.extend(f"{r.op.name}: {p}" for p in problems)
            r.error = "check"
    return time.perf_counter() - t0


def _end_to_end(plan, timed, coverage, setups, rss_mb: float) -> dict:
    report = [r for r in timed if plan.report_kind in (None, r.op.kind)]
    if any(r.op.vertices is not None for r in timed):
        vertex_rate = sum(r.vertices for r in timed if r.ok) / sum(r.norm for r in timed)
    else:  # one unit per op where no mesh is built
        vertex_rate = _rate(timed)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (_rate(timed), "1/s"),
        "op_ms_p50": (_percentile(timed, 50), "ms"),
        "op_ms_p90": (_percentile(timed, 90), "ms"),
        "ok_frac": (sum(1 for r in coverage if r.ok) / len(coverage), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "report_ms_p50": (_percentile(report, 50), "ms"),
        "report_ms_p90": (_percentile(report, 90), "ms"),
        "mesh_vertices_per_s": (vertex_rate, "1/s"),
        "max_clean_degree": (_max_clean_degree(coverage), "degree"),
    }


def _failure_histogram(results) -> dict:
    return dict(sorted(Counter(r.error for r in results if not r.ok).items()))


def _by_degree(results) -> dict:
    table: dict = {}
    for r in results:
        ok, total = table.get(r.op.degree, (0, 0))
        table[r.op.degree] = (ok + r.ok, total + 1)
    return {str(d): list(v) for d, v in sorted(table.items())}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1, help="orders the ops of each cycle")
    parser.add_argument("--seconds", type=float, default=10.0, help="minimum timed op time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ladder-seed", type=int, default=None,
        help="seed of the ladder maps (fixed by default, so every run times the "
        "same maps and ok_frac and max_clean_degree repeat exactly)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"bench: wlab sources not found under {ROOT}: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # run hygiene: single-threaded BLAS/OpenMP before numpy loads, default tolerances
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("WLAB_TOLERANCE_SCALE", None)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # loaded once; each set-up below re-imports wlab itself

    import workloads
    from speed import Speed
    from tracer import Tracer, per_layer_metrics

    if args.ladder_seed is None:
        args.ladder_seed = workloads.DEFAULT_LADDER_SEED
    work = ROOT / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text())
    signal.signal(signal.SIGALRM, _alarm)

    # set-up: import, input generation and warm-up, several times, each
    # timed against the host speed like the ops
    speed = Speed()
    raw_setups, setups = [], []
    warm: list[Result] = []
    before = speed.bracket()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli = _fresh_import()
        plan = _build_plan(args, work, reference)
        warm = [run_op(cli.main, op) for op in plan.warmup]
        raw_setups.append(time.perf_counter() - t0)
        after = speed.bracket()
        setups.append(raw_setups[-1] * speed.factor(before, after))
        before = after

    timed, cycles = timed_phase(cli.main, plan, args.seconds, speed)
    first_cycle = timed[: len(plan.cycle)]

    tracer = None
    traced: list[Result] = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = run_bracketed(cli.main, plan.cycle + plan.sweep, speed, tracer)
        first_cycle, sweep = traced[: len(plan.cycle)], traced[len(plan.cycle):]
    else:
        sweep = [run_op(cli.main, op) for op in plan.sweep]

    # read before the oracle, which imports sympy
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    everything = warm + timed + (traced if args.trace else sweep)
    oracle_s = _verify_ladder(plan, everything) if plan.maps else 0.0
    # the whole ladder is the band maps' first cycle plus the sweep
    coverage = first_cycle + sweep if plan.sweep else timed
    e2e = _end_to_end(plan, timed, coverage, setups, rss_mb)
    problems = [p for r in everything for p in r.problems]
    failed = sum(1 for r in timed if not r.ok)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "ladder_seed": args.ladder_seed if plan.sweep else None,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "setup_s_samples": setups,
        "raw_setup_s_samples": raw_setups,
        "speed": speed.summary(),
        "timed": {
            "ops": len(timed),
            "cycles": cycles,
            "busy_s": sum(r.seconds for r in timed),
            "raw_ops_per_s": _rate(timed, raw=True),
            "failed": failed,
            "failures_by_class": _failure_histogram(timed),
            "report_samples": sum(1 for r in timed if plan.report_kind in (None, r.op.kind)),
            "distinct_ops": len(plan.cycle),
            "raw_median_ms_by_op": {k: round(v, 3) for k, v in _per_op_ms(timed, raw=True).items()},
        },
        "oracle_s": oracle_s,
        "problems": problems[:20],
    }
    if plan.sweep:
        detail["sweep"] = {
            "ops": len(sweep),
            "failed_frac": 1.0 - e2e["ok_frac"][0],
            "failures_by_class": _failure_histogram(sweep),
            "ok_by_degree": _by_degree(coverage),
            "slowest_ok_s": max((r.seconds for r in sweep if r.ok), default=0.0),
            "time_limit_s": plan.sweep[0].timeout,
            "timing_band": list(workloads.TIMING_BAND[args.workload]),
        }
    else:
        detail["failed_frac"] = 1.0 - e2e["ok_frac"][0]

    if args.trace:
        untraced_rate = _rate(timed)
        overhead = 1.0 - _rate(first_cycle) / untraced_rate if untraced_rate > 0 else 0.0
        timeouts = sum(1 for r in traced if r.error == "timeout")
        metrics = per_layer_metrics(tracer, timeouts, overhead)
        spans_path = work / "spans.jsonl"
        tracer.write_spans(spans_path)
        detail["trace_spans"] = {
            "path": str(spans_path.relative_to(ROOT)),
            "written": len(tracer.spans),
            "dropped": tracer.spans_dropped,
            "traced_ops": len(traced),
            "failures_by_class": _failure_histogram(traced),
            "timeout_sites": dict(tracer.timeout_sites),
        }
    else:
        metrics = e2e

    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": len(timed),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
