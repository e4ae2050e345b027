"""Benchmark of the maxminfair solver, driven from outside the package.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  One
client runs one workload's operations back to back (closed loop, one process,
one thread).  A pass runs every operation of the workload's list once; a run
makes at least three whole passes and `--seconds` of operation time, and an
operation's latency is its fastest run.  Each output is checked outside the
timed region; a wrong answer aborts with exit code 1 and no result line.

`--trace 0` measures the end-to-end metrics.  `--trace 1` makes one pass and
runs each operation twice: once untraced and once with spans recorded around
the layers (see `tracing.py`).  It reports the per-layer metrics, including
the traced/untraced time ratio.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 result printed, 1 a check failed, 2 the package or a workload
could not be set up.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from timing import calibrate, calibration_s, percentile
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
# Kept out of every tuning run; a claimed gain must also hold on this seed.
HELD_OUT_SEED = 7411

MIN_OPS = 100  # operations per pass, so p90 has at least ten beyond it
PASSES = 3  # an operation's latency is its fastest calibrated run of these
OP_CAP_S = 20.0  # an operation running longer fails
WALL_LIMIT_S = 130.0  # stop measuring here so a run ends within 180 s
SETUP_REPS = 5
MODULES = (
    "certificates", "cli", "configlp", "errors", "generators",
    "instances", "matching", "oracle", "simplex",
)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{
        name: ("s/op" if name.endswith(("_s", ".s")) else "1/op")
        for name in layer_metrics([], 1)
    },
    "simplex.cols_mean": "cols",
    "configlp.pricing_yield": "cols/call",
    "configlp.breakpoint_points": "points",
    "alloc_ratio_mean": "ratio",
    "trace.overhead_frac": "ratio",
}


class SetupError(Exception):
    """The package or a workload's inputs could not be prepared."""


class OpTimeout(Exception):
    """An operation ran past OP_CAP_S."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_CAP_S} s")


def load_package() -> SimpleNamespace:
    """Import `maxminfair` afresh from this checkout's `src/`."""
    init = SRC / "maxminfair" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no package source at {init}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "maxminfair"]:
        del sys.modules[name]
    package = importlib.import_module("maxminfair")
    if Path(package.__file__).resolve() != init.resolve():
        raise SetupError(f"imported maxminfair from {package.__file__}, not {init}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"maxminfair.{m}") for m in MODULES}
    )


def set_up(workload, seed: int, workdir: Path, tiny: bool, reps: int):
    """Import, generate and write the inputs `reps` times.

    Returns the package, the operations and the median calibrated set-up time.
    """
    times = []
    for _ in range(reps):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        before = calibration_s()
        start = time.perf_counter()
        pkg = load_package()
        ops = workload.build(pkg, seed, workdir, tiny)
        times.append(calibrate(time.perf_counter() - start, before, calibration_s()))
    return pkg, ops, statistics.median(times)


@dataclass
class Phase:
    """What the closed loop measured, per operation of the pass."""

    runs: list[list[float]]  # calibrated latency of each run; failed: OP_CAP_S or more
    failed_ops: set[int] = field(default_factory=set)
    attempted: int = 0
    busy_s: float = 0.0
    traced_s: float = 0.0
    notes: list[dict] = field(default_factory=list)

    def latencies(self) -> list[float]:
        """One latency per operation: its fastest run, or its slowest if any failed."""
        return [
            max(r) if i in self.failed_ops else min(r)
            for i, r in enumerate(self.runs)
            if r
        ]


def _timed(workload, pkg, op):
    """(seconds, output, error) of one operation under the per-operation cap."""
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    start = time.perf_counter()
    try:
        output = workload.run(pkg, op)
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        return elapsed, output, None
    except Exception as exc:  # any raise is a failed operation, not a crash
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        return elapsed, None, exc


def run_phase(workload, pkg, ops, *, seconds, passes, deadline, checks: Counter,
              tracer=None) -> Phase:
    """Whole passes over `ops`, at least `passes` and `seconds` of operation time.

    Stopping only between passes keeps the mix of inputs the same however
    fast the program is.  With a tracer, each operation also runs once more
    with spans recorded; which of the two runs goes first alternates, so
    neither gains from the other warming up.  Only untraced runs count.
    """
    phase = Phase(runs=[[] for _ in ops])
    done = 0
    speed_before = calibration_s()
    while done < passes or phase.busy_s < seconds:
        for i, op in enumerate(ops):
            if time.monotonic() > deadline:
                return phase
            n = phase.attempted
            runs = {}
            for traced in (False, True) if n % 2 == 0 else (True, False):
                if not traced:
                    runs[traced] = _timed(workload, pkg, op)
                elif tracer is not None:
                    tracer.op = n
                    tracer.install(pkg)
                    try:
                        runs[traced] = _timed(workload, pkg, op)
                    finally:
                        tracer.uninstall()
            elapsed, output, error = runs[False]
            speed_after = calibration_s()
            latency = calibrate(elapsed, speed_before, speed_after)
            speed_before = speed_after
            phase.runs[i].append(latency if error is None else max(latency, OP_CAP_S))
            phase.attempted += 1
            phase.busy_s += elapsed
            if True in runs:
                phase.traced_s += runs[True][0]
                if runs[True][2] is None:
                    workload.check(pkg, op, runs[True][1], checks)
            if error is None:
                phase.notes.append(workload.check(pkg, op, output, checks))
            else:
                phase.failed_ops.add(i)
                print(f"operation {op.key} failed: {error!r}", file=sys.stderr)
            # Free the outputs before the next operation runs, so the peak
            # memory is that of one operation, not of whichever came before.
            del runs, output
        done += 1
    return phase


def summarise(name: str, seed: int, phase: Phase, checks: Counter) -> str:
    outcomes = Counter(note["outcome"] for note in phase.notes if "outcome" in note)
    ratios = [note["alloc_ratio"] for note in phase.notes if "alloc_ratio" in note]
    distinct = len(phase.latencies())
    return (
        f"{name} seed={seed}: {phase.attempted} runs of {distinct} operations, "
        f"failed_frac={len(phase.failed_ops) / distinct:.4f}, "
        f"alloc_ratio_mean={statistics.fmean(ratios) if ratios else 'n/a'}, "
        f"outcomes={dict(outcomes)}, checks={dict(checks)}"
    )


def bench(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
          min_ops: int = MIN_OPS, setup_reps: int = SETUP_REPS) -> tuple[dict, Counter, str]:
    """Set up and measure one workload; returns (result, checks fired, summary)."""
    started = time.monotonic()
    workload = WORKLOADS[name]()
    workdir = WORK / f"{name}-{seed}"
    checks: Counter = Counter()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        pkg, ops, setup_s = set_up(workload, seed, workdir, tiny, setup_reps)
        if len(ops) < min_ops:
            raise SetupError(f"{name} has {len(ops)} operations, fewer than {min_ops}")
        gc.collect()
        tracer = Tracer() if trace else None
        phase = run_phase(workload, pkg, ops, seconds=0 if trace else seconds,
                          passes=1 if trace else PASSES, deadline=started + WALL_LIMIT_S,
                          checks=checks, tracer=tracer)
        latencies = phase.latencies()
        if not trace:
            metrics = {
                "ops_per_s": (len(latencies) - len(phase.failed_ops)) / sum(latencies),
                "latency_p50_s": percentile(latencies, 0.5),
                "latency_p90_s": percentile(latencies, 0.9),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
        else:
            TRACE_OUT.mkdir(exist_ok=True)
            tracer.write(TRACE_OUT / f"spans-{name}.jsonl")
            metrics = layer_metrics(tracer.spans, phase.attempted)
            ratios = [note["alloc_ratio"] for note in phase.notes if "alloc_ratio" in note]
            metrics["alloc_ratio_mean"] = statistics.fmean(ratios) if ratios else 0.0
            metrics["trace.overhead_frac"] = phase.traced_s / phase.busy_s
            units = PER_LAYER_UNITS
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    result = {
        "correct": True,
        "attempted": len(latencies),
        "failed": len(phase.failed_ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, checks, summarise(name, seed, phase, checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, _, summary = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        traceback.print_exc()
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    print(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
