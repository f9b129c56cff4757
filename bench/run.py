"""tsvar benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload multistart --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; tsvar is imported from its ``src``
directory.  An untraced run (``--trace 0``) times set-up in fresh processes,
then solves the workload's problems in turn for ``--seconds`` and reports the
end-to-end metrics.  A traced run (``--trace 1``) makes the same untraced
solves, then loads ``tracer.py``, builds the workload again and makes one
traced pass, and reports the per-layer metrics.  Every output is checked in
both modes.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5


def _import_tsvar():
    """Import tsvar from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import tsvar
    except ImportError as exc:
        sys.exit(f"bench: cannot import tsvar from {SRC}: {exc}")
    if SRC not in Path(tsvar.__file__).resolve().parents:
        sys.exit(f"bench: tsvar was imported from {tsvar.__file__}, not from {SRC}")
    return tsvar


def _read_loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; do not pick up an enclosing repository
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _setup_sample(args) -> tuple:
    """(wall, kernel) seconds: spawning a fresh interpreter up to the end of
    set-up, and the mean reference-kernel time around it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    ref_before = reference.kernel_seconds()
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if out.returncode != 0:
        sys.exit(f"bench: set-up failed in a fresh process:\n{out.stderr}")
    wall = float(out.stdout.split()[-1]) - start
    return wall, (ref_before + reference.kernel_seconds()) / 2


def _solve(prob, failures: list) -> float:
    """Solve and check one problem; return the solve's seconds, record a failure."""
    start = time.perf_counter()
    seconds = None
    try:
        out = prob.solve()
        seconds = time.perf_counter() - start
        errors = prob.check(out)
    except Exception as exc:  # a failed problem is counted, the run goes on
        errors = [f"raised {type(exc).__name__}: {exc}"]
    if errors:
        failures.append(f"{prob.name}: " + "; ".join(errors))
    return time.perf_counter() - start if seconds is None else seconds


def _timed_samples(problems, seconds: float, failures: list) -> dict:
    """Solve the problems in turn for ``seconds``; every problem at least once.

    Each sample is (wall, kernel): the solve's seconds and the mean of the
    reference-kernel times just before and after it.  The run stops before a
    problem whose last solve would not end in time, so the whole window is
    used whatever the size of the problems.
    """
    samples = {prob.name: [] for prob in problems}
    start = time.perf_counter()
    ref_before = reference.kernel_seconds()
    while True:
        for prob in problems:
            done = samples[prob.name]
            if done and time.perf_counter() - start + done[-1][0] > seconds:
                return samples
            wall = _solve(prob, failures)
            ref_after = reference.kernel_seconds()
            done.append((wall, (ref_before + ref_after) / 2))
            ref_before = ref_after


def _scaled(pairs) -> float:
    """Median of wall seconds scaled to the nominal host speed."""
    return statistics.median(wall * reference.NOMINAL_S / ref for wall, ref in pairs)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _tail(samples: list):
    """(q, value) for the highest of p90/p99 with ten samples beyond it, or None."""
    best = None
    for q in (90, 99):
        if len(samples) * (100 - q) / 100 >= 10:
            best = (q, statistics.quantiles(samples, n=100)[q - 1])
    return best


def main() -> None:
    removed_threads = os.environ.pop("TSVAR_THREADS", None)
    tsvar = _import_tsvar()
    import numpy as np
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record to this JSON file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_only:
        workloads.build(args.workload, args.seed)
        print(time.monotonic())
        return

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "tsvar": tsvar.__version__, "tsvar_threads_removed": removed_threads,
        "loadavg_start": _read_loadavg(),
    }
    setup = [] if args.trace else [_setup_sample(args) for _ in range(SETUP_SAMPLES)]

    failures = []
    problems = workloads.build(args.workload, args.seed)
    samples = _timed_samples(problems, args.seconds, failures)
    attempted = sum(len(v) for v in samples.values())
    pass_s = sum(_scaled(v) for v in samples.values())

    spans = absent = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            # a window of 0 s makes exactly one pass
            traced = _timed_samples(workloads.build(args.workload, args.seed), 0.0, failures)
        finally:
            tracer.uninstall()
        attempted += len(problems)
        traced_s = sum(_scaled(pairs) for pairs in traced.values())
        scale = traced_s / sum(wall for pairs in traced.values() for wall, _ in pairs)
        metrics = {k: _metric(v * scale if u == "s" else v, u)
                   for k, (v, u) in tracer.metrics().items()}
        metrics["trace.overhead_s"] = _metric(traced_s - pass_s, "s")
        spans = {name: {"calls": c, "s": s, "self_s": self_s}
                 for name, (c, s, self_s) in sorted(tracer.spans.items())}
        absent = tracer.absent
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": _metric(_scaled(setup), "s"),
            "pass_s": _metric(pass_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "ok_ratio": _metric(1.0 - len(failures) / attempted, "1"),
        }
    meta["loadavg_end"] = _read_loadavg()

    print("# meta " + json.dumps(meta))
    for line in failures:
        print(f"FAIL {line}")
    kernel = [ref for pairs in samples.values() for _, ref in pairs]
    print(f"{args.workload}: {attempted} solves; reference kernel median "
          f"{statistics.median(kernel):.4f} s against {reference.NOMINAL_S} s nominal")
    for name, pairs in samples.items():
        walls = [wall for wall, _ in pairs]
        tail = _tail(walls)
        print(f"  {name}: scaled median {_scaled(pairs):.4f} s; wall mean "
              f"{statistics.fmean(walls):.4f} s, median {statistics.median(walls):.4f} s, "
              f"min {min(walls):.4f} s" + (f", p{tail[0]} {tail[1]:.4f} s" if tail else "")
              + f" over {len(walls)} solves")
    print(f"  wall pass median {sum(statistics.median(w for w, _ in v) for v in samples.values()):.4f} s"
          + (f", wall setup median {statistics.median(w for w, _ in setup):.4f} s" if setup else ""))
    print(f"  fail_ratio = {len(failures)}/{attempted} = {len(failures) / attempted:g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if absent:
        print("  absent hook targets: " + ", ".join(absent))

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    if args.out:
        record = dict(result, meta=meta, setup_samples=setup, samples=samples,
                      failures=failures, spans=spans, absent=absent)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
