"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload edit-session --seed 1 --seconds 6 --trace 0

``--trace 0`` measures every end-to-end metric with tracing off;
``--trace 1`` runs one round untraced and the same round traced and
prints every per-layer metric instead.  ``--smoke`` shrinks every
workload to two programs and one round, for tests.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting
with ``# perfbench``, stamps the run (commit, source digest, Python,
CPU count, seed, mode) and lists failures by error class and the
workload's output digest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("call-scaling", "edit-session", "daemon-warm")
HASH_SEED = "0"


def source_digest() -> str:
    """Digest of the analyzed program's sources (the checkout the
    benchmark runs in need not be a git repository)."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def commit_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() or None


def peak_rss_mb(children: bool) -> float:
    """Peak resident memory of this process, plus with ``children``
    that of its largest reaped child (the daemon's worker), in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def stop_helpers() -> None:
    """Wait for every process multiprocessing started for the run.

    Reference pools and the daemon process are joined where they are
    used; this also stops the resource tracker that the spawn start
    method launches, which would otherwise outlive the benchmark."""
    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


def measure(workload, plan, seed, seconds, smoke):
    """Rounds with tracing off until ``seconds`` have passed."""
    from perfbench import ops

    rec = ops.Recorder()
    rounds = 0
    start = time.perf_counter()
    while True:
        workload.round(plan, rec, random.Random(f"{seed}:round:{rounds}"))
        rounds += 1
        if smoke or time.perf_counter() - start >= seconds:
            break
    return rec, rec.metrics(), rounds


def traced(workload, plan, seed):
    """One round untraced, then the same round traced; per-layer
    metrics from the traced one."""
    from repro import obs
    from perfbench import layers, ops

    untraced = ops.Recorder()
    traced_rec = ops.Recorder()
    workload.round(plan, untraced, random.Random(f"{seed}:round:0"))
    tracer = obs.Tracer()
    with layers.instrumented(), obs.tracing(tracer):
        telemetry = workload.round(
            plan, traced_rec, random.Random(f"{seed}:round:0"), trace=True
        )
    if telemetry is not None:  # daemon-warm: the daemon's own documents
        documents, registry = telemetry
        roots = [span for doc in documents for span in doc["spans"]]
        selfs, calls = layers.self_times(roots, layers.daemon_layer)
        counters: dict = {}
        for doc in documents:
            for name, value in doc.get("metrics", {}).get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
        front = registry.get("counters", {})
        extra = {
            "coalesced": front.get("daemon.coalesced", 0),
            "shed": front.get("daemon.shed", 0),
        }
        balanced = layers.nested(roots)
    else:
        try:
            tracer.check_balanced()
            balanced = True
        except obs.TraceImbalance:
            balanced = False
        roots = [
            span for span in tracer.events() if span["name"].startswith("op:")
        ]
        selfs, calls = layers.self_times(roots, layers.inprocess_layer)
        counters = tracer.counters
        extra = {}
    extra["tiers"] = traced_rec.tiers
    extra["artifact_bytes"] = traced_rec.artifact_bytes
    metrics, attribution = layers.layer_metrics(
        selfs, calls, counters, traced_rec.busy_s, untraced.busy_s, extra
    )
    checks = {
        "balanced": balanced,
        "same_outputs": untraced.output_digest() == traced_rec.output_digest(),
        "attribution": attribution,
    }
    return traced_rec, metrics, checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing decides set and dict iteration orders, and with
        # them how much work an analysis does; a per-process random
        # hash seed moved the tail latencies between runs of the same
        # inputs.  Run under one fixed seed (children inherit it).
        os.execve(
            sys.executable, [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    plan = None
    started = time.perf_counter()
    try:
        plan = workload.setup(args.seed, args.smoke, workdir)
        setup_s = time.perf_counter() - started
        # Set-up's objects are long-lived; keep them out of the
        # collections the measured operations trigger.
        gc.collect()
        gc.freeze()
        # Every operation's output is checked against its reference; a
        # wrong output is a failed operation (class OutputMismatch) and
        # shows in ``failed``.  ``correct`` says whether the run can
        # vouch for what it measured: in a traced run, balanced spans
        # and the same outputs as the untraced round, and layers that
        # account for all but 10% of the traced wall.
        if args.trace:
            rec, metrics, checks = traced(workload, plan, args.seed)
            rounds = 1
            correct = (
                checks["balanced"]
                and checks["same_outputs"]
                and checks["attribution"]["ok"]
            )
        else:
            rec, metrics, rounds = measure(
                workload, plan, args.seed, args.seconds, args.smoke
            )
            checks = {}
            correct = True
    finally:
        if plan is not None and plan.daemon is not None:
            plan.daemon.close()
        stop_helpers()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's working directory is still there
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(workload.rss_children), "MB")

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": ("trace" if args.trace else "measure")
        + ("-smoke" if args.smoke else ""),
        "commit": commit_sha(),
        "src_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rounds": rounds,
        "ops": rec.counts(),
        "errors": dict(sorted(rec.errors.items())),
        "output_digest": rec.output_digest(),
        "wall_s": round(time.perf_counter() - started, 3),
        **checks,
    }
    print("# perfbench " + json.dumps(stamp, sort_keys=True, default=str))
    result = {
        "correct": bool(correct),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
