"""The repository benchmark: one process, a fixed amount of work per run.

Usage (from the repository root)::

    python3 yardstick/run.py --workload cold-chase --seed 1 --seconds 20 --trace 0

Workloads (see ``yardstick/README.md``): ``cold-chase`` and
``warm-serve`` drive the service job path in process, exactly as
``repro serve --workers 0`` runs it (JSON decode, ``JobRequest.from_obj``,
``JobExecutor(workers=0)`` with a per-job snapshot store and
``MetricsObserver``, ``execute_job``, ``to_obj``, JSON encode), closed
loop with one caller and one op in flight.  ``paper-series`` runs the
paper's pipelines in library mode.

``--seconds`` fixes the number of ops (``seconds`` times the workload's
nominal rate on the reference machine); the run always executes the
whole seed-determined stream and never stops on a clock.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
of an untraced run; with ``--trace 1`` it reports the per-layer ledger
of a second, traced pass over the same stream (``yardstick/ledger.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

HASH_SEED = "0"

#: Set-up is repeated this many times per untraced run; ``setup_s`` is
#: the median.  A traced run reports no ``setup_s`` and sets up once.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_diagnostics() -> dict:
    """Steal ticks and 1-min load average, to trace outliers to the host."""
    with open("/proc/stat") as handle:
        cpu = handle.readline().split()
    with open("/proc/loadavg") as handle:
        load = float(handle.read().split()[0])
    return {"steal_ticks": int(cpu[8]) if len(cpu) > 8 else 0, "loadavg_1m": load}


def percentile(values, q: float) -> float:
    """The *q*-quantile (0 < q < 1) by the exclusive method."""
    cuts = statistics.quantiles(values, n=100)
    return cuts[round(q * 100) - 1]


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    # String hashing decides set and dict iteration order inside the
    # program, and with it how long identical work takes (the same K_h
    # core chase runs 36-54 ms across hash seeds).  Pin one hash seed for
    # every run, so seeds vary the stream and nothing else (one exec,
    # same process id).
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)

    started = time.perf_counter()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import harness  # noqa: E402 - needs the program on sys.path
    import workloads  # noqa: E402

    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    n_ops = max(100, args.seconds * workloads.NOMINAL_OPS_PER_SECOND[args.workload])
    stream = workloads.build_stream(args.workload, args.seed, n_ops)
    phases = {"import": import_s, "generate": time.perf_counter() - started - import_s}
    print(f"stream: {args.workload} seed={args.seed} ops={len(stream.ops)} sha256={stream.digest}")
    host_before = host_diagnostics()

    work_root = os.path.join(ROOT, ".yardstick-work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_root, ignore_errors=True)
    os.makedirs(work_root)
    try:
        result = run(args, stream, work_root, import_s, phases)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass
    if result is None:
        return 3
    host_after = host_diagnostics()
    print(
        "host: steal_ticks_delta={} loadavg_1m_before={} loadavg_1m_after={}".format(
            host_after["steal_ticks"] - host_before["steal_ticks"],
            host_before["loadavg_1m"],
            host_after["loadavg_1m"],
        )
    )
    phases["total"] = time.perf_counter() - started
    print("phases: " + " ".join(f"{name}={seconds:.1f}s" for name, seconds in phases.items()))
    print(json.dumps(result))
    return 0


def run(args, stream, work_root: str, import_s: float, phases: dict):
    import harness
    import workloads

    mark = time.perf_counter()
    import_factor = harness.speed_factor(harness.probe())
    setups = []
    session = None
    for repeat in range(1 if args.trace else SETUP_REPEATS):
        if session is not None:
            session.close()
        session = harness.Session(stream, os.path.join(work_root, f"setup{repeat}"))
        setups.append(session.setup())
    setup_wall = import_s + statistics.median(wall for wall, _ in setups)
    setup_s = import_s * import_factor + statistics.median(ref for _, ref in setups)

    gc.collect()
    measured = session.measure(stream.ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    session.close()
    phases["setup"] = time.perf_counter() - mark - measured.elapsed
    phases["measure"] = measured.elapsed
    mark = time.perf_counter()
    replies, latencies = measured.replies, measured.normalized_latencies()

    per_layer = None
    if args.trace:
        traced = harness.Session(stream, os.path.join(work_root, "traced"))
        traced.setup()
        gc.collect()
        per_layer = traced.measure_traced(stream.ops, untraced=measured)
        traced.close()
        if per_layer is None:
            return None

    phases["traced"] = time.perf_counter() - mark
    mark = time.perf_counter()
    refs = workloads.References(stream.bases)
    failures = harness.check_all(stream, replies, refs)
    problems = harness.check_shape(stream, replies, latencies)
    if args.trace:
        # The traced pass answers the same stream, so its replies must be
        # right too; ok_rate and `failed` still come from the untraced pass.
        problems += [f"traced {m}" for m in harness.check_all(stream, traced.traced_replies, refs)]
    phases["check"] = time.perf_counter() - mark
    for message in failures[:10] + problems[:10]:
        print(f"check: {message}")
    failed = len(failures)
    attempted = len(stream.ops)
    correct = failed == 0 and not problems
    print(
        "classes: "
        + ", ".join(
            f"{cls}={statistics.median(ls) * 1000:.2f}ms"
            for cls, ls in sorted(harness.latencies_by_class(stream, latencies).items())
        )
    )

    raw = measured.latencies
    print(
        f"raw wall: throughput_ops_s={attempted / measured.elapsed:.4f} "
        f"latency_p50_s={statistics.median(raw):.6f} latency_p90_s={percentile(raw, 0.90):.6f} "
        f"setup_s={setup_wall:.4f} speed_factor_median={statistics.median(measured.factors):.4f}"
    )
    if per_layer is not None:
        metrics = per_layer
    else:
        metrics = {
            "throughput_ops_s": {"value": attempted / measured.normalized_elapsed, "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "latency_p90_s": {"value": percentile(latencies, 0.90), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
