"""Run one perfbench workload and print its result as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload closed-sweep --seed 13 \\
        --seconds 15 --trace 0

The run sets the system up once from the seed (data, ground truth,
index build), then repeats the workload's measured phase while another
phase still fits into ``--seconds`` of wall time (at least once) and
reports the median of the phases' CPU seconds at the reference host
speed (see ``perfbench/tracing.py``).  ``--trace 1`` instead runs the
phase once untraced and once traced, plus the probes that price telemetry,
mutation and the cluster merge, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2
means the benchmark could not run at all (bad arguments, or no program
under ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Where a traced run writes its spans (one JSON object per line).
TRACE_DIR = ROOT / "perfbench" / "traces"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def hermetic_env() -> None:
    """One BLAS thread (the workloads are serial) and no dependence on
    the program's scale or cache settings."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in ("REPRO_SCALE", "REPRO_CACHE_DIR"):
        os.environ.pop(var, None)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    hermetic_env()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
        from perfbench import layers, tracing, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: repro was imported from {repro.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    spec = workloads.dataset_spec(args.seed)
    tracer = (tracing.Tracer(uuid.uuid4().hex) if args.trace
              else tracing.NULL)
    if args.trace:
        with tracer.span("setup"):
            dep = workloads.setup(spec, workload.cluster, tracer)
    else:
        with tracing.HostClock() as setup_clock:
            dep = workloads.setup(spec, workload.cluster, tracer)

    start = time.perf_counter()
    phases = [workloads.run_phase(workload, dep)]
    # A repeat of serve-mutate's phase starts with the first one's
    # memory still held, so the mark is read before any repeat: how
    # many repeats fit depends on the host's speed.
    rss_mb = layers.peak_rss_mb()
    if args.trace:
        run = layers.traced_run(workload, dep, tracer, phases[0])
    else:
        while (time.perf_counter() - start + phases[-1].wall_s
               <= args.seconds):
            phases.append(workloads.run_phase(workload, dep))
        run = layers.untraced_run(phases, setup_clock.calibrated_s,
                                  rss_mb)

    print(phases[0].table)
    for phase in phases:
        print(f"measured phase: {phase.wall_s:.3f} wall s, "
              f"{phase.cpu_s:.3f} CPU s, {phase.calibrated_s:.3f} "
              f"calibrated s")
    for digest in sorted(set(run.digests)):
        print(f"sim_digest {workload.name} seed={args.seed}: {digest}")
    if args.trace:
        print(run.report)
        path = TRACE_DIR / f"{workload.name}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"wrote {len(tracer.spans)} spans to {path}")
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": layers.UNITS[name]}
                    for name, value in run.metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
