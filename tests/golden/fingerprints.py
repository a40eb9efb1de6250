"""Golden fingerprints of the simulator's event order and run outputs.

Each fingerprint is a short SHA-256 over something the simulated clock
produces: the ``(time, tie, event type)`` pop sequence of a mixed
kernel workload, or the repr of a run's result (plus its span JSONL and
Prometheus text when telemetry is on).  The committed values in
``fingerprints.json`` pin the exact heap order of the kernel and every
number of the runs below, so a change meant to be sim-neutral — a
faster event loop, a leaner replay path — has to leave all of them
unchanged.  A run compared only against itself (as in
``tests/simkernel/test_stress.py``) cannot catch an order change; these
can.

The run-level fingerprints go through numpy's BLAS, whose last bits
may differ between numpy builds, so the fixture records the numpy
version it was generated with and the run-level tests skip under any
other.  The kernel fingerprints use only Python floats and the stdlib
RNG and are checked everywhere.

Regenerate (only when a change is *meant* to move the simulation, in
its own commit, saying why)::

    PYTHONPATH=src python -m tests.golden.fingerprints --write
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
import typing as t
from pathlib import Path

import numpy as np

from repro.simkernel import Environment, Resource

FIXTURE = Path(__file__).with_name("fingerprints.json")


def _digest(*parts: t.Any) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


# -- kernel -----------------------------------------------------------------

#: Durations chosen to collide: exact binary fractions, zero, and a
#: float sum that lands next to (not on) 0.3.
_DURATIONS = (0.0, 0.125, 0.25, 0.25, 0.5, 0.1 + 0.2, 0.3, 0.1)


def mixed_kernel_workload(seed: int = 20251) -> tuple[Environment, list]:
    """A workload built to force same-instant heap collisions.

    Equal durations, zero-delay ``succeed`` from callbacks, a
    :class:`Resource` held at capacity (through both ``use`` and the
    raw ``request``/``release`` pair), ``all_of``/``any_of``/``race``
    joins and ``process_at`` arrivals on the same instants.  Returns the
    unstarted environment and the log its processes append to.
    """
    rng = random.Random(seed)
    env = Environment()
    cores = Resource(env, 2)
    disk = Resource(env, 1)
    log: list = []

    def pick() -> float:
        return rng.choice(_DURATIONS)

    def worker(wid: int):
        for step in range(6):
            kind = rng.randrange(6)
            if kind == 0:
                yield from cores.use(pick())
            elif kind == 1:
                yield cores.request()
                try:
                    yield env.timeout(pick())
                finally:
                    cores.release()
            elif kind == 2:
                yield from disk.use(pick())
            elif kind == 3:
                values = yield env.all_of(
                    [env.timeout(pick(), value=i) for i in range(3)])
                log.append(("all", wid, values))
            elif kind == 4:
                winner = yield env.race(
                    [env.timeout(pick()), env.timeout(pick())])
                log.append(("race", wid, winner))
            else:
                flag = env.event()
                timer = env.timeout(pick())
                timer.callbacks.append(lambda _e, f=flag: f.succeed(wid))
                value = yield env.any_of([flag, env.timeout(pick())])
                log.append(("any", wid, value))
            log.append((env.now, wid, step, cores.in_use,
                        cores.queue_length))
        return wid

    def spawner():
        children = []
        for wid in range(24):
            if wid % 3 == 0:
                children.append(env.process_at(pick(), worker(wid)))
            else:
                children.append(env.process(worker(wid)))
            if wid % 4 == 3:
                yield env.timeout(0.125)
        done = yield env.all_of(children)
        log.append(("joined", env.now, done))

    env.process(spawner())
    return env, log


def kernel_pop_trace() -> str:
    """Hash of the ``(time, tie, event type)`` pop sequence, step-driven."""
    env, log = mixed_kernel_workload()
    trace = []
    while env._heap:
        when, tie, event = env._heap[0]
        trace.append((when, tie, type(event).__name__))
        env.step()
    return _digest(trace, log, env.events_processed)


def kernel_run_log() -> str:
    """Hash of what the processes observe when ``run()`` drives them."""
    env, log = mixed_kernel_workload()
    env.run()
    return _digest(log, env.events_processed, env.now)


# -- runs ---------------------------------------------------------------------

CLOSED_CLIENTS = (1, 16, 64)


def _corpus():
    from repro.data.groundtruth import exact_knn
    from repro.data.synthetic import make_vectors
    X = make_vectors(400, 24, n_clusters=8, seed=17, latent_dim=8)
    rng = np.random.default_rng(18)
    rows = rng.integers(0, X.shape[0], size=24)
    queries = (X[rows] + 0.1 * rng.standard_normal(
        (24, X.shape[1])).astype(np.float32)).astype(np.float32)
    truth = exact_knn(X, queries, 10, "cosine")
    return X, queries, truth


def _diskann_runner():
    """A device-bound DiskANN runner (node caches off, admission pool
    on) over the tiny corpus."""
    from repro.engines.engine import IndexSpec, VectorEngine
    from repro.engines.profiles import get_profile
    from repro.workload import BenchRunner
    X, queries, truth = _corpus()
    profile = dataclasses.replace(get_profile("milvus"),
                                  diskann_cache_bytes=0,
                                  diskann_lru_bytes=0)
    engine = VectorEngine(profile)
    engine.create_collection("golden", X.shape[1],
                             IndexSpec.of("diskann", "cosine", R=8,
                                          L_build=16),
                             storage_dim=768)
    engine.insert("golden", X)
    engine.flush("golden")
    return BenchRunner(engine, "golden", queries, ground_truth=truth)


def _result_digest(result) -> str:
    from repro.obs.export import render_prometheus, spans_to_jsonl
    telemetry = result.telemetry
    stripped = dataclasses.replace(result, telemetry=None)
    if hasattr(stripped, "tracer"):
        stripped = dataclasses.replace(stripped, tracer=None)
    if telemetry is None:
        return _digest(repr(stripped))
    return _digest(repr(stripped), spans_to_jsonl(telemetry.spans),
                   render_prometheus(telemetry))


def closed_loop_runs() -> dict[str, str]:
    runner = _diskann_runner()
    out = {}
    for telemetry in (False, True):
        for clients in CLOSED_CLIENTS:
            result = runner.run(clients, {"search_list": 16},
                                duration_s=0.05, telemetry=telemetry)
            name = f"closed.c{clients}" + (".telemetry" if telemetry
                                           else "")
            out[name] = _result_digest(result)
    return out


def serve_mutation_run() -> str:
    from repro.mutate import CompactionPolicy, MutationLoad
    from repro.serve import PoissonArrivals, ServeConfig, Server, TenantLoad
    load = MutationLoad(
        insert_qps=60_000.0, delete_qps=6_000.0, batch_rows=64,
        policy=CompactionPolicy(delta_rows=2_000, tombstone_fraction=0.5),
        write_amplification=2.0)
    config = ServeConfig(
        tenants=(TenantLoad("t", PoissonArrivals(rate_qps=4000.0)),),
        duration_s=0.1, max_inflight=8, seed=5, slo_deadline_s=0.005,
        search_params={"search_list": 16}, mutation=load)
    return _result_digest(
        Server(_diskann_runner(), config, telemetry=True).serve())


def cluster_run() -> str:
    from repro.cluster import Cluster, ClusterTopology
    from repro.cluster.runner import ClusterBenchRunner
    from repro.engines.engine import IndexSpec
    X, queries, truth = _corpus()
    cluster = Cluster(ClusterTopology(n_shards=2, replicas=2, seed=3),
                      "milvus", seed=0)
    cluster.create("c", X.shape[1],
                   IndexSpec.of("diskann", "cosine", R=8, L_build=16),
                   storage_dim=768)
    cluster.insert("c", X)
    cluster.flush("c")
    runner = ClusterBenchRunner(cluster, "c", queries, ground_truth=truth,
                                k=10)
    return _result_digest(runner.run(8, {"search_list": 16},
                                     duration_s=0.05, telemetry=True))


KERNEL = {"kernel.pop_trace": kernel_pop_trace,
          "kernel.run_log": kernel_run_log}


def compute_all() -> dict[str, str]:
    out = {name: fn() for name, fn in KERNEL.items()}
    out.update(closed_loop_runs())
    out["serve.mutation"] = serve_mutation_run()
    out["cluster.run"] = cluster_run()
    return out


def load() -> dict[str, t.Any]:
    return json.loads(FIXTURE.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {FIXTURE.name} instead of checking")
    args = parser.parse_args(argv)
    current = compute_all()
    if args.write:
        FIXTURE.write_text(json.dumps(
            {"numpy": np.__version__, "fingerprints": current},
            indent=2, sort_keys=True) + "\n")
        return 0
    pinned = load()["fingerprints"]
    moved = sorted(name for name in current
                   if pinned.get(name) != current[name])
    for name in moved:
        print(f"{name}: {pinned.get(name)} -> {current[name]}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
