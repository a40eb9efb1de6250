"""The golden fingerprints still match the committed fixture.

See :mod:`tests.golden.fingerprints` for what each one pins and how to
regenerate the fixture when a change is meant to move the simulation.
"""

import numpy as np
import pytest

from tests.golden import fingerprints

PINNED = fingerprints.load()


def _pinned(name: str) -> str:
    return PINNED["fingerprints"][name]


def _require_fixture_numpy() -> None:
    if np.__version__ != PINNED["numpy"]:
        pytest.skip(f"run fingerprints were generated with numpy "
                    f"{PINNED['numpy']}, not {np.__version__}")


@pytest.mark.parametrize("name", sorted(fingerprints.KERNEL))
def test_kernel_fingerprint(name):
    assert fingerprints.KERNEL[name]() == _pinned(name)


@pytest.fixture(scope="module")
def closed_loop():
    _require_fixture_numpy()
    return fingerprints.closed_loop_runs()


@pytest.mark.parametrize("clients", fingerprints.CLOSED_CLIENTS)
@pytest.mark.parametrize("suffix", ["", ".telemetry"])
def test_closed_loop_fingerprint(closed_loop, clients, suffix):
    name = f"closed.c{clients}{suffix}"
    assert closed_loop[name] == _pinned(name)


def test_serve_mutation_fingerprint():
    _require_fixture_numpy()
    assert fingerprints.serve_mutation_run() == _pinned("serve.mutation")


def test_cluster_fingerprint():
    _require_fixture_numpy()
    assert fingerprints.cluster_run() == _pinned("cluster.run")
