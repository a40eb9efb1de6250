"""The kernel's public contract: ``step``/``run`` equivalence, the
``events_processed`` count, the ``until`` boundary and ``Resource.use``
cleanup.  Faster event loops have to keep all of these."""

import pytest

from repro.simkernel import Environment, Resource

from tests.golden.fingerprints import mixed_kernel_workload


def recording_workload(env: Environment) -> list:
    """Timers and zero-delay chains that log every processed event."""
    log: list = []

    def record(tag):
        return lambda event: log.append((env.now, tag, event.value))

    for i, delay in enumerate((0.5, 0.25, 0.5, 0.0, 0.25, 0.75)):
        timer = env.timeout(delay, value=i)
        timer.callbacks.append(record(("timer", i)))
        follow = env.event()
        follow.callbacks.append(record(("follow", i)))
        timer.callbacks.append(lambda _e, f=follow, i=i: f.succeed(-i))

    def proc(pid: int):
        for step in range(3):
            yield env.timeout(0.25 * ((pid + step) % 3))
            log.append((env.now, ("proc", pid), step))
        return pid

    for pid in range(4):
        env.process(proc(pid)).callbacks.append(record(("done", pid)))
    return log


def _recording():
    env = Environment()
    return env, recording_workload(env)


@pytest.mark.parametrize("build", [_recording, mixed_kernel_workload])
def test_step_loop_and_run_give_the_same_sequence(build):
    ran, ran_log = build()
    ran.run()
    stepped, stepped_log = build()
    while stepped._heap:
        stepped.step()
    assert ran_log == stepped_log
    assert ran.events_processed == stepped.events_processed > 0
    assert ran.now == stepped.now


def test_events_processed_counts_when_a_callback_raises():
    env = Environment()
    seen = []
    for i in range(5):
        timer = env.timeout(float(i))
        timer.callbacks.append(lambda e, i=i: seen.append(i))
    boom = env.timeout(2.0)

    def explode(_event):
        raise RuntimeError("boom")

    boom.callbacks.append(explode)
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    # Timers 0, 1, 2 and the raising event itself were popped.
    assert seen == [0, 1, 2]
    assert env.events_processed == 4
    assert env.now == 2.0
    assert boom.processed
    env.run()
    assert seen == [0, 1, 2, 3, 4]
    assert env.events_processed == 6


def test_event_at_exactly_until_is_processed():
    env = Environment()
    fired = []
    for delay in (0.5, 1.0, 1.0, 1.5):
        env.timeout(delay).callbacks.append(
            lambda e, d=delay: fired.append(d))
    assert env.run(until=1.0) == 1.0
    assert fired == [0.5, 1.0, 1.0]
    assert env.events_processed == 3
    assert env.run(until=2.0) == 2.0
    assert fired == [0.5, 1.0, 1.0, 1.5]


def test_run_until_advances_an_idle_clock():
    env = Environment()
    env.timeout(3.0)
    assert env.run(until=1.0) == 1.0
    assert env.events_processed == 0


def test_use_releases_its_slot_when_closed_early():
    env = Environment()
    cores = Resource(env, 1)
    fragment = cores.use(5.0)
    next(fragment)                # the grant request
    env.run()
    assert cores.in_use == 1
    fragment.send(None)           # now holding the slot, timing out
    fragment.close()
    assert cores.in_use == 0
    # The freed slot is granted to the next requester at once.
    grant = cores.request()
    assert cores.in_use == 1
    env.run()
    assert grant.processed
