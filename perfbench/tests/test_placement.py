"""Process placement: one shared CPU, moving every period."""

import os
import signal
import time

import pytest

from perfbench.harness import Placement

CPUS = sorted(os.sched_getaffinity(0))


@pytest.fixture
def sleeper():
    original = os.sched_getaffinity(0)
    pid = os.fork()
    if pid == 0:
        time.sleep(30)
        os._exit(0)
    try:
        yield pid
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.sched_setaffinity(0, original)


@pytest.mark.skipif(len(CPUS) < 2, reason="needs two CPUs")
def test_processes_share_one_cpu_and_rotate(sleeper):
    placement = Placement(3)
    placement.add(sleeper)
    assert os.sched_getaffinity(0) == os.sched_getaffinity(sleeper) == {CPUS[0]}
    placement.unit(1)  # not a multiple of the period: stays
    assert os.sched_getaffinity(sleeper) == {CPUS[0]}
    placement.unit(3)
    assert os.sched_getaffinity(0) == os.sched_getaffinity(sleeper) == {CPUS[1]}
