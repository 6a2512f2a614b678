import os
import time

import pytest

from shbuf import _fork

from conftest import FORKS, forced_route


@FORKS
@pytest.mark.parametrize("count", range(6))
def test_results_come_back_in_item_order(count):
    items = [(index, -index / 3) for index in range(count)]
    with forced_route("two_processes") as (forks, _):
        results = _fork.map_in_two_processes(lambda item: [item, os.getpid()], items)
    # fewer than two items leave nothing to share, so nothing is forked
    assert len(forks) == (count >= 2)
    assert [item for item, _ in results] == items
    assert [pid for _, pid in results] == [forks[0] if index % 2 else os.getpid() for index in range(count)]


@FORKS
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads this process's CPU from /proc")
def test_the_child_may_run_anywhere_but_on_the_parents_cpu():
    parent, allowed = os.getpid(), os.sched_getaffinity(0)

    def affinity(item):
        # this process narrows the child's CPUs just after the fork; the child waits to see it
        deadline = time.monotonic() + 10
        while os.getpid() != parent and os.sched_getaffinity(0) == allowed and time.monotonic() < deadline:
            time.sleep(0.001)
        return sorted(os.sched_getaffinity(0))

    with forced_route("two_processes"):
        mine, childs = _fork.map_in_two_processes(affinity, [0, 1])
    assert mine == sorted(allowed)
    assert len(childs) == len(allowed) - 1 and set(childs) < allowed


@FORKS
def test_a_result_marshal_cannot_send_raises_its_value_error():
    with forced_route("two_processes") as (forks, statuses):
        with pytest.raises(ValueError, match="unmarshallable"):
            _fork.map_in_two_processes(lambda item: object(), [0, 1])
    assert len(forks) == 1 and os.WIFEXITED(statuses[0]) and os.WEXITSTATUS(statuses[0]) == 0
