"""The measuring loop: inputs are cycled, timed per input and counted once."""

import pytest

from run import Tally, measure
from workloads import Outcome


class FakeWorkload:
    """Input ``i`` reports ``i + 1`` scenarios; input 2 raises."""

    def __init__(self):
        self.seen = []

    def call(self, cfg):
        self.seen.append(cfg)
        if cfg == 2:
            raise RuntimeError("solver gave up")
        return cfg

    def check(self, cfg, result):
        if result is None:
            return Outcome(scenarios=1, trials=1, attempted=1, failed=1)
        return Outcome(scenarios=cfg + 1, trials=0, attempted=1, failed=0)


def test_every_input_is_called_before_the_time_is_up():
    workload = FakeWorkload()
    tally = measure(workload, [0, 1, 2, 3], seconds=0.0)
    assert workload.seen == [0, 1, 2, 3]
    assert (tally.attempted, tally.failed) == (4, 1)
    assert len(tally.errors) == 1


def test_repeats_are_timed_but_counted_once():
    workload = FakeWorkload()
    tally = measure(workload, [0, 1, 2], n_calls=7)
    assert workload.seen == [0, 1, 2, 0, 1, 2, 0]
    assert [len(times) for times in tally.input_s] == [3, 2, 2]
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.work["scenarios"] == 1 + 2 + 1 + 1 + 2 + 1 + 1
    assert not tally.problems


def test_throughput_takes_each_input_at_its_fastest_call():
    tally = Tally(2)
    for index, seconds in [(0, 1.5), (1, 2.0), (0, 9.0), (1, 2.5), (0, 1.0)]:
        tally.add(index, seconds, Outcome(scenarios=3, trials=1, attempted=1, failed=0))
    assert tally.typical_s() == pytest.approx(3.0)
    assert tally.per_second("scenarios") == pytest.approx(6 / 3.0)
    assert tally.per_second("trials") == pytest.approx(2 / 3.0)


def test_a_repeat_that_ends_differently_fails_its_input():
    tally = Tally(1)
    tally.add(0, 1.0, Outcome(scenarios=1, trials=1, attempted=1, failed=0))
    tally.add(0, 1.0, Outcome(scenarios=1, trials=1, attempted=1, failed=1))
    assert tally.failed == 1
    assert len(tally.problems) == 1
