"""Tests for the benchmark's own helpers.

Run with ``python -m pytest perfbench``.  They need no program run: the
load generator is driven by a fake clock and a fake server.
"""

import json
from pathlib import Path

import pytest

import harness
import run


class FakeClock:
    """A clock that moves only when the code under test sleeps or the
    fake server takes time to answer."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def serve_in(clock, seconds, ok=True):
    def send(_slot, _index):
        clock.now += seconds
        return ok
    return send


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 1001))
    value, percentile, n = harness.tail(values)
    assert (value, percentile, n) == (990, 99.0, 1000)
    assert sum(1 for v in values if v > value) == harness.TAIL_SAMPLES


def test_tail_order_does_not_matter_and_small_samples_fall_back_to_max():
    # 15 samples: the 5th smallest has exactly ten beyond it
    assert harness.tail([9, 15, 1, 12, 5, 3, 14, 2, 8, 4, 13, 6, 11, 7,
                         10])[0] == 5
    value, percentile, n = harness.tail([3.0, 1.0, 2.0])
    assert (value, percentile, n) == (3.0, 100.0, 3)
    assert harness.tail([]) == (0.0, 0.0, 0)


def test_open_loop_latency_runs_from_the_due_time():
    clock = FakeClock()
    # due every 10 ms, each answer takes 25 ms: every request starts
    # later than the last, and the wait counts in its latency
    samples = harness.run_load(serve_in(clock, 0.025), count=4, rate=100,
                               workers=1, clock=clock, sleep=clock.sleep)
    assert [round(s.due, 6) for s in samples] == [0.0, 0.01, 0.02, 0.03]
    assert [round(s.lateness, 6) for s in samples] == [0.0, 0.015, 0.03,
                                                       0.045]
    assert [round(s.latency, 6) for s in samples] == [0.025, 0.04, 0.055,
                                                      0.07]
    assert all(round(s.done - s.start, 6) == 0.025 for s in samples)


def test_open_loop_waits_for_the_schedule_when_ahead():
    clock = FakeClock()
    samples = harness.run_load(serve_in(clock, 0.002), count=3, rate=10,
                               workers=1, clock=clock, sleep=clock.sleep)
    assert [round(s.start, 6) for s in samples] == [0.0, 0.1, 0.2]
    assert all(round(s.lateness, 6) == 0 for s in samples)
    assert all(round(s.latency, 6) == 0.002 for s in samples)


def test_closed_loop_sends_back_to_back():
    clock = FakeClock()
    samples = harness.run_load(serve_in(clock, 0.044), count=3,
                               workers=1, clock=clock, sleep=clock.sleep)
    assert [round(s.start, 6) for s in samples] == [0.0, 0.044, 0.088]
    assert all(round(s.latency, 6) == 0.044 for s in samples)


def test_a_raising_or_wrong_answer_is_a_failed_sample():
    def send(_slot, index):
        if index == 1:
            raise OSError("refused")
        return index != 2

    samples = harness.run_load(send, count=4, rate=1000, workers=2)
    assert [s.ok for s in samples] == [True, False, False, True]


def samples_with_lateness(lateness, rate):
    return [harness.Sample(i, i / rate, i / rate + late,
                           i / rate + late + 0.002, True)
            for i, late in enumerate(lateness)]


def test_backlog_check_flags_a_generator_falling_behind():
    rate = 800
    # capacity 700/s: every request starts later than the one before
    growing = [i * (1 / 700 - 1 / rate) for i in range(1000)]
    assert harness.backlog_growing(samples_with_lateness(growing, rate),
                                   rate)


@pytest.mark.parametrize("lateness", [
    [0.0] * 900,
    [0.0001 * (i % 7) for i in range(900)],
    # one stall early on that the generator recovers from
    [0.05 if 10 <= i < 20 else 0.0 for i in range(900)],
])
def test_backlog_check_ignores_steady_lateness(lateness):
    assert not harness.backlog_growing(
        samples_with_lateness(lateness, 400), 400)


def test_achieved_rate():
    samples = samples_with_lateness([0.0] * 101, 100)
    assert harness.achieved_rate(samples) == pytest.approx(101 / 1.002)


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
