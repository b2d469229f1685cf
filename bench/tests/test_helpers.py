"""Tests for the benchmark's own helpers.

Run from the root of a checkout with ``python3 -m pytest bench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import calibration  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import summary  # noqa: E402
import tracing  # noqa: E402


# -- tail percentile rule -------------------------------------------------------


def test_tail_takes_the_value_with_ten_beyond_it():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    value, label = summary.tail(values)
    assert value == 90
    assert sum(v > value for v in values) == 10
    assert label.startswith("p90.0 of 100")


def test_tail_with_exactly_eleven_jobs_is_the_smallest():
    value, label = summary.tail([5.0, 1.0, 4.0, 9.0, 2.0, 8.0, 3.0, 7.0, 6.0, 11.0, 10.0])
    assert value == 1.0
    assert label.startswith("p9.1 of 11")


@pytest.mark.parametrize("n", [1, 4, 10])
def test_tail_with_fewer_than_eleven_jobs_is_the_slowest(n):
    values = [0.5 * k for k in range(n)]
    value, label = summary.tail(values)
    assert value == max(values)
    assert label.startswith(f"max of {n}")


def test_spread_is_interquartile_range_over_median():
    assert summary.spread([10.0] * 10) == 0.0
    assert summary.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5 / 5.5)


# -- self time from nested spans ----------------------------------------------


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, instants):
        self.instants = iter(instants)

    def __call__(self):
        return next(self.instants)


def test_self_time_subtracts_nested_frames():
    # job [0, 10] holds mid [1, 7], which holds leaf [2, 3] and leaf [4, 6];
    # job also holds leaf [8, 9] directly.
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 6, 7, 8, 9, 10]))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()), span=True)
    job = tracer.wrap("job", lambda: (mid(), leaf()), span=True)
    job()
    assert tracer.stats["leaf"] == [3, 4.0, 4.0]
    assert tracer.stats["mid"] == [1, 6.0, 3.0]
    assert tracer.stats["job"] == [1, 10.0, 3.0]
    spans = {name: (span_id, parent, start, end) for span_id, parent, name, start, end in tracer.spans}
    assert spans["job"][1] == 0 and spans["job"][2:] == (0, 10)
    assert spans["mid"][1] == spans["job"][0] and spans["mid"][2:] == (1, 7)
    assert "leaf" not in spans  # leaves are aggregated, not recorded one by one
    assert sum(s[2] for s in tracer.stats.values()) == 10.0


def test_generator_frames_count_items_and_time_only_resumptions():
    # two resumptions yield items, the third ends the generator
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 5, 7, 9, 10]))
    items = []
    gen = tracer.wrap_generator("gen", lambda: iter("ab"), items.append)
    assert list(gen()) == ["a", "b"]
    assert items == ["a", "b"]
    assert tracer.stats["gen"] == [1, 4.0, 4.0]


def test_restore_puts_back_every_rebound_attribute():
    class Owner:
        def method(self):
            return "original"

    tracer = tracing.Tracer()
    original = Owner.method
    tracer.rebind(Owner, "method", tracer.wrap("m", original))
    assert Owner().method() == "original"
    assert tracer.calls("m") == 1
    tracer.restore()
    assert Owner.method is original


# -- seeded inputs ---------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_gives_identical_inputs(workload):
    generate = inputs.GENERATORS[workload]
    assert json.dumps(generate(11)) == json.dumps(generate(11))


@pytest.mark.parametrize("workload", ["census", "scan", "oracle"])
def test_seed_changes_the_sample(workload):
    generate = inputs.GENERATORS[workload]
    assert any(json.dumps(generate(0)) != json.dumps(generate(seed)) for seed in (1, 2, 3))


def test_every_seed_asks_for_the_same_amount_of_work():
    def census_shape(seed):
        shape = []
        for g in inputs.census(seed)["groups"]:
            group = reference.Group(g["family"], g["rank"])
            shape.append(sorted(
                (group.length[tuple(w)], group.reduced_word_count(tuple(w))) for w in g["elements"]
            ))
        return shape

    def oracle_shape(seed):
        return sorted(
            (w["rank"], len(w["factors"]), w["collected"]) for w in inputs.oracle(seed)["words"]
        )

    assert census_shape(1) == census_shape(2)
    assert oracle_shape(1) == oracle_shape(2)
    pool = json.loads(inputs.CLOSURE_POOL_FILE.read_text(encoding="utf-8"))
    for seed in (1, 2):
        gammas = inputs.scan(seed)["gammas"]
        assert len(set(gammas)) == inputs.CLOSURE_GAMMAS
        for gamma in gammas:
            assert abs(pool["sizes"][gamma] - pool["median_size"]) <= pool["band"] * pool["median_size"]


def test_census_always_includes_the_longest_element_of_a3():
    a3 = reference.Group("A", 3)
    for seed in (1, 2, 3):
        a_group = inputs.census(seed)["groups"][0]
        assert a_group["family"] == "A"
        assert list(a3.longest()) in a_group["elements"]


def test_reference_counts_match_the_anchors():
    for n, count in inputs.DISTINGUISHED_ANCHORS.items():
        assert len(inputs.anchored_masks(n)) == count


# -- calibration -----------------------------------------------------------------


def test_scaling_divides_out_the_probe():
    slow = {"job_s": [0.2, 0.4], "job_probe_s": [0.002, 0.002], "run_s": 0.7,
            "run_probe_s": 0.002, "setup_s": 0.1, "setup_probe_s": 0.002}
    fast = {"job_s": [0.1, 0.2], "job_probe_s": [0.001, 0.001], "run_s": 0.35,
            "run_probe_s": 0.001, "setup_s": 0.05, "setup_probe_s": 0.001}
    assert run._scaled(slow) == pytest.approx(run._scaled(fast))
    assert run._scaled(fast)["run_s"] == pytest.approx(
        (0.35 - 0.3 + 0.3) * calibration.REFERENCE_S / 0.001)
