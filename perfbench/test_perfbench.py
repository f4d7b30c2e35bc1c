"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from implbases import FormalContext, proper_premise_base, stem_base  # noqa: E402

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- tail percentile ---------------------------------------------------------


def test_tail_needs_ten_samples_beyond_the_median():
    assert stats.tail_percentile(range(19)) is None
    assert stats.tail_percentile(range(1, 21)) == (50.0, 10)


@pytest.mark.parametrize("n, p, value", [
    (40, 75.0, 30),      # p90 would leave 4 beyond
    (100, 90.0, 90),     # exactly 10 beyond p90
    (199, 90.0, 180),    # p95 would leave 9 beyond
    (1000, 99.0, 990),
    (10000, 99.9, 9990),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, p, value):
    samples = list(range(n, 0, -1))  # order must not matter
    assert stats.tail_percentile(samples) == (p, value)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7]
    # quantiles(n=4): q1 = 9.775, q3 = 10.35, median = 10.05
    assert stats.quartile_spread(values) == pytest.approx((10.35 - 9.775) / 10.05)


def test_host_speed_scales_to_the_reference_time():
    phase = {"ref_seconds": [0.2, 0.3, 0.1]}
    assert run.host_speed(phase) == pytest.approx(run.REFERENCE_S / 0.2)
    assert run.host_speed(phase, 2) == pytest.approx(run.REFERENCE_S / 0.25)


# -- self time from nested spans -----------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        tracing.Span("root", 0.0, 10.0),
        tracing.Span("child", 1.0, 4.0, parent=0),
        tracing.Span("child", 3.0, 6.0, parent=0),    # overlaps the first
        tracing.Span("leaf", 1.5, 2.5, parent=1),
        tracing.Span("other", 12.0, 13.0),
    ]
    got = tracing.self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 5.0)       # union [1, 6]
    assert got["child"] == pytest.approx((3.0 - 1.0) + 3.0)
    assert got["leaf"] == pytest.approx(1.0)
    assert got["other"] == pytest.approx(1.0)


def test_child_outside_parent_interval_is_clipped():
    spans = [tracing.Span("p", 0.0, 2.0), tracing.Span("c", 1.0, 5.0, parent=0)]
    assert tracing.self_times(spans)["p"] == pytest.approx(1.0)


class _Module:
    __name__ = "fake"

    @staticmethod
    def work(x):
        return x * 2


def test_pool_thread_spans_nest_under_the_open_main_span():
    tracer = tracing.Tracer()
    seen = []
    module = _Module()
    tracer.wrap(module, "work", lambda index, result, args: seen.append(result))
    with tracer.span("sweep") as root:
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(module.work, range(6))) == [0, 2, 4, 6, 8, 10]
    children = [s for s in tracer.spans if s.name == "fake.work"]
    assert len(children) == 6 and all(s.parent == root for s in children)
    assert sorted(seen) == [0, 2, 4, 6, 8, 10]
    assert all(s.end >= s.start for s in tracer.spans)


# -- digest and invariant checks on a tiny grid ----------------------------------


def _tiny_sweep():
    return workloads.SweepWorkload(
        [(dict(model="single", objects=(n,), attributes=(n,), p_values=(0.5,),
               with_stem=True), 2, 0) for n in (5, 7)])


def test_sweep_pass_is_deterministic_and_checked(tmp_path):
    w = _tiny_sweep()
    results = []
    for _ in range(2):
        prep = w.prepare(7, 0, str(tmp_path))
        results.append(w.finish(prep, w.run(prep)))
    a, b = results
    assert a.failed == 0 and len(a.ops) == 4 and a.outputs > 0
    assert a.digest == b.digest
    prep = w.prepare(7, 1, str(tmp_path))
    assert w.finish(prep, w.run(prep)).digest != a.digest   # pass 1 differs


def test_tampered_record_fails_its_checks(tmp_path):
    w = _tiny_sweep()
    prep = w.prepare(7, 0, str(tmp_path))
    records, fit = w.run(prep)
    good = w.finish(prep, (records, fit))
    records[0].pp_pairs += 1
    records[1].stem_count = records[1].pp_premises + 1
    records[2].error = "boom"
    bad = w.finish(prep, (records, fit))
    assert bad.failed == 3
    assert bad.digest != good.digest


def test_composite_keeps_each_part_time(tmp_path):
    w = workloads.CompositeWorkload(a=_tiny_sweep(), b=_tiny_sweep())
    prep = w.prepare(7, 0, str(tmp_path))
    res = w.finish(prep, w.run(prep))
    assert res.failed == 0 and len(res.ops) == 8
    assert set(res.part_seconds) == {"a", "b"}
    assert all(s > 0 for s in res.part_seconds.values())


def test_compute_pass_checked_after_the_next_one_ran(tmp_path):
    w = workloads.ComputeWorkload()
    preps = [w.prepare(7, k, str(tmp_path)) for k in range(2)]
    states = [w.run(prep) for prep in preps]
    results = [w.finish(prep, state) for prep, state in zip(preps, states)]
    assert [r.failed for r in results] == [0, 0]
    assert results[0].digest != results[1].digest


def test_part_seconds_are_means_per_pass():
    assert run.part_seconds([]) == {}
    assert run.part_seconds([{}, {}]) == {}
    got = run.part_seconds([{"a": 1.0, "b": 3.0}, {"a": 2.0, "b": 5.0}])
    assert got == {"a": 1.5, "b": 4.0}


def test_digest_failures_count_ops_of_mismatched_passes():
    recorded = ["a", "b", "c"]
    assert run.digest_failures(recorded, ["a", "b", "c", "d"], [5, 5, 5, 5]) == 0
    assert run.digest_failures(recorded, ["a", "x", "c"], [5, 6, 7]) == 6
    assert run.digest_failures(recorded, ["x", "y"], [1, 2]) == 3


def test_recorded_digests_cover_every_workload():
    recorded = run.load_digests()
    assert set(recorded) == set(run.WORKLOADS) == set(workloads.WORKLOADS)
    for name, entry in recorded.items():
        assert entry["seed"] == run.DEFAULT_SEEDS[name]
        assert len(entry["passes"]) >= 16


def test_closure_checks_accept_real_bases_and_reject_a_dropped_implication():
    ctx = FormalContext([[1, 1, 0, 0, 0], [0, 1, 0, 1, 1], [0, 1, 1, 1, 0],
                         [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]])
    rows, n = ctx.row_masks, ctx.n_attributes
    proper = [(i.premise.mask, i.conclusion.mask) for i in proper_premise_base(ctx)]
    stem = [(i.premise.mask, i.conclusion.mask) for i in stem_base(ctx)]
    for seed in range(20):
        assert workloads.is_direct(rows, n, proper, seed)
        assert workloads.is_complete(rows, n, stem, seed)
    assert not all(workloads.is_direct(rows, n, proper[1:], seed)
                   for seed in range(20))


def test_parse_listing_reads_both_sections():
    text = ("# base=proper\n-> a2\na1 -> a3 a4\n"
            "# proper: implications=2 premises=2 pairs=3 attributes=4 objects=2\n"
            "# base=stem\na1 -> a3\n"
            "# stem: implications=1 premises=1 pairs=1 attributes=4 objects=2\n")
    got = workloads.parse_listing(text, ["a1", "a2", "a3", "a4"])
    assert got["proper"] == ([(0, 0b10), (0b1, 0b1100)],
                             {"implications": 2, "premises": 2, "pairs": 3,
                              "attributes": 4, "objects": 2})
    assert got["stem"][0] == [(0b1, 0b100)]


# -- the metric list matches BENCHMARK.json --------------------------------------


def test_traced_metrics_are_exactly_the_per_layer_list():
    from worker import LayerProbe

    spec = run.load_spec()
    declared = {m["name"] for m in spec["per_layer"]}
    emitted = (set(LayerProbe().metrics(1))
               | {"sweep.cpu_per_wall", "trace_overhead_ratio"}
               | {f"part.{name}_s" for name in run.PARTS})
    assert emitted == declared
    assert run.PARTS == workloads.PARTS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "us_per_output", "peak_rss_mb"}
