"""Tests of the benchmark's own code: span arithmetic, reference checks,
input builders and the tracer's patching.

    python3 -m pytest perfbench/tests -q
"""

import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import builders  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from probe_chroma import generators, graphs, solver  # noqa: E402


def _nest():
    """solve_3col [0, 10] > find_k4 [1, 4] > bipartition [2, 3];
    solve_3col > propagate [5, 9]; all in op 0."""
    t = spans.Tracer()
    t.names = ["solver.solve_3col", "graphs.find_k4", "graphs.bipartition",
               "propagation.propagate"]
    t.fid = [0, 1, 2, 3]
    t.start = [0.0, 1.0, 2.0, 5.0]
    t.end = [10.0, 4.0, 3.0, 9.0]
    t.parent = [-1, 0, 1, 0]
    t.op_of = [0, 0, 0, 0]
    return t


def test_self_times_on_a_synthetic_nest():
    t = _nest()
    dur, own = spans.self_times(t.start, t.end, t.parent)
    assert dur == [10.0, 3.0, 1.0, 4.0]
    assert own == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == dur[0]
    assert spans.self_time_gaps(t) == {0: 0.0}


def test_layer_metrics_count_recursion_once_and_divide_per_op():
    t = _nest()
    # a recursive call: find_k4 inside find_k4, in a second op
    t.fid += [0, 1, 1]
    t.start += [20.0, 21.0, 22.0]
    t.end += [30.0, 29.0, 23.0]
    t.parent += [-1, 4, 5]
    t.op_of += [1, 1, 1]
    m = spans.layer_metrics(t, ops=2)
    assert m["graphs.find_k4.calls"] == (1.5, "calls/op")
    # inclusive: 3 s in op 0 plus the outer 8 s in op 1, per op, in ms
    assert m["graphs.find_k4.ms"][0] == pytest.approx((3 + 8) * 1e3 / 2)
    # self: 2 + (8 - 1) + 1
    assert m["graphs.find_k4.self_ms"][0] == pytest.approx((2 + 7 + 1) * 1e3 / 2)
    assert m["solver.solve_3col.self_ms"][0] == pytest.approx((3 + 2) * 1e3 / 2)


def test_reference_rejects_a_corrupted_colouring():
    n, edges, _ = builders.c5_blowup(3)
    good = reference.three_colouring(n, edges)
    assert reference.check_certificate(n, edges, good) is None
    u, v = edges[0]
    clash = list(good)
    clash[v] = clash[u]
    assert "monochromatic" in reference.check_certificate(n, edges, clash)
    assert reference.check_certificate(n, edges, list(good[:-1]) + [4]) is not None
    assert reference.check_certificate(n, edges, good[:-1]) is not None
    assert reference.check_certificate(n, edges, None) is not None


def test_reference_colouring_decides_small_graphs():
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    assert reference.three_colouring(4, k4) is None
    wheel5 = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
    assert reference.three_colouring(6, wheel5) is None  # odd wheel needs 4
    assert reference.three_colouring(5, [(i, (i + 1) % 5) for i in range(5)]) is not None


def test_builder_self_checks():
    assert not reference.has_induced_p5(*builders.c5_blowup(2)[:2])
    assert reference.has_induced_p5(5, [(i, i + 1) for i in range(4)])
    assert reference.probe_odd_hole(5, [(i, (i + 1) % 5) for i in range(5)],
                                    frozenset(range(5))) is None
    for length in builders.VIOLATOR_HOLES:
        n, edges, probes = builders.odd_hole_violator(length, 4, random.Random(length))
        assert reference.probe_odd_hole(n, edges, probes) == frozenset(range(length))


@pytest.mark.parametrize("workload", sorted(builders.WORKLOADS))
def test_builders_are_deterministic_per_seed(workload):
    build = builders.WORKLOADS[workload][0]

    def key(seed):
        return [(c.shape, c.n, c.edges, c.probes, c.colourable, c.violator)
                for c in build(graphs, generators, seed)]

    first = key(1)
    assert key(1) == first
    assert key(2) != first


def test_relabel_is_a_permutation():
    n, edges, probes = builders.odd_hole_violator(7, 2, random.Random(0))
    new_edges, new_probes = builders.relabel(n, edges, probes, random.Random(1))
    assert len(set(new_edges)) == len(edges)
    assert all(u < v < n for u, v in new_edges)
    assert len(new_probes) == len(probes)


def _case(colourable=True, violator=False):
    return builders.Case("t", 2, ((0, 1),), frozenset({0}), colourable, violator, None)


def test_judge_flags_wrong_and_failed_answers():
    verdict = lambda status, colouring=None: SimpleNamespace(status=status, colouring=colouring)  # noqa: E731
    assert run.judge(_case(), verdict("colourable", (1, 2)), None) == ("ok", "colourable")
    assert run.judge(_case(), verdict("colourable", (1, 1)), None)[0] == "wrong"
    assert run.judge(_case(), verdict("not_colourable"), None)[0] == "wrong"
    assert run.judge(_case(False), verdict("not_colourable"), None)[0] == "ok"
    assert run.judge(_case(), verdict("not_probe_p5_free"), None)[0] == "failed"
    assert run.judge(_case(violator=True), verdict("not_probe_p5_free"), None)[0] == "ok"
    assert run.judge(_case(), None, RuntimeError("budget"))[0] == "failed"


def test_tail_level_needs_ten_samples_beyond():
    assert run.tail([1.0] * 99)[0] == "p90"
    assert run.tail(list(range(1000)))[0] == "p99"
    level, value, beyond = run.tail(list(range(10000)))
    assert level == "p99.9" and beyond == 10


def test_quantile_is_the_harrell_davis_estimate():
    assert run.quantile([5.0] * 7, 0.9) == pytest.approx(5.0)
    # on 0..n-1 the weights are those of a Beta with mean share, read in
    # cells of 1/n, so the estimate is n * share - 1/2
    assert run.quantile(list(range(101)), 0.5) == pytest.approx(50.0)
    assert run.quantile(list(range(1000)), 0.9) == pytest.approx(899.5, abs=1e-3)
    # every sample counts: moving the top one moves the median estimate
    assert run.quantile([1.0, 2.0, 3.0, 100.0], 0.5) > run.quantile([1.0, 2.0, 3.0, 4.0], 0.5)


def test_tracer_patches_every_namespace_and_restores(monkeypatch):
    layers = dict(spans.LAYERS)
    layers["graphs"] = layers["graphs"] + ("no_such_function",)
    monkeypatch.setattr(spans, "LAYERS", layers)
    original = graphs.find_k4
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert solver.find_k4 is graphs.find_k4 is not original
        inst = builders._case(graphs, "c5", *builders.c5_blowup(1), random.Random(0),
                              colourable=True).inst
        tracer.op = 0
        verdict = solver.solve_3col(inst)
        tracer.op = None
    finally:
        tracer.uninstall()
    assert solver.find_k4 is graphs.find_k4 is original
    assert verdict.status == "colourable"
    assert tracer.absent == ["graphs.no_such_function"]
    names = {tracer.names[f] for f in tracer.fid}
    assert {"solver.solve_3col", "graphs.find_k4", "listcol.extend_by_2list"} <= names
    m = spans.layer_metrics(tracer, ops=1)
    assert m["graphs.no_such_function.calls"] == (0.0, "calls/op")
    assert m["solver.verdict.colourable"] == (1.0, "share")
    assert max(spans.self_time_gaps(tracer).values()) < 1e-9
