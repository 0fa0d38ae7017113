"""Span arithmetic, percentiles, and that tracing leaves the program as
it found it."""
import itertools

import pytest

from perfbench import run, workloads
from perfbench.spans import Span, Tracer, percentile, self_time


def test_percentile_is_nearest_rank():
    xs = list(range(100, 0, -1))  # unsorted on purpose
    assert percentile(xs, 50) == 50
    assert percentile(xs, 99) == 99
    assert percentile(xs, 100) == 100
    assert percentile(xs, 0.5) == 1
    assert percentile([7.0], 99) == 7.0
    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile([1, 2, 3, 4], 51) == 3


@pytest.mark.parametrize("bad", [0, -1, 101])
def test_percentile_rejects_bad_rank(bad):
    with pytest.raises(ValueError):
        percentile([1, 2], bad)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_the_union_of_children():
    parent = Span(0, "p", 0.0, 10.0, None, None)
    kids = [
        Span(1, "a", 1.0, 3.0, 0, None),
        Span(2, "b", 2.0, 4.0, 0, None),  # overlaps a: [1, 4] counted once
        Span(3, "c", 8.0, 12.0, 0, None),  # clipped to the parent: [8, 10]
        Span(4, "d", 11.0, 13.0, 0, None),  # wholly outside
    ]
    assert self_time(parent, kids) == pytest.approx(10.0 - 3.0 - 2.0)
    assert self_time(parent, []) == 10.0


def test_tracer_records_parents_ops_busy_and_self_time():
    ticks = itertools.count()
    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.op = 7
    with tr.span("outer"):  # starts at 0
        with tr.span("inner"):  # 1 .. 2
            pass
        with tr.span("inner"):  # 3 .. 4
            pass
    # outer ends at 5
    outer, first, second = tr.spans
    assert (first.parent, second.parent, outer.parent) == (0, 0, None)
    assert {s.op for s in tr.spans} == {7}
    assert tr.busy("outer") == 5.0
    assert tr.busy("inner") == 2.0
    assert tr.self_time("outer") == 3.0
    assert tr.n_spans("inner") == 2


class _Base:
    def f(self, x):
        return x + 1


class _Child(_Base):
    pass


def test_wrap_counts_calls_and_restore_puts_originals_back():
    import math

    sqrt, own = math.sqrt, vars(_Base)["f"]
    with Tracer() as tr:
        tr.wrap(math, "sqrt", "sqrt")
        tr.wrap(_Child, "f", "child.f",
                lambda c, a, kw, r: c.update({"child.f.sum": r}))
        assert math.sqrt(4.0) == 2.0
        assert _Child().f(1) == 2 and _Child().f(2) == 3
        assert "f" in vars(_Child)
    assert math.sqrt is sqrt
    assert "f" not in vars(_Child)  # inherited before, inherited again
    assert vars(_Base)["f"] is own
    assert tr.counts["sqrt.calls"] == 1
    assert tr.counts["child.f.calls"] == 2 and tr.counts["child.f.sum"] == 5


def _layer_attrs():
    from repro.core import l2p, ptr
    from repro.core.packed import PackedSets
    from repro.core.search import LocalLES3
    from repro.core.siamese import SiameseMLP
    from repro.core.tgm import TGM

    owners = [l2p, ptr, PackedSets, LocalLES3, SiameseMLP, TGM]
    return {(o, k): v for o in owners for k, v in vars(o).items()}


@pytest.fixture
def tiny(monkeypatch):
    """The local workload shrunk to a few seconds."""
    monkeypatch.setattr(workloads, "N_QUERIES", 12)
    monkeypatch.setattr(workloads, "N_ROUNDS", 6)
    monkeypatch.setattr(workloads, "SETUP_REPS", 1)


def test_traced_run_restores_every_wrapped_function_and_counts_repeat(tiny, capsys):
    before = _layer_attrs()
    first = run.run("local-mixed", seed=3, seconds=0, trace=True)
    after = _layer_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == set(run.PER_LAYER)
    second = run.run("local-mixed", seed=3, seconds=0, trace=True)
    for name, unit in run.PER_LAYER.items():
        if unit in ("count", "ratio"):
            assert first["metrics"][name] == second["metrics"][name], name
    m = first["metrics"]
    assert m["tgm.insert_calls"]["value"] == 6
    assert m["siamese.models"]["value"] > 0
    assert m["search.results_per_query.knn"]["value"] == workloads.K


def test_untraced_run_reports_every_end_to_end_metric(tiny, capsys):
    out = run.run("local-mixed", seed=4, seconds=0, trace=False)
    assert out["correct"] and out["attempted"] > 0
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in out["metrics"].values())
