"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 -m pytest bench -q
"""

import json
import random
import sys
import types
from itertools import islice

import pytest

import reference
import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(run.ROOT / "src"))


def test_p90_refuses_fewer_than_100_samples():
    with pytest.raises(ValueError):
        run.percentile(range(99), 90)
    assert run.percentile(range(1, 101), 90) == 90
    assert run.percentile(range(1, 201), 90) == 180


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def fake_package(clock):
    """A package `fakepkg` whose module `m` has leaf, mid and top, where
    top calls mid twice back to back and mid calls leaf once."""
    pkg = types.ModuleType("fakepkg")
    m = types.ModuleType("fakepkg.m")

    def leaf():
        clock.spend(5)
        return True

    def mid():
        clock.spend(1)
        m.leaf()
        clock.spend(2)
        return [1, 2, 3]

    def top():
        clock.spend(10)
        m.mid()
        m.mid()
        return False

    m.leaf, m.mid, m.top = leaf, mid, top
    pkg.top = top  # a re-export, like grassmult.multiplicity
    return {"fakepkg": pkg, "fakepkg.m": m}


def test_self_time_nested_and_back_to_back(monkeypatch):
    clock = FakeClock()
    for name, module in fake_package(clock).items():
        monkeypatch.setitem(sys.modules, name, module)
    targets = {"m.leaf": False, "m.mid": True, "m.top": False}
    with Tracer(targets, package="fakepkg", clock=clock) as tracer:
        sys.modules["fakepkg"].top()
        sys.modules["fakepkg.m"].leaf()
    st = tracer.stats
    assert (st["m.top"].calls, st["m.top"].self_s) == (1, 10)
    assert (st["m.mid"].calls, st["m.mid"].self_s, st["m.mid"].out) == (2, 6, 6)
    assert (st["m.leaf"].calls, st["m.leaf"].self_s, st["m.leaf"].hits) == (3, 15, 3)
    assert st["m.top"].hits == 0
    spans = {span[0]: span for span in tracer.spans}
    top_id = next(i for i, span in spans.items() if span[1] == "m.top")
    assert spans[top_id][2:4] == (0, 26) and spans[top_id][4] is None
    mids = [span for span in spans.values() if span[1] == "m.mid"]
    assert [span[4] for span in mids] == [top_id, top_id]
    assert mids[0][3] == mids[1][2]  # back to back
    assert sum(s.self_s for s in st.values()) == clock.now


def grassmult_functions():
    import grassmult  # noqa: F401

    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "grassmult" or name.startswith("grassmult.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_tracer_reaches_cross_module_bindings_and_restores():
    import grassmult

    groebner = sys.modules["grassmult.groebner"]
    before = grassmult_functions()
    targets = {"brsk.multiset_bounded_by": False, "multiplicity.multiplicity": False}
    with Tracer(targets) as tracer:
        assert groebner.multiset_bounded_by is not before[("grassmult.groebner", "multiset_bounded_by")]
        assert grassmult.multiplicity is not before[("grassmult", "multiplicity")]
        grid = grassmult.beta_grid((2, 4), 5)
        Ttil, Wtil = grassmult.build_bound_multisets((1, 2), (4, 5), grid)
        groebner.bounded_multisets_of_degree(Ttil, Wtil, grid, 2)
        assert grassmult.multiplicity((1, 2), (2, 4), (4, 5), 5, 2) == 1
    assert tracer.stats["brsk.multiset_bounded_by"].calls > 0
    assert tracer.stats["multiplicity.multiplicity"].calls == 1
    after = grassmult_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    calls = tracer.stats["multiplicity.multiplicity"].calls
    grassmult.multiplicity((1, 2), (2, 4), (4, 5), 5, 2)
    assert tracer.stats["multiplicity.multiplicity"].calls == calls


def test_untraced_run_after_traced_run_is_clean(capsys):
    name = "mult_paths"
    run.run_workload(name, 3, 0.2, trace=1)
    traced = grassmult_functions()
    assert not any(hasattr(fn, "__wrapped__") for fn in traced.values())
    assert run.run_workload(name, 3, 0.2, trace=0) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= run.MIN_QUERIES
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_streams_depend_only_on_the_seed(name):
    w = workloads.WORKLOADS[name](0)
    assert list(islice(w.queries(5), 300)) == list(islice(w.queries(5), 300))
    assert list(islice(w.queries(5), 300)) != list(islice(w.queries(6), 300))


def test_stratified_epochs_are_permutations():
    domain = workloads.triples(6, 2)
    stream = workloads.stratified_epochs(domain, workloads.dimension, random.Random(1))
    assert sorted(islice(stream, len(domain))) == sorted(domain)
    assert sorted(islice(stream, len(domain))) == sorted(domain)


def test_reference_multiplicity_matches_library():
    import grassmult

    for n in range(2, 7):
        for d in range(1, n):
            for alpha, beta, gamma in workloads.triples(n, d):
                expected = grassmult.multiplicity(alpha, beta, gamma, n, d)
                assert reference.multiplicity(alpha, beta, gamma, n) == expected


def test_frozen_digest_mismatch_fails_the_block():
    w = workloads.WORKLOADS["mult_paths"](0)
    queries = list(islice(w.queries(0), 2 * workloads.BLOCK))
    block = [(q, reference.multiplicity(q[2], q[3], q[4], q[0])) for q in queries]
    first, second = block[: workloads.BLOCK], block[workloads.BLOCK :]
    w.frozen = {"seeds": {"0": [workloads.digest(first), "0" * 16]}}
    assert w.verify(0, first) == ([True] * workloads.BLOCK, workloads.BLOCK)
    assert w.verify(workloads.BLOCK, second) == ([False] * workloads.BLOCK, workloads.BLOCK)
    assert w.verify(workloads.BLOCK, second[:-1]) == ([True] * (workloads.BLOCK - 1), 0)
