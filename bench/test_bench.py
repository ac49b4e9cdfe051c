"""Tests of the benchmark itself: seeded inputs, span reduction, oracles."""

import json
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402

from siegelz import cli, cmform, pointcount  # noqa: E402
from siegelz.theta import check_siegel_point, fz_orbit, in_gamma2, in_gamma48  # noqa: E402


def _bytes(workload, seed):
    return json.dumps(inputs.generate(workload, seed), sort_keys=True).encode()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _bytes(workload, 11) == _bytes(workload, 11)
    if workload == "verify-all":  # fixed by the claim set
        assert _bytes(workload, 11) == _bytes(workload, 12)
    else:
        assert _bytes(workload, 11) != _bytes(workload, 12)


def test_generated_points_and_group_elements_are_valid():
    for seed in range(25):
        data = inputs.generate("lattice-numeric", seed)
        for point in data["points"]:
            check_siegel_point(oracles.period_matrix(point))
        assert all(in_gamma48(oracles.word_matrix(w)) for w in data["gamma48_words"])
        assert all(in_gamma2(oracles.gamma2_matrix(w)) for w in data["gamma2_words"])


def test_hecke_checks_build_distinct_orders():
    levels = [p * order for p, order in inputs.hecke_orders().items()]
    assert len(set(levels)) == len(levels)
    assert max(levels) <= inputs.HECKE_LEVEL and min(levels) >= 0.95 * inputs.HECKE_LEVEL


def test_orbit_table_matches_the_package():
    table = {frozenset(tuple(int(c) for c in m) for m in member) for member in inputs.FZ_ORBIT}
    assert table == set(fz_orbit())


def test_self_time_on_a_synthetic_tree():
    # root [0, 100] with children a [10, 40] and b [50, 90]; a has child
    # c [20, 30]; d [80, 95] overlaps b and sticks out of the root's child
    # cover, so the root's covered part is [10, 40] + [50, 95]
    tree = [
        ["root", -1, 0, 100],
        ["a", 0, 10, 40],
        ["c", 1, 20, 30],
        ["b", 0, 50, 90],
        ["d", 0, 80, 95],
    ]
    assert spans.self_times(tree) == {"root": 25, "a": 20, "c": 10, "b": 40, "d": 15}


def test_tracer_self_times_sum_to_the_job():
    ticks = iter(range(0, 10_000, 7))
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def leaf(x):
        return x + 1

    def inner(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_leaf = tracer.wrap(leaf, "m.leaf")
    traced_inner = tracer.wrap(inner, "m.inner")
    root = tracer.open(spans.ROOT)
    assert traced_inner(1) + traced_leaf(2) == 7
    tracer.close(root)
    metrics = spans.layer_metrics(tracer)
    assert metrics["m.leaf.calls"] == 3 and metrics["m.inner.calls"] == 1
    selfs = metrics["m.leaf.self_s"] + metrics["m.inner.self_s"] + metrics["trace.unattributed_s"]
    assert selfs == pytest.approx(metrics["trace.job_s"])


def test_rebind_reaches_every_namespace():
    def f():
        return 1

    mods = [types.ModuleType("a"), types.ModuleType("b")]
    mods[0].f = f
    mods[1].alias = f
    wrapped = lambda: 2  # noqa: E731
    assert spans._rebind(f, wrapped, mods) == 2
    assert mods[0].f is wrapped and mods[1].alias is wrapped


def _per_layer_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def test_every_span_has_a_self_time_metric():
    names = set(_per_layer_names())
    variants = {
        "arith.series_mul": ["g1", "g2"],
        "cmform.g_expansion": ["theta_product", "gauss_sum", "hecke_character"],
        "pointcount.count_variety": ["naive", "charsum"],
    }
    for module, fn in spans.LAYERS:
        layer = f"{module}.{fn}"
        for span in [f"{layer}.{v}" for v in variants.get(layer, [])] or [layer]:
            assert f"{span}.self_s" in names, span
    assert {f"cli.suite.{s}.s" for s in cli.SUITES} <= names
    assert {"cli.suite.self_s", "trace.unattributed_s", "trace.job_s"} <= names


def test_traced_child_charges_each_binding(tmp_path):
    request = {
        "workload": "series-deep",
        "inputs": {"newform_order": 10, "member_order": 20, "fz_order": 20,
                   "newform_sources": ["hecke_character", "gauss_sum", "theta_product"],
                   "ops": [["fz_phi"], ["member", list(inputs.FZ_ORBIT[1])], ["fz_phi"],
                           ["newform"], ["hecke", 5, 6]]},
        "trace": True,
        "previous_s": 0.0,
        "scratch_dir": str(tmp_path),
    }
    _, _, result, err = run.run_child(request, run.child_env(), 120)
    assert result is not None, err
    assert sum(op[3] for op in result["ops"]) == 0, result["errors"]
    layers = result["layers"]
    assert layers["theta.fz_expansion.cache_misses"] == 1
    assert layers["theta.fz_expansion.cache_hits"] == 1
    assert layers["theta.six_tuple_expansion.calls"] == 2
    assert layers["arith.series_mul.g2.calls"] == 12
    assert layers["cmform.hecke_Tp_check.calls"] == 1
    assert run.accounted_share(_per_layer_names(), result) == pytest.approx(1.0)


def test_verdict_oracle_catches_a_flipped_or_missing_claim():
    expected = oracles.load_expected()["verify_all"]
    assert len(expected) == 60
    assert sum(1 for e in expected if e[2] == "fail") == 2
    reports = [{"suite": s, "claim": c, "status": st} for s, c, st in expected]
    assert oracles.verdict_failures(reports, expected) == 0
    flipped = [dict(r) for r in reports]
    k = next(i for i, e in enumerate(expected) if e[2] == "fail")
    flipped[k]["status"] = "pass"  # a by-design failure that passes is a failure
    assert oracles.verdict_failures(flipped, expected) == 1
    assert oracles.verdict_failures(reports[:-1], expected) == 1


def test_an_exception_fails_every_check_of_its_operation():
    def boom():
        raise RuntimeError("injected")

    errors = []
    records = oracles.run_ops([oracles.Op("boom", boom, 3), oracles.Op("fine", lambda: 0, 2)],
                              errors)
    assert [(r.checks, r.failed) for r in records] == [(3, 3), (2, 0)]
    assert errors == ["boom: RuntimeError: injected"]


def _sweep_subset(seed):
    # the cheap operations of one exact-sweep job
    ops = inputs.generate("exact-sweep", seed)["ops"]
    return {"ops": [op for op in ops if op[0] != "zsatake_naive" and op[0] != "pair"][:80]}


def test_exact_sweep_oracles_pass_and_bite(monkeypatch):
    errors = []
    records = oracles.run_ops(oracles.build_ops("exact-sweep", _sweep_subset(3), ""), errors)
    assert sum(r.failed for r in records) == 0, errors

    real = pointcount.count_variety

    def off_by_one(variety, p, method="naive"):
        return real(variety, p, method) + (variety == "FermatSurface")

    monkeypatch.setattr(pointcount, "count_variety", off_by_one)
    records = oracles.run_ops(oracles.build_ops("exact-sweep", _sweep_subset(3), ""), [])
    assert sum(r.failed for r in records) > 0


def test_independent_oracles_agree_with_the_package():
    for p in inputs._odd_primes(41):
        assert oracles.newform_ap(p) == cmform.a_p(p)
        assert oracles.fermat_surface(p) == pointcount.count_variety("FermatSurface", p)
        assert oracles.fermat_trace(p) == oracles.fermat_surface(p)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert summary.tail(range(1, 1001)) == (990, "p99")
    assert summary.tail(range(1, 101)) == (90, "p90")
    assert summary.tail(range(1, 100)) == (99, "max")
    assert summary.tail([3.0, 1.0]) == (3.0, "max")


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0]
    faster = [8.0, 8.1, 7.9, 8.2, 8.0]
    pairs = list(zip(parent, faster))
    assert compare.verdict(parent, faster, pairs, True, 0.1) == ("improved", 5)
    slower = [12.0, 12.1, 11.9, 12.2, 12.0]
    assert compare.verdict(parent, slower, list(zip(parent, slower)), True, 0.1)[0] == "worse"
    noisy = [8.0, 12.0, 9.0, 11.5, 10.0]
    assert compare.verdict(parent, noisy, list(zip(parent, noisy)), True, 0.1)[0] == "unresolved"
    same = [10.05, 10.0, 10.1, 9.95, 10.0]
    assert compare.verdict(parent, same, list(zip(parent, same)), True, 0.1)[0] == "same"
