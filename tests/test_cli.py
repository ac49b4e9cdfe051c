import copy
import json

import pytest

from siegelz.cli import RunConfig, build_parser, main, run


def test_run_config_validation():
    RunConfig().validate()
    with pytest.raises(ValueError):
        RunConfig(prime_list=[4]).validate()
    with pytest.raises(ValueError):
        RunConfig(prime_list=[17]).validate()
    with pytest.raises(ValueError):
        RunConfig(series_order=0).validate()
    with pytest.raises(ValueError):
        RunConfig(numeric_tol=-1).validate()
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(numeric_tol=tol).validate()
    with pytest.raises(ValueError, match="empty"):
        RunConfig(prime_list=[]).validate()
    with pytest.raises(ValueError):
        RunConfig(selected_suites=["nope"]).validate()


def test_prime_caps_follow_the_counts_of_the_selected_suites(capsys):
    """A prime is capped by the counts the selected suites read: counts and
    fermat the cone and U1c counts, to 13; lefschetz Ztilde's character
    sums, to 41; suites that count nothing add no cap."""
    assert main(["lefschetz", "--primes", "17,41"]) == 0
    assert main(["lfactors", "--primes", "17,41,43"]) == 0
    RunConfig(prime_list=[43], selected_suites=["lfactors", "ez"]).validate()
    capsys.readouterr()
    cone, charsum = "the cone and U1c counting cap (13)", "the character-sum counting cap (41)"
    for argv, cap in ((["lefschetz", "--primes", "43"], charsum),
                      (["lfactors", "lefschetz", "--primes", "3,43"], charsum),
                      (["all", "--primes", "17"], cone),
                      (["counts", "--primes", "17"], cone),
                      (["lefschetz", "fermat", "--primes", "17"], cone)):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"exceeds {cap}" in captured.err and "checks" not in captured.out


def test_usage_error_exit_code():
    assert main(["counts", "--primes", "4,6"]) == 2
    assert main(["bogus-suite"]) == 2


@pytest.mark.parametrize("argv", [["all", "--primes", ","],
                                  ["theta-table", "ez", "--tol", "inf"],
                                  ["theta-table", "ez", "--tol", "nan"],
                                  ["counts", "--primes", "3,3"]],
                         ids=["empty primes", "tol inf", "tol nan", "repeated prime"])
def test_configs_that_change_what_a_run_checks_are_rejected(argv, capsys):
    # an empty prime list drops the per-prime claims; an infinite tol passes
    # every numeric claim and a nan one fails them all; a repeated prime
    # counts its per-prime claims twice
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "invalid configuration" in captured.err
    assert "checks" not in captured.out


@pytest.mark.parametrize("where", ["missing/report.json", "."], ids=["missing directory", "directory"])
def test_a_report_path_that_cannot_be_written_is_rejected_before_any_suite(
        where, tmp_path, monkeypatch, capsys):
    # the run would end in a crash in open, with the exit code of a failed
    # claim, after every suite had run
    monkeypatch.setattr("siegelz.cli.SUITE_RUNNERS", {})  # any suite run raises KeyError
    assert main(["counts", "--out", str(tmp_path / where)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid configuration: ") and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_counts_suite_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["counts", "--primes", "3,5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "siegelz-report/1"
    assert payload["config"]["primes"] == [3, 5]
    statuses = {r["status"] for r in payload["reports"]}
    assert statuses == {"pass"}
    echoed = [r for r in payload["reports"] if r["claim"] == "|F(F_3)| = 16"]
    assert echoed and echoed[0]["details"]["count"] == 16
    text = capsys.readouterr().out
    assert "0 failed" in text


def test_orbits_suite_exit_one():
    # the orbit-membership overclaim is reported as an honest failure
    assert main(["orbits"]) == 1


def test_reports_deterministic():
    cfg = RunConfig(prime_list=[3, 5], selected_suites=["counts", "lefschetz"])
    reports1, code1 = run(copy.deepcopy(cfg))
    reports2, code2 = run(copy.deepcopy(cfg))
    assert code1 == code2 == 0

    def strip(rs):
        return [(r.suite, r.claim, r.status, r.residual, r.details) for r in rs]

    assert strip(reports1) == strip(reports2)


def _all_lru_caches():
    """Every lru_cache of the package's modules."""
    import sys

    return [fn for name, mod in list(sys.modules.items())
            if name == "siegelz" or name.startswith("siegelz.")
            for fn in vars(mod).values() if hasattr(fn, "cache_clear")]


def test_report_json_equals_an_asdict_dump(monkeypatch, tmp_path, capsys):
    """--out writes each report through a shallow field dict: the file is
    byte for byte the dump of the same reports through dataclasses.asdict."""
    from dataclasses import asdict

    from siegelz import cli

    real, seen = cli.run, []
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(real(cfg)) or seen[-1])
    out = tmp_path / "all.json"
    assert main(["all", "--out", str(out)]) == 1
    ((reports, _),) = seen
    payload = {"schema": cli.SCHEMA,
               "config": {"primes": [3, 5, 7, 11, 13], "order": 200, "tol": 1e-8,
                          "suites": ["all"]},
               "reports": [asdict(r) for r in reports]}
    assert out.read_text() == json.dumps(payload, indent=2) + "\n"


def test_verify_all_reports_do_not_depend_on_warm_caches(tmp_path, capsys):
    """Two `verify all --out` runs in one process, the first with every
    cache of the package cleared and the second on the caches it left,
    give the same reports apart from their runtimes: no cached stack, pass
    or series depends on the order it was asked for in."""
    for fn in _all_lru_caches():
        fn.cache_clear()
    texts = []
    for name in ("cold.json", "warm.json"):
        assert main(["all", "--out", str(tmp_path / name)]) == 1
        texts.append(json.loads((tmp_path / name).read_text()))
    for payload in texts:
        for r in payload["reports"]:
            assert r.pop("runtime") >= 0
    assert len(texts[0]["reports"]) == 60 and texts[0] == texts[1]
    assert sum(fn.cache_info().hits for fn in _all_lru_caches()) > 0


def test_ez_suite_passes_at_the_given_tolerance():
    def level48_status(tol):
        reports, _ = run(RunConfig(selected_suites=["ez"], numeric_tol=tol))
        (r,) = [r for r in reports if "level-(4,8)" in r.claim]
        return r.status

    assert level48_status(1e-15) == "fail"
    assert level48_status(1e-8) == "pass"


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.order == 200
    assert args.tol == 1e-8


def test_bad_flag_values_are_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["fermat", "--order", "abc"])
    assert exc.value.code == 2


def test_count_formulas_run_once_per_prime_per_run(monkeypatch):
    from siegelz import pointcount

    calls = []
    real = pointcount.verify_count_formulas

    def spy(p, a_p):
        calls.append(p)
        return real(p, a_p)

    monkeypatch.setattr(pointcount, "verify_count_formulas", spy)
    for primes in ([3, 5], [5]):
        calls.clear()
        reports, code = run(RunConfig(prime_list=primes, selected_suites=["counts", "fermat"]))
        assert code == 0 and len(reports) == 2 * len(primes) + 6
        assert sorted(calls) == sorted({3, *primes})


def test_z_fibers_built_once_per_prime_per_run(monkeypatch):
    from siegelz import pointcount

    builds = []
    real = pointcount._chi_table

    def spy(p):  # called once by each build of Z's strata sums
        builds.append(p)
        return real(p)

    monkeypatch.setattr(pointcount, "_chi_table", spy)
    pointcount._z_strata.cache_clear()
    reports, code = run(RunConfig(selected_suites=["counts", "lefschetz"]))
    assert code == 0 and reports
    assert sorted(builds) == [3, 5, 7, 11, 13]


def _spy_fz_builds(monkeypatch):
    """The orders at which each six_tuple_expansion(FZ_TUPLE, .) call builds
    F_Z, with the fz_expansion cache emptied first."""
    from siegelz import theta

    builds = []
    real = theta.six_tuple_expansion

    def spy(ms, order):
        if tuple(ms) == theta.FZ_TUPLE:
            builds.append(order)
        return real(ms, order)

    monkeypatch.setattr(theta, "six_tuple_expansion", spy)
    theta.fz_expansion.cache_clear()
    return builds


def _spy_genus2_products(monkeypatch):
    """The genus-2 series_mul calls, in every package module that binds it."""
    from siegelz import arith, cli, cmform, pointcount, soudry, theta

    calls = []
    real = arith.series_mul

    def spy(a, b, *args, **kwargs):
        if a.genus == 2:
            calls.append(a.order)
        return real(a, b, *args, **kwargs)

    for mod in (arith, cli, cmform, pointcount, soudry, theta):
        if getattr(mod, "series_mul", None) is real:
            monkeypatch.setattr(mod, "series_mul", spy)
    return calls


def test_verify_all_builds_each_exact_object_once(monkeypatch):
    """One run of every suite never builds F_Z and makes no genus-2 product
    (both degeneration claims multiply the factors' degenerations in genus
    1), asks for each theta-constant lattice pass once, one per claim's
    stack of points, and runs the shared lattice pass once per distinct
    (degree, characteristics, tau, tol), theta constants in degree 0 and
    gradients in degree 1, so a second run in the process runs none, and
    splits the six-tuples into orbits once."""
    import numpy as np

    from siegelz import soudry, theta

    builds = _spy_fz_builds(monkeypatch)
    products = _spy_genus2_products(monkeypatch)
    keys = []  # (degree, characteristics, tau, tol) of each call
    real_values, real_gradient = theta.theta_values, soudry.theta_gradient

    def values_spy(ms, tau, tol=1e-12):
        keys.append((0, np.asarray(ms, dtype=np.int64).tobytes(),
                     np.asarray(tau, dtype=complex).tobytes(), tol))
        return real_values(ms, tau, tol)

    def gradient_spy(m, tau, tol=1e-12):
        keys.append((1, np.asarray(m, dtype=np.int64).tobytes(),
                     np.asarray(tau, dtype=complex).tobytes(),
                     np.asarray(tol, dtype=float).tobytes()))
        return real_gradient(m, tau, tol)

    def values_keys():
        return [k for k in keys if k[0] == 0]

    monkeypatch.setattr(theta, "theta_values", values_spy)
    monkeypatch.setattr(soudry, "theta_gradient", gradient_spy)
    theta._lattice_sums.cache_clear()
    theta.orbit_decomposition.cache_clear()
    reports, code = run(RunConfig())
    assert code == 1 and len(reports) == 60
    assert builds == []
    assert products == []
    # each miss of the pass's cache is one lattice pass, in either degree
    passes = theta._lattice_sums.cache_info().misses
    values = values_keys()
    assert passes == len(set(keys)) and len(set(values)) == len(values)
    info = theta.orbit_decomposition.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert run(RunConfig())[1] == 1
    assert len(values_keys()) == 2 * len(values)
    assert theta._lattice_sums.cache_info().misses == passes


def test_fz_phi_ratio_is_one_pass_with_the_bits_of_two_single_points(monkeypatch):
    """Claim 3 evaluates F_Z at G0 tau and G2 tau as one stack of two, in
    one theta pass, and records the ratio that two single-point evaluations
    give, bit for bit."""
    import numpy as np

    from siegelz import theta

    shapes = []
    real_values = theta.theta_values

    def values_spy(ms, tau, tol=1e-12):
        shapes.append(np.shape(tau))
        return real_values(ms, tau, tol)

    monkeypatch.setattr(theta, "theta_values", values_spy)
    reports, code = run(RunConfig(selected_suites=["fz-phi"]))
    assert code == 0 and shapes == [(2, 2, 2)]
    monkeypatch.undo()
    tau = np.array([[0.3 + 0.9j, 0], [0, 8j]])
    vals = []
    for g in (theta.G0, theta.G2):
        detj = complex(np.linalg.det(theta.cocycle(g, tau)))
        vals.append(detj ** -3 * theta.fz_eval(theta.apply_moebius(g, tau), 1e-13))
    ratio = vals[1] / vals[0]
    assert reports[2].details["ratio"] == [ratio.real, ratio.imag]


def test_no_fz_build_above_the_phi_match_order(monkeypatch):
    """At --order 300 both degeneration claims report what builds of F_Z at
    300 gave, with no F_Z build and no genus-2 product."""
    builds = _spy_fz_builds(monkeypatch)
    products = _spy_genus2_products(monkeypatch)
    reports, code = run(RunConfig(series_order=300, selected_suites=["fz-phi", "ez"]))
    assert builds == [] and products == []
    got = {r.suite: (r.status, r.residual, r.details) for r in reports
           if "degeneration" in r.claim and r.residual is not None}
    assert got == {"fz-phi": ("pass", 0.0, {"order": 300}),
                   "ez": ("pass", 0.0, {"scalar": "1/4", "terms": 28})}


def test_fz_phi_claim_2_fails_if_f_z_is_not_skipped(monkeypatch):
    """Claim 2 reads the characteristics of each orbit member but F_Z: it
    passes as is, and fails once another member stands in for F_Z, so the
    real F_Z, whose degeneration is g, is among the members it checks."""
    from siegelz import cli, theta

    def claim_2():
        reports = cli.suite_fz_phi(RunConfig(), {})
        assert reports[1].claim == "the degeneration kills every other orbit member"
        return reports[1].status, reports[1].details

    products = _spy_genus2_products(monkeypatch)
    assert claim_2() == ("pass", {"members": 14})
    assert products == []  # claim 1 multiplies in genus 1, claim 2 no series
    other = min(tuple(sorted(t)) for t in theta.fz_orbit() if t != frozenset(theta.FZ_TUPLE))
    monkeypatch.setattr(theta, "FZ_TUPLE", other)
    assert claim_2() == ("fail", {"members": 14})


def test_orbit_claims_fail_when_f_z_is_in_no_orbit(monkeypatch):
    """With the factor 0110 of F_Z swapped for the odd 1010, the tuple lies in
    none of the 210 orbits of even six-subsets: orbits and fz-phi report
    instead of raising, and the claims over the other orbit members fail
    rather than pass over no members."""
    from dataclasses import asdict

    from siegelz import theta

    monkeypatch.setattr(theta, "FZ_TUPLE", tuple((1, 0, 1, 0) if m == (0, 1, 1, 0) else m
                                                 for m in theta.FZ_TUPLE))
    assert theta.fz_orbit() == frozenset()
    reports, code = run(RunConfig(selected_suites=["orbits", "fz-phi"]))
    assert code == 1
    assert [(r.suite, r.status, r.details.get("orbit_found")) for r in reports] == [
        ("orbits", "fail", None), ("orbits", "fail", False),
        ("fz-phi", "fail", None), ("fz-phi", "fail", False), ("fz-phi", "measured", None)]
    assert reports[0].details["fz_orbit_size"] == 0 and reports[3].details["members"] == 0
    assert reports[4].details["ratio"] is None  # F_Z vanishes at the probe
    json.dumps([asdict(r) for r in reports], allow_nan=False)


def test_orbit_claim_fails_without_the_inversion(monkeypatch):
    """Without J4 the other five generators split the 210 six-tuples into 12
    orbits, F_Z's of 3 members, so the orbit-count claim fails."""
    from siegelz import theta

    real = theta.sp2z_generators
    monkeypatch.setattr(theta, "sp2z_generators",
                        lambda: [g for g in real() if not (g == theta.J4).all()])
    theta.orbit_decomposition.cache_clear()
    try:
        reports, code = run(RunConfig(selected_suites=["orbits"]))
    finally:
        theta.orbit_decomposition.cache_clear()
    assert code == 1 and reports[0].status == "fail"
    assert (reports[0].details["orbits"], reports[0].details["fz_orbit_size"]) == (12, 3)


@pytest.mark.parametrize("new, status", [((0, 0, 0, 0), "fail"), ((0, 0, 1, 1), "pass"),
                                         ((1, 0, 0, 1), "fail")],
                         ids=["image 00", "same image 01", "m1' odd"])
def test_degeneration_claims_fail_if_a_factor_changes_its_image(monkeypatch, new, status):
    """fz-phi claim 1 and ez's first-component degeneration both fail once
    the factor 0001 of F_Z, whose image (m2', m2'') is 01, is swapped for
    0000, image 00, or for 1001, whose m1' = 1 makes the image zero, so
    that ez's match has no scalar to solve.  Swapped for 0011 it keeps its
    image, and both still pass: the degeneration keeps the b1 = 0 terms,
    whose phase i^(b.m'') cannot see m1''.  Claim 2 looks F_Z's orbit up by
    its tuple, so it is handed the real orbit."""
    from siegelz import theta

    orbit = theta.fz_orbit()
    monkeypatch.setattr(theta, "fz_orbit", lambda: orbit)
    monkeypatch.setattr(theta, "FZ_TUPLE",
                        tuple(new if m == (0, 0, 0, 1) else m for m in theta.FZ_TUPLE))
    reports, _ = run(RunConfig(selected_suites=["fz-phi", "ez"]))
    got = {r.suite: r.status for r in reports
           if "degeneration" in r.claim and r.residual is not None}
    assert got == {"fz-phi": status, "ez": status}


@pytest.mark.parametrize("slowed, p, claim", [
    ("verify_birational_map", 3, "coordinate map is a bijection U1 -> U2"),
    ("verify_count_formulas", 5,
     "|Cone| = p|F|+1, |Z| = (p-1)|F|+2p+2, |Ztilde| = (p+1)|F|, complements"),
], ids=["last claim", "middle claim"])
def test_each_claim_is_charged_for_its_own_work(monkeypatch, slowed, p, claim):
    """A report's runtime is the time since the previous report of its
    suite: 0.2 s spent in one check at p reaches the claim it leads to
    alone, whether that claim ends the suite or others follow it."""
    import time

    from siegelz import pointcount

    real = getattr(pointcount, slowed)

    def slow(q, *args):
        if q == p:
            time.sleep(0.2)
        return real(q, *args)

    monkeypatch.setattr(pointcount, slowed, slow)
    reports, code = run(RunConfig(selected_suites=["counts"]))
    assert code == 0
    slow_claims = [(r.claim, r.details.get("p")) for r in reports if r.runtime >= 0.2]
    assert slow_claims == [(claim, p)]


def test_g_triple_weil_claim_fails_on_a_wrong_eigenvalue(monkeypatch):
    """A primary element of norm p^2 gives a_p = 2p^2: claim 2 reports a
    fail instead of stopping the run."""
    from siegelz import cli, cmform
    from siegelz.arith import GaussInt

    monkeypatch.setattr(cmform, "_split_primary", lambda p: GaussInt(p, 0))
    cmform._g_hecke.cache_clear()
    try:
        reports = cli.suite_g_triple(RunConfig(), {})
    finally:
        cmform._g_hecke.cache_clear()
    assert reports[1].claim == "a_p = 0 at inert primes, |a_p| <= 2p, CM support"
    assert reports[1].status == "fail"


@pytest.mark.parametrize("order, changed, status", [
    (200, {}, "pass"),
    (200, {3: 1}, "fail"),    # a nonzero coefficient at an inert prime
    (200, {5: 11}, "fail"),   # |a_5| > 10 at a split prime
    (2, {}, "fail"),          # no inert prime read
])
def test_g_triple_claim_2_reads_the_built_theta_product(monkeypatch, order, changed, status):
    """Claim 2 reads a_p off the theta product at every odd p up to the
    order, so a wrong coefficient there, or an order with no inert prime,
    fails it."""
    from siegelz import cli, cmform

    built = cmform.g_expansion

    def changed_product(source, n):
        g = built(source, n)
        if source != "theta_product":
            return g
        return cmform.EllipticQExpansion(g.order, {**g.a, **changed})

    monkeypatch.setattr(cmform, "g_expansion", changed_product)
    reports = cli.suite_g_triple(RunConfig(series_order=order), {})
    assert reports[1].claim == "a_p = 0 at inert primes, |a_p| <= 2p, CM support"
    assert reports[1].status == status
    assert reports[1].details["primes"] == [p for p in range(3, order + 1) if
                                             all(p % q for q in range(2, p))]
    if order == 200:
        assert len(reports[1].details["primes"]) == 45


def test_lfactors_claim_fails_on_a_wrong_trace(monkeypatch, tmp_path):
    from siegelz import lfactors

    real = lfactors.trace_h2
    monkeypatch.setattr(lfactors, "trace_h2", lambda p: real(p) + 1)
    out = tmp_path / "r.json"
    assert main(["lfactors", "--primes", "3", "--out", str(out)]) == 1
    (report,) = json.loads(out.read_text())["reports"]
    assert report["status"] == "fail"


@pytest.mark.parametrize("mutation", [None, "weight", "kappa", "e9 sign"])
def test_pair_character_claims_fail_under_each_mutation(monkeypatch, mutation):
    """Claims 2 and 3 of theta-table compare the exact characters of the
    level-2 table with the closed form: shifting one weight of one generator
    by 4, flipping one generator's kappa, or flipping the sign of the e9
    exponent of the closed form fails both.  Unmodified, both pass and 60
    mixed-parity pairs differ at the central element."""
    import numpy as np

    from siegelz import cli, theta

    real_tables, real_exponent = theta._tables, theta._table1_exponent

    def tables(key, shape):
        out = real_tables(key, shape)
        Ms = np.frombuffer(key, dtype=np.int64).reshape(shape)
        weights, kappa = out.weights.copy(), out.kappa.copy()
        if mutation == "weight":
            at = (Ms == theta.E1).all((1, 2))
            weights[at, 0] = (weights[at, 0] + 4) % 8
        if mutation == "kappa":
            at = (Ms == theta.E6).all((1, 2))
            kappa[at] = 1 - kappa[at]
        return out._replace(weights=weights, kappa=kappa)

    def exponent(i, r, col):
        k = real_exponent(i, r, col)
        return -k if mutation == "e9 sign" and i == 9 else k

    monkeypatch.setattr(theta, "_tables", tables)
    monkeypatch.setattr(theta, "_table1_exponent", exponent)
    reports = cli.suite_theta_table(RunConfig(), {})
    pairs, odd = reports[1], reports[2]
    assert pairs.claim.startswith("pair characters on the ten generators")
    assert odd.claim.startswith("pair characters extend to odd characteristics")
    expected = "pass" if mutation is None else "fail"
    assert (pairs.status, odd.status) == (expected, expected)
    if mutation is None:
        assert odd.details["mixed_parity_sign_exceptions"] == 60
