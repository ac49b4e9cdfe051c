"""Acceptance criteria, one verdict line per criterion.

Each claim is stated once, in a ``verify`` suite of ``siegelz.cli``.  One
run of the default configuration (primes 3..13, order 200, tol 1e-8)
produces the reports, and each criterion asserts on the reports it covers,
selected by suite and claim text.  Every tolerance is pinned here: where a
report carries a residual, the criterion tests the residual itself, so a
suite check loosened or forced to pass still fails here.

Two sub-clauses are known to be unsatisfiable as stated and fail honestly
with an analysis in the failure message: the orbit-membership overclaim
(criterion 5) and the invariance of the vector-valued series under the
fifth stabilizer generator (criterion 8); see notes in the companion module
tests.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import pytest

from siegelz.cli import RunConfig, run

PRIMES = [3, 5, 7, 11, 13]
ODD_PRIMES_TO_50 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


@pytest.fixture(scope="module")
def reports():
    return run(RunConfig())[0]


def select(reports, suite, claim=""):
    """The reports of one suite whose claim text starts with ``claim``."""
    return [r for r in reports if r.suite == suite and r.claim.startswith(claim)]


def verdict(tag: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] {tag}" + (f"  ({detail})" if detail else ""))
    return ok


def test_criterion_1_point_counts(reports):
    (f3,) = select(reports, "counts", "|F(F_3)| = 16")
    closed = select(reports, "counts", "|Cone| = p|F|+1")
    keys = {"cone", "satake", "resolution", "u1_complement", "u2_complement"}
    worst = max(abs(v) for r in closed for v in r.details["residuals"].values())
    elapsed = sum(r.runtime for r in select(reports, "counts"))
    ok = (f3.details["count"] == 16
          and [r.details["p"] for r in closed] == PRIMES
          and all(keys <= r.details["residuals"].keys() for r in closed)
          and worst == 0 and elapsed <= 60)
    assert verdict("criterion 1: point counts and closed forms, residual 0",
                   ok, f"worst residual {worst}, {elapsed:.1f}s")


def test_criterion_2_corrected_fermat_trace(reports):
    corrected = select(reports, "fermat", "|F(F_p)|")
    (trace3,) = select(reports, "fermat", "Frobenius trace")
    measured3 = trace3.details["measured"]
    ok = ([r.details["p"] for r in corrected] == PRIMES
          and all(r.residual == 0 for r in corrected)
          and trace3.status == "measured" and measured3 == 0)
    assert verdict("criterion 2: corrected quartic-surface trace formula",
                   ok, f"measured trace at 3 is {measured3}")


def test_criterion_3_g_triple(reports):
    (triple, cm) = select(reports, "g-triple")
    hecke = select(reports, "hecke", "T_p g = a_p g")
    order = triple.details["order"]
    ok = (triple.status == cm.status == "pass" and triple.residual == 0
          and order == 200
          and [r.details["p"] for r in hecke] == ODD_PRIMES_TO_50
          and all(r.status == "pass" and r.residual == 0
                  and r.details["order"] >= 20 for r in hecke))
    assert verdict("criterion 3: three newform constructions, eigenform property",
                   ok, f"order {order}, odd p <= 50")


def test_criterion_4_phi_identity(reports):
    (identity,) = select(reports, "fz-phi", "the degeneration of the six-theta")
    (killed,) = select(reports, "fz-phi", "the degeneration kills")
    members = killed.details["members"]
    ok = (identity.status == killed.status == "pass" and identity.residual == 0
          and identity.details["order"] == 200 and members == 14)
    assert verdict("criterion 4: degeneration identity and orbit vanishing",
                   ok, f"exact to order 200; {members} members killed")


def test_criterion_5_orbit_structure(reports):
    (split,) = select(reports, "orbits", "210 six-tuples")
    d = split.details
    ok = (split.status == "pass" and sum(d["sizes"]) == 210
          and d["orbits"] == 3 and d["fz_orbit_size"] == 15)
    assert verdict("criterion 5a: 210 six-tuples, 3 orbits, orbit size 15", ok)


def test_criterion_5_membership_clause(reports):
    """Known source defect: one of the fourteen other members contains
    neither the 1111 nor the 1001 characteristic.

    The exceptional member {0000, 0010, 0100, 0110, 1000, 1100} is reached
    from the six-theta tuple by the period inversion followed by the
    coordinate swap (numeric slash ratio exactly 1), and its degeneration
    still vanishes because of the first-entry-1 members 1000 and 1100, so
    the consequence the membership claim feeds (criterion 4) holds.
    """
    (membership,) = select(reports, "orbits", "every other orbit member")
    missing = membership.details["exceptions"]
    ok = membership.status == "pass" and not missing
    assert verdict(
        "criterion 5b: every other member contains theta_1111 or theta_1001",
        ok,
        f"{len(missing)} exception(s): " + "; ".join(",".join(t) for t in missing),
    )


def test_criterion_6_transformation_laws(reports):
    tol = 1e-8
    (squared,) = select(reports, "theta-table", "squared transformation law")
    (pairs,) = select(reports, "theta-table", "pair characters on the ten")
    (six,) = select(reports, "theta-table", "six-theta product is fixed")
    ok = (all(r.status == "pass" for r in (squared, pairs, six))
          and max(squared.residual, pairs.residual, six.residual) < tol)
    assert verdict("criterion 6: transformation laws at 1e-8",
                   ok, f"squared {squared.residual:.1e}, pairs {pairs.residual:.1e}, "
                       f"six-theta {six.residual:.1e}")


def test_criterion_7_l_factors(reports):
    lfactors = select(reports, "lfactors")
    lefschetz = select(reports, "lefschetz")
    (spin,) = select(reports, "spin")
    ok = ([r.details["p"] for r in lfactors] == PRIMES
          and [r.details["p"] for r in lefschetz] == PRIMES
          and all(r.status == "pass" for r in lfactors + lefschetz + [spin])
          and all(r.residual == 0 for r in lefschetz)
          and [row["p"] for row in spin.details["solved"]] == ODD_PRIMES_TO_50)
    assert verdict("criterion 7: local L-factors, trace and spin identities", ok)


def test_criterion_8_ez_invariance_and_match(reports):
    tol = 1e-6
    (level48,) = select(reports, "ez", "2-form invariance under the level-(4,8)")
    (match,) = select(reports, "ez", "the first-component degeneration")
    elapsed = sum(r.runtime for r in select(reports, "ez"))
    ok = (level48.status == match.status == "pass" and level48.residual < tol
          and match.residual < 1e-8 and match.details["terms"] >= 20
          and elapsed <= 300)
    assert verdict("criterion 8a: level-(4,8) invariance and degeneration match",
                   ok, f"invariance {level48.residual:.1e}, "
                       f"match scalar {match.details['scalar']}, {elapsed:.0f}s")


def test_criterion_8_stabilizer_generators(reports):
    """Known source defect: the fifth stabilizer generator is not an
    invariance of the displayed lattice sum.

    The weight carries the measured character -1 on e1e6 (pulled-back form
    equals minus the form to 1e-16): the period-swap central part flips the
    middle component, and no lattice parity can compensate, because the
    unipotent parts act by exact reindexing.  The same character value -1
    appears on the central swap alone, matching the closed-form pair value.
    Four of the five generators, and the whole level-(4,8) group, are exact
    invariances.
    """
    tol = 1e-6
    residuals = {
        r.claim.split()[-1]: r.residual
        for r in select(reports, "ez", "2-form invariance under stabilizer generator")
    }
    ok = len(residuals) == 5 and max(residuals.values()) < tol
    assert verdict("criterion 8b: 2-form fixed by the five stabilizer generators",
                   ok, " ".join(f"{n}={r:.1e}" for n, r in residuals.items()))
