import itertools
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegelz import pointcount
from siegelz.cmform import a_p
from siegelz.lfactors import lefschetz_check
from siegelz.pointcount import (
    SURFACE_CAP,
    Z_CAP,
    big_quadrics,
    count_variety,
    count_z_slice_x0_zero,
    count_z_slice_x0_nonzero_x3_zero,
    phi_image,
    phi_inverse,
    verify_birational_map,
    verify_boundary_lines,
    verify_count_formulas,
    z_quadrics,
    zsatake_vanishes,
)

PRIMES = (3, 5, 7, 11, 13)
ODD_PRIMES_TO_41 = [q for q in range(3, 42, 2) if all(q % d for d in range(3, q, 2))]


def _reference_chart_rows(p, n):
    """P^n(F_p) chart by chart, first nonzero coordinate 1, each chart in
    slices of at most p^4 rows: a test-only reference."""
    for k in range(n + 1):
        m = n - k
        lead = max(0, m - 4)
        grid = np.indices((p,) * (m - lead), dtype=np.int64).reshape(m - lead, p ** (m - lead)).T
        for prefix in itertools.product(range(p), repeat=lead):
            rows = np.zeros((len(grid), n + 1), dtype=np.int64)
            rows[:, k] = 1
            rows[:, k + 1:k + 1 + lead] = prefix
            rows[:, k + 1 + lead:] = grid
            yield rows


def _pow4(x, p):
    return x ** 4 % p


def fermat_surface_vanishes(z, p):
    """Z0^4 - Z1^4 + Z2^4 - Z3^4 = 0 on rows [Z0, Z1, Z2, Z3]."""
    return (_pow4(z[:, 0], p) - _pow4(z[:, 1], p) + _pow4(z[:, 2], p) - _pow4(z[:, 3], p)) % p == 0


def fermat_curve_vanishes(x, p):
    """x0^4 + x2^4 - x1^4 = 0 on rows [x0, x1, x2]."""
    return (_pow4(x[:, 0], p) + _pow4(x[:, 2], p) - _pow4(x[:, 1], p)) % p == 0


def _u1c_predicate(w, p):
    t, s = w[:, 0], (w[:, 1] * w[:, 1] + w[:, 2] * w[:, 2]) % p
    return fermat_surface_vanishes(w[:, 1:], p) & ((t == 0) | (s == 0))


REFERENCE_COUNTS = {
    # variety: (n, row predicate, the largest prime the reference enumerates:
    # the cap, or 7 for Z, whose reference walks all of P^7)
    "Zsatake": (7, zsatake_vanishes, 7),
    "ConeF": (4, lambda w, p: fermat_surface_vanishes(w[:, 1:], p), Z_CAP),
    "U1c": (4, _u1c_predicate, Z_CAP),
    "FermatSurface": (3, fermat_surface_vanishes, SURFACE_CAP),
    "FermatCurve": (2, fermat_curve_vanishes, SURFACE_CAP),
}


def test_naive_counts_match_the_row_predicates():
    for variety, (n, predicate, cap) in REFERENCE_COUNTS.items():
        for p in [q for q in ODD_PRIMES_TO_41 if q <= cap]:
            expected = sum(int(predicate(rows, p).sum()) for rows in _reference_chart_rows(p, n))
            got = count_variety(variety, p)
            assert type(got) is int and got == expected, (variety, p)


def test_counting_does_not_import_numpy_ma():
    # np.unique imports numpy.ma, about 1 MB of resident memory; neither the
    # counts suite nor a full run, its reports serialized, imports it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(pointcount.__file__))] + sys.path))
    for run in ("reports, code = cli.run(cli.RunConfig(selected_suites=['counts']))\n"
                "assert code == 0 and reports\n",
                "reports, code = cli.run(cli.RunConfig(selected_suites=['all']))\n"
                "assert code == 1 and len(reports) == 60\n"
                "json.dumps([asdict(r) for r in reports], allow_nan=False)\n"):
        script = ("import json, sys\n"
                  "from dataclasses import asdict\n"
                  "from siegelz import cli\n"
                  + run + "print('numpy.ma' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


def test_count_guard_survives_python_O():
    """A total of affine solutions that p - 1 does not divide raises even
    under -O, which strips bare asserts, instead of flooring to a count."""
    script = ("from siegelz.pointcount import _z_points\n"
              "if __debug__:\n    raise SystemExit('not optimized')\n"
              "_z_points(5, 3)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(pointcount.__file__))] + sys.path))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert "AssertionError: 5 affine solutions is not a multiple of p - 1 = 2" in done.stderr


def test_fermat_surface_at_three():
    assert count_variety("FermatSurface", 3) == 16


def test_cone_at_three():
    # q |F| + 1 with |F(F_3)| = 16, cross-checked by enumeration
    assert count_variety("ConeF", 3) == 49


def test_zsatake_at_three():
    # (q-1)|F| + 2q + 2 = 2*16 + 8, by character sums and by enumeration
    assert count_variety("Zsatake", 3, "charsum") == 40
    assert count_variety("Zsatake", 3, "naive") == 40


def test_method_agreement():
    for p in PRIMES:
        naive = count_variety("Zsatake", p, "naive")
        charsum = count_variety("Zsatake", p, "charsum")
        assert naive == charsum


def test_each_legendre_flip_separates_the_z_counts(monkeypatch):
    """The naive Z count squares every Y and reads no Legendre table, so
    flipping any one nonzero entry of `_chi_table(p)` moves the
    character-sum count off it and fails the `counts` claim that they agree."""
    from siegelz import cli

    real = pointcount._chi_table
    claim = "naive and character-sum counts agree on Z"
    try:
        for p in (3, 5, 7):
            naive = count_variety("Zsatake", p, "naive")
            for k in range(1, p):
                def flipped(q, p=p, k=k):
                    table = real(q)
                    if q == p:
                        table[k] = -table[k]
                    return table

                monkeypatch.setattr(pointcount, "_chi_table", flipped)
                pointcount._z_strata.cache_clear()
                assert count_variety("Zsatake", p, "charsum") != naive, (p, k)
                assert count_variety("Zsatake", p, "naive") == naive
                reports = cli.suite_counts(cli.RunConfig(prime_list=[p]), {})
                status = {r.details["p"]: r.status for r in reports if r.claim == claim}
                assert status == {q: "fail" if q == p else "pass" for q in (3, 5, 7)}, (p, k)
    finally:
        monkeypatch.undo()
        pointcount._z_strata.cache_clear()


def test_caps_enforced():
    with pytest.raises(ValueError):
        count_variety("Zsatake", 17, "naive")
    with pytest.raises(ValueError):
        count_variety("Zsatake", 43, "charsum")
    with pytest.raises(ValueError):
        count_variety("FermatSurface", 43)
    with pytest.raises(ValueError):
        count_variety("FermatSurface", 9)
    with pytest.raises(ValueError):
        count_variety("ConeF", 5, "charsum")
    with pytest.raises(ValueError, match="naive method not defined for U2c"):
        count_variety("U2c", 3, "naive")
    with pytest.raises(ValueError):
        count_variety("nope", 5)


def test_fermat_curve_count():
    # smooth plane quartic, genus 3: |N - p - 1| <= 6 sqrt(p)
    for p in (3, 5, 13):
        n = count_variety("FermatCurve", p)
        assert (n - p - 1) ** 2 <= 36 * p


def test_slice_example_at_three():
    # 2q^2 - q + 2 + (2q^2 - 2q) chi = 17 - 12 = 5 at q = 3
    assert count_z_slice_x0_zero(3) == 5


def test_slice_counts_check_their_prime():
    # as count_variety does: no odd prime, or past the character-sum cap
    for count in (count_z_slice_x0_zero, count_z_slice_x0_nonzero_x3_zero):
        for p in (2, 9, 15, SURFACE_CAP + 2):
            with pytest.raises(ValueError):
                count(p)
    with pytest.raises(ValueError, match="character-sum counts capped"):
        count_variety("U2c", SURFACE_CAP + 2, "charsum")


def _reference_z_fibers(p, chi):
    """The (p, p) array over (X0, X3) of the sum over X1, X2 of the product
    of 1 + chi(Q_i(X)), from one pass over F_p^4: the oracle of the strata
    sums."""
    x = np.arange(p, dtype=np.int64)
    fibers = 1
    for q in z_quadrics(*np.ix_(x, x, x, x), p):
        fibers = fibers * (1 + chi[q])
    return fibers.sum(axis=(1, 2))


def _reference_strata(fibers):
    """The total, the X0 = 0 row and the X3 = 0 column below it."""
    return int(fibers.sum()), int(fibers[0].sum()), int(fibers[1:, 0].sum())


def test_z_strata_and_counts_equal_the_fiber_array():
    for p in PRIMES:
        fibers = _reference_z_fibers(p, pointcount._chi_table(p))
        total, x0_zero, x3_zero = strata = pointcount._z_strata(p)
        assert all(type(v) is int for v in strata)
        assert strata == _reference_strata(fibers), p
        z = (total - 1) // (p - 1)
        assert count_variety("Zsatake", p, "charsum") == z
        assert count_variety("U2c", p, "charsum") == (x0_zero + x3_zero - 1) // (p - 1)
        assert count_variety("Ztilde", p) == z + 2 * count_variety("FermatSurface", p) - 2 * (p + 1)
        assert count_z_slice_x0_zero(p) == (x0_zero - 1) // (p - 1)
        assert count_z_slice_x0_nonzero_x3_zero(p) == x3_zero // (p - 1)


@st.composite
def _sign_tables(draw):
    """An odd prime p <= 13 and a table of length p with entry 0 zero and
    every other entry +-1, multiplicative or not."""
    p = draw(st.sampled_from(PRIMES))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=p - 1, max_size=p - 1))
    return p, np.array([0] + signs, dtype=np.int64)


@settings(max_examples=40, deadline=None)
@given(_sign_tables())
def test_z_strata_equal_the_fiber_array_for_any_sign_table(case):
    # the strata identities are changes of variables only, so they hold for
    # any table; the uncached sum reads the patched one
    p, chi = case
    with mock.patch.object(pointcount, "_chi_table", lambda q: chi.copy()):
        strata = pointcount._z_strata.__wrapped__(p)
    assert strata == _reference_strata(_reference_z_fibers(p, chi))


def test_closed_forms_hold_past_the_naive_cap():
    """Past Z_CAP naive Z is not compared, so the closed forms in |F|, from
    the surface count, are the evidence for the character sums there."""
    for p in [q for q in ODD_PRIMES_TO_41 if q > Z_CAP]:
        f = count_variety("FermatSurface", p)
        chi1 = 1 if p % 4 == 1 else -1
        z = count_variety("Zsatake", p, "charsum")
        residuals = {
            "satake": z - ((p - 1) * f + 2 * p + 2),
            "u2_complement": count_variety("U2c", p, "charsum")
            - (4 * p * p - 2 * p + 2 + (4 * p * p - 6 * p + 2) * chi1),
            "resolution": count_variety("Ztilde", p) - (p + 1) * f,
            "slice_x0_zero": count_z_slice_x0_zero(p)
            - (2 * p * p - p + 2 + (2 * p * p - 2 * p) * chi1),
            "slice_x3_zero": count_z_slice_x0_nonzero_x3_zero(p)
            - (2 * p * p - p + (2 * p * p - 4 * p + 2) * chi1),
        }
        assert all(r == 0 for r in residuals.values()), (p, residuals)
        assert lefschetz_check(p) == 0, p


def test_each_legendre_flip_fails_the_closed_forms_at_eleven_and_thirteen(monkeypatch):
    """Naive Z is compared only at 3, 5 and 7, so at 11 and 13 the closed
    forms alone must catch a wrong Legendre table: flipping any one nonzero
    entry of `_chi_table(p)` fails the `counts` claim of the closed forms."""
    from siegelz import cli

    real = pointcount._chi_table
    try:
        for p in (11, 13):
            honest = cli.suite_counts(cli.RunConfig(prime_list=[p]), {})[1]
            assert honest.status == "pass" and honest.details["p"] == p
            for k in range(1, p):
                def flipped(q, p=p, k=k):
                    table = real(q)
                    if q == p:
                        table[k] = -table[k]
                    return table

                monkeypatch.setattr(pointcount, "_chi_table", flipped)
                pointcount._z_strata.cache_clear()
                report = cli.suite_counts(cli.RunConfig(prime_list=[p]), {})[1]
                assert report.claim == honest.claim
                assert report.status == "fail", (p, k)
                monkeypatch.undo()
    finally:
        monkeypatch.undo()
        pointcount._z_strata.cache_clear()


def test_count_formulas_all_primes():
    for p in PRIMES:
        rep = verify_count_formulas(p, a_p(p))
        assert all(v == 0 for v in rep["residuals"].values()), (p, rep["residuals"])


def test_count_formulas_trace_measured():
    rep = verify_count_formulas(3, 0)
    # the measured Frobenius trace at 3 vanishes (CM prime)
    assert rep["measured_frobenius_trace"] == 0


def test_weil_bound_and_cm_vanishing():
    for p in PRIMES:
        rep = verify_count_formulas(p, a_p(p))
        t = rep["measured_frobenius_trace"]
        assert abs(t) <= 2 * p
        if p % 4 == 3:
            assert t == 0


def test_lefschetz_count_identity():
    for p in PRIMES:
        f = count_variety("FermatSurface", p)
        assert count_variety("Ztilde", p) == (p + 1) * f


def test_birational_map_small_primes():
    for p in (3, 5):
        rep = verify_birational_map(p)
        assert rep["bijective"]
        assert rep["coordinate_matching"] == "identity"
    rep3 = verify_birational_map(3)
    assert rep3["u1_count"] == count_variety("ConeF", 3) - count_variety("U1c", 3)


def _reference_normalize(point, p):
    for v in point:
        if v % p:
            inv = pow(v % p, p - 2, p)
            return tuple((x * inv) % p for x in point)
    raise ValueError("zero vector is not projective")


def _reference_birational_map(p):
    """verify_birational_map transcribed as a loop over the points of U1,
    one at a time, as a test-only reference."""
    images = set()
    n_u1 = 0
    for z0, z1, z2, z3 in itertools.product(range(p), repeat=4):
        if (z0 * z0 + z1 * z1) % p == 0 or (z0 ** 4 - z1 ** 4 + z2 ** 4 - z3 ** 4) % p:
            continue
        z = (z0, z1, z2, z3)
        n_u1 += 1
        w = pointcount.phi_image(1, z, p)
        q = z_quadrics(*(np.int64(v) for v in w[4:]), p)
        if not all((w[j] * w[j] - int(q[j])) % p == 0 for j in range(4)):
            raise AssertionError(f"image of {z} misses the target equations")
        if _reference_normalize(pointcount.phi_inverse(w, p), p) != (1,) + z:
            raise AssertionError(f"inverse fails at {z}")
        if (w[0] * w[0] + w[1] * w[1]) % p == 0 or w[7] % p == 0:
            raise AssertionError(f"image of {z} outside U2")
        images.add(_reference_normalize(w, p))
    n_u2 = count_variety("Zsatake", p, "charsum") - count_variety("U2c", p, "charsum")
    n_cone_side = count_variety("ConeF", p) - count_variety("U1c", p)
    return {
        "p": p,
        "u1_count": n_u1,
        "u2_count": n_u2,
        "cone_minus_u1c": n_cone_side,
        "distinct_images": len(images),
        "bijective": n_u1 == n_u2 == len(images) == n_cone_side,
        "coordinate_matching": "identity",
    }


def _reference_line_maps(p, rational_only=False):
    """The boundary lines as maps (u, v) -> point of P^3 over F_p, in the
    catalog's order, written out apart from pointcount._line_catalog."""
    maps = {}
    signs = [(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]
    tag = lambda s1, s2: f"({'+' if s1 == 1 else '-'},{'+' if s2 == 1 else '-'})"
    if not rational_only:
        if p % 4 != 1:
            raise ValueError("sqrt(-1) needed in F_p: require p = 1 mod 4")
        i = min(x for x in range(2, p) if (x * x + 1) % p == 0)
        for s1, s2 in signs:
            a, b = s1 * i, s2 * i
            maps[f"L1{tag(s1, s2)}"] = lambda u, v, a=a, b=b: (a * u % p, b * v % p, u, v)
            maps[f"L2{tag(s1, s2)}"] = lambda u, v, a=a, b=b: (a * u % p, u, b * v % p, v)
            maps[f"L3{tag(s1, s2)}"] = lambda u, v, a=a, b=b: (a * v % p, b * u % p, u, v)
    for a, b in signs:
        maps[f"L4{tag(a, b)}"] = lambda u, v, a=a, b=b: (a * v % p, b * u % p, u, v)
        maps[f"L5{tag(a, b)}"] = lambda u, v, a=a, b=b: (a * u % p, u, b * v % p, v)
        maps[f"L6{tag(a, b)}"] = lambda u, v, a=a, b=b: (a * u % p, b * v % p, u, v)
    for i, j in itertools.combinations(range(4), 2):
        free = [k for k in range(4) if k not in (i, j)]
        maps[f"l{i}{j}"] = lambda u, v, free=free: tuple(
            u if k == free[0] else v if k == free[1] else 0 for k in range(4))
    return maps


def _reference_boundary_lines(p, rational_only=False):
    """verify_boundary_lines transcribed as a loop over lines and parameters."""
    report = {}
    for name, param in _reference_line_maps(p, rational_only).items():
        vanishing = set(range(10))
        for u, v in [(1, v) for v in range(p)] + [(0, 1)]:
            q = big_quadrics(*(np.int64(c) for c in param(u, v)), p)
            vanishing &= {k for k in range(10) if int(q[k]) % p == 0}
        report[name] = sorted(vanishing)
    return report


def _raised(fn, *args):
    try:
        fn(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def test_birational_map_matches_the_pointwise_loop(monkeypatch):
    for p in PRIMES:
        got = verify_birational_map(p)
        assert got == _reference_birational_map(p)
        assert all(type(v) is int for k, v in got.items() if k.endswith(("count", "images", "u1c")))
    real = pointcount.phi_image
    unhalved = lambda w, p: (w[7] % p, *(v % p for v in w[:4]))
    zero = lambda w, p: (0 * w[7],) * 5
    swapped = lambda t, z, p: (lambda w: w[:4] + (w[6], w[5], w[4], w[7]))(real(t, z, p))
    for name, patch, expected in (("phi_inverse", unhalved, AssertionError),
                                  ("phi_inverse", zero, ValueError),
                                  ("phi_image", swapped, AssertionError)):
        monkeypatch.undo()
        monkeypatch.setattr(pointcount, name, patch)
        for p in PRIMES:
            error = _raised(verify_birational_map, p)
            assert error is not None and error[0] is expected
            assert error == _raised(_reference_birational_map, p)


def test_a_map_that_merges_two_images_is_no_bijection(monkeypatch):
    """The distinct images are counted on their own: a phi_image that sends
    the second point of U1 to the first one's image lowers distinct_images
    by one and makes bijective False.  The round trip would stop at the
    merged point first, so phi_inverse is patched to replay the inverse of
    the unmerged images, row for row."""
    honest = {p: verify_birational_map(p) for p in (3, 13)}
    real_image, real_inverse = pointcount.phi_image, pointcount.phi_inverse
    unmerged = []

    def merged(t, z, p):
        w = real_image(t, z, p)
        unmerged.append(w)
        return tuple(np.concatenate([v[:1], v[:1], v[2:]]) for v in w)

    monkeypatch.setattr(pointcount, "phi_image", merged)
    monkeypatch.setattr(pointcount, "phi_inverse", lambda w, p: real_inverse(unmerged[-1], p))
    for p, want in honest.items():
        got = verify_birational_map(p)
        assert got["distinct_images"] == want["distinct_images"] - 1 == got["u1_count"] - 1
        assert not got["bijective"] and want["bijective"]


def test_boundary_lines_match_the_pointwise_loop():
    for p in ODD_PRIMES_TO_41:
        assert verify_boundary_lines(p, True) == _reference_boundary_lines(p, True)
        if p % 4 == 1:
            got = verify_boundary_lines(p)
            assert got == _reference_boundary_lines(p)
            assert list(got) == list(_reference_line_maps(p))


def test_phi_image_and_inverse_pointwise():
    import random

    rng = random.Random(0)
    p = 5
    pts = []
    for z0 in range(p):
        for z1 in range(p):
            for z2 in range(p):
                for z3 in range(p):
                    if (z0 ** 4 - z1 ** 4 + z2 ** 4 - z3 ** 4) % p == 0 \
                            and (z0 * z0 + z1 * z1) % p:
                        pts.append((z0, z1, z2, z3))
    sample = rng.sample(pts, 100)
    for z in sample:
        w = phi_image(1, z, p)
        back = phi_inverse(w, p)
        # projective equality against [1 : z]
        scale = back[0]
        assert scale % p
        inv = pow(scale, p - 2, p)
        assert tuple(v * inv % p for v in back) == (1,) + tuple(v % p for v in z)


def test_phi_image_domain_errors():
    with pytest.raises(ValueError):
        phi_image(0, (1, 1, 0, 0), 5)
    with pytest.raises(ValueError):
        phi_image(1, (1, 2, 0, 0), 5)  # 1 + 4 = 0 mod 5


def test_boundary_lines_catalog():
    report = verify_boundary_lines(5)
    assert len(report) == 30
    # [X3 : X2 : X2 : X3] kills the two alternating products
    assert {7, 8} <= set(report["L4(+,+)"])
    # X0 = X1 = 0 kills exactly the four quadrics whose every monomial
    # contains X0 or X1
    assert report["l01"] == [5, 6, 8, 9]
    assert all(len(v) >= 2 for v in report.values())


def test_boundary_lines_need_sqrt_minus_one():
    with pytest.raises(ValueError):
        verify_boundary_lines(7)
    rational = verify_boundary_lines(7, rational_only=True)
    assert len(rational) == 18
    assert all(len(v) >= 2 for v in rational.values())


def test_u_complement_values_at_three():
    # closed forms evaluated at q = 3, chi(-1) = -1
    assert count_variety("U1c", 3) == 16 + 25 - 20
    assert count_variety("U2c", 3, "charsum") == 32 - 20


def test_odd_prime_validation():
    with pytest.raises(ValueError):
        verify_count_formulas(9, 0)
    with pytest.raises(ValueError):
        count_variety("FermatSurface", 2)
