import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegelz.arith import GaussInt, QuarterSeries, i_power, series_mul
from siegelz.theta import (
    E5,
    E6,
    E_GENERATORS,
    FZ_TUPLE,
    G0,
    G_TUPLE,
    J4,
    apply_moebius,
    character_as_gauss,
    character_eighths,
    character_value,
    check_siegel_point,
    cocycle,
    even_characteristics,
    fz_eval,
    fz_expansion,
    fz_orbit,
    gammaZ_generators,
    gl_embed,
    igusa_residuals,
    in_gamma,
    in_gamma2,
    in_gamma48,
    in_igusa_group,
    is_symplectic,
    orbit_decomposition,
    pair_character_any_parity,
    parity,
    phi_after_g0,
    phi_characteristics,
    phi_of_theta_product,
    random_gamma2_elements,
    random_gamma48_elements,
    siegel_point,
    six_tuple_expansion,
    slash_character_exact,
    sp2z_generators,
    table1_char,
    table1_char_tuple,
    table1_eighths,
    theta_eval,
    theta_expansion,
    theta_gradient,
    theta_values,
    translation,
    verify_igusa_transformation,
)
from siegelz import theta
from siegelz.soudry import EZ_SAMPLE_POINTS

TAU_A = siegel_point(2j, 0, 2j)
TAU_B = siegel_point(2j, 0.5j, 2j)
TAU_GENERIC = siegel_point(1.9j + 0.2, 0.4j + 0.1, 2.3j - 0.15)


# ---------------------------------------------------------------------------
# characteristics

def test_parity_examples():
    assert parity((0, 0, 0, 0)) == "even"
    assert parity((1, 0, 1, 0)) == "odd"
    assert parity((0, 1)) == "even"
    assert parity((1, 1)) == "odd"


def test_ten_even_characteristics():
    evens = even_characteristics(2)
    assert len(evens) == 10
    assert len(even_characteristics(1)) == 3


# ---------------------------------------------------------------------------
# expansions

def test_theta_expansion_genus1_even():
    t = theta_expansion((0, 0), 20)
    assert t.coeffs == {0: GaussInt(1), 4: GaussInt(2), 16: GaussInt(2)}


def test_theta_expansion_odd_vanishes():
    for order in (4, 21, 50, 113):
        assert theta_expansion((1, 1), order).is_zero()
    for m in [m for m in
              [(a, b, c, d) for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)]
              if parity(m) == "odd"]:
        assert theta_expansion(m, 40).is_zero()


@pytest.mark.parametrize("order", [0, 1, 2, 16, 40, 200])
def test_theta_expansions_are_real(order):
    """Each term has b = m' mod 2, so b.m'' = m'.m'' mod 2 and the coefficient
    i^(b.m'') of an even characteristic is +-1: every theta product the
    package multiplies is real.  The odd ones give the zero series."""
    shifts = [(4, -3, 1, 2), (-1, 2, 3, -4)]
    chars = [m for g in (1, 2) for m in itertools.product((0, 1), repeat=2 * g)]
    chars += [tuple(a + 2 * b for a, b in zip(m, k)) for m in chars for k in shifts]
    for m in chars:
        s, g = theta_expansion(m, order), len(m) // 2
        assert not s.im.any(), m
        # an even series starts at degree |b|^2 with b = m' mod 2
        lowest = sum(a % 2 for a in m[:g])
        assert s.is_zero() == (parity(m) == "odd" or order < lowest), m


def test_theta_expansion_genus2():
    t = theta_expansion((0, 0, 0, 0), 4)
    assert t.coeffs == {
        (0, 0, 0): GaussInt(1),
        (4, 0, 0): GaussInt(2),
        (0, 0, 4): GaussInt(2),
    }


def _theta_by_definition(m, order):
    """The series of theta[m] term by term from its defining sum: one term
    per x in Z^g + m'/2 with 4|x|^2 <= order, written with b = 2x."""
    g = len(m) // 2
    r = math.isqrt(order)
    axes = [[b for b in range(-r, r + 1) if (b - c) % 2 == 0] for c in m[:g]]
    coeffs = {}
    for b in itertools.product(*axes):
        if sum(v * v for v in b) <= order:
            key = b[0] * b[0] if g == 1 else (b[0] * b[0], 2 * b[0] * b[1], b[1] * b[1])
            phase = i_power(sum(v * w for v, w in zip(b, m[g:])))
            coeffs[key] = coeffs.get(key, GaussInt(0)) + phase
    return QuarterSeries(g, order, coeffs)


def test_theta_expansion_of_unreduced_characteristics():
    # theta[m + 2k] = (-1)^(m'.k'') theta[m]: the lattice box must sit around
    # the reduced shift m' mod 2, wherever m' + 2k' lies
    shifts = [(4, -3, 1, 2), (-4, 1, -2, 3), (3, 4, -1, -4), (-1, -2, 4, -3)]
    for g in (1, 2):
        for m in itertools.product((0, 1), repeat=2 * g):
            for k in (k[:2 * g] for k in shifts):
                shifted = tuple(a + 2 * b for a, b in zip(m, k))
                sign = (-1) ** sum(a * b for a, b in zip(m[:g], k[g:]))
                for order in (0, 16, 40, 200, 1000):
                    t = theta_expansion(m, order)
                    expected = QuarterSeries.from_arrays(g, order, t.exps,
                                                         sign * t.re, sign * t.im)
                    assert theta_expansion(shifted, order) == expected, (m, k, order)
                    assert _theta_by_definition(shifted, order) == expected, (m, k, order)
    assert theta_expansion((9, 0), 16).coeffs == {1: GaussInt(2), 9: GaussInt(2)}


def _theta_arrays_by_definition(m, order):
    """The stored arrays of theta[m], as (dtype, entries) per exponent column
    and then re and im, from its defining sum: i^(b.m'') added into a dict
    at the index of every b in (2Z + m')^g with |b|^2 <= order, the zero
    sums dropped, and the indices sorted by the degree, then e1 and e2."""
    g = len(m) // 2
    r = math.isqrt(order)
    axes = [[b for b in range(-r, r + 1) if (b - c) % 2 == 0] for c in m[:g]]
    sums = {}
    for b in itertools.product(*axes):
        if sum(v * v for v in b) <= order:
            key = (b[0] * b[0],) if g == 1 else (b[0] * b[0], 2 * b[0] * b[1], b[1] * b[1])
            phase = ((1, 0), (0, 1), (-1, 0), (0, -1))[sum(v * w for v, w in zip(b, m[g:])) % 4]
            sums[key] = [x + y for x, y in zip(sums.get(key, (0, 0)), phase)]
    keys = sorted((k for k, v in sums.items() if any(v)),
                  key=lambda k: k if g == 1 else (k[0] + k[2], k[0], k[1]))
    columns = [[k[j] for k in keys] for j in range(2 * g - 1)]
    columns += [[sums[k][j] for k in keys] for j in (0, 1)]
    return [(np.dtype(np.int64), c) for c in columns]


@pytest.mark.parametrize("genus", [1, 2])
def test_theta_expansion_matches_its_defining_sum_for_unreduced_characteristics(genus):
    """The half-lattice build (one term per pair b, -b) gives the arrays and
    dtypes of the full defining sum, for every characteristic with entries
    0 to 3 (odd ones, zero series, included)."""
    orders = (0, 1, 16, 60, 140, 260) + ((2400,) if genus == 1 else ())
    for m in itertools.product(range(4), repeat=2 * genus):
        for order in orders:
            s = theta_expansion(m, order)
            built = [(x.dtype, x.tolist()) for x in (*s.exps, s.re, s.im)]
            assert built == _theta_arrays_by_definition(m, order), (m, order)
            assert all(not x.flags.writeable for x in (*s.exps, s.re, s.im))


def test_expansions_name_a_negative_order_and_an_empty_tuple():
    for m in ((0, 0), (1, 1), (0, 0, 0, 0)):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            theta_expansion(m, -1)
    for ms in ([], ()):
        with pytest.raises(ValueError, match="at least one factor"):
            six_tuple_expansion(ms, 10)


def test_theta_expansion_phases_in_zi():
    t = theta_expansion((1, 1, 1, 1), 30)
    assert t.coeffs and all(isinstance(c, GaussInt) for c in t.coeffs.values())
    assert all(e2 % 2 == 0 for (_, e2, _) in t.coeffs)


# ---------------------------------------------------------------------------
# numeric evaluation

def test_theta_eval_classical_value():
    # pi^(1/4) / Gamma(3/4), the classical value of the basic theta at i
    oracle = math.pi ** 0.25 / math.gamma(0.75)
    v = theta_eval((0, 0), 1j, 1e-12)
    assert 1.0 < v.real < 1.1
    assert abs(v - oracle) < 1e-12


def test_theta_eval_odd_zero():
    assert abs(theta_eval((1, 1), 1.7j, 1e-12)) < 1e-12
    assert abs(theta_eval((1, 0, 1, 0), TAU_B, 1e-12)) < 1e-12


def test_theta_eval_matches_expansion():
    for m in even_characteristics(2):
        for tau in (TAU_A, siegel_point(2j, 0.5j, 2j)):
            series_val = theta_expansion(m, 80).evaluate(np.asarray(tau))
            num_val = theta_eval(m, tau, 1e-12)
            assert abs(series_val - num_val) < 1e-10


def test_theta_eval_rejects_bad_tau():
    with pytest.raises(ValueError):
        theta_eval((0, 0), -1j, 1e-10)
    with pytest.raises(ValueError):
        theta_eval((0, 0, 0, 0), np.array([[1j, 0], [0, -2j]]), 1e-10)


# the square-box radius rule that sizes the reference sums of these tests:
# a rule of its own, so the oracles do not share the windows they check
def _lattice_radius(lam: float, tol: float, genus: int, degree: int = 0) -> int:
    """Smallest integer R making the discarded Gaussian tail provably < tol.

    Shell k, the terms with k <= max |x_i| < k + 1, holds at most
    8k + 4 <= 9(k+1) of them in genus 2 and 2 in genus 1, each at most
    exp(-pi lam k^2).  With q = exp(-2 pi lam R), the genus-2 shells k = R + j
    sum to at most 9(R+1) exp(-pi lam R^2) sum_j (1+j) q^j.  degree=1 bounds
    a gradient component: each term carries |x_i| <= k + 1 <= (R+1)(1+j), and
    sum_j (1+j)^2 q^j <= 2/(1-q)^3.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    shell = 9.0 if genus == 2 else 2.0
    R = 1
    while True:
        q = math.exp(-2 * math.pi * lam * R)
        head = shell * (R + 1 if genus == 2 else 1) * math.exp(-math.pi * lam * R * R)
        bound = head / (1 - q) ** 2 * (2 * (R + 1) / (1 - q)) ** degree
        if bound < tol:
            return R + 1  # margin for the half-integer characteristic shift
        R += 1
        if R > 400:
            raise ValueError("tolerance unreachable at this tau")


def _level48_images():
    """The level-(4,8) images of the six-theta claim's two points."""
    return [apply_moebius(g, tau)
            for g in gammaZ_generators() + random_gamma48_elements(10, seed=2)
            for tau in (TAU_A, TAU_B)]


def _ill_conditioned_points():
    """Three level-(4,8) images where row windows and a square box differ
    most: two anisotropic ones, with eigenvalues of Im tau near 0.0017 and
    0.031, and a nearly isotropic one whose box needs lattice radius 95."""
    images = _level48_images()
    anisotropic = [images[24], images[25]]
    isotropic = images[19]
    for tau in anisotropic:
        low, high = np.linalg.eigvalsh(tau.imag)
        assert 0.0016 < low < 0.0019 and 0.030 < high < 0.032
    low, high = np.linalg.eigvalsh(isotropic.imag)
    assert high < 2 * low and _lattice_radius(low, 1e-13, 2) == 95
    return anisotropic + [isotropic]


def test_theta_tail_bound_against_a_tighter_evaluation():
    """The lattice windows for tol keep the dropped tail below tol: at the
    theta-table points, their images under the ten generators, a poorly
    conditioned point (smallest eigenvalue of Im tau 0.05), and the
    ill-conditioned level-(4,8) images."""
    points = [TAU_A, TAU_B, TAU_GENERIC]
    points += [apply_moebius(M, TAU_GENERIC) for M in E_GENERATORS]
    points.append(siegel_point(0.3j + 0.1, 0.25j, 0.3j - 0.2))
    assert min(np.linalg.eigvalsh(points[-1].imag)) < 0.06
    points += _ill_conditioned_points()
    evens = even_characteristics(2)
    for tau in points:
        tight = theta_values(evens, tau, 1e-15)
        for tol in (1e-4, 1e-8, 1e-13):
            assert np.all(np.abs(theta_values(evens, tau, tol) - tight) < tol), tol
            for m, want in zip(evens, tight):
                assert abs(theta_eval(m, tau, tol) - want) < tol, (m, tol)
    for t in (1j, 0.05j + 0.3):
        for m in even_characteristics(1):
            tight = theta_eval(m, t, 1e-15)
            for tol in (1e-4, 1e-8, 1e-13):
                assert abs(theta_eval(m, t, tol) - tight) < tol, (m, tol)


def _stated_window_sum(y, degree):
    """F(y) = 1 + 1/sqrt(y) in degree 0 and G(y) = 2/sqrt(2 pi e y) + 1/(pi y)
    in degree 1: bounds on the sums of |v|^degree exp(-pi y v^2) over any
    shifted lattice v in u + Z."""
    if degree == 0:
        return 1 + 1 / math.sqrt(y)
    return 2 / math.sqrt(2 * math.pi * math.e * y) + 1 / (math.pi * y)


def _stated_window_tail(y, R, degree):
    """T(y, R) = 2 exp(-pi y R^2) / (1 - exp(-2 pi y R)) in degree 0, and in
    degree 1 T1(y, R) = 2 exp(-pi y R^2) (R + 1/(2 pi y)) from the peak
    R = 1/sqrt(2 pi y) of v exp(-pi y v^2) on, and below it the peak's value
    doubled plus exp(-pi y R^2) / (pi y): bounds on the parts with |v| > R
    of the sums of _stated_window_sum."""
    if degree == 0:
        return 2 * math.exp(-math.pi * y * R * R) / (1 - math.exp(-2 * math.pi * y * R))
    peak = 1 / math.sqrt(2 * math.pi * y)
    if R >= peak:
        return 2 * math.exp(-math.pi * y * R * R) * (R + 1 / (2 * math.pi * y))
    return 2 * peak * math.exp(-0.5) + math.exp(-math.pi * y * R * R) / (math.pi * y)


def _stated_window_bound(s, y22, t, R1, R2, degree=0):
    """The two parts of _row_windows' tail bound, for the rows |x1| > R1 and
    for the rest of each kept row: T(s, R1) F(y22) and F(s) T(y22, R2) in
    degree 0; c T1(s, R1) F(y22) + T(s, R1) G(y22) and
    c G(s) T(y22, R2) + F(s) T1(y22, R2) in degree 1, with c = 1 + |t|."""
    F, T = _stated_window_sum, _stated_window_tail
    if degree == 0:
        return T(s, R1, 0) * F(y22, 0), F(s, 0) * T(y22, R2, 0)
    c = 1 + abs(t)
    return (c * T(s, R1, 1) * F(y22, 0) + T(s, R1, 0) * F(y22, 1),
            c * F(s, 1) * T(y22, R2, 0) + F(s, 0) * T(y22, R2, 1))


def test_row_windows_are_the_smallest_their_bound_allows(monkeypatch):
    """Each radius of _row_windows, in moment degree 0 and 1, is the smallest
    half-integer whose part of the stated bound is below tol/2, with the
    Schur complement s = y11 - y12^2 / y22 and t = y12 / y22 recomputed here;
    and the genus-1 radius of theta_eval is the smallest half-integer with
    T(y, R) below tol.  At the anisotropic points s is near 0.031 and the
    smallest eigenvalue of Im tau near 0.0017, and y11 is far above s at
    points with a large y12, so a rule that reads either in place of s,
    drops the F factor, or in degree 1 drops the G factor or the |t| |x1|
    term, fails here."""
    radii = []
    rule = theta._window_radius

    def recorded(*args):
        radii.append(rule(*args))
        return radii[-1]

    monkeypatch.setattr(theta, "_window_radius", recorded)
    points = [TAU_A, TAU_B, TAU_GENERIC, siegel_point(0.3j + 0.1, 0.25j, 0.3j - 0.2)]
    points += [apply_moebius(M, TAU_GENERIC) for M in E_GENERATORS]
    points += _level48_images()
    for tau in points:
        (y11, y12), (_, y22) = tau.imag
        t = y12 / y22
        s = y11 - y12 * t
        for tol in (1e-4, 1e-8, 1e-13, 1e-16):
            for degree in (0, 1):
                ((*center, R1, R2),) = theta._row_windows(tau.imag, tol, degree)
                assert center == [s, t]
                assert 2 * R1 == int(2 * R1) and 2 * R2 == int(2 * R2)
                rows, cols = _stated_window_bound(s, y22, t, R1, R2, degree)
                assert rows < tol / 2 and cols < tol / 2, (tau, tol, degree)
                assert R1 == 0.5 or \
                    _stated_window_bound(s, y22, t, R1 - 0.5, R2, degree)[0] >= tol / 2
                assert R2 == 0.5 or \
                    _stated_window_bound(s, y22, t, R1, R2 - 0.5, degree)[1] >= tol / 2
            for y in (s, y22, 1.0):
                radii.clear()
                theta_eval((1, 0), 1j * y, tol)
                (R,) = radii
                assert 2 * R == int(2 * R)
                assert _stated_window_tail(y, R, 0) < tol
                assert R == 0.5 or _stated_window_tail(y, R - 0.5, 0) >= tol


def _radius_from_one_half(y, a0, a1, tol):
    """_window_radius's search run from R = 1/2: the smallest half-integer
    whose bound a0 T0(y, R) + a1 T1(y, R), as _window_radius forms it, is
    below tol."""
    c = math.pi * y
    peak = 1 / math.sqrt(2 * c)
    R = 0.5
    while R <= 400:
        e = math.exp(-c * R * R)
        bound = a0 * (2 * e / -math.expm1(-2 * c * R))
        if a1:
            p = max(R, peak)
            bound += a1 * (2 * p * math.exp(-c * p * p) + e / c)
        if bound < tol:
            return R
        R += 0.5
    return None


def test_window_radius_equals_a_search_from_one_half(monkeypatch, capsys):
    """_window_radius starts its search above the radius its bound's lower
    estimate rules out, and finds what a search from R = 1/2 finds: at every
    radius of a `verify all` from cold caches, and of the row windows, in
    both degrees at four tols, and the genus-1 radii at the test points, the
    ill-conditioned and level-(4,8) images among them.  Most searches start
    above 1/2, so the start is exercised."""
    from siegelz import cli

    calls = []
    rule = theta._window_radius

    def recorded(*args):
        calls.append((args, rule(*args)))
        return calls[-1][1]

    monkeypatch.setattr(theta, "_window_radius", recorded)
    theta._lattice_sums.cache_clear()
    assert cli.main(["all"]) == 1
    capsys.readouterr()
    suites = len(calls)
    points = np.stack([*GRADIENT_POINTS, *(apply_moebius(M, TAU_GENERIC) for M in E_GENERATORS),
                       *_level48_images(), *_ill_conditioned_points()])
    for tol in (1e-4, 1e-8, 1e-13, 1e-16):
        for degree in (0, 1):
            theta._row_windows(points.imag, tol, degree)
        for y in points.imag[:, 1, 1]:
            theta_eval((1, 0), 1j * y, tol)
    assert suites > 200 and len(calls) == suites + 4 * 5 * len(points)
    assert all(R == _radius_from_one_half(*args) for args, R in calls)
    assert sum(R > 1 for _, R in calls) > len(calls) / 2


def _defining_sums(ms, tau, tol):
    """theta[m](tau) for each m in ms from its definition, term by term: the
    sum of exp(pi i x.tau.x) i^(2x.m'') over x = a + m'/2 with a + m' // 2 in
    the box [-R-1, R+1]^2 of the lattice radius, the phase reduced exactly
    in integers, so no reduction rule for unreduced m enters.  Returns the
    sums and the sums of the terms' absolute values."""
    R = _lattice_radius(float(np.linalg.eigvalsh(tau.imag).min()), tol, 2)
    box = np.arange(-R - 1, R + 2)
    grids = {}  # exp(pi i x.tau.x) by the parity of 2x
    sums, scales = [], []
    for m in ms:
        b1 = (2 * (box - m[0] // 2) + m[0])[:, None]  # b = 2x
        b2 = (2 * (box - m[1] // 2) + m[1])[None, :]
        key = (m[0] % 2, m[1] % 2)
        if key not in grids:
            x1, x2 = b1 / 2, b2 / 2
            grids[key] = np.exp(1j * np.pi * (tau[0, 0] * x1 * x1 + 2 * tau[0, 1] * x1 * x2
                                              + tau[1, 1] * x2 * x2))
        terms = grids[key] * np.array([1, 1j, -1, -1j])[(b1 * m[2] + b2 * m[3]) % 4]
        sums.append(complex(terms.sum()))
        scales.append(float(np.abs(terms).sum()))
    return sums, scales


def test_theta_values_match_the_defining_sum():
    """All 16 characteristics and unreduced shifts m + 2k, in one call, agree
    with the definition to 1e-14 of the terms' absolute sum, and the 16 with
    one theta_eval per characteristic to a relative 1e-14: at the theta-table
    points, their images under the ten generators, the level-(4,8) images
    of the six-theta claim (lattice radii up to 95) and a point with
    smallest eigenvalue of Im tau below 0.06."""
    points = [TAU_A, TAU_B, TAU_GENERIC]
    points += [apply_moebius(M, TAU_GENERIC) for M in E_GENERATORS]
    points += _level48_images()
    points.append(siegel_point(0.3j + 0.1, 0.25j, 0.3j - 0.2))
    radii = [_lattice_radius(float(np.linalg.eigvalsh(tau.imag).min()), 1e-13, 2)
             for tau in points]
    assert max(radii) == 95
    assert min(np.linalg.eigvalsh(points[-1].imag)) < 0.06
    rng = np.random.default_rng(13)
    allchars = list(itertools.product((0, 1), repeat=4))
    for tau in points:
        shifted = [tuple(int(v) for v in np.array(m) + 2 * rng.integers(-3, 4, 4))
                   for m in allchars]
        ms = allchars + shifted
        values = theta_values(ms, tau, 1e-13)
        for m, v, want, scale in zip(ms, values, *_defining_sums(ms, tau, 1e-13)):
            assert abs(v - want) <= 1e-14 * scale, m
        for m, v in zip(allchars, values):
            single = theta_eval(m, tau, 1e-13)
            assert abs(v - single) <= 1e-14 * abs(single), m


def test_cached_theta_values_are_fresh_arrays():
    theta._lattice_sums.cache_clear()
    first = theta_values(FZ_TUPLE, TAU_B, 1e-13)
    expected = first.copy()
    first[:] = 0
    again = theta_values(list(FZ_TUPLE), TAU_B.copy(), 1e-13)
    assert again is not first and np.array_equal(again, expected)
    assert theta._lattice_sums.cache_info().misses == 1


def test_theta_constants_and_gradients_are_separate_entries_of_one_cache():
    """theta_values and theta_gradient of one odd characteristic at one tau
    and tol are two entries of the one lattice pass's cache, degree 0 and
    degree 1, in either order of the calls: the theta constant is 0 and the
    gradient is not, and every call returns a fresh, writable array."""
    m = (1, 0, 1, 1)
    calls = {"values": lambda: theta_values([m], TAU_B, 1e-13),
             "gradient": lambda: theta_gradient(m, TAU_B, 1e-13)}
    for order in (("values", "gradient"), ("gradient", "values")):
        theta._lattice_sums.cache_clear()
        got = {name: calls[name]() for name in order}
        assert theta._lattice_sums.cache_info().misses == 2
        assert np.array_equal(got["values"], [0])
        assert got["gradient"].shape == (2,) and np.abs(got["gradient"]).min() > 1e-3
        for name in order:
            want = got[name].copy()
            got[name][:] = 7
            again = calls[name]()
            assert again is not got[name] and again.flags.writeable
            assert np.array_equal(again, want)
        info = theta._lattice_sums.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)


def test_theta_expansion_cache_reads_the_characteristic_as_ints():
    theta._theta_series.cache_clear()
    t = theta_expansion((0, 1, 1, 0), 40)
    assert theta_expansion([0, 1, 1, 0], 40) is t
    assert theta_expansion(np.array([0, 1, 1, 0]), 40) is t
    assert theta._theta_series.cache_info().misses == 1


def test_unreduced_characteristics_keep_the_tail_bound():
    """theta[m + 2k] = (-1)^(m'.k'') theta[m], summed around the reduced
    shift, so far shifts keep the tail bound of the lattice radius."""
    classical = math.pi ** 0.25 / math.gamma(0.75)  # theta_00(i)
    assert abs(theta_eval((30, 0), 1j, 1e-12) - classical) < 1e-12
    assert abs(theta_eval((-31, 2), 1j, 1e-12) + theta_eval((1, 0), 1j, 1e-12)) < 1e-12
    tau = siegel_point(0.3j + 0.1, 0.25j, 0.3j - 0.2)
    tight = theta_values(list(itertools.product((0, 1), repeat=4)), tau, 1e-15)
    for shift in ((20, 0, 0, 0), (0, -14, 6, 2), (2, 2, -2, 4)):
        for code, m in enumerate(itertools.product((0, 1), repeat=4)):
            big = tuple(a + b for a, b in zip(m, shift))
            sign = (-1) ** ((m[0] * shift[2] + m[1] * shift[3]) // 2)
            assert abs(theta_eval(big, tau, 1e-10) - sign * tight[code]) < 1e-10, big


ODD_CHARS = [m for m in itertools.product((0, 1), repeat=4) if parity(m) == "odd"]
# the six odd characteristics and two unreduced shifts of them
GRADIENT_CHARS = ODD_CHARS + [(3, -2, 1, 5), (-1, 1, 4, -1)]
GRADIENT_POINTS = (TAU_A, TAU_B, TAU_GENERIC, siegel_point(0.3j + 0.1, 0.25j, 0.3j - 0.2))


def _gradient_points():
    """GRADIENT_POINTS, the worst-conditioned point where the `ez` suite
    evaluates E_Z (a level-(4,8) image of a sample point, smallest eigenvalue
    of Im tau near 0.023) and the ill-conditioned level-(4,8) images."""
    images = [apply_moebius(g, tau)
              for g in gammaZ_generators() + random_gamma48_elements(10, seed=3, small_c=True)
              for tau in EZ_SAMPLE_POINTS]
    worst = min(images, key=lambda tau: np.linalg.eigvalsh(tau.imag).min())
    assert 0.022 < np.linalg.eigvalsh(worst.imag).min() < 0.024
    return [*GRADIENT_POINTS, worst, *_ill_conditioned_points()]


def _defining_gradients(ms, tau, tol):
    """grad_z theta[m](tau, 0) / 2 pi i for each m in ms from its definition,
    term by term: the sum of x exp(pi i x.tau.x) i^(2x.m'') over
    x = a + m'/2 with a + m' // 2 in the square box of _lattice_radius in
    moment degree 1, widened by one on each side; the phase is reduced
    exactly in integers.  Returns the sums and the sums of (|x1| + |x2|)
    times the terms' absolute values."""
    R = _lattice_radius(float(np.linalg.eigvalsh(tau.imag).min()), tol, 2, 1) + 1
    box = np.arange(-R - 1, R + 2)
    sums, scales = [], []
    for m in ms:
        b1 = (2 * (box - m[0] // 2) + m[0])[:, None]  # b = 2x
        b2 = (2 * (box - m[1] // 2) + m[1])[None, :]
        x1, x2 = b1 / 2, b2 / 2
        terms = np.exp(1j * np.pi * (tau[0, 0] * x1 * x1 + 2 * tau[0, 1] * x1 * x2
                                     + tau[1, 1] * x2 * x2))
        terms = terms * np.array([1, 1j, -1, -1j])[(b1 * m[2] + b2 * m[3]) % 4]
        sums.append(np.array([(x1 * terms).sum(), (x2 * terms).sum()]))
        scales.append(float(((abs(x1) + abs(x2)) * abs(terms)).sum()))
    return sums, scales


def test_theta_gradient_matches_the_defining_sum():
    """The six odd characteristics and two unreduced shifts agree with the
    definition to 1e-14 of the weighted absolute sum, at the theta-table
    points, one with smallest eigenvalue of Im tau below 0.06, the
    worst-conditioned point of the `ez` suite and the ill-conditioned
    level-(4,8) images, where the gradient of theta[1011] is not zero."""
    assert len(ODD_CHARS) == 6
    assert min(np.linalg.eigvalsh(GRADIENT_POINTS[-1].imag)) < 0.06
    for tau in _gradient_points():
        for m, want, scale in zip(GRADIENT_CHARS, *_defining_gradients(GRADIENT_CHARS, tau, 1e-15)):
            got = theta_gradient(m, tau, 1e-15)
            assert got.shape == (2,)
            assert np.abs(got - want).max() <= 1e-15 + 1e-14 * scale, (m, tau)
        assert np.abs(theta_gradient((1, 0, 1, 1), tau)).max() > 1e-3


def test_theta_gradient_tail_bound_against_a_tighter_evaluation():
    for tau in _gradient_points():
        for m in GRADIENT_CHARS:
            tight = theta_gradient(m, tau, 1e-15)
            for tol in (1e-4, 1e-8, 1e-13):
                assert np.abs(theta_gradient(m, tau, tol) - tight).max() < tol, (m, tol)


def test_window_block_holds_one_term_of_each_mirror_pair():
    """The rows have no x1 < 0 and hold every window point, and each cell
    is the defining term exp(pi i x.tau.x), bit for bit, in every class, in
    one block and in chunks of rows, and a point's terms are the same alone
    and in a stack, whose chunks mix the points' rows.  (The 1/2 weight of
    the row x1 = 0 is checked by the defining-sum tests.)"""
    points = np.stack([TAU_GENERIC, _ill_conditioned_points()[0]])
    windows = theta._row_windows(points.imag, 1e-13)
    classes = ((0, 0), (0, 0.5), (0.5, 0), (0.5, 0.5))
    stacked = theta._row_table(points, windows, classes)
    in_stack = np.concatenate([theta._row_terms(stacked, *chunk)[2]
                               for chunk in stacked.layout.chunks])
    done = 0
    for p, tau in enumerate(points):
        _, t, R1, R2 = windows[p]
        count, width = 2 * (int(R1) // 2) + 2, 2 * math.ceil(R2) + 2
        rows = theta._row_table(points[p:p + 1], windows[p:p + 1], classes)
        layout = rows.layout
        x1, start = layout.x1, rows.base + 2 * layout.pairs  # pairs: the cells before a row, halved
        assert np.array_equal(layout.width, np.full(len(x1), width))
        for c, (a, b) in enumerate(classes):
            r1, s2 = x1[c * count:(c + 1) * count], start[c * count:(c + 1) * count]
            assert r1[0] == a and r1.min() >= 0 and r1.max() >= R1 and count % 2 == 0
            assert width % 2 == 0 and np.all((s2 - b) % 2 == 0)
            # the points just outside each row are outside its window
            assert np.all(s2 - 1 < -t * r1 - R2) and np.all(s2 + width > -t * r1 + R2)
        _, x2, terms = theta._row_terms(rows, 0, len(x1), 0)
        grid = start[:, None] + np.arange(width)
        assert np.array_equal(x2, grid.ravel())
        X1 = x1[:, None]
        want = np.exp(1j * np.pi * (tau[0, 0] * X1 * X1 + 2 * tau[0, 1] * X1 * grid
                                    + tau[1, 1] * grid * grid)).ravel()
        assert np.array_equal(terms, want)
        for step in (1, 3):
            chunks = [theta._row_terms(rows, a, min(a + step, len(x1)), a * width)[2]
                      for a in range(0, len(x1), step)]
            assert np.array_equal(np.concatenate(chunks), want)
        # the pass's chunks, of this point alone and in the stack
        alone = [theta._row_terms(rows, *chunk)[2] for chunk in layout.chunks]
        assert len(alone) == -(-len(x1) // (theta._CELL_BUDGET // width))
        assert len(alone) > 1 or p == 0  # the ill-conditioned point's rows come in chunks
        for got in (np.concatenate(alone), in_stack[done:done + len(want)]):
            assert np.array_equal(got, want)
        done += len(want)
    assert done == len(in_stack)


def _pass_cells(monkeypatch):
    """The cell counts of the chunks of terms that the passes build."""
    cells = []
    build = theta._row_terms

    def recorded(*args):
        built = build(*args)
        cells.append(built[-1].size)
        return built

    monkeypatch.setattr(theta, "_row_terms", recorded)
    return cells


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the largest single block of the six-theta claim before passes were chunked:
# two classes of 82 rows of 160 cells at the isotropic ill-conditioned image
_ONE_POINT_BLOCK = 16 * 2 * 82 * 160


def test_theta_values_pass_peaks_near_its_block(monkeypatch):
    """An uncached pass at the isotropic ill-conditioned image (rows up to
    R1 = 80, windows of R2 = 78.5) sums the rows x1 >= 0 of its two classes,
    82 rows of 160 cells each, and allocates at most 2.5 times their complex
    bytes at its peak: the terms are built in place, in chunks."""
    tau = _ill_conditioned_points()[2]
    assert theta._row_windows(tau.imag, 1e-13)[0][2:] == (80, 78.5)
    cells = _pass_cells(monkeypatch)
    theta._lattice_sums.cache_clear()
    theta._kept_layout.cache_clear()
    peak = _peak(theta_values, FZ_TUPLE, tau, 1e-13)
    classes = len({(m[0] % 2, m[1] % 2) for m in FZ_TUPLE})
    assert sum(cells) == classes * 82 * 160 and len(cells) > 1
    assert max(cells) <= theta._CELL_BUDGET + 160
    assert peak <= 2.5 * _ONE_POINT_BLOCK, peak / _ONE_POINT_BLOCK


def test_a_stacked_pass_peaks_no_higher_than_one_point(monkeypatch):
    """One pass over 33 points, the level-(4,8) images of the six-theta
    claim and the ill-conditioned images, for all 16 characteristics, or
    the gradient over them, builds over nine times the cells of the largest
    single point in chunks of the cell budget, and peaks below the bound
    that point's pass keeps."""
    points = np.stack(_level48_images() + _ill_conditioned_points())
    allchars = list(itertools.product((0, 1), repeat=4))
    cells = _pass_cells(monkeypatch)
    theta._lattice_sums.cache_clear()
    theta._kept_layout.cache_clear()
    peak = _peak(theta_values, allchars, points, 1e-13)
    assert sum(cells) > 9 * _ONE_POINT_BLOCK / 16
    assert max(cells) <= theta._CELL_BUDGET + 2 * 79 + 2
    assert peak <= 2.5 * _ONE_POINT_BLOCK, peak / _ONE_POINT_BLOCK
    theta._lattice_sums.cache_clear()
    theta._kept_layout.cache_clear()
    peak = _peak(theta_gradient, (1, 0, 1, 1), points, 1e-15)
    assert peak <= 2.5 * _ONE_POINT_BLOCK, peak / _ONE_POINT_BLOCK


def test_chunks_that_cross_points_keep_each_points_single_call_bits():
    """The ill-conditioned images, whose rows fill many chunks, and cheap
    points, in two orders, so that chunks hold the rows of more than one
    point: each point of the stack gets the bits of its single call, for
    all 16 characteristics and unreduced ones in degree 0, and for the odd
    gradient in degree 1 with one tol per point."""
    cheap = [TAU_A, TAU_B, TAU_GENERIC, EZ_SAMPLE_POINTS[2]]
    ill = _ill_conditioned_points()
    chars = list(itertools.product((0, 1), repeat=4)) + [(2, 1, 3, 0), (1, 2, 1, 3), (3, 3, 2, 1)]
    classes = theta._class_weights(np.array(chars, dtype=np.int64).tobytes(), 0)[0]
    interleaved = [p for pair in itertools.zip_longest(cheap, ill) for p in pair if p is not None]
    for order in (ill + cheap, interleaved):
        points = np.stack(order)
        layout = theta._row_table(points, theta._row_windows(points.imag, 1e-13), classes).layout
        assert any(layout.point[a] != layout.point[b - 1] for a, b, _ in layout.chunks)
        theta._lattice_sums.cache_clear()
        values = theta_values(chars, points, 1e-13)
        tols = np.geomspace(1e-15, 1e-9, len(points))
        gradients = theta_gradient((1, 0, 1, 1), points, tols)
        for p, tau in enumerate(points):
            assert values[p].tobytes() == theta_values(chars, tau, 1e-13).tobytes()
            assert gradients[p].tobytes() == theta_gradient((1, 0, 1, 1), tau, tols[p]).tobytes()


def _siegel_points_by_eigenvalues():
    """Points X + iY with Y of eigenvalues in [0.2, 3] along a drawn angle."""
    unit = st.floats(-1, 1)
    eig = st.floats(0.2, 3)

    def point(x11, x12, x22, l1, l2, angle):
        c, s = math.cos(angle), math.sin(angle)
        return siegel_point(x11 + 1j * (l1 * c * c + l2 * s * s), x12 + 1j * (l1 - l2) * c * s,
                            x22 + 1j * (l1 * s * s + l2 * c * c))

    return st.builds(point, unit, unit, unit, eig, eig, st.floats(0, math.pi))


@settings(max_examples=25, deadline=None)
@given(_siegel_points_by_eigenvalues())
def test_half_lattice_sums_match_the_defining_sums(tau):
    """One term of each pair x, -x stands for both: all 16 theta constants
    and the 6 odd gradients agree with their defining sums over the whole
    box to 1e-14 of the terms' absolute sums."""
    allchars = list(itertools.product((0, 1), repeat=4))
    values = theta_values(allchars, tau, 1e-16)
    for m, v, want, scale in zip(allchars, values, *_defining_sums(allchars, tau, 1e-16)):
        assert abs(v - want) <= 1e-14 * scale, m
    for m, want, scale in zip(ODD_CHARS, *_defining_gradients(ODD_CHARS, tau, 1e-16)):
        assert np.abs(theta_gradient(m, tau, 1e-16) - want).max() <= 1e-14 * scale, m


def _stated_tail_bound(lam, genus, degree, R):
    """The bound of _lattice_radius's docstring on the terms of the shells
    k >= R: shell R + j holds at most 9(R+1)(1+j) points in genus 2 (2, so
    at most 2(1+j), in genus 1), each at most exp(-pi lam R^2) q^j with
    q = exp(-2 pi lam R),
    and sum_j (1+j) q^j = 1/(1-q)^2; degree 1 weighs each point by
    |x_i| <= (R+1)(1+j), and sum_j (1+j)^2 q^j <= 2/(1-q)^3."""
    q = math.exp(-2 * math.pi * lam * R)
    points = 9 * (R + 1) if genus == 2 else 2
    bound = points * math.exp(-math.pi * lam * R * R) / (1 - q) ** 2
    return bound * (R + 1) * 2 / (1 - q) if degree else bound


def test_lattice_radius_is_the_smallest_radius_its_bound_allows():
    """The returned radius is one shell past the smallest R >= 1 whose stated
    tail bound is below tol, in moment degree 0 and 1.  Near lam = 0.01 the
    degree-1 radius is 3 larger than the degree-0 one, so a rule that
    ignores the degree fails here."""
    for lam in (0.01, 0.03, 0.1, 0.3, 1.0, 3.0):
        for tol in (1e-4, 1e-8, 1e-13, 1e-16):
            for genus, degree in ((1, 0), (2, 0), (2, 1)):
                R = _lattice_radius(lam, tol, genus, degree) - 1
                assert _stated_tail_bound(lam, genus, degree, R) < tol, (lam, tol, genus, degree)
                assert R == 1 or _stated_tail_bound(lam, genus, degree, R - 1) >= tol, \
                    (lam, tol, genus, degree)
    assert [_lattice_radius(0.01, 1e-4, 2, d) for d in (0, 1)] == [23, 26]


def test_theta_gradient_rejects_even_characteristics():
    for m in [(0, 0, 0, 0), (1, 1, 0, 0), (2, 0, 1, 1), (1, 0)]:
        with pytest.raises(ValueError):
            theta_gradient(m, TAU_A)


_NUMERIC_SUMS = {
    "theta_values": lambda tol: theta_values(FZ_TUPLE, TAU_B, tol),
    "theta_gradient": lambda tol: theta_gradient((1, 0, 1, 1), TAU_B, tol),
    "theta_eval": lambda tol: theta_eval((0, 1), 1j, tol),
}


@pytest.mark.parametrize("name", _NUMERIC_SUMS)
@pytest.mark.parametrize("tol, message", [(0.0, "positive"), (-1e-8, "positive"),
                                          (math.nan, "positive"), (math.inf, "finite"),
                                          (1e-320, "unreachable")])
def test_numeric_sums_reject_a_tol_they_cannot_meet(name, tol, message):
    """No tail guarantee unless 0 < tol < inf, and none where the window
    rule's floats cannot resolve tol: at 1e-320 the ratio of its bound to tol
    overflows."""
    with pytest.raises(ValueError, match=message):
        _NUMERIC_SUMS[name](tol)


def _reference_siegel_check(tau) -> bool:
    """The acceptance rule of check_siegel_point transcribed as it was on
    numpy: np.allclose for symmetry, then the leading minors by np.linalg.det."""
    tau = np.asarray(tau, dtype=complex)
    Y = tau.imag
    return bool(np.allclose(tau, tau.T)) and not (Y[0, 0] <= 0 or np.linalg.det(Y) <= 0)


def test_check_siegel_point_accepts_what_the_numpy_rule_accepts():
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(400):
        y00, y11 = rng.uniform(-0.5, 3, 2)
        y01 = rng.uniform(-2, 2)
        re = rng.uniform(-1, 1, 3)
        cases.append([[re[0] + 1j * y00, re[1] + 1j * y01], [re[1] + 1j * y01, re[2] + 1j * y11]])
    for scale in (1e-160, 1e-3, 1.0, 1e150):
        for rel in (-1e-9, -1e-15, -3e-16, 0.0, 3e-16, 1e-15, 1e-9):
            # a determinant at the edge of rounding: y11 = y01^2 / y00 (1 + rel)
            y00, y01 = 0.7 * scale, 1.3 * scale
            y11 = y01 * y01 / y00 * (1 + rel)
            cases.append([[1j * y00, 1j * y01], [1j * y01, 1j * y11]])
    base = complex(0.4, 1.1)
    for step in (1e-8, 1e-5 * abs(base), 1e-8 + 1e-5 * abs(base)):
        for k in (0.999, 1.0, 1.001):
            # off-diagonal entries at the edge of the symmetry tolerance
            cases.append([[2j, base], [base + k * step, 2j]])
            cases.append([[2j, base + k * step], [base, 2j]])
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)):
        for i, j in ((0, 0), (0, 1), (1, 1)):
            tau = np.array([[2j, 0.5j], [0.5j, 2j]])
            tau[i, j] = bad
            tau[j, i] = bad
            cases.append(tau)
    with np.errstate(all="ignore"):
        for tau in cases:
            try:
                check_siegel_point(tau)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == _reference_siegel_check(tau), tau
    with pytest.raises(ValueError):
        check_siegel_point(np.eye(3) * 1j)


# ---------------------------------------------------------------------------
# symplectic machinery

def test_generators_are_symplectic_level2():
    for M in E_GENERATORS:
        assert is_symplectic(M)
        assert in_gamma2(M)
    assert round(float(np.linalg.det(E5))) == 1


def test_congruence_predicates():
    t8 = translation([[8, 0], [0, 8]])
    assert in_gamma48(t8) and in_gamma(t8, 4) and in_igusa_group(t8, 2)
    t4 = translation([[4, 0], [0, 4]])
    assert in_gamma(t4, 4) and not in_gamma48(t4)
    assert in_igusa_group(translation([[4, 2], [2, 4]]), 2)


def _membership_samples() -> list:
    """Matrices in and out of each congruence group of the package: the ten
    generators, J, translations by 8, 4 and (4, 2; 2, 4), words of level 2
    and (4, 8), 1, -1, 3 (not symplectic) and an integer matrix with the
    diagonal blocks of the identity and a lower block of 2 (not symplectic)."""
    lower = np.eye(4, dtype=np.int64)
    lower[2, 1] = 2
    return (list(E_GENERATORS) + [J4, translation([[8, 0], [0, 8]]), translation([[4, 0], [0, 4]]),
                                  translation([[4, 2], [2, 4]]), np.eye(4, dtype=np.int64),
                                  -np.eye(4, dtype=np.int64),
                                  3 * np.eye(4, dtype=np.int64), lower]
            + random_gamma2_elements(6, seed=11) + random_gamma48_elements(6, seed=12))


def test_membership_tests_on_a_stack_agree_with_single_matrices():
    """Each congruence test on a stack gives the bool array of its single
    calls, which give bools, and keeps the stack's shape."""
    mats = _membership_samples()
    stack = np.stack(mats)
    for test, args in ((is_symplectic, ()), (in_gamma, (2,)), (in_gamma, (4,)), (in_gamma2, ()),
                       (in_igusa_group, (2,)), (in_igusa_group, (4,)), (in_gamma48, ())):
        single = [test(M, *args) for M in mats]
        assert all(type(v) is bool for v in single), test
        got = test(stack, *args)
        assert got.dtype == bool and got.tolist() == single, test
        assert test(stack.reshape(2, -1, 4, 4), *args).tolist() == np.reshape(single, (2, -1)).tolist()
        assert any(single) and not all(single), test


def test_random_gamma48_elements_checks_its_output_in_one_call(monkeypatch):
    """The words come from the module's generators, and in_gamma48 checks
    them all, as one stack: an element it rejects is caught."""
    real = theta.in_gamma48
    calls = []

    def spy(M):
        calls.append(np.shape(M))
        return real(M)

    monkeypatch.setattr(theta, "in_gamma48", spy)
    words = random_gamma48_elements(10, seed=2)
    assert calls == [(10, 4, 4)] and all(real(M) for M in words)
    monkeypatch.setattr(theta, "in_gamma48", lambda M: np.arange(len(M)) != 3)
    with pytest.raises(AssertionError):
        random_gamma48_elements(10, seed=2)


def test_stacked_level2_tables_equal_the_single_matrix_tables():
    """The tables of a stack, from one action pass, are row by row those of
    each matrix alone and the phases of its own action; the characters of
    a stack are those of each matrix; a stack with one matrix off the
    level-2 group is refused as that matrix is."""
    words = random_gamma2_elements(12, seed=7) + list(E_GENERATORS)
    stack = np.stack(words)
    tables = theta._tables(stack.tobytes(), stack.shape)
    chars = list(itertools.product((0, 1), repeat=4))
    for k, M in enumerate(words):
        one = theta._table(M.tobytes(), M.shape)
        assert (tables.n, tuple(tables.eighths[k].tolist()), tuple(tables.weights[k].tolist()),
                int(tables.kappa[k])) == one
        assert tables.eighths[k].tolist() == theta._action(M, chars)[1].tolist()
    pairs = np.array(chars)[np.array(list(itertools.combinations(range(16), 2)))]
    assert np.array_equal(character_eighths(pairs, stack),
                          [character_eighths(pairs, M) for M in words])
    assert np.array_equal(character_eighths(pairs, stack.reshape(2, -1, 4, 4)),
                          character_eighths(pairs, stack).reshape(2, -1, len(pairs)))
    for bad in (J4, translation([[1, 0], [0, 0]]), E6 + 0.25):
        mixed = np.stack(words[:3] + [bad] + words[3:5])
        for call in (lambda M: character_eighths(pairs[:4], M),
                     lambda M: igusa_residuals([(0, 0, 0, 0)], M, TAU_A)):
            with pytest.raises(ValueError) as single:
                call(bad)
            with pytest.raises(ValueError) as stacked:
                call(mixed)
            assert str(stacked.value) == str(single.value) == \
                "character only defined on the level-2 group"


def _act(M, m):
    """(M . m reduced mod 2, phase) of the theta transformation law."""
    raw, eighths = theta._action(M, [m])
    return tuple((raw[0] % 2).tolist()), Fraction(int(eighths[0]), 8)


def test_characteristic_action_identity_and_minus():
    eye = np.eye(4, dtype=np.int64)
    for m in even_characteristics(2):
        red, phi = _act(eye, m)
        assert red == m and phi == 0
        red, phi = _act(E5, m)
        assert red == m and phi == 0


def test_characteristic_action_inversion_swaps():
    m = (1, 0, 0, 1)
    red, _ = _act(J4, m)
    assert red == (0, 1, 1, 0)


def test_action_respects_group_law_mod2():
    for M1 in E_GENERATORS[:4]:
        for M2 in E_GENERATORS[4:]:
            for m in even_characteristics(2):
                step = _act(M2, m)[0]
                twice = _act(M1, step)[0]
                joint = _act(M1 @ M2, m)[0]
                assert joint == twice


def test_squared_transformation_law():
    worst = 0.0
    for M in random_gamma2_elements(20, seed=1):
        for tau in (TAU_A, TAU_B):
            worst = max(worst, verify_igusa_transformation(
                even_characteristics(2), M, tau, 1e-13))
    assert worst < 1e-8


def test_verify_igusa_rejects_odd_and_outside_level2():
    with pytest.raises(ValueError):
        verify_igusa_transformation([(1, 0, 1, 0)], E_GENERATORS[0], TAU_A)
    with pytest.raises(ValueError):
        verify_igusa_transformation([(0, 0, 0, 0)], J4, TAU_A)


def test_transformation_law_takes_an_array_of_characteristics():
    # theta_values and character_eighths read an int array of characteristics;
    # the law's residuals read it as they read the list
    evens = even_characteristics(2)
    for M in random_gamma2_elements(4, seed=3):
        for tau in (TAU_A, TAU_B):
            assert igusa_residuals(np.array(evens), M, tau, 1e-13) == \
                igusa_residuals(evens, M, tau, 1e-13)
            assert verify_igusa_transformation(np.array(evens), M, tau, 1e-13) == \
                verify_igusa_transformation(evens, M, tau, 1e-13)
    assert igusa_residuals(np.zeros((0, 4), np.int64), J4 @ J4, TAU_A)[1] is None


def test_wrong_character_fails_the_tuple_part_off_the_vanishing_locus(monkeypatch):
    """The ten-theta product vanishes on the diagonal, so the tuple part is
    skipped there; at TAU_B it is checked, and i chi in place of chi fails."""
    evens = even_characteristics(2)
    words = random_gamma2_elements(20, seed=1)
    assert all(igusa_residuals(evens, M, TAU_A, 1e-13)[1] is None for M in words)
    right = max(igusa_residuals(evens, M, TAU_B, 1e-13)[1] for M in words)
    real = theta.character_value
    monkeypatch.setattr(theta, "character_value", lambda t: 1j * real(t))
    wrong = max(igusa_residuals(evens, M, TAU_B, 1e-13)[1] for M in words)
    assert right < 1e-12 and wrong > 1e-4


def test_wrong_character_fails_the_tuple_part_where_the_product_is_small(monkeypatch):
    """At (4i, 0.5i, 4i) the ten-theta product is below the default --tol,
    yet no factor is near the evaluation tolerance: the tuple part is checked
    on every word, and i chi in place of chi reads O(1), not the product's size."""
    evens = even_characteristics(2)
    words = random_gamma2_elements(20, seed=1)
    tau = siegel_point(4j, 0.5j, 4j)
    factors = np.abs([theta_eval(m, tau, 1e-13) for m in evens])
    assert np.prod(factors) < 1e-8 and factors.min() > 1e-3
    right = [igusa_residuals(evens, M, tau, 1e-13)[1] for M in words]
    real = theta.character_value
    monkeypatch.setattr(theta, "character_value", lambda t: 1j * real(t))
    wrong = [igusa_residuals(evens, M, tau, 1e-13)[1] for M in words]
    assert max(right) < 1e-8 and min(wrong) > 0.1


# ---------------------------------------------------------------------------
# stacks of points

def _claim_samples():
    """(M, tau, characteristics) of every evaluation of theta-table: its two
    points under the 20 level-2 words of claim 1, TAU_GENERIC under the ten
    generators (claim 2), and the two points under the 15 elements of claim 4."""
    evens = even_characteristics(2)
    samples = [(M, tau, evens) for M in random_gamma2_elements(20, seed=1) for tau in (TAU_A, TAU_B)]
    samples += [(M, TAU_GENERIC, evens) for M in E_GENERATORS]
    samples += [(M, tau, FZ_TUPLE) for M in gammaZ_generators() + random_gamma48_elements(10, seed=2)
                for tau in (TAU_A, TAU_B)]
    return samples


def test_a_stack_equals_its_points_one_by_one():
    """apply_moebius, cocycle, theta_values and fz_eval on a stack, of one
    or two stack axes, give each point the bits of its single call, at every
    claim sample of theta-table and the ill-conditioned level-(4,8) images;
    theta_gradient with one tol per point gives each point the bits of a
    single call at its tol."""
    samples = _claim_samples()
    Ms, taus = np.stack([s[0] for s in samples]), np.stack([s[1] for s in samples])
    images, cocycles = apply_moebius(Ms, taus), cocycle(Ms, taus)
    for k, (M, tau, _) in enumerate(samples):
        assert np.array_equal(images[k], apply_moebius(M, tau))
        assert np.array_equal(cocycles[k], cocycle(M, tau))
    points = np.concatenate([images, np.stack(_ill_conditioned_points() + list(GRADIENT_POINTS))])
    grid = points.reshape(3, 29, 2, 2)
    allchars = list(itertools.product((0, 1), repeat=4))
    values, fz = theta_values(allchars, grid, 1e-13), fz_eval(grid, 1e-13)
    assert values.shape == (3, 29, 16) and fz.shape == (3, 29)
    tols = np.geomspace(1e-15, 1e-9, 87).reshape(3, 29)
    grads = theta_gradient((1, 0, 1, 1), grid, tols)
    assert grads.shape == (3, 29, 2)
    for (i, j), tau in zip(np.ndindex(3, 29), points):
        assert np.array_equal(values[i, j], theta_values(allchars, tau, 1e-13))
        assert fz[i, j] == fz_eval(tau, 1e-13)
        assert np.array_equal(grads[i, j], theta_gradient((1, 0, 1, 1), tau, float(tols[i, j])))


# ---------------------------------------------------------------------------
# 2x2 algebra in closed form

def _complex_matrices(seed: int, count: int = 400) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))


def _positive_definite(seed: int, count: int, digits: tuple) -> np.ndarray:
    """Real symmetric matrices with eigenvalues high in [0.1, 10] and
    high / 10^k, k uniform in digits, along a drawn angle."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0, math.pi, count)
    c, s = np.cos(angle), np.sin(angle)
    high = rng.uniform(0.1, 10, count)
    low = high / 10 ** rng.uniform(*digits, count)
    Y = np.empty((count, 2, 2))
    Y[:, 0, 0] = low * c * c + high * s * s
    Y[:, 0, 1] = Y[:, 1, 0] = (low - high) * c * s
    Y[:, 1, 1] = low * s * s + high * c * c
    return Y


def _hard_points() -> np.ndarray:
    """The level-(4,8) images of the six-theta claim, with the ill-conditioned
    ones among them, as one stack."""
    return np.stack(_level48_images() + _ill_conditioned_points())


def test_closed_forms_agree_with_lapack():
    """det2, inv2 and min_eigenvalue_bound agree with np.linalg's det, inv
    and smallest eigvalsh within 16 eps times the condition number, relative
    to the value (the largest entry of the inverse), on seeded random stacks,
    the level-(4,8) and ill-conditioned points, their Im tau and their
    cocycles under level-2 words; mul2 agrees with @ within 4 eps of |X| |Y|."""
    eps = np.finfo(float).eps
    points = _hard_points()
    words = np.stack(random_gamma2_elements(20, seed=1))[:, None]
    for X in (_complex_matrices(3), points, cocycle(words, points).reshape(-1, 2, 2)):
        kappa = np.linalg.cond(X)
        want = np.linalg.det(X)
        assert (np.abs(theta.det2(X) - want) <= 16 * eps * kappa * np.abs(want)).all()
        want = np.linalg.inv(X)
        scale = np.abs(want).max((-2, -1))
        assert (np.abs(theta.inv2(X) - want).max((-2, -1)) <= 16 * eps * kappa * scale).all()
        Y = X[::-1]
        assert (np.abs(theta.mul2(X, Y) - X @ Y) <= 4 * eps * (np.abs(X) @ np.abs(Y))).all()
    for Y in (_positive_definite(1, 400, (0, 8)), points.imag):
        Y = np.triu(Y) + np.swapaxes(np.triu(Y, 1), -1, -2)  # symmetric as the bound reads it
        want = np.linalg.eigvalsh(Y)[..., 0]
        assert (np.abs(theta.min_eigenvalue_bound(Y) - want)
                <= 16 * eps * np.linalg.cond(Y) * want).all()


def test_closed_forms_give_each_matrix_of_a_stack_its_single_bits():
    """mul2, det2, inv2 and min_eigenvalue_bound on a stack, of one or two
    stack axes or broadcast against one matrix, and apply_moebius and
    cocycle with one matrix against a stack of points and a stack of level-2
    words against one point, give each entry the bits of its single call."""
    X, Y = _complex_matrices(4), _complex_matrices(5)
    sym = _positive_definite(6, 400, (0, 12))
    grid = X.reshape(20, 20, 2, 2)
    for k, (x, y) in enumerate(zip(X, Y)):
        i, j = divmod(k, 20)
        assert np.array_equal(theta.mul2(X, Y)[k], theta.mul2(x, y))
        assert np.array_equal(theta.mul2(X[0], Y)[k], theta.mul2(X[0], y))
        assert np.array_equal(theta.mul2(grid, Y[0])[i, j], theta.mul2(x, Y[0]))
        assert theta.det2(X)[k] == theta.det2(x) == theta.det2(grid)[i, j]
        assert np.array_equal(theta.inv2(X)[k], theta.inv2(x))
        assert np.array_equal(theta.inv2(grid)[i, j], theta.inv2(x))
        assert theta.min_eigenvalue_bound(sym)[k] == theta.min_eigenvalue_bound(sym[k])
    points = _hard_points()
    words = np.stack(random_gamma2_elements(20, seed=1))
    for M, tau, at in ((E6, points, lambda k: (E6, points[k])),
                       (words, TAU_GENERIC, lambda k: (words[k], TAU_GENERIC))):
        images, cocycles = apply_moebius(M, tau), cocycle(M, tau)
        for k in range(len(images)):
            assert np.array_equal(images[k], apply_moebius(*at(k)))
            assert np.array_equal(cocycles[k], cocycle(*at(k)))


def test_cocycle_determinant_law_on_level2_words():
    """det J(MN, tau) = det J(M, N tau) det J(N, tau), J(M, tau) = C tau + D,
    for every pair of 12 seeded level-2 words at the theta-table points and
    the ill-conditioned images, to a relative 1e-13."""
    words = np.stack(random_gamma2_elements(12, seed=5))
    M, N = words[:, None, None], words[None, :, None]
    taus = np.stack([TAU_A, TAU_B, TAU_GENERIC, *_ill_conditioned_points()])
    whole = theta.det2(cocycle(M @ N, taus))
    parts = theta.det2(cocycle(M, apply_moebius(N, taus))) * theta.det2(cocycle(N, taus))
    assert whole.shape == (12, 12, 6)
    assert (np.abs(whole - parts) <= 1e-13 * np.abs(whole)).all()


def _below_the_smallest_eigenvalue(Y, lam) -> bool:
    """lam <= lambda_min of the symmetric [[a, b], [b, c]] read off Y's upper
    triangle, exactly: lam <= (a + c)/2 and (a - lam)(c - lam) - b^2 >= 0."""
    (a, b), (_, c) = [[Fraction(float(v)) for v in row] for row in Y]
    lam = Fraction(float(lam))
    return lam <= (a + c) / 2 and (a - lam) * (c - lam) - b * b >= 0


def test_min_eigenvalue_bound_is_below_the_exact_eigenvalue():
    """Read as exact rationals, every bound lies below the smallest
    eigenvalue: on seeded matrices of condition numbers 1 to 1e16 and on the
    Im tau of the level-(4,8) and ill-conditioned points (smallest
    eigenvalues down to 0.0014).  The unguarded det / lambda_max, computed
    the same way with no margin, lies above it at some of both: the margin
    is needed."""
    points = _hard_points()
    assert 0.0013 < np.linalg.eigvalsh(points.imag)[:, 0].min() < 0.0015
    for Y in (_positive_definite(7, 300, (0, 8)), _positive_definite(8, 300, (8, 16)), points.imag):
        lam = theta.min_eigenvalue_bound(Y)
        assert all(_below_the_smallest_eigenvalue(y, v) for y, v in zip(Y, lam))
        a, b, c = Y[:, 0, 0], Y[:, 0, 1], Y[:, 1, 1]
        half = (a - c) / 2
        unguarded = (a * c - b * b) / ((a + c) / 2 + np.sqrt(half * half + b * b))
        assert not all(_below_the_smallest_eigenvalue(y, v) for y, v in zip(Y, unguarded))
    assert (theta.min_eigenvalue_bound(points.imag) > 0).all()


def test_single_points_keep_their_shapes_and_stacks_broadcast():
    """A single point is a stack of one with the shapes and types of a
    single call; matrices (..., 4, 4) and points (..., 2, 2) broadcast."""
    evens = even_characteristics(2)
    assert theta_values(FZ_TUPLE, TAU_B).shape == (6,)
    assert theta_gradient((1, 0, 1, 1), TAU_B).shape == (2,)
    assert type(fz_eval(TAU_B)) is complex
    assert apply_moebius(E6, TAU_B).shape == cocycle(E6, TAU_B).shape == (2, 2)
    squared, tup = igusa_residuals(evens, E6, TAU_B, 1e-13)
    assert type(squared) is float and type(tup) is float
    assert igusa_residuals(evens, E6, TAU_A, 1e-13)[1] is None
    assert type(verify_igusa_transformation(evens, E6, TAU_B, 1e-13)) is float
    Ms = np.stack(random_gamma2_elements(3, seed=1))[:, None]  # (3, 1, 4, 4)
    pts = np.stack([TAU_A, TAU_B])  # (2, 2, 2)
    images = apply_moebius(Ms, pts)
    assert images.shape == (3, 2, 2, 2) and cocycle(Ms, pts).shape == (3, 2, 2, 2)
    assert theta_values(FZ_TUPLE, images).shape == (3, 2, 6)
    assert theta_values([], images).shape == (3, 2, 0)
    assert fz_eval(images).shape == (3, 2)
    assert theta_gradient((1, 0, 1, 1), images, np.array([1e-12, 1e-10])).shape == (3, 2, 2)
    with pytest.raises(ValueError):
        theta_gradient((1, 0, 1, 1), images, np.array([1e-12, 1e-11, 1e-10]))
    squared, tup = igusa_residuals(evens, Ms, pts, 1e-13)
    assert squared.shape == tup.shape == verify_igusa_transformation(evens, Ms, pts, 1e-13).shape == (3, 2)


def test_check_siegel_point_names_the_bad_point_of_a_stack():
    """A stack passes when every point does; one bad point is named by its
    index, the first one when there are more, with the reason a single call
    gives, which names no index; the lattice passes check their stacks."""
    good = np.stack([TAU_A, TAU_B, TAU_GENERIC, TAU_A])
    check_siegel_point(good)
    check_siegel_point(good.reshape(2, 2, 2, 2))
    asym, flat = good.copy(), good.copy()
    asym[2, 0, 1] += 1
    flat[3] = flat[3].real - 1j * flat[3].imag
    flat[1, 1, 1] = 0.1j
    for stack, message in ((asym, "period matrix must be symmetric at point 2"),
                           (flat, "imaginary part must be positive definite at point 1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_siegel_point(stack)
        with pytest.raises(ValueError, match=f"^{message}$"):
            theta_values(FZ_TUPLE, stack)
    with pytest.raises(ValueError, match=r"^imaginary part must be positive definite at point \(1, 1\)$"):
        check_siegel_point(np.concatenate([good[:3], flat[3:]]).reshape(2, 2, 2, 2))
    with pytest.raises(ValueError, match="^imaginary part must be positive definite$"):
        check_siegel_point(flat[3])
    with pytest.raises(ValueError, match="^period matrix must be 2x2$"):
        theta_gradient((1, 0, 1, 1), np.array([2j, 1j]))


def test_igusa_residuals_on_a_stack_give_nan_where_a_point_gives_none():
    """On claim 1's 20 words by its two points, the stacked residuals are
    the single calls', with NaN for the tuple part where a single call gives
    None: at TAU_A, where the ten-theta product vanishes, so 20 tuple checks
    remain; an odd tuple gives NaN everywhere."""
    evens = even_characteristics(2)
    words = random_gamma2_elements(20, seed=1)
    squared, tup = igusa_residuals(evens, np.stack(words)[:, None], np.stack([TAU_A, TAU_B]), 1e-13)
    worst = verify_igusa_transformation(evens, np.stack(words)[:, None], np.stack([TAU_A, TAU_B]), 1e-13)
    for k, M in enumerate(words):
        for j, tau in enumerate((TAU_A, TAU_B)):
            s1, t1 = igusa_residuals(evens, M, tau, 1e-13)
            assert squared[k, j] == s1
            assert np.isnan(tup[k, j]) if t1 is None else tup[k, j] == t1
            assert worst[k, j] == verify_igusa_transformation(evens, M, tau, 1e-13)
    assert np.isnan(tup[:, 0]).all() and np.count_nonzero(~np.isnan(tup)) == 20
    assert np.isnan(igusa_residuals(evens[:3], np.stack(words), TAU_B, 1e-13)[1]).all()


def kappa_squared(M: np.ndarray) -> int:
    """kappa(M)^2 = (-1)^(trace(D - 1)/2), valid on the level-2 group."""
    if not in_gamma2(M):
        raise ValueError("kappa^2 formula requires a level-2 matrix")
    g = M.shape[0] // 2
    return (-1) ** ((int(np.trace(M[g:, g:])) - g) // 2)


def test_kappa_squared_values():
    assert kappa_squared(E5) == 1
    values = set()
    for M in random_gamma2_elements(10, seed=4):
        values.add(kappa_squared(M))
        assert theta._level2_table(M).kappa == (kappa_squared(M) == -1)
    assert values == {-1, 1}
    with pytest.raises(ValueError):
        kappa_squared(np.eye(4, dtype=np.int64) * 3)


# ---------------------------------------------------------------------------
# pair characters

def test_table1_spec_values():
    evens = even_characteristics(2)
    for m1 in evens[:3]:
        for m2 in evens[3:6]:
            assert table1_char(m1, m2, 5) == GaussInt(1)
    assert table1_char_tuple(FZ_TUPLE, 6) == GaussInt(-1)
    # a pair with total first-entry sum 2
    assert table1_char((1, 0, 0, 0), (1, 1, 0, 0), 7) == GaussInt(-1)


def test_table1_matches_exact_character():
    evens = even_characteristics(2)
    for i, M in enumerate(E_GENERATORS, start=1):
        for m1, m2 in itertools.combinations(evens, 2):
            exact = character_as_gauss(slash_character_exact((m1, m2), M))
            assert exact == table1_char(m1, m2, i), (i, m1, m2)


def test_table1_matches_numeric_ratio():
    evens = even_characteristics(2)
    tau = TAU_GENERIC
    for i, M in enumerate(E_GENERATORS, start=1):
        mtau = apply_moebius(M, tau)
        detj = complex(np.linalg.det(cocycle(M, tau)))
        th_m = {m: theta_eval(m, mtau, 1e-13) for m in evens}
        th_0 = {m: theta_eval(m, tau, 1e-13) for m in evens}
        for m1, m2 in itertools.combinations(evens, 2):
            ratio = th_m[m1] * th_m[m2] / (th_0[m1] * th_0[m2] * detj)
            assert abs(ratio - table1_char(m1, m2, i).to_complex()) < 1e-8


def _drawn_tuples():
    """The 120 pairs of the 16 characteristics mod 2, F_Z's six-tuple, and
    drawn 2r-tuples for r = 1, 2, 3, some with unreduced entries."""
    allchars = list(itertools.product((0, 1), repeat=4))
    rng = np.random.default_rng(20)
    tuples = [list(itertools.combinations(allchars, 2)), [FZ_TUPLE]]
    for r in (1, 2, 3):
        for low, high in ((0, 2), (-3, 4)):
            tuples.append([tuple(map(tuple, rng.integers(low, high, (2 * r, 4)).tolist()))
                           for _ in range(40)])
    return tuples


def test_scalar_and_array_closed_forms_agree():
    """table1_char_tuple, one tuple in Python ints, and table1_eighths, many
    tuples in int arrays, read one closed form: on the 120 pairs and drawn
    2r-tuples up to r = 3, on every generator, the array's eighths are twice
    the scalar's quarter exponent."""
    for ms in _drawn_tuples():
        for i in range(1, 11):
            eighths = table1_eighths(ms, i)
            assert eighths.shape == (len(ms),) and eighths.dtype == np.int64
            assert [table1_char_tuple(t, i) for t in ms] == [i_power(e // 2) for e in eighths]
            assert not (eighths % 2).any()


def test_array_characters_match_the_scalar_ones():
    """character_eighths gives slash_character_exact of each tuple, and
    pair_character_any_parity of each pair, in eighths, on the ten
    generators and on level-2 words; it rejects what they reject."""
    mats = list(E_GENERATORS) + random_gamma2_elements(6, seed=7)
    for ms in _drawn_tuples():
        for M in mats:
            got = [Fraction(int(e), 8) for e in character_eighths(ms, M)]
            assert got == [slash_character_exact(t, M) for t in ms]
            if len(ms[0]) == 2:
                assert got == [pair_character_any_parity(*t, M) for t in ms]
    with pytest.raises(ValueError):
        character_eighths([FZ_TUPLE], J4)


def test_table1_rejects_bad_input():
    with pytest.raises(ValueError):
        table1_char((0, 0, 0, 0), (0, 0, 0, 1), 11)
    with pytest.raises(ValueError):
        table1_char_tuple((), 1)
    with pytest.raises(ValueError):
        table1_eighths(np.zeros((2, 3, 4), dtype=np.int64), 1)
    with pytest.raises(ValueError):
        table1_eighths(np.zeros((2, 2, 4), dtype=np.int64), 0)


def test_odd_pairs_via_genus3_embedding():
    """The closed-form pair characters extend to odd characteristics.

    Verified through the even genus-3 cover, where the pair product is not
    identically zero: equal-parity pairs agree with the closed form on all
    ten generators; mixed-parity pairs agree except at the central element,
    where the odd member contributes its sign under negation.
    """
    allchars = [(a, b, c, d) for a in (0, 1) for b in (0, 1)
                for c in (0, 1) for d in (0, 1)]
    for i, M in enumerate(E_GENERATORS, start=1):
        for m1, m2 in itertools.combinations(allchars, 2):
            chi3 = character_as_gauss(pair_character_any_parity(m1, m2, M))
            expected = table1_char(m1, m2, i)
            mixed = (parity(m1) == "odd") != (parity(m2) == "odd")
            if mixed and i == 5:
                expected = expected * GaussInt(-1)
            assert chi3 == expected, (i, m1, m2)


def _reference_term(M, m) -> Fraction:
    """Igusa's law for one characteristic, transcribed as a test-only
    reference: the phase -quad/8 + lin/4 of m under M, plus 1/2 when the
    unreduced image M.m = m M^-1 + (diag CD^T, diag AB^T) differs from its
    mod-2 reduction by a sign (-1)^(m'.k'') with k'' the shift of m''/2."""
    g = M.shape[0] // 2
    A, B, C, D = M[:g, :g], M[:g, g:], M[g:, :g], M[g:, g:]
    mp, mpp = np.array(m[:g]), np.array(m[g:])
    inverse = np.block([[D.T, -B.T], [-C.T, A.T]])
    raw = np.array(m) @ inverse + np.concatenate([np.diag(C @ D.T), np.diag(A @ B.T)])
    red = raw % 2
    quad = (int(mp @ (D.T @ B) @ mp) - 2 * int(mp @ (B.T @ C) @ mpp)
            + int(mpp @ (C.T @ A) @ mpp))
    lin = int((mp @ D.T - mpp @ C.T) @ np.diag(A @ B.T))
    sign = int(red[:g] @ ((raw[g:] - red[g:]) // 2)) % 2
    return Fraction(-quad, 8) + Fraction(lin, 4) + Fraction(sign, 2)


def _evenize_genus3(m):
    """The even genus-3 lift (a, b, e, c, d, e) of m, e its parity."""
    a, b, c, d = m
    extra = 1 if parity(m) == "odd" else 0
    return (a, b, extra, c, d, extra)


def _embed_genus3(M):
    """M in genus 3, with the identity on the third coordinate."""
    out = np.eye(6, dtype=np.int64)
    out[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])] = M
    return out


def _reference_character(ms, M, terms) -> Fraction:
    g = M.shape[0] // 2
    kappa_odd = (int(np.trace(M[g:, g:])) - g) // 2 % 2
    t = Fraction(kappa_odd * (len(ms) // 2), 2)
    for m in ms:
        if m not in terms:
            terms[m] = _reference_term(M, m)
        t += terms[m]
    return t % 1


def test_exact_character_matches_the_per_characteristic_reference():
    """13,125 cases: 35 matrices (the ten generators, 20 level-2 words and
    the five stabilizer generators) times 45 even pairs, 120 any-parity
    pairs through the genus-3 embedding and 210 six-tuples."""
    evens = even_characteristics(2)
    allchars = list(itertools.product((0, 1), repeat=4))
    mats = list(E_GENERATORS) + random_gamma2_elements(20, seed=1) + gammaZ_generators()
    cases = 0
    for M in mats:
        terms, terms3 = {}, {}
        M3 = _embed_genus3(M)
        for ms in itertools.chain(itertools.combinations(evens, 2),
                                  itertools.combinations(evens, 6)):
            assert slash_character_exact(ms, M) == _reference_character(ms, M, terms), ms
            cases += 1
        for m1, m2 in itertools.combinations(allchars, 2):
            lifted = (_evenize_genus3(m1), _evenize_genus3(m2))
            want = _reference_character(lifted, M3, terms3)
            assert pair_character_any_parity(m1, m2, M) == want, (m1, m2)
            cases += 1
    assert cases == 13125


_WORDS = st.lists(st.integers(0, 9), min_size=1, max_size=4).map(
    lambda word: np.linalg.multi_dot([np.eye(4, dtype=np.int64)]
                                     + [E_GENERATORS[i] for i in word]))
_EVEN_TUPLES = st.sampled_from([2, 4, 6]).flatmap(
    lambda k: st.lists(st.sampled_from(even_characteristics(2)), min_size=k, max_size=k))
_ANY_CHAR = st.tuples(*[st.integers(0, 1)] * 4)


@settings(max_examples=100, deadline=None)
@given(_WORDS, _WORDS, _EVEN_TUPLES, _ANY_CHAR, _ANY_CHAR)
def test_exact_character_is_a_homomorphism_on_gamma2(M1, M2, ms, m1, m2):
    assert in_gamma2(M1) and in_gamma2(M2)
    chi = slash_character_exact
    assert chi(ms, M1 @ M2) == (chi(ms, M1) + chi(ms, M2)) % 1
    pair = pair_character_any_parity
    assert pair(m1, m2, M1 @ M2) == (pair(m1, m2, M1) + pair(m1, m2, M2)) % 1


def test_unreduced_characteristics_give_the_same_character():
    """theta[m + 2k] is a constant multiple of theta[m], so the character of
    a product depends on its characteristics only mod 2; the numeric slash
    ratio of the unreduced product agrees."""
    rng = np.random.default_rng(3)
    evens = even_characteristics(2)
    allchars = list(itertools.product((0, 1), repeat=4))
    tau = TAU_GENERIC
    for M in list(E_GENERATORS) + random_gamma2_elements(8, seed=5):
        mtau = apply_moebius(M, tau)
        detj = complex(np.linalg.det(cocycle(M, tau)))
        for k in (2, 4, 6):
            ms = [evens[i] for i in rng.integers(0, 10, k)]
            shifted = [tuple(int(v) for v in np.array(m) + 2 * rng.integers(-3, 4, 4)) for m in ms]
            t = slash_character_exact(ms, M)
            assert slash_character_exact(shifted, M) == t
            if k == 2:
                num = np.prod([theta_eval(m, mtau, 1e-13) for m in shifted])
                den = np.prod([theta_eval(m, tau, 1e-13) for m in shifted]) * detj
                assert abs(num / den - character_value(t)) < 1e-8
        m1, m2 = (allchars[i] for i in rng.integers(0, 16, 2))
        shifted = [tuple(int(v) for v in np.array(m) + 2 * rng.integers(-3, 4, 4))
                   for m in (m1, m2)]
        assert pair_character_any_parity(*shifted, M) == pair_character_any_parity(m1, m2, M)
        # tuples mixing odd characteristics match the reference too
        odd = [allchars[i] for i in rng.integers(0, 16, 4)]
        assert slash_character_exact(odd, M) == _reference_character(odd, M, {})


def test_character_follows_a_matrix_mutated_in_place():
    pair, odd_pair = ((1, 0, 0, 0), (0, 0, 0, 0)), ((1, 1, 1, 1), (0, 0, 0, 1))
    E1 = E_GENERATORS[0]
    assert slash_character_exact(pair, E1) != slash_character_exact(pair, E6)
    assert pair_character_any_parity(*odd_pair, E1) != pair_character_any_parity(*odd_pair, E6)
    M = E1.copy()
    assert slash_character_exact(pair, M) == slash_character_exact(pair, E1)
    assert pair_character_any_parity(*odd_pair, M) == pair_character_any_parity(*odd_pair, E1)
    M[...] = E6
    assert slash_character_exact(pair, M) == slash_character_exact(pair, E6)
    assert pair_character_any_parity(*odd_pair, M) == pair_character_any_parity(*odd_pair, E6)
    M[...] = J4  # symplectic, not level 2
    with pytest.raises(ValueError):
        slash_character_exact(pair, M)
    with pytest.raises(ValueError):
        pair_character_any_parity(*odd_pair, M)


def test_character_as_gauss_reads_the_exponent_as_ints():
    for k in range(-9, 10):
        z = cmath.exp(2j * cmath.pi * k / 4)
        assert character_as_gauss(Fraction(k, 4)) == GaussInt(round(z.real), round(z.imag))
    for t in [Fraction(k, 8) for k in range(-9, 10, 2)] + [Fraction(1, 3)]:
        with pytest.raises(ValueError):
            character_as_gauss(t)


def test_exact_characters_are_fractions_in_the_unit_interval():
    allchars = list(itertools.product((0, 1), repeat=4))
    for M in E_GENERATORS:
        chars = [slash_character_exact(ms, M)
                 for ms in itertools.combinations(even_characteristics(2), 2)]
        chars += [pair_character_any_parity(m1, m2, M)
                  for m1, m2 in itertools.product(allchars, repeat=2)]
        assert all(type(t) is Fraction and 0 <= t < 1 and 8 % t.denominator == 0
                   for t in chars)


def test_non_level2_matrices_are_rejected_on_every_call():
    E1 = E_GENERATORS[0]
    # float matrices whose entries truncate to E1 and to the identity
    near_e1 = E1 + np.where(E1 < 0, -0.3, 0.3)
    for M in (J4, translation([[1, 0], [0, 0]]), near_e1, np.eye(4) + 0.25):
        for _ in range(2):
            with pytest.raises(ValueError):
                slash_character_exact(((0, 0, 0, 0), (0, 0, 0, 1)), M)
            with pytest.raises(ValueError):
                pair_character_any_parity((1, 1, 1, 1), (0, 0, 0, 1), M)
            with pytest.raises(ValueError):
                igusa_residuals([(0, 0, 0, 0)], M, TAU_A)
    # an integral level-2 matrix given as floats is accepted
    assert slash_character_exact(FZ_TUPLE, E6.astype(float)) == slash_character_exact(FZ_TUPLE, E6)
    with pytest.raises(ValueError):
        slash_character_exact(((0, 0, 0), (0, 0, 0)), E6)


def test_every_character_checks_widths_and_counts():
    """The pair, slash and array characters read one checked table: a genus-3
    M6 = 1 + 2 E_03 (in Gamma(2)) takes no 4-entry characteristic, a genus-1
    matrix none either, and no character takes an odd count."""
    M6 = np.eye(6, dtype=np.int64)
    M6[0, 3] = 2
    assert in_gamma2(M6)
    pair = ((1, 0, 0, 1), (0, 1, 1, 0))
    for M in (M6, np.array([[1, 2], [0, 1]])):
        assert in_gamma2(M)
        with pytest.raises(ValueError, match="entries"):
            pair_character_any_parity(*pair, M)
        with pytest.raises(ValueError, match="entries"):
            slash_character_exact(pair, M)
        with pytest.raises(ValueError, match="entries"):
            character_eighths([pair], M)
    triple = [FZ_TUPLE[:3]]
    with pytest.raises(ValueError, match="even number"):
        slash_character_exact(triple[0], E6)
    with pytest.raises(ValueError, match="even number"):
        character_eighths(triple, E6)
    # the genus-3 table reads 6-entry characteristics
    lifted = [tuple(m[:2]) + (0,) + tuple(m[2:]) + (0,) for m in pair]
    assert character_eighths([lifted], M6).tolist() == [8 * slash_character_exact(lifted, M6)]


# ---------------------------------------------------------------------------
# stabilizer generators

def _chars(*codes):
    return tuple(tuple(int(c) for c in code) for code in codes)


def test_gammaZ_generators_fix_five_six_tuples():
    """Of the 210 six-tuples of even characteristics, the exact characters of
    the five stabilizer generators fix F_Z's and the four that add one of
    1000, 1001, 1100, 1111 to 0001 0010 0011 0100 0110; F_Z is the only one
    in its orbit."""
    six = list(itertools.combinations(even_characteristics(2), 6))
    fixed = np.ones(len(six), dtype=bool)
    for g in gammaZ_generators():
        fixed &= character_eighths(six, g) == 0
    got = {frozenset(six[k]) for k in np.flatnonzero(fixed)}
    base = _chars("0001", "0010", "0011", "0100", "0110")
    want = {frozenset(FZ_TUPLE)} | {frozenset(base + _chars(c))
                                    for c in ("1000", "1001", "1100", "1111")}
    assert got == want
    assert got & fz_orbit() == {frozenset(FZ_TUPLE)}


def test_a_six_tuple_outside_the_stabilizer_changes_sign_numerically():
    """0000 0001 0010 0011 0110 1001 is not fixed by e8^2 e3: its exact
    character is 1/2, and the numeric slash ratio is -1."""
    ms = _chars("0000", "0001", "0010", "0011", "0110", "1001")
    g = gammaZ_generators()[3]  # e8^2 e3
    assert slash_character_exact(ms, g) == Fraction(1, 2)
    tau = TAU_GENERIC
    detj = complex(np.linalg.det(cocycle(g, tau)))
    ratio = (np.prod(theta_values(ms, apply_moebius(g, tau), 1e-13))
             / (np.prod(theta_values(ms, tau, 1e-13)) * detj ** 3))
    assert abs(ratio + 1) < 1e-8


def test_gammaZ_generators_membership():
    gens = gammaZ_generators()
    assert len(gens) == 5
    for g in gens:
        assert in_gamma2(g)
        assert not in_gamma48(g)


def test_gammaZ_generators_fix_fz_character():
    for g in gammaZ_generators():
        assert character_value(slash_character_exact(FZ_TUPLE, g)) == pytest.approx(1)


# ---------------------------------------------------------------------------
# orbits

def test_orbit_decomposition_shape():
    orbits = orbit_decomposition()
    assert len(orbits) == 3
    assert sum(len(o) for o in orbits) == 210
    assert len(fz_orbit()) == 15
    # built once and shared, so no caller can change it
    assert orbit_decomposition() is orbits
    assert isinstance(orbits, tuple) and all(isinstance(o, frozenset) for o in orbits)
    assert isinstance(fz_orbit(), frozenset)


def _generator_permutations() -> list[dict]:
    """Each generator's permutation of the even characteristics, as a dict
    read off theta._action."""
    evens = even_characteristics(2)
    return [dict(zip(evens, map(tuple, (theta._action(M, evens)[0] % 2).tolist())))
            for M in sp2z_generators()]


def _reference_orbits() -> list:
    """orbit_decomposition transcribed as a BFS on frozensets of
    characteristics, seeded from each subset not yet reached in
    combinations order."""
    perms = _generator_permutations()
    orbits = []
    for seed in map(frozenset, itertools.combinations(even_characteristics(2), 6)):
        if any(seed in orbit for orbit in orbits):
            continue
        orbit = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for perm in perms:
                img = frozenset(perm[m] for m in cur)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        orbits.append(frozenset(orbit))
    return orbits


def test_orbit_decomposition_matches_the_frozenset_bfs():
    orbits = orbit_decomposition()
    assert list(orbits) == _reference_orbits()
    assert [len(o) for o in orbits] == [15, 180, 15]


def test_orbit_closure_under_every_generator():
    orbits = orbit_decomposition()
    perms = _generator_permutations()
    assert all(sorted(perm.values()) == sorted(perm) for perm in perms)
    for orbit in orbits:
        for tup in orbit:
            for perm in perms:
                assert frozenset(perm[m] for m in tup) in orbit


@pytest.fixture
def rebuilt_orbits():
    """orbit_decomposition built afresh in the test, and dropped after it, so
    that a patched generator set or action reaches it and no other test."""
    theta.orbit_decomposition.cache_clear()
    yield
    theta.orbit_decomposition.cache_clear()


def test_orbits_do_not_depend_on_the_generator_order(monkeypatch, rebuilt_orbits):
    expected = orbit_decomposition()
    theta.orbit_decomposition.cache_clear()
    monkeypatch.setattr(theta, "sp2z_generators", lambda real=sp2z_generators: real()[::-1])
    assert orbit_decomposition() == expected


@pytest.mark.parametrize("image", ["repeated", "odd"])
def test_an_action_that_permutes_no_evens_is_refused(monkeypatch, rebuilt_orbits, image):
    """Generator 3 sending two evens to one image, or one even to an odd
    characteristic, is named, not closed over."""
    real = theta._action
    bad = sp2z_generators()[3]

    def action(M, ms):
        raw, eighths = real(M, ms)
        if np.array_equal(M, bad):
            raw[1] = raw[0] if image == "repeated" else (1, 1, 1, 1)
        return raw, eighths

    monkeypatch.setattr(theta, "_action", action)
    with pytest.raises(AssertionError, match="generator 3 does not permute the even characteristics"):
        orbit_decomposition()


def test_fz_orbit_exceptional_member():
    """Thirteen of the fourteen other members contain the 1111 or 1001
    characteristic; the one exception carries 1000 and 1100 instead (its
    degeneration still vanishes, which is what the membership is used for)."""
    orbit = fz_orbit()
    fz = frozenset(FZ_TUPLE)
    missing = [t for t in orbit
               if t != fz and (1, 1, 1, 1) not in t and (1, 0, 0, 1) not in t]
    assert len(missing) == 1
    exceptional = missing[0]
    assert (1, 0, 0, 0) in exceptional and (1, 1, 0, 0) in exceptional


# ---------------------------------------------------------------------------
# the six-theta product and its degeneration

def test_fz_expansion_leading_term_and_integrality():
    # two of the six factors have half-integral lattice support, so the
    # product has no constant term; the lowest term is 4 u3^2, matching
    # the nonvanishing degeneration
    fz = fz_expansion(60)
    assert fz.coefficient((0, 0, 0)) == GaussInt(0)
    assert fz.coefficient((0, 0, 2)) == GaussInt(4)
    assert min(e1 + e3 for (e1, _, e3) in fz.coeffs) == 2
    assert all(c.im == 0 for c in fz.coeffs.values())


def test_fz_expansion_matches_numeric():
    val_series = fz_expansion(80).evaluate([[2j, 0], [0, 2j]])
    val_numeric = fz_eval(TAU_A, 1e-13)
    assert abs(val_series - val_numeric) < 1e-10


def test_phi_after_g0_equals_theta_product():
    order = 120
    phi = phi_after_g0(fz_expansion(order))
    target = QuarterSeries.one(1, order)
    for m in ((0, 0), (0, 1), (1, 0)):
        t = theta_expansion(m, order)
        target = series_mul(target, series_mul(t, t))
    assert phi == target
    assert six_tuple_expansion(G_TUPLE, order) == target


def test_fz_expansion_truncates_to_each_lower_order():
    """Every theta term has degree e1 + e3 >= 0, so one build serves every
    lower order."""
    assert fz_expansion(260).truncate(200) == fz_expansion(200)


def _arrays(s):
    return [(x.dtype, x.tolist()) for x in (*s.exps, s.re, s.im)]


@pytest.mark.parametrize("order", [0, 1, 40, 140])
def test_six_tuple_expansion_needs_no_leading_one(order):
    """The product chain from the first theta factor, with no 1 in front,
    gives the one-first build term for term and dtype for dtype, for F_Z
    and two other orbit members."""
    members = sorted(tuple(sorted(t)) for t in fz_orbit())
    for ms in (FZ_TUPLE, members[0], members[-1]):
        first = theta_expansion(ms[0], order)
        for m in ms[1:]:
            first = series_mul(first, theta_expansion(m, order))
        assert _arrays(first) == _arrays(six_tuple_expansion(ms, order))


def test_phi_kills_products_with_first_entry_one():
    for extra in ((1, 1, 1, 1), (1, 0, 0, 1)):
        tup = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1),
               (0, 1, 1, 0), extra)
        assert phi_after_g0(six_tuple_expansion(tup, 40)).is_zero()
        assert phi_characteristics(tup) is None


# every genus-2 characteristic, and unreduced ones with m1' = 2 or 3 and
# images with entries 2 or 3, odd and even
_PHI_CHARS = list(itertools.product((0, 1), repeat=4)) + [
    (2, 0, 0, 1), (3, 0, 1, 0), (2, 1, 0, 3), (0, 2, 1, 3), (0, 3, 2, 0)]


def _phi_built(ms, order):
    """phi_after_g0 of the built genus-2 product of the theta[m], m in ms."""
    return phi_after_g0(six_tuple_expansion(tuple(ms), order))


def _phi_read(ms, order):
    """The genus-1 series phi_characteristics names: its product, or zero."""
    images = phi_characteristics(ms)
    return QuarterSeries(1, order) if images is None else six_tuple_expansion(images, order)


@pytest.mark.parametrize("order", [0, 1, 16, 40, 200])
def test_phi_characteristics_of_one_theta_constant(order):
    for m in _PHI_CHARS:
        assert _phi_read([m], order) == _phi_built([m], order), m


def test_phi_characteristics_of_every_fz_orbit_member():
    members = sorted(tuple(sorted(t)) for t in fz_orbit())
    assert len(members) == 15
    for ms in members:
        assert _phi_read(ms, 60) == _phi_built(ms, 60), ms
    assert [phi_characteristics(ms) is None for ms in members].count(False) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_PHI_CHARS), min_size=1, max_size=6), st.integers(0, 60))
def test_phi_characteristics_of_drawn_products(ms, order):
    assert _phi_read(ms, order) == _phi_built(ms, order)


def test_phi_of_theta_product_is_phi_of_the_built_product():
    """The genus-1 product of the factors' degenerations is the degeneration
    of the genus-2 product, term for term and dtype for dtype: every orbit
    member, F_Z at the phi match's order, and each single characteristic,
    which gives 0 exactly when m1' or its image is odd."""
    members = sorted(tuple(sorted(t)) for t in fz_orbit())
    cases = [(ms, 40) for ms in members] + [(FZ_TUPLE, 260)] + [((m,), 40) for m in _PHI_CHARS]
    for ms, order in cases:
        phi = phi_of_theta_product(ms, order)
        built = _phi_built(ms, order)
        assert phi == built and _arrays(phi) == _arrays(built), ms
        if len(ms) == 1:
            assert phi.is_zero() == (phi_characteristics(ms) is None), ms
            assert phi.is_zero() or ms[0][0] % 2 == 0, ms


def test_phi_characteristics_values():
    """Images are kept unreduced; an odd m1' or an odd image gives None."""
    assert [phi_characteristics([m]) for m in _PHI_CHARS[-5:]] == [
        ((0, 1),), None, None, ((2, 3),), ((3, 0),)]
    assert sorted(phi_characteristics(FZ_TUPLE)) == sorted(G_TUPLE)


def test_fz_numeric_invariance():
    worst = 0.0
    for gamma in gammaZ_generators() + random_gamma48_elements(10, seed=2):
        for tau in (TAU_A, TAU_B):
            gtau = apply_moebius(gamma, tau)
            detj = complex(np.linalg.det(cocycle(gamma, tau)))
            worst = max(worst, abs(fz_eval(gtau, 1e-13) / detj ** 3 - fz_eval(tau, 1e-13)))
    assert worst < 1e-8


def test_fz_e6_antiinvariant():
    tau = TAU_B
    gtau = apply_moebius(E6, tau)
    detj = complex(np.linalg.det(cocycle(E6, tau)))
    assert abs(fz_eval(gtau, 1e-13) / detj ** 3 + fz_eval(tau, 1e-13)) < 1e-10


# ---------------------------------------------------------------------------
# helpers

def test_gl_embed_and_sp_generators():
    for U in ([[1, 1], [0, 1]], [[0, 1], [1, 0]]):
        assert is_symplectic(gl_embed(U))
    # det -1 with entries near 10^9, where a float det and inverse lose it
    big = 10 ** 9
    M = gl_embed([[big + 1, big], [big, big - 1]])
    assert is_symplectic(M)
    assert M[2:, 2:].tolist() == [[-(big - 1), big], [big, -(big + 1)]]
    with pytest.raises(ValueError):
        gl_embed([[2, 0], [0, 1]])
    assert len(sp2z_generators()) == 6


def test_g0_is_symplectic_gl_type():
    assert is_symplectic(G0)
    tau = np.asarray(TAU_B)
    swapped = apply_moebius(G0, tau)
    assert swapped[0, 0] == tau[1, 1] and swapped[1, 1] == tau[0, 0]


def test_phase_phi_eighth_integers():
    for M in E_GENERATORS:
        _, eighths = theta._action(M, even_characteristics(2))
        for e in eighths.tolist():
            phi = Fraction(e, 8)
            assert (phi * 8).denominator == 1


def test_raw_action_reduces_to_fixed_char_on_level2():
    evens = even_characteristics(2)
    for M in random_gamma2_elements(8, seed=7):
        raw, _ = theta._action(M, evens)
        for m, row in zip(evens, raw.tolist()):
            assert tuple(v % 2 for v in row) == m
