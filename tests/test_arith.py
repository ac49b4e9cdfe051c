import copy
import itertools
import math
import pickle
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegelz import arith, cmform, theta
from siegelz.arith import (
    GaussInt,
    IntPolynomial,
    QuarterSeries,
    gauss_primary_decompose,
    i_power,
    is_prime,
    kronecker_char,
    odd_primes,
    series_mul,
    series_product,
)
from siegelz.pointcount import _chi_table
from siegelz.theta import FZ_TUPLE, fz_orbit, six_tuple_expansion, theta_expansion


def brute_legendre(a, p):
    a %= p
    if a == 0:
        return 0
    squares = {(x * x) % p for x in range(1, p)}
    return 1 if a in squares else -1


# `pointcount._chi_table(p)`, the table of (a/p) that the point counts read,
# is the package's one Legendre symbol

def test_legendre_examples():
    assert _chi_table(7)[1] == 1
    assert _chi_table(3)[-1 % 3] == -1
    # 2 = 3^2 mod 7, found by listing all squares mod 7
    assert brute_legendre(2, 7) == 1
    assert _chi_table(7)[2] == 1


def test_legendre_matches_bruteforce():
    """The table is (a/p) at every residue, at every odd prime the counts accept."""
    for p in odd_primes(41):
        assert _chi_table(p).tolist() == [brute_legendre(a, p) for a in range(p)]


def test_legendre_multiplicative():
    for p in odd_primes(41):
        chi, a = _chi_table(p), np.arange(p)
        assert np.array_equal(np.outer(chi, chi), chi[np.outer(a, a) % p])


def test_kronecker_examples():
    assert kronecker_char(-1, 5) == 1
    # squares mod 3 are {0, 1}, so 2 is a non-residue
    assert kronecker_char(2, 3) == -1
    assert kronecker_char(-2, 3) == kronecker_char(-1, 3) * kronecker_char(2, 3) == 1


def test_kronecker_period_eight():
    for d in (-1, 2, -2):
        for r in (1, 3, 5, 7):
            vals = {kronecker_char(d, r + 8 * k) for k in range(0, 10_000 // 8)}
            assert len(vals) == 1


def test_kronecker_agrees_with_legendre_at_odd_primes():
    for d in (-1, 2, -2):
        for p in odd_primes(300):
            assert kronecker_char(d, p) == brute_legendre(d, p)


def test_kronecker_rejects_even():
    with pytest.raises(ValueError):
        kronecker_char(-1, 4)


# ---------------------------------------------------------------------------
# Gaussian integers

def test_gauss_basic():
    z = GaussInt(2, 1)
    w = GaussInt(-1, 3)
    assert z + w == GaussInt(1, 4)
    assert z * w == GaussInt(-5, 5)
    assert z - w == GaussInt(3, -2) and 1 - z == GaussInt(-1, -1)
    assert i_power(6) == GaussInt(-1, 0)


def test_i_power_equals_a_freshly_built_unit():
    for k in range(-8, 9):
        unit = GaussInt(1, 0)
        for _ in range(abs(k)):
            unit = unit * GaussInt(0, 1 if k > 0 else -1)
        assert i_power(k) == unit


def test_gauss_real_hashes_as_its_int():
    assert GaussInt(3, 0) == 3
    assert hash(GaussInt(3, 0)) == hash(3)
    assert hash(GaussInt(-7)) == hash(-7)
    assert len({GaussInt(3, 0), 3}) == 1
    assert len({GaussInt(3, 1), 3}) == 2


def _norm(z):
    return z.re * z.re + z.im * z.im


def _divides(d, z):
    """Whether the nonzero Gaussian integer d divides z: z conj(d) / N(d) in Z[i]."""
    q = z * GaussInt(d.re, -d.im)
    return q.re % _norm(d) == 0 and q.im % _norm(d) == 0


def test_gauss_primary_decompose():
    pi5 = gauss_primary_decompose(5)
    assert _norm(pi5) == 5
    # a unit multiple of 2 + i
    assert any(pi5 == i_power(k) * GaussInt(2, 1) for k in range(4)) or any(
        pi5 == i_power(k) * GaussInt(2, -1) for k in range(4)
    )
    pi13 = gauss_primary_decompose(13)
    assert _norm(pi13) == 13
    with pytest.raises(ValueError):
        gauss_primary_decompose(3)
    with pytest.raises(ValueError):
        gauss_primary_decompose(21)


def test_gauss_primary_is_primary():
    modulus = GaussInt(-2, 2)  # (1+i)^3
    for p in (5, 13, 17, 29, 37, 41):
        pi = gauss_primary_decompose(p)
        assert _divides(modulus, pi - GaussInt(1, 0))


def _primary_by_search(p):
    """The primary prime over p by the float square-root search: the least
    x with p - x^2 a square y^2 >= x^2, then the associate of x + iy that is
    1 mod (1+i)^3."""
    for x in range(1, p):
        y2 = p - x * x
        if y2 < x * x:
            break
        y = round(y2 ** 0.5)
        if y * y == y2:
            pi = GaussInt(x, y)
            break
    modulus = GaussInt(-2, 2)
    for cand in (pi, pi * GaussInt(0, 1), -pi, -(pi * GaussInt(0, 1))):
        if _divides(modulus, cand - GaussInt(1, 0)):
            return cand


def test_gauss_primary_matches_the_square_root_search():
    """Cornacchia's algorithm picks the same primary associate, of the same
    one of the two conjugate primes, at every split prime below 20000."""
    split = [p for p in range(5, 20000, 4) if is_prime(p)]
    assert len(split) == 1125
    for p in split:
        assert gauss_primary_decompose(p) == _primary_by_search(p), p


# ---------------------------------------------------------------------------
# quarter series

def theta00_g1(order):
    """1 + 2u^4 + 2u^16 + ... from the defining lattice sum."""
    coeffs = {}
    n = 0
    while 4 * n * n <= order:
        coeffs[4 * n * n] = coeffs.get(4 * n * n, 0) + (1 if n == 0 else 2)
        n += 1
    return QuarterSeries(1, order, coeffs)


def brute_mul_g1(a, b, order):
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            if e1 + e2 <= order:
                out[e1 + e2] = out.get(e1 + e2, GaussInt()) + c1 * c2
    return QuarterSeries(1, order, out)


def brute_mul_g2(a, b, order):
    out = {}
    for (f1, f2, f3), c1 in a.coeffs.items():
        for (e1, e2, e3), c2 in b.coeffs.items():
            key = (f1 + e1, f2 + e2, f3 + e3)
            if key[0] + key[2] <= order:
                out[key] = out.get(key, GaussInt()) + c1 * c2
    return QuarterSeries(2, order, out)


def _add(a, b, order=None):
    """a + b truncated to order (by default the smaller input order), summed
    over the coeffs mappings, independently of arith._summed."""
    order = min(a.order, b.order) if order is None else order
    total = dict(a.truncate(order).coeffs)
    for key, value in b.truncate(order).coeffs.items():
        total[key] = total.get(key, GaussInt()) + value
    return QuarterSeries(a.genus, order, total)


def test_series_identities():
    s = QuarterSeries(2, 10, {(4, 0, 0): 2, (0, 2, 2): GaussInt(0, 1)})
    zero = QuarterSeries.zero(2, 10)
    one = QuarterSeries.one(2, 10)
    assert _add(s, zero) == s and series_mul(s, zero) == zero
    assert series_mul(s, one) == s


def test_numpy_integer_indices_read_as_ints():
    s = QuarterSeries(1, 10, {np.int64(3): 1})
    assert s == QuarterSeries(1, 10, {3: 1})
    assert s.coefficient(np.int64(3)) == GaussInt(1) and s.coeffs[np.int32(3)] == GaussInt(1)
    assert s.coefficient(np.int64(4)) == GaussInt(0)
    t = QuarterSeries(2, 10, {(np.int64(1), np.int32(-2), 3): GaussInt(0, 1)})
    assert t == QuarterSeries(2, 10, {(1, -2, 3): GaussInt(0, 1)})
    assert t.coefficient((1, np.int64(-2), np.int8(3))) == GaussInt(0, 1)
    with pytest.raises(ValueError, match="exceeds truncation order 10"):
        QuarterSeries(1, 10, {np.int64(11): 1})


@pytest.mark.parametrize("genus, key", [(1, "3"), (1, 3.0), (1, (3,)), (2, (1, 2)),
                                        (2, (1, 2.0, 3)), (2, 3)])
def test_malformed_index_has_its_own_message(genus, key):
    with pytest.raises(ValueError, match=f"is not a genus-{genus} index"):
        QuarterSeries(genus, 10, {key: 1})


def test_theta00_square_order8():
    # double lattice sum over n, m in {0, +-1} gives 1 + 4u^4 + 4u^8
    sq = series_mul(theta00_g1(8), theta00_g1(8))
    assert sq.coeffs == {0: GaussInt(1), 4: GaussInt(4), 8: GaussInt(4)}


def test_series_mul_matches_bruteforce_sparse():
    rng = random.Random(3)
    for _ in range(20):
        order = rng.randrange(5, 41)
        a = QuarterSeries(
            1,
            order,
            {
                rng.randrange(0, order + 1): GaussInt(rng.randrange(-9, 10), rng.randrange(-9, 10))
                for _ in range(6)
            },
        )
        b = QuarterSeries(
            1,
            order,
            {
                rng.randrange(0, order + 1): GaussInt(rng.randrange(-9, 10), rng.randrange(-9, 10))
                for _ in range(6)
            },
        )
        assert series_mul(a, b) == brute_mul_g1(a, b, order)


def test_series_mul_dense_genus1_matches_dict():
    # dense series: (nearly) every exponent up to the order on both sides
    rng = random.Random(5)
    order = 600
    a = QuarterSeries(
        1, order, {e: rng.randrange(-20, 21) for e in range(0, order, 1)}
    )
    b = QuarterSeries(
        1, order, {e: GaussInt(rng.randrange(-20, 21), rng.randrange(-20, 21)) for e in range(order + 1)}
    )
    assert series_mul(a, b) == brute_mul_g1(a, b, order)


def test_series_mul_genus2():
    a = QuarterSeries(2, 8, {(0, 0, 0): 1, (4, -2, 2): 3})
    b = QuarterSeries(2, 8, {(0, 0, 0): 2, (2, 2, 2): GaussInt(0, 1)})
    prod = series_mul(a, b)
    assert prod.coefficient((0, 0, 0)) == GaussInt(2)
    assert prod.coefficient((2, 2, 2)) == GaussInt(0, 1)
    assert prod.coefficient((4, -2, 2)) == GaussInt(6)
    # (4,-2,2)+(2,2,2) = (6,0,4) has e1+e3 = 10 > 8: truncated away
    assert prod.coefficient((6, 0, 4)) == GaussInt(0)


def test_series_mul_genus2_cancellation_and_empty():
    a = QuarterSeries(2, 6, {(0, 0, 0): 1, (1, -1, 1): GaussInt(0, 1)})
    b = QuarterSeries(2, 6, {(0, 0, 0): 1, (1, -1, 1): GaussInt(0, -1)})
    # (1 + iX)(1 - iX) = 1 + X^2: the X terms cancel and leave no entry
    assert series_mul(a, b).coeffs == {(0, 0, 0): GaussInt(1), (2, -2, 2): GaussInt(1)}
    assert series_mul(a, QuarterSeries.zero(2, 6)).is_zero()
    assert series_mul(QuarterSeries.zero(2, 6), a).is_zero()
    far = QuarterSeries(2, 6, {(3, 0, 3): 5})
    assert series_mul(far, far).is_zero()  # every pair truncated away


def test_series_mul_genus2_beyond_int64_is_exact():
    rng = random.Random(4)
    big = 1 << 40
    a = QuarterSeries(2, 20, {(i, rng.randrange(-9, 10), 1): GaussInt(big + i, -big)
                              for i in range(8)})
    b = QuarterSeries(2, 20, {(1, rng.randrange(-9, 10), i): GaussInt(-big, big - i)
                              for i in range(8)})
    prod = series_mul(a, b)
    assert prod == brute_mul_g2(a, b, 20)
    assert max(abs(c.re) + abs(c.im) for c in prod.coeffs.values()) > 1 << 63
    # exponents beyond int64 once added also take the exact path
    far = QuarterSeries(2, 4, {(1 << 62, 3, -(1 << 62)): 2, (0, 0, 0): 1})
    assert series_mul(far, far) == brute_mul_g2(far, far, 4)
    with pytest.raises(ValueError):
        series_mul(far, far, -1)


@pytest.mark.parametrize("x, y", [
    (1 << 30, (1 << 31) - 1),  # l1 * linf just below 2**62: int64 kernel
    (1 << 30, 1 << 31),        # exactly 2**62: exact fallback
    (1 << 31, 1 << 31),        # a coefficient of 2**63 does not fit int64
    (GaussInt(1 << 29, 1 << 29), GaussInt(-(1 << 30), (1 << 30) - 1)),
    (GaussInt(1 << 30, -(1 << 30)), GaussInt(1 << 30, 1 << 30)),
])
def test_series_mul_genus2_at_the_overflow_bound(x, y):
    # both pairs land on (1, 2, 1), whose coefficient is 2xy: the bound is tight
    a = QuarterSeries(2, 4, {(0, -1, 1): x, (1, 2, 0): x})
    b = QuarterSeries(2, 4, {(1, 3, 0): y, (0, 0, 1): y})
    prod = series_mul(a, b)
    assert prod == brute_mul_g2(a, b, 4)
    assert prod.coefficient((1, 2, 1)) == GaussInt(2) * x * y


def test_series_mul_norms_that_wrap_int64_take_python_ints():
    # three terms of norm 2**62 - 1: their l1 norm, summed in int64, wraps
    # negative, yet l1 * linf is past 2**62, so the kernel must run on
    # Python ints; the top coefficient, 3 * (2**62 - 1), needs them too
    m = (1 << 62) - 1
    a = QuarterSeries(1, 4, {0: m, 1: m, 2: m})
    b = QuarterSeries(1, 4, {e: 1 for e in range(4)})
    assert int(np.abs(a.re).sum()) < 0
    prod = series_mul(a, b)
    assert prod == brute_mul_g1(a, b, 4) and prod.re.dtype == object
    assert prod.coefficient(2) == GaussInt(3 * m)


def test_series_mul_columns_whose_c_plus_d_wraps_int64():
    # every entry of the columns is stored int64 (below 2**62), but the
    # degree -3 * 2**61 doubled, the clip extremum min(c + d) of the degree
    # column, wraps in int64; the stride of 3 * 2**60 keeps the box small
    m = 3 << 60
    a = QuarterSeries(2, 4, {(-m, 0, -m): 1, (0, 0, 0): 1})
    assert all(x.dtype == np.int64 for x in a.exps)
    assert series_mul(a, a) == brute_mul_g2(a, a, 4)


def _g2_series(order, exps, coeff):
    key = st.tuples(st.integers(-3, exps), st.integers(-2 * exps, 2 * exps),
                    st.integers(-3, exps)).filter(lambda k: k[0] + k[2] <= order)
    return st.dictionaries(key, coeff, max_size=12).map(
        lambda d: QuarterSeries(2, order, d))


_gauss = st.builds(GaussInt, st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 16))
def test_series_mul_genus2_matches_bruteforce(data, order):
    exps = data.draw(st.sampled_from([3, 8, 16]))
    a = data.draw(_g2_series(order, exps, _gauss))
    b = data.draw(_g2_series(order, exps, _gauss))
    cut = data.draw(st.integers(0, order))
    for o in (order, cut):
        prod = series_mul(a, b, o)
        assert prod == brute_mul_g2(a, b, o)
        assert all(prod.coeffs.values())


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 12))
def test_series_mul_genus2_large_coefficients(data, order):
    # up to 2**42: the int64 bound holds for some inputs and fails for others
    huge = st.builds(GaussInt, st.integers(-(1 << 42), 1 << 42), st.integers(-(1 << 42), 1 << 42))
    a = data.draw(_g2_series(order, 8, huge))
    b = data.draw(_g2_series(order, 8, huge))
    assert series_mul(a, b) == brute_mul_g2(a, b, order)


def _strided_g2_series(order, steps, offsets):
    """Genus-2 series whose exponent columns are offsets + steps * k, with
    negative k allowed, so e2 (and e1, e3) take negative values too."""
    key = st.tuples(*(st.integers(-3, 4).map(lambda k, o=o, s=s: o + s * k)
                      for o, s in zip(offsets, steps))).filter(lambda k: k[0] + k[2] <= order)
    return st.dictionaries(key, _gauss, min_size=1, max_size=10).map(
        lambda d: QuarterSeries(2, order, d))


_steps = st.tuples(*[st.sampled_from([1, 2, 4, 8])] * 3)
_offsets = st.tuples(*[st.integers(-5, 7)] * 3)


# pair budgets of the two fills: 0 fills every slab term by term, 2**62
# every slab in one broadcast
_fills = st.sampled_from([0, 1 << 62])


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(0, 40), st.sampled_from([arith._BOX_CELLS, 1]), _fills)
def test_series_mul_genus2_strided_columns(data, order, budget, pairs):
    # strides 1, 2, 4 and 8 per column and per series, with nonzero offsets:
    # the box steps by their gcd and starts at the sum of the lowest values;
    # a budget of one cell sums each degree in its own slab
    a = data.draw(_strided_g2_series(order, data.draw(_steps), data.draw(_offsets)))
    b = data.draw(_strided_g2_series(order, data.draw(_steps), data.draw(_offsets)))
    cut = data.draw(st.integers(0, order))
    with mock.patch.object(arith, "_BOX_CELLS", budget), \
            mock.patch.object(arith, "_BROADCAST_PAIRS", pairs):
        for o in (order, cut):
            assert series_mul(a, b, o) == brute_mul_g2(a, b, o)


def _box_of(a, b, order):
    """The pair kernel's box for a and b, from their summaries, with its
    base, step and width as arrays."""
    box = arith._box(arith._summary(a), arith._summary(b), order)
    return box._replace(base=np.array(box.base), step=np.array(box.step),
                        width=np.array(box.width))


def test_series_mul_theta_strides_and_clipped_box():
    # theta columns step by 4 or 8 from offsets 0 or 1.  Unclipped, e1 would
    # span [1, 61] and e2 [-54, 54]; a pair of degree at most 40 has e3 >= 2,
    # so e1 <= 38, and |e2| <= 38
    t1, t2 = (theta_expansion(m, 40) for m in ((0, 1, 1, 0), (1, 1, 0, 0)))
    box = _box_of(t1, t2, 40)
    assert [x.tolist() for x in box[:3]] == [[3, 1, -38], [4, 4, 4], [10, 10, 20]]
    assert series_mul(t1, t2) == brute_mul_g2(t1, t2, 40)


def test_series_mul_empty_clipped_box():
    # every pair has degree 6 > 4, so the degree axis of the box is empty
    a = QuarterSeries(2, 4, {(5, -2, -1): 3, (2, 0, 2): GaussInt(1, 1)})
    b = QuarterSeries(2, 4, {(1, 7, 1): 1, (3, -1, 1): 2})
    assert _box_of(a, b, 4).width[0] < 1
    assert series_mul(a, b).is_zero() and series_mul(a, b, 0).is_zero()
    g1 = QuarterSeries(1, 10, {6: 1, 9: 2})
    assert _box_of(g1, g1, 10).width[0] < 1
    assert series_mul(g1, g1).is_zero()


def test_series_mul_in_slabs_matches_one_slab(monkeypatch):
    order = 200
    monkeypatch.setattr(arith, "_BOX_CELLS", 1 << 40)
    whole = six_tuple_expansion(FZ_TUPLE, order)
    real_zeros = np.zeros
    # the last product's box has 50 degrees of 50 * 99 cells: a slab holds
    # four of them under a budget of 20000 cells, and one under a budget of 1
    for budget, largest in ((20000, 4 * 4950), (1, 4950)):
        sizes = []
        monkeypatch.setattr(arith, "_BOX_CELLS", budget)
        monkeypatch.setattr(np, "zeros", lambda n, *args, **kwargs:
                            sizes.append(n) or real_zeros(n, *args, **kwargs))
        assert six_tuple_expansion(FZ_TUPLE, order) == whole
        monkeypatch.setattr(np, "zeros", real_zeros)
        assert max(sizes) == largest
        assert len(sizes) >= 2 * -(-50 * 4950 // largest)  # re and im per slab


def _g1_series(order, max_terms):
    coeff = st.builds(GaussInt, st.integers(-(1 << 70), 1 << 70), st.integers(-(1 << 70), 1 << 70))
    return st.dictionaries(st.integers(0, order), coeff, max_size=max_terms).map(
        lambda d: QuarterSeries(1, order, d))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(0, 60), st.sampled_from([arith._BOX_CELLS, 1]), _fills)
def test_series_mul_genus1_paths_beyond_64_bits(data, order, budget, pairs):
    # sparse and dense series; a budget of one cell sums each degree in its
    # own slab
    terms = data.draw(st.sampled_from([3, order + 1]))
    a = data.draw(_g1_series(order, terms))
    b = data.draw(_g1_series(order, terms))
    with mock.patch.object(arith, "_BOX_CELLS", budget), \
            mock.patch.object(arith, "_BROADCAST_PAIRS", pairs):
        assert series_mul(a, b) == brute_mul_g1(a, b, order)


def _parted_series(genus, order, budget):
    """Series whose re and im are each, independently, all zero or drawn with
    parts up to budget: real, imaginary, full and zero series."""
    if genus == 1:
        key = st.integers(0, order)
    else:
        key = st.tuples(st.integers(0, order), st.integers(-2 * order, 2 * order),
                        st.integers(0, order)).filter(lambda k: k[0] + k[2] <= order)
    part = st.integers(-budget, budget)
    terms = st.dictionaries(key, st.tuples(part, part), max_size=12)
    return st.tuples(terms, st.booleans(), st.booleans()).map(
        lambda t: QuarterSeries(genus, order, {k: GaussInt(r * t[1], m * t[2])
                                               for k, (r, m) in t[0].items()}))


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from([1, 2]), st.integers(0, 16),
       st.sampled_from([3, 1 << 40, 1 << 70]), _fills)
def test_series_mul_of_real_imaginary_and_full_series(data, genus, order, budget, pairs):
    # the pair kernel drops every real part of the product whose arrays are
    # all zero; budgets of 2**40 and 2**70 put l1 * linf past 2**62, so the
    # same parts run on Python ints
    a, b = (data.draw(_parted_series(genus, order, budget)) for _ in range(2))
    cut = data.draw(st.integers(0, order))
    reference = brute_mul_g1 if genus == 1 else brute_mul_g2
    for o in (order, cut):
        with mock.patch.object(arith, "_BROADCAST_PAIRS", pairs):
            prod = series_mul(a, b, o)
        assert prod == reference(a, b, o)
        for x in (*prod.exps, prod.re, prod.im):
            assert x.dtype == (np.int64 if all(abs(int(v)) < 1 << 62 for v in x) else object)


class _CountingNumpy:
    """Forwards every attribute to numpy, and counts the calls of np.add.at."""

    def __init__(self):
        self.add_at_calls = 0
        counter = self

        class Add:
            def __getattr__(self, name):
                return getattr(np.add, name)

            def at(self, *args):
                counter.add_at_calls += 1
                return np.add.at(*args)

        self.add = Add()

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("order", [40, 36])
def test_real_theta_products_make_one_add_at_per_small_term(monkeypatch, order):
    # theta series are real, so only the real part of a pair runs: filled
    # term by term (a pair budget of 0), each term of the smaller series that
    # has a partner within the order makes one np.add.at (all in one slab; at
    # order 36 the terms of degree 37 of the smaller one have none), and
    # filled in one broadcast (the default budget), the slab makes one
    a, b = theta_expansion((0, 0, 0, 0), 40), theta_expansion((0, 1, 1, 0), 40)
    assert not (a.im.any() or b.im.any())
    small, big = (a, b) if len(a.re) <= len(b.re) else (b, a)
    partnered = int((small._degrees() + big._degrees().min() <= order).sum())
    assert partnered == (15 if order == 40 else 13) and len(small.re) == 15
    for pairs, calls in ((0, partnered), (arith._BROADCAST_PAIRS, 1)):
        counting = _CountingNumpy()
        monkeypatch.setattr(arith, "np", counting)
        monkeypatch.setattr(arith, "_BROADCAST_PAIRS", pairs)
        prod = series_mul(a, b, order)
        monkeypatch.undo()
        assert counting.add_at_calls == calls
        assert prod == brute_mul_g2(a, b, order) and not prod.im.any()


def test_series_genus_mismatch_rejected():
    a = QuarterSeries(1, 4, {0: 1})
    b = QuarterSeries(2, 4, {(0, 0, 0): 1})
    with pytest.raises(ValueError, match="genus mismatch"):
        series_mul(a, b)


def test_series_mul_associative_commutative():
    rng = random.Random(9)
    order = 30
    mk = lambda: QuarterSeries(
        1, order, {rng.randrange(order): rng.randrange(-5, 6) for _ in range(5)}
    )
    a, b, c = mk(), mk(), mk()
    assert series_mul(a, b) == series_mul(b, a)
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


def _terms(s):
    return [(x.dtype, x.tolist()) for x in (*s.exps, s.re, s.im)]


def _chain(factors):
    prod = factors[0]
    for f in factors[1:]:
        prod = series_mul(prod, f)
    return prod


@pytest.mark.parametrize("seed", range(8))
def test_series_product_is_the_left_to_right_chain(seed):
    """Over seeded multisets of genus-1 thetas, with repeats, unreduced and
    odd characteristics and mixed orders, the paired product is the chain's
    term for term, dtype for dtype and order for order."""
    rng = random.Random(seed)
    chars = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 1), (1, 2), (3, 0), (-1, 3)]
    picks = rng.choices(chars, k=rng.randint(1, 4))
    picks += rng.choices(picks, k=rng.randint(1, 3))  # repeats
    factors = [theta_expansion(m, rng.choice((60, 80))) for m in picks]
    rng.shuffle(factors)
    got, want = series_product(factors), _chain(factors)
    assert got.order == want.order == min(f.order for f in factors)
    assert _terms(got) == _terms(want)


def test_series_product_genus_2_zero_single_and_wide_coefficients():
    t = [theta_expansion(m, 24) for m in FZ_TUPLE[:3]]
    factors = [t[0], t[1], t[0], t[2], t[1]]
    assert _terms(series_product(factors)) == _terms(_chain(factors))
    odd = theta_expansion((1, 1), 40)  # theta_11 vanishes identically
    assert odd.is_zero()
    assert series_product([theta_expansion((0, 0), 40), odd, odd]) == QuarterSeries.zero(1, 40)
    assert series_product([t[2]]) is t[2]
    # a squared half product past 2**62 comes back in Python ints, as the chain's
    wide = QuarterSeries(1, 40, {0: 1 << 61, 4: GaussInt(3, -1)})
    factors = [wide, theta_expansion((0, 1), 40), wide]
    got = series_product(factors)
    assert _terms(got) == _terms(_chain(factors)) and got.re.dtype == object
    with pytest.raises(ValueError, match="at least one factor"):
        series_product([])
    with pytest.raises(ValueError, match="genus mismatch"):
        series_product([t[0], theta_expansion((0, 0), 24)])


# parts up to 2**70 put some coefficients, and so some arrays, beyond int64;
# the sampled ones sit at the 2**62 limit of int64 storage
_part = st.one_of(st.integers(-3, 3), st.integers(-(1 << 70), 1 << 70),
                  st.sampled_from([(1 << 62) - 1, 1 << 62, (1 << 63) - 1, -(1 << 62)]))
_mixed = st.builds(GaussInt, _part, _part)


@settings(max_examples=100, deadline=None)
@given(_mixed, _mixed, _mixed, st.integers(-5, 5))
def test_gauss_ring_laws(x, y, z, n):
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - y == x + (-y) and x + 0 == x and x * 1 == x and n * x == x * GaussInt(n)
    assert _norm(x * y) == _norm(x) * _norm(y)


def _ring_series(genus, order):
    if genus == 1:
        key = st.integers(0, order)
    else:
        key = st.tuples(st.integers(0, order), st.integers(-2 * order, 2 * order),
                        st.integers(0, order)).filter(lambda k: k[0] + k[2] <= order)
    return st.dictionaries(key, _mixed, max_size=order + 3).map(
        lambda d: QuarterSeries(genus, order, d))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 2]), st.integers(0, 12))
def test_series_ring_laws_under_truncation(data, genus, order):
    """Commutativity, associativity and distributivity hold exactly for
    series of nonnegative degree, at every truncation order."""
    a, b, c = (data.draw(_ring_series(genus, order)) for _ in range(3))
    cut = data.draw(st.integers(0, order))
    for o in (order, cut):
        assert series_mul(a, b, o) == series_mul(b, a, o)
        assert series_mul(series_mul(a, b), c, o) == series_mul(a, series_mul(b, c), o)
        assert series_mul(a, _add(b, c), o) == _add(series_mul(a, b), series_mul(a, c), o)
    reference = brute_mul_g1 if genus == 1 else brute_mul_g2
    assert series_mul(a, b) == reference(a, b, order)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 2]), st.integers(0, 12))
def test_truncation_commutes_with_products(data, genus, order):
    """For series of nonnegative degree, the truncated product is the product
    of the truncations (with negative e1 or e3, as _strided_g2_series draws,
    a high term times a negative one lands below the cut, and it fails)."""
    a, b = (data.draw(_ring_series(genus, order)) for _ in range(2))
    cut = data.draw(st.integers(0, order))
    assert series_mul(a, b).truncate(cut) == series_mul(a.truncate(cut), b.truncate(cut))


def test_truncate_past_the_series_order_raises():
    short, full = theta_expansion((0, 0, 0, 0), 20), theta_expansion((0, 0, 0, 0), 40)
    assert (len(short.coeffs), len(full.coeffs)) == (11, 19)
    for s in (short, QuarterSeries(1, 5, {0: 1})):
        assert s.truncate(s.order) == s
        with pytest.raises(ValueError, match="not valid beyond the series order"):
            s.truncate(s.order + 1)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 2]), st.integers(0, 12))
def test_series_round_trip_through_the_mapping_view(data, genus, order):
    s = data.draw(_ring_series(genus, order))
    assert QuarterSeries(genus, order, dict(s.coeffs)) == s
    assert dict(s.coeffs.items()) == dict(s.coeffs) and len(s.coeffs) == len(dict(s.coeffs))
    assert list(s.coeffs.values()) == [s.coeffs[k] for k in s.coeffs]
    # an array is int64 exactly when every entry is below 2**62
    for x in (*s.exps, s.re, s.im):
        small = all(abs(int(v)) < 1 << 62 for v in x)
        assert x.dtype == (np.int64 if small else object)
        assert not x.flags.writeable
    with pytest.raises(TypeError):
        s.coeffs[0 if genus == 1 else (0, 0, 0)] = GaussInt(1)
    for name in QuarterSeries.__slots__:
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert copy.deepcopy(s) == s and pickle.loads(pickle.dumps(s)) == s


def _degree_major(s):
    """The (e1 + e3, e1, e2) keys of a genus-2 series' terms, in storage order."""
    e1, e2, e3 = (x.tolist() for x in s.exps)
    return [(f + h, f, g) for f, g, h in zip(e1, e2, e3)]


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(0, 16))
def test_genus2_series_are_stored_degree_major(data, order):
    """Every constructor stores genus-2 terms strictly ascending in
    (e1 + e3, e1, e2), the pair kernel's code order: the kernel reads the
    degrees of its larger input as sorted and emits its product without a
    sort.  A lookup finds every stored index and no other, also none of
    the absent indices that share a degree with a stored term."""
    a, b = (data.draw(_strided_g2_series(order, data.draw(_steps), data.draw(_offsets)))
            for _ in range(2))
    cut = data.draw(st.integers(0, order))
    m = data.draw(st.tuples(*[st.integers(0, 1)] * 4))
    member = data.draw(st.sampled_from(sorted(tuple(sorted(t)) for t in fz_orbit())))
    product = series_mul(a, b)
    built = [a, b, _add(a, b), product, series_mul(a, b, cut), product.truncate(cut),
             a.truncate(cut), theta_expansion(m, order), six_tuple_expansion(member, order),
             pickle.loads(pickle.dumps(product))]
    for s in built:
        keys = _degree_major(s)
        assert all(k < l for k, l in zip(keys, keys[1:]))
        stored = set(s.coeffs)
        for (e1, e2, e3), v in zip(s.coeffs, s.coeffs.values()):
            assert s.coeffs[(e1, e2, e3)] == v
            for near in ((e1 + 1, e2, e3 - 1), (e1 - 1, e2, e3 + 1), (e1, e2 + 1, e3),
                         (e1, e2 - 1, e3)):  # each of the same degree
                if near not in stored:
                    with pytest.raises(KeyError):
                        s.coeffs[near]
        absent = data.draw(st.tuples(*[st.integers(-4, order + 4)] * 3))
        if absent not in stored:
            with pytest.raises(KeyError):
                s.coeffs[absent]


def _assert_stored_canonically(s):
    """Every array of s is read-only, int64 exactly when each entry is below
    2**62 and of Python ints otherwise, and the terms ascend strictly in the
    storage order."""
    for x in (*s.exps, s.re, s.im):
        small = all(abs(int(v)) < 1 << 62 for v in x)
        assert x.dtype == (np.int64 if small else object) and not x.flags.writeable
    keys = [(k,) for k in s.coeffs] if s.genus == 1 else _degree_major(s)
    assert all(k < l for k, l in zip(keys, keys[1:]))


def _one_term(genus, order):
    """A series of one term: any index of degree at most the order, with
    parts up to 2**70 and at the 2**60 and 2**62 limits of the int64 guards,
    so that shifted exponents can leave int64, and any nonzero coefficient,
    small or up to and beyond the 2**62 limit of int64 storage."""
    part = st.one_of(st.integers(-6, 6), st.integers(-(1 << 70), 1 << 70),
                     st.sampled_from([1 << 60, -(1 << 60), (1 << 61) + 1, (1 << 62) - 1,
                                      -(1 << 62)]))
    if genus == 1:
        index = st.one_of(st.integers(-6, order), part.filter(lambda e: e <= order))
    else:  # (e1, e2, e3) with e1 + e3 = d <= order
        index = st.tuples(part, part, st.integers(-6, order)).map(
            lambda t: (t[0], t[1], t[2] - t[0]))
    return st.builds(lambda k, c: QuarterSeries(genus, order, {k: c}), index,
                     st.one_of(_gauss, _mixed).filter(bool))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 2]), st.integers(0, 12))
def test_a_one_term_factor_is_a_shift_and_a_scale(data, genus, order):
    """A product with a one-term factor, on either side, is the brute-force
    product, stored canonically, and makes no np.add.at: it is a shift of
    the other factor's indices and a scale of its coefficients."""
    term = data.draw(_one_term(genus, order))
    other = data.draw(st.one_of(_ring_series(genus, order), _parted_series(genus, order, 3)))
    brute = brute_mul_g1 if genus == 1 else brute_mul_g2
    for o in (order, data.draw(st.integers(0, order))):
        counting = _CountingNumpy()
        with mock.patch.object(arith, "np", counting):
            products = series_mul(term, other, o), series_mul(other, term, o)
        assert counting.add_at_calls == 0
        for prod in products:
            assert prod == brute(term, other, o)
            _assert_stored_canonically(prod)


_TOP = (1 << 62) - 1  # the largest entry of int64 storage


@pytest.mark.parametrize("term, other", [
    # the index's code reaches the guard: shifted exponents leave int64
    (QuarterSeries(1, 4, {-(1 << 62): 1}), QuarterSeries(1, 4, {0: 1, 3: 2})),
    (QuarterSeries(2, 4, {(1 << 70, 0, 3 - (1 << 70)): 1}), QuarterSeries(2, 4, {(0, 0, 0): 1, (1, 0, 1): 2})),
    # the other factor's columns are wide: an exponent sum reaches 2**62
    (QuarterSeries(2, 4, {(1, 0, 0): 1}), QuarterSeries(2, 4, {(0, 0, 0): 1, (_TOP, 1, -_TOP): 2})),
    # |cr| + |ci| times linf reaches 2**62, though |cr| times linf does not
    (QuarterSeries(1, 4, {1: GaussInt(1, _TOP)}), QuarterSeries(1, 4, {0: GaussInt(1, 1), 2: 1})),
], ids=["g1-index", "g2-index", "wide-columns", "gaussian-scale"])
def test_a_one_term_factor_at_the_int64_guards(term, other):
    brute = brute_mul_g1 if term.genus == 1 else brute_mul_g2
    for prod in (series_mul(term, other), series_mul(other, term)):
        assert prod == brute(term, other, 4)
        _assert_stored_canonically(prod)


def _reference_summary(s):
    """The fields of the pair kernel's summary, from the coeffs mapping in
    Python: whether four times a code entry reaches 2**62; per code column
    (e, or e1 + e3, e1, e2) its minimum, maximum, min(c + d), max(c - d) and
    the gcd of its differences; then the l1 and linf norms of |re| + |im|
    and whether re and im have a nonzero."""
    keys = [(k,) if s.genus == 1 else (k[0] + k[2], k[0], k[1]) for k in s.coeffs]
    cols = list(zip(*keys))
    d = cols[0]
    norms = [abs(v.re) + abs(v.im) for v in s.coeffs.values()]
    return (4 * max(abs(v) for k in keys for v in k) >= 1 << 62,
            [min(c) for c in cols], [max(c) for c in cols],
            [min(x + y for x, y in zip(c, d)) for c in cols],
            [max(x - y for x, y in zip(c, d)) for c in cols],
            [math.gcd(*(x - c[0] for x in c)) for c in cols], sum(norms), max(norms),
            (any(v.re for v in s.coeffs.values()), any(v.im for v in s.coeffs.values())))


def _assert_summary_bounds(s):
    """The summary s keeps, read by the kernel, bounds the scan of s as
    _Summary states: each low at most the column's minimum and congruent to
    its entries modulo the gcd, which divides every difference; each high,
    plus and minus on the safe side; `wide` whenever the scan's is; the
    norms and nonzero flags exact."""
    kept, scan = arith._kernel_summary(s), arith._summary(s)
    divides = lambda g, x: x % g == 0 if g else x == 0
    for j in range(len(scan.low)):
        assert divides(kept.gcd[j], scan.gcd[j]) and divides(kept.gcd[j], scan.low[j] - kept.low[j])
        assert kept.low[j] <= scan.low[j] and kept.high[j] >= scan.high[j]
        assert kept.plus[j] <= scan.plus[j] and kept.minus[j] >= scan.minus[j]
    assert kept.wide >= scan.wide and kept[6:] == scan[6:]


def _rescanned(s):
    """A copy of s made from its arrays, which the kernel scans."""
    return QuarterSeries.from_arrays(s.genus, s.order, s.exps, s.re, s.im)


@settings(max_examples=25, deadline=None)
@given(st.data(), st.sampled_from([1, 2]), st.integers(0, 12))
def test_the_kernel_summary_is_computed_once_and_kept_on_the_series(data, genus, order):
    """A series made from outside data keeps the summary of one scan, equal
    to the Python reference; a series the package builds keeps the summary
    its builder gave, which bounds that scan.  Copies and pickles, and ==,
    never carry or read it."""
    a, b = (data.draw(_ring_series(genus, order)) for _ in range(2))
    cut = data.draw(st.integers(0, order))
    scanned = [a, _rescanned(a), a.truncate(cut), QuarterSeries.one(genus, order)]
    built = [series_mul(a, b), series_mul(a, b, cut),
             theta_expansion((0, 1) if genus == 1 else (0, 1, 1, 0), order)]
    for s in (s for s in scanned + built if not s.is_zero()):
        kept = arith._kernel_summary(s)
        assert arith._kernel_summary(s) is kept is s._kernel_summary
        if any(s is t for t in scanned):
            assert kept == arith._summary(s) and list(kept) == list(_reference_summary(s))
        else:
            _assert_summary_bounds(s)
            assert list(arith._summary(s)) == list(_reference_summary(s))
        assert arith._code_columns(s).tolist() == [list(c) for c in zip(*(
            [(k,) for k in s.coeffs] if genus == 1 else _degree_major(s)))]
        for copied in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert copied == s == _rescanned(s) and copied._kernel_summary is None


def test_theta_summaries_in_closed_form_bound_the_scan():
    """The closed-form summary of every theta series, in both genera, for
    all 16 genus-2 characteristics and unreduced ones, at orders 0 to 400,
    bounds the scan (and is exact but for the gcd of a short series)."""
    shifts = {1: [(0, 0), (2, -2), (-2, 3)], 2: [(0, 0, 0, 0), (2, 0, -2, 2), (0, -2, 3, 4)]}
    for genus, orders in ((1, range(401)), (2, [*range(41), *range(41, 401, 9), 400])):
        for m in itertools.product((0, 1), repeat=2 * genus):
            for k in shifts[genus]:
                for order in orders:
                    s = theta._theta_series.__wrapped__(tuple(x + y for x, y in zip(m, k)), order)
                    if not s.is_zero():
                        _assert_summary_bounds(s)
                        kept, scan = s._kernel_summary, arith._summary(s)
                        assert kept._replace(gcd=scan.gcd) == scan


@pytest.mark.parametrize("seed", range(6))
def test_products_of_kept_summaries_equal_products_of_rescanned_copies(seed):
    """Seeded six-theta products, built one factor at a time from the kept
    summaries, equal, term for term and dtype for dtype, the chains of the
    same products of rescanned copies; and every step's kept summary bounds
    its scan.  A theta low off its lattice breaks the former."""
    rng = random.Random(seed)
    evens = theta.even_characteristics(2)
    for _ in range(10):
        ms = [tuple(x + 2 * rng.randint(-1, 1) for x in rng.choice(evens)) for _ in range(6)]
        order = rng.randint(0, 90)
        got = six_tuple_expansion(ms, order)
        prod = QuarterSeries.one(2, order)
        for m in ms:
            factor = theta_expansion(m, order)
            prod, kept = series_mul(_rescanned(prod), _rescanned(factor)), series_mul(prod, factor)
            assert _terms(kept) == _terms(prod)
            if not kept.is_zero():
                _assert_summary_bounds(kept)
        assert _terms(got) == _terms(prod)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 2]), st.integers(0, 12), _fills)
def test_chains_of_built_products_and_shifts_match_rescanned_chains(data, genus, order, pairs):
    """Products and one-term shifts of arbitrary series, wide exponents and
    coefficients beyond int64 included, keep summaries that bound their
    scans, and a chain of them equals the chain of rescanned copies, dtypes
    included.  Strided series share their steps, so that products keep
    lattices coarser than 1."""
    steps = data.draw(_steps)

    def strided():
        if genus == 2:
            return _strided_g2_series(order, steps, data.draw(_offsets))
        e = st.integers(-3, 4).map(lambda k, o=data.draw(st.integers(-5, 7)): o + steps[0] * k)
        return st.dictionaries(e.filter(lambda e: e <= order), _gauss, min_size=1,
                               max_size=10).map(lambda d: QuarterSeries(1, order, d))

    def draw():
        return data.draw(st.one_of(_ring_series(genus, order), _one_term(genus, order),
                                   strided(), strided()))
    factors = [draw() for _ in range(data.draw(st.integers(2, 4)))]
    with mock.patch.object(arith, "_BROADCAST_PAIRS", pairs):
        kept, fresh = factors[0], factors[0]
        for f in factors[1:]:
            o = data.draw(st.integers(0, order))
            kept, fresh = series_mul(kept, f, o), series_mul(_rescanned(fresh), f, o)
            assert _terms(kept) == _terms(fresh)
            _assert_stored_canonically(kept)
            if not kept.is_zero():
                _assert_summary_bounds(kept)
            order = o


def test_the_package_builds_scan_no_series(monkeypatch):
    """The kernel scans no series while the package builds F_Z or the
    newform's theta product from empty caches; it scans a series made by the
    constructor once."""
    calls = []
    scan = arith._summary
    monkeypatch.setattr(arith, "_summary", lambda s: calls.append(s) or scan(s))
    theta._theta_series.cache_clear()
    cmform._g_theta_product.cache_clear()
    six_tuple_expansion(FZ_TUPLE, 200)
    cmform.g_expansion("theta_product", 1200)
    assert calls == []
    a = QuarterSeries(1, 20, {0: 1, 4: 2, 8: -1})
    series_mul(a, a), series_mul(a, theta_expansion((0, 1), 20))
    assert calls == [a]


@pytest.mark.parametrize("bits", [8, 16, 62, 63, 64, 72])
def test_pair_kernel_is_exact_where_its_int64_bound_is_tight(bits):
    # with every coefficient m, the product's top entry n * m**2 reaches the
    # overflow bound l1 * linf, whose bit length is `bits`: up to 62 bits the
    # pair kernel runs on int64, from 63 on Python ints
    n = 40
    m = math.isqrt(((1 << bits) - 1) // n)
    assert (n * m * m).bit_length() == bits
    a = QuarterSeries(1, n - 1, {e: m for e in range(n)})
    b = QuarterSeries(1, n - 1, {e: -m for e in range(n)})
    expected = QuarterSeries(1, n - 1, {e: -(e + 1) * m * m for e in range(n)})
    assert series_mul(a, b) == expected


# ---------------------------------------------------------------------------
# integer polynomials

def test_intpoly_ops():
    f = IntPolynomial([1, -3])
    g = IntPolynomial([1, 0, 9])
    assert (f * g).coeffs == (1, -3, 9, -27)
    assert (f + g).coeffs == (2, -3, 9)
    assert f.degree() == 1 and IntPolynomial([0]).degree() == -1
    assert IntPolynomial([1, 0, 0]).coeffs == (1,)


def test_intpoly_twist():
    f = IntPolynomial([1, -2, 5])
    assert f.substitute_scaled(3).coeffs == (1, -6, 45)


def test_intpoly_gaussian_coeffs():
    f = IntPolynomial([1, GaussInt(0, 1)])
    assert (f * f).coeffs == (1, GaussInt(0, 2), -1)


def test_is_prime_small():
    assert [p for p in range(60) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]
