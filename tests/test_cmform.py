import copy
import math
import pickle

import pytest

from siegelz import arith, cmform
from siegelz.arith import GaussInt, QuarterSeries, is_prime, kronecker_char, odd_primes, series_mul
from siegelz.cmform import (
    EllipticQExpansion,
    a_p,
    g_expansion,
    hecke_residual,
    hecke_Tp_check,
)
from siegelz.cli import RunConfig, run
from siegelz.pointcount import verify_count_formulas
from siegelz.theta import G_TUPLE, theta_expansion


def test_triple_agreement_order_600():
    """The three builds agree to order 600, beyond the `g-triple` claim's 200."""
    ga = g_expansion("theta_product", 600)
    gb = g_expansion("gauss_sum", 600)
    gc = g_expansion("hecke_character", 600)
    assert ga.agrees_with(gb, 600)
    assert ga.agrees_with(gc, 600)


def test_agreement_past_either_order_raises():
    """Coefficients past an expansion's order are unknown, not zero."""
    short, long = g_expansion("theta_product", 10), g_expansion("gauss_sum", 50)
    assert short.agrees_with(long, 10) and long.agrees_with(short, 10)
    for a, b in ((short, long), (long, short), (short, g_expansion("gauss_sum", 10))):
        with pytest.raises(ValueError, match="beyond the smaller expansion order"):
            a.agrees_with(b, 50)


def test_agreement_reads_every_coefficient_up_to_the_order():
    """A difference at n = order counts, one at n = order + 1 does not, and
    a zero coefficient reads as an absent one."""
    base = {0: 2, 1: 1, 5: -6, 9: 9}
    a = EllipticQExpansion(10, base)
    assert a.agrees_with(EllipticQExpansion(10, {**base, 7: 0}), 10)
    for n in (0, 5, 10):
        other = EllipticQExpansion(10, {**base, n: base.get(n, 0) + 1})
        assert not a.agrees_with(other, 10) and not other.agrees_with(a, 10)
    assert a.agrees_with(EllipticQExpansion(10, {**base, 10: 1}), 9)
    past = EllipticQExpansion(11, {**base, 11: 4})
    assert a.agrees_with(past, 10) and past.agrees_with(a, 10)
    assert not past.agrees_with(EllipticQExpansion(11, base), 11)
    with pytest.raises(ValueError, match="beyond the smaller expansion order"):
        past.agrees_with(a, 11)


@pytest.mark.parametrize("order", [1, 200, 1200])
def test_theta_product_needs_no_leading_one(monkeypatch, order):
    """The build multiplies theta00 theta01 theta10 from the first one on and
    squares that half product, in three products, and its product is the
    one-first chain's, term for term and dtype for dtype."""
    u_order = 2 * order
    one_first = QuarterSeries.one(1, u_order)
    for m in G_TUPLE:
        one_first = series_mul(one_first, theta_expansion(m, u_order))
    products = []

    def spy(a, b, order=None):
        products.append(series_mul(a, b, order))
        return products[-1]

    monkeypatch.setattr(arith, "series_mul", spy)
    cmform._g_theta_product.__wrapped__(order)
    assert len(products) == 3
    half = products[1]
    assert products[2] == series_mul(half, half)
    last = products[-1]
    assert [(x.dtype, x.tolist()) for x in (*last.exps, last.re, last.im)] == \
        [(x.dtype, x.tolist()) for x in (*one_first.exps, one_first.re, one_first.im)]


def _hecke_by_trial_division(order):
    """The multiplicative build with every n factored by trial division over
    the primes up to it: the reference for the sieve build."""
    prime_power = {}
    for p in range(2, order + 1):
        if not is_prime(p):
            continue
        table = {0: 1}
        k = 1
        while p ** k <= order:
            if p == 2:
                table[k] = 0
            elif k == 1:
                table[k] = a_p(p)
            else:
                table[k] = a_p(p) * table[k - 1] - kronecker_char(-1, p) * p * p * table[k - 2]
            k += 1
        prime_power[p] = table
    coeffs = {1: 1}
    for n in range(2, order + 1):
        m, val = n, 1
        for p, table in prime_power.items():
            if p > m:
                break
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            val *= table[k]
        coeffs[n] = val
    return coeffs


@pytest.mark.parametrize("order", [60, 200, 3000, 6000])
def test_hecke_build_matches_trial_division(order):
    cmform._g_hecke.cache_clear()
    expected = {n: v for n, v in _hecke_by_trial_division(order).items() if v}
    assert g_expansion("hecke_character", order).a == expected


def test_hecke_build_trusts_its_sieve_and_equals_a_build_through_a_p(monkeypatch):
    """_g_hecke reads a_p at the primes its sieve found through cmform._a_p,
    with no primality test; routing each read through the public a_p, which
    checks every prime, gives the same expansion at 3000, and a_p still
    rejects what is not an odd prime."""
    tests = []
    for module in (arith, cmform):
        real_is_prime = module.is_prime
        monkeypatch.setattr(module, "is_prime", lambda n, f=real_is_prime: tests.append(n) or f(n))
    cmform._g_hecke.cache_clear()
    fast = cmform._g_hecke(3000)
    assert tests == []
    monkeypatch.undo()

    real, public, reads = cmform._a_p, cmform.a_p, []

    def through_a_p(p):
        reads.append(p)
        with monkeypatch.context() as inner:
            inner.setattr(cmform, "_a_p", real)
            return public(p)

    monkeypatch.setattr(cmform, "_a_p", through_a_p)
    cmform._g_hecke.cache_clear()
    checked = cmform._g_hecke(3000)
    cmform._g_hecke.cache_clear()
    assert reads == odd_primes(3000) and checked == fast
    for bad in (1, 2, 9, 15, 3001 * 3):
        with pytest.raises(ValueError):
            cmform.a_p(bad)


def _theta_product_by_squares(order):
    """The theta-product build with each factor squared before it is
    multiplied in: the reference for the factor-by-factor build."""
    u_order = 2 * order
    prod = QuarterSeries.one(1, u_order)
    for m in ((0, 0), (0, 1), (1, 0)):
        t = theta_expansion(m, u_order)
        prod = series_mul(prod, series_mul(t, t))
    # tau -> 4 tau takes the index e (unit pi i tau / 4) to the q-power e/2
    e, re = prod.exps[0], prod.re
    assert not (e % 2).any() and not prod.im.any()
    lead = prod.coefficient(2).re
    return EllipticQExpansion(order, dict(zip((e // 2).tolist(), (re // lead).tolist())))


@pytest.mark.parametrize("order", [1, 60, 200, 1128, 3000])
def test_theta_product_matches_the_squared_build(order):
    g = g_expansion("theta_product", order)
    reference = _theta_product_by_squares(order)
    assert (g.order, g.a) == (reference.order, reference.a)


def test_smallest_prime_factors():
    spf = cmform._smallest_prime_factors(500).tolist()
    assert spf[:2] == [0, 1]
    for n in range(2, 501):
        assert spf[n] == min(p for p in range(2, n + 1) if n % p == 0)


def test_normalization_and_first_coefficients():
    g = g_expansion("theta_product", 30)
    assert g.coeff(0) == 0
    assert g.coeff(1) == 1
    assert g.coeff(5) == -6
    assert g.coeff(9) == 9
    assert g.coeff(13) == 10
    assert g.coeff(17) == -30
    assert g.coeff(25) == 11


def test_even_coefficients_vanish():
    g = g_expansion("theta_product", 200)
    assert all(g.coeff(n) == 0 for n in range(2, 201, 2))


def test_cm_support():
    g = g_expansion("theta_product", 200)
    assert all(n % 4 == 1 for n, v in g.a.items() if v)


# the readings of the lattice sum's displayed sign (-1)^((x+y)/2), as
# functions of the integer s = x + y, and of its kernel, scaled by 2
GAUSS_SIGNS = {
    "parity_int_shift": lambda s: GaussInt(-1 if (s - 1) % 2 else 1, 0),
    "i_power": lambda s: (GaussInt(1, 0), GaussInt(0, 1), GaussInt(-1, 0), GaussInt(0, -1))[s % 4],
    "floor_half": lambda s: GaussInt(-1 if (s // 2) % 2 else 1, 0),
}
GAUSS_KERNELS = {
    "zbar_sq": lambda X, Y: GaussInt(X, -Y) * GaussInt(X, -Y),
    # (iX - Y)^2 = -(X + iY)^2
    "ix_plus_y_sq": lambda X, Y: GaussInt(-Y, X) * GaussInt(-Y, X),
}


def _gauss_sum_reading(order, kernel, sign):
    """The q-coefficients of the sum of (i/2) kernel(z) sign(x + y) over
    z = x + iy, x, y in 1/2 + Z, at q^(2 N(z)); None if one leaves Z."""
    acc = {}
    r = math.isqrt(2 * order) | 1
    for X in range(-r, r + 1, 2):
        for Y in range(-r, r + 1, 2):
            n = (X * X + Y * Y) // 2
            if n <= order:
                term = GaussInt(0, 1) * GAUSS_KERNELS[kernel](X, Y) * GAUSS_SIGNS[sign]((X + Y) // 2)
                acc[n] = acc.get(n, GaussInt()) + term
    if any(v.im or v.re % 8 for v in acc.values()):
        return None
    return EllipticQExpansion(order, {n: v.re // 8 for n, v in acc.items()})


def test_resolved_gauss_convention():
    """The evidence for the fixed reading of the lattice sum: the other sign
    readings leave Z[i]/8 under both kernels, and the other kernel with the
    integer-shift parity gives the identical series."""
    order = 60
    oracle = g_expansion("theta_product", order)
    fixed = _gauss_sum_reading(order, "zbar_sq", "parity_int_shift")
    assert fixed.a == g_expansion("gauss_sum", order).a
    assert fixed.agrees_with(oracle, order)
    assert _gauss_sum_reading(order, "ix_plus_y_sq", "parity_int_shift").a == fixed.a
    for kernel in GAUSS_KERNELS:
        for sign in ("i_power", "floor_half"):
            assert _gauss_sum_reading(order, kernel, sign) is None, (kernel, sign)


def test_ap_examples():
    assert a_p(3) == 0
    assert a_p(7) == 0
    assert abs(a_p(5)) == 6
    assert a_p(5) == -6  # sign fixed against the theta-product oracle
    assert a_p(13) == 10
    with pytest.raises(ValueError):
        a_p(2)
    with pytest.raises(ValueError):
        a_p(15)


def test_ap_cm_and_weil():
    for p in odd_primes(300):
        val = a_p(p)
        assert abs(val) <= 2 * p
        assert abs(val) <= 2 * math.sqrt(p) * math.sqrt(p)
        if p % 4 == 3:
            assert val == 0


def test_hecke_eigenform_small_primes():
    for p in (3, 5, 13):
        assert not hecke_Tp_check(p, 60).a


def test_hecke_eigenform_deep_order():
    assert not hecke_Tp_check(5, 1000).a


def test_hecke_all_odd_p_to_50():
    for p in odd_primes(50):
        assert not hecke_Tp_check(p, 24).a


def test_hecke_orders_below_one_raise(monkeypatch):
    """An order below 1 is rejected before any build, and a residual of no
    terms, which would pass for any a_p, is never returned."""
    g = g_expansion("theta_product", 30)

    def no_build(order):
        raise AssertionError(f"built to {order}")

    monkeypatch.setattr(cmform, "_g_theta_product", no_build)
    for order in (0, -1):
        with pytest.raises(ValueError, match="order must be >= 1"):
            hecke_Tp_check(5, order)
        with pytest.raises(ValueError, match="order must be >= 1"):
            hecke_residual(g, 3, order)


def test_hecke_residual_reads_any_long_enough_expansion():
    """One build at 24 * 47 gives every prime's residual, identical to the
    check's own build at 24p; a build shorter than order * p raises."""
    g = g_expansion("theta_product", 24 * 47)
    for p in odd_primes(50):
        assert hecke_residual(g, p, 24).a == hecke_Tp_check(p, 24).a == {}
    assert not hecke_residual(g_expansion("theta_product", 120), 5, 24).a
    with pytest.raises(ValueError, match="past the expansion's order 119"):
        hecke_residual(g_expansion("theta_product", 119), 5, 24)
    with pytest.raises(ValueError):
        hecke_residual(g, 2, 24)


def test_hecke_suite_builds_the_newform_once(monkeypatch):
    builds = []
    real = cmform._g_theta_product

    def spy(order):
        builds.append(order)
        return real(order)

    monkeypatch.setattr(cmform, "_g_theta_product", spy)
    reports, code = run(RunConfig(selected_suites=["hecke"]))
    assert code == 0 and len(reports) == len(odd_primes(50))
    assert builds == [24 * 47]


def test_hecke_suite_fails_the_prime_whose_eigenvalue_is_wrong(monkeypatch):
    real = cmform.a_p
    monkeypatch.setattr(cmform, "a_p", lambda p: -real(p) if p == 13 else real(p))
    assert real(13) != 0
    reports, code = run(RunConfig(selected_suites=["hecke"]))
    assert code == 1
    failed = [r.details["p"] for r in reports if r.status == "fail"]
    assert failed == [13]


def test_multiplicativity_from_theta_product():
    order = 10_000
    g = g_expansion("theta_product", order)
    for m in range(3, 101, 2):
        for n in range(3, 101, 2):
            if math.gcd(m, n) == 1 and m * n <= order:
                assert g.coeff(m * n) == g.coeff(m) * g.coeff(n), (m, n)


def test_pointcount_consistency():
    for p in (3, 5, 7, 11, 13):
        rep = verify_count_formulas(p, a_p(p))
        assert rep["residuals"]["fermat_corrected"] == 0
        assert rep["measured_frobenius_trace"] == a_p(p)


def test_expansion_container():
    e = EllipticQExpansion(10, {1: 1, 4: 0, 20: 7})
    assert e.coeff(4) == 0 and e.coeff(20) == 0  # zero and out-of-order dropped
    assert e.pairs() == [(1, 1)]
    assert copy.deepcopy(e) == pickle.loads(pickle.dumps(e)) == e


@pytest.mark.parametrize("source", ["theta_product", "hecke_character"])
def test_cached_expansion_is_read_only(source):
    """The builds are cached, so an edit to a handed-out expansion would
    reach every later caller."""
    g = g_expansion(source, 10)
    with pytest.raises(TypeError):
        g.a[5] = 99
    with pytest.raises(AttributeError):
        g.a = {}
    assert g_expansion(source, 10).a[5] == -6


def test_bad_inputs():
    with pytest.raises(ValueError):
        g_expansion("theta_product", 0)
    with pytest.raises(ValueError):
        g_expansion("modular_symbols", 10)
    with pytest.raises(ValueError):
        hecke_Tp_check(2, 10)
