import pytest

from siegelz.arith import GaussInt, IntPolynomial, odd_primes
from siegelz.cmform import a_p
from siegelz.lfactors import (
    ae_quartic,
    euler_factor,
    h2_lpoly,
    spin_identity_check,
    spin_quartic_target,
    trace_h2,
)


def test_euler_factor_examples():
    assert euler_factor("chi", 5, d=-1).twist(1).poly == IntPolynomial([1, -5])
    assert euler_factor("g", 3).poly == IntPolynomial([1, 0, -9])
    assert euler_factor("zeta", 7).poly == IntPolynomial([1, -1])


def test_euler_factor_validation():
    with pytest.raises(ValueError):
        euler_factor("zeta", 4)
    with pytest.raises(ValueError):
        euler_factor("eta", 3)


def test_twist_compatibility():
    for kind, d in (("zeta", 0), ("chi", -1), ("chi", 2), ("g", 0)):
        for p in (3, 5, 13):
            for j in (1, 2, 3):
                base = euler_factor(kind, p, d=d)
                assert base.twist(j).poly == base.poly.substitute_scaled(p ** j)
                # T -> p^j T scales the k-th coefficient by p^(jk)
                want = [c * p ** (j * k) for k, c in enumerate(base.poly.coeffs)]
                assert base.twist(j).poly == IntPolynomial(want)


def test_h2_degree_and_trace():
    for p in (3, 5, 7, 11, 13):
        h = h2_lpoly(p)
        assert h.degree() == 21
        assert h.poly[1] == -trace_h2(p)
    assert trace_h2(3) == 3
    assert trace_h2(5) == 55 + a_p(5)


def test_g_factor_root_magnitudes():
    # product of the two reciprocal roots has absolute value p^2
    for p in odd_primes(50):
        assert abs(euler_factor("g", p).poly[2]) == p * p


def test_ae_quartic_examples():
    assert ae_quartic(0, 0, 1, 3, 3).poly == IntPolynomial([1, 0, -9, 0, 729])
    # mu = k1 + k2 - 3
    assert (3 + 3 - 3, 3 + 1 - 3) == (3, 1)
    q = ae_quartic(2, 5, -1, 1, 5)
    assert q.poly[4] == 25 and q.poly[3] == 10


def test_ae_quartic_gaussian_delta():
    q = ae_quartic(0, 0, GaussInt(0, 1), 3, 3)
    assert q.poly[2] == GaussInt(0, -9)
    assert q.poly[4] == -729
    with pytest.raises(ValueError):
        ae_quartic(0, 0, 2, 3, 3)
    with pytest.raises(ValueError):
        ae_quartic(0, 0, GaussInt(1, 1), 3, 3)


def test_spin_identity_examples():
    for p in (3, 5, 13):
        residual, info = spin_identity_check(p)
        assert residual.is_zero()
        assert info["lambda1"] == a_p(p) * (1 + p)
    assert spin_identity_check(3)[1]["lambda1"] == 0


def test_spin_identity_all_odd_to_50():
    for p in odd_primes(50):
        residual, info = spin_identity_check(p)
        assert residual.is_zero()
        assert info["delta_matches_nebentypus"]


def test_spin_target_structure():
    for p in (3, 5):
        target = spin_quartic_target(p)
        assert target.degree() == 4
        assert target.poly[0] == 1
        assert target.poly[4] == p ** 6
