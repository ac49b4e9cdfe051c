"""The weight-3 CM newform with quadratic nebentypus at level 16.

Three independent constructions of the same q-expansion: a product of six
genus-1 theta constants, a Gaussian-integer lattice sum over a shifted
half-integral coset, and the multiplicative Hecke build from split-prime
eigenvalues.  The first is the exact oracle the other two are matched
against.  The lattice sum reads the displayed sign (-1)^((x+y)/2) as the
integer-shift parity (-1)^(x+y-1) with the kernel conj(z)^2, and a_p is
2(x^2 - y^2) of the primary x + iy; the package tests show that the other
readings of the sign leave Z[i] and that the (ix - y)^2 kernel gives the
identical series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .arith import _split_primary, is_prime, kronecker_char, series_product
from .theta import G_TUPLE, theta_expansion


@dataclass(frozen=True)
class EllipticQExpansion:
    """Coefficients a_n, n >= 0, of a q-expansion (q = e^{2 pi i tau}), read-only:
    `a` is a mapping proxy, so an expansion a cache hands out cannot be edited."""

    order: int
    a: MappingProxyType  # built from any mapping of n to a_n

    def __post_init__(self):
        a = {n: v for n, v in self.a.items() if v and n <= self.order}
        object.__setattr__(self, "a", MappingProxyType(a))

    def __reduce__(self):  # copy and pickle through the constructor
        return EllipticQExpansion, (self.order, dict(self.a))

    def coeff(self, n: int) -> int:
        return self.a.get(n, 0)

    def agrees_with(self, other: "EllipticQExpansion", order: int) -> bool:
        """a_n equal for n <= order; raises past either expansion's order,
        where the missing coefficients are unknown, not zero."""
        if order > min(self.order, other.order):
            raise ValueError("comparison not valid beyond the smaller expansion order")
        def upto(a):  # exact, as __post_init__ drops zeros
            return {n: v for n, v in a.items() if n <= order}
        return upto(self.a) == upto(other.a)

    def pairs(self) -> list:
        return sorted(self.a.items())


def g_expansion(source: str, order: int) -> EllipticQExpansion:
    """The normalized newform coefficients a_1..a_order, three ways."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if source == "theta_product":
        return _g_theta_product(order)
    if source == "gauss_sum":
        return _g_gauss_sum(order)
    if source == "hecke_character":
        return _g_hecke(order)
    raise ValueError(f"unknown source {source!r}")


@lru_cache(maxsize=8)
def _g_theta_product(order: int) -> EllipticQExpansion:
    """theta_(0,0)^2 theta_(0,1)^2 theta_(1,0)^2 at tau -> 4 tau, where the index
    e (unit pi i tau / 4) becomes the q-power e/2; leading coefficient normalized to 1."""
    u_order = 2 * order
    # the square of theta00 theta01 theta10, a series of about sqrt(u_order)
    # terms (2 eta^3 by Jacobi's identity): three products in all
    prod = series_product(theta_expansion(m, u_order) for m in G_TUPLE)
    e, re = prod.exps[0], prod.re
    if (e % 2).any() or prod.im.any():
        raise AssertionError("theta product is not an integral series in q")
    lead = prod.coefficient(2).re
    if not lead or (re % lead).any():
        raise AssertionError("leading coefficient is 0 or does not divide the series")
    return EllipticQExpansion(order, dict(zip((e // 2).tolist(), (re // lead).tolist())))


def odd_coset_sum(bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts, indexed by e = 0..bound, of the sum of
    i (-1)^((X+Y)/2 - 1) (X - iY)^2 over odd X, Y with X^2 + Y^2 = e.

    With z = (X + iY)/2 in the coset (1 + i)/2 + Z[i] this is eight times
    the weight (i/2)(-1)^(x+y-1) conj(z)^2 at the exponent 4 N(z) = e: the
    newform's lattice sum and the z2 = 0 stratum of E_Z.
    """
    # each term has |re|, |im| <= X^2 + Y^2 <= bound, and there are at most
    # (sqrt(bound) + 1)^2 points, so below 2^30 every int64 sum is exact
    if not 0 <= bound < 1 << 30:
        raise ValueError(f"bound {bound} outside [0, 2^30)")
    r = math.isqrt(bound)
    v = np.arange(-r - 1, r + 2)
    v = v[v % 2 == 1]
    X, Y = v[:, None], v[None, :]
    e = X * X + Y * Y
    keep = e <= bound
    eps = 1 - 2 * (((X + Y) // 2 - 1) % 2)
    re, im = np.zeros(bound + 1, dtype=np.int64), np.zeros(bound + 1, dtype=np.int64)
    # i (X - iY)^2 = 2XY + i (X^2 - Y^2)
    np.add.at(re, e[keep], (eps * 2 * X * Y)[keep])
    np.add.at(im, e[keep], (eps * (X * X - Y * Y))[keep])
    return re, im


def _g_gauss_sum(order: int) -> EllipticQExpansion:
    """The lattice sum at q = t^2, that is X^2 + Y^2 = 2n, divided by 8."""
    re, im = (part[::2] for part in odd_coset_sum(2 * order))
    if im.any() or (re % 8).any():
        raise AssertionError("lattice sum left the integers")
    return EllipticQExpansion(order, dict(enumerate((re // 8).tolist())))


# ---------------------------------------------------------------------------
# Hecke eigenvalues from the split-prime decomposition

def a_p(p: int) -> int:
    """Eigenvalue of the newform at an odd prime: 0 at inert primes,
    2(x^2 - y^2) from the primary x + iy of norm p."""
    if p == 2:
        raise ValueError("p = 2 is ramified; the eigenvalue is not defined here")
    if not is_prime(p) or p % 2 == 0:
        raise ValueError(f"{p} is not an odd prime")
    return _a_p(p)


def _a_p(p: int) -> int:
    """a_p at an odd prime p, with no primality test: for callers whose
    sieve has found p."""
    if p % 4 == 3:
        return 0
    pi = _split_primary(p)
    return 2 * (pi.re * pi.re - pi.im * pi.im)


@lru_cache(maxsize=8)
def _g_hecke(order: int) -> EllipticQExpansion:
    """Multiplicative build: a_1 = 1, a_mn = a_m a_n for coprime m and n, and
    prime powers by the weight-3 recursion a_{p^(k+1)} = a_p a_{p^k} -
    chi_-1(p) p^2 a_{p^(k-1)}, with a_{2^k} = 0.  A smallest-prime-factor
    sieve splits each n into the power of its smallest prime and the rest."""
    spf = _smallest_prime_factors(order).tolist()
    a = [0] * (order + 1)
    a[1] = 1
    rest = [1] * (order + 1)  # n with every factor spf[n] removed
    for n in range(2, order + 1):
        p, m = spf[n], n // spf[n]
        rest[n] = rest[m] if spf[m] == p else m
        if rest[n] > 1:
            a[n] = a[rest[n]] * a[n // rest[n]]
        elif p == 2:
            a[n] = 0
        elif m == 1:
            a[n] = _a_p(p)  # p is a prime of the sieve
        else:
            a[n] = a[p] * a[m] - kronecker_char(-1, p) * p * p * a[m // p]
    return EllipticQExpansion(order, dict(enumerate(a)))


def _smallest_prime_factors(bound: int) -> np.ndarray:
    """spf[n] for 0 <= n <= bound: the smallest prime dividing n (0 and 1
    map to themselves)."""
    spf = np.arange(bound + 1)
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == p:
            multiples = spf[p * p::p]
            multiples[multiples == np.arange(p * p, bound + 1, p)] = p
    return spf


# ---------------------------------------------------------------------------
# Hecke operator check

def hecke_residual(g: EllipticQExpansion, p: int, order: int) -> EllipticQExpansion:
    """Residual series of T_p g - a_p g up to the given order, read from an
    expansion g of order at least order * p; zero iff g is an eigenvector
    with eigenvalue a_p that far."""
    if order < 1:
        raise ValueError("order must be >= 1")
    ap = a_p(p)
    if g.order < order * p:
        raise ValueError(f"T_{p} up to order {order} reads coefficients to {order * p}, "
                         f"past the expansion's order {g.order}")
    chi = kronecker_char(-1, p)
    residual = {}
    for n in range(1, order + 1):
        val = g.coeff(n * p)
        if n % p == 0:
            val += chi * p * p * g.coeff(n // p)
        val -= ap * g.coeff(n)
        if val:
            residual[n] = val
    return EllipticQExpansion(order, residual)


def hecke_Tp_check(p: int, order: int) -> EllipticQExpansion:
    """hecke_residual of the theta product built to order * p."""
    if p == 2 or not is_prime(p):
        raise ValueError("need an odd prime")
    if order < 1:
        raise ValueError("order must be >= 1")
    return hecke_residual(_g_theta_product(order * p), p, order)
