"""The weight-3 CM newform with quadratic nebentypus at level 16.

Three independent constructions of the same q-expansion: a product of six
genus-1 theta constants, a Gaussian-integer lattice sum over a shifted
half-integral coset, and the multiplicative Hecke build from split-prime
eigenvalues.  The first is the exact oracle the other two are matched
against; the eigenvalue sign convention and the lattice-sum sign rule are
resolved once against it and then frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .arith import GaussInt, QuarterSeries, gauss_primary_decompose, is_prime, kronecker_char, series_mul
from .theta import rescale4, theta_expansion


@dataclass
class EllipticQExpansion:
    """Coefficients a_n, n >= 0, of a q-expansion (q = e^{2 pi i tau})."""

    order: int
    a: dict = field(default_factory=dict)

    def __post_init__(self):
        self.a = {n: v for n, v in self.a.items() if v and n <= self.order}

    def coeff(self, n: int) -> int:
        return self.a.get(n, 0)

    def agrees_with(self, other: "EllipticQExpansion", order: int) -> bool:
        return all(self.coeff(n) == other.coeff(n) for n in range(order + 1))

    def pairs(self) -> list:
        return sorted(self.a.items())


GAUSS_SIGN_RULES = ("parity_int_shift", "i_power", "floor_half")
GAUSS_KERNELS = ("zbar_sq", "ix_plus_y_sq")


def g_expansion(source: str, order: int) -> EllipticQExpansion:
    """The normalized newform coefficients a_1..a_order, three ways."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if source == "theta_product":
        return _g_theta_product(order)
    if source == "gauss_sum":
        kernel, sign = resolve_gauss_convention()
        return _g_gauss_sum(order, kernel, sign)
    if source == "hecke_character":
        return _g_hecke(order)
    raise ValueError(f"unknown source {source!r}")


@lru_cache(maxsize=8)
def _g_theta_product(order: int) -> EllipticQExpansion:
    """theta_(0,0)^2 theta_(0,1)^2 theta_(1,0)^2, rescaled tau -> 4 tau and
    reindexed to q-powers, leading coefficient normalized to 1."""
    u_order = 2 * order
    prod = QuarterSeries.one(1, u_order)
    for m in ((0, 0), (0, 1), (1, 0)):
        t = theta_expansion(m, u_order)
        prod = series_mul(prod, series_mul(t, t))
    scaled = rescale4(prod)
    e, re = scaled.exps[0], scaled.re
    if (e % 8).any():
        raise AssertionError("unexpected exponent off the q-lattice")
    if scaled.im.any():
        raise AssertionError("theta product left the rational integers")
    lead = scaled.coefficient(8).re
    if not lead:
        raise AssertionError("missing leading coefficient")
    if (re % lead).any():
        raise AssertionError("leading coefficient does not divide the series")
    out = dict(zip((e // 8).tolist(), (re // lead).tolist()))
    return EllipticQExpansion(order, out)


def _gauss_sum_raw(order: int, kernel: str, sign: str) -> dict | None:
    """Eight times the lattice-sum coefficients, or None if they leave Z[i]/8.

    Sums (i/2) * kernel(z) * sign(z) over z = x + iy with x, y in 1/2 + Z and
    q-exponent n = 2(x^2 + y^2); working with X = 2x, Y = 2y keeps it exact.
    """
    acc: dict[int, GaussInt] = {}
    xmax = 1
    while (xmax * xmax + 1) <= 2 * order:
        xmax += 2
    for X in range(-xmax, xmax + 1, 2):
        for Y in range(-xmax, xmax + 1, 2):
            n2 = X * X + Y * Y  # = 4(x^2+y^2) = 2n
            if n2 > 4 * order:
                continue
            n = n2 // 2
            if kernel == "zbar_sq":
                ker = GaussInt(X, -Y) * GaussInt(X, -Y)
            else:
                ker = GaussInt(-Y, X) * GaussInt(-Y, X)  # (i x + y)^2 scaled by 2
            s = (X + Y) // 2  # the integer x + y
            if sign == "parity_int_shift":
                eps = GaussInt(-1 if (s - 1) % 2 else 1, 0)
            elif sign == "i_power":
                eps = GaussInt(0, 1) if s % 4 == 1 else (
                    GaussInt(0, -1) if s % 4 == 3 else GaussInt(1 if s % 4 == 0 else -1, 0))
            else:  # floor_half
                eps = GaussInt(-1 if (s // 2) % 2 else 1, 0)
            term = GaussInt(0, 1) * ker * eps  # i * (2z-bar)^2 * eps = 8 * (i/2) zbar^2 eps
            acc[n] = acc.get(n, GaussInt()) + term
    out = {}
    for n, v in acc.items():
        if not v:
            continue
        if v.re % 8 or v.im % 8:
            return None
        if v.im:
            return None
        out[n] = v.re // 8
    return out


@lru_cache(maxsize=1)
def resolve_gauss_convention() -> tuple:
    """Pick the (kernel, sign-rule) pair matching the theta-product oracle.

    The half-integral exponent in the displayed sign (-1)^((x+y)/2) is
    ambiguous; every reading is built and the one agreeing with the exact
    theta product is kept.
    """
    probe = 60
    oracle = _g_theta_product(probe)
    for kernel in GAUSS_KERNELS:
        for sign in GAUSS_SIGN_RULES:
            raw = _gauss_sum_raw(probe, kernel, sign)
            if raw is None:
                continue
            if all(raw.get(n, 0) == oracle.coeff(n) for n in range(probe + 1)):
                return kernel, sign
    raise AssertionError("no sign convention reproduces the theta product")


def _g_gauss_sum(order: int, kernel: str, sign: str) -> EllipticQExpansion:
    raw = _gauss_sum_raw(order, kernel, sign)
    if raw is None:
        raise AssertionError("lattice sum left the integers under the resolved convention")
    return EllipticQExpansion(order, raw)


# ---------------------------------------------------------------------------
# Hecke eigenvalues from the split-prime decomposition

@lru_cache(maxsize=1)
def _ap_sign() -> int:
    """Match the primary-decomposition eigenvalue at p = 5 to the oracle."""
    oracle = _g_theta_product(5).coeff(5)
    pi = gauss_primary_decompose(5)
    cand = 2 * (pi.re * pi.re - pi.im * pi.im)
    if cand == oracle:
        return 1
    if cand == -oracle:
        return -1
    raise AssertionError(f"primary eigenvalue {cand} does not match oracle {oracle}")


def a_p(p: int) -> int:
    """Eigenvalue of the newform at an odd prime: 0 at inert primes,
    plus-or-minus 2(x^2 - y^2) from the primary x + iy of norm p."""
    if p == 2:
        raise ValueError("p = 2 is ramified; the eigenvalue is not defined here")
    if not is_prime(p) or p % 2 == 0:
        raise ValueError(f"{p} is not an odd prime")
    if p % 4 == 3:
        return 0
    pi = gauss_primary_decompose(p)
    val = _ap_sign() * 2 * (pi.re * pi.re - pi.im * pi.im)
    assert abs(val) <= 2 * p
    return val


@lru_cache(maxsize=8)
def _g_hecke(order: int) -> EllipticQExpansion:
    """Multiplicative build: a_1 = 1, prime powers by the weight-3 recursion
    a_{p^(k+1)} = a_p a_{p^k} - chi_-1(p) p^2 a_{p^(k-1)}, a_{2^k} = 0."""
    coeffs = {1: 1}
    prime_power: dict[int, dict[int, int]] = {}
    for p in range(2, order + 1):
        if not is_prime(p):
            continue
        table = {0: 1}
        if p == 2:
            k = 1
            while p ** k <= order:
                table[k] = 0
                k += 1
        else:
            ap = a_p(p)
            chi = kronecker_char(-1, p)
            table[1] = ap
            k = 1
            while p ** (k + 1) <= order:
                table[k + 1] = ap * table[k] - chi * p * p * table[k - 1]
                k += 1
        prime_power[p] = table
    for n in range(2, order + 1):
        m, val = n, 1
        for p, table in prime_power.items():
            if p > m:
                break
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            if k:
                val *= table.get(k, 0)
        if m != 1:  # leftover prime factor > order cannot happen for n <= order
            raise AssertionError("factorization incomplete")
        coeffs[n] = val
    return EllipticQExpansion(order, coeffs)


# ---------------------------------------------------------------------------
# Hecke operator check

def hecke_Tp_check(p: int, order: int) -> EllipticQExpansion:
    """Residual series of T_p g - a_p g up to the given order; zero iff the
    expansion is an eigenvector with eigenvalue a_p."""
    if p == 2 or not is_prime(p):
        raise ValueError("need an odd prime")
    g_long = _g_theta_product(order * p)
    ap = a_p(p)
    chi = kronecker_char(-1, p)
    residual = {}
    for n in range(1, order + 1):
        val = g_long.coeff(n * p)
        if n % p == 0:
            val += chi * p * p * g_long.coeff(n // p)
        val -= ap * g_long.coeff(n)
        if val:
            residual[n] = val
    return EllipticQExpansion(order, residual)
