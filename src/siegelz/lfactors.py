"""Local L-factors and the degree-4 spinor identity.

Euler factors for the zeta function, the three quadratic characters, and
the CM newform; the degree-21 local factor of the middle cohomology of
the resolved threefold; the Lefschetz trace consistency check against the
measured point counts; and the four-term Hecke-series denominator whose
coefficients are matched against the product of two newform factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import _UNITS, IntPolynomial, is_prime, kronecker_char
from .cmform import a_p
from .pointcount import count_variety


@dataclass(frozen=True)
class EulerFactor:
    """A local factor at p: an exact polynomial in T = p^(-s)."""

    p: int
    poly: IntPolynomial

    def twist(self, j: int) -> "EulerFactor":
        """Shift s -> s - j, i.e. T -> p^j T, exactly."""
        return EulerFactor(self.p, self.poly.substitute_scaled(self.p ** j))

    def degree(self) -> int:
        return self.poly.degree()


def euler_factor(kind: str, p: int, d: int = -1) -> EulerFactor:
    """Local factor of zeta, of a quadratic character L-function, or of the
    newform; EulerFactor.twist gives its Tate twists."""
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if kind == "zeta":
        return EulerFactor(p, IntPolynomial([1, -1]))
    if kind == "chi":
        return EulerFactor(p, IntPolynomial([1, -kronecker_char(d, p)]))
    if kind == "g":
        return EulerFactor(p, IntPolynomial([1, -a_p(p), kronecker_char(-1, p) * p * p]))
    raise ValueError(f"unknown kind {kind!r}")


def trace_h2(p: int) -> int:
    """Linear Frobenius trace on the degree-2 cohomology of the open locus:
    (8 + 7 chi_-1 + 2 chi_2 + 2 chi_-2) p + a_p."""
    return (
        (8 + 7 * kronecker_char(-1, p) + 2 * kronecker_char(2, p)
         + 2 * kronecker_char(-2, p)) * p
        + a_p(p)
    )


def h2_lpoly(p: int) -> EulerFactor:
    """The degree-21 local factor: (1-pT)^8 (1-chi_-1(p)pT)^7
    (1-chi_2(p)pT)^2 (1-chi_-2(p)pT)^2 times the twisted newform factor."""
    poly = IntPolynomial.one()
    for kind, d, mult in (("zeta", 0, 8), ("chi", -1, 7), ("chi", 2, 2), ("chi", -2, 2)):
        f = euler_factor(kind, p, d=d).twist(1)
        for _ in range(mult):
            poly = poly * f.poly
    return EulerFactor(p, poly * euler_factor("g", p).poly)


def lefschetz_check(p: int) -> int:
    """Residual of the trace formula against the measured blow-up count.

    The alternating cohomology trace is 1 + p^3 + [p + t(p)] + [p^2 + p t(p)]
    with t(p) = trace_h2(p) + p, the open locus's trace plus the ninth Tate
    class; must equal the counted number of points of the resolved
    threefold.
    """
    t = trace_h2(p) + p
    predicted = 1 + p ** 3 + (p + t) + (p * p + p * t)
    measured = count_variety("Ztilde", p)
    return predicted - measured


# ---------------------------------------------------------------------------
# the degree-4 Hecke-series denominator

def ae_quartic(lam1, lam2, delta_inv, mu: int, p: int) -> EulerFactor:
    """The quartic denominator

        1 - lam1 T + (lam1^2 - lam2 - delta_inv p^(mu-1)) T^2
          - delta_inv lam1 p^mu T^3 + delta_inv^2 p^(2 mu) T^4

    with lam1, lam2 the similitude-p and similitude-p^2 eigenvalues and
    delta_inv a root of unity (here an exact Gaussian integer or +-1)."""
    if delta_inv not in _UNITS:
        raise ValueError("delta_inv must be a fourth root of unity")
    c2 = lam1 * lam1 - lam2 - delta_inv * p ** (mu - 1)
    c3 = -1 * delta_inv * lam1 * p ** mu
    c4 = delta_inv * delta_inv * p ** (2 * mu)
    poly = IntPolynomial([1, -lam1, c2, c3, c4])
    return EulerFactor(p, poly)


def spin_quartic_target(p: int) -> EulerFactor:
    """The product of the newform factor and its s -> s-1 twist: the exact
    degree-4 spinor factor the six-theta eigenform must carry."""
    g0 = euler_factor("g", p)
    g1 = g0.twist(1)
    return EulerFactor(p, g0.poly * g1.poly)


def spin_identity_check(p: int) -> tuple[IntPolynomial, dict]:
    """Solve the quartic's parameters from the target and return the full
    polynomial residual (zero iff the two presentations cohere).

    lam1 is read off the T coefficient, delta_inv off the T^3 coefficient
    (off the T^4 square root, with the nebentypus sign, when a_p = 0), and
    lam2 off the T^2 coefficient; the residual then checks the remaining
    coefficients, i.e. the internal consistency of the display with
    mu = k1 + k2 - 3 = 3.
    """
    mu = 3
    target = spin_quartic_target(p).poly
    chi = kronecker_char(-1, p)
    lam1 = -target[1]
    if lam1 != 0:
        t3 = target[3]
        if t3 % (lam1 * p ** mu):
            raise AssertionError("T^3 coefficient not divisible as expected")
        delta_inv = -t3 // (lam1 * p ** mu)
    else:
        delta_inv = chi
        if delta_inv * delta_inv * p ** (2 * mu) != target[4]:
            raise AssertionError("T^4 coefficient inconsistent with unit delta")
    lam2 = lam1 * lam1 - delta_inv * p ** (mu - 1) - target[2]
    solved = ae_quartic(lam1, lam2, delta_inv, mu, p)
    residual = target - solved.poly
    return residual, {
        "p": p,
        "lambda1": lam1,
        "lambda2": lam2,
        "delta_inv": delta_inv,
        "chi_minus1": chi,
        "delta_matches_nebentypus": delta_inv == chi,
    }
