"""The explicit vector-valued Eisenstein series of weight (3, 1).

E_Z is a three-component lattice sum over pairs (z1, z2) of Gaussian
numbers, z1 running over the shifted coset (1+i)/2 + Z[i] and z2 over
Z[i], weighted by a parity sign and polynomial kernels conj(z1)^(2-j)
conj(z2)^j.  Writing z1 = u1 + i v1 and z2 = u2 + i sigma v2 splits the
exponent, the sign and the kernels over u = (u1, u2) and v = (v1, v2), both
in (1/2 + Z) x Z, so ez_eval evaluates it as products of the moments of
degree <= 2 of two 2-D theta-type sums P (over u) and Q (over v), each with
a proven tail bound carried through the products.  This holds for every
convention below.  On the resolved one P = Q and P0 = 0 (an odd theta
constant), so E_Z = Sym^2(S) with S = -grad_z theta[1011](tau, 0) / 2 pi,
the gradient of an odd theta function.  The 4-D sum itself survives only
as a test oracle.

Modularity is tested through the associated holomorphic 2-form (a
coordinate-free pullback, no matrix weight factor), and the degeneration of
the first component is matched exactly against the genus-1 image of the
six-theta product.

Two conventions the construction leaves open, the pairing in the Fourier
index (conj or plain product) and the overall exponent scale, together with
the reading of the z2 parity character, are resolved once against the
decisive oracles (level-(4,8) invariance and the degeneration match) and
recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import GaussInt, QuarterSeries
from .theta import (
    apply_moebius,
    check_siegel_point,
    cocycle,
    fz_expansion,
    phi_after_g0,
)


class VectorValue(NamedTuple):
    h0: complex
    h1: complex
    h2: complex

    def norm(self) -> float:
        return max(abs(self.h0), abs(self.h1), abs(self.h2))


Z2_SIGN_RULES = ("x2", "x2+y2", "y2", "1")


@dataclass(frozen=True)
class EzConvention:
    """One reading of the open conventions.  The z2 parity character is
    written (-1)^x2 in coordinates of an unspecified lattice identification,
    so every reading in Z2_SIGN_RULES is admitted and the modularity oracles
    decide (resolve_ez_convention)."""

    pairing: str        # "conj": Re(z1 conj(z2));  "plain": Re(z1 z2)
    scale: int          # exponent exp(pi i * scale * tr(tau T))
    z2_sign: str = "x2"
    resolved_by: str = ""


# ---------------------------------------------------------------------------
# the two factor sums

# half the diagonal of a unit cell of (1/2 + Z) x Z
_HALF_DIAG = math.sqrt(0.5)
# coefficients, lowest degree first, of (s + 2c)^d (s + c) with c = _HALF_DIAG
_TAIL_POLY = (
    (_HALF_DIAG, 1.0),
    (1.0, 3 * _HALF_DIAG, 1.0),
    (2 * _HALF_DIAG, 4.0, 5 * _HALF_DIAG, 1.0),
)
_MAX_RADIUS2 = 1 << 14  # about 51 000 lattice points per factor


def _moment_tails(a: float, radius2: float) -> list[float]:
    """Bounds, for d = 0, 1, 2, on the sum of |u|^d exp(-a |u|^2) over u in
    (1/2 + Z) x Z with |u|^2 > radius2.

    Each such u owns the unit square around it; on that square
    |u| <= |w| + c and |u| >= |w| - c >= 0 (c = _HALF_DIAG, radius >= 2c), so
    the sum is at most the integral of (|w| + c)^d exp(-a (|w| - c)^2) over
    |w| > radius - c, which is 2 pi int_{radius - 2c} (s + 2c)^d (s + c)
    exp(-a s^2) ds in closed form.
    """
    if radius2 < 2:
        raise ValueError("tail bound needs radius2 >= 2")
    s0 = max(0.0, math.sqrt(radius2) - 2 * _HALF_DIAG)
    # int_{s0}^inf s^k exp(-a s^2) ds for k = 0..3
    e = math.exp(-a * s0 * s0)
    g0 = 0.5 * math.sqrt(math.pi / a) * math.erfc(math.sqrt(a) * s0)
    g = (g0, e / (2 * a), (s0 * e + g0) / (2 * a), (s0 * s0 + 1 / a) * e / (2 * a))
    return [2 * math.pi * sum(c * gk for c, gk in zip(poly, g)) for poly in _TAIL_POLY]


def _moment_totals(a: float) -> list[float]:
    """Bounds on the full sums of |u|^d exp(-a |u|^2) over (1/2 + Z) x Z: the
    six points with |u|^2 <= 2 exactly, the rest through _moment_tails."""
    return [
        2 * 0.5 ** d * math.exp(-a / 4) + 4 * 1.25 ** (d / 2) * math.exp(-1.25 * a) + tail
        for d, tail in enumerate(_moment_tails(a, 2.0))
    ]


def _product_error(a: float, radius2: float, totals: list[float]) -> float:
    """Error bound on every component when both factors drop |u|^2 > radius2.

    Each component is (i/2) times moment products P_a Q_b of total degree 2
    with coefficients of modulus 1, 2, 1 (or 1, 1, 1, 1), and
    P Q - P~ Q~ = (P - P~) Q + P~ (Q - Q~) with |Q|, |P~| <= totals.
    """
    eps = _moment_tails(a, radius2)
    return eps[2] * totals[0] + totals[2] * eps[0] + 2 * eps[1] * totals[1]


def _factor_radius2(a: float, tol: float) -> int:
    """Smallest integer radius2 >= 2 with _product_error <= tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    totals = _moment_totals(a)
    hi = 2
    while _product_error(a, hi, totals) > tol:
        hi *= 2
        if hi > _MAX_RADIUS2:
            raise ValueError(
                "tolerance unreachable: transformed point too ill-conditioned "
                f"(decay rate {a:.4g})"
            )
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _product_error(a, mid, totals) > tol:
            lo = mid
        else:
            hi = mid
    return hi


def _factor_moments(tau: np.ndarray, scale: int, radius2: float,
                    parities: tuple) -> np.ndarray:
    """Rows: the moments 1, u1, u2, u1^2, u1 u2, u2^2 of
    chi(u) exp(pi i scale u^T tau u) over u in (1/2 + Z) x Z with
    |u|^2 <= radius2.  Column j has chi(u) = (-1)^(u1 - 1/2), times
    (-1)^u2 when parities[j] is true."""
    m = math.isqrt(int(radius2)) + 1
    k1 = np.arange(-m, m)[:, None]
    k2 = np.arange(-m, m + 1)[None, :]
    u1 = k1 + 0.5
    keep = u1 * u1 + k2 * k2 <= radius2
    u1 = np.broadcast_to(u1, keep.shape)[keep]
    u2 = np.broadcast_to(k2, keep.shape)[keep].astype(float)
    sign1 = np.broadcast_to(1 - 2 * (k1 & 1), keep.shape)[keep]
    sign2 = np.broadcast_to(1 - 2 * (k2 & 1), keep.shape)[keep]
    t1, t2, t3 = tau[0, 0], tau[0, 1], tau[1, 1]
    wave = np.exp(1j * math.pi * scale * (u1 * u1 * t1 + 2 * u1 * u2 * t2 + u2 * u2 * t3))
    weights = np.stack([wave * (sign1 * sign2 if p else sign1) for p in parities], axis=1)
    monomials = np.stack([np.ones_like(u1), u1, u2, u1 * u1, u1 * u2, u2 * u2])
    return monomials @ weights


def ez_eval(tau, tol: float = 1e-10, radius2: float | None = None,
            convention: EzConvention | None = None) -> VectorValue:
    """The three components (h0, h1, h2) at a point of the upper half space,
    each within tol (an explicit radius2 bounds |u|^2 in both factor sums
    and replaces the tail bound)."""
    if convention is None:
        convention = resolve_ez_convention()
    if convention.z2_sign not in Z2_SIGN_RULES:
        raise ValueError(f"unknown z2 sign rule {convention.z2_sign!r}")
    if convention.pairing not in ("conj", "plain"):
        raise ValueError(f"unknown pairing {convention.pairing!r}")
    tau = np.asarray(tau, dtype=complex)
    check_siegel_point(tau)
    if radius2 is None:
        lam = float(np.linalg.eigvalsh(tau.imag).min())
        radius2 = _factor_radius2(math.pi * convention.scale * lam, tol)
    P, Q = _factor_moments(tau, convention.scale, radius2, (
        convention.z2_sign in ("x2", "x2+y2"),
        convention.z2_sign in ("y2", "x2+y2"),
    )).T
    P0, P1, P2, P11, P12, P22 = P
    Q0, Q1, Q2, Q11, Q12, Q22 = Q
    # conj(z1) = u1 - i v1 and conj(z2) = u2 - i sigma v2
    sigma = 1 if convention.pairing == "conj" else -1
    h0 = 0.5j * (P11 * Q0 - 2j * P1 * Q1 - P0 * Q11)
    h1 = 0.5j * (P12 * Q0 - 1j * sigma * P1 * Q2 - 1j * P2 * Q1 - sigma * P0 * Q12)
    h2 = 0.5j * (P22 * Q0 - 2j * sigma * P2 * Q2 - P0 * Q22)
    return VectorValue(complex(h0), complex(h1), complex(h2))


# ---------------------------------------------------------------------------
# the 2-form and its pullback

def _wedge_coefficients(a, b):
    """Coefficients of a ^ b in the basis (w12, w13, w23) for 1-forms given
    in the basis (d tau1, d tau2, d tau3)."""
    c12 = a[0] * b[1] - a[1] * b[0]
    c13 = a[0] * b[2] - a[2] * b[0]
    c23 = a[1] * b[2] - a[2] * b[1]
    return np.array([c12, c13, c23])


def two_form_pullback(gamma: np.ndarray, tau, tol: float = 1e-10,
                      convention: EzConvention | None = None) -> np.ndarray:
    """Coefficients of the pulled-back 2-form h0 dt1^dt2 + h1 dt1^dt3 +
    h2 dt2^dt3 through tau -> gamma tau, in the same basis at tau.

    The pairing of the components with the wedge basis is the unique
    invariant one for the weight (3,1) transformation of the lattice sum;
    it pins the orientation of the third basis element to d tau2 ^ d tau3.
    """
    tau = np.asarray(tau, dtype=complex)
    gtau = apply_moebius(gamma, tau)
    h = ez_eval(gtau, tol, convention=convention)
    M = np.linalg.inv(cocycle(gamma, tau))
    m11, m12, m21, m22 = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
    dt1 = np.array([m11 * m11, 2 * m11 * m21, m21 * m21])
    dt2 = np.array([m11 * m12, m11 * m22 + m12 * m21, m21 * m22])
    dt3 = np.array([m12 * m12, 2 * m12 * m22, m22 * m22])
    return (
        h.h0 * _wedge_coefficients(dt1, dt2)
        + h.h1 * _wedge_coefficients(dt1, dt3)
        + h.h2 * _wedge_coefficients(dt2, dt3)
    )


def ez_two_form_check(gamma: np.ndarray, tau, tol: float = 1e-10,
                      convention: EzConvention | None = None) -> float:
    """Max component residual of 2-form invariance under gamma at tau."""
    pulled = two_form_pullback(gamma, tau, tol, convention)
    here = ez_eval(np.asarray(tau, dtype=complex), tol, convention=convention)
    return float(np.abs(pulled - np.array([here.h0, here.h1, here.h2])).max())


# ---------------------------------------------------------------------------
# convention resolution

EZ_SAMPLE_POINTS = (
    np.array([[1.6j, 0.0], [0.0, 1.5j]]),
    np.array([[1.6j, 0.3j], [0.3j, 1.9j]]),
    np.array([[0.2 + 1.75j, 0.1 + 0.15j], [0.1 + 0.15j, -0.2 + 1.7j]]),
)


def _probe_gammas():
    from .theta import translation

    lower = translation([[0, 4], [4, 0]]).T.copy()
    mixed = translation([[8, 0], [0, 0]]) @ translation([[0, 4], [4, 0]]) @ lower
    return [lower, mixed]


@lru_cache(maxsize=1)
def resolve_ez_convention() -> EzConvention:
    """Resolve the open conventions against the decisive oracles, staged:

    1. level-(4,8) two-form invariance (eliminates the wrong pairing and
       scale by O(1) residuals);
    2. the degeneration match against the six-theta image (eliminates the
       wrong exponent scale independently);
    3. two-form invariance on the five stabilizer generators (breaks the
       tie among the z2 parity readings; the literal one passes only three
       of the five, the best readings pass four -- the fifth is blocked by
       a structural sign, see the e1e6 analysis in the package tests).

    Ties after stage 3 prefer a nontrivial z2 parity, closest in shape to
    the displayed weight.
    """
    tau = np.array([[0.1 + 0.8j, 0.2 + 0.05j], [0.2 + 0.05j, -0.15 + 0.9j]])
    from .theta import gammaZ_generators

    gens = gammaZ_generators()
    scored = []
    for pairing in ("conj", "plain"):
        for scale in (1, 2):
            base = EzConvention(pairing, scale)
            r48 = max(
                ez_two_form_check(g, tau, 1e-9, convention=base)
                for g in _probe_gammas()
            )
            if r48 > 1e-6:
                continue
            try:
                phi_ok = ez_phi_match(80, convention=base)["residual"] < 1e-8
            except AssertionError:
                phi_ok = False
            if not phi_ok:
                continue
            for z2_rule in Z2_SIGN_RULES:
                cand = EzConvention(pairing, scale, z2_rule)
                n_pass = sum(
                    ez_two_form_check(g, tau, 1e-9, convention=cand) < 1e-6
                    for g in gens
                )
                scored.append((n_pass, z2_rule != "1", cand))
    if not scored:
        raise AssertionError("no convention satisfies the decisive oracles")
    scored.sort(key=lambda t: (t[0], t[1]), reverse=True)
    winner = scored[0][2]
    return EzConvention(
        winner.pairing,
        winner.scale,
        winner.z2_sign,
        resolved_by=(
            "level-(4,8) invariance + degeneration match + stabilizer "
            f"generators ({scored[0][0]}/5 invariant)"
        ),
    )


# ---------------------------------------------------------------------------
# the degeneration match

def ez_phi_stratum(order: int, convention: EzConvention | None = None) -> QuarterSeries:
    """Eight times the z2 = 0 stratum of h0, as an exact genus-1 series in
    u = exp(pi i tau1 / 4).

    On the stratum the coefficient is (i/2)(-1)^(x1+y1) conj(z1)^2, an
    element of (1/8) Z[i]; the returned series carries the numerators.
    """
    if convention is None:
        convention = resolve_ez_convention()
    coeffs: dict[int, GaussInt] = {}
    m = int(math.isqrt(order)) + 2
    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            X, Y = 2 * a + 1, 2 * b + 1  # X = 2 x, Y = 2 y
            n4 = X * X + Y * Y  # = 4 N(z1)
            e = convention.scale * n4  # u-exponent 4*scale*N(z1)
            if e > order:
                continue
            ker = GaussInt(X, -Y) * GaussInt(X, -Y)  # (2 conj z1)^2 = 4 conj(z1)^2
            eps = -1 if (a + b) % 2 else 1
            term = GaussInt(0, eps) * ker  # 8 * (i/2) eps conj(z1)^2
            coeffs[e] = coeffs.get(e, GaussInt()) + term
    return QuarterSeries(1, order, coeffs)


def ez_phi_match(order: int = 200, tol: float = 1e-8,
                 convention: EzConvention | None = None) -> dict:
    """Match the z2 = 0 stratum of h0 against the genus-1 image of the
    six-theta product; the scalar is solved from the first nonzero
    coefficient, everything after must agree exactly."""
    stratum8 = ez_phi_stratum(order, convention)
    phi = phi_after_g0(fz_expansion(order))
    if stratum8.is_zero() or phi.is_zero():
        raise AssertionError("a degeneration came out identically zero")
    exps = sorted(set(stratum8.coeffs) | set(phi.coeffs))
    e0 = exps[0]
    s0, p0 = stratum8.coefficient(e0), phi.coefficient(e0)
    if not s0 or not p0:
        raise AssertionError("leading exponents disagree")
    if s0.im or p0.im:
        raise AssertionError("leading coefficients are not rational integers")
    residual = 0.0
    for e in exps:
        s, p = stratum8.coefficient(e), phi.coefficient(e)
        # cross-multiplied exact comparison: s/8p constant
        lhs = s * GaussInt(p0.re, p0.im)
        rhs = p * GaussInt(s0.re, s0.im)
        if lhs != rhs:
            residual = max(
                residual,
                abs(lhs.to_complex() - rhs.to_complex()) / max(1.0, abs(p0.re) * 8),
            )
    scalar = Fraction(s0.re, 8 * p0.re)
    return {
        "scalar": scalar,
        "residual": residual,
        "n_exponents": len(exps),
        "leading_u_exponent": e0,
        "support_mod8": sorted({e % 8 for e in exps}),
    }
