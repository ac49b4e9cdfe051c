"""The explicit vector-valued Eisenstein series of weight (3, 1).

E_Z is a three-component lattice sum over pairs (z1, z2) of Gaussian
numbers, z1 running over the shifted coset (1+i)/2 + Z[i] and z2 over
Z[i], weighted by a parity sign and polynomial kernels conj(z1)^(2-j)
conj(z2)^j.  The package fixes one reading of the conventions the display
leaves open (EZ_CONVENTION): the conj pairing Re(z1 conj(z2)) in the
Fourier index, exponent scale 1, and the z2 parity (-1)^(x2+y2).  On it,
writing z1 = u1 + i v1 and z2 = u2 + i v2 splits the sum over
u = (u1, u2) and v = (v1, v2), both in (1/2 + Z) x Z, into two copies of
one odd theta gradient, so E_Z = Sym^2(S) with
S = -grad_z theta[1011](tau, 0) / 2 pi (Grushevsky and Salvati Manni,
J. reine angew. Math. 573, 2004).  ez_eval takes S from theta_gradient.
The 4-D sum, and the other readings together with the checks that reject
them, survive only in the package tests.

Modularity is tested through the associated holomorphic 2-form (a
coordinate-free pullback, no matrix weight factor), and the degeneration of
the first component is matched exactly against the genus-1 image of the
six-theta product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import theta
from .arith import QuarterSeries
from .cmform import odd_coset_sum
from .theta import apply_moebius, cocycle, inv2


class VectorValue(NamedTuple):
    h0: complex
    h1: complex
    h2: complex


@dataclass(frozen=True)
class EzConvention:
    """One reading of the open conventions: the pairing in the Fourier index,
    the exponent scale, and the z2 parity character, which the display
    writes (-1)^x2 in coordinates of an unspecified lattice identification."""

    pairing: str        # "conj": Re(z1 conj(z2));  "plain": Re(z1 z2)
    scale: int          # exponent exp(pi i * scale * tr(tau T))
    z2_sign: str        # the parity of "x2", "y2", "x2+y2", or "1" (none)
    resolved_by: str = ""


EZ_CONVENTION = EzConvention(
    "conj", 1, "x2+y2",
    resolved_by=(
        "tests/test_soudry.py::test_other_readings_are_rejected: level-(4,8) "
        "invariance rejects the 8 plain readings, conj/2/x2 and conj/2/y2; the "
        "degeneration match conj/2/x2+y2 and conj/2/1; e1e4 conj/1/x2 and "
        "conj/1/y2.  conj/1/1 ties with this reading on every check (4/5 "
        "stabilizer generators invariant); the display's nontrivial z2 parity "
        "breaks the tie"
    ),
)


def resolve_ez_convention() -> EzConvention:
    """The fixed reading of the lattice-sum conventions and its evidence."""
    return EZ_CONVENTION


# ---------------------------------------------------------------------------
# E_Z from the odd theta gradient

def ez_eval(tau, tol: float = 1e-10) -> VectorValue:
    """The three components (h0, h1, h2) = (S1^2, S1 S2, S2^2) at a point of
    the upper half space, each within tol; at a stack of points (..., 2, 2),
    each component is an array of the stack's shape, from one gradient pass.

    S = -i theta_gradient((1, 0, 1, 1), tau, .) on theta's row windows of
    moment degree 1, each component within tol / 2M at its point.  With
    a = pi lambda, lambda <= lambda_min(Im tau), the sums of exp(-a n^2) and
    |n| exp(-a n^2) over any c + Z are at most sqrt(pi/a) + 1 and
    1/a + 2/sqrt(2ea) (integral plus maxima); their product M bounds |S_k|
    and its windowed truncations, so
    |S_i S_j - S~_i S~_j| <= |S_i - S~_i| |S_j| + |S~_i| |S_j - S~_j| <= tol.
    lambda is theta.min_eigenvalue_bound, det / lambda_max less a rounding
    margin of 8 eps min(y11, y22), proven below lambda_min; M decreases in
    a, so it still bounds |S_k|.  Where the margin leaves no positive lambda,
    which needs a condition number of Im tau above 3.7e14, the tolerance is
    unreachable.  Each point is checked once (theta._points).
    """
    tau = theta._points(tau)
    lam = theta.min_eigenvalue_bound(tau.imag)
    if not (lam > 0).all():
        raise ValueError("tolerance unreachable at this tau")
    a = math.pi * lam
    bound = (1 / a + 2 / np.sqrt(2 * math.e * a)) * (np.sqrt(math.pi / a) + 1)
    s = -1j * theta._gradient((1, 0, 1, 1), tau, tol / (2 * bound))
    # the products of E_Z, and those of the 2-form's wedges, run a point at a
    # time on Python complex numbers, rounded as numpy rounds a product of
    # two scalars; its loop over arrays may round them otherwise, so a point
    # of a stack gets the bits of its single call
    h = [(s1 * s1, s1 * s2, s2 * s2) for s1, s2 in s.reshape(-1, 2).tolist()]
    if tau.ndim == 2:
        return VectorValue(*h[0])
    return VectorValue(*(np.array(c).reshape(tau.shape[:-2]) for c in zip(*h)))


# ---------------------------------------------------------------------------
# the 2-form and its pullback

def _wedge_coefficients(a, b) -> tuple:
    """Coefficients of a ^ b in the basis (w12, w13, w23) for 1-forms given
    in the basis (d tau1, d tau2, d tau3)."""
    return (a[0] * b[1] - a[1] * b[0], a[0] * b[2] - a[2] * b[0], a[1] * b[2] - a[2] * b[1])


def _wedges(m11: complex, m12: complex, m21: complex, m22: complex) -> tuple:
    """dt1^dt2, dt1^dt3 and dt2^dt3 in the basis (w12, w13, w23), with
    (dt1, dt2, dt3) the images of (d tau1, d tau2, d tau3) under
    M^-1 = [[m11, m12], [m21, m22]]."""
    dt1 = (m11 * m11, 2 * m11 * m21, m21 * m21)
    dt2 = (m11 * m12, m11 * m22 + m12 * m21, m21 * m22)
    dt3 = (m12 * m12, 2 * m12 * m22, m22 * m22)
    return (_wedge_coefficients(dt1, dt2), _wedge_coefficients(dt1, dt3),
            _wedge_coefficients(dt2, dt3))


def two_form_pullback(gamma: np.ndarray, tau, tol: float = 1e-10) -> np.ndarray:
    """Coefficients of the pulled-back 2-form h0 dt1^dt2 + h1 dt1^dt3 +
    h2 dt2^dt3 through tau -> gamma tau, in the same basis at tau: shape
    (3,), or (..., 3) for stacks of gamma (..., 4, 4) and tau (..., 2, 2),
    which broadcast.

    The pairing of the components with the wedge basis is the unique
    invariant one for the weight (3,1) transformation of the lattice sum;
    it pins the orientation of the third basis element to d tau2 ^ d tau3.
    """
    tau = np.asarray(tau, dtype=complex)
    h = np.array(ez_eval(apply_moebius(gamma, tau), tol))  # (3, ...), as gamma tau
    M = inv2(cocycle(gamma, tau))
    wedges = np.array([_wedges(*m) for m in M.reshape(-1, 4).tolist()])
    # h0 dt1^dt2 + h1 dt1^dt3 + h2 dt2^dt3, summed in that order, by numpy's
    # array products as the forms of a single point always were
    pulled = (h.reshape(3, -1).T[:, :, None] * wedges).sum(1)
    return pulled.reshape(M.shape[:-2] + (3,))


def ez_two_form_check(gamma: np.ndarray, tau, tol: float = 1e-10):
    """Max component residual of 2-form invariance under gamma at tau: a
    float, or an array of the broadcast shape for stacks as in
    two_form_pullback, with E_Z evaluated once at the stack tau itself."""
    pulled = two_form_pullback(gamma, tau, tol)
    here = np.array(ez_eval(tau, tol))  # (3, ...), as tau
    if here.ndim > 1:
        here = np.moveaxis(here, 0, -1)
    worst = np.abs(pulled - here).max(-1)
    return float(worst) if worst.ndim == 0 else worst


# ---------------------------------------------------------------------------
# the degeneration match

# the points where the `ez` suite evaluates E_Z and its 2-form
EZ_SAMPLE_POINTS = (
    np.array([[1.6j, 0.0], [0.0, 1.5j]]),
    np.array([[1.6j, 0.3j], [0.3j, 1.9j]]),
    np.array([[0.2 + 1.75j, 0.1 + 0.15j], [0.1 + 0.15j, -0.2 + 1.7j]]),
)


def ez_phi_stratum(order: int) -> QuarterSeries:
    """Eight times the z2 = 0 stratum of h0, as an exact genus-1 series in
    u = exp(pi i tau1 / 4).

    On the stratum the coefficient is (i/2)(-1)^(x1+y1) conj(z1)^2 at
    u^(4 N(z1)), an element of (1/8) Z[i]: the newform's lattice-sum weight,
    whose numerators odd_coset_sum returns.
    """
    re, im = odd_coset_sum(order)
    return QuarterSeries.from_arrays(1, order, (np.arange(order + 1),), re, im)


def _dense(s: QuarterSeries) -> np.ndarray:
    """The re and im rows of a genus-1 series at exponents 0 ... order, as
    Python ints."""
    out = np.zeros((2, s.order + 1), dtype=object)
    out[:, s.exps[0]] = s.re, s.im
    return out


def ez_phi_match(order: int = 200) -> dict:
    """Match the z2 = 0 stratum of h0 against the genus-1 image of the
    six-theta product (theta.FZ_TUPLE, read at each call); the scalar is
    solved from the first nonzero coefficient, everything after must agree
    exactly.  Where no scalar can be solved (both sides zero, a leading
    exponent held by one side only, or a leading coefficient that is not a
    rational integer), the scalar is None and the residual 1.0."""
    stratum8 = _dense(ez_phi_stratum(order))
    phi = _dense(theta.phi_of_theta_product(theta.FZ_TUPLE, order))
    exps = np.flatnonzero((stratum8 != 0).any(0) | (phi != 0).any(0))
    lead = exps[0] if len(exps) else 0  # both rows vanish at 0 if exps is empty
    (s0, s0_im), (p0, p0_im) = stratum8[:, lead], phi[:, lead]
    if not (s0 and p0) or s0_im or p0_im:
        scalar, residual = None, 1.0
    else:
        scalar = Fraction(s0, 8 * p0)
        # cross-multiplied and exact: stratum8 / 8 phi constant
        diff = (stratum8 * p0 - phi * s0).astype(float)
        residual = float(np.hypot(*diff).max()) / max(1.0, abs(p0) * 8)
    return {
        "scalar": scalar,
        "residual": residual,
        "n_exponents": len(exps),
        "leading_u_exponent": int(exps[0]) if len(exps) else None,
        "support_mod8": sorted(set((exps % 8).tolist())),
    }
