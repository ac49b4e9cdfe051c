"""Theta characteristics and theta constants in genus 1 and 2.

Exact truncated expansions, and numeric lattice sums with a proven tail
bound: one cached pass gives every theta constant at a point or a stack of
points, or an odd one's z-gradient, on one table of rows and the same
phases. One vectorized action of a symplectic matrix, or of a stack of
them, gives the unreduced images m M^-1 + (diag CD^T, diag AB^T) and the
eighth-integer phases; cached tables turn them into each characteristic's
share of the exact character, and the same action mod 2 gives the
generators' permutations of the ten evens as one array, whose orbits on
six-subsets min-label propagation finds. Also: the
generators e_1..e_10 of Gamma(2)/Gamma(4,8) with their pair characters,
the stabilizer generators and orbit of the six-theta product F_Z, and F_Z.
The 2x2 algebra of the numeric layer (products, determinants, inverses and
a proven lower bound on the smallest eigenvalue) is in closed form, with no
LAPACK or BLAS call.

The degeneration to genus 1 keeps the terms with e1 = e2 = 0. As every theta
term has e1 = b1^2 >= 0, it sends a theta product to the product of the
factors' images: 0 if m1' is odd, else the genus-1 theta[(m2', m2'')].  So
phi_of_theta_product degenerates each factor's series and multiplies in
genus 1, and phi_characteristics reads the result off the characteristics.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import (GaussInt, QuarterSeries, _built_summary, i_power, series_mul,
                    series_product)

# ---------------------------------------------------------------------------
# characteristics

Characteristic = tuple  # (m1', m2', m1'', m2'') entries for genus 2; (m', m'') genus 1


def genus_of(m) -> int:
    if len(m) == 2:
        return 1
    if len(m) == 4:
        return 2
    raise ValueError(f"characteristic {m} has unsupported length")


def split_char(m):
    g = genus_of(m)
    return tuple(m[:g]), tuple(m[g:])


def parity(m) -> str:
    """'even' or 'odd' according to m' . m'' mod 2."""
    mp, mpp = split_char(m)
    return "even" if sum(a * b for a, b in zip(mp, mpp)) % 2 == 0 else "odd"


def even_characteristics(genus: int) -> list[Characteristic]:
    if genus not in (1, 2):
        raise ValueError("genus must be 1 or 2")
    return [m for m in itertools.product((0, 1), repeat=2 * genus) if parity(m) == "even"]


# the six-tuple generating the 15-element orbit
FZ_TUPLE: tuple = (
    (0, 0, 0, 0),
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (0, 0, 1, 1),
    (0, 1, 1, 0),
    (0, 1, 0, 0),
)

# the genus-1 six-tuple of theta00^2 theta01^2 theta10^2: the degeneration of
# F_Z, and the weight-3 newform g after tau -> 4 tau
G_TUPLE: tuple = ((0, 0), (0, 0), (0, 1), (0, 1), (1, 0), (1, 0))


# ---------------------------------------------------------------------------
# symplectic matrices and congruence predicates

def _mat(rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


def blocks(M: np.ndarray):
    """A, B, C, D of M, or of each matrix of a stack (..., 2g, 2g)."""
    g = M.shape[-1] // 2
    return M[..., :g, :g], M[..., :g, g:], M[..., g:, :g], M[..., g:, g:]


def _symplectic_form(g: int) -> np.ndarray:
    eye = np.eye(g, dtype=np.int64)
    return np.block([[0 * eye, -eye], [eye, 0 * eye]])


# built once, since the congruence tests of the package run on genus-2 matrices
J4 = _symplectic_form(2)
_EYE4 = np.eye(4, dtype=np.int64)
J4.flags.writeable = _EYE4.flags.writeable = False


def _each(ok):
    """A bool for one matrix, the bool array of a stack as it is."""
    return bool(ok) if ok.ndim == 0 else ok


def is_symplectic(M: np.ndarray):
    """M J M^T = J, for a matrix or each matrix of a stack (..., 2g, 2g): a
    bool, or a bool array of the stack's shape."""
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or M.shape[-1] % 2:
        return False
    J = J4 if M.shape[-1] == 4 else _symplectic_form(M.shape[-1] // 2)
    return _each((M @ J @ np.swapaxes(M, -1, -2) == J).all((-2, -1)))


def in_gamma(M: np.ndarray, n: int):
    """Principal congruence condition M = 1 mod n (with -1 counted at n <= 2),
    for a matrix or each matrix of a stack, as is_symplectic."""
    M = np.asarray(M)
    symplectic = is_symplectic(M)
    if symplectic is False:
        return False
    eye = _EYE4 if M.shape[-1] == 4 else np.eye(M.shape[-1], dtype=np.int64)
    congruent = ((M - eye) % n == 0).all((-2, -1))
    if n <= 2:
        congruent |= ((M + eye) % n == 0).all((-2, -1))
    return _each(symplectic & congruent)


def in_igusa_group(M: np.ndarray, n: int):
    """Membership in the group of level (n, 2n): M = 1 mod n with even-ish diagonals,
    diag(B) = diag(C) = 0 mod 2n; for a matrix or each matrix of a stack, as
    is_symplectic."""
    M = np.asarray(M)
    member = in_gamma(M, n)
    if member is False:
        return False
    g = M.shape[-1] // 2
    diagonals = np.concatenate([np.diagonal(M, g, -2, -1), np.diagonal(M, -g, -2, -1)], -1)
    return _each(member & (diagonals % (2 * n) == 0).all(-1))


def in_gamma2(M):
    return in_gamma(M, 2)


def in_gamma48(M):
    return in_igusa_group(M, 4)


# the ten generators of Gamma(2)/Gamma(4,8)
E1 = _mat([[1, 0, 0, 0], [2, 1, 0, 0], [0, 0, 1, -2], [0, 0, 0, 1]])
E3 = _mat([[1, 0, 0, 2], [0, 1, 2, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
E2 = E1.T.copy()
E4 = E3.T.copy()
E5 = -np.eye(4, dtype=np.int64)
E6 = _mat([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])
E7 = _mat([[1, 0, 2, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
E8 = _mat([[1, 0, 0, 0], [0, 1, 0, 2], [0, 0, 1, 0], [0, 0, 0, 1]])
E9 = E7.T.copy()
E10 = E8.T.copy()
E_GENERATORS = (E1, E2, E3, E4, E5, E6, E7, E8, E9, E10)

# the degeneration twists: s swaps the two periods, g2 adds a lower-left block
_S2 = _mat([[0, 1], [1, 0]])
G0 = np.block([[_S2, np.zeros((2, 2), dtype=np.int64)],
               [np.zeros((2, 2), dtype=np.int64), _S2]])
G2 = np.block([[_S2, np.zeros((2, 2), dtype=np.int64)],
               [_mat([[0, 0], [2, 0]]), _S2]])


def translation(b) -> np.ndarray:
    """Upper unipotent [[I, b], [0, I]] for symmetric integer b."""
    b = _mat(b)
    z = np.zeros_like(b)
    eye = np.eye(b.shape[0], dtype=np.int64)
    return np.block([[eye, b], [z, eye]])


def gl_embed(U) -> np.ndarray:
    """[[U, 0], [0, U^-T]] for U in GL_2(Z); det and inverse in Python ints."""
    U = _mat(U)
    (a, b), (c, d) = U.tolist()
    det = a * d - b * c
    if det not in (1, -1):
        raise ValueError("U must be in GL_2(Z)")
    z = np.zeros_like(U)
    return np.block([[U, z], [z, det * _mat([[d, -c], [-b, a]])]])


def sp2z_generators() -> list[np.ndarray]:
    """A generating set of Sp_2(Z) used for orbit closures."""
    gens = [
        J4,
        translation([[1, 0], [0, 0]]),
        translation([[0, 0], [0, 1]]),
        translation([[0, 1], [1, 0]]),
        gl_embed([[1, 1], [0, 1]]),
        gl_embed([[0, 1], [1, 0]]),
    ]
    assert all(is_symplectic(g) for g in gens)
    return gens


GAMMAZ_GENERATOR_NAMES = ("e1e4", "e1e6", "e1e9^2", "e8^2e3", "e2e10^2")


def gammaZ_generators() -> list[np.ndarray]:
    """The five products named in ``GAMMAZ_GENERATOR_NAMES``, in that order."""
    return [
        E1 @ E4,
        E1 @ E6,
        E1 @ E9 @ E9,
        E8 @ E8 @ E3,
        E2 @ E10 @ E10,
    ]


def random_gamma2_elements(count: int, seed: int = 0) -> list[np.ndarray]:
    """Distinct products of one to four e_i with all entries at most 8 in
    absolute value."""
    import random as _random

    rng = _random.Random(seed)
    found: list[np.ndarray] = []
    seen = set()
    while len(found) < count:
        k = rng.randrange(1, 5)
        M = np.eye(4, dtype=np.int64)
        for _ in range(k):
            M = M @ E_GENERATORS[rng.randrange(10)]
        if np.max(np.abs(M)) > 8:
            continue
        key = M.tobytes()
        if key in seen:
            continue
        seen.add(key)
        found.append(M)
    return found


# the translation-type generators of Gamma(4,8) that random_gamma48_elements
# multiplies: upper ones, then lower ones (transposes)
_GAMMA48_UPPER = tuple(translation(b) for b in (
    [[8, 0], [0, 0]], [[0, 0], [0, 8]], [[0, 4], [4, 0]], [[-8, 0], [0, 0]], [[0, -4], [-4, 0]]))
_GAMMA48_LOWER = (_GAMMA48_UPPER[2].T.copy(), _GAMMA48_UPPER[4].T.copy())


def random_gamma48_elements(count: int, seed: int = 0,
                            small_c: bool = False) -> list[np.ndarray]:
    """Random products of one to five translation-type generators of Gamma(4,8).

    With small_c the lower block is pinned to 0 or +-4 [[0,1],[1,0]]
    (products upper * lower * upper), keeping the transformed period
    matrices well conditioned for lattice-sum evaluation.
    """
    import random as _random

    rng = _random.Random(seed)
    ups, lows = _GAMMA48_UPPER, _GAMMA48_LOWER
    gens = ups + lows
    out = []
    seen = set()
    while len(out) < count:
        if small_c:
            # upper factors only to the left of at most one lower factor:
            # gamma tau = (L tau) + b, so the transformed point inherits the
            # conditioning of the single lower translation
            M = np.eye(4, dtype=np.int64)
            for _ in range(rng.randrange(0, 3)):
                M = ups[rng.randrange(len(ups))] @ M
            if rng.random() < 0.8:
                M = M @ lows[rng.randrange(2)]
        else:
            k = rng.randrange(1, 6)
            M = np.eye(4, dtype=np.int64)
            for _ in range(k):
                M = M @ gens[rng.randrange(len(gens))]
        key = M.tobytes()
        if key in seen:
            continue
        seen.add(key)
        out.append(M)
    assert not out or in_gamma48(np.stack(out)).all()
    return out


# ---------------------------------------------------------------------------
# points of the Siegel upper half space

def siegel_point(t1: complex, t2: complex, t3: complex) -> np.ndarray:
    tau = np.array([[t1, t2], [t2, t3]], dtype=complex)
    check_siegel_point(tau)
    return tau


def _isclose(x: complex, y: complex) -> bool:
    """np.isclose(x, y) at its defaults, rtol 1e-5 and atol 1e-8, on scalars."""
    return x == y or (cmath.isfinite(y) and abs(x - y) <= 1e-8 + 1e-5 * abs(y))


def _point_fault(t11: complex, t12: complex, t21: complex, t22: complex) -> str | None:
    """Why the 2x2 matrix with these entries is no point of the Siegel upper
    half space, or None: it must be symmetric (by np.allclose(tau, tau.T))
    with positive definite imaginary part."""
    if not (_isclose(t11, t11) and _isclose(t22, t22)
            and _isclose(t12, t21) and _isclose(t21, t12)):
        return "period matrix must be symmetric"
    y00, y01, y10, y11 = t11.imag, t12.imag, t21.imag, t22.imag
    # leading principal minors; where rounding could flip the sign of the
    # determinant (within 8 eps of its two products, or not finite), the LU
    # determinant decides, so exactly the points np.linalg.det accepts pass
    det = y00 * y11 - y01 * y10
    if y00 > 0 and not abs(det) > 8 * sys.float_info.epsilon * (
            abs(y00 * y11) + abs(y01 * y10)) + 1e-300:
        det = np.linalg.det(np.array([[y00, y01], [y10, y11]]))
    if y00 <= 0 or det <= 0:
        return "imaginary part must be positive definite"
    return None


def check_siegel_point(tau: np.ndarray):
    """Raise ValueError unless tau is a point of the upper half plane, or a
    2x2 period matrix, or a stack (..., 2, 2) of them, each passing
    _point_fault's test.  For a stack the message names the first bad
    point's index.  The test runs on Python scalars, a point at a time: a
    few microseconds a point, against a dozen numpy calls for one point."""
    tau = np.asarray(tau, dtype=complex)
    if tau.shape == ():
        if tau.imag <= 0:
            raise ValueError("imaginary part must be positive")
        return
    if tau.shape[-2:] != (2, 2):
        raise ValueError("period matrix must be 2x2")
    for k, entries in enumerate(tau.reshape(-1, 4).tolist()):
        message = _point_fault(*entries)
        if message:
            if tau.ndim > 2:
                where = np.unravel_index(k, tau.shape[:-2])
                at = int(where[0]) if len(where) == 1 else tuple(map(int, where))
                message += f" at point {at}"
            raise ValueError(message)


def _points(tau) -> np.ndarray:
    """tau as a complex period matrix or stack of them, checked."""
    tau = np.asarray(tau, dtype=complex)
    if tau.ndim < 2:
        raise ValueError("period matrix must be 2x2")
    check_siegel_point(tau)
    return tau


# ---------------------------------------------------------------------------
# 2x2 algebra in closed form
#
# Each operation takes a 2x2 matrix or a stack (..., 2, 2), stacks
# broadcasting, and works on slices that keep both matrix axes, or a last
# axis, to the end: every product is elementwise on arrays, never on numpy
# scalars, which numpy rounds otherwise than its array loops, so each matrix
# of a stack gets the bits of its own single call.  No LAPACK or BLAS routine
# runs, so none of their code pages is ever mapped.

# the signs of the adjugate [[x11, -x01], [-x10, x00]]
_ADJUGATE_SIGNS = np.array([[1, -1], [-1, 1]])
_ADJUGATE_SIGNS.flags.writeable = False


def _det(X: np.ndarray) -> np.ndarray:
    """x00 x11 - x01 x10 of the matrices X (..., 2, 2), with a last axis of 1."""
    p = X[..., 0, :] * X[..., 1, ::-1]
    return p[..., :1] - p[..., 1:]


def mul2(X, Y) -> np.ndarray:
    """The product X Y of 2x2 matrices, or of stacks of them; X may also
    have any number of rows, (..., n, 2), and Y of columns."""
    X, Y = np.asarray(X), np.asarray(Y)
    XY = X[..., :, :1] * Y[..., :1, :]
    XY += X[..., :, 1:] * Y[..., 1:, :]
    return XY


def det2(X) -> np.ndarray:
    """det X of a 2x2 matrix, or of each of a stack, of the stack's shape."""
    return _det(np.asarray(X))[..., 0]


def inv2(X) -> np.ndarray:
    """X^-1 = [[x11, -x01], [-x10, x00]] / det X, of a 2x2 matrix or of each
    of a stack."""
    X = np.asarray(X)
    inv = np.swapaxes(X[..., ::-1, ::-1], -1, -2) / _det(X)[..., None]
    inv *= _ADJUGATE_SIGNS
    return inv


def min_eigenvalue_bound(Y) -> np.ndarray:
    """A lower bound on the smallest eigenvalue of the real symmetric
    positive definite Y = [[a, b], [b, c]] (b read above the diagonal), or
    of each matrix of a stack: det Y / lambda_max less 8 eps min(a, c),
    proven against rounding in IEEE double precision, barring underflow and
    overflow.

    With u = eps/2 the unit roundoff and D = ac - b^2 > 0:
    - d = fl(fl(ac) - fl(b^2)) has |d - D| <= u(ac + b^2) + u|fl(ac) - fl(b^2)|
      <= 2u(1 + u) ac + u D, as b^2 < ac;
    - lambda_max = (a + c)/2 + sqrt(((a - c)/2)^2 + b^2) comes out as
      lambda_max (1 + t), |t| <= 4.01u: halving is exact, the sum under the
      root of two nonnegative terms has relative error at most 4u, the
      correctly rounded root at most 2u + u, and the last sum one more u;
    - so q = fl(d / fl(lambda_max)) satisfies
      q - lambda_min <= 6.2u lambda_min + 2.01u ac / lambda_max
      <= 8.3u min(a, c), as lambda_max >= max(a, c) and lambda_min <=
      min(a, c) (the Rayleigh quotients at the unit vectors).
    The margin 8 eps min(a, c) = 16u min(a, c) is a power of two times
    min(a, c), so exact, and q less it is at most lambda_min - 7.7u min(a, c);
    rounding that difference adds at most u of its size if it is positive,
    and keeps it nonpositive otherwise, so the result is below lambda_min.
    As q - lambda_min >= -8.3u min(a, c) too, the result is positive
    wherever min(a, c) < 3.7e14 lambda_min; it is not positive for a Y that
    is not positive definite.
    """
    Y = np.asarray(Y, dtype=float)
    a, b, c = Y[..., 0, :1], Y[..., 0, 1:], Y[..., 1, 1:]
    half = (a - c) / 2
    lam_max = (a + c) / 2 + np.sqrt(half * half + b * b)
    bound = (a * c - b * b) / lam_max - 8 * sys.float_info.epsilon * np.minimum(a, c)
    return bound[..., 0]


def apply_moebius(M: np.ndarray, tau) -> np.ndarray:
    """M tau = (A tau + B)(C tau + D)^-1, broadcast over stacks of matrices
    (..., 4, 4) and points (..., 2, 2), in the closed forms above; each
    point of a stack gets the bits of its own single call."""
    M = np.asarray(M)
    # A tau + B above C tau + D, from the columns [A; C] and [B; D] of M
    frac = mul2(M[..., :2], np.asarray(tau, dtype=complex))
    frac += M[..., 2:]
    return mul2(frac[..., :2, :], inv2(frac[..., 2:, :]))


def cocycle(M: np.ndarray, tau) -> np.ndarray:
    """C tau + D, broadcast as in apply_moebius."""
    _, _, C, D = blocks(M)
    return mul2(C, np.asarray(tau, dtype=complex)) + D


# ---------------------------------------------------------------------------
# exact expansions

# i^k + i^-k for k mod 4: the coefficient of the terms of b and -b
_MIRROR_SUMS = np.array([2, 0, -2, 0], dtype=np.int64)


def theta_expansion(m, order: int) -> QuarterSeries:
    """Exact expansion of the theta constant with integral characteristic m.

    A sum over b = 2x in (2Z + (m' mod 2))^g with |b|^2 <= order of the
    index b^2 in genus 1 and (b1^2, 2 b1 b2, b2^2) in genus 2, with
    coefficient i^(b.m'').  An index determines b up to sign, so one term
    is built per pair b, -b: b >= 0 in genus 1, b1 > 0 or b1 = 0 <= b2 in
    genus 2, with coefficient i^(b.m'') + i^(-b.m''), and 1 at b = 0.  As
    b = m' mod 2, b.m'' = m'.m'' mod 2 on the whole lattice, so every pair
    cancels for an odd m and none for an even one, and an unreduced
    characteristic m + 2k gives (-1)^(m'.k'') times the series of m.
    Cached on (m as a tuple of ints, order); the series' arrays are read-only,
    and it carries its kernel summary in closed form (_theta_summary).
    """
    return _theta_series(tuple(map(int, m)), order)


@lru_cache(maxsize=64)
def _theta_series(m: tuple, order: int) -> QuarterSeries:
    g = genus_of(m)
    if order < 0:
        raise ValueError("order must be nonnegative")
    if parity(m) == "odd":
        return QuarterSeries.zero(g, order)
    mp, mpp = split_char(m)
    r = math.isqrt(order)
    b1 = np.arange(mp[0] % 2, r + 1, 2)  # b1 >= 0, ascending, so b1^2 ascends
    if g == 1:
        b, exps = [b1], [b1 * b1]
    else:
        top = r - (r - mp[1]) % 2  # the largest b2 <= r with b2 = m2' mod 2
        grid = np.broadcast_arrays(b1[:, None], np.arange(-top, top + 1, 2))
        keep = (grid[0] > 0) | (grid[1] >= 0)
        keep &= grid[0] * grid[0] + grid[1] * grid[1] <= order
        b = [x[keep] for x in grid]
        e1, e2, e3 = b[0] * b[0], 2 * b[0] * b[1], b[1] * b[1]
        perm = np.lexsort((e2, e1, e1 + e3))  # canonical order: degree, e1, e2
        b, exps = [x[perm] for x in b], [e1[perm], e2[perm], e3[perm]]
    re = _MIRROR_SUMS[sum(x * k for x, k in zip(b, mpp)) % 4]
    if not any(c % 2 for c in mp):
        re[0] = 1  # b = 0, the only term of degree 0, is its own mirror
    summary = _theta_summary([c % 2 for c in mp], order, len(re)) if len(re) else None
    return QuarterSeries._of_terms(g, order, [*exps, re, np.zeros(len(re), np.int64)], summary)


def _theta_summary(p: list, order: int, n: int):
    """The kernel summary (arith._Summary) of an even theta series of the
    given order with n > 0 terms and b = p mod 2, in closed form: exact but
    for the gcds of a short series, which the gcds given here divide.

    The code columns are the degree d = |b|^2, e1 = b1^2 and e2 = 2 b1 b2.
    An even square is 0 mod 4 and an odd one 1 mod 8, so d steps by 8 if
    b1 and b2 are both odd and by 4 otherwise, e1 by 8 or 4 as b1 is odd or
    even, and e2 by 8 if b is even and by 4 otherwise.  As e1 + d =
    2 b1^2 + b2^2, e1 - d = -b2^2, e2 + d = (b1 + b2)^2 and e2 - d =
    -(b1 - b2)^2, the terms b = p and b = (p1, -p2) give the lows of d and
    e1 and every plus and minus.  The other extremes are at the largest b2
    of a row b1, as b2 -> -b2 maps e2 to -e2.  The coefficients are +-2,
    and 1 at b = 0."""
    norms = 2 * n - (not any(p)), 2 if n > (not any(p)) else 1, (True, False)
    if len(p) == 1:
        r = math.isqrt(order)
        top = r - (r - p[0]) % 2
        return _built_summary([p[0]], [top * top], [2 * p[0]], [0], [4 + 4 * p[0]], norms)
    p1, p2 = p
    rows = []  # (b1, the largest b2 = p2 mod 2 with b1^2 + b2^2 <= order)
    for b1 in range(p1, math.isqrt(order) + 1, 2):
        t = math.isqrt(order - b1 * b1)
        if t >= p2:
            rows.append((b1, t - (t - p2) % 2))
    e2 = max(2 * b1 * b2 for b1, b2 in rows)
    odd = p1 ^ p2
    return _built_summary(
        [p1 + p2, p1, -e2], [max(b1 * b1 + b2 * b2 for b1, b2 in rows), rows[-1][0] ** 2, e2],
        [2 * (p1 + p2), 2 * p1 + p2, odd], [0, -p2, -odd],
        [4 + 4 * (p1 & p2), 4 + 4 * p1, 8 - 4 * (p1 | p2)], norms)


@lru_cache(maxsize=16)
def fz_expansion(order: int) -> QuarterSeries:
    """Exact expansion of the six-theta product attached to the 15-orbit."""
    return six_tuple_expansion(FZ_TUPLE, order)


def six_tuple_expansion(ms, order: int) -> QuarterSeries:
    """Exact expansion of the product of the theta constants of ms, which
    share one genus, multiplied in one sparse factor at a time."""
    if not len(ms):
        raise ValueError("a product needs at least one factor")
    prod = QuarterSeries.one(genus_of(ms[0]), order)
    for m in ms:
        prod = series_mul(prod, theta_expansion(m, order))
    return prod


def phi_after_g0(f: QuarterSeries) -> QuarterSeries:
    """Degeneration to genus 1 after the period swap.

    Swaps tau1 <-> tau3 (index map (e1,e2,e3) -> (e3,e2,e1)) and keeps the
    terms with no tau2 or tau3 dependence left.
    """
    if f.genus != 2:
        raise ValueError("expected a genus-2 series")
    e1, e2, e3 = f.exps
    keep = (e1 == 0) & (e2 == 0)  # ascending in e3, not contiguous
    return QuarterSeries.from_arrays(1, f.order, [e3[keep]], f.re[keep], f.im[keep])


def phi_of_theta_product(ms, order: int) -> QuarterSeries:
    """phi_after_g0 of the product of the genus-2 theta constants of ms,
    truncated to order, as the genus-1 product of the factors' phi_after_g0:
    no genus-2 product is formed.

    Proof: each term of theta[m] has e1 = b1^2 >= 0 and e2 = 2 b1 b2, so a
    term of the product has e1 = the sum of its factors' e1, which is 0 only
    if every factor's term has b1 = 0, and then e2 = 0 too.  So the
    e1 = e2 = 0 terms of the product are the products of the factors'
    e1 = e2 = 0 terms, that is, Phi is multiplicative on these series.  On
    those terms the genus-2 degree e1 + e3 is the genus-1 degree e3, so both
    sides truncate alike.  A factor with m1' odd has no b1 = 0 term, and the
    product is 0.  Equal degenerations, such as those of 0000 and 0010, pair
    in series_product, so F_Z's image is a squared half product."""
    return series_product(phi_after_g0(theta_expansion(m, order)) for m in ms)


def phi_characteristics(ms) -> tuple | None:
    """The genus-1 characteristics (m2', m2'') of ms, whose theta product is
    phi_after_g0 of the theta product of ms; None if that is 0, as some m1'
    or some image is odd. Proof: each term of a product has e1 = sum of the
    factors' b1^2 >= 0, so its e1 = e2 = 0 terms multiply the factors' b1 = 0
    terms, and those of theta[m] are the terms of theta[(m2', m2'')]."""
    images = tuple((m[1], m[3]) for m in ms)
    if any(m[0] % 2 for m in ms) or any(parity(i) == "odd" for i in images):
        return None
    return images


# ---------------------------------------------------------------------------
# numeric evaluation

def theta_eval(m, tau, tol: float = 1e-12) -> complex:
    """Numeric theta constant by direct lattice sum, tail below tol.

    m may be unreduced: theta[m] = (-1)^(m'.k'') theta[m mod 2] for
    m = m mod 2 + 2k, and the sum runs around the reduced shift.  Genus 2
    goes through theta_values; genus 1 keeps x = a + m'/2 with |x| <= R, R
    the smallest half-integer with T0(y, R) < tol (see _row_windows).
    """
    if genus_of(m) == 2:
        return complex(theta_values([m], tau, tol)[0])
    t = complex(tau)
    if t.imag <= 0:
        raise ValueError("imaginary part must be positive")
    mp, mpp = int(m[0]) % 2, int(m[1])
    R = float(_window_radius(t.imag, 1.0, 0.0, tol))
    x = np.arange(math.ceil(-R - mp / 2), math.floor(R - mp / 2) + 1) + mp / 2
    expo = 1j * math.pi * (t * x * x + x * (mpp % 2))
    sign = -1 if mp * (mpp // 2) % 2 else 1
    return sign * complex(np.exp(expo).sum())


def theta_values(ms, tau, tol: float = 1e-12) -> np.ndarray:
    """Numeric genus-2 theta constants theta[m](tau) for every m in ms, each
    with its discarded tail below tol, at a period matrix tau or at each
    point of a stack (..., 2, 2): shape (..., len(ms)), from one cached
    lattice pass over the whole stack, a single point being a stack of one.

    The pass sums exp(pi i x.tau.x) over the lattice x = b/2,
    b = 2a + (m' mod 2), for each class m' mod 2 that ms needs: at each
    point the rows 0 <= x1 <= R1, each holding the window |x2 + t x1| <= R2
    that _row_windows proves enough there (the ellipsoid of Im tau, not a
    square box at its smallest eigenvalue).  As x -> -x keeps each term and
    maps the windows to themselves, each term of the rows stands for x and
    -x (see _row_layout).  The rows of every point are one table, summed in
    chunks of whole rows that may hold several points (see _lattice_sums).
    Each characteristic is the sum of its class's rows weighted by the
    phases i^(b.m'') of x and -x, times the reduction sign (-1)^(m'.k'')
    for m = m mod 2 + 2k: a sum around its reduced shift in which every
    window point has weight 1 and every padding point a weight in [0, 1],
    so the tail bound holds.  The phases are exact, so only the order of
    summation differs from one sum per characteristic, and each row and
    each class of a point are summed on their own, so a point of a stack
    gets the bits of its own single call.  The pass, in moment degree 0, is
    cached with theta_gradient's, on the bytes and shape of tau, the bytes
    of the characteristics, tol and the degree; each call returns a fresh
    array.
    """
    m = np.asarray(ms, dtype=np.int64) if len(ms) else np.zeros((0, 4), dtype=np.int64)
    if m.ndim != 2 or m.shape[1] != 4:
        raise ValueError("theta_values takes genus-2 characteristics of 4 entries")
    tau = _points(tau)
    return _lattice_sums(m.tobytes(), tau.tobytes(), tau.shape, tol, 0)[..., 0, :].copy()


def _window_radius(y: float, a0: float, a1: float, tol: float) -> float:
    """The smallest R in {1/2, 1, 3/2, ...} with a0 T0(y, R) + a1 T1(y, R) < tol,
    the tails T0 and T1 of _row_windows."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, not {tol}")
    c = math.pi * y
    # T0 >= 2 exp(-pi y R^2) and T1 >= 2 (R + 1/(2 pi y)) exp(-pi y R^2), so no R <= r
    # will do, at the r below and then, as T1's bound grows with R, at the r
    # it gives with R = r; r is infinite where the bound over tol overflows:
    # too fine for floats.  The search starts at the first half-integer above r
    r = math.sqrt(max(0.0, math.log(2 * (a0 + a1 / (2 * c)) / tol)) / c)
    if a1 and r < 401:
        r = math.sqrt(max(0.0, math.log(2 * (a0 + a1 * (r + 1 / (2 * c))) / tol)) / c)
    R = (math.floor(2 * min(r, 401)) + 1) / 2
    peak = 1 / math.sqrt(2 * c)  # where v exp(-pi y v^2) peaks
    while R <= 400:
        e = math.exp(-c * R * R)
        bound = a0 * (2 * e / -math.expm1(-2 * c * R))
        if a1:
            p = max(R, peak)
            bound += a1 * (2 * p * math.exp(-c * p * p) + e / c)
        if bound < tol:
            return R
        R += 0.5
    raise ValueError("tolerance unreachable at this tau")


def _row_windows(Y: np.ndarray, tol, degree: int = 0) -> list:
    """(s, t, R1, R2) for Im tau, or for each point of a stack Y (..., 2, 2)
    of them in order, as a list of tuples of floats, and tol a float or one
    per point: the sums keep each x with |x1| <= R1, |x2 + t x1| <= R2; the
    terms exp(-pi x.Y.x) they drop, in degree 1 times |x1| + |x2| (which
    bounds a gradient component's), sum to less than tol.

    Completing the square, x.Y.x = s x1^2 + y22 w^2 with w = x2 + t x1,
    s = det Y / y22 and t = y12 / y22.  For y > 0 and v in any u + Z, the
    summands exp(-pi y v^2) and |v| exp(-pi y v^2) are unimodal on each half
    line, so a sum of either there is at most its maximum plus its integral:
    sum exp(-pi y v^2) <= M0(y) = 1 + 1/sqrt(y), and the part of
    sum |v| exp(-pi y v^2) with |v| > R is at most T1(y, R) =
    2 r exp(-pi y r^2) + exp(-pi y R^2) / (pi y), r = max(R, 1/sqrt(2 pi y))
    (the peak of v exp(-pi y v^2) is at 1/sqrt(2 pi y)); the whole sum is
    at most M1(y) = T1(y, 0) = 2/sqrt(2 pi e y) + 1/(pi y).  The part of
    sum exp(-pi y v^2) with |v| > R is at most T0(y, R) =
    2 exp(-pi y R^2) / (1 - exp(-2 pi y R)): its first term on either side is
    at most exp(-pi y R^2), each next one at most exp(-2 pi y R) times the
    one before.  The dropped x have |x1| > R1, summed over every x2, or
    |x1| <= R1 and |w| > R2: at most T0(s, R1) M0(y22) and M0(s) T0(y22, R2)
    in degree 0.  In degree 1, |x1| + |x2| <= c |x1| + |w| with c = 1 + |t|,
    as |x2| <= |w| + |t| |x1|; so the parts are at most
    c T1(s, R1) M0(y22) + T0(s, R1) M1(y22) and
    c M1(s) T0(y22, R2) + M0(s) T1(y22, R2).  Each radius is the smallest
    half-integer that puts its part below tol/2.

    The rule runs a point at a time on Python floats, a few microseconds a
    point: an array form costs some forty numpy calls whatever the stack,
    more than the Python loop over the stacks the package evaluates.
    """
    tols = (np.broadcast_to(np.asarray(tol, dtype=float), Y.shape[:-2]).ravel().tolist()
            if np.ndim(tol) else itertools.repeat(tol))
    windows = []
    for (y11, y12, _, y22), eps in zip(Y.reshape(-1, 4).tolist(), tols):
        t = y12 / y22
        s = y11 - y12 * t
        m0y, m0s = 1 + 1 / math.sqrt(y22), 1 + 1 / math.sqrt(s)
        if degree:
            c = 1 + abs(t)
            rows, cols = (_moment_sum(y22), c * m0y), (c * _moment_sum(s), m0s)
        else:
            rows, cols = (m0y, 0.0), (m0s, 0.0)
        windows.append((s, t, _window_radius(s, *rows, eps / 2),
                        _window_radius(y22, *cols, eps / 2)))
    return windows


def _moment_sum(y: float) -> float:
    """M1(y) = T1(y, 0) of _row_windows."""
    r = 1 / math.sqrt(2 * math.pi * y)
    return 2 * r * math.exp(-math.pi * y * r * r) + 1 / (math.pi * y)


# phase(x) + (-1)^d phase(-x), the weight of a degree-d term that stands for
# x and its mirror -x, with phase(x) = i^(b.m'') = i^(m'.m'') (-1)^(a.m'') at
# b = 2a + m', indexed by d, by m' and m'' mod 2 (each as a binary number,
# first entry highest) and by the parities of a1 and a2: -x = (-a - m') + m'/2
# has x's term and an a with the parities of a + m'.  It is 2 phase(x) for an
# odd m in degree 1.  Sums of the parity parts, not a matrix product: BLAS wakes
# worker threads that spin on after the call and slow what follows on small machines.
_PARITY_PHASES = np.array([(1, 1j, -1, -1j)[(c1 * e + c2 * f) % 4]
                           * ((-1) ** (i * e + k * f) + (-1) ** (d + (i + c1) * e + (k + c2) * f))
                           for d, c1, c2, e, f, i, k in itertools.product((0, 1), repeat=7)]
                          ).reshape(2, 4, 2, 2, 2, 2)
_PARITY_PHASES.flags.writeable = False

# the cells of the largest block of terms a pass builds at once: the rows of
# a stack are summed in chunks of whole rows, from any number of points, of
# at most this many cells (one row at least), whose transients peak near 60
# bytes a cell (100 in moment degree 1), so a pass over any stack stays below
# what a point with radii near 80 took as a single block
_CELL_BUDGET = 1 << 11


class _Layout(NamedTuple):
    """The rows of a lattice pass as far as they do not depend on the points'
    entries, one entry per row, point after point, class after class, x1
    ascending (see _row_layout)."""
    x1: np.ndarray
    r2: np.ndarray      # R2 of the row's point
    shift: np.ndarray   # h2 of the row's class
    offset: np.ndarray  # h2 minus the cells of the pass before the row
    point: np.ndarray   # the row's point
    width: np.ndarray   # the row's cells, an even number
    pairs: np.ndarray   # the cell pairs of the pass before the row
    half: np.ndarray    # the row's weight: 1/2 at x1 = 0, else 1
    first: list         # the first row pair of each class at each point
    chunks: list        # (first row, end row, the cells before them) of each chunk


def _row_layout(classes: tuple, shapes: tuple) -> _Layout:
    """The layout of the rows x1 >= 0 of a pass in the classes
    x = (a1 + h1, a2 + h2), classes holding (h1, h2) for each, each 0 or 1/2,
    at points with windows of these shapes, (count, width, R2) for each:
    count = floor(R1) + 1 made even rows a class, each of width an even
    number of cells, at least 2 R2 + 2; and their chunks, each whole rows,
    from any number of points, of at most _CELL_BUDGET cells, or one row.

    x -> -x maps each window to its mirror and keeps each term, so the rows
    x1 >= 0 stand for all: they run over an even number of a1 from 0 and
    hold x1 <= R1, and the row x1 = 0 of an integral class (h1 = 0), its own
    mirror, has weight 1/2.  A pass depends on its points' windows only
    through these shapes, so points with the same shapes can share a layout
    (_kept_layout)."""
    segments, counts, first, chunks = [], [], [], []
    row = cell = chunk_row = chunk_cell = 0
    for p, (count, width, r2) in enumerate(shapes):
        rows = len(classes) * count
        # in the k-th class a row's x1 is its index minus row + k count - h1,
        # and the cells before it x1 width plus cell + (k count - h1) width
        segments += [(row + k * count - h, r2, shift, (cell + (k * count - h) * width) / 2,
                      width, p) for k, (h, shift) in enumerate(classes)]
        counts += [count] * len(classes)
        first += range(row // 2, (row + rows) // 2, count // 2)
        j = 0
        while j < rows:  # whole rows into the open chunk, a new one when it is full
            take = min(rows - j, (chunk_cell + _CELL_BUDGET - cell - j * width) // width)
            if take < 1 and chunk_row < row + j:
                chunks.append((chunk_row, row + j, chunk_cell))
                chunk_row, chunk_cell = row + j, cell + j * width
            else:
                j += max(take, 1)
        row += rows
        cell += rows * width
    chunks.append((chunk_row, row, chunk_cell))
    block = np.array(segments).T.repeat(counts, axis=1)
    x1, r2, shift, offset, width, point = block
    np.subtract(np.arange(row), x1, out=x1)
    offset += x1 * width * 0.5
    pairs, width, point = block[3:].astype(np.intp)
    offset *= -2
    offset += shift
    return _Layout(x1, r2, shift, offset, point, width, pairs, np.where(x1, 1.0, 0.5),
                   first, chunks)


# layouts of at most this many rows are kept, 64 of them, so that a point, or
# a small stack, whose shapes a pass has seen pays no layout; a larger pass
# builds its own, which it hardly notices, and keeps no memory for it
_KEPT_ROWS = 256
_kept_layout = lru_cache(maxsize=64)(_row_layout)


class _Rows(NamedTuple):
    """The row table of a lattice pass (see _row_table)."""
    layout: _Layout
    base: np.ndarray    # x2 at the row's first cell, minus the cells of the pass before it
    coefs: tuple        # 2 tau12 x1, tau11 x1^2 and tau22 of the row's point


def _row_table(tau, windows, classes: tuple) -> _Rows:
    """The rows of the pass in these classes at the points tau (n, 2, 2),
    whose windows (s, t, R1, R2) _row_windows gives: its layout, and for each
    row the x2 at which it starts and the coefficients of its terms, formed
    once a row.  Each row holds its window: it starts at the even a2 with
    a2 + h2 <= -t x1 - R2 < a2 + h2 + 2 (x2 = a2 + h2), and has at least
    2 R2 + 2 cells.  With the mirrors, the rows weigh every window point by
    1 and every padding point by 1/2 or 1, so the part of the lattice sum
    they miss is at most the dropped tail that _row_windows bounds."""
    shapes = tuple((2 * (int(r1) // 2) + 2, 2 * math.ceil(r2) + 2, r2) for _, _, r1, r2 in windows)
    rows = len(classes) * sum(count for count, _, _ in shapes)
    layout = (_kept_layout if rows <= _KEPT_ROWS else _row_layout)(classes, shapes)
    x1, point = layout.x1, layout.point
    # 2 floor((-t x1 - R2 - h2) / 2) = a2 made even
    base = np.array([-t for _, t, _, _ in windows])[point]
    base *= x1
    base -= layout.r2
    base -= layout.shift
    base *= 0.5
    np.floor(base, out=base)
    base *= 2
    base += layout.offset
    t11, t12, _, t22 = tau.reshape(-1, 4)[point].T
    return _Rows(layout, base, ((2 * t12) * x1, t11 * x1 * x1, t22.copy()))


def _row_terms(rows: _Rows, a: int, b: int, cells: int):
    """Each cell's row, x2 and term exp(pi i x.tau.x), flat, row after row,
    of the rows a to b of the row table, whose cells start at the cells-th
    cell of the pass; x2 as complex numbers.

    Each term is formed as in the defining sum,
    tau11 x1^2 + 2 tau12 x1 x2 + tau22 x2^2, from its row's coefficients, so
    its bits depend neither on where its row starts nor on the other rows."""
    r = np.arange(a, b).repeat(rows.layout.width[a:b])
    x2 = np.arange(cells, cells + len(r), dtype=complex)
    x2 += rows.base[r]
    linear, constant, square = rows.coefs
    terms = linear[r]
    terms *= x2
    terms += constant[r]
    square = square[r]
    square *= x2
    square *= x2
    terms += square
    del square
    terms *= 1j * math.pi
    np.exp(terms, out=terms)
    return r, x2, terms


@lru_cache(maxsize=128)
def _lattice_sums(ms: bytes, point: bytes, shape: tuple, tol, degree: int) -> np.ndarray:
    """The read-only sums of theta_values (degree 0) and theta_gradient
    (degree 1) for the int64 characteristics and the complex points with
    these bytes (a point or stack of this shape), at tol, a float or a tuple
    of one per point: shape shape[:-2] + (degree + 1, len(ms)), the weighted
    terms' sum, or in degree 1 the sums of x1 and x2 times them.

    The rows of every point are one table (_row_table), whose coefficients
    are formed once a row, summed in the chunks of its layout: whole rows,
    from any number of points, of at most _CELL_BUDGET cells or one row.
    Each row is reduced on its own, by the parity of a2, and each class of a
    point on its own, so a point of a stack gets the bits of its single
    call, and a single point goes through the same code as a stack of one."""
    tau = np.frombuffer(point, dtype=complex).reshape(-1, 2, 2)
    classes, index, weights = _class_weights(ms, degree)
    if not classes:
        values = np.zeros((len(tau), degree + 1, 0), dtype=complex)
    else:
        rows = _row_table(tau, _row_windows(tau.imag, tol, degree), classes)
        layout = rows.layout
        # each row's moment sums by the parity of a2: rows start at an even
        # a2, so the cells pair up as a2 even, a2 odd
        sums = np.empty((degree + 1, len(layout.x1), 2), dtype=complex)
        for a, b, cells in layout.chunks:
            np.add.reduceat(_moments(layout.x1, *_row_terms(rows, a, b, cells), degree)
                            .reshape(degree + 1, -1, 2),
                            layout.pairs[a:b] - cells // 2, axis=1, out=sums[:, a:b])
        # the row x1 = 0 of an integral class is its own mirror
        np.multiply(sums, layout.half[:, None], out=sums)
        # each class summed over the four parity classes of (a1, a2): its
        # rows come in pairs a1 even, a1 odd
        parts = np.add.reduceat(sums.reshape(degree + 1, -1, 4), layout.first, axis=1)
        values = (parts.reshape(degree + 1, len(tau), len(classes), 4).take(index, 2)
                  * weights).sum(-1).transpose(1, 0, 2)
    values = values.reshape(shape[:-2] + values.shape[1:])
    values.flags.writeable = False
    return values


def _moments(x1, r, x2, terms, degree: int) -> np.ndarray:
    """A chunk's terms (degree 0), or x1 and x2 times them (degree 1), at
    the cells x2 of the rows r, whose x1 the layout gives."""
    if not degree:
        return terms[None]
    moments = np.empty((2,) + terms.shape, dtype=complex)
    np.multiply(terms, x1[r], out=moments[0])
    np.multiply(terms, x2, out=moments[1])
    return moments


@lru_cache(maxsize=16)
def _class_weights(ms: bytes, degree: int):
    """For the int64 characteristics with these bytes: the shifts (h1, h2) =
    m'/2 of each class m' mod 2 they need, in order, as a tuple of pairs of
    floats; the index of each one's class among those, and the weights of
    its class's four parity parts (a1 mod 2, a2 mod 2) in this moment
    degree: the phases of _PARITY_PHASES times the reduction sign
    (-1)^(m'.k'') for m = m mod 2 + 2k."""
    m = np.frombuffer(ms, dtype=np.int64).reshape(-1, 4)
    red = m % 2
    signs = 1 - 2 * ((red[:, :2] * (m[:, 2:] // 2)).sum(1) % 2)
    codes = 2 * red[:, 0] + red[:, 1]
    classes = np.flatnonzero(np.bincount(codes, minlength=4))
    weights = signs[:, None] * _PARITY_PHASES[degree, codes, red[:, 2], red[:, 3]].reshape(-1, 4)
    weights.flags.writeable = False
    return (tuple((c // 2 / 2, c % 2 / 2) for c in classes.tolist()),
            np.searchsorted(classes, codes), weights)


def theta_gradient(m, tau, tol=1e-12) -> np.ndarray:
    """grad_z theta[m](tau, 0) / 2 pi i for an odd genus-2 characteristic m,
    the sum of x exp(pi i x.tau.x) i^(b.m'') over x = b/2, each component
    with its discarded tail below tol, at tau or at each point of a stack
    (..., 2, 2): shape (..., 2), from one lattice pass.  tol is a float, or
    an array of one tol per point (broadcast to the stack).

    It is theta_values' pass in moment degree 1, on _row_windows' windows in
    that degree: the rows' terms times x1 and x2, weighted by the phases of
    x and -x, 2 i^(b.m'') as x -> -x multiplies i^(b.m'') by (-1)^(m'.m'') =
    -1; the tail bound holds as in theta_values, whose cache it shares (tol a
    tuple of floats for per-point tols); each call returns a fresh array.
    """
    m = tuple(int(v) for v in m)
    if genus_of(m) != 2 or parity(m) != "odd":
        raise ValueError(f"theta_gradient takes an odd genus-2 characteristic, not {m}")
    return _gradient(m, _points(tau), tol)


def _gradient(m: tuple, tau: np.ndarray, tol) -> np.ndarray:
    """theta_gradient at the odd characteristic m, a tuple of ints, and the
    points tau, which _points has checked."""
    if np.ndim(tol):
        tol = tuple(np.broadcast_to(np.asarray(tol, dtype=float), tau.shape[:-2]).ravel().tolist())
    return _lattice_sums(np.array(m, dtype=np.int64).tobytes(), tau.tobytes(),
                         tau.shape, tol, 1)[..., 0].copy()


def fz_eval(tau, tol: float = 1e-12):
    """Numeric value of the six-theta product at tau (a complex), or at each
    point of a stack (..., 2, 2) (an array of the stack's shape)."""
    value = np.prod(theta_values(FZ_TUPLE, tau, tol), axis=-1)
    return complex(value) if value.ndim == 0 else value


# ---------------------------------------------------------------------------
# transformation machinery

def _action(M: np.ndarray, ms) -> tuple[np.ndarray, np.ndarray]:
    """Unreduced images m M^-1 + (diag(C D^T), diag(A B^T)) of the rows of
    ms, and the phases of the theta transformation law in eighths, mod 8;
    for a stack of matrices (..., 2g, 2g), the images and phases under each,
    from one pass.

    With m = (m', m'') the phase is (2 lin - quad)/8, where
    quad = m' D^T B m' - 2 m' B^T C m'' + m'' C^T A m'' and
    lin = (m' D^T - m'' C^T) . diag(A B^T).  M is not validated here.
    """
    A, B, C, D = blocks(M)
    At, Bt, Ct, Dt = (np.swapaxes(X, -1, -2) for X in (A, B, C, D))
    g = A.shape[-1]
    m = np.asarray(ms, dtype=np.int64).reshape(-1, 2 * g)
    mp, mpp = m[:, :g], m[:, g:]
    ab = np.diagonal(A @ Bt, 0, -2, -1)[..., None, :]
    first = mp @ Dt - mpp @ Ct
    raw = np.concatenate([first + np.diagonal(C @ Dt, 0, -2, -1)[..., None, :],
                          mpp @ At - mp @ Bt + ab], -1)
    quad = (((mp @ (Dt @ B)) * mp).sum(-1)
            - 2 * ((mp @ (Bt @ C)) * mpp).sum(-1)
            + ((mpp @ (Ct @ A)) * mpp).sum(-1))
    return raw, (2 * (first * ab).sum(-1) - quad) % 8


class _Table(NamedTuple):
    """The exact transformation data of a level-2 matrix, per characteristic
    mod 2 (indexed by its bits read as a binary number, first entry highest):
    tuples of Python ints for one matrix (_table), or read-only int arrays
    with one row, or entry, per matrix of a stack (_tables)."""
    n: int           # the width of the matrix and of its characteristics
    eighths: tuple   # the phase of the transformation law, in eighths
    weights: tuple   # the phase plus 4 x the reduction sign flip, mod 8
    kappa: int       # 1 where kappa(M)^2 = -1, else 0


@lru_cache(maxsize=64)
def _tables(key: bytes, shape: tuple) -> _Table | None:
    """The tables of the stack (k, n, n) of int64 matrices with these bytes,
    from one _action pass, or None when one of them is not in the level-2
    group.

    The character of a theta product is the sum of its factors' weights plus
    4 r kappa for r pairs; a weight depends on its characteristic only mod 2,
    since shifting m'' by 2k'' multiplies theta by the constant (-1)^(m'.k'')
    and shifts of m' are invisible.  On the level-2 group
    kappa(M)^2 = (-1)^(trace(D - 1)/2).
    """
    M = np.frombuffer(key, dtype=np.int64).reshape(shape)
    if not np.all(in_gamma2(M)):
        return None
    n = shape[-1]
    g = n // 2
    chars = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    raw, eighths = _action(M, chars)
    red = raw % 2
    if not (red == chars).all():
        raise AssertionError("level-2 matrix must fix characteristics mod 2")
    flips = (red[..., :g] * ((raw[..., g:] - red[..., g:]) // 2)).sum(-1) % 2
    kappa = (np.trace(M[:, g:, g:], axis1=1, axis2=2) - g) // 2 % 2
    tables = _Table(n, eighths, (eighths + 4 * flips) % 8, kappa)
    for array in tables[1:]:
        array.flags.writeable = False
    return tables


@lru_cache(maxsize=64)
def _table(key: bytes, shape: tuple) -> _Table | None:
    """The table of the int64 matrix with these bytes and shape, the one row
    of the _tables of it alone, or None when it is not in the level-2 group."""
    tables = _tables(key, (1,) + shape)
    if tables is None:
        return None
    return _Table(tables.n, tuple(tables.eighths[0].tolist()),
                  tuple(tables.weights[0].tolist()), int(tables.kappa[0]))


def _int64(M) -> np.ndarray | None:
    """M as int64, or None when an entry is not an integer (M is then off
    the level-2 group)."""
    A = np.asarray(M)
    Mi = A.astype(np.int64, copy=False)
    return Mi if Mi is A or np.array_equal(Mi, A) else None


def _level2_table(M) -> _Table:
    """The cached table of M, read afresh from M's current entries; raises
    ValueError off the level-2 group."""
    Mi = _int64(M)
    table = None if Mi is None else _table(Mi.tobytes(), Mi.shape)
    if table is None:
        raise ValueError("character only defined on the level-2 group")
    return table


def _level2_tables(M) -> _Table:
    """The cached tables of M, a matrix or a stack (..., n, n), one row per
    matrix, read afresh; raises ValueError if one is off the level-2 group."""
    Mi = _int64(M)
    tables = None
    if Mi is not None:
        Mi = Mi.reshape((-1,) + Mi.shape[-2:])
        tables = _tables(Mi.tobytes(), Mi.shape)
    if tables is None:
        raise ValueError("character only defined on the level-2 group")
    return tables


def _code(m, n: int) -> int:
    """The index of the characteristic m mod 2 in a table of n-entry ones."""
    if len(m) != n:
        raise ValueError(f"characteristic {tuple(m)} does not have {n} entries")
    code = 0
    for v in m:
        code = 2 * code + (int(v) & 1)
    return code


# every character is one of these; interned, as building a Fraction normalizes
_EIGHTHS = tuple(Fraction(k, 8) for k in range(8))


def _exponent(table: _Table, ms) -> Fraction:
    """The exact character t of the product over ms (pairs of characteristics
    as wide as the table's matrix) under that matrix."""
    n, weights = table.n, table.weights
    t = 4 * (len(ms) // 2) * table.kappa
    for m in ms:
        t += weights[_code(m, n)]
    return _EIGHTHS[t % 8]


def slash_character_exact(ms, M: np.ndarray) -> Fraction:
    """Exact character exponent t with prod theta | [M] = e^(2 pi i t) prod theta.

    ms is a 2r-tuple of integral characteristics (any parity, any genus)
    and M is in the level-2 group of the same genus.  Combines kappa^2,
    the phases, and the mod-2 reduction signs.
    """
    if len(ms) % 2:
        raise ValueError("need an even number of characteristics")
    return _exponent(_level2_table(M), ms)


def character_value(t: Fraction) -> complex:
    return cmath.exp(2j * cmath.pi * float(t))


def character_as_gauss(t: Fraction) -> GaussInt:
    """Exact value when the exponent is a quarter integer."""
    den = t.denominator
    if 4 % den:
        raise ValueError(f"exponent {t} is not a fourth root of unity")
    return i_power(t.numerator * (4 // den))


# Table of pair characters on the generators e_1..e_10.
# Index i in 1..10; m_j = (a_j, b_j, c_j, d_j).

def _table1_exponent(i: int, r, col):
    """The exponent k with the closed-form character of a 2r-tuple product on
    e_i equal to i^k.  col(j) sums entry j of the tuple's characteristics,
    col(j, l) the products of their entries j and l: as Python ints for one
    tuple, or as int arrays with one entry per tuple."""
    if i == 1:
        return 2 * col(1, 2)
    if i == 2:
        return 2 * col(0, 3)
    if i == 3:
        return 2 * col(0, 1)
    if i == 4:
        return 2 * col(2, 3)
    if i == 5:
        return 0
    if i == 6:
        return 2 * (r + col(0, 2))
    if i == 7:
        return col(0)
    if i == 8:
        return col(1)
    # The lower-unipotent generators e9 = e7^T and e10 = e8^T act with the
    # conjugate phase of their transposes (i^-sum, not i^+sum); the squares
    # e9^2, e10^2 entering the stabilizer congruences are insensitive to
    # this, and direct numeric slash ratios pin the sign down.
    if i == 9:
        return -col(2)
    return -col(3)


def _check_table1_args(count: int, i: int):
    if not count or count % 2:
        raise ValueError("need a nonempty even tuple of characteristics")
    if i not in range(1, 11):
        raise ValueError(f"generator index {i} out of range 1..10")


def table1_char_tuple(ms, i: int) -> GaussInt:
    """Closed-form character value of a 2r-tuple product on e_i."""
    _check_table1_args(len(ms), i)

    def col(j, k=None):
        if k is None:
            return sum(m[j] for m in ms)
        return sum(m[j] * m[k] for m in ms)

    return i_power(_table1_exponent(i, len(ms) // 2, col))


def table1_eighths(ms, i: int) -> np.ndarray:
    """The closed-form characters of table1_char_tuple on e_i in eighths,
    twice their quarter exponents mod 8, for the rows of the int array ms of
    shape (tuples, 2r, 4)."""
    ms = np.asarray(ms, dtype=np.int64)
    _check_table1_args(ms.shape[1], i)

    def col(j, k=None):
        return (ms[:, :, j] if k is None else ms[:, :, j] * ms[:, :, k]).sum(1)

    # the zeros give e5's constant exponent one entry per tuple
    return (2 * _table1_exponent(i, ms.shape[1] // 2, col) + np.zeros(len(ms), np.int64)) % 8


def character_eighths(ms, M: np.ndarray) -> np.ndarray:
    """The exact characters of slash_character_exact in eighths, for the rows
    of the int array ms of shape (tuples, 2r, n), n the width of M: the
    weights of M's table at the tuple's characteristics (any parity) plus
    4 r kappa, mod 8.  For a pair this is also pair_character_any_parity.
    M may be a stack (..., n, n), whose tables come from one pass; the
    result then has shape (..., tuples)."""
    ms = np.asarray(ms, dtype=np.int64)
    M = np.asarray(M)
    tables = _level2_tables(M)
    if ms.ndim != 3 or ms.shape[2] != tables.n:
        raise ValueError(f"characteristics do not have {tables.n} entries")
    if ms.shape[1] % 2:
        raise ValueError("need an even number of characteristics")
    codes = (ms % 2) @ (1 << np.arange(tables.n - 1, -1, -1))
    out = (tables.weights[:, codes].sum(-1) + 4 * (ms.shape[1] // 2) * tables.kappa[:, None]) % 8
    return out.reshape(M.shape[:-2] + out.shape[1:])


def table1_char(m1, m2, i: int) -> GaussInt:
    return table1_char_tuple((tuple(m1), tuple(m2)), i)


def pair_character_any_parity(m1, m2, M: np.ndarray) -> Fraction:
    """Exact pair character for arbitrary-parity genus-2 characteristics.

    The pair product of odd characteristics vanishes identically in genus
    2, so the character is that of the even genus-3 product over the lifts
    (a, b, e, c, d, e), e the parity, under M embedded in genus 3 with the
    identity on the third coordinate.  That coordinate adds no phase and no
    reduction sign, and kappa^2 is unchanged (trace D3 - 3 = trace D - 2),
    so the genus-2 table of M gives it.
    """
    return _exponent(_level2_table(M), (m1, m2))


# ---------------------------------------------------------------------------
# numeric verification of the transformation law

def igusa_residuals(ms, M: np.ndarray, tau, tol: float = 1e-12) -> tuple:
    """Residuals of the theta transformation law at tau over a tuple of even
    characteristics, for M in the level-2 group (where M.m = m mod 2).

    The first is the squared law, max over m of the absolute difference
        theta_m(M tau)^2 - kappa^2 e^(4 pi i phi_m) det(C tau + D) theta_m(tau)^2.
    The second compares the tuple product at M tau with its exact character
    times the cocycle power at tau, relative to the larger side.  It is None
    for an odd or empty tuple, and where a factor is below tol on either
    side: there the product vanishes at evaluation precision (the ten-theta
    product on the diagonal locus, say) and the check could not fail.

    M may be a stack (..., 4, 4) and tau a stack (..., 2, 2); they broadcast,
    and both residuals are then arrays of the broadcast shape, the second
    NaN where a single call gives None.  One lattice pass serves the images
    and one the points tau, whatever the stack.
    """
    chars = np.asarray(ms, dtype=np.int64)
    if chars.size:
        g = chars.shape[-1] // 2
        odd = (chars[..., :g] * chars[..., g:]).sum(-1) % 2
        if odd.any():
            raise ValueError(f"odd characteristic {ms[int(odd.argmax())]} vanishes identically")
    M = np.asarray(M)
    lead, n = M.shape[:-2], M.shape[-1]
    tables = _level2_tables(M)
    if chars.size and chars.shape[-1] != n:
        raise ValueError(f"characteristic {tuple(ms[0])} does not have {n} entries")
    chars = chars.reshape(-1, n)
    codes = (chars % 2) @ (1 << np.arange(n - 1, -1, -1))
    eighths = tables.eighths[:, codes].reshape(lead + (len(ms),))
    ksq = np.where(tables.kappa, -1, 1).reshape(lead + (1,))
    tau = np.asarray(tau, dtype=complex)
    mtau = apply_moebius(M, tau)
    det_j = det2(cocycle(M, tau))
    th_m = theta_values(chars % 2, mtau, tol)
    th_0 = theta_values(chars, tau, tol)
    phases = np.exp(1j * np.pi * eighths / 2)
    squared = np.abs(th_m ** 2 - ksq * phases * det_j[..., None] * th_0 ** 2).max(-1, initial=0.0)
    tup = np.full(squared.shape, np.nan)
    if len(ms) and not len(ms) % 2:
        # relative to the larger side, so that a wrong root of unity reads O(1)
        # however small the product, and the cocycle power inflates nothing
        num = np.prod(th_m, axis=-1)
        den = np.prod(th_0, axis=-1) * det_j ** (len(ms) // 2)
        ts = (tables.weights[:, codes].sum(-1) + 4 * (len(ms) // 2) * tables.kappa) % 8
        chi = np.array([character_value(_EIGHTHS[t]) for t in ts.tolist()]).reshape(lead)
        small = np.minimum(np.abs(th_m).min(-1), np.abs(th_0).min(-1)) <= tol
        np.divide(np.abs(num - chi * den), np.maximum(np.abs(num), np.abs(den)),
                  out=tup, where=~small)
    if squared.ndim:
        return squared, tup
    return float(squared), None if np.isnan(tup) else float(tup)


def verify_igusa_transformation(ms, M: np.ndarray, tau, tol: float = 1e-12):
    """The larger of the two residuals of ``igusa_residuals`` (an array for
    stacks, as there)."""
    squared, tup = igusa_residuals(ms, M, tau, tol)
    if tup is None:
        return squared
    worst = np.fmax(squared, tup)
    return float(worst) if worst.ndim == 0 else worst


# ---------------------------------------------------------------------------
# orbits

@lru_cache(maxsize=1)
def orbit_decomposition() -> tuple[frozenset, ...]:
    """Partition of all 210 six-element subsets of the ten even genus-2
    characteristics into orbits of the full symplectic group, built once,
    each orbit in the place of its first subset in combinations order.

    perms[k] is generator k's permutation of the evens, and images[k] its map
    of the subsets, each coded as a 10-bit mask.  Each subset's label, at
    first its index, takes the least label among its images, then its label's
    label, until none moves.  Every generator has finite order, so each orbit
    is strongly connected and ends labelled by its least index.
    """
    evens = even_characteristics(2)
    red = np.stack([_action(M, evens)[0] % 2 for M in sp2z_generators()])
    hits = (red[:, :, None] == np.array(evens)).all(3)  # [generator, even, image]
    # an image matches at most one of the distinct evens, so ten images that
    # hit every even once make a permutation
    for k, h in enumerate(hits):
        if (h.sum(0) != 1).any():
            raise AssertionError(f"action of generator {k} does not permute the even characteristics")
    perms = hits.argmax(2)
    combos = np.array(list(itertools.combinations(range(len(evens)), 6)))
    index = np.zeros(1 << len(evens), dtype=np.int64)
    index[(1 << combos).sum(1)] = np.arange(len(combos))
    images = index[(1 << perms[:, combos]).sum(2)]
    label, last = np.arange(len(combos)), None
    while not np.array_equal(label, last):
        last = label
        label = np.minimum(label, label[images].min(0))
        label = label[label]
    subsets = list(map(frozenset, itertools.combinations(evens, 6)))
    return tuple(frozenset(subsets[i] for i in np.flatnonzero(label == root).tolist())
                 for root in np.flatnonzero(label == np.arange(len(label))).tolist())


def fz_orbit() -> frozenset:
    """The orbit of FZ_TUPLE (read at each call); empty if it is none of the
    210 six-subsets of even characteristics."""
    for orbit in orbit_decomposition():
        if frozenset(FZ_TUPLE) in orbit:
            return orbit
    return frozenset()
