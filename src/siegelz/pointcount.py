"""Point counts over prime fields for the Fermat quartic tower.

Naive counts for the quartic surface, its tangent cone and the
four-quadric model of the Satake variety Z in P^7; character sums for Z,
its complement U2c and two slices, as O(p^2) sums over strata of F_p^4
(`_z_strata`); the blown-up model; and the thirty boundary lines, one
stack of 2 x 4 matrices over F_p. A naive count splits the coordinates
into a head and a tail, and counts the affine solutions of one equality
between a value of the head and a value of the tail as a product of the
two value histograms (`_affine_matches`); less the origin, over p - 1,
they give the projective points, as the character sums do. Counts are
exact integers; closed-form predictions are checked as integer residuals,
never as floating point.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .arith import is_prime, kronecker_char

Z_CAP = 13        # naive Z (passes over F_p^4), the cone, U1c and the birational map
SURFACE_CAP = 41  # the surface, the curve and Z's O(p^2) character sums

VARIETIES = (
    "FermatSurface",
    "FermatCurve",
    "ConeF",
    "Zsatake",
    "U1c",
    "U2c",
    "Ztilde",
)


def _check_odd_prime(p: int):
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


# ---------------------------------------------------------------------------
# defining equations

def _pow4(x: np.ndarray, p: int) -> np.ndarray:
    sq = (x * x) % p
    return (sq * sq) % p


def _quartic_diff(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a^4 - b^4 mod p, entrywise, in [0, p)."""
    return (_pow4(a, p) - _pow4(b, p)) % p


def z_quadrics(x0, x1, x2, x3, p):
    """The four quadrics Y_i^2 = Q_i(X): 2(X0X3+X1X2), 2(X0X3-X1X2),
    2(X0X2-X1X3), 2(X0X2+X1X3)."""
    a = (x0 * x3) % p
    b = (x1 * x2) % p
    c = (x0 * x2) % p
    d = (x1 * x3) % p
    return (
        (2 * (a + b)) % p,
        (2 * (a - b)) % p,
        (2 * (c - d)) % p,
        (2 * (c + d)) % p,
    )


def zsatake_vanishes(w: np.ndarray, p: int) -> np.ndarray:
    """Rows [Y0..Y3, X0..X3] satisfying all four quadric equations."""
    y = (w[:, :4] * w[:, :4]) % p
    q = z_quadrics(w[:, 4], w[:, 5], w[:, 6], w[:, 7], p)
    ok = np.ones(len(w), dtype=bool)
    for j in range(4):
        ok &= (y[:, j] - q[j]) % p == 0
    return ok


# the ten quadrics of the big model, indexed 0..9
def big_quadrics(x0, x1, x2, x3, p):
    sq = lambda v: (v * v) % p
    return (
        (sq(x0) + sq(x1) + sq(x2) + sq(x3)) % p,
        (sq(x0) - sq(x1) + sq(x2) - sq(x3)) % p,
        (sq(x0) + sq(x1) - sq(x2) - sq(x3)) % p,
        (sq(x0) - sq(x1) - sq(x2) + sq(x3)) % p,
        (2 * (x0 * x1 + x2 * x3)) % p,
        (2 * (x0 * x2 + x1 * x3)) % p,
        (2 * (x0 * x3 + x1 * x2)) % p,
        (2 * (x0 * x1 - x2 * x3)) % p,
        (2 * (x0 * x2 - x1 * x3)) % p,
        (2 * (x0 * x3 - x1 * x2)) % p,
    )


# ---------------------------------------------------------------------------
# enumeration helpers

def _grid(p: int, k: int) -> np.ndarray:
    """Every point of F_p^k, one row each, in lexicographic order."""
    return np.indices((p,) * k, dtype=np.int64).reshape(k, p ** k).T


def _affine_matches(left: np.ndarray, right: np.ndarray) -> int:
    """Number of pairs (head, tail) with left[head] == right[tail].

    left holds one value per head in F_p^s and right one per tail in
    F_p^(n+1-s), so the pairs are the affine solutions in F_p^(n+1) of
    one equation. right's values are >= 0, and left is -1 where a
    condition on the head excludes the point. The count is one product of
    the two value histograms, whatever order the points come in.
    """
    size = int(max(left.max(), right.max())) + 1
    return int(np.bincount(left[left >= 0], minlength=size) @ np.bincount(right, minlength=size))


def _match_pairs(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (head, tail) that `_affine_matches` counts, as two index
    arrays in lexicographic order: each head against the tails of its value,
    read off the tails sorted stably by value, so the work is the pairs'."""
    heads = np.flatnonzero(left >= 0)
    sizes = np.bincount(right, minlength=int(max(left.max(), right.max())) + 1)
    reps = sizes[left[heads]]
    starts = (np.cumsum(sizes) - sizes)[left[heads]]
    within = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    return np.repeat(heads, reps), np.argsort(right, kind="stable")[np.repeat(starts, reps) + within]


def _chi_table(p: int) -> np.ndarray:
    table = -np.ones(p, dtype=np.int64)
    table[0] = 0
    table[(np.arange(1, p) ** 2) % p] = 1
    return table


@lru_cache(maxsize=16)
def _z_strata(p: int) -> tuple[int, int, int]:
    """The sum over X in F_p^4 of the number of solutions Y of Y^2 = Q(X),
    the product of 1 + chi(Q_i(X)), as three exact ints: over all of F_p^4,
    over X0 = 0, and over X0 != 0 = X3.

    With a = X0X3, b = X1X2, c = X0X2 and d = X1X3 the quadrics are
    2(a + b), 2(a - b), 2(c - d) and 2(c + d).  Each stratum with a zero
    coordinate is a product of O(p) sums, since X2 -> X1X2 and the like are
    bijections once X1 != 0.  On (F_p^*)^4, (a, b, c) takes every value
    p - 1 times and d = ab/c, so that stratum is (p - 1) sum_t F(t)^2, where
    F(t) sums (1 + chi(2(a + b)))(1 + chi(2(a - b))) over ab = t: the same
    sum as over cd = t, the factor being even in b.  Only changes of
    variables are used, never multiplicativity of chi, so the identities
    hold for any table with chi[0] = 0.  The all-zero X contributes 1, the
    origin, which the counts that contain it subtract.
    """
    chi = _chi_table(p)
    x = np.arange(p, dtype=np.int64)
    one = 1 + chi[2 * x % p]                  # 1 + chi(2v)
    h = int((one * one[-x % p]).sum())        # sum_v (1 + chi(2v))(1 + chi(-2v))
    k = int((one[1:] * one[1:]).sum())        # sum_{v != 0} (1 + chi(2v))^2
    # F(t) as the column sums of a (p - 1) x (p - 1) table, b = t/a
    a, t = x[1:, None], x[None, 1:]
    b = t * _inverse_mod(a, p) % p
    f = (one[(a + b) % p] * one[(a - b) % p]).sum(axis=0)
    x0_zero = p * p + (p - 1) * h * h         # X1 = 0, then X1 != 0
    x3_zero = (p - 1) * (p + k * h)           # X2 = 0, then X2 != 0
    # X0, X3 != 0: (X1, X2) zero, X1 = 0 only, X2 = 0 only, neither
    rest = (p - 1) * (k + k * k + k * (h - 1) + int((f * f).sum()))
    return x0_zero + x3_zero + rest, x0_zero, x3_zero


def _check_charsum_prime(p: int):
    _check_odd_prime(p)
    # the strata sums are O(p^2); the cap is the surface count's, so that
    # every closed form in |F| can still be checked
    if p > SURFACE_CAP:
        raise ValueError(f"character-sum counts capped at p <= {SURFACE_CAP}")


def _z_points(total: int, p: int) -> int:
    """Projective points from the affine solutions counted in `total`."""
    if total % (p - 1):
        raise AssertionError(f"{total} affine solutions is not a multiple of p - 1 = {p - 1}")
    return total // (p - 1)


# ---------------------------------------------------------------------------
# the public counting surface

def count_variety(variety: str, p: int, method: str = "naive") -> int:
    """Exact number of projective F_p points of the named variety."""
    _check_odd_prime(p)
    if variety not in VARIETIES:
        raise ValueError(f"unknown variety {variety!r}")
    if method not in ("naive", "charsum"):
        raise ValueError(f"unknown method {method!r}")

    if variety == "Zsatake":
        if method == "charsum":
            _check_charsum_prime(p)
            return _z_points(_z_strata(p)[0] - 1, p)
        if p > Z_CAP:
            raise ValueError(f"Z count capped at p <= {Z_CAP}")
        # [Y : X], Y^2 = Q(X) coordinatewise: equal base-p codes of the four
        # values in [0, p) on each side are the four equations
        code = p ** np.arange(4, dtype=np.int64)
        w = _grid(p, 4)
        return _z_points(_affine_matches((w * w % p) @ code,
                                         np.stack(z_quadrics(*w.T, p), axis=1) @ code) - 1, p)

    if variety == "U2c":
        # Z cap {X0 X3 = 0}: the strata X0 = 0 and X0 != 0 = X3
        if method == "naive":
            raise ValueError("naive method not defined for U2c")
        _check_charsum_prime(p)
        _, x0_zero, x3_zero = _z_strata(p)
        return _z_points(x0_zero + x3_zero - 1, p)

    if method == "charsum":
        raise ValueError(f"charsum method not defined for {variety}")
    if variety == "Ztilde":
        return _ztilde(count_variety("Zsatake", p, "charsum"),
                       count_variety("FermatSurface", p, "naive"), p)

    w = _grid(p, 2)
    if variety == "FermatSurface":
        if p > SURFACE_CAP:
            raise ValueError(f"surface enumeration capped at p <= {SURFACE_CAP}")
        # (Z0, Z1) against (Z2, Z3): Z0^4 - Z1^4 = Z3^4 - Z2^4
        left, right = _quartic_diff(w[:, 0], w[:, 1], p), _quartic_diff(w[:, 1], w[:, 0], p)
    elif variety == "FermatCurve":
        if p > SURFACE_CAP:
            raise ValueError(f"curve enumeration capped at p <= {SURFACE_CAP}")
        # x0 against (x1, x2): x0^4 = x1^4 - x2^4
        left, right = _pow4(np.arange(p, dtype=np.int64), p), _quartic_diff(w[:, 0], w[:, 1], p)
    else:
        # ConeF, (t, Z0, Z1) against (Z2, Z3) on the same quartic, t free;
        # U1c keeps the cone points with t = 0 or Z0^2 + Z1^2 = 0
        if p > Z_CAP:
            raise ValueError(f"cone enumeration capped at p <= {Z_CAP}")
        h = _grid(p, 3)
        left, right = _quartic_diff(h[:, 1], h[:, 2], p), _quartic_diff(w[:, 1], w[:, 0], p)
        if variety == "U1c":
            left = np.where((h[:, 0] == 0) | ((h[:, 1] ** 2 + h[:, 2] ** 2) % p == 0), left, -1)
    return _z_points(_affine_matches(left, right) - 1, p)


def _ztilde(z: int, f: int, p: int) -> int:
    """|Ztilde| from |Z| and |F|: the blow-up along the two singular lines
    replaces each P^1 by a copy of the quartic surface."""
    return z + 2 * f - 2 * (p + 1)


# ---------------------------------------------------------------------------
# closed-form verification

def count_z_slice_x0_zero(p: int) -> int:
    """Projective points of Z with X0 = 0."""
    _check_charsum_prime(p)
    return _z_points(_z_strata(p)[1] - 1, p)


def count_z_slice_x0_nonzero_x3_zero(p: int) -> int:
    """Projective points of Z with X0 != 0 and X3 = 0."""
    _check_charsum_prime(p)
    return _z_points(_z_strata(p)[2], p)


def verify_count_formulas(p: int, a_p: int) -> dict:
    """All closed-form point counts at p, as exact residuals.

    Includes the complement counts on both sides of the birational map,
    the cone count, the Satake count, the blow-up count, the two
    intermediate slice counts, and the corrected quartic-surface trace
    formula |F(F_p)| = 1 + p^2 + (9 + 7chi_-1 + 2chi_2 + 2chi_-2)p + a_p.
    """
    _check_odd_prime(p)
    chi1 = kronecker_char(-1, p)
    chi2 = kronecker_char(2, p)
    chi_2 = kronecker_char(-2, p)

    f = count_variety("FermatSurface", p)
    cone = count_variety("ConeF", p)
    z = count_variety("Zsatake", p, "charsum")
    u1c = count_variety("U1c", p)
    u2c = count_variety("U2c", p, "charsum")
    ztilde = _ztilde(z, f, p)
    slice_x0 = count_z_slice_x0_zero(p)
    slice_x3 = count_z_slice_x0_nonzero_x3_zero(p)

    trace_term = (9 + 7 * chi1 + 2 * chi2 + 2 * chi_2) * p
    residuals = {
        "u1_complement": u1c - (f + 4 * p * p - 4 * p + 1 + (4 * p * p - 6 * p + 2) * chi1),
        "u2_complement": u2c - (4 * p * p - 2 * p + 2 + (4 * p * p - 6 * p + 2) * chi1),
        "cone": cone - (p * f + 1),
        "satake": z - ((p - 1) * f + 2 * p + 2),
        "resolution": ztilde - (p + 1) * f,
        "slice_x0_zero": slice_x0 - (2 * p * p - p + 2 + (2 * p * p - 2 * p) * chi1),
        "slice_x3_zero": slice_x3 - (2 * p * p - p + (2 * p * p - 4 * p + 2) * chi1),
        "fermat_corrected": f - (1 + p * p + trace_term + a_p),
    }
    return {
        "p": p,
        "counts": {
            "FermatSurface": f,
            "ConeF": cone,
            "Zsatake": z,
            "U1c": u1c,
            "U2c": u2c,
            "Ztilde": ztilde,
            "slice_x0_zero": slice_x0,
            "slice_x0_nonzero_x3_zero": slice_x3,
        },
        "residuals": residuals,
        "measured_frobenius_trace": f - (1 + p * p) - trace_term,
    }


# ---------------------------------------------------------------------------
# the birational map between the cone and Z

def _inverse_mod(x, p: int):
    """The inverse mod p of each entry of x, and 0 for 0, read from a table."""
    return np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.int64)[x % p]


def phi_image(t, z, p: int) -> tuple:
    """Image of cone points [t : Z] with t != 0 and Z0^2 + Z1^2 != 0.

    t and the four entries of z are ints, giving one point and a tuple of
    ints, or integer arrays, one point per position, giving a tuple of
    eight arrays of their common shape.
    """
    t, z0, z1, z2, z3 = np.broadcast_arrays(*(np.asarray(v, dtype=np.int64) % p for v in (t, *z)))
    s01 = (z0 * z0 + z1 * z1) % p
    s23 = (z2 * z2 + z3 * z3) % p
    if np.any(t == 0) or np.any(s01 == 0):
        raise ValueError("point outside the domain of the map")
    tinv = _inverse_mod(t, p)
    w = (
        (2 * z0) % p,
        (2 * z1) % p,
        (2 * z2) % p,
        (2 * z3) % p,
        (s01 * tinv) % p,
        ((z3 * z3 - z2 * z2) * tinv) % p,
        (t * s23 % p * _inverse_mod(s01, p)) % p,
        t,
    )
    return w if t.ndim else tuple(int(v) for v in w)


def phi_inverse(w: tuple, p: int) -> tuple:
    """[Y:X] -> [X3 : Y0/2 : Y1/2 : Y2/2 : Y3/2], on ints or integer arrays."""
    half = pow(2, p - 2, p)
    return (
        w[7] % p,
        (w[0] * half) % p,
        (w[1] * half) % p,
        (w[2] * half) % p,
        (w[3] * half) % p,
    )


def _proj_normalize(rows: np.ndarray, p: int) -> np.ndarray:
    """The rows scaled so that their first nonzero entry is 1; zero rows stay 0."""
    rows = rows % p
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return rows * _inverse_mod(lead, p)[:, None] % p


def verify_birational_map(p: int) -> dict:
    """Enumerate U1(F_p), push every point through the map, check the image
    equations and the printed inverse, and compare |U1| with |U2|.

    The points [1 : Z] of U1 run in lexicographic order of Z, and a failed
    check names the first point that fails any check, with the first check
    it fails: the target equations, then the inverse, then landing in U2.
    """
    _check_odd_prime(p)
    if p > Z_CAP:
        raise ValueError(f"birational check capped at p <= {Z_CAP}")
    # U1, (Z0, Z1) against (Z2, Z3): Z0^4 - Z1^4 = Z3^4 - Z2^4, Z0^2 + Z1^2 != 0
    g = _grid(p, 2)
    left = np.where((g[:, 0] ** 2 + g[:, 1] ** 2) % p != 0, _quartic_diff(g[:, 0], g[:, 1], p), -1)
    heads, tails = _match_pairs(left, _quartic_diff(g[:, 1], g[:, 0], p))
    z = np.hstack([g[heads], g[tails]])
    w = np.stack(phi_image(1, z.T, p), axis=1)
    back = _proj_normalize(np.stack(phi_inverse(w.T, p), axis=1), p)
    misses = ~zsatake_vanishes(w, p)
    wrong = np.any(back != np.hstack([np.ones((len(z), 1), dtype=np.int64), z]), axis=1)
    # image must land in U2: Y0^2 + Y1^2 != 0 and X3 != 0
    outside = ((w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1]) % p == 0) | (w[:, 7] % p == 0)
    failed = np.flatnonzero(misses | wrong | outside)
    if len(failed):
        k = failed[0]
        pt = tuple(z[k].tolist())
        if misses[k]:
            raise AssertionError(f"image of {pt} misses the target equations")
        if not back[k].any():
            raise ValueError("zero vector is not projective")
        if wrong[k]:
            raise AssertionError(f"inverse fails at {pt}")
        raise AssertionError(f"image of {pt} outside U2")
    n_u1 = len(z)
    n_u2 = count_variety("Zsatake", p, "charsum") - count_variety("U2c", p, "charsum")
    n_cone_side = count_variety("ConeF", p) - count_variety("U1c", p)
    # each normalized image as one base-p code (below p^8 < 2^63 at p <= Z_CAP),
    # counted by sorting: no np.unique, which imports numpy.ma (about 1 MB
    # resident), and no set of tuples
    codes = np.sort(_proj_normalize(w, p) @ p ** np.arange(w.shape[1], dtype=np.int64))
    distinct = int(len(codes) and 1 + np.count_nonzero(codes[1:] != codes[:-1]))
    return {
        "p": p,
        "u1_count": n_u1,
        "u2_count": n_u2,
        "cone_minus_u1c": n_cone_side,
        "distinct_images": distinct,
        "bijective": n_u1 == n_u2 == distinct == n_cone_side,
        "coordinate_matching": "identity",
    }


# ---------------------------------------------------------------------------
# boundary lines

def _line_catalog(p: int, rational_only: bool = False) -> tuple[list, np.ndarray]:
    """The names of the 30 boundary lines in P^3 over F_p, and the stack of
    their (2, 4) matrices: each line's points at (u, v) = (1, 0) and (0, 1),
    so that (u, v) maps to u row 0 + v row 1."""
    lines = []
    signs = list(itertools.product((("+", 1), ("-", -1)), repeat=2))
    if not rational_only:
        if p % 4 != 1:
            raise ValueError("sqrt(-1) needed in F_p: require p = 1 mod 4")
        i = min(x for x in range(2, p) if (x * x + 1) % p == 0)
        for (t1, s1), (t2, s2) in signs:
            a, b, tag = s1 * i, s2 * i, f"({t1},{t2})"
            lines += [(f"L1{tag}", ((a, 0, 1, 0), (0, b, 0, 1))),
                      (f"L2{tag}", ((a, 1, 0, 0), (0, 0, b, 1))),
                      (f"L3{tag}", ((0, b, 1, 0), (a, 0, 0, 1)))]
    for (t1, a), (t2, b) in signs:
        tag = f"({t1},{t2})"
        lines += [(f"L4{tag}", ((0, b, 1, 0), (a, 0, 0, 1))),
                  (f"L5{tag}", ((a, 1, 0, 0), (0, 0, b, 1))),
                  (f"L6{tag}", ((a, 0, 1, 0), (0, b, 0, 1)))]
    # l_ij: the coordinate line x_i = x_j = 0
    eye = np.eye(4, dtype=np.int64)
    for i, j in itertools.combinations(range(4), 2):
        lines.append((f"l{i}{j}", eye[[k for k in range(4) if k not in (i, j)]]))
    return [name for name, _ in lines], np.array([m for _, m in lines], dtype=np.int64) % p


def verify_boundary_lines(p: int, rational_only: bool = False) -> dict:
    """For each boundary line, the set of the ten quadrics vanishing
    identically along it (tested at every parameter value in P^1(F_p))."""
    _check_odd_prime(p)
    names, mats = _line_catalog(p, rational_only)
    # the parameters (1, v) for v in F_p and (0, 1), for every line at once,
    # make pts[line, coordinate, parameter]
    u = np.append(np.ones(p, dtype=np.int64), 0)
    v = np.append(np.arange(p, dtype=np.int64), 1)
    pts = (mats[:, 0, :, None] * u + mats[:, 1, :, None] * v) % p
    vanishing = np.all(np.stack(big_quadrics(*pts.transpose(1, 0, 2), p)) == 0, axis=2)
    return {name: np.flatnonzero(vanishing[:, k]).tolist() for k, name in enumerate(names)}
