"""Exact base arithmetic.

Primes, quadratic characters, Gaussian integers, truncated Fourier
series with quarter-integer exponent unit, and integer polynomials in one
variable.  A series stores its terms in numpy arrays sorted degree first
(int64 where a proven bound allows, Python ints otherwise), and its
products run on those arrays: in both genera, pair products are summed in
a dense box of product indices, compressed by the common stride of each
exponent column, filled in slabs of bounded size and read off in sorted
order.  A slab with few pairs is filled in one broadcast, a larger one
term by term, so a small product costs a few numpy calls.  What the
kernel reads of an input (its summary, lattice-aligned bounds and exact
norms) is kept on the series: a theta series or a product gets it from
its builder, any other series by one scan.  A factor of one term is a
shift and a scale of the other.
One bound, l1(small) * linf(big) below 2**62, proves every int64 partial
sum exact, whatever order a fill sums in.  `series_product` multiplies
many factors, squaring the product of one of each pair of equal ones.
`QuarterSeries.coeffs` reads the arrays as a mapping of GaussInts.
Everything here is exact: no floats enter until a series or polynomial is
explicitly evaluated.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np


# ---------------------------------------------------------------------------
# primes and quadratic characters

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def odd_primes(bound: int) -> list[int]:
    """Odd primes p <= bound, ascending."""
    return [p for p in range(3, bound + 1, 2) if is_prime(p)]


def kronecker_char(d: int, n: int) -> int:
    """The quadratic character chi_d(n) for d in {-1, 2, -2} and odd n.

    chi_{-1}(n) = (-1)^((n-1)/2), chi_2(n) = (-1)^((n^2-1)/8), and
    chi_{-2} = chi_{-1} * chi_2.  All three depend only on n mod 8.
    """
    if n % 2 == 0:
        raise ValueError(f"chi_{d} is only defined at odd arguments, got {n}")
    n = abs(n) if d > 0 else n
    n %= 8
    if d == -1:
        return 1 if n % 4 == 1 else -1
    if d == 2:
        return 1 if n in (1, 7) else -1
    if d == -2:
        return kronecker_char(-1, n) * kronecker_char(2, n)
    raise ValueError(f"unsupported discriminant {d}")


# ---------------------------------------------------------------------------
# Gaussian integers

@dataclass(frozen=True)
class GaussInt:
    """An element re + im*sqrt(-1) of Z[i]."""

    re: int = 0
    im: int = 0

    def __add__(self, other):
        other = _as_gauss(other)
        return GaussInt(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gauss(other)
        return GaussInt(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_gauss(other) - self

    def __mul__(self, other):
        other = _as_gauss(other)
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = GaussInt(other, 0)
        if not isinstance(other, GaussInt):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # equal to its int when real, as __eq__ requires
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self):
        return f"GaussInt({self.re}, {self.im})"


def _as_gauss(x) -> GaussInt:
    if isinstance(x, GaussInt):
        return x
    if isinstance(x, int):
        return GaussInt(x, 0)
    raise TypeError(f"cannot coerce {x!r} to GaussInt")


ONE = GaussInt(1, 0)
I_UNIT = GaussInt(0, 1)
# the four units, shared: GaussInt is frozen
_UNITS = (ONE, I_UNIT, GaussInt(-1, 0), GaussInt(0, -1))


def i_power(k: int) -> GaussInt:
    """i^k as an exact Gaussian integer."""
    return _UNITS[k % 4]


def gauss_primary_decompose(p: int) -> GaussInt:
    """A Gaussian prime of norm p, p = 1 mod 4, in primary form.

    Primary means congruent to 1 modulo (1+i)^3, that is an even imaginary
    part and re + im = 1 mod 4; exactly one associate of any odd Gaussian
    integer is primary, which pins the normalization used for Hecke
    eigenvalues downstream.  The prime is the associate of x + iy, x < y,
    and x^2 + y^2 = p comes from Cornacchia's algorithm: Euclid on p and a
    square root of -1 mod p stops at the first remainder x below sqrt(p).
    """
    if not is_prime(p) or p % 4 != 1:
        raise ValueError(f"{p} does not split in Z[i]")
    return _split_primary(p)


def _split_primary(p: int) -> GaussInt:
    """gauss_primary_decompose for a prime p = 1 mod 4 that the caller has
    already checked."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:  # a quadratic non-residue
        c += 1
    r, x = p, pow(c, (p - 1) // 4, p)  # x^2 = -1 mod p
    while x * x > p:
        r, x = x, r % x
    x, y = sorted((x, math.isqrt(p - x * x)))
    if x * x + y * y != p:  # pragma: no cover - unreachable for split p
        raise AssertionError(f"no two-square decomposition found for {p}")
    if x % 2 == 0:
        x, y = -y, x  # i (x + iy), the associate with an even imaginary part
    return GaussInt(x, y) if (x + y) % 4 == 1 else GaussInt(-x, -y)


# ---------------------------------------------------------------------------
# truncated quarter-exponent series
#
# Genus 1: index e means exp(pi*i*tau*e/4); truncation keeps e <= order.
# Genus 2: index (e1, e2, e3) means exp(pi*i*(e1*tau1 + e2*tau2 + e3*tau3)/4);
# truncation keeps e1 + e3 <= order (e2 is controlled by positive
# semidefiniteness, |e2| <= e1 + e3, for every series built from thetas).
#
# A series keeps its nonzero terms in read-only arrays in canonical order
# (_term_order; genus 2 by e1 + e3, then e1, then e2): one exponent column
# per index entry, and the real and imaginary parts of the coefficients.  An
# array is int64 when every entry is below 2**62 in absolute value, so that
# two entries sum without overflow, and holds Python ints otherwise.

_INT64_SAFE = 1 << 62


def _as_index(genus: int, key) -> tuple | None:
    """key as a tuple of Python int exponents (numpy integers read as ints),
    or None if it is no index of that genus."""
    index = (key,) if genus == 1 else key
    ok = isinstance(index, tuple) and len(index) == 2 * genus - 1
    return tuple(map(int, index)) if ok and all(
        isinstance(e, (int, np.integer)) for e in index) else None


def _term_order(e) -> tuple:
    """The keys of the canonical term order, most significant first, of
    exponent columns or of one index e: e in genus 1; the degree e1 + e3,
    e1 and e2 in genus 2.  It is the pair kernel's code order, so products
    come out sorted, and a truncation keeps a prefix."""
    return tuple(e) if len(e) == 1 else (e[0] + e[2], e[0], e[1])


def _int_array(values) -> np.ndarray:
    """values as int64 if every |v| < 2**62, else as an array of Python ints."""
    arr = np.asarray(values, dtype=values.dtype if isinstance(values, np.ndarray) else object)
    small = not arr.size or max(-int(arr.min()), int(arr.max())) < _INT64_SAFE
    return arr.astype(np.int64 if small else object, copy=False)


class QuarterSeries:
    """Exact truncated Fourier series with exponent unit pi*i*tau/4.

    `exps` holds the exponent columns and `re` and `im` the coefficient
    parts; `coeffs` reads them as a mapping {index: GaussInt}.  A series is
    immutable, so the caches of the theta layer can share one.  The pair
    kernel's summary of a series (_Summary) is kept in the last slot, given
    by the builder of a theta series or a product, or scanned on first use;
    copies, pickles and == never read it.
    """

    __slots__ = ("genus", "order", "exps", "re", "im", "_kernel_summary")

    def __init__(self, genus: int, order: int, coeffs=None):
        if genus not in (1, 2):
            raise ValueError(f"genus must be 1 or 2, got {genus}")
        coeffs = coeffs or {}
        indices = [_as_index(genus, key) for key in coeffs]
        for key, index in zip(coeffs, indices):
            if index is None:
                raise ValueError(f"{key!r} is not a genus-{genus} index")
            if sum(index[::2]) > order:  # the degree, e or e1 + e3
                raise ValueError(f"index {key} exceeds truncation order {order}")
        cols = [_int_array([index[j] for index in indices]) for j in range(2 * genus - 1)]
        vals = [_as_gauss(v) for v in coeffs.values()]
        re, im = (_int_array([getattr(v, part) for v in vals]) for part in ("re", "im"))
        # a mapping holds each index once, as equal keys (1, np.int64(1), True) are one key
        perm = np.lexsort(_term_order(cols)[::-1])
        self._set(genus, order, [c[perm] for c in cols], re[perm], im[perm])

    def _set(self, genus, order, exps, re, im):
        """Store the nonzero ones of terms with distinct indices in canonical order."""
        keep = (re != 0) | (im != 0)
        self._store(genus, order, [_int_array(x[keep]) for x in (*exps, re, im)])

    def _store(self, genus, order, arrays, summary=None):
        """Store the arrays of nonzero terms with distinct indices in canonical
        order, each already int64 if every entry is below 2**62 and of Python
        ints otherwise, with the kernel summary their builder gives (see
        _Summary), or none, to be scanned on first use."""
        if genus not in (1, 2):
            raise ValueError(f"genus must be 1 or 2, got {genus}")
        if order < 0:
            raise ValueError("order must be nonnegative")
        for x in arrays:
            x.flags.writeable = False
        values = (genus, order, tuple(arrays[:-2]), *arrays[-2:], summary)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _of_terms(cls, genus: int, order: int, arrays, summary=None) -> "QuarterSeries":
        """The series of the arrays (exponent columns, then re and im) of
        nonzero terms with distinct indices in canonical order, each already
        int64 if every entry is below 2**62 and of Python ints otherwise,
        carrying the kernel summary its builder gives, if any."""
        out = cls.__new__(cls)
        out._store(genus, order, arrays, summary)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"QuarterSeries is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QuarterSeries is immutable; cannot delete {name!r}")

    def __reduce__(self):  # copy and pickle through the constructor, not setattr
        return QuarterSeries.from_arrays, (self.genus, self.order, self.exps, self.re, self.im)

    @classmethod
    def from_arrays(cls, genus: int, order: int, exps, re, im) -> "QuarterSeries":
        """The series of terms with distinct indices in canonical order that fit order."""
        out = cls.__new__(cls)
        out._set(genus, order, exps, re, im)
        return out

    @classmethod
    def zero(cls, genus: int, order: int) -> "QuarterSeries":
        return cls(genus, order)

    @classmethod
    def one(cls, genus: int, order: int) -> "QuarterSeries":
        zero = np.zeros(1, np.int64)
        return cls._of_terms(genus, order, [zero] * (2 * genus - 1) + [np.ones(1, np.int64), zero])

    @property
    def coeffs(self) -> "SeriesCoeffs":
        return SeriesCoeffs(self)

    def is_zero(self) -> bool:
        return not len(self.re)

    def coefficient(self, key) -> GaussInt:
        return self.coeffs.get(key, GaussInt(0, 0))

    def _degrees(self) -> np.ndarray:
        """The truncation degree of each term: e, or e1 + e3."""
        return _term_order(self.exps)[0]

    def truncate(self, order: int) -> "QuarterSeries":
        """The terms of degree at most order; raises past the series' own order,
        where the missing terms are unknown, not zero."""
        if order > self.order:
            raise ValueError("truncation not valid beyond the series order")
        n = int(np.searchsorted(self._degrees(), order, "right"))
        exps = [x[:n] for x in self.exps]
        return QuarterSeries.from_arrays(self.genus, order, exps, self.re[:n], self.im[:n])

    def __eq__(self, other):
        if not isinstance(other, QuarterSeries):
            return NotImplemented
        return (self.genus, self.order) == (other.genus, other.order) and all(map(
            np.array_equal, (*self.exps, self.re, self.im), (*other.exps, other.re, other.im)))

    def __repr__(self):
        return f"QuarterSeries(genus={self.genus}, order={self.order}, {len(self.re)} terms)"

    def evaluate(self, tau) -> complex:
        """Numeric value at tau (complex scalar for genus 1, 2x2 for genus 2)."""
        t = (tau,) if self.genus == 1 else (tau[0][0], tau[0][1], tau[1][1])
        phase = sum(e.astype(float) * complex(v) for e, v in zip(self.exps, t))
        return complex(np.sum((self.re + 1j * self.im) * np.exp(cmath.pi * 1j / 4 * phase)))


class SeriesCoeffs(Mapping):
    """Read-only mapping {index: GaussInt} over the arrays of a series: its
    length costs nothing, a GaussInt is built only when a value is read, and
    a lookup is a binary search in each key of the canonical order."""

    def __init__(self, series: QuarterSeries):
        self._s = series

    def __len__(self):
        return len(self._s.re)

    def __iter__(self):
        cols = [c.tolist() for c in self._s.exps]
        return iter(cols[0]) if len(cols) == 1 else zip(*cols)

    def __getitem__(self, key):
        s, index = self._s, _as_index(self._s.genus, key)
        if index is None:
            raise KeyError(key)
        lo, hi = 0, len(s.re)
        for col, v in zip(_term_order(s.exps), _term_order(index)):
            block = col[lo:hi]
            lo, hi = [lo + int(np.searchsorted(block, v, side)) for side in ("left", "right")]
        if lo == hi:
            raise KeyError(key)
        return GaussInt(int(s.re[lo]), int(s.im[lo]))

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)

    def __repr__(self):
        return repr(dict(self.items()))


class _Items(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.values())


class _Values(ValuesView):
    def __iter__(self):
        return map(GaussInt, self._mapping._s.re.tolist(), self._mapping._s.im.tolist())


def series_mul(a: QuarterSeries, b: QuarterSeries,
               order: int | None = None) -> QuarterSeries:
    """Exact truncated product of two series of equal genus.

    Every series product in the package goes through here, and in both
    genera it sums over coefficient pairs (`_mul_schoolbook`).
    """
    if a.genus != b.genus:
        raise ValueError(f"genus mismatch: {a.genus} vs {b.genus}")
    if order is None:
        order = min(a.order, b.order)
    elif order < 0:
        raise ValueError("order must be nonnegative")
    elif order > min(a.order, b.order):
        raise ValueError("product not valid beyond the smaller input order")
    return _mul_schoolbook(a, b, order)


def series_product(factors) -> QuarterSeries:
    """Exact product of series of one genus, truncated to the smallest order.

    Equal factors (by ==) are paired: one factor of each pair is multiplied
    into a half product, which is squared, and the unpaired factors are then
    multiplied in.  A product of the squares of k distinct factors so costs
    k products, and its largest one is the square of the half product, which for
    theta00 theta01 theta10 (= 2 eta^3) has only about sqrt(order) terms.
    A single factor comes back unchanged.
    """
    half, rest = [], []
    for f in factors:
        if f in rest:
            rest.remove(f)
            half.append(f)
        else:
            rest.append(f)
    if half:
        h = reduce(series_mul, half)
        rest.insert(0, series_mul(h, h))
    if not rest:
        raise ValueError("a product needs at least one factor")
    return reduce(series_mul, rest)


# The pair kernel's dense accumulator holds at most this many cells at once
# (or one degree of its box, if that is more); a larger box is summed in slabs.
_BOX_CELLS = 1 << 18
# A slab is filled in one broadcast when the smaller series' terms against the
# span of their partners make at most this many pairs, and term by term otherwise.
_BROADCAST_PAIRS = 1 << 15


class _Summary(NamedTuple):
    """What the pair kernel reads of one input, about its code columns (the
    keys of the canonical order, _code_columns) and coefficients, as Python
    ints.  Per column, lattice-aligned bounds: `low` is at most the
    column's minimum and `high` at least its maximum, `gcd` divides every
    difference of two entries and every entry is congruent to low modulo
    it; `plus` is at most min(c + d) and `minus` at least max(c - d), with
    d the degree column.  `wide` says whether four times a low or a high
    reaches 2**62.  Exact: `l1` and `linf`, the sum and the maximum of
    |re| + |im| over the coefficients, and `nonzero`, whether re and im
    each have a nonzero entry; a built series leaves these three None
    until the kernel first reads it (_kernel_summary).

    Theta series and products carry their summary from their builder and
    are never scanned: theta series in closed form (theta._theta_series),
    pair products from their box (_mul_schoolbook) and one-term products
    as the other factor's, shifted (_mul_one_term).  Any other series, made
    from outside data (the constructor, from_arrays, truncate) or by
    QuarterSeries.one, is scanned on first use (_summary), which gives
    every bound exactly.  Bounds suffice: the kernel reads them only to lay
    out a box that holds every product and to guard its int64 path, and a
    looser bound only widens the box and makes the guard stricter.  The
    box's cells step by the gcd from the lows, though, so a low off its
    lattice would put products in wrong cells.  It holds no array, so that
    the series a cache keeps stay small."""
    wide: bool
    low: list
    high: list
    plus: list
    minus: list
    gcd: list
    l1: int
    linf: int
    nonzero: tuple


def _code_columns(s: QuarterSeries, dtype=None) -> np.ndarray:
    """The code columns of s as rows: the keys of the canonical order (the
    degree e1 + e3 fits int64, as each part is below 2**62)."""
    return np.array(_term_order(s.exps), dtype)


def _summary(s: QuarterSeries) -> _Summary:
    """The exact summary of s: one min and one max over its code columns
    stacked with their sums and differences with the degree column."""
    def extremes(cols):
        ext = np.concatenate((cols, cols + cols[0], cols - cols[0]))
        return ext.min(1).tolist(), ext.max(1).tolist()

    cols = _code_columns(s)
    k = len(cols)
    low, high = extremes(cols)
    wide = cols.dtype == object or 4 * max(map(abs, low[:k] + high[:k])) >= _INT64_SAFE
    if wide and cols.dtype != object:
        cols = cols.astype(object)  # c + d could wrap in int64
        low, high = extremes(cols)
    return _Summary(wide, low[:k], high[:k], low[k:2 * k], high[2 * k:],
                    np.gcd.reduce(cols - cols[:, :1], axis=1).tolist(), *_norms(s))


def _norms(s: QuarterSeries) -> tuple:
    """The l1, linf and nonzero fields of the summary of s."""
    nonzero = bool(s.re.any()), bool(s.im.any())
    # exact: each part is below 2**62 in int64
    norms = np.abs(s.re) + np.abs(s.im) if nonzero[1] else np.abs(s.re)
    linf = int(norms.max())
    l1 = int(norms.sum()) if len(norms) * linf < _INT64_SAFE else sum(norms.tolist())
    return l1, linf, nonzero


def _built_summary(low, high, plus, minus, gcd, norms=(None, None, None)) -> _Summary:
    """The summary of a built series from bounds on its code columns (see
    _Summary), with its norms if known."""
    return _Summary(4 * max(map(abs, low + high)) >= _INT64_SAFE,
                    low, high, plus, minus, gcd, *norms)


def _kernel_summary(s: QuarterSeries) -> _Summary:
    """The summary kept on s, complete: scanned if s has none, its norms
    computed if its builder left them out; kept on s either way."""
    kept = s._kernel_summary
    if kept is None or kept.l1 is None:
        kept = _summary(s) if kept is None else _Summary(*kept[:6], *_norms(s))
        object.__setattr__(s, "_kernel_summary", kept)
    return kept


class _Box(NamedTuple):
    """The pair kernel's box, one entry per code column, as Python ints.  A
    product index whose column j has the value base[j] + step[j] * k, with
    0 <= k < width[j], sits at k along axis j.  k is the sum of
    (c - offset) // step[j] over the index's two terms, with offsets[0] for
    the smaller series and offsets[1] for the larger."""
    base: list
    step: list
    width: list
    offsets: tuple


def _mul_schoolbook(a: QuarterSeries, b: QuarterSeries, order: int) -> QuarterSeries:
    """Exact truncated product over all coefficient pairs, in either genus.

    Each product index is coded as its cell in a dense box, so that codes
    add under multiplication, and the products are added into their cells
    with `np.add.at`; no sort is needed.  The set-up reads the summary
    kept on each input (_kernel_summary) and does the box and overflow
    arithmetic on Python ints; the output carries a summary made from its
    box (_product_summary), so the kernel never scans a product it made.  A
    factor of one term takes _mul_one_term.

    The box has one axis per code column, the keys of the canonical order
    (_term_order): the degree d (e, or e1 + e3), then e1 and e2 in genus 2
    (e3 = d - e1).  So the output is emitted in order, with no sort.  An
    axis steps by the gcd of the two inputs' gcds of its column (4 or 8
    for theta products), from the sum of their lows, and it spans only the
    values that a pair of degree at most the order can reach: c <= order +
    max(c - d) and c >= min(c + d) - order, each summed over the two inputs
    from their summaries' bounds.  For theta products that clips d, e1 and
    e3 to [0, order] and e2 to [-order, order].

    The box is filled in slabs of consecutive degrees, each of at most
    _BOX_CELLS cells (or of one degree, if that is more), so memory stays
    bounded until one degree alone exceeds the budget (near order 1450 for
    theta products).  Within a slab the partners of each term are a run of
    the larger series, which the canonical order sorts by degree, and every
    such pair lies inside the box; degrees that no pair reaches are skipped.
    If the terms of the smaller series against the span of all their runs
    make at most _BROADCAST_PAIRS pairs, the slab forms those pairs at once
    by broadcasting, masked to the runs, and adds them with one `np.add.at`
    per live part; otherwise each term of the smaller series adds its run
    with one `np.add.at` per live part.

    A pair (cr + i ci)(r + i m) is added as four real parts: cr r and
    -ci m into re, cr m and ci r into im.  A part is live only if both of
    its arrays have a nonzero entry, and a small term that fills its run
    alone skips a part whose scalar is 0; im is allocated only if a live
    part writes into it.  Every theta product is real, so it pays one real
    product per pair.

    For a fixed term of the smaller series, distinct terms of the larger
    one give distinct cells, so on either fill each cell gains at most one
    product per part per term of the smaller series, whatever order the
    cells, pairs and parts are summed in.  A term's parts into one cell sum
    in absolute value to at most (|cr| + |ci|)(|r| + |m|).  So every
    product, and every partial sum of an output coefficient, also one taken
    between two parts, is at most l1(small) * linf(big), where a
    coefficient measures |re| + |im|.  With that bound, every cell code,
    and four times every exponent and the order below 2**62, the kernel
    runs on int64 (a masked-out pair of a broadcast may wrap its code, but
    is dropped), and its output needs no second check of that bound;
    otherwise it runs on Python ints.  The l1 norm is summed as Python ints,
    and c + d is formed in int64 only for columns whose entries are below
    2**60.
    """
    small, big = (a, b) if len(a.re) <= len(b.re) else (b, a)
    if small.is_zero():
        return QuarterSeries.zero(a.genus, order)
    if len(small.re) == 1:
        return _mul_one_term(small, big, order)
    ss, sb = _kernel_summary(small), _kernel_summary(big)
    box = _box(ss, sb, order)
    widths = box.width
    if min(widths) < 1:
        return QuarterSeries.zero(a.genus, order)
    radix = [math.prod(widths[j + 1:]) for j in range(len(widths))]
    # k is monotone in its column, so |k| peaks at the column's minimum or
    # maximum, and every (c - offset) is a multiple of the step
    reach = max(sum(r * (max(abs(v - o), abs(w - o)) // st) for r, st, o, v, w in zip(
        radix, box.step, off, s.low, s.high)) for s, off in zip((ss, sb), box.offsets))
    int64 = (not ss.wide and not sb.wide and
             max(4 * order, ss.l1 * sb.linf, reach, widths[0] * radix[0]) < _INT64_SAFE)
    dtype = np.int64 if int64 else object
    step, rad = np.array(box.step, dtype)[:, None], np.array(radix, dtype)

    def arrays(s, off):
        """The degree steps, cell codes and coefficients of a series."""
        k = (_code_columns(s, dtype) - np.array(off, dtype)[:, None]) // step
        return k[0], rad @ k, s.re.astype(dtype, copy=False), s.im.astype(dtype, copy=False)

    sdeg, sidx, sre, sim = arrays(small, box.offsets[0])  # both ascend in degree:
    bdeg, bidx, bre, bim = arrays(big, box.offsets[1])  # the canonical order
    # (accumulator, signed small part, big part): re += cr r - ci m, im += cr m + ci r
    nonzero = ss.nonzero + sb.nonzero
    parts = [(acc, sign * (sre, sim)[i], (bre, bim)[j]) for acc, i, j, sign in
             ((0, 0, 0, 1), (0, 1, 1, -1), (1, 0, 1, 1), (1, 1, 0, 1))
             if nonzero[i] and nonzero[2 + j]]
    with_im = any(acc for acc, *_ in parts)
    rows, inner = widths[0], radix[0]
    # every degree step is >= 0, and the box starts at the lowest degree of a pair
    out, row, first = [], 0, np.zeros(len(sdeg), np.intp)
    while row < rows:
        # the partners of each small term in degree steps [row, end) are
        # first:last, both non-increasing along the small series
        end = min(row + max(1, _BOX_CELLS // inner), rows)
        last = np.searchsorted(bdeg, end - sdeg)
        accs = [np.zeros((end - row) * inner, dtype) for _ in range(1 + with_im)]
        lo, hi = int(first[-1]), int(last[0])
        if len(sdeg) * (hi - lo) <= _BROADCAST_PAIRS:
            j = np.arange(lo, hi)  # on the first slab every first is 0
            pair = (first[:, None] <= j) & (j < last[:, None]) if row else j < last[:, None]
            cells = (sidx[:, None] + (bidx[lo:hi] - row * inner))[pair].astype(np.intp, copy=False)
            for acc, sp, bp in parts:
                np.add.at(accs[acc], cells, (sp[:, None] * bp[lo:hi])[pair])
        else:
            for k, i, j, *c in zip((sidx - row * inner).tolist(), first.tolist(), last.tolist(),
                                   *(sp.tolist() for _, sp, _ in parts)):
                if i < j:
                    cells = (bidx[i:j] + k).astype(np.intp, copy=False)
                    for (acc, _, bp), ck in zip(parts, c):
                        if ck:
                            np.add.at(accs[acc], cells, ck * bp[i:j])
        re = accs[0]
        keep = np.flatnonzero((re != 0) | (accs[1] != 0) if with_im else re)
        im = accs[1][keep] if with_im else np.zeros(len(keep), dtype)
        out.append((keep.astype(dtype, copy=False) + row * inner, re[keep], im))
        if end == rows:
            break
        live = last < len(bdeg)
        if not live.any():
            break
        # skip the degrees that no pair reaches
        first, row = last, int((sdeg[live] + bdeg[last[live]]).min())
    code, re, im = out[0] if len(out) == 1 else (
        np.concatenate([part[j] for part in out]) for j in range(3))
    ks = []  # the steps of each cell along the axes, from its code
    for r in radix[:-1]:
        ks.append(code // r)
        code = code % r
    exps = [base + st * k for base, st, k in zip(box.base, box.step, (*ks, code))]
    summary = _product_summary(box, ss, sb, exps[0]) if len(re) else None
    exps = exps if a.genus == 1 else [exps[1], exps[2], exps[0] - exps[1]]  # (e1, e2, e3)
    arrays = [*exps, re, im]  # below 2**62 on int64 by the bound
    return QuarterSeries._of_terms(
        a.genus, order, arrays if int64 else [_int_array(x) for x in arrays], summary)


def _product_summary(box: _Box, ss: _Summary, sb: _Summary, degrees) -> _Summary:
    """The summary of a nonzero pair product from its box, its ascending
    degrees and its factors' summaries.  Every code entry lies on the box's
    lattice, base + step * k with k < width; the degrees' ends are exact.
    c + d is at least the sum of the factors' plus and at least low(c) +
    low(d); c - d is at most the sum of their minus and at most high(c) -
    low(d).  The norms are left to the first read."""
    low = [int(degrees[0]), *box.base[1:]]
    high = [int(degrees[-1]), *(v + st * (w - 1) for v, st, w in zip(
        box.base[1:], box.step[1:], box.width[1:]))]
    plus = [max(x + y, v + low[0]) for x, y, v in zip(ss.plus, sb.plus, low)]
    minus = [min(x + y, v - low[0]) for x, y, v in zip(ss.minus, sb.minus, high)]
    return _built_summary(low, high, plus, minus, box.step)


def _mul_one_term(term: QuarterSeries, big: QuarterSeries, order: int) -> QuarterSeries:
    """The truncated product of big and a series of one term, c * q^s: big's
    indices shifted by s and its coefficients scaled by c.  The shift keeps
    the canonical order, so the truncation keeps a prefix, and c(r + i m) is
    never 0 in Z[i]; the output's summary is big's shifted by s, its norms
    left to the first read.  As in the pair kernel, it runs on int64 when
    four times every code entry of both inputs and l1(term) * linf(big)
    are below 2**62: then each exponent sums two entries below 2**61, and
    |cr r - ci m|, |cr m + ci r| <= (|cr| + |ci|) max(|r|, |m|)."""
    index = [int(x[0]) for x in term.exps]
    code = _term_order(index)
    cr, ci = int(term.re[0]), int(term.im[0])
    sb = _kernel_summary(big)
    int64 = (not sb.wide and 4 * max(map(abs, code)) < _INT64_SAFE and
             (abs(cr) + abs(ci)) * sb.linf < _INT64_SAFE)
    dtype = np.int64 if int64 else object
    n = int(np.searchsorted(big._degrees(), order - code[0], "right"))
    exps = [x[:n].astype(dtype, copy=False) + v for x, v in zip(big.exps, index)]
    r, m = (x[:n].astype(dtype, copy=False) for x in (big.re, big.im))
    re, im = cr * r - ci * m, cr * m + ci * r
    summary = _built_summary(
        [v + c for v, c in zip(sb.low, code)], [v + c for v, c in zip(sb.high, code)],
        [v + c + code[0] for v, c in zip(sb.plus, code)],
        [v + c - code[0] for v, c in zip(sb.minus, code)], sb.gcd) if n else None
    arrays = [*exps, re, im]
    return QuarterSeries._of_terms(
        big.genus, order, arrays if int64 else [_int_array(x) for x in arrays], summary)


def _box(ss: _Summary, sb: _Summary, order: int) -> _Box:
    """The box of the products of pairs of degree at most the order, from the
    summaries of the smaller series and the larger."""
    step = [math.gcd(g, h) or 1 for g, h in zip(ss.gcd, sb.gcd)]
    low = [x + y for x, y in zip(ss.low, sb.low)]
    lo = [max(v, x + y - order) for v, x, y in zip(low, ss.plus, sb.plus)]
    hi = [min(x + y, order + u + v) for x, y, u, v in zip(ss.high, sb.high, ss.minus, sb.minus)]
    base = [v - (v - w) // st * st for v, w, st in zip(low, lo, step)]  # lo up to the lattice
    width = [(h - v) // st + 1 for h, v, st in zip(hi, base, step)]
    return _Box(base, step, width, (ss.low, [v - x for v, x in zip(base, ss.low)]))


# ---------------------------------------------------------------------------
# integer polynomials in one formal variable T

class IntPolynomial:
    """A polynomial in T with exact coefficients (rational or Gaussian integers).

    Coefficients are stored low degree first with no trailing zeros.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, GaussInt) else int(c) for c in coeffs]
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        if not cs:
            cs = [0]
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls([1])

    def degree(self) -> int:
        if len(self.coeffs) == 1 and not self.coeffs[0]:
            return -1
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial([self[k] + other[k] for k in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial([self[k] - other[k] for k in range(n)])

    def __mul__(self, other):
        if isinstance(other, (int, GaussInt)):
            return IntPolynomial([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return self.degree() == -1

    def substitute_scaled(self, factor: int) -> "IntPolynomial":
        """T -> factor * T, exactly."""
        return IntPolynomial([c * factor ** k for k, c in enumerate(self.coeffs)])

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"
