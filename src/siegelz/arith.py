"""Exact base arithmetic.

Primes, quadratic residue symbols, Gaussian integers, truncated Fourier
series with quarter-integer exponent unit, and integer polynomials in one
variable.  Everything here is exact: no floats enter until a series or
polynomial is explicitly evaluated.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# primes and quadratic symbols

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


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p: +1, -1, or 0 when p | a."""
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


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

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def divides(self, other: "GaussInt") -> bool:
        n = self.norm()
        z = other * self.conj()
        return n != 0 and z.re % n == 0 and z.im % n == 0

    def exact_div(self, other: "GaussInt") -> "GaussInt":
        """self / other, raising if the quotient is not in Z[i]."""
        n = other.norm()
        z = self * other.conj()
        if n == 0 or z.re % n or z.im % n:
            raise ValueError(f"{other} does not divide {self}")
        return GaussInt(z.re // n, z.im // n)

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


def i_power(k: int) -> GaussInt:
    """i^k as an exact Gaussian integer."""
    return (ONE, I_UNIT, GaussInt(-1, 0), GaussInt(0, -1))[k % 4]


def gauss_primary_decompose(p: int) -> GaussInt:
    """A Gaussian prime of norm p, p = 1 mod 4, in primary form.

    Primary means congruent to 1 modulo (1+i)^3; exactly one associate of
    any odd Gaussian integer is primary, which pins the normalization used
    for Hecke eigenvalues downstream.
    """
    if not is_prime(p) or p % 4 != 1:
        raise ValueError(f"{p} does not split in Z[i]")
    for x in range(1, p):
        y2 = p - x * x
        if y2 < x * x:
            break
        y = round(y2 ** 0.5)
        if y * y == y2:
            pi = GaussInt(x, y)
            break
    else:  # pragma: no cover - unreachable for split p
        raise AssertionError(f"no two-square decomposition found for {p}")
    modulus = GaussInt(-2, 2)  # (1+i)^3
    for cand in (pi, pi * I_UNIT, -pi, -(pi * I_UNIT)):
        if modulus.divides(cand - ONE):
            return cand
    raise AssertionError(f"no primary associate of {pi}")  # pragma: no cover


# ---------------------------------------------------------------------------
# truncated quarter-exponent series
#
# Genus 1: index e means exp(pi*i*tau*e/4); truncation keeps e <= order.
# Genus 2: index (e1, e2, e3) means exp(pi*i*(e1*tau1 + e2*tau2 + e3*tau3)/4);
# truncation keeps e1 + e3 <= order (e2 is controlled by positive
# semidefiniteness, |e2| <= e1 + e3, for every series built from thetas).

class QuarterSeries:
    """Exact truncated Fourier series with exponent unit pi*i*tau/4."""

    __slots__ = ("genus", "order", "coeffs")

    def __init__(self, genus: int, order: int, coeffs: dict | None = None):
        if genus not in (1, 2):
            raise ValueError(f"genus must be 1 or 2, got {genus}")
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.genus = genus
        self.order = order
        clean: dict = {}
        for key, val in (coeffs or {}).items():
            val = _as_gauss(val)
            if not val:
                continue
            if not self._fits(key):
                raise ValueError(f"index {key} exceeds truncation order {order}")
            clean[key] = val
        self.coeffs = clean

    def _fits(self, key) -> bool:
        if self.genus == 1:
            return isinstance(key, int) and key <= self.order
        return (
            isinstance(key, tuple)
            and len(key) == 3
            and key[0] + key[2] <= self.order
        )

    # -- constructors

    @classmethod
    def zero(cls, genus: int, order: int) -> "QuarterSeries":
        return cls(genus, order, {})

    @classmethod
    def one(cls, genus: int, order: int) -> "QuarterSeries":
        key = 0 if genus == 1 else (0, 0, 0)
        return cls(genus, order, {key: ONE})

    @classmethod
    def _unchecked(cls, genus: int, order: int, coeffs: dict) -> "QuarterSeries":
        """A series from nonzero GaussInt coefficients at indices that fit order."""
        out = cls.__new__(cls)
        out.genus, out.order, out.coeffs = genus, order, coeffs
        return out

    # -- basic queries

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, key) -> GaussInt:
        return self.coeffs.get(key, GaussInt(0, 0))

    def truncate(self, order: int) -> "QuarterSeries":
        if order >= self.order:
            return QuarterSeries(self.genus, order, dict(self.coeffs))
        if self.genus == 1:
            kept = {e: c for e, c in self.coeffs.items() if e <= order}
        else:
            kept = {e: c for e, c in self.coeffs.items() if e[0] + e[2] <= order}
        return QuarterSeries(self.genus, order, kept)

    def scale(self, factor) -> "QuarterSeries":
        factor = _as_gauss(factor)
        return QuarterSeries(
            self.genus, self.order, {k: factor * v for k, v in self.coeffs.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, QuarterSeries):
            return NotImplemented
        return (
            self.genus == other.genus
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.genus, self.order, frozenset(self.coeffs.items())))

    def __repr__(self):
        n = len(self.coeffs)
        return f"QuarterSeries(genus={self.genus}, order={self.order}, {n} terms)"

    # -- evaluation

    def evaluate(self, tau) -> complex:
        """Numeric value at tau (complex scalar for genus 1, 2x2 for genus 2)."""
        quarter = cmath.pi * 1j / 4
        if self.genus == 1:
            t = complex(tau)
            return sum(
                c.to_complex() * cmath.exp(quarter * e * t)
                for e, c in self.coeffs.items()
            )
        t1, t2, t3 = complex(tau[0][0]), complex(tau[0][1]), complex(tau[1][1])
        total = 0j
        for (e1, e2, e3), c in self.coeffs.items():
            total += c.to_complex() * cmath.exp(quarter * (e1 * t1 + e2 * t2 + e3 * t3))
        return total


def series_add(a: QuarterSeries, b: QuarterSeries,
               order: int | None = None) -> QuarterSeries:
    """Exact sum of two series of equal genus, truncated to order."""
    order = _result_order(a, b, order, "sum")
    out = dict(a.truncate(order).coeffs)
    for key, val in b.truncate(order).coeffs.items():
        out[key] = out.get(key, GaussInt(0, 0)) + val
    return QuarterSeries(a.genus, order, out)


def series_mul(a: QuarterSeries, b: QuarterSeries,
               order: int | None = None) -> QuarterSeries:
    """Exact truncated product of two series of equal genus.

    Every series product in the package goes through here.  Genus 1 runs
    the schoolbook loop for small products and Kronecker substitution for
    larger ones; genus 2 runs an int64 numpy kernel whenever its overflow
    bound holds, and the schoolbook loop otherwise.
    """
    order = _result_order(a, b, order, "product")
    if a.genus == 1:
        if len(a.coeffs) * len(b.coeffs) <= _SCHOOLBOOK_PAIRS_PER_INDEX * (order + 1):
            terms = [[(e, e, c) for e, c in s.coeffs.items()] for s in (a, b)]
            return QuarterSeries(1, order, _mul_schoolbook(*terms, order))
        return _mul_genus1_packed(a, b, order)
    return _mul_genus2(a, b, order)


def _result_order(a: QuarterSeries, b: QuarterSeries, order: int | None,
                  what: str) -> int:
    if a.genus != b.genus:
        raise ValueError(f"genus mismatch: {a.genus} vs {b.genus}")
    if order is None:
        return min(a.order, b.order)
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > min(a.order, b.order):
        raise ValueError(f"{what} not valid beyond the smaller input order")
    return order


# The schoolbook loop costs about one microsecond per coefficient pair, and
# Kronecker substitution about five per output index up to order.  Genus-1
# products with at most this many pairs per output index run the loop.
_SCHOOLBOOK_PAIRS_PER_INDEX = 5


def _mul_schoolbook(small: list, big: list, order: int) -> dict:
    """Exact product of two term lists [(index, degree, coeff)], as a dict.

    Indices add under multiplication, and a pair is kept when its degrees
    sum to at most order.  Coefficients are exact Python integers.
    """
    big = sorted(big, key=lambda term: term[1])
    out: dict = {}
    for k1, d1, c1 in small:
        room = order - d1
        for k2, d2, c2 in big:
            if d2 > room:
                break
            k = k1 + k2
            prev = out.get(k)
            out[k] = c1 * c2 if prev is None else prev + c1 * c2
    return out


def _mul_genus1_packed(a: QuarterSeries, b: QuarterSeries,
                       order: int) -> QuarterSeries:
    """Dense genus-1 product via big-integer packing (Kronecker substitution)."""
    are, aim = _coeff_arrays(a, order)
    bre, bim = _coeff_arrays(b, order)
    # No output field of a real convolution exceeds the number of terms of a
    # times the largest parts of a and b, so fields of `bits` bits never carry.
    bound = min(order + 1, max(len(a.coeffs), 1)) * _max_abs(are, aim) * _max_abs(bre, bim)
    bits = 8 * ((bound.bit_length() + 7) // 8)
    apacks = [_pack_signed(v, bits) for v in (are, aim)]
    bpacks = [_pack_signed(v, bits) for v in (bre, bim)]
    (rr, ri), (ir, ii) = [[_conv(x, y, bits, order) for y in bpacks] for x in apacks]
    out = {}
    for e in range(order + 1):
        re = rr[e] - ii[e]
        im = ri[e] + ir[e]
        if re or im:
            out[e] = GaussInt(re, im)
    return QuarterSeries._unchecked(1, order, out)


def _coeff_arrays(s: QuarterSeries, order: int):
    re = [0] * (order + 1)
    im = [0] * (order + 1)
    for e, c in s.coeffs.items():
        if e <= order:
            re[e] = c.re
            im[e] = c.im
    return re, im


def _max_abs(*arrays) -> int:
    m = 1
    for arr in arrays:
        for v in arr:
            if abs(v) > m:
                m = abs(v)
    return m


def _pack(arr: list[int], bits: int) -> int:
    """sum(arr[k] << (bits * k)) for nonnegative arr[k] < 2**bits, bits % 8 == 0."""
    width = bits // 8
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in arr), "little")


def _unpack(n: int, bits: int, count: int) -> list[int]:
    """The lowest count fields of n, each bits wide, bits % 8 == 0."""
    width = bits // 8
    data = (n & ((1 << (bits * count)) - 1)).to_bytes(width * count, "little")
    return [int.from_bytes(data[k:k + width], "little")
            for k in range(0, width * count, width)]


def _pack_signed(arr: list[int], bits: int) -> tuple[int, int]:
    """The packed positive and negative parts of arr."""
    return (_pack([max(v, 0) for v in arr], bits),
            _pack([max(-v, 0) for v in arr], bits))


def _conv(a: tuple[int, int], b: tuple[int, int], bits: int, order: int) -> list[int]:
    """Exact integer convolution of two packed signed arrays, truncated to
    indices <= order."""
    (apos, aneg), (bpos, bneg) = a, b
    plus = _unpack(apos * bpos + aneg * bneg, bits, order + 1)
    minus = _unpack(apos * bneg + aneg * bpos, bits, order + 1)
    return [x - y for x, y in zip(plus, minus)]


# Pairs formed between two reductions of the genus-2 kernel, which bounds
# its working memory to about a megabyte beyond the output.
_CHUNK_PAIRS = 1 << 14
_INT64_SAFE = 1 << 62


def _mul_genus2(a: QuarterSeries, b: QuarterSeries, order: int) -> QuarterSeries:
    """Genus-2 product on int64 arrays, exact under a proven bound.

    Each exponent triple is encoded as one integer index, linear in the
    triple, so that indices add under multiplication.  Every product
    triple lies in a box read off the inputs (e2 may be negative), and its
    index is its position in that box.

    For a fixed term of the smaller series, distinct terms of the larger
    one give distinct product triples.  So every product, and every partial
    sum of an output coefficient, is at most l1(small) * linf(big) in
    absolute value, where a coefficient measures |re| + |im|.  With that
    bound and the box size below 2**62, and the exponents and the order
    below 2**60, nothing overflows int64; otherwise the exact schoolbook
    loop runs on the same indices.
    """
    small, big = (a, b) if len(a.coeffs) <= len(b.coeffs) else (b, a)
    if not small.coeffs:
        return QuarterSeries.zero(2, order)
    boxes = [[(min(col), max(col)) for col in zip(*s.coeffs)] for s in (small, big)]
    lows = [ls + lb for (ls, _), (lb, _) in zip(*boxes)]
    highs = [hs + hb for (_, hs), (_, hb) in zip(*boxes)]
    w1, w2, w3 = (hi - lo + 1 for lo, hi in zip(lows, highs))
    size = sum(abs(c.re) + abs(c.im) for c in small.coeffs.values()) * max(
        abs(c.re) + abs(c.im) for c in big.coeffs.values())
    exponents = [order, *lows, *highs, *(v for box in boxes for lh in box for v in lh)]
    fits = max(size, w1 * w2 * w3, 4 * max(map(abs, exponents))) < _INT64_SAFE

    def encode(e1, e2, e3, box):
        return ((e1 - box[0][0]) * w2 + (e2 - box[1][0])) * w3 + (e3 - box[2][0])

    if not fits:
        terms = [[(encode(*e, box), e[0] + e[2], c) for e, c in s.coeffs.items()]
                 for s, box in zip((small, big), boxes)]
        out = {}
        for k, c in _mul_schoolbook(*terms, order).items():
            rest, e3 = divmod(k, w3)
            e1, e2 = divmod(rest, w2)
            out[(e1 + lows[0], e2 + lows[1], e3 + lows[2])] = c
        return QuarterSeries(2, order, out)

    def arrays(s, box):
        e = np.array(list(s.coeffs), dtype=np.int64)
        vals = list(s.coeffs.values())
        return (encode(e[:, 0], e[:, 1], e[:, 2], box), e[:, 0] + e[:, 2],
                np.array([c.re for c in vals], dtype=np.int64),
                np.array([c.im for c in vals], dtype=np.int64))

    sidx, sdeg, sre, sim = arrays(small, boxes[0])
    big_arrays = arrays(big, boxes[1])
    perm = np.argsort(big_arrays[1], kind="stable")
    bidx, bdeg, bre, bim = (x[perm] for x in big_arrays)
    # big is sorted by degree, so the partners of each small term are a prefix
    room = np.searchsorted(bdeg, order - sdeg, side="right")
    empty = np.zeros(0, dtype=np.int64)
    acc, chunk, pending = (empty, empty, empty), [], 0
    for k, n, cr, ci in zip(sidx.tolist(), room.tolist(), sre.tolist(), sim.tolist()):
        if not n:
            continue
        r, i = bre[:n], bim[:n]
        chunk.append((bidx[:n] + k, cr * r - ci * i, cr * i + ci * r))
        pending += n
        if pending >= _CHUNK_PAIRS:
            acc, chunk, pending = _sum_equal_keys([acc, *chunk]), [], 0
    keys, re, im = _sum_equal_keys([acc, *chunk])
    keep = (re != 0) | (im != 0)
    keys, re, im = keys[keep], re[keep], im[keep]
    rest, e3 = np.divmod(keys, w3)
    e1, e2 = np.divmod(rest, w2)
    triples = zip((e1 + lows[0]).tolist(), (e2 + lows[1]).tolist(), (e3 + lows[2]).tolist())
    return QuarterSeries._unchecked(2, order, {
        t: GaussInt(r, i) for t, r, i in zip(triples, re.tolist(), im.tolist())})


def _sum_equal_keys(parts: list) -> tuple:
    """Sorted unique keys of the (keys, re, im) parts, with values summed."""
    keys, re, im = (np.concatenate([part[j] for part in parts]) for j in range(3))
    if not keys.size:
        return keys, re, im
    perm = np.argsort(keys)
    keys = keys[perm]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(re[perm], starts), np.add.reduceat(im[perm], starts)


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
    def zero(cls) -> "IntPolynomial":
        return cls([0])

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

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return self.degree() == -1

    def substitute_scaled(self, factor: int) -> "IntPolynomial":
        """T -> factor * T, exactly."""
        return IntPolynomial([c * factor ** k for k, c in enumerate(self.coeffs)])

    def __call__(self, t: complex) -> complex:
        total = 0j
        for c in reversed(self.coeffs):
            cval = c.to_complex() if isinstance(c, GaussInt) else complex(c)
            total = total * t + cval
        return total

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"
