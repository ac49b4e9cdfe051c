"""Operations and their oracles, one list per workload.

An operation is one timed call into the package followed by checks whose
expected outcome is known independently: an exact closed form computed
here, an agreement between independent constructions, or a verdict
recorded from the seed commit (expected.json).  Each operation returns the
number of its checks that failed; an exception fails all of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np

from inputs import FZ_ORBIT

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# tolerances of the verify suites (cli.suite_theta_table, cli.suite_ez)
THETA_TOL = 1e-8
EZ_TOL = 1e-6
STABILIZER_NAMES = ("e1e4", "e1e6", "e1e9^2", "e8^2e3", "e2e10^2")
# the stabilizer generator on which E_Z carries the character -1
ANTI_INVARIANT = "e1e6"
# the lattice-sum conventions the package resolves: (pairing, scale, z2 sign)
EZ_CONVENTION = ("conj", 1, "x2+y2")


class Op(NamedTuple):
    name: str
    run: Callable[[], int]
    checks: int


class OpRecord(NamedTuple):
    name: str
    seconds: float
    checks: int
    failed: int


def load_expected() -> dict:
    with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
        return json.load(fh)


def run_ops(ops: list[Op], errors: list[str], pauses=None) -> list[OpRecord]:
    """Run every operation, timing each one; failures are counted, never raised.

    `pauses`, when given, has a `spent_s` that grows by the time spent in
    work interleaved with the operations (the calibration kernel), which is
    excluded from their times."""
    records = []
    for op in ops:
        paused0 = pauses.spent_s if pauses is not None else 0.0
        t0 = time.perf_counter()
        try:
            failed = op.run()
        except Exception as exc:  # a failing operation must not stop the job
            failed = op.checks
            errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        if pauses is not None:
            seconds -= pauses.spent_s - paused0
        records.append(OpRecord(op.name, seconds, op.checks,
                                min(max(int(failed), 0), op.checks)))
    return records


def build_ops(workload: str, inputs: dict, scratch_dir: str) -> list[Op]:
    if workload == "verify-all":
        return _verify_all(inputs, scratch_dir)
    if workload == "series-deep":
        return _series_deep(inputs)
    if workload == "lattice-numeric":
        return _lattice_numeric(inputs)
    if workload == "exact-sweep":
        return _exact_sweep(inputs)
    raise ValueError(f"unknown workload {workload!r}")


def _misses(*oks) -> int:
    return sum(1 for ok in oks if not ok)


def _char(s: str) -> tuple:
    return tuple(int(c) for c in s)


# ---------------------------------------------------------------------------
# verify-all

def verdict_failures(reports: list, expected: list) -> int:
    """Claims whose (suite, claim, status) differs from the expected list,
    counting missing and extra claims."""
    got = [[r["suite"], r["claim"], r["status"]] for r in reports]
    failed = abs(len(got) - len(expected))
    return failed + sum(1 for g, e in zip(got, expected) if g != e)


def _verify_all(inputs: dict, scratch_dir: str) -> list[Op]:
    from siegelz import cli

    expected = load_expected()["verify_all"]
    out = os.path.join(scratch_dir, f"verify-all-{os.getpid()}.json")

    def op():
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(list(inputs["argv"]) + ["--out", out])
            with open(out) as fh:
                reports = json.load(fh)["reports"]
        finally:
            if os.path.exists(out):
                os.remove(out)
        return verdict_failures(reports, expected)

    return [Op("cli.main", op, len(expected))]


# ---------------------------------------------------------------------------
# series-deep

def _series_deep(inputs: dict) -> list[Op]:
    from siegelz import cmform, theta
    from siegelz.arith import QuarterSeries, series_mul

    ops = []
    for spec in inputs["ops"]:
        kind = spec[0]
        if kind == "newform":
            def op(order=inputs["newform_order"], sources=inputs["newform_sources"]):
                built = [cmform.g_expansion(src, order) for src in sources]
                return _misses(*(a.agrees_with(b, order)
                                 for k, a in enumerate(built) for b in built[k + 1:]))
            ops.append(Op("newform", op, 3))
        elif kind == "hecke":
            def op(p=spec[1], order=spec[2]):
                return _misses(cmform.hecke_Tp_check(p, order).a == {})
            ops.append(Op("hecke", op, 1))
        elif kind == "member":
            def op(ms=tuple(_char(m) for m in spec[1]), order=inputs["member_order"]):
                return _misses(theta.phi_after_g0(theta.six_tuple_expansion(ms, order)).is_zero())
            ops.append(Op("member", op, 1))
        elif kind == "fz_phi":
            def op(order=inputs["fz_order"]):
                phi = theta.phi_after_g0(theta.fz_expansion(order))
                target = QuarterSeries.one(1, order)
                for m in ((0, 0), (0, 1), (1, 0)):
                    t = theta.theta_expansion(m, order)
                    target = series_mul(target, series_mul(t, t))
                return _misses(phi == target)
            ops.append(Op("fz_phi", op, 1))
        else:
            raise ValueError(f"unknown series-deep operation {kind!r}")
    return ops


# ---------------------------------------------------------------------------
# lattice-numeric

def word_matrix(word: list) -> np.ndarray:
    """Product, left to right, of the level-(4,8) translation factors."""
    from siegelz.theta import translation

    M = np.eye(4, dtype=np.int64)
    for kind, b in word:
        t = translation(b)
        M = M @ (t if kind == "U" else t.T)
    return M


def gamma2_matrix(word: list) -> np.ndarray:
    from siegelz.theta import E_GENERATORS

    M = np.eye(4, dtype=np.int64)
    for i in word:
        M = M @ E_GENERATORS[i - 1]
    return M


def period_matrix(point: list) -> np.ndarray:
    from siegelz.theta import siegel_point

    t1, t2, t3 = (complex(re, im) for re, im in point)
    return siegel_point(t1, t2, t3)


def _lattice_numeric(inputs: dict) -> list[Op]:
    from siegelz import soudry, theta

    evens = theta.even_characteristics(2)
    gamma2 = [gamma2_matrix(w) for w in inputs["gamma2_words"]]
    group = [(f"g48[{k}]", word_matrix(w), True) for k, w in enumerate(inputs["gamma48_words"])]
    group += [(name, g, False) for name, g in zip(STABILIZER_NAMES, theta.gammaZ_generators())]

    def convention():
        # first, so that no E_Z check is charged for resolving the conventions
        conv = soudry.resolve_ez_convention()
        return _misses(*(got == want for got, want in
                         zip((conv.pairing, conv.scale, conv.z2_sign), EZ_CONVENTION)))

    ops = [Op("convention", convention, 3)]
    for point in inputs["points"]:
        tau = period_matrix(point)
        for M in gamma2:
            def op(M=M, tau=tau):
                r = theta.verify_igusa_transformation(evens, M, tau, 1e-13)
                return _misses(r < THETA_TOL)
            ops.append(Op("igusa", op, 1))
        for name, g, level48 in group:
            def op(g=g, tau=tau, level48=level48):
                gtau = theta.apply_moebius(g, tau)
                detj = complex(np.linalg.det(theta.cocycle(g, tau)))
                r = abs(theta.fz_eval(gtau, 1e-13) / detj ** 3 - theta.fz_eval(tau, 1e-13))
                return _misses(r < THETA_TOL, not level48 or theta.in_gamma48(g))
            ops.append(Op("fz", op, 2))
        for name, g, _ in group:
            if name == ANTI_INVARIANT:
                def op(g=g, tau=tau):
                    r = soudry.ez_two_form_check(g, tau, 1e-8)
                    pulled = soudry.two_form_pullback(g, tau, 1e-9)
                    h = soudry.ez_eval(tau, 1e-9)
                    minus = float(np.abs(pulled + np.array([h.h0, h.h1, h.h2])).max())
                    return _misses(r >= EZ_TOL, minus < EZ_TOL)
                ops.append(Op("ez", op, 2))
            else:
                def op(g=g, tau=tau):
                    return _misses(soudry.ez_two_form_check(g, tau, 1e-8) < EZ_TOL)
                ops.append(Op("ez", op, 1))
    return ops


# ---------------------------------------------------------------------------
# exact-sweep: oracles computed here, independently of the package

def chi(d: int, p: int) -> int:
    """The quadratic characters chi_-1, chi_2 and chi_-2 at an odd prime."""
    minus1 = 1 if p % 4 == 1 else -1
    two = 1 if p % 8 in (1, 7) else -1
    return {-1: minus1, 2: two, -2: minus1 * two}[d]


def newform_ap(p: int) -> int:
    """a_p of the weight-3 CM newform: 0 at p = 3 mod 4, else 2(x^2 - y^2)
    for p = x^2 + y^2 with x odd."""
    if p % 4 == 3:
        return 0
    for x in range(1, p, 2):
        y = round((p - x * x) ** 0.5) if p > x * x else -1
        if y >= 0 and x * x + y * y == p:
            return 2 * (x * x - y * y)
    raise ValueError(f"{p} is not a sum of two squares")


def diagonal_quartic_count(signs: tuple, p: int) -> int:
    """Projective F_p points of sum_i signs[i] x_i^4 = 0, by convolving the
    value distribution of x^4 over F_p."""
    fourth = defaultdict(int)
    for x in range(p):
        fourth[pow(x, 4, p)] += 1
    dist = {0: 1}
    for s in signs:
        nxt = defaultdict(int)
        for total, k in dist.items():
            for v, m in fourth.items():
                nxt[(total + s * v) % p] += k * m
        dist = nxt
    return (dist.get(0, 0) - 1) // (p - 1)


def fermat_surface(p: int) -> int:
    return diagonal_quartic_count((1, -1, 1, -1), p)


def closed_form(variety: str, p: int) -> int:
    """Point counts predicted from |F(F_p)| of the Fermat quartic surface."""
    f = fermat_surface(p)
    c = chi(-1, p)
    return {
        "FermatSurface": f,
        "FermatCurve": diagonal_quartic_count((1, -1, 1), p),
        "ConeF": p * f + 1,
        "Zsatake": (p - 1) * f + 2 * p + 2,
        "Ztilde": (p + 1) * f,
        "U1c": f + 4 * p * p - 4 * p + 1 + (4 * p * p - 6 * p + 2) * c,
        "U2c": 4 * p * p - 2 * p + 2 + (4 * p * p - 6 * p + 2) * c,
    }[variety]


def fermat_trace(p: int) -> int:
    """|F(F_p)| = 1 + p^2 + (9 + 7chi_-1 + 2chi_2 + 2chi_-2)p + a_p."""
    return 1 + p * p + (9 + 7 * chi(-1, p) + 2 * chi(2, p) + 2 * chi(-2, p)) * p + newform_ap(p)


def _exact_sweep(inputs: dict) -> list[Op]:
    from siegelz import cmform, lfactors, pointcount, theta

    lines = load_expected()["boundary_lines"]
    ops = []
    for spec in inputs["ops"]:
        kind, args = spec[0], spec[1:]
        if kind == "count":
            variety, p = args
            method = "charsum" if variety in ("Zsatake", "U2c") else "naive"

            def op(variety=variety, p=p, method=method):
                n = pointcount.count_variety(variety, p, method)
                return _misses(n == closed_form(variety, p),
                               variety != "FermatSurface" or n == fermat_trace(p))
            ops.append(Op(f"count.{method}", op, 2))
        elif kind == "zsatake_naive":
            def op(p=args[0]):
                naive = pointcount.count_variety("Zsatake", p, "naive")
                charsum = pointcount.count_variety("Zsatake", p, "charsum")
                return _misses(naive == charsum, naive == closed_form("Zsatake", p))
            ops.append(Op("count.naive", op, 2))
        elif kind == "formulas":
            def op(p=args[0]):
                res = pointcount.verify_count_formulas(p, cmform.a_p(p))["residuals"]
                return _misses(len(res) == 8, *(v == 0 for v in res.values()))
            ops.append(Op("formulas", op, 9))
        elif kind == "birational":
            def op(p=args[0]):
                return _misses(pointcount.verify_birational_map(p)["bijective"])
            ops.append(Op("birational", op, 1))
        elif kind == "lines":
            def op(p=args[0], rational=args[1]):
                got = pointcount.verify_boundary_lines(p, rational)
                want = {k: v for k, v in lines.items() if not rational or k[:2] in
                        ("L4", "L5", "L6") or k[0] == "l"}
                return _misses(got == want)
            ops.append(Op("lines", op, 1))
        elif kind == "h2":
            def op(p=args[0]):
                h = lfactors.h2_lpoly(p)
                trace = (8 + 7 * chi(-1, p) + 2 * chi(2, p) + 2 * chi(-2, p)) * p + newform_ap(p)
                return _misses(h.degree() == 21, h.poly[1] == -trace)
            ops.append(Op("h2", op, 2))
        elif kind == "lefschetz":
            def op(p=args[0]):
                return _misses(lfactors.lefschetz_check(p) == 0)
            ops.append(Op("lefschetz", op, 1))
        elif kind == "spin":
            def op(p=args[0]):
                residual, info = lfactors.spin_identity_check(p)
                return _misses(residual.is_zero(), info["delta_matches_nebentypus"])
            ops.append(Op("spin", op, 2))
        elif kind == "orbits":
            def op():
                orbits = theta.orbit_decomposition()
                fz = frozenset(theta.FZ_TUPLE)
                mine = next((o for o in orbits if fz in o), set())
                want = {frozenset(_char(m) for m in member) for member in FZ_ORBIT}
                return _misses(len(orbits) == 3, sum(len(o) for o in orbits) == 210, mine == want)
            ops.append(Op("orbits", op, 3))
        elif kind == "slash":
            def op(i=args[0], m1=_char(args[1]), m2=_char(args[2])):
                t = theta.slash_character_exact((m1, m2), theta.E_GENERATORS[i - 1])
                return _misses(theta.character_as_gauss(t) == theta.table1_char(m1, m2, i))
            ops.append(Op("slash", op, 1))
        elif kind == "pair":
            def op(i=args[0], m1=_char(args[1]), m2=_char(args[2])):
                t = theta.pair_character_any_parity(m1, m2, theta.E_GENERATORS[i - 1])
                want = theta.table1_char(m1, m2, i)
                # mixed-parity pairs pick up -1 at the central element e5
                if i == 5 and theta.parity(m1) != theta.parity(m2):
                    want = -want
                return _misses(theta.character_as_gauss(t) == want)
            ops.append(Op("pair", op, 1))
        else:
            raise ValueError(f"unknown exact-sweep operation {kind!r}")
    return ops
