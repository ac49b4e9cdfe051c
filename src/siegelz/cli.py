"""Command-line verification driver.

Each suite runs one family of checks and emits machine-readable reports
tying every result to the claim it tests.  Exit code 0 means every
claimed identity passed at its tolerance; measured-only entries (values
the source leaves open) never affect the exit code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import arith, cmform, lfactors, pointcount, soudry, theta

SCHEMA = "siegelz-report/1"

# the order of ez's phi match, which needs at least 20 shared terms
EZ_PHI_ORDER = 260


@dataclass
class RunConfig:
    prime_list: list = field(default_factory=lambda: [3, 5, 7, 11, 13])
    series_order: int = 200
    numeric_tol: float = 1e-8
    output_path: str | None = None
    selected_suites: list = field(default_factory=lambda: ["all"])

    def validate(self):
        # an empty list would drop the per-prime claims without a word
        if not self.prime_list:
            raise ValueError("the prime list is empty")
        # a repeat would run and count its per-prime claims twice
        if len(set(self.prime_list)) < len(self.prime_list):
            raise ValueError("the prime list repeats a prime")
        # the tightest cap of the counts the selected suites read
        cap, what = min((_PRIME_CAPS[s] for s in self.suites() if s in _PRIME_CAPS),
                        default=(math.inf, None))
        for p in self.prime_list:
            if p % 2 == 0 or not arith.is_prime(p):
                raise ValueError(f"prime list entry {p} is not an odd prime")
            if p > cap:
                raise ValueError(f"prime {p} exceeds {what} ({cap})")
        if self.series_order < 1:
            raise ValueError("series order must be positive")
        # inf would pass every numeric claim, nan fail them all
        if not 0 < self.numeric_tol < math.inf:
            raise ValueError("the numeric tolerance must be positive and finite")
        for s in self.selected_suites:
            if s != "all" and s not in SUITES:
                raise ValueError(f"unknown suite {s!r}")
        # else the report could not be written until every suite had run;
        # checked without creating or truncating the file
        if self.output_path:
            if os.path.isdir(self.output_path):
                raise ValueError(f"the report path {self.output_path!r} is a directory")
            if not os.path.isdir(os.path.dirname(os.path.abspath(self.output_path))):
                raise ValueError(f"the directory of the report path {self.output_path!r} "
                                 "does not exist")

    def suites(self) -> list:
        """The names of the suites to run, in order."""
        return list(SUITES) if "all" in self.selected_suites else self.selected_suites


@dataclass
class VerificationReport:
    suite: str
    claim: str
    status: str           # pass | fail | measured
    residual: float | None
    runtime: float
    details: dict


class _Claims(list):
    """The reports of one suite.  Each ``add`` is timed on the monotonic
    ``time.perf_counter`` clock from the previous one, or from the suite's
    start, so every statement of a suite is charged to the claim it leads to."""

    def __init__(self, suite: str):
        super().__init__()
        self.suite = suite
        self._mark = time.perf_counter()

    def add(self, claim: str, ok, residual=None, **details):
        """Record a claim; ``ok=None`` records a measured value."""
        now = time.perf_counter()
        status = "measured" if ok is None else "pass" if ok else "fail"
        self.append(VerificationReport(self.suite, claim, status, residual,
                                       round(now - self._mark, 3), details))
        self._mark = now


# ---------------------------------------------------------------------------
# suites
#
# Each runner takes the run's config and a dict shared by the suites of one
# run(), which holds results that more than one suite reads.

def _count_formulas(shared: dict, p: int) -> dict:
    """``verify_count_formulas`` at p, evaluated once per run()."""
    key = ("count_formulas", p)
    if key not in shared:
        shared[key] = pointcount.verify_count_formulas(p, cmform.a_p(p))
    return shared[key]


def suite_counts(cfg: RunConfig, shared: dict):
    out = _Claims("counts")
    f3 = pointcount.count_variety("FermatSurface", 3)
    out.add("|F(F_3)| = 16", f3 == 16, abs(f3 - 16), count=f3)
    for p in cfg.prime_list:
        rep = _count_formulas(shared, p)
        res = rep["residuals"]
        keys = ("cone", "satake", "resolution", "u1_complement", "u2_complement",
                "slice_x0_zero", "slice_x3_zero")
        worst = max(abs(res[k]) for k in keys)
        out.add("|Cone| = p|F|+1, |Z| = (p-1)|F|+2p+2, |Ztilde| = (p+1)|F|, complements",
                worst == 0, float(worst), p=p, counts=rep["counts"],
                residuals={k: res[k] for k in keys})
    for p in (3, 5, 7):
        naive = pointcount.count_variety("Zsatake", p, "naive")
        charsum = pointcount.count_variety("Zsatake", p, "charsum")
        out.add("naive and character-sum counts agree on Z", naive == charsum,
                abs(naive - charsum), p=p, naive=naive, charsum=charsum)
    bij = pointcount.verify_birational_map(3)
    out.add("coordinate map is a bijection U1 -> U2", bij["bijective"], **bij)
    return out


def suite_fermat(cfg: RunConfig, shared: dict):
    out = _Claims("fermat")
    for p in cfg.prime_list:
        rep = _count_formulas(shared, p)
        r = rep["residuals"]["fermat_corrected"]
        out.add("|F(F_p)| = 1 + p^2 + (9 + 7chi_-1 + 2chi_2 + 2chi_-2)p + a_p",
                r == 0, float(abs(r)), p=p, a_p=cmform.a_p(p),
                measured_trace=rep["measured_frobenius_trace"])
    rep3 = _count_formulas(shared, 3)
    out.add("Frobenius trace on the transcendental part at p = 3", None,
            measured=rep3["measured_frobenius_trace"],
            note="the uncorrected closed form would force trace -6 here")
    return out


def suite_g_triple(cfg: RunConfig, shared: dict):
    out = _Claims("g-triple")
    order = cfg.series_order
    ga = cmform.g_expansion("theta_product", order)
    gb = cmform.g_expansion("gauss_sum", order)
    gc = cmform.g_expansion("hecke_character", order)
    ok = ga.agrees_with(gb, order) and ga.agrees_with(gc, order)
    out.add("theta-product, lattice-sum, and Hecke expansions agree",
            ok, 0.0 if ok else 1.0, order=order,
            gauss_convention={
                "kernel": "zbar_sq", "sign": "parity_int_shift",
                "tied_with": "kernel ix_plus_y_sq, the identical series",
            })
    # the eigenvalues read off the built theta product, where they can break
    # the bounds, and tied to the a_p the counting suites use; with no inert
    # prime read, the first conjunct fails instead of holding vacuously
    primes = arith.odd_primes(order)
    read = [ga.coeff(p) for p in primes]
    # support (and same) already force a_p = 0 at every inert prime read
    cm = any(p % 4 == 3 for p in primes)
    weil = all(abs(v) <= 2 * p for p, v in zip(primes, read))
    same = read == [cmform.a_p(p) for p in primes]
    support = all(n % 4 == 1 for n, v in ga.a.items() if v)
    out.add("a_p = 0 at inert primes, |a_p| <= 2p, CM support",
            cm and weil and same and support, primes=primes)
    return out


def suite_hecke(cfg: RunConfig, shared: dict):
    out = _Claims("hecke")
    check_order = 24
    primes = arith.odd_primes(50)
    # one build holds every coefficient the checks read; the first report's
    # runtime includes it
    g = cmform.g_expansion("theta_product", check_order * max(primes))
    for p in primes:
        res = cmform.hecke_residual(g, p, check_order)
        out.add("T_p g = a_p g", not res.a, 0.0 if not res.a else 1.0,
                p=p, a_p=cmform.a_p(p), order=check_order)
    return out


_UNITS = np.array([1, 1j, -1, -1j])  # i^k at k mod 4


def suite_theta_table(cfg: RunConfig, shared: dict):
    out = _Claims("theta-table")
    tol = cfg.numeric_tol
    evens = theta.even_characteristics(2)
    pts = np.stack([theta.siegel_point(2j, 0, 2j), theta.siegel_point(2j, 0.5j, 2j)])

    # each claim's samples as one stack: one lattice pass for the images
    words = np.stack(theta.random_gamma2_elements(20, seed=1))
    squared, tup = theta.igusa_residuals(evens, words[:, None], pts, 1e-13)
    checked = tup[~np.isnan(tup)]
    worst = max(float(squared.max()), float(checked.max(initial=0.0)))
    out.add("squared transformation law over the level-2 group", worst < tol, worst,
            matrices=len(words), points=len(pts), tuple_checks=len(checked))

    tau = theta.siegel_point(1.9j + 0.2, 0.4j + 0.1, 2.3j - 0.15)
    # the closed form against the exact characters of the table, in eighths,
    # and against the numeric slash ratios of the 45 even pairs: tau and its
    # ten images are one lattice pass, the ten tables one table pass
    first, second = np.array(list(itertools.combinations(range(10), 2))).T
    pairs = np.array(evens)[np.stack([first, second], 1)]
    gens = np.stack(theta.E_GENERATORS)
    th = theta.theta_values(evens, np.concatenate([tau[None], theta.apply_moebius(gens, tau)]),
                            1e-13)
    th_0, th_m = th[0], th[1:]
    detj = np.linalg.det(theta.cocycle(gens, tau))
    closed = np.stack([theta.table1_eighths(pairs, i) for i in range(1, len(gens) + 1)])
    ratio = th_m[:, first] * th_m[:, second] / (th_0[first] * th_0[second] * detj[:, None])
    worst = float(np.abs(ratio - _UNITS[closed // 2]).max())
    exact_ok = np.array_equal(theta.character_eighths(pairs, gens), closed)
    out.add("pair characters on the ten generators (45 even pairs)",
            worst < tol and exact_ok, worst)

    allchars = np.array(list(itertools.product((0, 1), repeat=4)))
    pairs = allchars[np.array(list(itertools.combinations(range(16), 2)))]
    mixed = np.not_equal(*(pairs[:, :, :2] * pairs[:, :, 2:]).sum(2).T % 2)
    differ = theta.character_eighths(pairs, gens) != np.stack(
        [theta.table1_eighths(pairs, i) for i in range(1, len(gens) + 1)])
    # e5, the central element, in row 4
    mixed_bad = int((differ[4] & mixed).sum())
    differ[4] &= ~mixed
    out.add("pair characters extend to odd characteristics (via the genus-3 embedding)",
            not differ.any(), mixed_parity_sign_exceptions=mixed_bad,
            note="mixed-parity pairs pick up -1 at the central "
                 "element; equal-parity pairs agree everywhere")

    gammas = np.stack(theta.gammaZ_generators() + theta.random_gamma48_elements(10, seed=2))
    gtau = theta.apply_moebius(gammas[:, None], pts)
    detj = np.linalg.det(theta.cocycle(gammas[:, None], pts))
    worst = float(np.abs(theta.fz_eval(gtau, 1e-13) / detj ** 3
                         - theta.fz_eval(pts, 1e-13)).max())
    out.add("six-theta product is fixed by its stabilizer generators "
            "and the level-(4,8) group", worst < tol, worst)
    return out


def _orbit_found(orbit: frozenset) -> dict:
    """The detail that says why a claim over the other members of F_Z's
    orbit fails when F_Z's tuple lies in no orbit: with no members, the
    claim would otherwise hold vacuously."""
    return {} if orbit else {"orbit_found": False}


def suite_orbits(cfg: RunConfig, shared: dict):
    out = _Claims("orbits")
    orbits = theta.orbit_decomposition()
    sizes = sorted(len(o) for o in orbits)
    ok = len(orbits) == 3 and sum(sizes) == 210
    orbit = theta.fz_orbit()
    out.add("210 six-tuples split into 3 orbits; the six-theta orbit has 15 members",
            ok and len(orbit) == 15, orbits=len(orbits), sizes=sizes,
            fz_orbit_size=len(orbit))
    fz = frozenset(theta.FZ_TUPLE)
    exceptions = [
        sorted("".join(map(str, m)) for m in t)
        for t in orbit
        if t != fz and (1, 1, 1, 1) not in t and (1, 0, 0, 1) not in t
    ]
    out.add("every other orbit member contains the 1111 or 1001 theta",
            bool(orbit) and not exceptions, exceptions=exceptions, **_orbit_found(orbit),
            note="the exceptional member carries first-entry-1 "
                 "characteristics, so its degeneration still vanishes")
    return out


def suite_fz_phi(cfg: RunConfig, shared: dict):
    out = _Claims("fz-phi")
    order = cfg.series_order
    # exact: each factor degenerated in genus 2, then multiplied in genus 1
    phi = theta.phi_of_theta_product(theta.FZ_TUPLE, order)
    ok = phi == theta.six_tuple_expansion(theta.G_TUPLE, order)
    out.add("the degeneration of the six-theta product equals "
            "theta00^2 theta01^2 theta10^2 exactly", ok, 0.0 if ok else 1.0, order=order)

    # decided by the characteristics, with no series product
    orbit = theta.fz_orbit()
    killed = [theta.phi_characteristics(tup) is None
              for tup in orbit if tup != frozenset(theta.FZ_TUPLE)]
    out.add("the degeneration kills every other orbit member", bool(orbit) and all(killed),
            members=len(killed), **_orbit_found(orbit))

    tau1 = 0.3 + 0.9j
    t_aux = 8.0
    tau = np.array([[tau1, 0], [0, 1j * t_aux]], dtype=complex)
    # G0 tau and G2 tau as one stack of two, one theta pass; each point
    # keeps the bits of its single call, and the weights are Python complex
    gs = np.stack([theta.G0, theta.G2])
    fz = theta.fz_eval(theta.apply_moebius(gs, tau), 1e-13)
    dets = np.linalg.det(theta.cocycle(gs, tau))
    v0, v2 = (complex(d) ** -3 * complex(v) for d, v in zip(dets, fz))
    # an odd factor makes the product vanish at the probe, with no ratio
    ratio = v2 / v0 if v0 else None
    out.add("relation between the two degeneration twists", None,
            ratio=None if ratio is None else [ratio.real, ratio.imag],
            note="the two twists agree only up to a level-8 "
                 "substitution; the ratio at the probe point is recorded")
    return out


def suite_lfactors(cfg: RunConfig, shared: dict):
    out = _Claims("lfactors")
    for p in cfg.prime_list:
        h = lfactors.h2_lpoly(p)
        ok = h.degree() == 21 and h.poly[1] == -lfactors.trace_h2(p)
        gf = lfactors.euler_factor("g", p)
        ok = ok and abs(gf.poly[2]) == p * p
        out.add("degree-21 local factor with linear coefficient "
                "-(8 + 7chi_-1 + 2chi_2 + 2chi_-2)p - a_p",
                ok, p=p, trace=lfactors.trace_h2(p))
    return out


def suite_lefschetz(cfg: RunConfig, shared: dict):
    out = _Claims("lefschetz")
    for p in cfg.prime_list:
        r = lfactors.lefschetz_check(p)
        out.add("alternating cohomology trace equals the point count "
                "of the resolved threefold", r == 0, float(abs(r)), p=p)
    return out


def suite_spin(cfg: RunConfig, shared: dict):
    out = _Claims("spin")
    table = []
    worst_ok = True
    for p in arith.odd_primes(50):
        residual, info = lfactors.spin_identity_check(p)
        worst_ok = worst_ok and residual.is_zero() and info["delta_matches_nebentypus"]
        table.append({k: info[k] for k in ("p", "lambda1", "lambda2", "delta_inv",
                                           "chi_minus1")})
    out.add("the degree-4 eigenvalue quartic matches the product of "
            "the newform factor and its twist, odd p <= 50", worst_ok, solved=table)
    return out


def suite_ez(cfg: RunConfig, shared: dict):
    out = _Claims("ez")
    conv = soudry.resolve_ez_convention()
    out.add("resolved lattice-sum conventions", None,
            pairing=conv.pairing, scale=conv.scale,
            z2_sign=conv.z2_sign, tied_with="conj/1/1",
            tie_broken_by="the display's nontrivial z2 parity",
            resolved_by=conv.resolved_by)
    tol = cfg.numeric_tol
    # each claim's points as one stack; E_Z at the sample points is one pass
    pts = np.stack(soudry.EZ_SAMPLE_POINTS)
    words = np.stack(theta.random_gamma48_elements(10, seed=3, small_c=True))
    worst48 = float(soudry.ez_two_form_check(words[:, None], pts, 1e-13).max())
    out.add("2-form invariance under the level-(4,8) group", worst48 < tol, worst48,
            points=len(pts), samples=len(words))
    # the five generators as one stack: one pass for their images, charged to
    # the first generator's claim
    gens = np.stack(theta.gammaZ_generators())[:, None]
    worst = soudry.ez_two_form_check(gens, pts, 1e-13).max(-1)
    for k, (name, r) in enumerate(zip(theta.GAMMAZ_GENERATOR_NAMES, worst.tolist())):
        det = {}
        if r >= tol:
            # at the second sample point, from the passes the check made
            pulled = soudry.two_form_pullback(gens, pts, 1e-13)[k, 1]
            here = np.stack(soudry.ez_eval(pts, 1e-13), -1)[1]
            det["residual_against_minus"] = float(np.abs(pulled + here).max())
        out.add(f"2-form invariance under stabilizer generator {name}", r < tol, r, **det)
    m = soudry.ez_phi_match(max(EZ_PHI_ORDER, cfg.series_order))
    # a match with no scalar fails at any tol
    out.add("the first-component degeneration matches the six-theta image up to one scalar",
            m["scalar"] is not None and m["residual"] < tol and m["support_mod8"] == [2]
            and m["n_exponents"] >= 20,
            m["residual"], scalar=str(m["scalar"]), terms=m["n_exponents"])
    return out


SUITE_RUNNERS = {
    "counts": suite_counts,
    "fermat": suite_fermat,
    "g-triple": suite_g_triple,
    "hecke": suite_hecke,
    "theta-table": suite_theta_table,
    "orbits": suite_orbits,
    "fz-phi": suite_fz_phi,
    "lfactors": suite_lfactors,
    "lefschetz": suite_lefschetz,
    "spin": suite_spin,
    "ez": suite_ez,
}
SUITES = tuple(SUITE_RUNNERS)

# the counting cap of each suite whose per-prime claims count points: the
# closed forms of counts and fermat read the cone and U1c counts, lefschetz
# Ztilde's character sums; the other suites count nothing
_CONE_CAP = (pointcount.Z_CAP, "the cone and U1c counting cap")
_PRIME_CAPS = {"counts": _CONE_CAP, "fermat": _CONE_CAP,
              "lefschetz": (pointcount.SURFACE_CAP, "the character-sum counting cap")}


def run(cfg: RunConfig) -> tuple[list[VerificationReport], int]:
    cfg.validate()
    reports = []
    shared: dict = {}
    for name in cfg.suites():
        reports.extend(SUITE_RUNNERS[name](cfg, shared))
    failed = any(r.status == "fail" for r in reports)
    return reports, (1 if failed else 0)


# ---------------------------------------------------------------------------
# argument handling

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run exact and numeric cross-checks for the Siegel "
                    "threefold package; one subcommand per suite.",
    )
    parser.add_argument("suites", nargs="*", default=None,
                        help=f"suites to run: {', '.join(SUITES)}, or 'all'")
    defaults = RunConfig()
    parser.add_argument("--primes", default=",".join(map(str, defaults.prime_list)),
                        help="comma-separated odd primes (default %(default)s)")
    parser.add_argument("--order", type=int, default=defaults.series_order,
                        help="series truncation order (default %(default)s)")
    parser.add_argument("--tol", type=float, default=defaults.numeric_tol,
                        help="numeric tolerance (default %(default)s)")
    parser.add_argument("--out", help="path for the JSON report")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    suites = args.suites or ["all"]
    try:
        cfg = RunConfig(
            prime_list=[int(p) for p in args.primes.split(",") if p],
            series_order=args.order,
            numeric_tol=args.tol,
            output_path=args.out,
            selected_suites=suites,
        )
        cfg.validate()
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    reports, code = run(cfg)
    payload = {
        "schema": SCHEMA,
        "config": {
            "primes": cfg.prime_list,
            "order": cfg.series_order,
            "tol": cfg.numeric_tol,
            "suites": suites,
        },
        # shallow field dicts: json.dumps reads the details as they are, and
        # asdict's deep copies cost more than the whole dump
        "reports": [dict(vars(r)) for r in reports],
    }
    text = json.dumps(payload, indent=2)
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
            fh.write(text + "\n")
    for r in reports:
        mark = {"pass": "ok  ", "fail": "FAIL", "measured": "meas"}[r.status]
        resid = "" if r.residual is None else f"  residual={r.residual:.3g}"
        print(f"[{mark}] {r.suite}: {r.claim}{resid}")
    n_fail = sum(1 for r in reports if r.status == "fail")
    print(f"{len(reports)} checks, {n_fail} failed")
    if cfg.output_path:
        print(f"report written to {cfg.output_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
