"""Seeded input generation for the benchmark workloads.

Everything here is plain Python data (ints, floats, strings, lists) so that
one seed always serializes to the same bytes.  Nothing here imports the
package under test: the child process turns these descriptions into
matrices, period matrices and calls.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("verify-all", "series-deep", "lattice-numeric", "exact-sweep")

# The 15-member orbit of the six-theta product under Sp_4(Z), each member as
# six sorted characteristics "m1'm2'm1''m2''".  The first one is F_Z itself.
# test_bench.py checks this table against theta.fz_orbit().
FZ_ORBIT = (
    ("0000", "0001", "0010", "0011", "0100", "0110"),
    ("0000", "0001", "0010", "0011", "1000", "1001"),
    ("0000", "0001", "0010", "0011", "1100", "1111"),
    ("0000", "0001", "0100", "1000", "1001", "1100"),
    ("0000", "0001", "0110", "1000", "1001", "1111"),
    ("0000", "0010", "0100", "0110", "1000", "1100"),
    ("0000", "0010", "0100", "0110", "1001", "1111"),
    ("0000", "0011", "0100", "1000", "1100", "1111"),
    ("0000", "0011", "0110", "1001", "1100", "1111"),
    ("0001", "0010", "0100", "1001", "1100", "1111"),
    ("0001", "0010", "0110", "1000", "1100", "1111"),
    ("0001", "0011", "0100", "0110", "1000", "1111"),
    ("0001", "0011", "0100", "0110", "1001", "1100"),
    ("0010", "0011", "0100", "1000", "1001", "1111"),
    ("0010", "0011", "0110", "1000", "1001", "1100"),
)

# series-deep sizes: the newform order puts the genus-1 product on its packed
# path; every Hecke check builds the theta product near HECKE_LEVEL, so the
# seed changes which primes are checked but not how much each check costs.
NEWFORM_ORDER = 3000
HECKE_LEVEL = 1200
HECKE_PRIME_BOUND = 60
HECKE_PRIMES = 12
MEMBER_ORDER = 60
MEMBERS = 6
FZ_ORDER = 140

# lattice-numeric sizes: 104 operations per job, enough for a p90 tail
POINTS = 4
GAMMA2_WORDS = 8
GAMMA48_WORDS = 4

# the upper and lower translation blocks generating the level-(4,8) words;
# exactly one lower factor per word keeps the moved points well conditioned
# and makes every word cost about the same
GAMMA48_UPPER = (
    [[8, 0], [0, 0]],
    [[0, 0], [0, 8]],
    [[0, 4], [4, 0]],
    [[-8, 0], [0, 0]],
    [[0, -4], [-4, 0]],
)
GAMMA48_LOWER = ([[0, 4], [4, 0]], [[0, -4], [-4, 0]])

# exact-sweep: the primes each counting routine accepts at the current caps
SURFACE_CAP = 41
CHARSUM_CAP = 13
NAIVE_Z_CAP = 7


def _odd_primes(bound: int) -> list[int]:
    return [p for p in range(3, bound + 1, 2)
            if all(p % d for d in range(3, int(p ** 0.5) + 1, 2))]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def generate(workload: str, seed: int) -> dict:
    """The inputs of one workload at one seed."""
    if workload == "verify-all":
        # the claim set fixes everything; the seed is unused
        return {"argv": ["all"]}
    if workload == "series-deep":
        return _series_deep(_rng(workload, seed))
    if workload == "lattice-numeric":
        return _lattice_numeric(_rng(workload, seed))
    if workload == "exact-sweep":
        return _exact_sweep(_rng(workload, seed))
    raise ValueError(f"unknown workload {workload!r}")


def hecke_orders() -> dict[int, int]:
    """Check order per prime, with order * p at most HECKE_LEVEL and distinct
    across primes: hecke_Tp_check builds the theta product at order * p and
    caches it by that order, so a shared order would make some checks free
    and the work depend on which primes the seed picks."""
    orders, used = {}, set()
    for p in _odd_primes(HECKE_PRIME_BOUND):
        order = HECKE_LEVEL // p
        while order * p in used:
            order -= 1
        used.add(order * p)
        orders[p] = order
    return orders


def _series_deep(rng: random.Random) -> dict:
    orders = hecke_orders()
    primes = rng.sample(sorted(orders), HECKE_PRIMES)
    members = rng.sample(range(1, len(FZ_ORBIT)), MEMBERS)
    ops = (
        [["newform"]]
        + [["hecke", p, orders[p]] for p in primes]
        + [["member", list(FZ_ORBIT[k])] for k in members]
        + [["fz_phi"], ["fz_phi"]]
    )
    rng.shuffle(ops)
    return {
        "newform_order": NEWFORM_ORDER,
        "member_order": MEMBER_ORDER,
        "fz_order": FZ_ORDER,
        "newform_sources": rng.sample(["theta_product", "gauss_sum", "hecke_character"], 3),
        "ops": ops,
    }


def siegel_point(rng: random.Random) -> list:
    """(tau1, tau2, tau3) as [re, im] pairs, Im tau positive definite with
    smallest eigenvalue at least 1.6.  The box is narrow because the E_Z
    lattice radius at a moved point, and with it the cost and the memory of
    a job, jumps with the conditioning of the point."""
    y1, y3 = rng.uniform(1.65, 1.75), rng.uniform(1.65, 1.75)
    y2 = rng.uniform(-0.05, 0.05)
    x1, x2, x3 = (rng.uniform(-0.05, 0.05) for _ in range(3))
    return [[round(x1, 6), round(y1, 6)], [round(x2, 6), round(y2, 6)],
            [round(x3, 6), round(y3, 6)]]


def gamma48_word(rng: random.Random) -> list:
    """Factors ["U", b] = [[1, b], [0, 1]] and ["L", b] = its transpose,
    multiplied left to right: at most two upper factors, then one lower
    factor, which sets the conditioning of the moved point."""
    word = [["U", rng.choice(GAMMA48_UPPER)] for _ in range(rng.randrange(0, 3))]
    return word + [["L", rng.choice(GAMMA48_LOWER)]]


def _distinct(rng, make, count):
    out = []
    while len(out) < count:
        item = make(rng)
        if item not in out:
            out.append(item)
    return out


def _lattice_numeric(rng: random.Random) -> dict:
    points = [siegel_point(rng) for _ in range(POINTS)]
    gamma2 = _distinct(rng, lambda r: [r.randrange(1, 11) for _ in range(r.randrange(1, 4))],
                       GAMMA2_WORDS)
    gamma48 = _distinct(rng, gamma48_word, GAMMA48_WORDS)
    return {"points": points, "gamma2_words": gamma2, "gamma48_words": gamma48}


def _exact_sweep(rng: random.Random) -> dict:
    ops = []
    for p in _odd_primes(SURFACE_CAP):
        ops += [["count", "FermatSurface", p], ["count", "FermatCurve", p],
                ["lines", p, p % 4 != 1]]
    for p in _odd_primes(CHARSUM_CAP):
        ops += [["count", v, p] for v in ("ConeF", "U1c", "U2c", "Ztilde", "Zsatake")]
        ops += [[name, p] for name in ("formulas", "birational", "h2", "lefschetz", "spin")]
    ops += [["zsatake_naive", p] for p in _odd_primes(NAIVE_Z_CAP)]
    ops.append(["orbits"])
    chars = [f"{a}{b}{c}{d}" for a in "01" for b in "01" for c in "01" for d in "01"]
    evens = [m for m in chars if (int(m[0]) * int(m[2]) + int(m[1]) * int(m[3])) % 2 == 0]
    for i in range(1, 11):
        ops += [["slash", i, m1, m2] for k, m1 in enumerate(evens) for m2 in evens[k + 1:]]
        ops += [["pair", i, m1, m2] for k, m1 in enumerate(chars) for m2 in chars[k + 1:]]
    rng.shuffle(ops)
    return {"ops": ops}


def describe(workload: str, inputs: dict) -> dict:
    """Sizes and a digest of the inputs, for the provenance block."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    out = {"sha256": hashlib.sha256(text.encode()).hexdigest()[:16]}
    if workload == "series-deep":
        out.update(newform_order=inputs["newform_order"], member_order=inputs["member_order"],
                   fz_order=inputs["fz_order"],
                   hecke=[op[1:] for op in inputs["ops"] if op[0] == "hecke"])
    elif workload == "lattice-numeric":
        out.update(points=len(inputs["points"]), gamma2_words=len(inputs["gamma2_words"]),
                   gamma48_words=len(inputs["gamma48_words"]))
    elif workload == "exact-sweep":
        out.update(ops=len(inputs["ops"]), surface_cap=SURFACE_CAP,
                   charsum_cap=CHARSUM_CAP, naive_z_cap=NAIVE_Z_CAP)
    else:
        out.update(argv=inputs["argv"])
    return out
