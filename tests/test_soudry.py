import math
from fractions import Fraction

import numpy as np
import pytest

from siegelz import soudry, theta
from siegelz.arith import GaussInt, QuarterSeries
from siegelz.cmform import odd_coset_sum
from siegelz.soudry import (
    EZ_CONVENTION,
    EZ_SAMPLE_POINTS,
    EzConvention,
    VectorValue,
    ez_eval,
    ez_phi_match,
    ez_phi_stratum,
    ez_two_form_check,
    resolve_ez_convention,
    two_form_pullback,
)
from siegelz.theta import (
    E6,
    GAMMAZ_GENERATOR_NAMES,
    apply_moebius,
    character_value,
    gammaZ_generators,
    pair_character_any_parity,
    random_gamma48_elements,
    translation,
)

GENERIC_POINT = np.array([[0.31 + 1.1j, -0.17 + 0.23j], [-0.17 + 0.23j, 0.42 + 0.95j]])
ODD_CHAR = (1, 0, 1, 1)

# every reading of the conventions the display leaves open: the pairing in
# the Fourier index, the exponent scale, and the z2 parity character
Z2_SIGN_RULES = ("x2", "x2+y2", "y2", "1")
READINGS = [EzConvention(pairing, scale, rule)
            for pairing in ("conj", "plain") for scale in (1, 2) for rule in Z2_SIGN_RULES]


def _name(conv):
    return f"{conv.pairing}/{conv.scale}/{conv.z2_sign}"


# ---------------------------------------------------------------------------
# the 4-D lattice sum, kept here as an independent oracle for ez_eval

def _oracle_radius2(lam: float, scale: int, tol: float) -> float:
    """Bound on N(z1) + N(z2) making the Gaussian tail provably below tol.

    Terms beyond N1 + N2 = S carry exp(-pi scale lam S); the shell at S
    holds at most ~10 S pairs with kernel at most S, and the shells are
    summed against the geometric ratio exp(-pi scale lam).
    """
    rate = math.pi * scale * lam
    geom = 1.0 / max(1e-12, 1.0 - math.exp(-rate))
    r2 = 12.0
    while 10.0 * (r2 + geom) ** 2 * geom * math.exp(-rate * r2) >= tol:
        r2 += 25.0
        assert r2 <= 1400, "oracle tolerance unreachable"
    return r2


def _chi2(x2, y2, rule):
    parity = {"x2": x2, "y2": y2, "x2+y2": x2 + y2, "1": 0 * x2}[rule]
    return 1 - 2 * (parity % 2)


def ez_oracle(tau, convention, tol=1e-10, z2_zero=False):
    """E_Z as the 4-D sum over its support, in z1 chunks.

    z1 = (1/2 + x1) + (1/2 + y1) i and z2 = x2 + y2 i with x1, y1, x2, y2 in
    Z; the weight is (i/2) (-1)^(x1 + y1) times the z2 parity character, the
    kernel conj(z1)^(2-j) conj(z2)^j, the exponent
    pi i scale (N(z1) tau1 + 2 r tau2 + N(z2) tau3) with r = Re(z1 conj z2)
    (conj pairing) or Re(z1 z2) (plain).  With z2_zero only the z2 = 0
    layer is summed.
    """
    tau = np.asarray(tau, dtype=complex)
    lam = float(np.linalg.eigvalsh(tau.imag).min())
    r2 = _oracle_radius2(lam, convention.scale, tol)
    m = math.isqrt(int(r2)) + 1
    x, y = (g.ravel() for g in np.meshgrid(np.arange(-m - 1, m + 1), np.arange(-m - 1, m + 1)))
    z1 = (x + 0.5) + 1j * (y + 0.5)
    keep1 = np.abs(z1) ** 2 <= r2
    z1, sign1 = z1[keep1], (1 - 2 * ((x + y) % 2))[keep1]
    keep2 = (x * x + y * y <= r2) & ((x == 0) & (y == 0) | (not z2_zero))
    z2 = (x + 1j * y)[keep2]
    chi2 = _chi2(x[keep2], y[keep2], convention.z2_sign)
    t1, t2, t3 = tau[0, 0], tau[0, 1], tau[1, 1]
    h = np.zeros(3, dtype=complex)
    for start in range(0, len(z1), 64):
        w1 = z1[start:start + 64, None]
        n1, n2 = np.abs(w1) ** 2, np.abs(z2) ** 2
        paired = w1 * (z2.conjugate() if convention.pairing == "conj" else z2)
        phase = np.exp(1j * math.pi * convention.scale * (n1 * t1 + 2 * paired.real * t2 + n2 * t3))
        weight = 0.5j * sign1[start:start + 64, None] * chi2 * phase * (n1 + n2 <= r2)
        c1, c2 = w1.conjugate(), z2.conjugate()
        h += [(weight * c1 * c1).sum(), (weight * c1 * c2).sum(), (weight * c2 * c2).sum()]
    return h


def factored_eval(tau, convention, tol=1e-10):
    """E_Z on any reading, as products of the moments of degree <= 2 of two
    2-D sums P (over u) and Q (over v), with z1 = u1 + i v1 and
    z2 = u2 +- i v2 (+ for the conj pairing); both factors keep |u|^2 up to
    the oracle's radius.  Checked against ez_oracle below."""
    tau = np.asarray(tau, dtype=complex)
    lam = float(np.linalg.eigvalsh(tau.imag).min())
    r2 = _oracle_radius2(lam, convention.scale, tol)
    m = math.isqrt(int(r2)) + 1
    k1, k2 = np.arange(-m, m)[:, None], np.arange(-m, m + 1)[None, :]
    keep = (k1 + 0.5) ** 2 + k2 ** 2 <= r2
    u1 = np.broadcast_to(k1 + 0.5, keep.shape)[keep]
    u2 = np.broadcast_to(k2, keep.shape)[keep].astype(float)
    sign1 = np.broadcast_to(1 - 2 * (k1 & 1), keep.shape)[keep]
    sign2 = np.broadcast_to(1 - 2 * (k2 & 1), keep.shape)[keep]
    t1, t2, t3 = tau[0, 0], tau[0, 1], tau[1, 1]
    wave = np.exp(1j * math.pi * convention.scale
                  * (u1 * u1 * t1 + 2 * u1 * u2 * t2 + u2 * u2 * t3))
    monomials = np.stack([np.ones_like(u1), u1, u2, u1 * u1, u1 * u2, u2 * u2])
    rule = convention.z2_sign
    P0, P1, P2, P11, P12, P22 = monomials @ (wave * sign1 * (sign2 if rule in ("x2", "x2+y2") else 1))
    Q0, Q1, Q2, Q11, Q12, Q22 = monomials @ (wave * sign1 * (sign2 if rule in ("y2", "x2+y2") else 1))
    # conj(z1) = u1 - i v1 and conj(z2) = u2 - i sigma v2
    sigma = 1 if convention.pairing == "conj" else -1
    h0 = 0.5j * (P11 * Q0 - 2j * P1 * Q1 - P0 * Q11)
    h1 = 0.5j * (P12 * Q0 - 1j * sigma * P1 * Q2 - 1j * P2 * Q1 - sigma * P0 * Q12)
    h2 = 0.5j * (P22 * Q0 - 2j * sigma * P2 * Q2 - P0 * Q22)
    return np.array([h0, h1, h2])


def _vec(v):
    return np.array([v.h0, v.h1, v.h2])


def _ill_conditioned_points(count=3):
    """The points where the suites evaluate E_Z with the smallest eigenvalue
    of Im tau: images of the sample points under the level-(4,8) samples
    and the stabilizer generators."""
    gammas = random_gamma48_elements(10, seed=3, small_c=True) + gammaZ_generators()
    pts = [apply_moebius(g, tau) for g in gammas for tau in EZ_SAMPLE_POINTS]
    pts.sort(key=lambda t: float(np.linalg.eigvalsh(t.imag).min()))
    return pts[:count]


def test_factored_sum_matches_4d_oracle():
    # every reading factors, so the oracle pins the support (half-integral
    # z1, integral z2) and the sign of the weight; ez_eval is the fixed one
    worst = 0.0
    for conv in READINGS:
        for tau in (*EZ_SAMPLE_POINTS, GENERIC_POINT):
            oracle = ez_oracle(tau, conv, 1e-13)
            worst = max(worst, float(np.abs(factored_eval(tau, conv, 1e-13) - oracle).max()))
            if _name(conv) == _name(EZ_CONVENTION):
                assert float(np.abs(_vec(ez_eval(tau, 1e-13)) - oracle).max()) < 1e-12
    assert worst < 1e-12


def _scaled_stratum(order, scale):
    """ez_phi_stratum on a reading of exponent scale `scale`: the z2 = 0
    weight does not depend on the pairing or the z2 parity."""
    re, im = odd_coset_sum(order // scale)
    return QuarterSeries.from_arrays(1, order, (scale * np.arange(order // scale + 1),), re, im)


# the level-(4,8) words the search used to probe first, and its point
PROBE_POINT = np.array([[0.1 + 0.8j, 0.2 + 0.05j], [0.2 + 0.05j, -0.15 + 0.9j]])


def _probe_words():
    lower = translation([[0, 4], [4, 0]]).T.copy()
    return [lower, translation([[8, 0], [0, 0]]) @ translation([[0, 4], [4, 0]]) @ lower]


def test_other_readings_are_rejected(monkeypatch):
    """The evidence for EZ_CONVENTION: each of the 15 other readings fails a
    check the fixed one passes, except conj/1/1, which ties with it on every
    check (4 of the 5 stabilizer generators, failing only e1e6)."""
    assert ez_phi_stratum(80) == _scaled_stratum(80, 1)
    rejected_by = {}
    failing_generators = {}
    for conv in READINGS:
        name = _name(conv)
        monkeypatch.setattr(soudry, "ez_eval", lambda tau, tol=1e-10, conv=conv:
                            VectorValue(*factored_eval(tau, conv, tol)))
        monkeypatch.setattr(soudry, "ez_phi_stratum", lambda order, conv=conv:
                            _scaled_stratum(order, conv.scale))
        r48 = max(ez_two_form_check(g, PROBE_POINT, 1e-9) for g in _probe_words())
        phi_ok = ez_phi_match(80)["residual"] == 0
        gens = {g_name: ez_two_form_check(g, PROBE_POINT, 1e-9)
                for g_name, g in zip(GAMMAZ_GENERATOR_NAMES, gammaZ_generators())}
        assert all(r < 1e-6 or r > 1e-2 for r in (r48, *gens.values())), name
        failing_generators[name] = {g for g, r in gens.items() if r > 1e-2}
        if r48 > 1e-2:
            rejected_by[name] = "level-(4,8)"
        elif not phi_ok:
            rejected_by[name] = "degeneration"
        elif "e1e4" in failing_generators[name]:
            rejected_by[name] = "e1e4"
    monkeypatch.undo()
    expected = {_name(c): "level-(4,8)" for c in READINGS if c.pairing == "plain"}
    expected.update({"conj/2/x2": "level-(4,8)", "conj/2/y2": "level-(4,8)",
                     "conj/2/x2+y2": "degeneration", "conj/2/1": "degeneration",
                     "conj/1/x2": "e1e4", "conj/1/y2": "e1e4"})
    assert rejected_by == expected
    assert failing_generators["conj/1/x2+y2"] == failing_generators["conj/1/1"] == {"e1e6"}
    fixed = resolve_ez_convention()
    assert _name(fixed) == "conj/1/x2+y2" and _name(fixed) not in rejected_by


def test_oracle_is_rank_one_on_the_resolved_convention():
    h0, h1, h2 = ez_oracle(GENERIC_POINT, resolve_ez_convention(), 1e-13)
    assert min(abs(h0), abs(h1), abs(h2)) > 1e-3
    assert abs(h1 * h1 - h0 * h2) < 1e-12 * max(abs(h0), abs(h2)) ** 2


def test_oracle_z2_zero_layer_is_a_square():
    # the z2 = 0 layer feeds only h0, and h0 there is the square of the
    # genus-1 odd-theta gradient sum_x (-1)^(x - 1/2) x exp(pi i tau1 x^2)
    tau1 = GENERIC_POINT[0, 0]
    x = np.arange(-40, 40) + 0.5
    grad = ((1 - 2 * (np.arange(-40, 40) % 2)) * x * np.exp(1j * math.pi * tau1 * x * x)).sum()
    assert abs(grad) > 1e-2
    for rule in Z2_SIGN_RULES:
        h0, h1, h2 = ez_oracle(GENERIC_POINT, EzConvention("conj", 1, rule), 1e-13, z2_zero=True)
        assert h1 == 0 and h2 == 0
        assert abs(h0 - grad * grad) < 1e-13


@pytest.fixture(scope="module")
def ill_conditioned_with_oracle():
    return [(tau, ez_oracle(tau, resolve_ez_convention(), 1e-10))
            for tau in _ill_conditioned_points()]


@pytest.mark.parametrize("tol", [1e-8, 1e-9])
def test_tail_bound_against_tighter_evaluations(tol, ill_conditioned_with_oracle):
    # the ill-conditioned points, then the well-conditioned sample points
    samples = [(tau, ez_oracle(tau, resolve_ez_convention(), 1e-12)) for tau in EZ_SAMPLE_POINTS]
    assert all(float(np.linalg.eigvalsh(tau.imag).min()) < 0.03
               for tau, _ in ill_conditioned_with_oracle)
    for tau, oracle in ill_conditioned_with_oracle + samples:
        got = _vec(ez_eval(tau, tol))
        tighter = _vec(ez_eval(tau, tol * 1e-4))
        assert float(np.abs(got - tighter).max()) <= tol
        assert float(np.abs(got - oracle).max()) <= tol


def test_ez_eval_takes_one_gradient_of_theta_1011(monkeypatch):
    """Each ez_eval call reads S off one gradient pass (theta._gradient,
    theta_gradient after its check of the points), at a tighter tolerance
    that carries the bound through the products."""
    calls = []
    real = theta._gradient

    def spy(m, tau, tol):
        calls.append((m, tol))
        return real(m, tau, tol)

    monkeypatch.setattr(theta, "_gradient", spy)
    points = (*EZ_SAMPLE_POINTS, *_ill_conditioned_points())
    for tau in points:
        ez_eval(tau, 1e-9)
    assert len(calls) == len(points)
    assert all(m == ODD_CHAR and 0 < tol < 1e-9 / 2 for m, tol in calls)


def test_verify_ez_takes_each_gradient_pass_once(monkeypatch):
    """verify ez evaluates E_Z again at its stack of sample points in every
    claim: the gradient pass runs once per distinct (m, tau, tol), tol one
    per point of the stack, and every call returns a fresh array that its
    caller may write to."""
    from siegelz.cli import RunConfig, run

    keys, grads = [], []
    real = theta._gradient

    def spy(m, tau, tol=1e-12):
        keys.append((tuple(m), np.asarray(tau, dtype=complex).tobytes(),
                     np.asarray(tol, dtype=float).tobytes()))
        grads.append(real(m, tau, tol))
        return grads[-1]

    monkeypatch.setattr(theta, "_gradient", spy)
    theta._lattice_sums.cache_clear()
    reports, _ = run(RunConfig(selected_suites=["ez"]))
    assert len(reports) == 8
    assert theta._lattice_sums.cache_info().misses == len(set(keys)) < len(keys)
    assert len({id(g) for g in grads}) == len(grads)
    assert all(g.flags.writeable for g in grads)
    tau = EZ_SAMPLE_POINTS[0]
    first = theta.theta_gradient(ODD_CHAR, tau, 1e-10)
    want = first.copy()
    first[:] = 0
    again = theta.theta_gradient(list(ODD_CHAR), tau.copy(), 1e-10)
    assert np.array_equal(again, want)
    assert np.array_equal(again, theta._lattice_sums.__wrapped__(
        np.array(ODD_CHAR, dtype=np.int64).tobytes(), tau.tobytes(), tau.shape, 1e-10, 1)[..., 0])


def test_e_z_on_a_stack_equals_its_points_one_by_one():
    """ez_eval, two_form_pullback and ez_two_form_check on stacks give each
    point the bits of its single call, on the `ez` claims' samples (the
    level-(4,8) words and the stabilizer generators at the three sample
    points) and at the ill-conditioned images; a single point keeps the
    shapes and types of a single call."""
    words = np.stack(random_gamma48_elements(10, seed=3, small_c=True) + gammaZ_generators())
    pts = np.stack(EZ_SAMPLE_POINTS)
    checks = ez_two_form_check(words[:, None], pts, 1e-13)
    pulled = two_form_pullback(words[:, None], pts, 1e-13)
    assert checks.shape == (15, 3) and pulled.shape == (15, 3, 3)
    for k, g in enumerate(words):
        for j, tau in enumerate(pts):
            assert checks[k, j] == ez_two_form_check(g, tau, 1e-13)
            assert np.array_equal(pulled[k, j], two_form_pullback(g, tau, 1e-13))
    far = np.stack([*EZ_SAMPLE_POINTS, *_ill_conditioned_points()])
    here = ez_eval(far, 1e-9)
    assert all(h.shape == (6,) for h in here)
    for j, tau in enumerate(far):
        single = ez_eval(tau, 1e-9)
        assert all(np.ndim(h) == 0 and isinstance(h, complex) for h in single)
        assert np.array_equal(np.stack(here, -1)[j], _vec(single))
    assert type(ez_two_form_check(words[0], pts[0], 1e-13)) is float
    assert two_form_pullback(words[0], pts[0], 1e-13).shape == (3,)


def test_e1e6_sign_is_the_odd_theta_pair_character():
    # E_Z = Sym^2 of the gradient of theta[1011], so each element acts on
    # the 2-form by exp(2 pi i t) with t the pair character of that odd
    # theta: 1/2 on e1e6 (the 8b failure), 0 elsewhere
    tau = EZ_SAMPLE_POINTS[1]
    here = _vec(ez_eval(tau, 1e-9))
    elements = list(zip(GAMMAZ_GENERATOR_NAMES, gammaZ_generators()))
    elements += [(f"g48[{k}]", g) for k, g in
                 enumerate(random_gamma48_elements(10, seed=3, small_c=True))]
    for name, g in elements:
        t = pair_character_any_parity(ODD_CHAR, ODD_CHAR, g)
        assert t == (Fraction(1, 2) if name == "e1e6" else 0), (name, t)
        pulled = two_form_pullback(g, tau, 1e-9)
        assert float(np.abs(pulled - character_value(t) * here).max()) < 1e-6, name


def test_resolved_convention():
    conv = resolve_ez_convention()
    assert conv is EZ_CONVENTION
    assert conv.pairing == "conj"
    assert conv.scale == 1
    assert conv.z2_sign == "x2+y2"
    assert "4/5" in conv.resolved_by and "conj/1/1" in conv.resolved_by
    # the record names the test holding its evidence
    assert f"{test_other_readings_are_rejected.__name__}:" in conv.resolved_by


def test_decay_at_large_imaginary_part():
    norms = []
    for t in (2.0, 4.0, 8.0):
        v = ez_eval(np.array([[t * 1j, 0], [0, t * 1j]]), 1e-12)
        norms.append(max(map(abs, v)))
    assert norms[0] > norms[1] > norms[2]
    # leading support vector has N(z1) = 1/2: decay like exp(-pi t)
    assert norms[2] < 1e-5


def test_invariance_level48():
    """Level-(4,8) invariance on other words and points than the `ez` claim's."""
    points = (np.array([[1.7j + 0.15, 0.1 + 0.2j], [0.1 + 0.2j, 1.65j - 0.1]]),
              np.array([[2.1j, -0.25j], [-0.25j, 1.8j]]))
    worst = max(ez_two_form_check(g, tau, 1e-13)
                for g in random_gamma48_elements(10, seed=11, small_c=True) for tau in points)
    assert worst < 1e-10


def test_invariance_stabilizer_generators_except_structural():
    residuals = {
        name: max(ez_two_form_check(g, tau, 1e-8) for tau in EZ_SAMPLE_POINTS)
        for name, g in zip(GAMMAZ_GENERATOR_NAMES, gammaZ_generators())
    }
    for name in ("e1e4", "e1e9^2", "e8^2e3", "e2e10^2"):
        assert residuals[name] < 1e-6, (name, residuals[name])
    # the fifth generator acts by the structural sign -1: the period-swap
    # part flips the middle component while the lattice reindexing of the
    # unipotent part cannot produce a compensating sign
    assert residuals["e1e6"] > 1e-2


def test_e1e6_and_e6_act_by_minus_one():
    from siegelz.theta import E1

    tau = EZ_SAMPLE_POINTS[1]
    h = ez_eval(np.asarray(tau), 1e-9)
    hv = np.array([h.h0, h.h1, h.h2])
    for g in (E1 @ E6, E6):
        pulled = two_form_pullback(g, tau, 1e-9)
        assert float(np.abs(pulled + hv).max()) < 1e-9


def test_phi_stratum_leading_exponent():
    s = ez_phi_stratum(40)
    assert min(s.coeffs) == 2  # u^2 = exp(pi i tau1 / 2), i.e. N(z1) = 1/2
    assert all(e % 8 == 2 for e in s.coeffs)


def test_phi_match():
    """The degeneration match at the `ez` claim's order 260 and beyond it at
    300: exact, with the scalar 1/4 that the claim only records."""
    for order, terms in ((260, 25), (300, 28)):
        assert ez_phi_match(order) == {"scalar": Fraction(1, 4), "residual": 0.0,
                                       "n_exponents": terms, "leading_u_exponent": 2,
                                       "support_mod8": [2]}


def test_phi_match_without_a_scalar_reports_instead_of_raising(monkeypatch):
    """Where no scalar can be solved, the match returns scalar None and the
    finite residual 1.0: a zero image (a factor with m1' odd), a leading
    exponent held by one side only, and a leading coefficient that is not a
    rational integer."""
    fz = theta.FZ_TUPLE
    monkeypatch.setattr(theta, "FZ_TUPLE", tuple((1, 0, 0, 1) if m == (0, 0, 0, 1) else m
                                                 for m in fz))
    assert ez_phi_match(40)["scalar"] is None
    monkeypatch.setattr(theta, "FZ_TUPLE", fz)
    stratum = ez_phi_stratum(40)
    for shifted in ({e + 8: v for e, v in stratum.coeffs.items() if e + 8 <= 40},
                    {e: v * GaussInt(0, 1) for e, v in stratum.coeffs.items()}):
        monkeypatch.setattr(soudry, "ez_phi_stratum",
                            lambda order, c=shifted: QuarterSeries(1, order, c))
        m = ez_phi_match(40)
        assert (m["scalar"], m["residual"]) == (None, 1.0)


def test_ez_eval_validation():
    with pytest.raises(ValueError):
        ez_eval(np.array([[1j, 0], [0, -1j]]), 1e-8)
    with pytest.raises(ValueError):
        ez_eval(np.array([[2j, 1], [0, 2j]]), 1e-8)  # not symmetric
    with pytest.raises(ValueError, match="unreachable"):
        ez_eval(np.array([[1e-5j, 0], [0, 1j]]), 1e-8)
