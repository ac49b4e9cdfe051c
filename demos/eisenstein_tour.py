#!/usr/bin/env python3
"""The CM newform three ways, the six-theta product, and the vector-valued
Eisenstein series whose degeneration reproduces it."""

import numpy as np

from siegelz import (
    a_p,
    ez_eval,
    ez_phi_match,
    ez_two_form_check,
    fz_expansion,
    g_expansion,
    phi_after_g0,
    resolve_ez_convention,
)
from siegelz.lfactors import spin_identity_check
from siegelz.theta import gammaZ_generators, siegel_point

print("== the CM newform, three constructions ==")
order = 60
ga = g_expansion("theta_product", order)
gb = g_expansion("gauss_sum", order)
gc = g_expansion("hecke_character", order)
print("first coefficients:", ga.pairs()[:8])
print("constructions agree:", ga.agrees_with(gb, order) and ga.agrees_with(gc, order))
print("split-prime eigenvalues:", {p: a_p(p) for p in (5, 13, 17, 29)})

print("\n== the six-theta product and its degeneration ==")
fz = fz_expansion(80)
phi = phi_after_g0(fz)
print(f"six-theta series: {len(fz.coeffs)} terms to order 80")
print("degeneration (u = exp(pi i tau/4)):",
      " + ".join(f"{c.re}u^{e}" for e, c in sorted(phi.coeffs.items())[:5]), "...")
print("that is 4 g(tau/4):", [(e // 2, c.re // 4) for e, c in sorted(phi.coeffs.items())[:5]])

print("\n== the degree-4 spin identity ==")
for p in (5, 13):
    residual, info = spin_identity_check(p)
    print(f"p={p}: residual zero={residual.is_zero()}, lambda1={info['lambda1']},"
          f" delta^-1={info['delta_inv']} (= chi_-1: {info['delta_matches_nebentypus']})")

print("\n== the weight-(3,1) lattice sum ==")
conv = resolve_ez_convention()
print("fixed conventions (evidence in the package tests):", conv)
tau = siegel_point(1.6j, 0.3j, 1.9j)
v = ez_eval(np.asarray(tau), 1e-10)
print(f"value at a sample point: ({v.h0:.6f}, {v.h1:.6f}, {v.h2:.6f})")
for name, g in zip(("e1e4", "e1e9^2"), (gammaZ_generators()[0], gammaZ_generators()[2])):
    print(f"2-form invariance under {name}: residual "
          f"{ez_two_form_check(g, tau, 1e-9):.2e}")
match = ez_phi_match(260)
print("degeneration matches the six-theta image:",
      f"scalar {match['scalar']}, residual {match['residual']}, "
      f"{match['n_exponents']} shared terms")
