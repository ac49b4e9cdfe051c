#!/usr/bin/env python3
"""Point counts over small prime fields and every closed form they satisfy."""

from siegelz import a_p, count_variety, verify_birational_map, verify_count_formulas
from siegelz.lfactors import h2_lpoly, lefschetz_check, trace_h2

print("== raw counts ==")
for p in (3, 5, 7):
    f = count_variety("FermatSurface", p)
    z = count_variety("Zsatake", p, "charsum")
    zn = count_variety("Zsatake", p, "naive")
    print(f"p={p}:  |F|={f}  |Z|={z} (naive {zn})  |Cone|={count_variety('ConeF', p)}"
          f"  |Ztilde|={count_variety('Ztilde', p)}")

print("\n== closed forms, residuals must vanish ==")
for p in (3, 5, 7, 11, 13):
    rep = verify_count_formulas(p, a_p(p))
    worst = max(abs(v) for v in rep["residuals"].values())
    print(f"p={p}: worst residual {worst}, measured Frobenius trace "
          f"{rep['measured_frobenius_trace']} (eigenvalue {a_p(p)})")

print("\n== the coordinate map between the cone and the Satake model ==")
for p in (3, 5):
    rep = verify_birational_map(p)
    print(f"p={p}: |U1|={rep['u1_count']} = |U2|={rep['u2_count']}, "
          f"bijective={rep['bijective']}")

print("\n== the degree-21 local factor ==")
for p in (3, 5, 13, 41):
    h = h2_lpoly(p)
    print(f"p={p}: degree {h.degree()}, linear coefficient {h.poly[1]} "
          f"= -trace {trace_h2(p)}, Lefschetz residual {lefschetz_check(p)}")
