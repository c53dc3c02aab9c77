"""
A concrete instance over GF(9)
==============================
"""

# The quadrangle lives on the surface x0^4 + x1^4 + x2^4 + x3^4 = 0 in
# projective 3-space over the 9-element field: 280 points, 112 lines,
# 10 points per line, 4 lines per point.
from schemeforge import (build_hermitian_gq, closed_form_parameters,
                         find_hemisystem, scheme_from_hemisystem,
                         verify_gq, verify_hemisystem, verify_scheme)

gq = build_hermitian_gq()
print("points:", len(gq.points), " lines:", len(gq.lines),
      " order:", (gq.s, gq.t))

report = verify_gq(gq)
for name, ok, witness in report.checks:
    print(f"  {name}: {'ok' if ok else witness}")

# Half the lines, two through every point. Exact cover search with
# quota propagation; a seed shuffles the branching order.
hemi = find_hemisystem(gq)
print("hemisystem:", len(hemi.lines), "lines;",
      "quota holds:", verify_hemisystem(gq, hemi))
print("complement too:", verify_hemisystem(gq, hemi.complement(gq)))

# Classify line pairs by met/missed and same/opposite half. That is
# the whole 4-class scheme, built from the incidence product N^T N.
sch = scheme_from_hemisystem(gq, hemi)
counted = verify_scheme(sch)
print("scheme on", sch.size, "elements,", sch.classes, "classes")
print("valencies:", counted.valencies)

# Entry-for-entry agreement with the parameter tables at t = 3.
table = closed_form_parameters(3)
assert counted.p == table.p
print("counted p^k_ij equals the derived tables, all 125 entries")
