"""
Forcing triple intersection numbers
===================================

For a triple of elements in pairwise relations (A, B, C), the counts
[l m n] of elements at relations l, m, n from the three satisfy a
linear system built from the p^k_ij and the vanishing Krein parameters.
Here we solve two patterns exactly and see how nonnegativity pins what
linear algebra alone leaves open.
"""

from schemeforge import (TripleConfig, VacuousConfig, closed_form_parameters,
                         forced_triple_values, solve, widened_system)

# Pattern (2, 2, 2) at t = 7. Widen with every vanishing Krein tuple.
params = closed_form_parameters(7)
cfg = TripleConfig(params, (2, 2, 2))
sys_ = widened_system(cfg)
print("system:", len(sys_.rows), "rows over", len(sys_.names), "unknowns")

sol = solve(sys_)
print("linear algebra pins", len(sol.forced), "of 64;",
      "free:", [f"[{l} {m} {n}]" for l, m, n in sol.residual_free])

forced = forced_triple_values(params, (2, 2, 2))
print("after nonnegativity, free:", list(forced.residual_free))
print("[2 2 2] =", forced.forced[(2, 2, 2)], " (expected (t-5)/2 = 1)")
for i in (1, 3, 4):
    assert forced.forced[(2, 2, i)] == 0

# The same pattern at t = 3 is empty before any algebra happens:
# p^2_22 = 0, no such triples exist.
try:
    forced_triple_values(closed_form_parameters(3), (2, 2, 2))
except VacuousConfig as exc:
    print("t = 3:", exc)

# Pattern (2, 1, 1) exists at every odd t. The forced values follow
# (t-1)/2 and (t-3)/2, and one count grows like t^2 (t+1)/2.
for t in (3, 5, 9, 13):
    sol = forced_triple_values(closed_form_parameters(t), (2, 1, 1))
    print(f"t={t:2d}  [1 1 2] = {sol.forced[(1, 1, 2)]}   "
          f"[2 2 1] = {sol.forced[(2, 2, 1)]}   "
          f"[1 3 4] = {sol.forced[(1, 3, 4)]}")
