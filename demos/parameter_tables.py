"""
Parameter tables from a Krein array
===================================

Feed the generic pipeline nothing but the four-term Krein array and
watch it recover the order, valencies, multiplicities, both
eigenmatrices and all intersection and Krein numbers, then cross-check
every field against the closed forms.
"""

from fractions import Fraction

from schemeforge import (closed_form_parameters, derive_parameters,
                         hemisystem_krein_array)
from schemeforge.serialize import params_markdown

# The smallest member of the family. s = t^2 - t + 1 = 7, so the array
# is {20, 49/3, 14/3, 1; 1, 14/3, 49/3, 20}.
t = 3
k = hemisystem_krein_array(t)
print("Krein array:", [str(b) for b in k.bstar], "/",
      [str(c) for c in k.cstar])

params = derive_parameters(k, t)
print("order:", params.order)
print("valencies:", [str(v) for v in params.valencies])
print("multiplicities:", [str(m) for m in params.multiplicities])

# The Q-antipodal signature: the last column of Q alternates, so the
# scheme splits into two halves of 56.
print("last Q column:", [str(params.Q[i][4]) for i in range(5)])

# Independent derivation straight from formulas in t.
table = closed_form_parameters(t)
assert params.P == table.P and params.Q == table.Q
assert params.p == table.p and params.q == table.q
print("pipeline output matches the closed forms exactly")

# The same equality holds along the whole small end of the family.
for odd in range(5, 20, 2):
    generic = derive_parameters(hemisystem_krein_array(odd), odd)
    assert generic.p == closed_form_parameters(odd).p
print("checked t = 5, 7, ..., 19")

# A couple of spot values with denominators, printed exactly.
print("q^1_12 at t=3:", params.q[1][1][2], "=",
      Fraction(49, 3))

print()
print(params_markdown(params))
