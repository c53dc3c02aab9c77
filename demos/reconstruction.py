"""
Geometry back out of the scheme
===============================

Starting from the bare relation matrix, with the geometry forgotten:
rebuild the dual quadrangle from {1,2}-cliques and read off the
half-partition. The scheme remembers everything.
"""

from schemeforge import (all_cliques, build_hermitian_gq, find_hemisystem,
                         recover_hemisystem, reconstruct_gq,
                         scheme_from_hemisystem, verify_dual_hemisystem)

gq = build_hermitian_gq()
hemi = find_hemisystem(gq)
sch = scheme_from_hemisystem(gq, hemi)

# Maximal cliques in relations {0, 1, 2} have size 4 and split into two
# halves of 2 along the partition. There are 280, one per quadrangle
# point (its 4 lines), and each 1- or 2-related pair lies in exactly one.
cliques = all_cliques(sch)
sizes = {len(c.elements) for c in cliques}
print(len(cliques), "cliques, sizes", sizes)

per_element = [0] * sch.size
for c in cliques:
    for x in c.elements:
        per_element[x] += 1
print("every element on", set(per_element), "cliques")

# Cliques as dual points, elements as dual lines: a quadrangle of the
# transposed order, verified against all the axioms.
rec = reconstruct_gq(sch, cliques)
print("dual order:", rec.dual_order, " primal:", rec.primal_order)
print("axioms pass:", rec.report.overall)

# The half containing a base element x is x itself plus everything in
# even relation to it. Any base element gives the same two halves.
part = recover_hemisystem(sch, 0)
print("recovered part:", len(part), "elements")
print("matches the planted half:",
      set(part) in (set(hemi.lines),
                    set(range(sch.size)) - set(hemi.lines)))

parts = {frozenset(recover_hemisystem(sch, x)) for x in range(sch.size)}
print("distinct parts over all 112 bases:", len(parts))
print("clique halves respect it:",
      verify_dual_hemisystem(sch, cliques, part))
