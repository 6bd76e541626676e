"""
Building the strategy set
=========================

A strategy fixes one representative symbol per frame state. The constructed
set peels a weighted layered graph into L = lcm C(F, s) root-to-top paths,
so every weight-s symbol is used equally often and every path is minimal.
"""

from reorderchan import (
    build_weighted_graph,
    decompose_paths,
    lcm_binomials,
    representative_multiplicity,
    symbol_string,
    weight,
)

F = 4

# %%
# The multiplicities say how often each symbol must appear across the set.

L = lcm_binomials(F)
print(f"F = {F}: L = {L} strategies")
for s in range(F + 1):
    print(f"  state {s}: each weight-{s} symbol appears {representative_multiplicity(F, s)} times")

# %%
# The graph spreads each node's multiplicity over its covering edges, then
# path extraction walks the smallest open edge at every step.

sset = decompose_paths(build_weighted_graph(F))
print()
print("constructed multisymbols, one per line:")
for row in sset.reps.tolist():
    print(" ", ",".join(symbol_string(F, x) for x in row))

# %%
# Two sanity checks: every path flips exactly one new bit per layer (each
# representative contains the one below it), and the per-class usage counts
# land exactly on the multiplicities.

assert not (sset.reps[:, :-1] & ~sset.reps[:, 1:]).any()
counts = {}
for row in sset.reps.tolist():
    for s, x in enumerate(row):
        counts[(s, x)] = counts.get((s, x), 0) + 1
for (s, x), n in sorted(counts.items()):
    assert n == representative_multiplicity(F, weight(x))
print()
print("all paths minimal, all classes covered evenly")

# %%
# F = 7 is the first frame length where the averages do not divide evenly:
# 15 units leave each weight-1 node over 6 edges, as three 3s and three 2s.

graph7 = build_weighted_graph(7)
node = graph7.layers[1][0]
out = sorted(w for (x, _), w in graph7.weights[1].items() if x == node)
print(f"F = 7, first weight-1 node: outgoing edge weights {out}")
