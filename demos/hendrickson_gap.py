"""Globally rigid without redundant rigidity: K5 minus an edge.

In Euclidean spaces, generic globally rigid frameworks are always
redundantly rigid.  In the planar max norm that implication fails: K5
minus one edge is a 2-connected circuit of the (2,2)-sparsity matroid,
hence the graph has globally rigid generic realisations there, but with
only 2|V| - 1 = 9 edges it cannot be redundantly rigid (each of the two
colour classes of a redundantly rigid framework must be 2-edge-connected,
needing |V| edges apiece).  The exact engine finds a rational realisation
that is globally rigid and, beside it, a rigid one that is not: the
graph-level criterion leaves each framework to the exact verdict.

Run:  python demos/hendrickson_gap.py
"""

from polyrigid import (
    Graph,
    SparsityParams,
    complete_graph,
    decide_generic_global_linf2,
    decide_global_rigidity,
    fundamental_circuit,
    is_infinitesimally_rigid,
    is_redundantly_rigid,
    pebble_rank,
    preset,
    randomize_realisation,
)

k5 = complete_graph(list("abcde"))
g = Graph(k5.vertices, [e for e in k5.edges if e != ("a", "b")])
params = SparsityParams(2, 2)

print("K5 - e:", len(g.vertices), "vertices,", len(g.edges), "edges")
print("rank in the (2,2)-sparsity matroid:", pebble_rank(g, params))
print("every fundamental circuit is the whole edge set:",
      all(fundamental_circuit(g, params, e) == g.edges for e in g.edges))
print("generic planar criterion (matroid-connected):",
      decide_generic_global_linf2(g))

linf2 = preset("linf", 2)
first = {}  # exact outcome -> the first rigid realisation with it
seed = 0
while len(first) < 2:
    seed += 1
    fw = randomize_realisation(g, 2, linf2, seed=seed, denominator_bound=200)
    if is_infinitesimally_rigid(fw):
        first.setdefault(decide_global_rigidity(fw).outcome, (seed, fw))
for outcome, (seed, fw) in sorted(first.items()):
    print(f"\nrandom rigid realisation (seed {seed})")
    print("exact global rigidity verdict:", outcome)
    print("redundantly rigid:", is_redundantly_rigid(fw),
          "(impossible here: 9 edges < 2|V| = 10)")
