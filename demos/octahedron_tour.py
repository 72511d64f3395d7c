"""Tour of the exact machinery on one fixture: the octahedron.

The octahedron realisation is the smallest framework that is redundantly
rigid in the planar max norm, and its two colour classes are both
2-connected, which certifies generic global rigidity.  The exact engine
then confirms that this specific rational realisation is globally rigid,
and the numeric falsifier comes up empty, as it must.

Run:  python demos/octahedron_tour.py
"""

import time

from polyrigid import (
    SearchParams,
    build_octahedron,
    certify_generic_global,
    decide_global_rigidity,
    edge_lengths,
    induced_colouring,
    is_2_connected,
    is_infinitesimally_rigid,
    is_redundantly_rigid,
    is_well_positioned,
    monochromatic_subgraphs,
    numeric_witness_search,
    rank_exact,
    rigidity_matrix,
)

fw = build_octahedron()
print("vertices:", fw.graph.vertices)
print("edge count:", len(fw.graph.edges))
print("edge lengths:", [str(x) for x in edge_lengths(fw)])

print("\nwell-positioned:", is_well_positioned(fw))
phi = induced_colouring(fw)
print("induced colouring:", [tuple(map(str, f)) for f in phi])

rank = rank_exact(rigidity_matrix(fw))
print(f"\nexact rank: {rank} (need {2 * 6 - 2} for rigidity)")
print("infinitesimally rigid:", is_infinitesimally_rigid(fw))
print("redundantly rigid:", is_redundantly_rigid(fw))

subs = monochromatic_subgraphs(fw.graph, phi, fw.dim)
for i, sub in enumerate(subs):
    print(f"colour class {i}: {len(sub.edges)} edges, 2-connected: {is_2_connected(sub)}")
print("strong-colouring certificate (generic global rigidity):",
      certify_generic_global(fw))

print("\nrunning the exact decision (enumerates 4^12 colourings with pruning)...")
t0 = time.perf_counter()
verdict = decide_global_rigidity(fw)
print(f"outcome: {verdict.outcome} in {time.perf_counter() - t0:.1f}s")
print("search counters:", {
    k: v for k, v in verdict.certificate.items()
    if k in ("leaves", "pruned_subtrees", "lp_runs", "isometric_skipped")
})

print("\nnumeric falsifier (should find nothing)...")
witness = numeric_witness_search(fw, SearchParams(restarts=200, steps=100, seed=1))
print("witness found:", witness is not None)
