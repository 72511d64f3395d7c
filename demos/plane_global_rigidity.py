"""Global rigidity in the planar max norm: K4 versus K5.

K4 is (2,2)-tight, so its edge set is independent in the (2,2)-sparsity
matroid and no realisation is globally rigid: the exact engine refutes
every rigid random realisation with an explicit equivalent non-congruent
witness.  K5 is connected in that matroid, so it has globally rigid
generic realisations, and the engine confirms that its first random
rigid realisation is one.  Not every rigid realisation of K5 is: the
graph-level characterisation leaves each framework to the exact verdict.

Run:  python demos/plane_global_rigidity.py
"""

from polyrigid import (
    complete_graph,
    congruence_check,
    decide_generic_global_linf2,
    decide_global_rigidity,
    edge_lengths,
    is_infinitesimally_rigid,
    is_Mdd_connected,
    preset,
    randomize_realisation,
)

linf2 = preset("linf", 2)


def first_rigid_realisation(graph, start_seed=1):
    seed = start_seed
    while True:
        fw = randomize_realisation(graph, 2, linf2, seed=seed, denominator_bound=200)
        if is_infinitesimally_rigid(fw):
            return seed, fw
        seed += 1


for n in (4, 5):
    g = complete_graph([f"v{i}" for i in range(1, n + 1)])
    print(f"\n=== K{n} ===")
    print("matroid-connected (graph-level generic criterion):",
          is_Mdd_connected(g, 2), "->", decide_generic_global_linf2(g))
    seed, fw = first_rigid_realisation(g)
    print(f"random rigid realisation (seed {seed})")
    verdict = decide_global_rigidity(fw)
    print("exact verdict:", verdict.outcome)
    if verdict.witness is not None:
        q = verdict.witness
        same_lengths = edge_lengths(fw.with_positions(q)) == edge_lengths(fw)
        print("witness positions:", {v: tuple(map(str, x)) for v, x in q.items()})
        print("witness has identical edge lengths:", same_lengths)
        print("witness congruent to the input:", congruence_check(fw, q))
