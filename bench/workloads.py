"""The benchmark's workloads: inputs made from a seed, operations, checks.

Each workload is a function ``setup(pr, seed, workdir) -> Plan``, where
``pr`` holds freshly imported polyrigid modules.  Operations call the
library through module attributes at call time, so the traced run sees
them.  Every check compares against ``checks`` (which shares no code with
polyrigid) or against a property the method must have; none compares
against stored output.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import checks

GR, NGR, NOT_RIGID, NWP = "GloballyRigid", "NotGloballyRigid", "NotRigid", "NotWellPositioned"
CORPUS_STREAM = 2504  # seed of the generator behind the K4s and the line frameworks
BUDGETED = "BudgetExceeded"
OCTA_BUDGET = 150  # colourings each budgeted octahedron search examines
PROOF_K4S = 4  # rigid K4s refuted by `proof`, each also as its l1 image
LINE_SIZES = (8, 9)  # K_n on the line
CLI_K4S = 8  # rigid K4s in the CLI corpus, each also as its l1 image
MDD_N = 8  # K_n whose (2,2)-matroid connectivity is decided
RESTARTS = 3  # falsifier restarts per operation
COUNTS = ("colourings_examined", "leaves", "pruned_subtrees", "lp_runs", "isometric_skipped")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Plan:
    ops: list
    # results of one pass (label -> output, failed operations left out) -> errors
    check_pass: Callable[[dict], list] = lambda results: []
    # what must repeat exactly from pass to pass
    fingerprint: Callable[[dict], object] = lambda results: None


@dataclass
class Input:
    """A framework together with the bench's own copy of its data."""

    name: str
    kind: str  # "linf" or "l1"
    fw: object
    vertices: list = field(init=False)
    edges: list = field(init=False)
    positions: dict = field(init=False)

    def __post_init__(self):
        self.vertices = list(self.fw.graph.vertices)
        self.edges = list(self.fw.graph.edges)
        self.positions = {v: tuple(self.fw.positions[v]) for v in self.vertices}

    @property
    def faces(self):
        return checks.faces(self.kind, len(self.positions[self.vertices[0]]))

    def witness_error(self, witness):
        return checks.witness_error(self.faces, self.positions, witness, self.vertices, self.edges)


# -- inputs ---------------------------------------------------------------


def motion(rng, d, matrix="seeded"):
    """An isometry of linf and l1: a signed permutation (drawn from rng,
    given, or None for the identity) followed by a seeded integer translation."""
    if matrix == "seeded":
        matrix = rng.choice(checks.signed_permutations(d))
    shift = tuple(Fraction(rng.randint(-5, 5)) for _ in range(d))

    def move(x):
        y = checks.apply(matrix, x) if matrix else tuple(x)
        return tuple(a + b for a, b in zip(y, shift))

    return move


def moved(pr, fw, move):
    return pr.framework.Framework(fw.graph, fw.norm, {v: move(p) for v, p in fw.positions.items()})


def l1_image(pr, fw, l1):
    """The A^-1 image of a planar linf framework: the same edge lengths in l1."""
    return pr.framework.Framework(fw.graph, l1, {v: checks.a_inverse(p) for v, p in fw.positions.items()})


def first_rigid_k5s(pr, norm, count):
    """The first rigid K5 realisations of the library's seeded generator,
    generator seeds counted from 1."""
    g = pr.graph.complete_graph(list("abcde"))
    out, s = [], 0
    while len(out) < count:
        s += 1
        fw = pr.constructions.randomize_realisation(g, 2, norm, seed=s, denominator_bound=1000)
        if pr.framework.is_infinitesimally_rigid(fw):
            out.append(fw)
    return out


def random_rigid(pr, n, norm, rng, count, bound=100):
    """Rigid realisations of K_n drawn from rng, kept by the library's filter."""
    g = pr.graph.complete_graph([f"v{i}" for i in range(n)])
    d = norm.dim
    out = []
    while len(out) < count:
        positions = {
            v: tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(d))
            for v in g.vertices
        }
        fw = pr.framework.Framework(g, norm, positions)
        if pr.framework.is_well_positioned(fw) and pr.framework.is_infinitesimally_rigid(fw):
            out.append(fw)
    return out


def line_framework(pr, n, rng, bound=1000):
    """K_n on the line at n distinct rational points drawn from rng."""
    g = pr.graph.complete_graph([f"v{i}" for i in range(n)])
    xs = set()
    while len(xs) < n:
        xs.add(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)))
    return pr.framework.Framework(g, pr.norm.preset("linf", 1), {v: (x,) for v, x in zip(g.vertices, sorted(xs))})


def line_seeds(pr):
    """The gadget seeds: a path (not globally rigid on the line, since v2
    reflects through v1) and a generic triangle (globally rigid on the line)."""
    linf1 = pr.norm.preset("linf", 1)
    path = pr.framework.Framework(
        pr.graph.path_graph(["v0", "v1", "v2"]), linf1, {"v0": (0,), "v1": (1,), "v2": (3,)})
    triangle = pr.framework.Framework(
        pr.graph.complete_graph(["v0", "v1", "v2"]), linf1,
        {"v0": (0,), "v1": (Fraction(5, 17),), "v2": (Fraction(9, 11),)})
    return path, triangle


def write_framework(path, inp):
    doc = {
        "dim": len(inp.positions[inp.vertices[0]]),
        "norm": inp.kind,
        "vertices": inp.vertices,
        "edges": [[v, w] for v, w in inp.edges],
        "positions": {v: [str(x) for x in inp.positions[v]] for v in inp.vertices},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


# -- checks ---------------------------------------------------------------


def count_error(cert):
    """The search counters must add up: every colouring examined is a leaf
    or a pruned subtree, and every leaf is skipped as isometric or solved."""
    if "colourings_examined" not in cert:
        return None
    if cert["colourings_examined"] != cert["leaves"] + cert["pruned_subtrees"]:
        return f"colourings_examined != leaves + pruned_subtrees in {cert}"
    if cert["lp_runs"] != cert["leaves"] - cert["isometric_skipped"]:
        return f"lp_runs != leaves - isometric_skipped in {cert}"
    return None


def counts_of(cert):
    return tuple(cert.get(k) for k in COUNTS)


def verdict_error(inp, outcome, witness, cert, allowed):
    if outcome not in allowed:
        return f"{inp.name}: outcome {outcome}, expected one of {sorted(allowed)}"
    if outcome == NGR:
        why = inp.witness_error(witness)
        if why:
            return f"{inp.name}: {why}"
    why = count_error(cert)
    return why and f"{inp.name}: {why}"


def decide_op(pr, inp, allowed, budget=None, extra=None):
    def run():
        return pr.global_rigidity.decide_global_rigidity(inp.fw, budget=budget)

    def check(v):
        return verdict_error(inp, v.outcome, v.witness, v.certificate, allowed) or (extra(v) if extra else None)

    return Op(inp.name, run, check)


def equals(label, expected):
    return lambda r: None if r == expected else f"{label}: {r}, expected {expected}"


def search_fingerprint(results):
    return tuple((k, v.outcome, counts_of(v.certificate)) for k, v in results.items())


# -- workloads ------------------------------------------------------------
#
# Every operation is short (at most about 30 ms), so that a run of tens of
# seconds repeats each one many times and its fastest time is steady on a
# shared host; see README.md, "Steadiness".


def proof(pr, seed, workdir):
    """Exact searches: budgeted slices of the octahedron's proof tree in
    linf and in l1, K4 refutations in linf and l1, and complete proofs for
    K_n on the line."""
    rng = random.Random(seed)
    stream = random.Random(CORPUS_STREAM)
    linf2, l1 = pr.norm.preset("linf", 2), pr.norm.preset("l1", 2)
    # A budget cuts the tree after a fixed number of colourings, and a
    # refutation stops at its first witness, so which colourings they visit
    # depends on the face order.  The octahedron is not moved, and the K4s
    # are only translated, which keeps the face order.  With budget 150,
    # the linf octahedron's certificate breaks lp_runs = leaves -
    # isometric_skipped (the leaf that exhausts the budget is counted but
    # neither solved nor skipped), so that operation fails in every pass.
    octa = Input("octahedron", "linf", pr.constructions.build_octahedron())
    octa_l1 = Input("octahedron-l1", "l1", l1_image(pr, octa.fw, l1))
    k4s = []
    for i, fw in enumerate(random_rigid(pr, 4, linf2, stream, PROOF_K4S)):
        fw = moved(pr, fw, motion(rng, 2, matrix=None))
        k4s += [Input(f"k4-{i}", "linf", fw), Input(f"k4-{i}-l1", "l1", l1_image(pr, fw, l1))]
    # complete searches: a signed permutation only reorders the tree
    lines = {n: Input(f"line-k{n}", "linf", moved(pr, line_framework(pr, n, stream), motion(rng, 1)))
             for n in LINE_SIZES}

    # the paper: both colour classes 2-connected make the colouring strong,
    # and the octahedron is its globally rigid example, so no budgeted
    # search may find a witness
    classes = checks.colour_classes(octa.faces, octa.positions, octa.edges)
    octa_strong = all(checks.is_2_connected(octa.vertices, c) for c in classes)

    def budgeted(v):
        if not octa_strong:
            return "octahedron colour classes are not 2-connected"
        examined = v.certificate.get("colourings_examined")
        return None if examined == OCTA_BUDGET + 1 else f"{examined} colourings examined, budget {OCTA_BUDGET}"

    # K4 has no globally rigid realisation in the plane (nor, through A, in
    # l1 d=2), and all pairwise distances fix points on the line up to
    # congruence, so K_n on the line is globally rigid.
    ops = [decide_op(pr, inp, {BUDGETED}, budget=OCTA_BUDGET, extra=budgeted) for inp in (octa, octa_l1)]
    ops += [decide_op(pr, inp, {NGR}) for inp in k4s]
    ops += [decide_op(pr, lines[n], {GR}) for n in LINE_SIZES]

    def check_pass(results):
        errors = []
        for name in results:
            if name.endswith("-l1") and name[:-3] in results:
                a, b = results[name[:-3]], results[name]
                if a.outcome != b.outcome:
                    errors.append(f"{name[:-3]}: l1 image says {b.outcome}, linf says {a.outcome}")
        return errors

    return Plan(ops, check_pass=check_pass, fingerprint=search_fingerprint)


def cli_corpus(pr, seed, workdir):
    """`polyrigid global` and `polyrigid analyze` over framework files."""
    rng = random.Random(seed)
    linf2, l1 = pr.norm.preset("linf", 2), pr.norm.preset("l1", 2)
    c = pr.constructions
    inputs = []
    # The K4s come from one fixed stream and the seed only translates them:
    # a translation changes no search, so every seed does the same work.
    for i, fw in enumerate(random_rigid(pr, 4, linf2, random.Random(CORPUS_STREAM), CLI_K4S)):
        fw = moved(pr, fw, motion(rng, 2, matrix=None))
        inputs.append(Input(f"k4-{i:02d}", "linf", fw))
        inputs.append(Input(f"k4-{i:02d}-l1", "l1", l1_image(pr, fw, l1)))
    path_seed, _ = line_seeds(pr)
    inputs += [
        Input("k2d-2", "linf", c.build_k2d(2)),
        Input("flexible-k5", "linf",
              c.build_flexible_open(pr.graph.complete_graph([f"v{i}" for i in range(5)]), linf2)),
        Input("hypercube-2", "linf", c.build_hypercube(2)),
        Input("gadget-path", "linf", c.build_np_gadget(c.GadgetSpec(path_seed, 2)).framework),
    ]
    for inp in inputs:
        write_framework(os.path.join(workdir, inp.name + ".json"), inp)

    outcomes, fingerprints = {}, {}
    expectations = {}

    def expected(inp):
        """The verdict the paper predicts, from the independent checkers."""
        if inp.name not in expectations:
            d = len(inp.positions[inp.vertices[0]])
            if not checks.is_well_positioned(inp.faces, inp.positions, inp.edges):
                exp = NWP  # coordinate ties, as in the hypercube and the gadget
            elif checks.rigidity_rank(inp.faces, inp.positions, inp.vertices, inp.edges) < d * len(inp.vertices) - d:
                exp = NOT_RIGID  # collinear realisations are not rigid
            elif len(inp.vertices) == 4 and len(inp.edges) == 6:
                exp = NGR  # K4 has no globally rigid realisation in the plane
            else:
                raise ValueError(f"no expected verdict for {inp.name}")
            expectations[inp.name] = exp
        return expectations[inp.name]

    def report(out):
        with open(out) as fh:
            return json.load(fh)["results"]

    def global_check(inp, out):
        def check(code):
            if code != 0:
                return f"exit code {code}"
            exact = report(out)["exact"]
            witness = exact.get("witness_positions")
            witness = witness and {v: [Fraction(x) for x in xs] for v, xs in witness.items()}
            outcomes[inp.name] = exact["outcome"]
            fingerprints[inp.name] = (exact["outcome"], counts_of(exact["certificate"]))
            return verdict_error(inp, exact["outcome"], witness, exact["certificate"], {expected(inp)})
        return check

    analyses = {}

    def analysis(inp):
        """The checker's edge lengths, well-positionedness, rank and
        redundant rigidity, computed once per input."""
        if inp.name not in analyses:
            wp = checks.is_well_positioned(inp.faces, inp.positions, inp.edges)
            analyses[inp.name] = (
                checks.edge_lengths(inp.faces, inp.positions, inp.edges), wp,
                wp and checks.rigidity_rank(inp.faces, inp.positions, inp.vertices, inp.edges),
                wp and checks.is_redundantly_rigid(inp.faces, inp.positions, inp.vertices, inp.edges))
        return analyses[inp.name]

    def analyze_check(inp, out):
        def check(code):
            if code != 0:
                return f"exit code {code}"
            res = report(out)
            lengths, wp, rank, redundant = analysis(inp)
            if [Fraction(x) for x in res["edge_lengths"]] != lengths:
                return f"{inp.name}: edge lengths differ"
            if res["well_positioned"] != wp:
                return f"{inp.name}: well_positioned {res['well_positioned']}, expected {wp}"
            if wp:
                if res["rank"] != rank:
                    return f"{inp.name}: rank {res['rank']}, expected {rank}"
                if res["infinitesimally_rigid"] != (rank == res["rank_required"]):
                    return f"{inp.name}: infinitesimally_rigid disagrees with the rank"
                if res["redundantly_rigid"] != redundant:
                    return f"{inp.name}: redundantly_rigid {res['redundantly_rigid']}, expected {redundant}"
            return None
        return check

    def command_op(inp, command, check):
        """One operation: `polyrigid <command> <file> --out <report>`."""
        path = os.path.join(workdir, inp.name + ".json")
        out = os.path.join(workdir, f"{inp.name}.{command}.out.json")
        return Op(f"{command} {inp.name}", lambda: pr.cli.main([command, path, "--out", out]), check(inp, out))

    ops = [command_op(inp, command, check) for inp in inputs
           for command, check in (("global", global_check), ("analyze", analyze_check))]

    # outcomes and fingerprints are written by the checks of this pass for
    # every `global` label in results
    def check_pass(results):
        errors = []
        for label in results:
            if label.startswith("global ") and label.endswith("-l1") and label[:-3] in results:
                name = label[len("global "):]
                if outcomes[name[:-3]] != outcomes[name]:
                    errors.append(f"{name}: l1 image says {outcomes[name]}, linf says {outcomes[name[:-3]]}")
        return errors

    def fingerprint(results):
        return tuple((label, fingerprints[label[len("global "):]]) for label in results if label.startswith("global "))

    return Plan(ops, check_pass=check_pass, fingerprint=fingerprint)


def structure(pr, seed, workdir):
    """The non-search layers: isometry groups, congruence, sparsity,
    redundant rigidity and the falsifier."""
    rng = random.Random(seed)
    c, fwm = pr.constructions, pr.framework
    linf2 = pr.norm.preset("linf", 2)
    k2d3 = Input("k2d-3", "linf", c.build_k2d(3))
    # the norm of the congruence checks, with its group built here: a user
    # who checks many frameworks pays for the group once
    linf3 = pr.norm.preset("linf", 3)
    linf3.isometry_group()
    # a fixed signed permutation, so that congruence_check finds it after
    # the same number of group elements for every seed
    move = motion(rng, 3, matrix=checks.signed_permutations(3)[-1])
    moved3 = {v: move(p) for v, p in k2d3.positions.items()}
    nudged3 = dict(k2d3.positions)
    vertex = rng.choice(k2d3.vertices)
    nudged3[vertex] = (nudged3[vertex][0] + Fraction(1, rng.randint(50, 100)),) + nudged3[vertex][1:]
    k_mdd = pr.graph.complete_graph([f"v{i}" for i in range(MDD_N)])
    k30 = pr.graph.complete_graph([f"v{i}" for i in range(30)])
    octa = Input("octahedron", "linf", c.build_octahedron())
    k5s = [Input(f"k5-{i}", "linf", moved(pr, fw, motion(rng, 2)))
           for i, fw in enumerate(first_rigid_k5s(pr, linf2, 2))]
    path_seed, triangle_seed = line_seeds(pr)
    rigid_gadget = c.build_np_gadget(c.GadgetSpec(triangle_seed, 2))
    path_gadget = c.build_np_gadget(c.GadgetSpec(path_seed, 2))
    path_gadget_in = Input("gadget-path", "linf", path_gadget.framework)
    reflected = {v: tuple(path_gadget.seed.positions[v]) for v in path_gadget.seed.graph.vertices}
    reflected["v2"] = (2 * reflected["v1"][0] - reflected["v2"][0],)
    # a fixed falsifier seed: how soon a restart converges depends on it
    falsifier = pr.oracle.SearchParams(restarts=RESTARTS, steps=25, tolerance=1e-7, seed=99)

    def group_op(kind, d):
        # a freshly built norm, so that the group is computed, not cached
        def check(group):
            matrices = [T.matrix for T in group]
            perms = checks.signed_permutations(d)
            if len(matrices) != len(perms) or set(matrices) != set(perms):
                return f"{kind} d={d}: {len(matrices)} isometries, expected the {len(perms)} signed permutations"
            face_set = checks.faces(kind, d)
            for M in matrices:
                if {checks.apply(checks.transpose(M), f) for f in face_set} != face_set:
                    return f"{kind} d={d}: {M} does not permute the faces"
            return None

        return Op(f"isometry_group {kind}{d}", lambda: pr.norm.preset(kind, d).isometry_group(), check)

    def congruence_op(label, q):
        def run():
            return pr.oracle.congruence_check(fwm.Framework(k2d3.fw.graph, linf3, k2d3.positions), q)

        return Op(label, run, equals(label, checks.is_congruent(k2d3.positions, q, k2d3.vertices)))

    def redundant_op(inp):
        label = f"is_redundantly_rigid {inp.name}"
        return Op(label, lambda: pr.framework.is_redundantly_rigid(inp.fw),
                  equals(label, checks.is_redundantly_rigid(inp.faces, inp.positions, inp.vertices, inp.edges)))

    ops = [
        group_op("linf", 2),
        group_op("l1", 2),
        congruence_op("congruence_check k2d-3 moved", moved3),
        congruence_op("congruence_check k2d-3 nudged", nudged3),
        # K_n for n >= 5 is connected in the (2,2)-sparsity matroid, and
        # K_n with at least dn - d edges has (d,d)-rank dn - d
        Op(f"is_Mdd_connected K{MDD_N}", lambda: pr.sparsity.is_Mdd_connected(k_mdd, 2),
           equals(f"is_Mdd_connected K{MDD_N}", True)),
        Op("pebble_rank K30 (2,2)", lambda: pr.sparsity.pebble_rank(k30, pr.sparsity.SparsityParams(2, 2)),
           equals("pebble_rank K30 (2,2)", 2 * 30 - 2)),
        Op("pebble_rank K30 (3,3)", lambda: pr.sparsity.pebble_rank(k30, pr.sparsity.SparsityParams(3, 3)),
           equals("pebble_rank K30 (3,3)", 3 * 30 - 3)),
        *[redundant_op(inp) for inp in [octa, *k5s]],
        # the gadget is globally rigid exactly when its seed is
        Op("numeric_witness_search gadget-triangle",
           lambda: pr.oracle.numeric_witness_search(rigid_gadget.framework, falsifier),
           equals("numeric_witness_search gadget-triangle", None)),
        Op("lift_witness gadget-path", lambda: path_gadget.lift_witness(reflected),
           path_gadget_in.witness_error),
    ]
    return Plan(ops)


WORKLOADS = {
    "proof": proof,
    "cli-corpus": cli_corpus,
    "structure": structure,
}
