"""Command-line driver: analyze, global, sparsity, generate, witness.

Reports are JSON documents embedding the resolved input, so any run can
be reproduced from its own report.  Exit codes: 0 for any completed
verdict, 2 for parse or validation errors, 3 when a budget was exhausted
and --strict was requested.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from functools import cache

from . import __version__
from .errors import ParameterError, PolyrigidError
from . import fileformat as ff
from .framework import (
    edge_lengths,
    induced_colourings,
    is_well_positioned,
    induced_colouring,
    is_infinitesimally_rigid,
    monochromatic_subgraphs,
    rank_and_redundancy,
    rigid_rank,
)
from .graph import complete_graph, is_2_connected, is_connected
from .global_rigidity import (
    BUDGET_EXCEEDED,
    GLOBALLY_RIGID,
    certify_generic_global,
    decide_generic_global_linf2,
    decide_global_rigidity,
)
from .norm import preset
from .oracle import SearchParams, numeric_witness_search
from .sparsity import SparsityParams, edges_in_circuits, is_Mdd_connected, pebble_rank
from . import constructions


def _faces_to_json(faces):
    return [[ff.format_rational(x) for x in f] for f in faces]


def _report(command, input_doc, results, meta=None):
    doc = {"command": command, "input": input_doc, "results": results}
    if meta:
        doc["meta"] = meta
    return doc


def cmd_analyze(args):
    fw = ff.load_framework(args.file)
    t0 = time.perf_counter()
    wp = is_well_positioned(fw)
    results = {
        "well_positioned": wp,
        "edge_lengths": [ff.format_rational(x) for x in edge_lengths(fw)],
        "edge_face_candidates": [_faces_to_json(c) for c in induced_colourings(fw)],
    }
    if wp:
        phi = induced_colouring(fw)
        (rank, redundant), needed = rank_and_redundancy(fw), rigid_rank(fw)
        results.update(induced_colouring=_faces_to_json(phi), rank=rank, rank_required=needed,
                       infinitesimally_rigid=rank == needed, redundantly_rigid=redundant)
        if fw.norm.is_linf:
            results["monochromatic_classes"] = [
                {"edges": [[v, w] for v, w in sub.edges], "connected": is_connected(sub),
                 "two_connected": is_2_connected(sub)}
                for sub in monochromatic_subgraphs(fw.graph, phi, fw.dim)
            ]
    results["elapsed_seconds"] = round(time.perf_counter() - t0, 6)
    return _report("analyze", ff.serialize_framework(fw), results)


def _verdict_to_json(fw, verdict):
    cert = dict(verdict.certificate)
    if "witness_colouring" in cert:
        cert["witness_colouring"] = _faces_to_json(cert["witness_colouring"])
    doc = {
        "outcome": verdict.outcome,
        "generic_caveat": False,
        "certificate": cert,
    }
    if verdict.witness is not None:
        doc["witness_positions"] = ff.serialize_positions(
            verdict.witness, fw.graph.vertices
        )
    return doc


def cmd_global(args):
    if args.budget is not None and args.budget < 0:
        raise ParameterError(f"--budget must be at least 0, got {args.budget}")
    fw = ff.load_framework(args.file)
    t0 = time.perf_counter()
    fast_paths, verdict = [], None
    results = {"fast_paths": fast_paths, "exact": None}
    if not args.assume_generic:
        verdict = decide_global_rigidity(fw, budget=args.budget)
        results["exact"] = _verdict_to_json(fw, verdict)
    wp = is_well_positioned(fw)
    if fw.norm.is_linf and wp:
        strong = certify_generic_global(fw)
        fast_paths.append({
            "criterion": "strong colouring certificate (all colour classes 2-connected)",
            "holds": strong,
            "generic_caveat": True,
            "generic_verdict": GLOBALLY_RIGID if strong else None,
            "note": "certifies global rigidity of generic realisations sharing this colouring; "
            "silent about the converse",
        })
    if fw.dim == 2 and (fw.norm.is_linf or fw.norm.is_l1) and wp:
        # the exact verdict carries the rank; only --assume-generic makes one here
        rigid = is_infinitesimally_rigid(fw) if verdict is None else verdict.certificate["rank"] == rigid_rank(fw)
        holds = rigid and decide_generic_global_linf2(fw.graph)
        fast_paths.append({
            "criterion": "planar matroid-connectivity characterisation (rigid + (2,2)-sparsity-matroid connected)",
            "holds": holds,
            "generic_caveat": True,
            "generic_verdict": GLOBALLY_RIGID if holds else "NotGloballyRigid",
            "note": "exact for generic realisations; this input is rational, so read it with the generic caveat",
        })
    results["elapsed_seconds"] = round(time.perf_counter() - t0, 6)
    meta = {
        "budget": args.budget,
        "assume_generic": bool(args.assume_generic),
        "strict": bool(args.strict),
    }
    return _report("global", ff.serialize_framework(fw), results, meta)


def cmd_sparsity(args):
    obj = ff.load_graph_or_framework(args.file)
    graph = obj.graph if hasattr(obj, "graph") else obj
    params = SparsityParams(args.d, args.k)
    rank, m = pebble_rank(graph, params), len(graph.edges)
    results = {
        "d": args.d,
        "k": args.k,
        "vertex_count": len(graph.vertices),
        "edge_count": m,
        "rank": rank,
        "sparse": rank == m,  # the rank is |E| exactly when the graph is sparse
        "tight": rank == m == args.d * len(graph.vertices) - args.k,
    }
    if params.matroidal:
        results["edge_in_some_circuit"] = {
            f"{v}--{w}": inside for (v, w), inside in zip(graph.edges, edges_in_circuits(graph, params))
        }
    results["Mdd_connected"] = is_Mdd_connected(graph, args.d)
    input_doc = (
        ff.serialize_framework(obj)
        if hasattr(obj, "graph")
        else {"vertices": list(graph.vertices), "edges": [[v, w] for v, w in graph.edges]}
    )
    return _report("sparsity", input_doc, results)


def cmd_generate(args):
    kind = args.kind
    if kind == "octahedron":
        fw = constructions.build_octahedron()
    elif kind == "k2d":
        eps = ff.parse_rational(args.eps, "--eps") if args.eps else Fraction(1, 4)
        fw = constructions.build_k2d(args.d, eps=eps, n=args.n)
    elif kind == "hypercube":
        fw = constructions.build_hypercube(args.d)
    elif kind == "np-gadget":
        if not args.seed_file:
            raise ParameterError("np-gadget needs --seed-file with a 1-dimensional framework")
        seed_fw = ff.load_framework(args.seed_file)
        gadget = constructions.build_np_gadget(
            constructions.GadgetSpec(seed_fw, args.d)
        )
        fw = gadget.framework
    else:  # flexible or random
        if args.n is None:
            raise ParameterError(f"{kind} needs --n (for the complete graph K_n)")
        if args.n < 1:
            raise ParameterError(f"--n must be at least 1, got {args.n}")
        graph = complete_graph([f"v{i}" for i in range(1, args.n + 1)])
        norm = preset(args.norm, args.d)
        if kind == "flexible":
            fw = constructions.build_flexible_open(graph, norm)
        else:
            fw = constructions.randomize_realisation(
                graph, args.d, norm, seed=args.seed, denominator_bound=args.denominator_bound
            )
    return ff.serialize_framework(fw)


def cmd_witness(args):
    params = SearchParams(
        restarts=args.restarts, steps=args.steps, seed=args.seed
    )
    fw = ff.load_framework(args.file)
    t0 = time.perf_counter()
    witness = numeric_witness_search(fw, params)
    results = {
        "witness_found": witness is not None,
        "restarts": args.restarts,
        "elapsed_seconds": round(time.perf_counter() - t0, 6),
    }
    if witness is not None:
        results["witness_positions"] = ff.serialize_positions(
            witness, fw.graph.vertices
        )
        results["note"] = (
            "witness verified exactly: equal edge lengths, not congruent"
        )
    else:
        results["note"] = "no witness found within budget; this proves nothing"
    meta = {"seed": args.seed, "steps": args.steps}
    return _report("witness", ff.serialize_framework(fw), results, meta)


@cache
def build_parser():
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="polyrigid",
        description="Exact rigidity and global rigidity analysis of bar-joint "
        "frameworks in polyhedral normed spaces.",
    )
    parser.add_argument("--version", action="version", version=f"polyrigid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="well-positionedness, colouring, rank, rigidity")
    p.set_defaults(run=cmd_analyze)
    p.add_argument("file")

    p = sub.add_parser("global", help="decide global rigidity")
    p.set_defaults(run=cmd_global)
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=None,
                   help="max colourings to examine before giving up (0 cuts at the first)")
    p.add_argument("--assume-generic", action="store_true",
                   help="report only the generic fast-path verdicts")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if the exact engine exceeded its budget")

    p = sub.add_parser("sparsity", help="sparsity-matroid rank and connectivity")
    p.set_defaults(run=cmd_sparsity)
    p.add_argument("file", help="framework or bare-graph JSON file")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("generate", help="write a benchmark framework file")
    p.set_defaults(run=cmd_generate)
    p.add_argument("kind", choices=["k2d", "hypercube", "octahedron", "np-gadget",
                                    "flexible", "random"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--eps", default=None, help="rational in (0,1/2) for k2d")
    p.add_argument("--norm", choices=["linf", "l1"], default="linf")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seed-file", default=None, help="1-d framework file for np-gadget")
    p.add_argument("--denominator-bound", type=int, default=10**6)

    p = sub.add_parser("witness", help="numeric search for a non-congruent equivalent realisation")
    p.set_defaults(run=cmd_witness)
    p.add_argument("file")
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--steps", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report = args.run(args)
        ff.save(args.out, report)
    except PolyrigidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # only global has --strict; its exact verdict is None under --assume-generic
    exact = getattr(args, "strict", False) and report["results"]["exact"]
    return 3 if exact and exact["outcome"] == BUDGET_EXCEEDED else 0


if __name__ == "__main__":
    sys.exit(main())
