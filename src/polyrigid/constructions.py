"""Generators for the benchmark frameworks used throughout.

Each constructor returns exact rational data: the rigid complete-graph
realisations built from a basis-plus-epsilon pattern, the full hypercube
(complete graph on all sign vectors, every distance 2), the octahedron
realisation whose two colour classes are 2-connected, the dimension-lift
gadget that embeds a line framework rigidly into a higher-dimensional
hypercube-ball norm, deliberately flexible realisations, coordinate
projections, and seeded pseudo-random realisations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import ParameterError
from .framework import Framework, is_well_positioned
from .graph import Graph, complete_graph, is_connected
from .norm import PolytopeNorm, preset


def build_k2d(d, eps=Fraction(1, 4), n=None):
    """Rigid realisation of the complete graph K_2d in the d-dimensional
    hypercube-ball norm, extended to n >= 2d vertices by origin vertices
    tied to the first d.

    Vertex i sits at (0,...,0,1,eps,...,eps) with the 1 in slot i and
    vertex -i at the negation; for n > 2d, extra vertices at the origin
    are joined to vertices 1..d only.  Every edge difference has a unique
    maximal coordinate, so the framework is well-positioned throughout.
    """
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ParameterError("eps must lie strictly between 0 and 1/2")
    if d < 1:
        raise ParameterError("dimension must be positive")
    if n is None:
        n = 2 * d
    if n < 2 * d:
        raise ParameterError(f"n must be at least {2 * d}")
    core = [str(i) for i in range(1, d + 1)] + [str(-i) for i in range(1, d + 1)]
    extras = [str(i) for i in range(d + 1, n - d + 1)]
    vertices = core + extras
    edges = [
        (core[i], core[j]) for i in range(2 * d) for j in range(i + 1, 2 * d)
    ]
    for w in extras:
        for v in core[:d]:
            edges.append((v, w))
    positions = {}
    for i in range(1, d + 1):
        coords = [Fraction(0)] * (i - 1) + [Fraction(1)] + [eps] * (d - i)
        positions[str(i)] = tuple(coords)
        positions[str(-i)] = tuple(-x for x in coords)
    for w in extras:
        positions[w] = tuple([Fraction(0)] * d)
    return Framework(Graph(vertices, edges), preset("linf", d), positions)


def build_hypercube(d):
    """Complete graph on all of {-1,1}^d in the hypercube-ball norm.

    All pairwise distances equal 2 and the realisation is as large as an
    equilateral set in this norm can be; once d >= 2 it is not
    well-positioned (coordinate ties abound)."""
    if d < 1:
        raise ParameterError("dimension must be positive")
    points = list(product((1, -1), repeat=d))
    names = ["c" + "".join("+" if s > 0 else "-" for s in pt) for pt in points]
    positions = {
        name: tuple(Fraction(s) for s in pt) for name, pt in zip(names, points)
    }
    return Framework(complete_graph(names), preset("linf", d), positions)


def build_octahedron():
    """The 6-vertex octahedron realisation whose colour classes are both
    2-connected: the smallest redundantly rigid framework in the planar
    hypercube-ball norm."""
    names = ["v-1", "v-2", "v-3", "v1", "v2", "v3"]
    value = {
        "v-1": (0, Fraction(9, 10)),
        "v-2": (1, 0),
        "v-3": (0, 0),
        "v1": (1, Fraction(9, 10)),
        "v2": (1, Fraction(9, 5)),
        "v3": (0, Fraction(9, 5)),
    }
    label = {"v-1": -1, "v-2": -2, "v-3": -3, "v1": 1, "v2": 2, "v3": 3}
    edges = []
    for i in range(6):
        for j in range(i + 1, 6):
            a, b = names[i], names[j]
            if abs(label[a]) != abs(label[b]):
                edges.append((a, b))
    positions = {v: tuple(Fraction(x) for x in value[v]) for v in names}
    return Framework(Graph(names, edges), preset("linf", 2), positions)


@dataclass(frozen=True)
class GadgetSpec:
    """Input to the dimension-lift gadget.

    seed: a connected 1-dimensional framework with at least one edge of
    nonzero length; dim: the target dimension.
    """

    seed: Framework
    dim: int


@dataclass
class NpGadget:
    framework: Framework
    seed: Framework          # the normalised 1-dimensional seed
    v0: str
    v1: str
    lam: Fraction            # separation of v0 and v1 after normalisation
    scale: Fraction

    def lift_witness(self, q):
        """Embed an equivalent realisation of the normalised seed.

        The input is translated (and reflected through the pin point if
        necessary) so that v0 sits at 1 and v1 at 1 + lam, then padded
        with zeros and combined with the sign vectors held fixed.
        """
        vals = {}
        for v in self.seed.graph.vertices:
            x = q[v]
            vals[v] = Fraction(x[0]) if isinstance(x, (tuple, list)) else Fraction(x)
        shift = 1 - vals[self.v0]
        vals = {v: x + shift for v, x in vals.items()}
        if vals[self.v1] < 1:
            vals = {v: 2 - x for v, x in vals.items()}
        if vals[self.v1] != 1 + self.lam:
            raise ParameterError("realisation is not equivalent to the normalised seed")
        d = self.framework.dim
        lifted = {}
        for v in self.framework.graph.vertices:
            if v in vals:
                lifted[v] = tuple([vals[v]] + [Fraction(0)] * (d - 1))
            else:
                lifted[v] = self.framework.position(v)
        return lifted


def build_np_gadget(spec: GadgetSpec):
    """The dimension-lift construction: a 1-dimensional framework becomes a
    framework in the d-dimensional hypercube-ball norm, to which a seed's
    witness lifts (``NpGadget.lift_witness``).  Not conversely, as
    ``test_k3_seed_gadget_is_not_globally_rigid`` shows.

    The seed is normalised so its reference edge runs from 1 to 1 + lam
    (lam > 0) and contracted about 1 until every vertex is within
    1/(2|E|) of 1.  The gadget adds the complete graph on all sign
    vectors S = {-1,1}^d, joins both reference vertices to all of S, and
    joins every seed vertex to the vectors with first coordinate +1.
    """
    seed = spec.seed
    d = spec.dim
    if seed.dim != 1:
        raise ParameterError("gadget seed must be 1-dimensional")
    if d < 1:
        raise ParameterError("target dimension must be positive")
    if not is_connected(seed.graph):
        raise ParameterError("gadget seed must be connected")
    ref = None
    for e in seed.graph.edges:
        if seed.edge_vector(e)[0] != 0:
            ref = e
            break
    if ref is None:
        raise ParameterError("gadget seed has no edge of nonzero length")
    v0, v1 = ref
    m = len(seed.graph.edges)
    base = seed.position(v0)[0]
    maxdev = max(abs(seed.position(v)[0] - base) for v in seed.graph.vertices)
    s = Fraction(1, 4 * m) / maxdev
    sigma = 1 if seed.position(v1)[0] > base else -1
    norm_positions = {
        v: (1 + s * sigma * (seed.position(v)[0] - base),)
        for v in seed.graph.vertices
    }
    seed_norm = Framework(seed.graph, seed.norm, norm_positions)
    lam = norm_positions[v1][0] - 1

    signs = list(product((-1, 1), repeat=d))
    s_names = {
        pt: "s" + "".join("+" if c > 0 else "-" for c in pt) for pt in signs
    }
    s_plus = [pt for pt in signs if pt[0] == 1]
    vertices = list(seed.graph.vertices) + [s_names[pt] for pt in signs]
    edges = list(seed.graph.edges)
    for i in range(len(signs)):
        for j in range(i + 1, len(signs)):
            edges.append((s_names[signs[i]], s_names[signs[j]]))
    for pt in signs:
        edges.append((v0, s_names[pt]))
        edges.append((v1, s_names[pt]))
    for v in seed.graph.vertices:
        for pt in s_plus:
            edges.append((v, s_names[pt]))
    positions = {}
    for v in seed.graph.vertices:
        positions[v] = tuple([norm_positions[v][0]] + [Fraction(0)] * (d - 1))
    for pt in signs:
        positions[s_names[pt]] = tuple(Fraction(c) for c in pt)
    fw = Framework(Graph(vertices, edges), preset("linf", d), positions)
    return NpGadget(fw, seed_norm, v0, v1, lam, s)


_SMOOTH_TRIALS = (
    (1, 3), (1, 5), (2, 7), (3, 11), (1, 7), (5, 13), (3, 7), (2, 11)
)


def build_flexible_open(g: Graph, norm: PolytopeNorm):
    """A well-positioned but flexible realisation: all vertices on one ray.

    Every edge difference is a multiple of the same smooth direction, so
    one face colours every edge and the colouring matrix cannot exceed
    rank |V| - 1 < d|V| - d for d >= 2."""
    if norm.dim < 2:
        raise ParameterError("flexible construction needs dimension at least 2")
    if len(g.vertices) < 2:
        raise ParameterError("flexible construction needs at least 2 vertices")
    direction = None
    for num, den in _SMOOTH_TRIALS:
        r = Fraction(num, den)
        x = tuple(r**i for i in range(norm.dim))
        if norm.is_smooth_point(x):
            direction = x
            break
    if direction is None:
        rng = random.Random(738)
        for _ in range(1000):
            x = tuple(Fraction(rng.randint(1, 997), rng.randint(1, 997)) for _ in range(norm.dim))
            if any(v != 0 for v in x) and norm.is_smooth_point(x):
                direction = x
                break
    if direction is None:
        raise ParameterError("could not find a smooth rational direction")
    positions = {
        v: tuple((j + 1) * c for c in direction) for j, v in enumerate(g.vertices)
    }
    return Framework(g, norm, positions)


def project_framework(fw: Framework):
    """Drop the last coordinate of a hypercube-ball framework."""
    if not fw.norm.is_linf:
        raise ParameterError("projection is defined for the linf preset norm")
    if fw.dim < 2:
        raise ParameterError("projection needs dimension at least 2")
    lower = preset("linf", fw.dim - 1)
    positions = {v: p[:-1] for v, p in fw.positions.items()}
    return Framework(fw.graph, lower, positions)


def randomize_realisation(g: Graph, d, norm: PolytopeNorm, seed, denominator_bound=10**6):
    """Seeded pseudo-random rational realisation, retried (up to 200 draws)
    until well-positioned.  Same arguments, same output."""
    if denominator_bound < 2:
        raise ParameterError("denominator bound must be at least 2")
    if norm.dim != d:
        raise ParameterError("norm dimension disagrees with d")
    rng = random.Random(seed)
    for _ in range(200):
        positions = {
            v: tuple(
                Fraction(rng.randint(-denominator_bound, denominator_bound),
                         rng.randint(1, denominator_bound))
                for _ in range(d)
            )
            for v in g.vertices
        }
        fw = Framework(g, norm, positions)
        if is_well_positioned(fw):
            return fw
    raise ParameterError("failed to find a well-positioned realisation within the retry limit")
