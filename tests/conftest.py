import random
from fractions import Fraction

import pytest

from polyrigid import (
    Framework,
    build_octahedron,
    complete_graph,
    induced_colouring,
    is_infinitesimally_rigid,
    is_well_positioned,
    preset,
    randomize_realisation,
)


@pytest.fixture(scope="session")
def linf1():
    return preset("linf", 1)


@pytest.fixture(scope="session")
def linf2():
    return preset("linf", 2)


@pytest.fixture(scope="session")
def linf3():
    return preset("linf", 3)


@pytest.fixture(scope="session")
def l1_2():
    return preset("l1", 2)


@pytest.fixture(scope="session")
def octahedron():
    return build_octahedron()


def rigid_random_realisations(graph, norm, count, start_seed=1, denominator_bound=1000):
    """First ``count`` seeds whose random realisation is infinitesimally
    rigid; deterministic and shared by several tests."""
    out = []
    seed = start_seed
    while len(out) < count:
        fw = randomize_realisation(
            graph, norm.dim, norm, seed=seed, denominator_bound=denominator_bound
        )
        if is_infinitesimally_rigid(fw):
            out.append((seed, fw))
        seed += 1
    return out


def colouring_preserving_perturbations(octahedron, count, seed=71):
    """``count`` copies of the octahedron, each with one coordinate moved by
    less than 10^-3, that stay well positioned with its induced colouring;
    deterministic (acceptance criterion 11's inputs)."""
    base_phi = induced_colouring(octahedron)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        vertex = octahedron.graph.vertices[rng.randrange(6)]
        coord = rng.randrange(2)
        delta = Fraction(rng.randint(-9, 9), 10_000 + rng.randint(0, 99))
        if delta == 0:
            continue
        pos = dict(octahedron.positions)
        p = list(pos[vertex])
        p[coord] += delta
        pos[vertex] = tuple(p)
        nudged = octahedron.with_positions(pos)
        if is_well_positioned(nudged) and induced_colouring(nudged) == base_phi:
            out.append(nudged)
    return out


def l1_image(fw):
    """The A^-1 image of a planar linf framework: the same edge lengths in l1."""
    return Framework(
        fw.graph,
        preset("l1", 2),
        {v: ((x + y) / 2, (x - y) / 2) for v, (x, y) in fw.positions.items()},
    )


@pytest.fixture(scope="session")
def rigid_k4_linf2(linf2):
    return rigid_random_realisations(complete_graph(["a", "b", "c", "d"]), linf2, 20)


@pytest.fixture(scope="session")
def rigid_k5_linf2(linf2):
    return rigid_random_realisations(complete_graph(list("abcde")), linf2, 20)
