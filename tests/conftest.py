import pytest

from polyrigid import (
    Framework,
    build_octahedron,
    complete_graph,
    is_infinitesimally_rigid,
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
