"""Golden CLI replay: stored ``analyze``, ``global`` (plain and with
``--assume-generic``) and ``sparsity`` reports.

Each input in ``tests/data/golden`` has one stored report per command,
written by the CLI with ``elapsed_seconds`` masked; the replay must
reproduce them byte for byte.  A change that alters a report on purpose
regenerates them with ``python tests/test_golden.py`` and says why.
"""

import re
import sys
from pathlib import Path

import pytest

from polyrigid.cli import main

DATA = Path(__file__).parent / "data" / "golden"

COMMANDS = {
    "analyze": lambda name: ["analyze"],
    "global": lambda name: ["global"],
    "global-generic": lambda name: ["global", "--assume-generic"],
    "sparsity": lambda name: ["sparsity", "--d", "2", "--k", "2"],
    "sparsity-d2k3": lambda name: ["sparsity", "--d", "2", "--k", "3"],
    "sparsity-d1k1": lambda name: ["sparsity", "--d", "1", "--k", "1"],
}

_ELAPSED = re.compile(r'"elapsed_seconds": [-+.0-9e]+')


def _report(name, command, out):
    argv = COMMANDS[command](name)
    assert main([argv[0], str(DATA / f"{name}.json"), *argv[1:], "--out", str(out)]) == 0
    return _ELAPSED.sub('"elapsed_seconds": 0', out.read_text())


def _cases():
    names = sorted(p.stem for p in DATA.glob("*.json") if "." not in p.stem)
    return [(name, command) for name in names for command in COMMANDS]


@pytest.mark.parametrize("name,command", _cases())
def test_golden_report(name, command, tmp_path):
    expected = (DATA / f"{name}.{command}.json").read_text()
    assert _report(name, command, tmp_path / "out.json") == expected


def _inputs():
    """The corpus: seeded linf K4s and K5s, their l1 images, k2d, a
    flexible K4 and the octahedron."""
    from polyrigid import (
        build_flexible_open,
        build_k2d,
        build_octahedron,
        complete_graph,
        preset,
        randomize_realisation,
    )

    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import l1_image

    linf2 = preset("linf", 2)
    k4, k5 = complete_graph(list("abcd")), complete_graph(list("abcde"))
    fws = {}
    # infinitesimally rigid seeds: K4s refuted, one K5 proved, one refuted
    for graph, label, seeds in ((k4, "k4", (49, 125)), (k5, "k5", (35, 130))):
        for seed in seeds:
            fw = randomize_realisation(graph, 2, linf2, seed=seed, denominator_bound=1000)
            fws[f"linf_{label}_s{seed}"] = fw
            fws[f"l1_{label}_s{seed}"] = l1_image(fw)
    fws["k2d_d2"] = build_k2d(2)
    fws["flexible_k4"] = build_flexible_open(k4, linf2)
    fws["octahedron"] = build_octahedron()
    return fws


def regenerate():
    """Rewrite each corpus file and report whose bytes changed, and print
    its path."""
    from tempfile import TemporaryDirectory
    from polyrigid.fileformat import dumps, serialize_framework

    DATA.mkdir(parents=True, exist_ok=True)

    def store(path, text):
        if not path.exists() or path.read_text() != text:
            print(path.relative_to(DATA.parents[2]))
            path.write_text(text)

    with TemporaryDirectory() as tmp:
        for name, fw in _inputs().items():
            store(DATA / f"{name}.json", dumps(serialize_framework(fw)))
            for command in COMMANDS:
                store(DATA / f"{name}.{command}.json", _report(name, command, Path(tmp) / "out.json"))


if __name__ == "__main__":
    regenerate()
