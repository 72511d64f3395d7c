"""Framework files: exact JSON serialisation of frameworks and graphs.

Rationals travel as strings ("9/10", "-1", "3"); the parser additionally
accepts finite decimals ("0.9") and converts them exactly, but the
serialiser always emits reduced fractions with positive denominators, so
generate -> parse -> serialise round-trips byte for byte.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache

from .errors import FrameworkFileError, PolyrigidError
from .framework import Framework
from .graph import Graph
from .norm import PolytopeNorm, preset


# "1e999999" builds, slowly, a million-digit integer that no report can
# write: refuse it before Fraction, reading five significant exponent digits
_EXPONENT, _MAX_EXPONENT = re.compile(r"[eE][-+]?([0-9_]*)\s*\Z"), 1000


def parse_rational(text, where=""):
    if type(text) is int:  # a JSON true is not 1
        return Fraction(text)
    if not isinstance(text, str):
        raise FrameworkFileError(
            f"{where}: rational values must be strings, got {type(text).__name__} "
            "(JSON floats are not exact)"
        )
    if (e := _EXPONENT.search(text)) and int(e[1].replace("_", "").lstrip("0")[:5] or 0) > _MAX_EXPONENT:
        raise FrameworkFileError(f"{where}: invalid rational {text!r}: exponent beyond ±{_MAX_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FrameworkFileError(f"{where}: invalid rational {text!r}: {exc}") from exc


def format_rational(value):
    return str(Fraction(value))


def _require(data, key, where):
    if key not in data:
        raise FrameworkFileError(f"{where}: missing field {key!r}")
    return data[key]


def _typed(value, kind, where):
    """value itself when it is a ``kind`` (list: a JSON array, dict: an
    object); a string is not a list of its characters."""
    if not isinstance(value, kind):
        raise FrameworkFileError(f"{where}: expected a {kind.__name__}, got {type(value).__name__}")
    return value


# one norm per (preset, dim) for the process, facet check and group paid once
_shared_preset = cache(preset)


def parse_norm(spec, dim):
    if spec == "linf" or spec == "l1":
        return _shared_preset(spec, dim)
    if isinstance(spec, dict) and "faces" in spec:
        faces = [
            [parse_rational(x, f"norm.faces[{i}]") for x in _typed(face, list, f"norm.faces[{i}]")]
            for i, face in enumerate(_typed(spec["faces"], list, "norm.faces"))
        ]
        try:
            return PolytopeNorm(dim, faces)
        except PolyrigidError as exc:
            raise FrameworkFileError(f"norm.faces: {exc}") from exc
    raise FrameworkFileError(
        f"norm: expected 'linf', 'l1' or {{'faces': [...]}}, got {spec!r}"
    )


def parse_graph_dict(data):
    vertices = _require(data, "vertices", "graph")
    edges = _require(data, "edges", "graph")
    if not isinstance(vertices, list) or not vertices or not all(isinstance(v, str) for v in vertices):
        raise FrameworkFileError("vertices: expected a non-empty list of identifier strings")
    if len(listed := set(vertices)) < len(vertices):
        raise FrameworkFileError(f"vertices: duplicate identifier {next(v for v in vertices if vertices.count(v) > 1)!r}")
    edges = [tuple(_typed(e, list, f"edges[{i}]")) for i, e in enumerate(_typed(edges, list, "edges"))]
    for i, e in enumerate(edges):
        if len(e) != 2:
            raise FrameworkFileError(f"edges[{i}]: expected two endpoints, got {len(e)}")
        if unknown := [x for x in e if not isinstance(x, str) or x not in listed]:
            raise FrameworkFileError(f"edges[{i}]: unknown vertex {unknown[0]!r}")
        if e[0] == e[1]:
            raise FrameworkFileError(f"edges[{i}]: self-loop at {e[0]!r}")
    return Graph(vertices, edges)


def parse_framework_dict(data):
    dim = _require(data, "dim", "framework")
    if type(dim) is not int or dim < 1:
        raise FrameworkFileError(f"dim: expected a positive integer, got {dim!r}")
    graph = parse_graph_dict(data)
    raw_positions = _typed(_require(data, "positions", "framework"), dict, "positions")
    positions = {}
    for v in graph.vertices:
        if v not in raw_positions:
            raise FrameworkFileError(f"positions: missing vertex {v!r}")
        coords = _typed(raw_positions[v], list, f"positions[{v!r}]")
        if len(coords) != dim:
            raise FrameworkFileError(
                f"positions[{v!r}]: expected {dim} coordinates, got {len(coords)}"
            )
        positions[v] = tuple(parse_rational(x, f"positions[{v!r}]") for x in coords)
    # the norm last: its facet check runs an LP per face, 2^dim of them in l1
    return Framework(graph, parse_norm(_require(data, "norm", "framework"), dim), positions)


def serialize_norm(norm: PolytopeNorm):
    if norm.is_linf:
        return "linf"
    if norm.is_l1:
        return "l1"
    return {"faces": [[format_rational(x) for x in f] for f in norm.faces]}


def serialize_framework(fw: Framework):
    return {
        "dim": fw.dim,
        "norm": serialize_norm(fw.norm),
        "vertices": list(fw.graph.vertices),
        "edges": [[v, w] for v, w in fw.graph.edges],
        "positions": {
            v: [format_rational(x) for x in fw.position(v)]
            for v in fw.graph.vertices
        },
    }


def serialize_positions(q, vertices):
    return {v: [format_rational(x) for x in q[v]] for v in vertices}


def dumps(data):
    return json.dumps(data, indent=2) + "\n"


def _read_json(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FrameworkFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FrameworkFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return _typed(data, dict, path)


def load_framework(path):
    return parse_framework_dict(_read_json(path))


def load_graph_or_framework(path):
    """Framework if the file has positions, bare graph otherwise."""
    data = _read_json(path)
    if "positions" in data:
        return parse_framework_dict(data)
    return parse_graph_dict(data)


def save(path, data):
    text = dumps(data)
    if path is None:
        print(text, end="")
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise FrameworkFileError(f"cannot write {path}: {exc}") from exc
