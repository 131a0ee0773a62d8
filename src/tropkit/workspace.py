"""Workspace files: graphs, divisors, systems, and tropical point sets.

A workspace is a single JSON document.  Graph workspaces carry vertices,
edges, named divisors, and named systems (lists of divisor names); point
workspaces carry a ground set with weights, named points, and named
generator sets.  One file may carry both blocks.

Rationals are JSON integers, or strings such as "-3", "5/3", the exact
decimal "1.5" or the exponent form "1e3" (``rational.as_fraction`` parses
them). JSON floats and booleans are rejected: the toolkit is exact.
Serialization is canonical; parsing a file, serializing it, and parsing
again yields the same workspace, and serialization output is byte-stable.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING

from . import _LAZY
from .errors import InputError
from .rational import as_fraction, rational_str

if TYPE_CHECKING:  # every layer loads on first use
    from .divisors import LinearSystem
    from .graphs import Divisor, GraphPoint, MetricGraph
    from .tropical import GroundSpace, TropGeneratorSet, TropPoint

__all__ = _LAZY["workspace"]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# parsing helpers


def _expect(data, types, what: str, location: str):
    if not isinstance(data, types):
        names = types.__name__ if isinstance(types, type) else \
            "/".join(t.__name__ for t in types)
        raise InputError(f"{what} must be a {names}, "
                         f"got {type(data).__name__}", location)
    return data


@contextmanager
def _located(location: str):
    """Re-raise an InputError that names no location at location."""
    try:
        yield
    except InputError as exc:
        if exc.location:
            raise
        raise InputError(str(exc), location) from None


def _name_lists(block, known: dict, what: str, kind: str, member: str,
                location: str) -> dict:
    """A systems or sets block: each entry, what, is a list of names in known."""
    out = {}
    for name in sorted(_expect(block, dict, f"{kind}s", location)):
        here = f"{location}.{name}"
        members = _expect(block[name], list, what, here)
        for m in members:
            if _expect(m, str, f"a {member} name", here) not in known:
                raise InputError(f"{kind} {name!r} references unknown {member} {m!r}", here)
        out[str(name)] = tuple(members)
    return out


def point_from_json(graph: MetricGraph, data, location: str) -> GraphPoint:
    """Graph point from {"vertex": name} or {"edge": id, "offset": r}."""
    _expect(data, dict, "a point", location)
    extra = set(data) - {"vertex", "edge", "offset"}
    if extra:
        raise InputError(f"unknown point fields: {sorted(extra)}", location)
    if "vertex" in data:
        if "edge" in data or "offset" in data:
            raise InputError("a point is either a vertex or an edge "
                             "position, not both", location)
        name = _expect(data["vertex"], str, "vertex", f"{location}.vertex")
        with _located(f"{location}.vertex"):
            return graph.vertex_point(name)
    if "edge" not in data or "offset" not in data:
        raise InputError("a point needs either \"vertex\" or both \"edge\" "
                         "and \"offset\"", location)
    eid = _expect(data["edge"], str, "edge id", f"{location}.edge")
    offset = as_fraction(data["offset"], f"{location}.offset")
    with _located(location):
        return graph.point(edge=eid, offset=offset)


def divisor_from_json(graph: MetricGraph, data, location: str) -> Divisor:
    """Divisor from [[point, coefficient], ...]."""
    _expect(data, list, "a divisor", location)
    pairs = []
    for i, entry in enumerate(data):
        here = f"{location}[{i}]"
        _expect(entry, list, "a divisor entry", here)
        if len(entry) != 2:
            raise InputError("a divisor entry is a [point, coefficient] "
                             "pair", here)
        point = point_from_json(graph, entry[0], here)
        coeff = as_fraction(entry[1], f"{here}[1]")
        pairs.append((point, coeff))
    from .graphs import Divisor
    return Divisor.of(graph, pairs)


def _trop_point(space: GroundSpace, data, location: str) -> TropPoint:
    """Tropical point from a list of one rational per ground element."""
    coords = _expect(data, list, "a point", location)
    if len(coords) != space.size:
        raise InputError("point dimension does not match the ground set", location)
    from .tropical import TropPoint
    return TropPoint.of([as_fraction(c, f"{location}[{i}]") for i, c in enumerate(coords)])


# ---------------------------------------------------------------------------
# the workspace


class Workspace:
    """Parsed workspace: at most one graph block and one point block."""

    def __init__(self):
        self.graph: MetricGraph | None = None
        self.graph_report: dict | None = None
        self.space: GroundSpace | None = None
        self.divisors: dict[str, Divisor] = {}
        self.systems: dict[str, tuple[str, ...]] = {}
        self.points: dict[str, TropPoint] = {}
        self.sets: dict[str, tuple[str, ...]] = {}
        self._system_cache: dict[str, LinearSystem] = {}

    def need_graph(self) -> MetricGraph:
        if self.graph is None:
            raise InputError("this workspace has no graph block")
        return self.graph

    def divisor(self, name: str) -> Divisor:
        return _named(self.divisors, name, "divisor", "divisors")

    def system(self, name: str) -> LinearSystem:
        names = _named(self.systems, name, "system", "systems")
        if name not in self._system_cache:
            from .divisors import LinearSystem
            gens = [self.divisor(d) for d in names]
            self._system_cache[name] = LinearSystem(self.need_graph(), gens)
        return self._system_cache[name]

    def need_space(self) -> GroundSpace:
        if self.space is None:
            raise InputError("this workspace has no point block")
        return self.space

    def point(self, name: str) -> TropPoint:
        return _named(self.points, name, "point", "points")

    def generator_set(self, name: str, mode: str = "lower") -> TropGeneratorSet:
        names = _named(self.sets, name, "point set", "sets")
        from .tropical import TropGeneratorSet
        return TropGeneratorSet.of([self.point(p) for p in names], mode)


def _named(table: dict, name: str, kind: str, location: str):
    """table[name], or an InputError at location that lists the known names."""
    if name not in table:
        raise InputError(f"unknown {kind} {name!r} (known: {sorted(table)})", location)
    return table[name]


def parse_workspace(data, location: str = "workspace") -> Workspace:
    """Validate and build a workspace from decoded JSON."""
    _expect(data, dict, "a workspace", location)
    known = {"schema_version", "vertices", "edges", "divisors", "systems",
             "ground", "weights", "points", "sets"}
    extra = set(data) - known
    if extra:
        raise InputError(f"unknown workspace fields: {sorted(extra)}",
                         location)
    version = data.get("schema_version")
    if version is None:
        raise InputError("missing schema_version", location)
    if version != SCHEMA_VERSION:
        raise InputError(f"unsupported schema_version {version!r}",
                         f"{location}.schema_version")

    ws = Workspace()
    has_graph = "vertices" in data or "edges" in data
    if has_graph:
        vertices = _expect(data.get("vertices", []), list, "vertices",
                           f"{location}.vertices")
        edges_raw = _expect(data.get("edges", []), list, "edges",
                            f"{location}.edges")
        edges = []
        for i, e in enumerate(edges_raw):
            here = f"{location}.edges[{i}]"
            _expect(e, dict, "an edge", here)
            missing = {"id", "tail", "head", "length"} - set(e)
            if missing:
                raise InputError(f"edge missing fields {sorted(missing)}",
                                 here)
            extra = set(e) - {"id", "tail", "head", "length"}
            if extra:
                raise InputError(f"unknown edge fields {sorted(extra)}", here)
            edges.append((
                _expect(e["id"], str, "edge id", f"{here}.id"),
                _expect(e["tail"], str, "edge tail", f"{here}.tail"),
                _expect(e["head"], str, "edge head", f"{here}.head"),
                as_fraction(e["length"], f"{here}.length"),
            ))
        from .graphs import mg_validate
        with _located(location):
            graph, report = mg_validate(
                [_expect(v, str, "a vertex name", f"{location}.vertices")
                 for v in vertices], edges)
        ws.graph, ws.graph_report = graph, report

        divisors = _expect(data.get("divisors", {}), dict, "divisors",
                           f"{location}.divisors")
        for name in sorted(divisors):
            ws.divisors[str(name)] = divisor_from_json(
                graph, divisors[name], f"{location}.divisors.{name}")
        ws.systems = _name_lists(data.get("systems", {}), ws.divisors, "a system",
                                 "system", "divisor", f"{location}.systems")
    elif "divisors" in data or "systems" in data:
        raise InputError("divisors and systems need a graph block",
                         location)

    has_points = "ground" in data or "points" in data
    if has_points:
        from .tropical import GroundSpace
        ground = _expect(data.get("ground"), list, "ground labels",
                         f"{location}.ground")
        labels = [_expect(x, str, "a ground label", f"{location}.ground")
                  for x in ground]
        weights = None
        if "weights" in data:
            raw = _expect(data["weights"], list, "weights",
                          f"{location}.weights")
            if len(raw) != len(labels):
                raise InputError("need exactly one weight per ground "
                                 "element", f"{location}.weights")
            weights = [as_fraction(w, f"{location}.weights[{i}]")
                       for i, w in enumerate(raw)]
        with _located(f"{location}.ground"):
            ws.space = GroundSpace.of(labels, weights)
        points = _expect(data.get("points", {}), dict, "points",
                         f"{location}.points")
        for name in sorted(points):
            ws.points[str(name)] = _trop_point(
                ws.space, points[name], f"{location}.points.{name}")
        ws.sets = _name_lists(data.get("sets", {}), ws.points, "a point set", "set",
                              "point", f"{location}.sets")
    elif "weights" in data or "sets" in data:
        raise InputError("weights and sets need a ground block", location)

    if not has_graph and not has_points:
        raise InputError("a workspace needs a graph block or a point block",
                         location)
    return ws


def load_workspace(path: str) -> Workspace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}", path) \
            from None
    try:
        data = json.loads(text, parse_float=_reject_float,
                          parse_int=lambda raw: _exact_int(raw, path))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc.msg}",
                         f"{path}:{exc.lineno}:{exc.colno}") from None
    return parse_workspace(data, path)


def _reject_float(text: str, location: str = "number"):
    """``parse_float`` hook for ``json.loads``: a float is an input error
    at location ("number" in a file, the flag name for inline JSON on the
    command line)."""
    raise InputError(
        f"floats are not accepted; write {text!r} as a \"p/q\" string",
        location)


def _exact_int(text: str, location: str) -> int:
    """``parse_int`` hook for ``json.loads``: an integer literal past the
    int digit limit is an input error at location (the file path, or the
    flag name for inline JSON on the command line)."""
    try:
        return int(text)
    except ValueError:
        raise InputError(f"integer literal of {len(text.lstrip('-'))} digits is past the "
                         f"{sys.get_int_max_str_digits()}-digit limit", location) from None


# ---------------------------------------------------------------------------
# canonical serialization


def to_jsonable(obj):
    """Canonical JSON-ready form of library values.

    Rationals become canonical strings, points and divisors their file
    encodings, sets and maps sorted containers, and records (graph edges
    and the tree layer's ``NamedTuple``s) maps of their ``_fields`` in field
    order. Used both by the workspace serializer and by command-line reports.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, float):
        return repr(obj)
    # no value of a layer exists before that layer is loaded
    tropical = sys.modules.get(f"{__package__}.tropical")
    if tropical is not None:
        if isinstance(obj, tropical.TropPoint):
            return [rational_str(c) for c in obj.coords]
        if isinstance(obj, tropical.TropGeneratorSet):
            return {"mode": obj.mode,
                    "points": [to_jsonable(p) for p in obj.points]}
    graphs = sys.modules.get(f"{__package__}.graphs")
    if graphs is not None:
        if isinstance(obj, graphs.GraphPoint):
            if obj.is_vertex:
                return {"vertex": obj.vertex}
            return {"edge": obj.edge, "offset": rational_str(obj.offset)}
        if isinstance(obj, graphs.Divisor):
            return [[to_jsonable(p), rational_str(c)] for p, c in obj.items()]
        if isinstance(obj, graphs.ClosedSubset):
            return {
                "vertices": sorted(obj.vertices),
                "intervals": {
                    eid: [[rational_str(a), rational_str(b)] for a, b in segs]
                    for eid, segs in sorted(obj.intervals.items())},
            }
    if isinstance(obj, frozenset):
        return sorted(to_jsonable(x) for x in obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "_fields"):
        return {name: to_jsonable(getattr(obj, name)) for name in obj._fields}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    return str(obj)


def serialize_workspace(ws: Workspace) -> dict:
    """Canonical file form of a workspace."""
    out: dict = {"schema_version": SCHEMA_VERSION}
    if ws.graph is not None:
        out["vertices"], out["edges"] = to_jsonable(ws.graph.given)
        out["divisors"] = {name: to_jsonable(d)
                           for name, d in sorted(ws.divisors.items())}
        out["systems"] = {name: list(members)
                          for name, members in sorted(ws.systems.items())}
    if ws.space is not None:
        out["ground"] = list(ws.space.labels)
        out["weights"] = [rational_str(w) for w in ws.space.weights]
        out["points"] = {name: to_jsonable(p)
                         for name, p in sorted(ws.points.items())}
        out["sets"] = {name: list(members)
                       for name, members in sorted(ws.sets.items())}
    return out


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"
