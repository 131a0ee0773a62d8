"""Compact connected metric graphs and exact piecewise-linear calculus.

A graph is a finite set of vertices joined by edges of positive rational
length; parallel edges are allowed, and loop edges are split at their
midpoint on construction so every edge the solvers see has two distinct
endpoints. Points are either vertices or interior positions (edge, offset).

The module provides piecewise-linear functions with rational breakpoints,
their divisors (sum of incoming slopes at every point), closed subsets as
per-edge interval systems, exact electrical potentials (Kirchhoff solves
over the rationals), and the derived influence functions and resistances.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError
from .tropical import as_fraction

_ZERO = Fraction(0)

__all__ = [
    "Edge",
    "MetricGraph",
    "GraphPoint",
    "PLFunction",
    "Divisor",
    "ClosedSubset",
    "mg_validate",
    "mg_distance",
    "mg_potential",
    "mg_jfunction",
    "mg_resistance",
    "pl_eval",
    "pl_div",
    "pl_extremum_set",
    "pl_integral",
]


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    length: Fraction


@dataclass(frozen=True)
class GraphPoint:
    """A point of the graph: a vertex, or an interior position on an edge."""

    vertex: str | None = None
    edge: str | None = None
    offset: Fraction | None = None

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def key(self) -> tuple:
        if self.is_vertex:
            return ("v", self.vertex, _ZERO)
        return ("e", self.edge, self.offset)

    def __str__(self) -> str:
        if self.is_vertex:
            return self.vertex
        return f"{self.edge}@{self.offset}"


class MetricGraph:
    """Validated compact connected metric graph."""

    def __init__(self, vertices: Sequence[str], edges: Sequence[Edge],
                 loop_aliases: dict | None = None):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        # original loop edge id -> (first half id, second half id, half length)
        self.loop_aliases: dict[str, tuple[str, str, Fraction]] = loop_aliases or {}
        self.edge_map: dict[str, Edge] = {e.id: e for e in self.edges}
        self._validate()
        self.incidence: dict[str, tuple[tuple[str, int], ...]] = self._build_incidence()
        self.total_length: Fraction = sum((e.length for e in self.edges), Fraction(0))

    # -- construction ------------------------------------------------------

    @classmethod
    def of(cls, vertices: Iterable[str], edges: Iterable) -> "MetricGraph":
        """Build from (id, tail, head, length) tuples, splitting loops."""
        verts = [str(v) for v in vertices]
        out: list[Edge] = []
        aliases: dict[str, tuple[str, str, Fraction]] = {}
        for entry in edges:
            eid, tail, head, length = entry
            length = as_fraction(length)
            if length <= 0:
                raise InputError(f"edge {eid!r} must have positive length")
            if tail == head:
                mid = f"{eid}:mid"
                if mid in verts:
                    raise InputError(f"vertex name {mid!r} collides with loop split")
                verts.append(mid)
                half = length / 2
                out.append(Edge(f"{eid}:a", tail, mid, half))
                out.append(Edge(f"{eid}:b", mid, head, half))
                aliases[str(eid)] = (f"{eid}:a", f"{eid}:b", half)
            else:
                out.append(Edge(str(eid), str(tail), str(head), length))
        return cls(verts, out, aliases)

    def _validate(self) -> None:
        if not self.vertices:
            raise InputError("graph needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("vertex names must be distinct")
        if len(self.edge_map) != len(self.edges):
            raise InputError("edge ids must be distinct")
        if not self.edges:
            raise InputError("graph needs at least one edge")
        vs = set(self.vertices)
        for e in self.edges:
            if e.tail not in vs or e.head not in vs:
                raise InputError(f"edge {e.id!r} references an unknown vertex")
            if e.tail == e.head:
                raise InputError(f"edge {e.id!r} is a loop after normalization")
            if e.length <= 0:
                raise InputError(f"edge {e.id!r} must have positive length")
        # connectivity
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            adj[e.tail].add(e.head)
            adj[e.head].add(e.tail)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != vs:
            raise InputError("graph must be connected")

    def _build_incidence(self) -> dict[str, tuple[tuple[str, int], ...]]:
        inc: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            inc[e.tail].append((e.id, 0))
            inc[e.head].append((e.id, 1))
        return {v: tuple(arms) for v, arms in inc.items()}

    @property
    def genus(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    # -- points ------------------------------------------------------------

    def point(self, vertex: str | None = None, edge: str | None = None,
              offset=None) -> GraphPoint:
        """Build a normalized point (endpoint offsets collapse to vertices)."""
        if vertex is not None:
            if vertex not in self.incidence:
                raise InputError(f"unknown vertex {vertex!r}")
            return GraphPoint(vertex=vertex)
        if edge is None or offset is None:
            raise InputError("a point needs a vertex, or an edge and an offset")
        offset = as_fraction(offset)
        if edge in self.loop_aliases:
            a, b, half = self.loop_aliases[edge]
            if offset <= half:
                edge = a
            else:
                edge, offset = b, offset - half
        e = self.edge_map.get(edge)
        if e is None:
            raise InputError(f"unknown edge {edge!r}")
        if not (0 <= offset <= e.length):
            raise InputError(f"offset {offset} outside [0, {e.length}] on edge {edge!r}")
        if offset == 0:
            return GraphPoint(vertex=e.tail)
        if offset == e.length:
            return GraphPoint(vertex=e.head)
        return GraphPoint(edge=edge, offset=offset)

    def vertex_point(self, name: str) -> GraphPoint:
        return self.point(vertex=name)


def mg_validate(vertices: Iterable[str], edges: Iterable):
    """Construct and validate a graph; returns (graph, report)."""
    g = MetricGraph.of(vertices, edges)
    report = {
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "genus": g.genus,
        "total_length": g.total_length,
        "loops_subdivided": sorted(g.loop_aliases),
        "connected": True,
    }
    return g, report


# ---------------------------------------------------------------------------
# piecewise-linear functions
# ---------------------------------------------------------------------------

class PLFunction:
    """Continuous piecewise-linear function with rational breakpoints.

    data maps every edge id to a tuple of (offset, value) breakpoints with
    strictly increasing offsets running from 0 to the edge length; values
    at shared vertices must agree across edges. slopes maps every edge id
    to the slopes of its segments, each an int when integral and else a
    Fraction; consecutive slopes differ, as no breakpoint is kept where the
    slope does not change.

    Instances are immutable, so min_value, max_value, integral and
    extremum_set("min") are computed on first use and kept. The cached
    minimizer set is returned to every caller and shared with the
    certificates that include it: do not mutate it.
    """

    __slots__ = ("graph", "data", "slopes", "vertex_values",
                 "_min", "_max", "_integral", "_min_set")

    def __init__(self, graph: MetricGraph, data: dict):
        self._min = self._max = self._integral = self._min_set = None
        self.graph = graph
        raw = {eid: tuple((as_fraction(o), as_fraction(v)) for o, v in bps)
               for eid, bps in data.items()}
        self._validate(raw)
        self.data, self.slopes = {}, {}
        for eid, bps in raw.items():
            self.data[eid], self.slopes[eid] = _slope_form(bps)
        self.vertex_values = {v: None for v in graph.vertices}
        for e in graph.edges:
            bps = self.data[e.id]
            for vname, val in ((e.tail, bps[0][1]), (e.head, bps[-1][1])):
                known = self.vertex_values[vname]
                if known is None:
                    self.vertex_values[vname] = val
                elif known != val:
                    raise InputError(f"discontinuity at vertex {vname!r}")

    @classmethod
    def _of_valid(cls, graph: MetricGraph, data: dict, slopes: dict) -> "PLFunction":
        """Wrap exact data and slopes that hold every invariant __init__ sets,
        as operations on valid functions leave them: no coercion, no checks."""
        f = object.__new__(cls)
        f._min = f._max = f._integral = f._min_set = None
        f.graph = graph
        f.data, f.slopes = data, slopes
        f.vertex_values = dict.fromkeys(graph.vertices)
        for e in graph.edges:
            bps = data[e.id]
            f.vertex_values[e.tail] = bps[0][1]
            f.vertex_values[e.head] = bps[-1][1]
        return f

    def _validate(self, data: dict) -> None:
        for e in self.graph.edges:
            bps = data.get(e.id)
            if not bps:
                raise InputError(f"missing data for edge {e.id!r}")
            offs = [o for o, _ in bps]
            if offs[0] != 0 or offs[-1] != e.length:
                raise InputError(f"breakpoints of edge {e.id!r} must span [0, length]")
            if any(a >= b for a, b in zip(offs, offs[1:])):
                raise InputError(f"breakpoints of edge {e.id!r} must increase")
        if set(data) != set(self.graph.edge_map):
            raise InputError("function must cover exactly the graph's edges")

    # -- evaluation --------------------------------------------------------

    @classmethod
    def constant(cls, graph: MetricGraph, value) -> "PLFunction":
        value = as_fraction(value)
        return cls._of_valid(graph, {e.id: ((_ZERO, value), (e.length, value))
                                     for e in graph.edges}, dict.fromkeys(graph.edge_map, (0,)))

    @classmethod
    def from_node_values(cls, graph: MetricGraph, vertex_vals: dict,
                         cuts: dict | None = None) -> "PLFunction":
        """Linear on each edge segment between vertices and given cut points.

        cuts maps edge id to a list of (interior offset, value) pairs.
        """
        cuts = cuts or {}
        data = {}
        for e in graph.edges:
            mids = sorted(cuts.get(e.id, ()), key=lambda cut: as_fraction(cut[0]))
            data[e.id] = ((Fraction(0), vertex_vals[e.tail]), *mids,
                          (e.length, vertex_vals[e.head]))
        return cls(graph, data)

    def eval(self, point: GraphPoint) -> Fraction:
        if point.is_vertex:
            return self.vertex_values[point.vertex]
        bps = self.data[point.edge]
        i = min(bisect_right([o for o, _ in bps], point.offset), len(bps) - 1) - 1
        o1, v1 = bps[i]
        return v1 + (point.offset - o1) * self.slopes[point.edge][i]

    # -- pointwise arithmetic ----------------------------------------------

    def _zip(self, other: "PLFunction", fn) -> "PLFunction":
        """Pointwise fn, linear (add or sub), so it maps slopes as values."""
        data, slopes = {}, {}
        for e in self.graph.edges:
            a, b = self.data[e.id], other.data[e.id]
            bps, ss = [], []
            for o, va, sa, vb, sb in _merge(a, self.slopes[e.id], b, other.slopes[e.id]):
                _push(bps, ss, o, fn(va, vb), fn(sa, sb))
            bps.append((e.length, fn(a[-1][1], b[-1][1])))
            data[e.id], slopes[e.id] = tuple(bps), tuple(ss)
        return PLFunction._of_valid(self.graph, data, slopes)

    def add(self, other: "PLFunction") -> "PLFunction":
        return self._zip(other, lambda a, b: a + b)

    def sub(self, other: "PLFunction") -> "PLFunction":
        return self._zip(other, lambda a, b: a - b)

    def neg(self) -> "PLFunction":
        return PLFunction._of_valid(
            self.graph, {eid: tuple((o, -v) for o, v in bps) for eid, bps in self.data.items()},
            {eid: tuple(-s for s in ss) for eid, ss in self.slopes.items()})

    def add_const(self, c) -> "PLFunction":
        c = as_fraction(c)
        if c == 0:
            return self
        return PLFunction._of_valid(self.graph, {eid: tuple((o, v + c) for o, v in bps)
                                                 for eid, bps in self.data.items()},
                                    self.slopes)

    def min_with(self, other: "PLFunction") -> "PLFunction":
        """Pointwise minimum, inserting crossing breakpoints exactly."""
        data, slopes = {}, {}
        for e in self.graph.edges:
            a, b = self.data[e.id], other.data[e.id]
            pts = [*_merge(a, self.slopes[e.id], b, other.slopes[e.id]),
                   (e.length, a[-1][1], None, b[-1][1], None)]
            ds = [va - vb for _, va, _, vb, _ in pts]
            bps, ss = [], []
            for (o0, a0, sa, b0, sb), d0, d1 in zip(pts, ds, ds[1:]):
                v, s = (a0, sa) if d0 < 0 else (b0, sb) if d0 > 0 else (a0, min(sa, sb))
                _push(bps, ss, o0, v, s)
                if (d0 > 0 > d1) or (d0 < 0 < d1):
                    step = d0 / (sb - sa)
                    _push(bps, ss, o0 + step, a0 + step * sa, min(sa, sb))
            bps.append((e.length, min(a[-1][1], b[-1][1])))
            data[e.id], slopes[e.id] = tuple(bps), tuple(ss)
        return PLFunction._of_valid(self.graph, data, slopes)

    def clip_max(self, c) -> "PLFunction":
        """Pointwise min(f, c) for a constant c."""
        return self.min_with(PLFunction.constant(self.graph, c))

    # -- global quantities ---------------------------------------------------

    def min_value(self) -> Fraction:
        if self._min is None:
            self._min = min(v for bps in self.data.values() for _, v in bps)
        return self._min

    def max_value(self) -> Fraction:
        if self._max is None:
            self._max = max(v for bps in self.data.values() for _, v in bps)
        return self._max

    def minus_min(self) -> "PLFunction":
        return self.add_const(-self.min_value())

    def spread(self) -> Fraction:
        return self.max_value() - self.min_value()

    def integral(self) -> Fraction:
        """Integral against the length measure (trapezoid rule is exact)."""
        if self._integral is None:
            total = Fraction(0)
            for bps in self.data.values():
                for (o1, v1), (o2, v2) in zip(bps, bps[1:]):
                    total += (v1 + v2) * (o2 - o1)
            self._integral = total / 2
        return self._integral

    def slopes_integer(self) -> bool:
        return all(type(s) is int for ss in self.slopes.values() for s in ss)

    def breakpoint_values(self) -> list[Fraction]:
        return sorted({v for bps in self.data.values() for _, v in bps})

    def divisor(self) -> "Divisor":
        """Sum of incoming slopes at every point (supported on breakpoints)."""
        at_vertex = dict.fromkeys(self.graph.vertices, 0)
        entries = {}
        for e in self.graph.edges:
            bps, ss = self.data[e.id], self.slopes[e.id]
            at_vertex[e.tail] -= ss[0]
            at_vertex[e.head] += ss[-1]
            for k in range(1, len(ss)):
                entries[GraphPoint(edge=e.id, offset=bps[k][0])] = ss[k - 1] - ss[k]
        entries.update((GraphPoint(vertex=v), c) for v, c in at_vertex.items())
        return Divisor(self.graph, entries)

    def extremum_set(self, which: str = "min") -> "ClosedSubset":
        """Closed locus where the global minimum (or maximum) is attained."""
        if which == "min" and self._min_set is not None:
            return self._min_set
        target = self.min_value() if which == "min" else self.max_value()
        vertices = {v for v, val in self.vertex_values.items() if val == target}
        intervals: dict[str, list[tuple[Fraction, Fraction]]] = {}
        for e in self.graph.edges:
            bps = self.data[e.id]
            segs: list[tuple[Fraction, Fraction]] = []
            for (o1, v1), (o2, _), s in zip(bps, bps[1:], self.slopes[e.id]):
                if v1 == target:
                    segs.append((o1, o1 if s else o2))
            if bps[-1][1] == target:
                segs.append((bps[-1][0], bps[-1][0]))
            if segs:
                intervals[e.id] = segs
        found = ClosedSubset._of_valid(self.graph, vertices, intervals)
        if which == "min":
            self._min_set = found
        return found


def _merge(a: tuple, sa: tuple, b: tuple, sb: tuple):
    """Yield (offset, a value, a slope, b value, b slope) at every breakpoint
    of either of two functions on one edge but the last, each slope that of
    the segment starting there; the other function is interpolated along its
    slope, so no division is made. One pass."""
    i = j = 0
    n, m = len(a) - 1, len(b) - 1
    while i < n or j < m:
        (oa, va), (ob, vb) = a[i], b[j]
        if oa == ob:
            yield oa, va, sa[i], vb, sb[j]
            i += 1
            j += 1
        elif oa < ob:
            o1, v1 = b[j - 1]
            yield oa, va, sa[i], v1 + (oa - o1) * sb[j - 1], sb[j - 1]
            i += 1
        else:
            o1, v1 = a[i - 1]
            yield ob, v1 + (ob - o1) * sa[i - 1], sa[i - 1], vb, sb[j]
            j += 1


def _push(bps: list, ss: list, o: Fraction, v: Fraction, s) -> None:
    """Append breakpoint (o, v) and the slope s of the segment after it, as
    an int if integral, unless s continues the last segment."""
    if not ss or s != ss[-1]:
        bps.append((o, v))
        ss.append(s.numerator if s.denominator == 1 else s)


def _slope_form(bps: tuple) -> tuple[tuple, tuple]:
    """Breakpoints (increasing offsets) without those where the slope does
    not change, and the slope of each remaining segment."""
    out, ss = [], []
    for (o1, v1), (o2, v2) in zip(bps, bps[1:]):
        _push(out, ss, o1, v1, (v2 - v1) / (o2 - o1))
    out.append(bps[-1])
    return tuple(out), tuple(ss)


def pl_eval(f: PLFunction, point: GraphPoint) -> Fraction:
    return f.eval(point)


def pl_div(f: PLFunction) -> "Divisor":
    return f.divisor()


def pl_extremum_set(f: PLFunction, which: str = "min") -> "ClosedSubset":
    if which not in ("min", "max"):
        raise InputError(f"which must be 'min' or 'max', got {which!r}")
    return f.extremum_set(which)


def pl_integral(f: PLFunction) -> Fraction:
    return f.integral()


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

class Divisor:
    """Finite formal sum of points with rational coefficients."""

    __slots__ = ("graph", "entries", "_key")

    def __init__(self, graph: MetricGraph, entries: dict):
        self.graph = graph
        self.entries: dict[GraphPoint, Fraction] = {
            p: f for p, c in entries.items() if (f := as_fraction(c)) != 0}
        self._key = None  # key() fills it once: a divisor never changes

    @classmethod
    def of(cls, graph: MetricGraph, pairs: Iterable) -> "Divisor":
        acc: dict[GraphPoint, Fraction] = {}
        for point, coeff in pairs:
            if not isinstance(point, GraphPoint):
                raise InputError("divisor entries must use graph points")
            acc[point] = acc.get(point, Fraction(0)) + as_fraction(coeff)
        return cls(graph, acc)

    def degree(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def is_effective(self) -> bool:
        return all(c > 0 for c in self.entries.values())

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.entries.values())

    def coeff(self, point: GraphPoint) -> Fraction:
        return self.entries.get(point, Fraction(0))

    def support(self) -> list[GraphPoint]:
        return sorted(self.entries, key=GraphPoint.key)

    def items(self) -> list[tuple[GraphPoint, Fraction]]:
        return sorted(self.entries.items(), key=lambda kv: kv[0].key())

    def add(self, other: "Divisor") -> "Divisor":
        acc = dict(self.entries)
        for p, c in other.entries.items():
            acc[p] = acc.get(p, Fraction(0)) + c
        return Divisor(self.graph, acc)

    def sub(self, other: "Divisor") -> "Divisor":
        return self.add(other.neg())

    def neg(self) -> "Divisor":
        return Divisor(self.graph, {p: -c for p, c in self.entries.items()})

    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple((p.key(), c) for p, c in self.items())
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Divisor) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for p, c in self.items():
            coeff = "" if c == 1 else f"{c}"
            parts.append(f"{coeff}({p})")
        return "+".join(parts)


# ---------------------------------------------------------------------------
# closed subsets
# ---------------------------------------------------------------------------

class ClosedSubset:
    """Closed subset: a vertex set plus closed intervals on each edge. The
    constructor checks and coerces outside input; extremum_set, union and
    intersect build their results through the unchecked _of_valid.
    Instances are immutable and may be shared: the minimizer set a function
    caches is the one its certificates report, so never mutate one."""

    __slots__ = ("graph", "vertices", "intervals")

    def __init__(self, graph: MetricGraph, vertices: Iterable[str] = (),
                 intervals: dict | None = None):
        verts = set(vertices)
        ivs: dict[str, list[tuple[Fraction, Fraction]]] = {}
        for eid, raw in (intervals or {}).items():
            e = graph.edge_map.get(eid)
            if e is None:
                raise InputError(f"unknown edge {eid!r}")
            segs = sorted((as_fraction(a), as_fraction(b)) for a, b in raw)
            for a, b in segs:
                if not (0 <= a <= b <= e.length):
                    raise InputError(f"interval [{a},{b}] outside edge {eid!r}")
            ivs[eid] = segs
        for v in verts:
            if v not in graph.incidence:
                raise InputError(f"unknown vertex {v!r}")
        self._close(graph, verts, ivs)

    @classmethod
    def _of_valid(cls, graph: MetricGraph, vertices: set, intervals: dict) -> "ClosedSubset":
        """Build from known vertices and sorted Fraction intervals in their edges."""
        s = object.__new__(cls)
        s._close(graph, vertices, intervals)
        return s

    def _close(self, graph: MetricGraph, verts: set, intervals: dict) -> None:
        ivs: dict[str, tuple[tuple[Fraction, Fraction], ...]] = {}
        for eid, segs in intervals.items():
            merged: list[tuple[Fraction, Fraction]] = []
            for a, b in segs:
                if merged and a <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], b))
                else:
                    merged.append((a, b))
            if merged:
                # closed sets reaching an endpoint contain the vertex there
                e = graph.edge_map[eid]
                if merged[0][0] == 0:
                    verts.add(e.tail)
                if merged[-1][1] == e.length:
                    verts.add(e.head)
                ivs[eid] = tuple(merged)
        self.graph = graph
        self.vertices = frozenset(verts)
        self.intervals = ivs

    # -- queries -------------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.vertices and not self.intervals

    def contains(self, point: GraphPoint) -> bool:
        if point.is_vertex:
            return point.vertex in self.vertices
        for a, b in self.intervals.get(point.edge, ()):
            if a <= point.offset <= b:
                return True
        return False

    def covers_graph(self) -> bool:
        if set(self.vertices) != set(self.graph.vertices):
            return False
        for e in self.graph.edges:
            segs = self.intervals.get(e.id, ())
            if len(segs) != 1 or segs[0] != (Fraction(0), e.length):
                return False
        return True

    def key(self) -> tuple:
        return (tuple(sorted(self.vertices)),
                tuple(sorted((eid, segs) for eid, segs in self.intervals.items())))

    def __eq__(self, other) -> bool:
        return isinstance(other, ClosedSubset) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    # -- set algebra -----------------------------------------------------------

    def union(self, other: "ClosedSubset") -> "ClosedSubset":
        ivs = {eid: sorted(self.intervals.get(eid, ()) + other.intervals.get(eid, ()))
               for eid in self.intervals.keys() | other.intervals.keys()}
        return ClosedSubset._of_valid(self.graph, set(self.vertices) | other.vertices, ivs)

    def intersect(self, other: "ClosedSubset") -> "ClosedSubset":
        ivs: dict[str, list] = {}
        for eid in set(self.intervals) & set(other.intervals):
            out = []
            for a1, b1 in self.intervals[eid]:
                for a2, b2 in other.intervals[eid]:
                    lo, hi = max(a1, a2), min(b1, b2)
                    if lo <= hi:
                        out.append((lo, hi))
            ivs[eid] = out
        return ClosedSubset._of_valid(self.graph, set(self.vertices) & other.vertices, ivs)

    # -- structure ---------------------------------------------------------------

    def finite_points(self) -> list[GraphPoint] | None:
        """The point list if the set is finite, else None."""
        pts = [GraphPoint(vertex=v) for v in sorted(self.vertices)]
        for eid, segs in sorted(self.intervals.items()):
            e = self.graph.edge_map[eid]
            for a, b in segs:
                if a != b:
                    return None
                if 0 < a < e.length:
                    pts.append(GraphPoint(edge=eid, offset=a))
        return sorted(pts, key=GraphPoint.key)

    def complement_gaps(self):
        """Open complement, as uncovered vertices and open intervals."""
        missing_vertices = sorted(set(self.graph.vertices) - set(self.vertices))
        gaps: list[tuple[str, Fraction, Fraction]] = []
        for e in self.graph.edges:
            segs = list(self.intervals.get(e.id, ()))
            cursor = Fraction(0)
            for a, b in segs:
                if a > cursor:
                    gaps.append((e.id, cursor, a))
                cursor = max(cursor, b)
            if cursor < e.length:
                gaps.append((e.id, cursor, e.length))
        return missing_vertices, gaps

    def complement_components(self):
        """Connected components of the open complement, for reporting."""
        missing_vertices, gaps = self.complement_gaps()
        items: list[tuple] = [("v", v) for v in missing_vertices]
        items += [("g", i) for i in range(len(gaps))]
        parent = {it: it for it in items}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def unite(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        vset = set(missing_vertices)
        for i, (eid, a, b) in enumerate(gaps):
            e = self.graph.edge_map[eid]
            if a == 0 and e.tail in vset:
                unite(("g", i), ("v", e.tail))
            if b == e.length and e.head in vset:
                unite(("g", i), ("v", e.head))
        groups: dict[tuple, dict] = {}
        for it in items:
            root = find(it)
            grp = groups.setdefault(root, {"vertices": [], "gaps": []})
            if it[0] == "v":
                grp["vertices"].append(it[1])
            else:
                eid, a, b = gaps[it[1]]
                grp["gaps"].append({"edge": eid, "from": a, "to": b})
        out = [{"vertices": sorted(g["vertices"]),
                "gaps": sorted(g["gaps"], key=lambda d: (d["edge"], d["from"]))}
               for g in groups.values()]
        return sorted(out, key=lambda g: (g["vertices"], [x["edge"] for x in g["gaps"]]))


# ---------------------------------------------------------------------------
# subdivision and exact potential solves
# ---------------------------------------------------------------------------

class Subdivision:
    """Graph refined at a finite set of interior points.

    Nodes are the original vertices plus the interior points; segments are
    the resulting simple pieces, each remembering its parent edge and the
    offset where it starts.
    """

    def __init__(self, graph: MetricGraph, points: Iterable[GraphPoint]):
        self.graph = graph
        cuts: dict[str, set[Fraction]] = {}
        for p in points:
            if not p.is_vertex:
                cuts.setdefault(p.edge, set()).add(p.offset)
        self.cuts = {eid: sorted(offs) for eid, offs in cuts.items()}
        self.nodes: list[tuple] = [("v", v) for v in graph.vertices]
        for eid in sorted(self.cuts):
            for o in self.cuts[eid]:
                self.nodes.append(("p", eid, o))
        self.index = {node: i for i, node in enumerate(self.nodes)}
        self.segments: list[tuple[int, int, Fraction, str, Fraction]] = []
        for e in graph.edges:
            stops = [(Fraction(0), ("v", e.tail))]
            stops += [(o, ("p", e.id, o)) for o in self.cuts.get(e.id, ())]
            stops += [(e.length, ("v", e.head))]
            for (o1, n1), (o2, n2) in zip(stops, stops[1:]):
                self.segments.append((self.index[n1], self.index[n2], o2 - o1, e.id, o1))

    def node_of(self, point: GraphPoint) -> int:
        if point.is_vertex:
            return self.index[("v", point.vertex)]
        node = ("p", point.edge, point.offset)
        if node not in self.index:
            raise InputError(f"point {point} is not a subdivision node")
        return self.index[node]

    def point_of(self, idx: int) -> GraphPoint:
        node = self.nodes[idx]
        if node[0] == "v":
            return GraphPoint(vertex=node[1])
        return GraphPoint(edge=node[1], offset=node[2])


def _ldl_solve(rows: list[dict[int, Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve A x = rhs for symmetric positive definite A, given as the upper
    triangle row by row ({column: entry}, column >= row, diagonal present).

    Sparse exact LDL^T elimination in row order: positive definiteness
    makes every pivot nonzero, so no pivot search is needed. rows and rhs
    are overwritten.
    """
    for k, row in enumerate(rows):
        pivot = row[k]
        for i, a_ki in row.items():
            if i == k:
                continue
            f = a_ki / pivot
            target = rows[i]
            for j, a_kj in row.items():
                if j >= i:
                    target[j] = target.get(j, 0) - f * a_kj
            rhs[i] -= f * rhs[k]
    x = [Fraction(0)] * len(rows)
    for k in reversed(range(len(rows))):
        row = rows[k]
        x[k] = (rhs[k] - sum(a * x[j] for j, a in row.items() if j != k)) / row[k]
    return x


def _elimination_order(graph: MetricGraph) -> dict[str, int]:
    """Position of every vertex in a minimum-degree elimination order of the
    vertex Laplacian; the first vertex is grounded and gets position -1."""
    ground = graph.vertices[0]
    adj: dict[str, set[str]] = {v: set() for v in graph.vertices[1:]}
    for e in graph.edges:
        if ground not in (e.tail, e.head):
            adj[e.tail].add(e.head)
            adj[e.head].add(e.tail)
    pos = {ground: -1}
    while adj:
        v = min(adj, key=lambda u: len(adj[u]))
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u] |= nbrs
            adj[u] -= {u, v}
        pos[v] = len(pos) - 1
    return pos


def mg_potential(graph: MetricGraph, d_from: Divisor, d_to: Divisor) -> PLFunction:
    """The piecewise-linear function whose divisor is d_to - d_from.

    Unique up to a constant; returned with minimum value zero. Requires the
    two divisors to have equal degree.

    The matrix order is |V| - 1 for any divisor. Each interior support point
    is a degree-2 node, and its Schur complement folds a coefficient c at
    offset o on an edge (t, h, l) onto the ends: c(l - o)/l to t and c o/l
    to h. The grounded vertex Laplacian (conductances 1/l, the first vertex
    at 0) is then solved by sparse exact elimination (`_ldl_solve`) in a
    minimum-degree order, which keeps the fill small on grids. The
    value at a cut point o is the linear interpolation of the edge's end
    values plus sum_i c_i min(o, o_i)(l - max(o, o_i))/l over that edge's
    cut points: the Green's function of the interval with both ends held.
    """
    vals, cuts = _solve(graph, d_from, d_to)
    data, slopes = {}, {}
    for e in graph.edges:
        pts = cuts.get(e.id, ())
        data[e.id], slopes[e.id] = _slope_form(((_ZERO, vals[e.tail]), *(
            (o, _cut_value(e, vals, pts, o)) for o, _ in pts), (e.length, vals[e.head])))
    return PLFunction._of_valid(graph, data, slopes).minus_min()


def _solve(graph: MetricGraph, d_from: Divisor, d_to: Divisor) -> tuple[dict, dict]:
    """Vertex values of a potential with divisor d_to - d_from, and each
    edge's sorted interior cuts (offset, coefficient): see mg_potential."""
    if d_from.degree() != d_to.degree():
        raise InputError("divisors must have equal degree")
    pos = _elimination_order(graph)
    rows: list[dict[int, Fraction]] = [{i: Fraction(0)} for i in range(len(pos) - 1)]
    for e in graph.edges:
        c = 1 / e.length
        a, b = sorted((pos[e.tail], pos[e.head]))
        rows[b][b] += c
        if a >= 0:
            rows[a][a] += c
            rows[a][b] = rows[a].get(b, 0) - c
    rhs = [Fraction(0)] * len(pos)  # the grounded vertex (-1) fills the spare last slot
    cuts: dict[str, list[tuple[Fraction, Fraction]]] = {}
    for p, c in d_to.sub(d_from).entries.items():
        if p.is_vertex:
            rhs[pos[p.vertex]] += c
            continue
        e = graph.edge_map[p.edge]
        rhs[pos[e.tail]] += c * (e.length - p.offset) / e.length
        rhs[pos[e.head]] += c * p.offset / e.length
        cuts.setdefault(e.id, []).append((p.offset, c))
    x = _ldl_solve(rows, rhs[:-1]) + [Fraction(0)]
    return {v: x[i] for v, i in pos.items()}, {eid: sorted(cs) for eid, cs in cuts.items()}


def _cut_value(e: Edge, vals: dict, pts: list, o: Fraction) -> Fraction:
    """Value at offset o on e of the potential _solve gives as vals and, on e, pts."""
    t, h, ell = vals[e.tail], vals[e.head], e.length
    return t + (h - t) * o / ell + sum(
        c * min(o, oi) * (ell - max(o, oi)) for oi, c in pts) / ell


def mg_jfunction(graph: MetricGraph, q: GraphPoint, p: GraphPoint) -> PLFunction:
    """Influence function: potential at x when unit current enters at p and
    exits at q, grounded so the value at q is zero (hence nonnegative)."""
    return mg_potential(graph, Divisor.of(graph, [(q, 1)]), Divisor.of(graph, [(p, 1)]))


def mg_resistance(graph: MetricGraph, p: GraphPoint, q: GraphPoint) -> Fraction:
    """Effective resistance between two points: the j-function's value at p,
    read from the solve at p and q without building the function."""
    if p.key() == q.key():
        return Fraction(0)
    vals, cuts = _solve(graph, Divisor.of(graph, [(q, 1)]), Divisor.of(graph, [(p, 1)]))
    at_p, at_q = (vals[x.vertex] if x.is_vertex else _cut_value(
        graph.edge_map[x.edge], vals, cuts[x.edge], x.offset) for x in (p, q))
    return at_p - at_q


def mg_distance(graph: MetricGraph, p: GraphPoint, q: GraphPoint) -> Fraction:
    """Geodesic distance between two points."""
    if p.key() == q.key():
        return Fraction(0)

    def anchors(pt: GraphPoint) -> list[tuple[str, Fraction]]:
        if pt.is_vertex:
            return [(pt.vertex, Fraction(0))]
        e = graph.edge_map[pt.edge]
        return [(e.tail, pt.offset), (e.head, e.length - pt.offset)]

    best = None
    if not p.is_vertex and not q.is_vertex and p.edge == q.edge:
        best = abs(p.offset - q.offset)
    dist_from = _dijkstra(graph, anchors(p))
    for v, extra in anchors(q):
        cand = dist_from[v] + extra
        if best is None or cand < best:
            best = cand
    return best


def _dijkstra(graph: MetricGraph, sources: list[tuple[str, Fraction]]) -> dict[str, Fraction]:
    dist: dict[str, Fraction] = {}
    heap: list[tuple[Fraction, int, str]] = []
    counter = 0
    for v, d in sources:
        if v not in dist or d < dist[v]:
            dist[v] = d
            heapq.heappush(heap, (d, counter, v))
            counter += 1
    adj: dict[str, list[tuple[str, Fraction]]] = {v: [] for v in graph.vertices}
    for e in graph.edges:
        adj[e.tail].append((e.head, e.length))
        adj[e.head].append((e.tail, e.length))
    final: dict[str, Fraction] = {}
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in final:
            continue
        final[v] = d
        for w, ln in adj[v]:
            nd = d + ln
            if w not in final and (w not in dist or nd < dist[w]):
                dist[w] = nd
                heapq.heappush(heap, (nd, counter, w))
                counter += 1
    return final
