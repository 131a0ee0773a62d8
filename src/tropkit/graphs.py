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
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, NamedTuple

from . import _LAZY
from .errors import CertificateError, InputError
from .rational import as_fraction

_ZERO = Fraction(0)

__all__ = _LAZY["graphs"]


class Edge(NamedTuple):
    id: str
    tail: str
    head: str
    length: Fraction


class GraphPoint(NamedTuple):
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
    """Validated compact connected metric graph. given holds the vertices and
    edges as given, loops whole, and validation, loop offsets and serialization
    read it. The solvers read vertices and edges, derived from it with each loop
    split at its midpoint (for a graph with no loop, the same two tuples)."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        self.given: tuple[tuple[str, ...], tuple[Edge, ...]] = (tuple(vertices), tuple(edges))
        self._validate()
        verts, split = list(self.given[0]), []
        # given loop edge id -> (first half id, second half id, half length)
        self.loop_aliases: dict[str, tuple[str, str, Fraction]] = {}
        for e in self.given[1]:
            if e.tail != e.head:
                split.append(e)
                continue
            mid, half = f"{e.id}:mid", e.length / 2
            self.loop_aliases[e.id] = (f"{e.id}:a", f"{e.id}:b", half)
            verts.append(mid)
            split += [Edge(f"{e.id}:a", e.tail, mid, half), Edge(f"{e.id}:b", mid, e.head, half)]
        self.vertices, self.edges = (tuple(verts), tuple(split)) if self.loop_aliases else self.given
        self.edge_map: dict[str, Edge] = {e.id: e for e in self.edges}
        self.vertex_set: frozenset[str] = frozenset(self.vertices)
        self.total_length: Fraction = sum((e.length for e in self.edges), Fraction(0))

    # -- construction ------------------------------------------------------

    @classmethod
    def of(cls, vertices: Iterable[str], edges: Iterable) -> "MetricGraph":
        """Build from vertex names and (id, tail, head, length) tuples, whose
        ids and ends are read as str and lengths as rationals."""
        return cls((str(v) for v in vertices),
                   [Edge(str(eid), str(tail), str(head), as_fraction(length))
                    for eid, tail, head, length in edges])

    def _validate(self) -> None:
        """Check the record and the names its split adds: no given vertex is a
        loop's id:mid, and the given ids and every id:a and id:b are distinct."""
        vertices, edges = self.given
        for e in edges:  # a bad length is reported before any other fault
            if e.length <= 0:
                raise InputError(f"edge {e.id!r} must have positive length")
        names = set(vertices)
        if not vertices:
            raise InputError("graph needs at least one vertex")
        if len(names) != len(vertices):
            raise InputError("vertex names must be distinct")
        loops = [e.id for e in edges if e.tail == e.head]
        for mid in (f"{eid}:mid" for eid in loops):
            if mid in names:
                raise InputError(f"vertex name {mid!r} collides with loop split")
        ids = [e.id for e in edges] + [f"{eid}:{half}" for eid in loops for half in "ab"]
        if len(set(ids)) != len(ids):
            raise InputError("edge ids must be distinct")
        if not edges:
            raise InputError("graph needs at least one edge")
        for e in edges:
            if e.tail not in names or e.head not in names:
                raise InputError(f"edge {e.id!r} references an unknown vertex")
        adj = _adjacency(vertices, edges)
        if _reachable(vertices[0], lambda v: (w for w, _ in adj[v])) != names:
            raise InputError("graph must be connected")

    @property
    def genus(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    @cached_property
    def _elimination_order(self) -> dict[str, int]:
        """Position of every vertex in a minimum-degree elimination order of the
        vertex Laplacian, the grounded first vertex at -1; one per graph."""
        ground = self.vertices[0]
        adj = {v: {w for w, _ in nbrs if w != ground}
               for v, nbrs in _adjacency(self.vertices, self.edges).items() if v != ground}
        pos = {ground: -1}
        while adj:
            v = min(adj, key=lambda u: len(adj[u]))
            nbrs = adj.pop(v)
            for u in nbrs:
                adj[u] |= nbrs
                adj[u] -= {u, v}
            pos[v] = len(pos) - 1
        return pos

    # -- points ------------------------------------------------------------

    def point(self, vertex: str | None = None, edge: str | None = None,
              offset=None) -> GraphPoint:
        """Build a normalized point (endpoint offsets collapse to vertices).
        A loop's offset runs over the whole loop and lands on one half."""
        if vertex is not None:
            self.check_point(GraphPoint(vertex, edge, offset), "")
            return GraphPoint(vertex=vertex)
        if edge is None or offset is None:
            raise InputError("a point needs a vertex, or an edge and an offset")
        offset = as_fraction(offset)
        first, second, _ = self.loop_aliases.get(edge, (edge, None, None))
        e = self.edge_map.get(first)
        if e is None:
            raise InputError(f"unknown edge {edge!r}")
        length = e.length if second is None else 2 * e.length
        if not (0 <= offset <= length):
            raise InputError(f"offset {offset} outside [0, {length}] on edge {edge!r}")
        if offset > e.length:  # on a loop's second half
            e, offset = self.edge_map[second], offset - e.length
        if offset == 0:
            return GraphPoint(vertex=e.tail)
        if offset == e.length:
            return GraphPoint(vertex=e.head)
        return GraphPoint(edge=e.id, offset=offset)

    def vertex_point(self, name: str) -> GraphPoint:
        return self.point(vertex=name)

    def check_point(self, point, location: str) -> None:
        """Raise InputError at location unless point is a vertex of the
        graph or a rational offset strictly inside one of its edges."""
        if not isinstance(point, GraphPoint):
            raise InputError("expected a graph point", location)
        if point.is_vertex:
            if point.edge is not None or point.offset is not None:
                raise InputError("a point is either a vertex or an edge position, "
                                 "not both", location)
            if point.vertex not in self.vertex_set:
                raise InputError(f"unknown vertex {point.vertex!r}", location)
            return
        e = self.edge_map.get(point.edge)
        if e is None:
            raise InputError(f"unknown edge {point.edge!r}", location)
        if isinstance(point.offset, bool) or not (
                isinstance(point.offset, (int, Fraction)) and 0 < point.offset < e.length):
            raise InputError(f"offset {point.offset} is not inside (0, {e.length}) "
                             f"on edge {e.id!r}", location)

    def check_divisor(self, d: "Divisor", location: str) -> None:
        """check_point, at location, on every support point of d."""
        for p in d.entries:
            self.check_point(p, location)


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

    Kept in integer form: _pieces maps every edge id, in graph order, to
    three tuples of ints, the breakpoint offsets over _do (increasing from
    0 to the edge length), the values there over _dv and the slope of each
    segment over _ds. _ds is the least common denominator of the slopes, so
    they are integral iff it is 1, and _do * _ds divides _dv, so v + (o - o1) s
    stays integral. Consecutive slopes differ: no breakpoint is kept where
    the slope does not change. An edge linear in both operands of add, sub
    or min_with is combined from its ends without a merge, and minus_min
    shifts the value numerators by an int.

    The exact views are built on demand, not stored: data maps every edge
    id to its (offset, value) breakpoints, slopes to the slopes of its
    segments (each an int when integral), vertex_values every vertex to its
    value, and every number a method returns is a Fraction. Instances are
    immutable, so the extreme values, integral and extremum_set("min") are
    kept after first use; the minimizer set is shared with the certificates
    that include it: do not mutate it.
    """

    __slots__ = ("graph", "_pieces", "_do", "_ds", "_dv", "_range", "_integral", "_min_set")

    def __init__(self, graph: MetricGraph, data: dict):
        self._range = self._integral = self._min_set = None
        self.graph = graph
        raw = {eid: tuple((as_fraction(o), as_fraction(v)) for o, v in bps)
               for eid, bps in data.items()}
        self._validate(raw)
        slopes = {eid: [(v2 - v1) / (o2 - o1) for (o1, v1), (o2, v2) in zip(bps, bps[1:])]
                  for eid, bps in raw.items()}
        do = lcm(*(o.denominator for bps in raw.values() for o, _ in bps))
        ds = lcm(*(s.denominator for ss in slopes.values() for s in ss))
        dv = lcm(do * ds, *(v.denominator for bps in raw.values() for _, v in bps))
        self._do, self._ds, self._dv, self._pieces = do, ds, dv, {}
        for e in graph.edges:
            offs, vals, ss = [], [], []
            for (o, v), s in zip(raw[e.id], slopes[e.id]):
                _push(offs, vals, ss, _over(o, do), _over(v, dv), _over(s, ds))
            o, v = raw[e.id][-1]
            self._pieces[e.id] = (*offs, _over(o, do)), (*vals, _over(v, dv)), tuple(ss)
        seen: dict[str, int] = {}
        for e in graph.edges:
            vals = self._pieces[e.id][1]
            for vname, val in ((e.tail, vals[0]), (e.head, vals[-1])):
                if seen.setdefault(vname, val) != val:
                    raise InputError(f"discontinuity at vertex {vname!r}")

    @classmethod
    def _of_valid(cls, graph: MetricGraph, pieces: dict, do: int, ds: int,
                  dv: int) -> "PLFunction":
        """Wrap an integer form that holds every invariant __init__ sets, as
        operations on valid functions leave it: no checks."""
        f = object.__new__(cls)
        f._range = f._integral = f._min_set = None
        f.graph, f._pieces, f._do, f._ds, f._dv = graph, pieces, do, ds, dv
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

    @property
    def data(self) -> dict:
        do, dv = self._do, self._dv
        return {eid: tuple((Fraction(o, do), Fraction(v, dv)) for o, v in zip(offs, vals))
                for eid, (offs, vals, _) in self._pieces.items()}

    @property
    def slopes(self) -> dict:
        ds = self._ds
        return {eid: ss if ds == 1 else
                tuple(s // ds if s % ds == 0 else Fraction(s, ds) for s in ss)
                for eid, (_, _, ss) in self._pieces.items()}

    @property
    def vertex_values(self) -> dict:
        out = dict.fromkeys(self.graph.vertices)
        for e in self.graph.edges:
            vals = self._pieces[e.id][1]
            out[e.tail], out[e.head] = Fraction(vals[0], self._dv), Fraction(vals[-1], self._dv)
        return out

    # -- evaluation --------------------------------------------------------

    @classmethod
    def constant(cls, graph: MetricGraph, value) -> "PLFunction":
        value = as_fraction(value)
        do = lcm(*(e.length.denominator for e in graph.edges))
        dv = lcm(do, value.denominator)
        c = _over(value, dv)
        return cls._of_valid(graph, {e.id: ((0, _over(e.length, do)), (c, c), (0,))
                                     for e in graph.edges}, do, 1, dv)

    def eval(self, point: GraphPoint) -> Fraction:
        self.graph.check_point(point, "point")
        if point.is_vertex:
            return self.vertex_values[point.vertex]
        offs, vals, ss = self._pieces[point.edge]
        x = point.offset * self._do
        i = min(bisect_right(offs, x), len(offs) - 1) - 1
        return Fraction(vals[i], self._dv) + (x - offs[i]) * Fraction(ss[i], self._do * self._ds)

    # -- pointwise arithmetic ----------------------------------------------

    def _zip(self, other: "PLFunction", sign: int) -> "PLFunction":
        """Pointwise self + sign * other, linear, so it maps slopes as values."""
        pa, pb, do, ds, dv = _common(self, other)
        kv = dv // (do * ds)
        pieces = {}
        for eid, a in pa.items():
            b = pb[eid]
            if len(a[2]) == 1 == len(b[2]):  # linear on both sides: no merge
                (va0, va1), (vb0, vb1), (sa,), (sb,) = a[1], b[1], a[2], b[2]
                pieces[eid] = a[0], (va0 + sign * vb0, va1 + sign * vb1), (sa + sign * sb,)
                continue
            offs, vals, ss = [], [], []
            for o, va, sa, vb, sb in _merge(a, b, kv):
                _push(offs, vals, ss, o, va + sign * vb, sa + sign * sb)
            pieces[eid] = (*offs, a[0][-1]), (*vals, a[1][-1] + sign * b[1][-1]), tuple(ss)
        return _lowest(self.graph, pieces, do, ds, dv)

    def add(self, other: "PLFunction") -> "PLFunction":
        return self._zip(other, 1)

    def sub(self, other: "PLFunction") -> "PLFunction":
        return self._zip(other, -1)

    def neg(self) -> "PLFunction":
        return PLFunction._of_valid(
            self.graph, {eid: (offs, tuple(-v for v in vals), tuple(-s for s in ss))
                         for eid, (offs, vals, ss) in self._pieces.items()},
            self._do, self._ds, self._dv)

    def add_const(self, c) -> "PLFunction":
        c = as_fraction(c)
        if c == 0:
            return self
        dv = lcm(self._dv, c.denominator)
        k, c = dv // self._dv, _over(c, dv)
        return PLFunction._of_valid(
            self.graph, {eid: (offs, tuple(v * k + c for v in vals), ss)
                         for eid, (offs, vals, ss) in self._pieces.items()},
            self._do, self._ds, dv)

    def min_with(self, other: "PLFunction") -> "PLFunction":
        """Pointwise minimum, inserting crossing breakpoints exactly. A
        crossing o0 + d/(sb - sa) may need a finer offset denominator: a
        first pass finds it, and the second builds the result over it."""
        pa, pb, do, ds, dv = _common(self, other)
        kv = dv // (do * ds)
        merged, ro = {}, do  # ro, rv: the offset and value denominators of the result
        for eid, a in pa.items():
            b = pb[eid]
            start = [(0, a[1][0], a[2][0], b[1][0], b[2][0])] if len(a[2]) == 1 == len(b[2]) \
                else _merge(a, b, kv)  # linear on both sides: just the two ends
            pts = merged[eid] = [*start, (a[0][-1], a[1][-1], 0, b[1][-1], 0)]
            for (_, a0, sa, b0, sb), (_, a1, _, b1, _) in zip(pts, pts[1:]):
                if (a0 - b0) * (a1 - b1) < 0:
                    q = kv * do * (sb - sa)  # the crossing is at o0/do + (a0 - b0)/q
                    ro = lcm(ro, abs(q) // gcd(a0 - b0, q))
        fo, rv = ro // do, lcm(dv, ro * ds)
        fv, rkv = rv // dv, rv // (ro * ds)
        pieces = {}
        for eid, pts in merged.items():
            offs, vals, ss = [], [], []
            for (o0, a0, sa, b0, sb), (_, a1, _, b1, _) in zip(pts, pts[1:]):
                d0 = a0 - b0
                v, s = (a0, sa) if d0 < 0 else (b0, sb) if d0 > 0 else (a0, min(sa, sb))
                _push(offs, vals, ss, o0 * fo, v * fv, s)
                if d0 * (a1 - b1) < 0:
                    step = d0 * ro // (kv * do * (sb - sa))
                    _push(offs, vals, ss, o0 * fo + step, a0 * fv + step * sa * rkv, min(sa, sb))
            o, a0, _, b0, _ = pts[-1]
            pieces[eid] = (*offs, o * fo), (*vals, min(a0, b0) * fv), tuple(ss)
        return _lowest(self.graph, pieces, ro, ds, rv)

    def clip_max(self, c) -> "PLFunction":
        """Pointwise min(f, c) for a constant c."""
        return self.min_with(PLFunction.constant(self.graph, c))

    # -- global quantities ---------------------------------------------------

    def _extremes(self) -> tuple[int, int]:
        """The least and greatest value numerators."""
        if self._range is None:
            vals = [v for _, vs, _ in self._pieces.values() for v in vs]
            self._range = min(vals), max(vals)
        return self._range

    def min_value(self) -> Fraction:
        return Fraction(self._extremes()[0], self._dv)

    def max_value(self) -> Fraction:
        return Fraction(self._extremes()[1], self._dv)

    def minus_min(self) -> "PLFunction":
        """add_const(-min_value()) as an int shift: -low/dv needs no finer dv."""
        low, high = self._extremes()
        if low == 0:
            return self
        f = PLFunction._of_valid(
            self.graph, {eid: (offs, tuple(v - low for v in vals), ss)
                         for eid, (offs, vals, ss) in self._pieces.items()},
            self._do, self._ds, self._dv)
        f._range = 0, high - low
        return f

    def spread(self) -> Fraction:
        low, high = self._extremes()
        return Fraction(high - low, self._dv)

    def integral(self) -> Fraction:
        """Integral against the length measure (trapezoid rule is exact)."""
        if self._integral is None:
            total = sum((v1 + v2) * (o2 - o1) for offs, vals, _ in self._pieces.values()
                        for o1, o2, v1, v2 in zip(offs, offs[1:], vals, vals[1:]))
            self._integral = Fraction(total, 2 * self._do * self._dv)
        return self._integral

    def slopes_integer(self) -> bool:
        return self._ds == 1

    def breakpoint_values(self) -> list[Fraction]:
        return [Fraction(v, self._dv) for v in
                sorted({v for _, vals, _ in self._pieces.values() for v in vals})]

    def nonconstant_set(self) -> "ClosedSubset":
        """Closed union of the segments on which the function is not constant."""
        return ClosedSubset._of_valid(self.graph, set(), {
            eid: [(o1, o2) for o1, o2, s in zip(offs, offs[1:], ss) if s]
            for eid, (offs, _, ss) in self._pieces.items()}, self._do)

    def divisor(self) -> "Divisor":
        """Sum of incoming slopes at every point (supported on breakpoints)."""
        do, ds = self._do, self._ds
        at_vertex = dict.fromkeys(self.graph.vertices, 0)
        entries = {}
        for e in self.graph.edges:
            offs, _, ss = self._pieces[e.id]
            at_vertex[e.tail] -= ss[0]
            at_vertex[e.head] += ss[-1]
            entries.update((GraphPoint(edge=e.id, offset=Fraction(o, do)), Fraction(s0 - s1, ds))
                           for o, s0, s1 in zip(offs[1:], ss, ss[1:]))
        entries.update((GraphPoint(vertex=v), Fraction(c, ds)) for v, c in at_vertex.items() if c)
        return Divisor(self.graph, entries)

    def extremum_set(self, which: str = "min") -> "ClosedSubset":
        """Closed locus where the global minimum (or maximum) is attained."""
        if which not in ("min", "max"):
            raise InputError(f"which must be 'min' or 'max', got {which!r}")
        if which == "min" and self._min_set is not None:
            return self._min_set
        target, do = self._extremes()[which == "max"], self._do
        intervals: dict[str, list[tuple[int, int]]] = {}  # over do
        for e in self.graph.edges:
            offs, vals, ss = self._pieces[e.id]
            segs = [(o1, o1 if s else o2)
                    for o1, o2, v1, s in zip(offs, offs[1:], vals, ss) if v1 == target]
            if vals[-1] == target:
                segs.append((offs[-1], offs[-1]))
            if segs:
                intervals[e.id] = segs
        found = ClosedSubset._of_valid(self.graph, set(), intervals, do)
        if which == "min":
            self._min_set = found
        return found


def _over(x: Fraction, d: int) -> int:
    """The numerator of x over d, a multiple of its denominator."""
    return x.numerator * (d // x.denominator)


def _times(t: tuple, k: int) -> tuple:
    return t if k == 1 else tuple(x * k for x in t)


def _common(f: PLFunction, g: PLFunction):
    """The pieces of f and g over shared denominators, and those do, ds, dv."""
    do, ds = lcm(f._do, g._do), lcm(f._ds, g._ds)
    dv = lcm(f._dv, g._dv, do * ds)
    return _rescaled(f, do, ds, dv), _rescaled(g, do, ds, dv), do, ds, dv


def _rescaled(f: PLFunction, do: int, ds: int, dv: int) -> dict:
    """The pieces of f over multiples do, ds, dv of its denominators."""
    if (f._do, f._ds, f._dv) == (do, ds, dv):
        return f._pieces
    return {eid: (_times(offs, do // f._do), _times(vals, dv // f._dv), _times(ss, ds // f._ds))
            for eid, (offs, vals, ss) in f._pieces.items()}


def _lowest(graph: MetricGraph, pieces: dict, do: int, ds: int, dv: int) -> PLFunction:
    """The function of an integer form, over the least slope denominator."""
    gs = 1 if ds == 1 else gcd(ds, *(s for _, _, ss in pieces.values() for s in ss))
    if gs > 1:
        pieces = {eid: (offs, vals, tuple(s // gs for s in ss))
                  for eid, (offs, vals, ss) in pieces.items()}
    return PLFunction._of_valid(graph, pieces, do, ds // gs, dv)


def _merge(a: tuple, b: tuple, kv: int):
    """Yield (offset, a value, a slope, b value, b slope) at every breakpoint
    of two pieces of one edge over shared denominators but the last, each
    slope that of the segment starting there; the other piece is
    interpolated along its slope, scaled to values by kv = dv/(do ds), so
    no division is made. One pass."""
    oa, va, sa = a
    ob, vb, sb = b
    i = j = 0
    n, m = len(oa) - 1, len(ob) - 1
    while i < n or j < m:
        x, y = oa[i], ob[j]
        if x == y:
            yield x, va[i], sa[i], vb[j], sb[j]
            i += 1
            j += 1
        elif x < y:
            yield x, va[i], sa[i], vb[j - 1] + (x - ob[j - 1]) * sb[j - 1] * kv, sb[j - 1]
            i += 1
        else:
            yield y, va[i - 1] + (y - oa[i - 1]) * sa[i - 1] * kv, sa[i - 1], vb[j], sb[j]
            j += 1


def _push(offs: list, vals: list, ss: list, o: int, v: int, s: int) -> None:
    """Append breakpoint (o, v) and the slope s of the segment after it,
    unless s continues the last segment."""
    if not ss or s != ss[-1]:
        offs.append(o)
        vals.append(v)
        ss.append(s)


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

class Divisor:
    """Finite formal sum of points with rational coefficients."""

    __slots__ = ("graph", "entries", "_key", "_hash")

    def __init__(self, graph: MetricGraph, entries: dict):
        self.graph = graph
        self.entries: dict[GraphPoint, Fraction] = {
            p: f for p, c in entries.items() if (f := as_fraction(c)) != 0}
        self._key = self._hash = None  # filled once by key() and hash(): divisors never change

    @classmethod
    def of(cls, graph: MetricGraph, pairs: Iterable) -> "Divisor":
        acc: dict[GraphPoint, Fraction] = {}
        for i, (point, coeff) in enumerate(pairs):
            graph.check_point(point, f"divisor entry {i}")
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
        return self is other or isinstance(other, Divisor) and self.key() == other.key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

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
    """Closed subset: a vertex set plus closed intervals on each edge, kept
    as sorted, disjoint int pairs over one denominator _den per set (_ivs)
    and shown as Fractions by intervals. The constructor checks and coerces
    outside input and returns what _encode, the one encoder of graph points
    and rational intervals into that form, builds from it. Library code
    holding points or rational intervals (Dhar burning, the tree layer)
    calls _encode directly, and extremum_set, nonconstant_set, union and
    intersect build their results from ints through _of_valid, the one place
    that adds the vertex where an interval reaches an edge end; neither
    checks. Instances are immutable and may be shared: the minimizer set a
    function caches is the one its certificates report, so never mutate one."""

    __slots__ = ("graph", "vertices", "_ivs", "_den")

    def __new__(cls, graph: MetricGraph, vertices: Iterable[str] = (),
                intervals: dict | None = None) -> "ClosedSubset":
        # __new__, not __init__, so that the constructor returns _encode's set
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
            if v not in graph.vertex_set:
                raise InputError(f"unknown vertex {v!r}")
        return cls._encode(graph, (GraphPoint(vertex=v) for v in verts), ivs)

    @classmethod
    def _encode(cls, graph: MetricGraph, points: Iterable[GraphPoint],
                intervals: dict) -> "ClosedSubset":
        """Build from known points and rational intervals [a, b] within their
        edges, in any order, over the lcm of their ends."""
        verts, ivs = set(), {eid: list(segs) for eid, segs in intervals.items()}
        for p in points:
            if p.is_vertex:
                verts.add(p.vertex)
            else:
                ivs.setdefault(p.edge, []).append((p.offset, p.offset))
        den = lcm(*(x.denominator for segs in ivs.values() for seg in segs for x in seg))
        return cls._of_valid(graph, verts, {
            eid: sorted((_over(a, den), _over(b, den)) for a, b in segs)
            for eid, segs in ivs.items()}, den)

    @classmethod
    def _of_valid(cls, graph: MetricGraph, verts: set, intervals: dict,
                  den: int) -> "ClosedSubset":
        """Build from known vertices (a set it adds to) and sorted int
        intervals over den in their edges."""
        ivs: dict[str, tuple[tuple[int, int], ...]] = {}
        for eid, segs in intervals.items():
            merged: list[tuple[int, int]] = []
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
                if merged[-1][1] * e.length.denominator == e.length.numerator * den:
                    verts.add(e.head)
                ivs[eid] = tuple(merged)
        s = object.__new__(cls)
        s.graph, s.vertices, s._ivs, s._den = graph, frozenset(verts), ivs, den
        return s

    @property
    def intervals(self) -> dict[str, tuple[tuple[Fraction, Fraction], ...]]:
        den = self._den
        return {eid: tuple((Fraction(a, den), Fraction(b, den)) for a, b in segs)
                for eid, segs in self._ivs.items()}

    def _scaled(self, den: int) -> dict:
        """The int intervals over den, a multiple of _den."""
        k = den // self._den
        return self._ivs if k == 1 else {
            eid: tuple((a * k, b * k) for a, b in segs) for eid, segs in self._ivs.items()}

    # -- queries -------------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.vertices and not self._ivs

    def contains(self, point: GraphPoint) -> bool:
        if point.is_vertex:
            return point.vertex in self.vertices
        x, d = point.offset.numerator * self._den, point.offset.denominator
        return any(a * d <= x <= b * d for a, b in self._ivs.get(point.edge, ()))

    def covers_graph(self) -> bool:
        """Whether each edge is the one interval [0, length]; _of_valid then put
        every vertex, an end of some edge, in the set."""
        if len(self._ivs) != len(self.graph.edges):
            return False
        for e in self.graph.edges:
            (a, b), *rest = self._ivs[e.id]
            if rest or a or b * e.length.denominator != e.length.numerator * self._den:
                return False
        return True

    def key(self) -> tuple:
        return (tuple(sorted(self.vertices)), tuple(sorted(self.intervals.items())))

    def __eq__(self, other) -> bool:
        return isinstance(other, ClosedSubset) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    # -- set algebra -----------------------------------------------------------

    def union(self, *others: "ClosedSubset") -> "ClosedSubset":
        sets = (self, *others)
        den = lcm(*(s._den for s in sets))
        ivs: dict[str, list[tuple[int, int]]] = {}
        for s in sets:
            for eid, segs in s._scaled(den).items():
                ivs.setdefault(eid, []).extend(segs)
        return ClosedSubset._of_valid(self.graph, set().union(*(s.vertices for s in sets)),
                                      {eid: sorted(segs) for eid, segs in ivs.items()}, den)

    def intersect(self, other: "ClosedSubset") -> "ClosedSubset":
        den = lcm(self._den, other._den)
        a, b = self._scaled(den), other._scaled(den)
        ivs = {eid: [(max(a1, a2), min(b1, b2)) for a1, b1 in a[eid] for a2, b2 in b[eid]
                     if a1 <= b2 and a2 <= b1]
               for eid in a.keys() & b.keys()}
        return ClosedSubset._of_valid(self.graph, set(self.vertices) & other.vertices, ivs, den)

    # -- structure ---------------------------------------------------------------

    def finite_points(self) -> list[GraphPoint] | None:
        """The point list if the set is finite, else None."""
        pts = [GraphPoint(vertex=v) for v in sorted(self.vertices)]
        for eid, segs in self._ivs.items():
            length = self.graph.edge_map[eid].length
            for a, b in segs:
                if a != b:
                    return None
                if 0 < a and a * length.denominator < length.numerator * self._den:
                    pts.append(GraphPoint(edge=eid, offset=Fraction(a, self._den)))
        return sorted(pts, key=GraphPoint.key)

    def complement_gaps(self):
        """Open complement, as uncovered vertices and open intervals."""
        missing_vertices = sorted(set(self.graph.vertices) - self.vertices)
        den, gaps = self._den, []
        for e in self.graph.edges:
            cursor = 0
            for a, b in self._ivs.get(e.id, ()):
                if a > cursor:
                    gaps.append((e.id, Fraction(cursor, den), Fraction(a, den)))
                cursor = b
            if cursor * e.length.denominator < e.length.numerator * den:
                gaps.append((e.id, Fraction(cursor, den), e.length))
        return missing_vertices, gaps

    def complement_components(self):
        """Connected components of the open complement, for reporting: each gap
        (edge, from, to) links to the uncovered vertices at its ends, and
        `_reachable` collects the component of each item not yet reached."""
        missing_vertices, gaps = self.complement_gaps()
        links: dict = {v: [] for v in missing_vertices}
        for gap in gaps:
            e = self.graph.edge_map[gap[0]]
            links[gap] = [v for v, at_end in ((e.tail, gap[1] == 0), (e.head, gap[2] == e.length))
                          if at_end and v in links]
            for v in links[gap]:
                links[v].append(gap)
        out, seen = [], set()
        for item in links:
            if item not in seen:
                comp = _reachable(item, links.__getitem__)
                seen |= comp
                out.append({"vertices": sorted(x for x in comp if isinstance(x, str)),
                            "gaps": [{"edge": eid, "from": a, "to": b} for eid, a, b
                                     in sorted(x for x in comp if isinstance(x, tuple))]})
        return sorted(out, key=lambda g: (g["vertices"], [x["edge"] for x in g["gaps"]]))


# ---------------------------------------------------------------------------
# subdivision and exact potential solves
# ---------------------------------------------------------------------------

class Subdivision:
    """Graph refined at a finite set of interior points.

    nodes lists the vertices, as points, then the interior points by edge id
    and offset; index maps each node to its position, and segments lists
    the resulting simple pieces as (tail node, head node, length, edge id,
    start offset), an edge with no cut point as one segment.
    """

    def __init__(self, graph: MetricGraph, points: Iterable[GraphPoint]):
        cut: dict[str, set[Fraction]] = {}
        for p in points:
            if not p.is_vertex:
                cut.setdefault(p.edge, set()).add(p.offset)
        cuts = {eid: sorted(offs) for eid, offs in sorted(cut.items())}
        self.nodes = [GraphPoint(vertex=v) for v in graph.vertices]
        first = {}  # cut edge id -> position of its first cut node
        for eid, offs in cuts.items():
            first[eid] = len(self.nodes)
            self.nodes += [GraphPoint(edge=eid, offset=o) for o in offs]
        self.index = {p: i for i, p in enumerate(self.nodes)}
        at = {v: i for i, v in enumerate(graph.vertices)}
        self.segments: list[tuple[int, int, Fraction, str, Fraction]] = []
        for e in graph.edges:
            if e.id not in cuts:  # uncut: one full-length segment
                self.segments.append((at[e.tail], at[e.head], e.length, e.id, _ZERO))
                continue
            offs = [_ZERO, *cuts[e.id], e.length]
            k = first[e.id]
            ids = [at[e.tail], *range(k, k + len(offs) - 2), at[e.head]]
            self.segments += [(a, b, o2 - o1, e.id, o1)
                              for a, b, o1, o2 in zip(ids, ids[1:], offs, offs[1:])]


def _bareiss(rows: list[dict[int, int]]) -> tuple[list[int], int]:
    """Solve A X = D b in ints, D = det A, for a symmetric positive definite
    int matrix A of order n given as its upper triangle row by row
    ({column: entry}, the diagonal present), b_i held in column n of row i.
    Returns X and D; rows are overwritten.

    Sparse fraction-free (Bareiss) elimination in row order. After step k
    every entry of a row is a minor of [A | b] (Sylvester's identity), so
    dividing by the previous pivot det[k] is exact, and the pivot of step k
    is the leading minor det[k + 1]. A row the pivot row does not reach
    only scales by det[k + 1] / det[k], so each row keeps the step it was
    last brought to and is lifted there by one exact division when a pivot
    row reaches it. Back substitution over the pivot rows stays exact as
    X = D A^-1 b is an int vector (Cramer's rule).
    """
    n = len(rows)
    det = [1] * (n + 1)  # det[k]: the leading k x k minor
    level = [0] * n
    for k, row in enumerate(rows):
        if level[k] != k:
            f, g = det[k], det[level[k]]
            for j in row:
                row[j] = row[j] * f // g
        piv = det[k + 1] = row[k]
        prev = det[k]
        for i, a_ki in row.items():
            if i == k or i == n:
                continue
            target = rows[i]
            if level[i] == k:
                for j in target:
                    target[j] *= piv
            else:  # lift to step k, then scale by the pivot
                f, g = piv * det[k], det[level[i]]
                for j in target:
                    target[j] = target[j] * f // g
            for j, a_kj in row.items():
                if j >= i:
                    target[j] = target.get(j, 0) - a_ki * a_kj
            for j in target:
                target[j] //= prev
            level[i] = k + 1
    d = det[n]
    x = [0] * n
    for k in reversed(range(n)):
        row = rows[k]
        x[k] = (d * row[n] - sum(a * x[j] for j, a in row.items() if k < j < n)) // row[k]
    return x, d


def mg_potential(graph: MetricGraph, d_from: Divisor, d_to: Divisor) -> PLFunction:
    """The piecewise-linear function whose divisor is d_to - d_from.

    Unique up to a constant; returned with minimum value zero. Requires the
    two divisors to have equal degree and their points to lie on the graph.
    """
    graph.check_divisor(d_from, "d_from")
    graph.check_divisor(d_to, "d_to")
    return _potential(graph, d_from, d_to)


def _potential(graph: MetricGraph, d_from: Divisor, d_to: Divisor) -> PLFunction:
    """mg_potential on divisors whose points are already checked.

    The matrix order is |V| - 1 for any divisor. Each interior support point
    is a degree-2 node, and its Schur complement folds a coefficient c at
    offset o on an edge (t, h, l) onto the ends: c(l - o)/l to t and c o/l
    to h. The grounded vertex Laplacian (conductances 1/l, the first vertex
    at 0) is then solved in ints by sparse fraction-free elimination
    (`_bareiss`) in a minimum-degree order, which keeps the fill small on
    grids, and the solve is checked by its residual. On the edge
    the potential is the linear interpolation of the end values plus
    sum_i c_i min(o, o_i)(l - max(o, o_i))/l over its cut points (the
    Green's function of the interval with both ends held), so its slope is
    (h - t)/l + sum_i c_i (l - o_i)/l up to the first cut and drops by c_i
    at each cut o_i. Every slope is an int over dx dc l, with dx and dc the
    denominators of the vertex values and of the coefficients, and the
    values follow from the tail's in ints.
    """
    if d_from.degree() != d_to.degree():
        raise InputError("divisors must have equal degree")
    x, dx, cuts = _solve(graph, d_to.sub(d_from).entries)
    do = lcm(*(e.length.denominator for e in graph.edges),
             *(o.denominator for pts in cuts.values() for o, _ in pts))
    dc = lcm(*(c.denominator for pts in cuts.values() for _, c in pts))
    forms, ds = {}, 1
    for e in graph.edges:
        ell = _over(e.length, do)
        pts = [(_over(o, do), _over(c, dc)) for o, c in cuts.get(e.id, ())]
        den = dx * dc * ell  # each slope is a numerator over den
        ns = [(x[e.head] - x[e.tail]) * dc * do + dx * sum(c * (ell - o) for o, c in pts)]
        for _, c in pts:
            ns.append(ns[-1] - c * dx * ell)
        ds = lcm(ds, *(den // gcd(n, den) for n in ns))
        forms[e.id] = x[e.tail], (0, *(o for o, _ in pts), ell), ns, den
    dv = lcm(do * ds, dx)
    kv = dv // (do * ds)
    pieces = {}
    for eid, (tail, offs, ns, den) in forms.items():
        ss = tuple(n * ds // den for n in ns)
        values = [tail * (dv // dx)]
        for o1, o2, s in zip(offs, offs[1:], ss):
            values.append(values[-1] + (o2 - o1) * s * kv)
        pieces[eid] = offs, tuple(values), ss
    return PLFunction._of_valid(graph, pieces, do, ds, dv).minus_min()


def _solve(graph: MetricGraph, delta: dict) -> tuple[dict, int, dict]:
    """Vertex values of a potential whose divisor is delta (point ->
    coefficient, of degree zero), as int numerators over their least common
    denominator, that denominator, and each edge's sorted interior cuts
    (offset, coefficient): see mg_potential.

    The grounded Laplacian scaled by m, the lcm of the edge-length
    numerators, has int conductances m/l; the right-hand side scaled by its
    LCD r is int too. `_bareiss` solves that int system L X = D b for X
    over D = det L, so the values are m X / (r D); the residual of X in
    L X = D b is checked in O(|E|) int operations before they are returned.
    """
    pos = graph._elimination_order
    n = len(pos) - 1
    m = lcm(*(e.length.numerator for e in graph.edges))
    conductances = [(pos[e.tail], pos[e.head], m // e.length.numerator * e.length.denominator)
                    for e in graph.edges]
    # c o/l = c.num o.num l.den / (c.den o.den l.num): r is a multiple of the LCD
    r = lcm(*(c.denominator if p.is_vertex else c.denominator * p.offset.denominator
              * graph.edge_map[p.edge].length.numerator for p, c in delta.items()))
    b = [0] * (n + 1)  # the grounded vertex (-1) fills the spare last slot
    cuts: dict[str, list[tuple[Fraction, Fraction]]] = {}
    for p, c in delta.items():
        k = c.numerator * (r // c.denominator)
        if p.is_vertex:
            b[pos[p.vertex]] += k
            continue
        e = graph.edge_map[p.edge]
        o, ell = p.offset, e.length
        at_head = k // (o.denominator * ell.numerator) * o.numerator * ell.denominator
        b[pos[e.tail]] += k - at_head
        b[pos[e.head]] += at_head
        cuts.setdefault(e.id, []).append((o, c))
    g = gcd(r, *b)
    r //= g
    b = [v // g for v in b]
    rows = [{i: 0, n: b[i]} for i in range(n)]
    for i, j, c in conductances:
        i, j = sorted((i, j))
        rows[j][j] += c
        if i >= 0:
            rows[i][i] += c
            rows[i][j] = rows[i].get(j, 0) - c
    x, d = _bareiss(rows)
    x.append(0)
    residual = [-d * v for v in b]
    for i, j, c in conductances:
        flow = c * (x[i] - x[j])
        residual[i] += flow
        residual[j] -= flow
    if any(residual[:-1]):
        raise CertificateError("the potential solve failed its residual check",
                               {"determinant": d})
    den = r * d
    g = gcd(den, m * gcd(*x))
    return ({v: m * x[i] // g for v, i in pos.items()}, den // g,
            {eid: sorted(cs) for eid, cs in cuts.items()})


def _cut_value(e: Edge, x: dict, dx: int, pts: list, o: Fraction) -> Fraction:
    """Value at offset o on e of the potential _solve gives as x over dx and, on e, pts."""
    ell = e.length
    return ((x[e.tail] * (ell - o) + x[e.head] * o) / dx + sum(
        c * min(o, oi) * (ell - max(o, oi)) for oi, c in pts)) / ell


def mg_jfunction(graph: MetricGraph, q: GraphPoint, p: GraphPoint) -> PLFunction:
    """Influence function: potential at x when unit current enters at p and
    exits at q, grounded so the value at q is zero (hence nonnegative)."""
    graph.check_point(q, "q")
    graph.check_point(p, "p")
    return _potential(graph, Divisor(graph, {q: 1}), Divisor(graph, {p: 1}))


def mg_resistance(graph: MetricGraph, p: GraphPoint, q: GraphPoint) -> Fraction:
    """Effective resistance between two points: the j-function's value at p,
    read from the solve at p and q without building the function."""
    graph.check_point(p, "p")
    graph.check_point(q, "q")
    if p.key() == q.key():
        return Fraction(0)
    x, dx, cuts = _solve(graph, {p: 1, q: -1})
    at_p, at_q = (Fraction(x[pt.vertex], dx) if pt.is_vertex else _cut_value(
        graph.edge_map[pt.edge], x, dx, cuts[pt.edge], pt.offset) for pt in (p, q))
    return at_p - at_q


def mg_distance(graph: MetricGraph, p: GraphPoint, q: GraphPoint) -> Fraction:
    """Geodesic distance between two points."""
    graph.check_point(p, "p")
    graph.check_point(q, "q")
    if p.key() == q.key():
        return Fraction(0)

    def anchors(pt: GraphPoint) -> list[tuple[str, Fraction]]:
        if pt.is_vertex:
            return [(pt.vertex, Fraction(0))]
        e = graph.edge_map[pt.edge]
        return [(e.tail, pt.offset), (e.head, e.length - pt.offset)]

    dist_from = _dijkstra(graph, anchors(p))
    best = min(dist_from[v] + extra for v, extra in anchors(q))
    if not p.is_vertex and not q.is_vertex and p.edge == q.edge:
        best = min(best, abs(p.offset - q.offset))
    return best


def _dijkstra(graph: MetricGraph, sources: list[tuple[str, Fraction]]) -> dict[str, Fraction]:
    """Distance to each vertex from the nearest (vertex, start distance)
    source, by a lazy-deletion heap of (distance, vertex): a tie compares names."""
    adj = _adjacency(graph.vertices, graph.edges)
    heap = [(d, v) for v, d in sources]
    heapq.heapify(heap)
    final: dict[str, Fraction] = {}
    while heap:
        d, v = heapq.heappop(heap)
        if v in final:
            continue
        final[v] = d
        for w, ln in adj[v]:
            if w not in final:
                heapq.heappush(heap, (d + ln, w))
    return final


def _adjacency(vertices: Iterable[str], edges: Iterable[Edge]) -> dict[str, list[tuple[str, Fraction]]]:
    """{vertex: [(neighbour, edge length), ...]}, built on each call."""
    adj: dict[str, list[tuple[str, Fraction]]] = {v: [] for v in vertices}
    for e in edges:
        adj[e.tail].append((e.head, e.length))
        adj[e.head].append((e.tail, e.length))
    return adj


def _reachable(start, step) -> set:
    """Everything reachable from start, start included, where step(x) lists
    the neighbours of x."""
    seen = {start}
    stack = [start]
    while stack:
        for y in step(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen
