"""Reference piecewise-linear kernel on Fraction breakpoints.

This is the straightforward version that `PLFunction`'s integer kernel
replaced: every breakpoint offset, value and slope is a `Fraction` (a slope
an `int` when integral), binary operations merge breakpoints with
`Fraction` interpolation, and a crossing of `min_with` is found by one
`Fraction` division. `potential` assembles the reference solve of
`potential_oracle` the way `mg_potential` did, dividing once per segment
for its slopes. The library must return exactly what these return; the
tests use them only as an oracle.
"""

from fractions import Fraction

from tropkit import ClosedSubset, Divisor, GraphPoint, InputError, MetricGraph
from tropkit.rational import as_fraction

from potential_oracle import cut_value, solve

_ZERO = Fraction(0)


class PLFunction:
    """data maps every edge id to a tuple of (offset, value) breakpoints with
    strictly increasing offsets from 0 to the edge length; slopes maps every
    edge id to the slopes of its segments, consecutive ones differing."""

    __slots__ = ("graph", "data", "slopes", "vertex_values")

    def __init__(self, graph: MetricGraph, data: dict):
        self.graph = graph
        raw = {eid: tuple((as_fraction(o), as_fraction(v)) for o, v in bps)
               for eid, bps in data.items()}
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
        f = object.__new__(cls)
        f.graph = graph
        f.data, f.slopes = data, slopes
        f.vertex_values = dict.fromkeys(graph.vertices)
        for e in graph.edges:
            bps = data[e.id]
            f.vertex_values[e.tail] = bps[0][1]
            f.vertex_values[e.head] = bps[-1][1]
        return f

    @classmethod
    def constant(cls, graph: MetricGraph, value) -> "PLFunction":
        value = as_fraction(value)
        return cls._of_valid(graph, {e.id: ((_ZERO, value), (e.length, value))
                                     for e in graph.edges}, dict.fromkeys(graph.edge_map, (0,)))

    def _zip(self, other: "PLFunction", fn) -> "PLFunction":
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
        return self.min_with(PLFunction.constant(self.graph, c))

    def min_value(self) -> Fraction:
        return min(v for bps in self.data.values() for _, v in bps)

    def max_value(self) -> Fraction:
        return max(v for bps in self.data.values() for _, v in bps)

    def minus_min(self) -> "PLFunction":
        return self.add_const(-self.min_value())

    def integral(self) -> Fraction:
        total = Fraction(0)
        for bps in self.data.values():
            for (o1, v1), (o2, v2) in zip(bps, bps[1:]):
                total += (v1 + v2) * (o2 - o1)
        return total / 2

    def slopes_integer(self) -> bool:
        return all(type(s) is int for ss in self.slopes.values() for s in ss)

    def breakpoint_values(self) -> list[Fraction]:
        return sorted({v for bps in self.data.values() for _, v in bps})

    def divisor(self) -> Divisor:
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

    def extremum_set(self, which: str = "min") -> ClosedSubset:
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
        return ClosedSubset(self.graph, vertices, intervals)


def _merge(a: tuple, sa: tuple, b: tuple, sb: tuple):
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
    if not ss or s != ss[-1]:
        bps.append((o, v))
        ss.append(s.numerator if s.denominator == 1 else s)


def _slope_form(bps: tuple) -> tuple[tuple, tuple]:
    out, ss = [], []
    for (o1, v1), (o2, v2) in zip(bps, bps[1:]):
        _push(out, ss, o1, v1, (v2 - v1) / (o2 - o1))
    out.append(bps[-1])
    return tuple(out), tuple(ss)


def potential(graph: MetricGraph, d_from: Divisor, d_to: Divisor) -> PLFunction:
    """mg_potential's function, with one slope division per segment."""
    vals, cuts = solve(graph, d_from, d_to)
    data, slopes = {}, {}
    for e in graph.edges:
        pts = cuts.get(e.id, ())
        data[e.id], slopes[e.id] = _slope_form(((_ZERO, vals[e.tail]), *(
            (o, cut_value(e, vals, pts, o)) for o, _ in pts), (e.length, vals[e.head])))
    return PLFunction._of_valid(graph, data, slopes).minus_min()
