"""Reference closed subsets on Fraction intervals, used only as an oracle.

`ClosedSubset` is the version that the integer closed sets replaced: every
interval end is a `Fraction`, and the checked constructor, `union` and
`intersect` re-merge sorted `Fraction` intervals. `extremum_set` builds the
minimizer (or maximizer) set of a piecewise-linear function from its exact
`data` and `slopes` views, the way `PLFunction.extremum_set` did. The
library must return exactly what these return.
"""

from fractions import Fraction
from typing import Iterable

from tropkit import GraphPoint, InputError, MetricGraph
from tropkit.rational import as_fraction


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
            if v not in graph.vertex_set:
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


def extremum_set(f, which: str = "min") -> ClosedSubset:
    """Closed locus where f attains its minimum (or maximum)."""
    target = f.min_value() if which == "min" else f.max_value()
    vertices = {v for v, val in f.vertex_values.items() if val == target}
    intervals: dict[str, list[tuple[Fraction, Fraction]]] = {}
    for e in f.graph.edges:
        bps = f.data[e.id]
        segs = [(o1, o1 if s else o2)
                for (o1, v1), (o2, _), s in zip(bps, bps[1:], f.slopes[e.id]) if v1 == target]
        if bps[-1][1] == target:
            segs.append((bps[-1][0], bps[-1][0]))
        if segs:
            intervals[e.id] = segs
    return ClosedSubset._of_valid(f.graph, vertices, intervals)
