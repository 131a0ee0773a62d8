"""One-dimensional structure of linear systems on metric graphs.

A system spanned by finitely many effective divisors is a *tropical tree*
when it equals the union of the segments between its generators and that
union contains no cycle.  Trees that additionally touch every point of the
graph ("dominant" trees) induce a reduced-divisor map from the graph onto
the tree; this module checks those properties, builds the tree skeleton,
assembles the reduced-divisor map as a piecewise pseudo-harmonic morphism,
and harmonizes it by attaching branches so that every fiber carries the
full degree.

The verification style matches the rest of the package: every structural
claim a routine returns is backed by an internal certificate check, and a
violated certificate raises CertificateError rather than returning a wrong
answer.  Predicate routines return ``(bool, report)`` so callers can relay
the reason for a negative verdict.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import NamedTuple

from . import _LAZY
from .divisors import LinearSystem, ls_bases, ls_reduced
from .errors import CertificateError, InputError
from .graphs import ClosedSubset, Divisor, GraphPoint, MetricGraph, _reachable
from .rational import as_fraction

__all__ = _LAZY["trees"]


# ---------------------------------------------------------------------------
# critical divisors


def tt_critical(system: LinearSystem) -> list[Divisor]:
    """Critical divisors: generators plus the path point at every
    breakpoint value of each generator pair's function, deduplicated and
    sorted canonically.

    The segment between two generators is swept by clipping their pair
    function. Its breakpoint values are its values at the ends of its
    linear pieces, and a piece ends where the slope changes or at a vertex.
    So the set holds every divisor where a generator segment changes
    direction, and depends on the graph's model: subdividing an edge where
    a pair function keeps its slope can add a critical, and a node of
    valence 2 to tt_skeleton.
    """
    return list(system.cached(("criticals",), _criticals, system))


def _criticals(system: LinearSystem) -> tuple[Divisor, ...]:
    gens = system.generators
    crits = dict.fromkeys(gens)  # an ordered set: equal divisors keep the first found
    for a, b in combinations(gens, 2):
        crits.update(dict.fromkeys(_turns(system, a, b).values()))
    return tuple(sorted(crits, key=Divisor.key))


def _turns(system: LinearSystem, a: Divisor, b: Divisor) -> dict[Fraction, Divisor]:
    """The path points at the breakpoint levels of the segment from a to b,
    by level in increasing order: where the segment changes direction, and
    at the pair function's value at every vertex."""
    return {t: system.path_point(a, b, t)
            for t in system.pair_function(a, b).breakpoint_values()}


def _level(system: LinearSystem, a: Divisor, b: Divisor, x: Divisor) -> Fraction | None:
    """The level of x on the segment from a to b, or None when x is off it."""
    t = system.rho(a, x)
    if t <= system.rho(a, b) and system.path_point(a, b, t) == x:
        return t
    return None


# ---------------------------------------------------------------------------
# tree and dominance predicates


def tt_is_tree(system: LinearSystem) -> tuple[bool, dict]:
    """Whether the system is a tropical tree.

    Two independent checks run over the critical set.  First, at every
    critical divisor the chip-firing bases must pairwise cover the graph;
    a failing pair certifies a branch point whose directions miss part of
    the graph, which cannot happen on a tree.  Second, the segment between
    every pair of critical divisors must stay inside the union of the
    generator segments: each direction change along such a segment is
    located and tested for membership on some generator segment.
    """
    ok, report = system.cached(("is_tree",), _tree_check, system)
    return ok, dict(report)


def _tree_check(system: LinearSystem) -> tuple[bool, dict]:
    crits = tt_critical(system)
    for d in crits:
        for x, y in combinations(ls_bases(system, d), 2):
            if not x.union(y).covers_graph():
                return False, {
                    "method": "critical-set verified",
                    "reason": "two chip-firing bases fail to cover the graph",
                    "divisor": d,
                    "bases": (x, y),
                }
    gens = system.generators
    confirmed: set[Divisor] = set(gens)
    for ca, cb in combinations(crits, 2):
        for x in _turns(system, ca, cb).values():
            if x in confirmed:
                continue
            # one pair each: a..a holds only the generator a, b..a is a..b backwards
            if all(_level(system, a, b, x) is None for a, b in combinations(gens, 2)):
                return False, {
                    "method": "critical-set verified",
                    "reason": "a segment between members leaves the "
                              "generator segments",
                    "divisor": x,
                    "between": (ca, cb),
                }
            confirmed.add(x)
    return True, {"method": "critical-set verified", "criticals": len(crits)}


def _tree_support(system: LinearSystem) -> ClosedSubset:
    """Union of the supports of all divisors on the generator segments.

    While a front sweeps from one generator to another, the swept region
    is exactly the union of the non-constant pieces of the pair function,
    and the chips that never move sit in the supports of the endpoints.
    Each non-constant piece contributes its closed parameter interval.
    """
    gens = system.generators
    return ClosedSubset._encode(system.graph, (p for g in gens for p in g.entries), {}).union(
        *(system.pair_function(a, b).nonconstant_set() for a, b in combinations(gens, 2)))


def _require(verdict: tuple[bool, dict], what: str) -> None:
    """Raise the InputError of a negative (ok, report) verdict on the system."""
    ok, report = verdict
    if not ok:
        raise InputError(f"the system is not a {what}: " + report["reason"])


def tt_support(system: LinearSystem) -> ClosedSubset:
    """Union of the supports of all divisors in a tropical tree."""
    _require(tt_is_tree(system), "tropical tree")
    return _tree_support(system)


def _sample_points(graph: MetricGraph, per_edge: int = 1) -> list[GraphPoint]:
    """The vertices, then ``per_edge`` evenly spaced interior points of
    each edge, at ``length*k/(per_edge+1)``."""
    points = [graph.vertex_point(v) for v in graph.vertices]
    for e in graph.edges:
        for k in range(1, per_edge + 1):
            points.append(graph.point(
                edge=e.id, offset=e.length * k / (per_edge + 1)))
    return points


def tt_is_dominant(system: LinearSystem) -> tuple[bool, dict]:
    """Whether the system is a tropical tree whose divisors cover the graph.

    Coverage is decided from the computed support.  When it holds, every
    sampled point must appear in its own reduced divisor; a sample that
    fails that cross-check contradicts the coverage computation, so it is
    raised as a certificate failure instead of a negative verdict.
    """
    ok, report = system.cached(("is_dominant",), _dominance_check, system)
    return ok, dict(report)


def _dominance_check(system: LinearSystem) -> tuple[bool, dict]:
    ok, tree_report = tt_is_tree(system)
    if not ok:
        return False, {"dominant": False,
                       "reason": "not a tropical tree",
                       "tree": tree_report}
    support = _tree_support(system)
    if not support.covers_graph():
        return False, {
            "dominant": False,
            "reason": "support misses part of the graph",
            "uncovered": support.complement_components(),
        }
    samples = tt_reduced_map(system)
    for q, red in samples:
        if red.coeff(q) <= 0:
            raise CertificateError(
                "a sampled point is missing from its own reduced "
                "divisor despite full support coverage",
                {"point": str(q), "reduced": str(red)})
    return True, {"dominant": True,
                  "method": "critical-set verified",
                  "spot_checks": len(samples)}


# ---------------------------------------------------------------------------
# preimages and the reduced-divisor map


def tt_preimage(system: LinearSystem, d: Divisor) -> ClosedSubset:
    """Points of the graph whose reduced divisor is d.

    For a dominant tree this is the intersection of the chip-firing bases
    of d.  A member with no bases admits no move at all, so every point
    reduces to it and the preimage is the whole graph.
    """
    bases = ls_bases(system, d)
    if bases:
        return reduce(ClosedSubset.intersect, bases)
    graph = system.graph
    return ClosedSubset._encode(graph, (), {e.id: [(0, e.length)] for e in graph.edges})


def tt_reduced_map(system: LinearSystem, per_edge: int = 1) -> list[tuple[GraphPoint, Divisor]]:
    """Reduced divisor at each point of _sample_points(graph, per_edge):
    the vertices, then per_edge evenly spaced interior points of each edge.
    ls_reduced gives it at any other point. per_edge must be an int (not a
    bool) and at least 0, or the call raises InputError at "per_edge"."""
    if isinstance(per_edge, bool) or not isinstance(per_edge, int) or per_edge < 0:
        raise InputError("the sample density must be a nonnegative integer", "per_edge")
    return [(q, ls_reduced(system, q)[0]) for q in _sample_points(system.graph, per_edge)]


# ---------------------------------------------------------------------------
# skeleton


class SkeletonArc(NamedTuple):
    """Arc of a tree skeleton between node indices a and b.

    The arc is realized on the segment between generators ``pair``; node a
    sits at parameter ``level`` on that segment and the arc extends for
    ``length`` toward the second generator.
    """

    a: int
    b: int
    length: Fraction
    pair: tuple[int, int]
    level: Fraction


class TreeSkeleton(NamedTuple):
    """Critical divisors as nodes joined by the arcs between them."""

    nodes: tuple[Divisor, ...]
    arcs: tuple[SkeletonArc, ...]

    def neighbors(self, n: int) -> list[tuple[int, int]]:
        """(arc index, far node index) pairs at node n."""
        return [(i, arc.b if arc.a == n else arc.a)
                for i, arc in enumerate(self.arcs) if n in (arc.a, arc.b)]

    def component_through(self, cut_arc: int, endpoint: int) -> frozenset[int]:
        """Nodes of the component containing ``endpoint`` once ``cut_arc``
        is removed (-1 removes none), read by `graphs._reachable`."""
        return frozenset(_reachable(endpoint, lambda n: [
            far for i, far in self.neighbors(n) if i != cut_arc]))


def tt_skeleton(system: LinearSystem) -> TreeSkeleton:
    """Skeleton of a tropical tree: critical divisors joined by arcs."""
    _require(tt_is_tree(system), "tropical tree")
    crits = tt_critical(system)
    index = {d: i for i, d in enumerate(crits)}
    gens = system.generators
    arcs: dict[tuple[int, int], SkeletonArc] = {}
    for (i, a), (j, b) in combinations(enumerate(gens), 2):
        # every turn of this segment is a critical, and so is any critical
        # from another segment lying on it, so no arc skips a node
        points = {t: d for d in crits if (t := _level(system, a, b, d)) is not None}
        ordered = sorted(points)
        for lo, hi in zip(ordered, ordered[1:]):
            na, nb = index[points[lo]], index[points[hi]]
            if na == nb:
                raise CertificateError(
                    "two distinct levels yield the same divisor on a "
                    "generator segment",
                    {"pair": (i, j), "level": str(lo)})
            stored = arcs.get((min(na, nb), max(na, nb)))
            if stored is None:
                arcs[(min(na, nb), max(na, nb))] = SkeletonArc(
                    a=na, b=nb, length=hi - lo, pair=(i, j), level=lo)
            elif stored.length != hi - lo:
                raise CertificateError(
                    "the same pair of critical divisors is joined by "
                    "arcs of different lengths",
                    {"nodes": (na, nb),
                     "lengths": (str(stored.length), str(hi - lo))})
    arc_list = tuple(arcs[k] for k in sorted(arcs))
    # A connected graph on n nodes with n-1 edges and no repeated edge is
    # a tree; verify connectivity explicitly.
    if len(arc_list) != len(crits) - 1:
        raise CertificateError(
            "the critical divisors do not span a tree",
            {"nodes": len(crits), "arcs": len(arc_list)})
    skeleton = TreeSkeleton(nodes=tuple(crits), arcs=arc_list)
    if crits:
        reached = len(skeleton.component_through(-1, 0))
        if reached != len(crits):
            raise CertificateError("the skeleton is not connected",
                                   {"reached": reached, "nodes": len(crits)})
    return skeleton


def _places(system: LinearSystem, skel: TreeSkeleton,
            x: Divisor) -> dict[int, Fraction]:
    """x's position on each skeleton arc that carries it, measured from the
    arc's first node: every arc at a node, at 0 or the arc's length, or the
    one arc whose interior holds x.  An arc's length is the distance between
    its nodes, so a divisor other than a node lies inside the arc exactly
    when it is on the segment between them."""
    if x in skel.nodes:
        n = skel.nodes.index(x)
        return {i: Fraction(0) if skel.arcs[i].a == n else skel.arcs[i].length
                for i, _ in skel.neighbors(n)}
    for ai, arc in enumerate(skel.arcs):
        t = _level(system, skel.nodes[arc.a], skel.nodes[arc.b], x)
        if t is not None:
            return {ai: t}
    raise CertificateError("a reduced divisor does not lie on the tree",
                           {"divisor": str(x)})


# ---------------------------------------------------------------------------
# the reduced-divisor map as a pseudo-harmonic morphism


class SubArcMap(NamedTuple):
    """Linear piece of the reduced-divisor map.

    The source is the stretch of edge ``edge`` between offsets ``start``
    and ``end``; its image runs along skeleton arc ``arc`` from position
    ``arc_from`` to ``arc_to`` (measured from the arc's first node), with
    the stated integer expansion factor.
    """

    edge: str
    start: Fraction
    end: Fraction
    arc: int
    arc_from: Fraction
    arc_to: Fraction
    expansion: int


class PseudoHarmonicMap(NamedTuple):
    """Reduced-divisor map from the graph onto a tree skeleton.

    ``cut_points`` are the fiber points that are not vertices, by edge
    and offset; ``sub_arcs`` map the gaps of the fiber set, the open
    stretches of edge between those points and the vertices, one per gap
    in edge and offset order; ``fibers`` lists the preimage of each node;
    ``local_degrees`` records the reduced-divisor coefficient at itself of
    every vertex, in graph order, then of every cut point.
    """

    skeleton: TreeSkeleton
    cut_points: tuple[GraphPoint, ...]
    sub_arcs: tuple[SubArcMap, ...]
    fibers: tuple[tuple[GraphPoint, ...], ...]
    local_degrees: tuple[tuple[GraphPoint, int], ...]

    def degree_of(self, point: GraphPoint) -> int:
        for p, deg in self.local_degrees:
            if p == point:
                return deg
        raise InputError(f"{point} is not a subdivision node of the map")


def tt_morphism(system: LinearSystem) -> PseudoHarmonicMap:
    """Build and verify the reduced-divisor map of a dominant tree.

    The fiber points of every skeleton node form one finite set; the
    reduced divisor is computed once at each vertex and fiber point, and
    its position on the skeleton once per distinct reduced divisor.  On
    each gap of the fiber set the map must be linear: the images of the
    gap's ends must lie on a common arc, the expansion factor must be a
    positive integer, and the midpoint must land exactly halfway between
    the end images.  Finally the sub-arc images must cover every arc.
    """
    return system.cached(("morphism",), _morphism, system)


def _morphism(system: LinearSystem) -> PseudoHarmonicMap:
    _require(tt_is_dominant(system), "dominant tropical tree")
    skel = tt_skeleton(system)
    graph = system.graph

    fibers: list[tuple[GraphPoint, ...]] = []
    for node in skel.nodes:
        region = tt_preimage(system, node)
        points = region.finite_points()
        if points is None:
            raise CertificateError(
                "a dominant tree has an infinite fiber",
                {"node": str(node)})
        fibers.append(tuple(points))

    cuts = ClosedSubset._encode(graph, (p for fiber in fibers for p in fiber), {})
    red = {p: ls_reduced(system, p)[0] for p in [GraphPoint(vertex=v) for v in graph.vertices]
           + [p for p in cuts.finite_points() if not p.is_vertex]}

    for node, fiber in zip(skel.nodes, fibers):
        for p in fiber:
            if red[p] != node:
                raise CertificateError(
                    "a fiber point does not reduce to its node",
                    {"point": str(p), "node": str(node)})

    places = {r: _places(system, skel, r) for r in dict.fromkeys(red.values())}

    sub_arcs: list[SubArcMap] = []
    for eid, off, end in cuts.complement_gaps()[1]:
        ra, rb = red[graph.point(edge=eid, offset=off)], red[graph.point(edge=eid, offset=end)]
        rho_ab = system.rho(ra, rb)
        if rho_ab == 0:
            raise CertificateError(
                "the reduced-divisor map is constant on a segment",
                {"edge": eid, "start": str(off)})
        factor = rho_ab / (end - off)
        if factor.denominator != 1:
            raise CertificateError(
                "an expansion factor is not an integer",
                {"edge": eid, "start": str(off), "factor": str(factor)})
        mid = graph.point(edge=eid, offset=(off + end) / 2)
        red_mid, _ = ls_reduced(system, mid)
        if red_mid != system.path_point(ra, rb, rho_ab / 2):
            raise CertificateError(
                "the reduced-divisor map is not linear on a segment",
                {"edge": eid, "start": str(off)})
        shared = places[ra].keys() & places[rb].keys()
        if not shared:
            raise CertificateError(
                "segment endpoint images do not share an arc",
                {"from": str(ra), "to": str(rb)})
        ai = min(shared)
        sub_arcs.append(SubArcMap(edge=eid, start=off, end=end, arc=ai,
                                  arc_from=places[ra][ai], arc_to=places[rb][ai],
                                  expansion=int(factor)))

    for ai, arc in enumerate(skel.arcs):
        spans = sorted((min(sa.arc_from, sa.arc_to),
                        max(sa.arc_from, sa.arc_to))
                       for sa in sub_arcs if sa.arc == ai)
        reach = Fraction(0)
        for lo, hi in spans:
            if lo > reach:
                break
            reach = max(reach, hi)
        if reach < arc.length:
            raise CertificateError(
                "the sub-arc images do not cover an arc",
                {"arc": ai, "covered": str(reach),
                 "length": str(arc.length)})

    local_degrees = tuple((p, int(r.coeff(p))) for p, r in red.items())
    return PseudoHarmonicMap(
        skeleton=skel, cut_points=tuple(p for p in red if not p.is_vertex),
        sub_arcs=tuple(sub_arcs), fibers=tuple(fibers), local_degrees=local_degrees)


# ---------------------------------------------------------------------------
# harmonization


class Attachment(NamedTuple):
    """Branch to graft at ``point``: ``multiplicity`` copies of the part of
    the tree spanned by ``component_nodes``.

    When the image of ``point`` is a node, the component is the full
    subtree through one of its neighbors.  When the image sits inside an
    arc, the component additionally contains the part of that arc on side
    ``partial_side`` ("a" or "b") of position ``partial_t``.
    """

    point: GraphPoint
    multiplicity: int
    component_nodes: tuple[int, ...]
    partial_arc: int | None = None
    partial_t: Fraction | None = None
    partial_side: str | None = None


class Modification(NamedTuple):
    """Branches whose attachment turns the reduced-divisor map harmonic."""

    attachments: tuple[Attachment, ...]

    @property
    def is_trivial(self) -> bool:
        return not self.attachments


def _covers_arc_interior(att: Attachment, skel: TreeSkeleton,
                         arc_idx: int, probe: Fraction) -> bool:
    """Whether the attached component contains the probe position on the
    arc's interior."""
    if att.partial_arc == arc_idx:
        if att.partial_side == "a":
            return probe < att.partial_t
        return probe > att.partial_t
    arc = skel.arcs[arc_idx]
    comp = set(att.component_nodes)
    return arc.a in comp or arc.b in comp


def tt_harmonize(
    system: LinearSystem,
) -> tuple[Modification, PseudoHarmonicMap, int]:
    """Attach branches so the reduced-divisor map becomes harmonic.

    For each point p with chips in some critical divisor, and for each
    component U of the tree minus the image of p, the divisors in U share
    a common coefficient at p; that coefficient is read from the critical
    divisor adjacent to the image inside U.  A positive coefficient means
    the map misses that much degree in the direction of U, so that many
    copies of U are attached at p.  Afterwards the total degree over every
    node and over a probe point inside every elementary arc interval must
    equal the degree of the system.
    """
    morphism = tt_morphism(system)
    skel = morphism.skeleton
    degree = int(system.degree)

    attachments: list[Attachment] = []
    for p in sorted({p for node in skel.nodes for p in node.entries}, key=GraphPoint.key):
        red, _ = ls_reduced(system, p)
        for ai, t in _places(system, skel, red).items():
            arc = skel.arcs[ai]
            inside = 0 < t < arc.length
            for side, end, at in (("a", arc.a, 0), ("b", arc.b, arc.length)):
                tau = int(skel.nodes[end].coeff(p))
                if tau > 0 and at != t:  # an end at the image itself carries no branch
                    # the partial fields are set only when the image is inside the arc
                    attachments.append(Attachment(
                        p, tau, tuple(sorted(skel.component_through(ai, end))),
                        *((ai, t, side) if inside else ())))

    modification = Modification(attachments=tuple(attachments))

    for ni, node in enumerate(skel.nodes):
        total = sum(int(node.coeff(p)) for p in morphism.fibers[ni])
        for att in attachments:
            if ni in att.component_nodes:
                total += att.multiplicity
        if total != degree:
            raise CertificateError(
                "fiber degrees do not balance at a node",
                {"node": str(node), "total": total, "degree": degree})

    for ai, arc in enumerate(skel.arcs):
        marks = {Fraction(0), arc.length}
        for sa in morphism.sub_arcs:
            if sa.arc == ai:
                marks.add(sa.arc_from)
                marks.add(sa.arc_to)
        for att in attachments:
            if att.partial_arc == ai:
                marks.add(att.partial_t)
        ordered = sorted(marks)
        for lo, hi in zip(ordered, ordered[1:]):
            probe = (lo + hi) / 2
            total = sum(
                sa.expansion for sa in morphism.sub_arcs
                if sa.arc == ai
                and min(sa.arc_from, sa.arc_to) < probe
                < max(sa.arc_from, sa.arc_to))
            total += sum(
                att.multiplicity for att in attachments
                if _covers_arc_interior(att, skel, ai, probe))
            if total != degree:
                raise CertificateError(
                    "fiber degrees do not balance inside an arc",
                    {"arc": ai, "position": str(probe),
                     "total": total, "degree": degree})

    return modification, morphism, degree


# ---------------------------------------------------------------------------
# gonality witnesses


def tt_verify_witness(system: LinearSystem, d) -> tuple[bool, dict]:
    """Whether the system witnesses stable gonality at most d.

    A dominant tropical tree of degree d pulls back, after harmonization,
    to a degree-d harmonic morphism onto a tree, so it certifies that the
    graph is stably d-gonal.
    """
    d = as_fraction(d)
    if d.denominator != 1 or d <= 0:
        raise InputError("the witness degree must be a positive integer")
    if system.degree != d:
        return False, {
            "verified": False,
            "reason": f"the system has degree {system.degree}, not {d}",
        }
    ok, report = tt_is_dominant(system)
    if not ok:
        return False, {
            "verified": False,
            "reason": "the system is not a dominant tropical tree",
            "detail": report,
        }
    return True, {
        "verified": True,
        "method": "critical-set verified",
        "stably_gonal": int(d),
    }
