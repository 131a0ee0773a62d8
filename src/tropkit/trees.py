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
from typing import NamedTuple, Sequence

from . import _LAZY
from .divisors import LinearSystem, ls_bases, ls_reduced
from .errors import CertificateError, InputError
from .graphs import ClosedSubset, Divisor, GraphPoint, MetricGraph, Subdivision, _reachable
from .rational import as_fraction

__all__ = _LAZY["trees"]


# ---------------------------------------------------------------------------
# critical divisors


def tt_critical(system: LinearSystem) -> list[Divisor]:
    """Critical divisors: generators plus every divisor at which some
    generator segment changes direction.

    The segment between two generators is swept by clipping their pair
    function; its direction changes exactly at the function's breakpoint
    values, so the critical set is the collection of path points at those
    levels, deduplicated and sorted canonically.
    """
    return list(system.cached(("criticals",), _criticals, system))


def _criticals(system: LinearSystem) -> tuple[Divisor, ...]:
    gens = system.generators
    crits = dict.fromkeys(gens)  # an ordered set: equal divisors keep the first found
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            crits.update(dict.fromkeys(_turns(system, gens[i], gens[j]).values()))
    return tuple(sorted(crits, key=Divisor.key))


def _turns(system: LinearSystem, a: Divisor, b: Divisor) -> dict[Fraction, Divisor]:
    """The path points at the breakpoint levels of the segment from a to b,
    by level in increasing order: where the segment changes direction."""
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
        bases = ls_bases(system, d)
        for x in range(len(bases)):
            for y in range(x + 1, len(bases)):
                if not bases[x].union(bases[y]).covers_graph():
                    return False, {
                        "method": "critical-set verified",
                        "reason": "two chip-firing bases fail to cover "
                                  "the graph",
                        "divisor": d,
                        "bases": (bases[x], bases[y]),
                    }
    gens = system.generators
    confirmed: set[Divisor] = set(gens)
    for ia in range(len(crits)):
        for ib in range(ia + 1, len(crits)):
            for x in _turns(system, crits[ia], crits[ib]).values():
                if x in confirmed:
                    continue
                # one pair each: a..a holds only the generator a, b..a is a..b backwards
                if all(_level(system, a, b, x) is None
                       for i, a in enumerate(gens) for b in gens[i + 1:]):
                    return False, {
                        "method": "critical-set verified",
                        "reason": "a segment between members leaves the "
                                  "generator segments",
                        "divisor": x,
                        "between":(crits[ia], crits[ib]),
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
    vertices: set[str] = set()
    points: dict[str, list[tuple[Fraction, Fraction]]] = {}
    for g in gens:
        for p in g.support():
            if p.is_vertex:
                vertices.add(p.vertex)
            else:
                points.setdefault(p.edge, []).append((p.offset, p.offset))
    return ClosedSubset._encode(system.graph, vertices, points).union(
        *(system.pair_function(a, b).nonconstant_set()
          for i, a in enumerate(gens) for b in gens[i + 1:]))


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


def tt_reduced_map(
    system: LinearSystem,
    samples: Sequence[GraphPoint] | None = None,
) -> list[tuple[GraphPoint, Divisor]]:
    """Reduced divisor at each sample point (default: vertices and edge
    midpoints)."""
    if samples is None:
        samples = _sample_points(system.graph)
    out = []
    for q in samples:
        red, _ = ls_reduced(system, q)
        out.append((q, red))
    return out


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
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            # every turn of this segment is a critical, and so is any critical
            # from another segment lying on it, so no arc skips a node
            points = {t: d for d in crits
                      if (t := _level(system, gens[i], gens[j], d)) is not None}
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

    ``cut_points`` are the interior points at which the graph was
    subdivided (the non-vertex fiber points); ``sub_arcs`` cover every
    subdivided edge segment; ``fibers`` lists the preimage of each node;
    ``local_degrees`` records the reduced-divisor coefficient of every
    subdivision node at itself.
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

    The graph is subdivided at every fiber point of every skeleton node.
    On each resulting segment the map must be linear: its endpoint images
    must lie on a common arc, the expansion factor must be a positive
    integer, and the midpoint must land exactly halfway between the
    endpoint images.  Finally the sub-arc images must cover every arc.
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

    sub = Subdivision(graph, [p for fiber in fibers for p in fiber])

    node_red: list[Divisor] = [ls_reduced(system, p)[0] for p in sub.nodes]

    for ni, fiber in enumerate(fibers):
        for p in fiber:
            if node_red[sub.index[p]] != skel.nodes[ni]:
                raise CertificateError(
                    "a fiber point does not reduce to its node",
                    {"point": str(p), "node": str(skel.nodes[ni])})

    places = [_places(system, skel, r) for r in node_red]

    sub_arcs: list[SubArcMap] = []
    for na, nb, length, eid, off in sub.segments:
        ra, rb = node_red[na], node_red[nb]
        rho_ab = system.rho(ra, rb)
        if rho_ab == 0:
            raise CertificateError(
                "the reduced-divisor map is constant on a segment",
                {"edge": eid, "start": str(off)})
        factor = rho_ab / length
        if factor.denominator != 1:
            raise CertificateError(
                "an expansion factor is not an integer",
                {"edge": eid, "start": str(off), "factor": str(factor)})
        mid = graph.point(edge=eid, offset=off + length / 2)
        red_mid, _ = ls_reduced(system, mid)
        if red_mid != system.path_point(ra, rb, rho_ab / 2):
            raise CertificateError(
                "the reduced-divisor map is not linear on a segment",
                {"edge": eid, "start": str(off)})
        shared = places[na].keys() & places[nb].keys()
        if not shared:
            raise CertificateError(
                "segment endpoint images do not share an arc",
                {"from": str(ra), "to": str(rb)})
        ai = min(shared)
        sub_arcs.append(SubArcMap(edge=eid, start=off, end=off + length, arc=ai,
                                  arc_from=places[na][ai], arc_to=places[nb][ai],
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

    local_degrees = tuple((p, int(red.coeff(p))) for p, red in zip(sub.nodes, node_red))
    return PseudoHarmonicMap(
        skeleton=skel, cut_points=tuple(sub.nodes[len(graph.vertices):]),
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
