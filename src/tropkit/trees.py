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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .divisors import LinearSystem, ls_bases, ls_reduced
from .errors import CertificateError, InputError
from .graphs import ClosedSubset, Divisor, GraphPoint, MetricGraph, Subdivision
from .tropical import as_fraction

__all__ = [
    "Attachment",
    "Modification",
    "PseudoHarmonicMap",
    "SkeletonArc",
    "SubArcMap",
    "TreeSkeleton",
    "tt_critical",
    "tt_harmonize",
    "tt_is_dominant",
    "tt_is_tree",
    "tt_morphism",
    "tt_preimage",
    "tt_reduced_map",
    "tt_skeleton",
    "tt_support",
    "tt_verify_witness",
]


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
    return list(system.cached(("criticals",), lambda: _criticals(system)))


def _criticals(system: LinearSystem) -> tuple[Divisor, ...]:
    gens = system.generators
    crits = dict.fromkeys(gens)  # an ordered set: equal divisors keep the first found
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            f = system.pair_function(gens[i], gens[j])
            for level in f.breakpoint_values():
                crits.setdefault(system.path_point(gens[i], gens[j], level))
    return tuple(sorted(crits, key=Divisor.key))


def _on_generator_segment(system: LinearSystem, x: Divisor) -> bool:
    """Whether x lies on the segment between some pair of generators."""
    gens = system.generators
    if any(x == g for g in gens):
        return True
    for i in range(len(gens)):
        t = system.rho(gens[i], x)
        for j in range(len(gens)):
            if j == i:
                continue
            if t <= system.rho(gens[i], gens[j]) and \
                    system.path_point(gens[i], gens[j], t) == x:
                return True
    return False


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
    ok, report = system.cached(("is_tree",), lambda: _tree_check(system))
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
    confirmed: set[Divisor] = set(system.generators)
    for ia in range(len(crits)):
        for ib in range(ia + 1, len(crits)):
            f = system.pair_function(crits[ia], crits[ib])
            for level in f.breakpoint_values():
                x = system.path_point(crits[ia], crits[ib], level)
                if x in confirmed:
                    continue
                if not _on_generator_segment(system, x):
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
    vertices: set[str] = set()
    intervals: dict[str, list[tuple[Fraction, Fraction]]] = {}

    def add_point(p: GraphPoint) -> None:
        if p.is_vertex:
            vertices.add(p.vertex)
        else:
            intervals.setdefault(p.edge, []).append((p.offset, p.offset))

    gens = system.generators
    for g in gens:
        for p in g.support():
            add_point(p)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            f = system.pair_function(gens[i], gens[j])
            for eid, segs in f.nonconstant_intervals().items():
                intervals.setdefault(eid, []).extend(segs)
    return ClosedSubset(system.graph, vertices, intervals)


def tt_support(system: LinearSystem) -> ClosedSubset:
    """Union of the supports of all divisors in a tropical tree."""
    ok, report = tt_is_tree(system)
    if not ok:
        raise InputError("the system is not a tropical tree: "
                         + report["reason"])
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
    ok, report = system.cached(("is_dominant",), lambda: _dominance_check(system))
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
    samples = _sample_points(system.graph)
    for q in samples:
        red, _ = ls_reduced(system, q)
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


def _full_subset(graph: MetricGraph) -> ClosedSubset:
    return ClosedSubset(graph, set(graph.vertices),
                        {e.id: [(Fraction(0), e.length)] for e in graph.edges})


def tt_preimage(system: LinearSystem, d: Divisor) -> ClosedSubset:
    """Points of the graph whose reduced divisor is d.

    For a dominant tree this is the intersection of the chip-firing bases
    of d.  A member with no bases admits no move at all, so every point
    reduces to it and the preimage is the whole graph.
    """
    bases = ls_bases(system, d)
    if not bases:
        return _full_subset(system.graph)
    out = bases[0]
    for b in bases[1:]:
        out = out.intersect(b)
    return out


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


@dataclass(frozen=True)
class SkeletonArc:
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


@dataclass(frozen=True)
class TreeSkeleton:
    """Critical divisors as nodes joined by the arcs between them."""

    nodes: tuple[Divisor, ...]
    arcs: tuple[SkeletonArc, ...]

    def neighbors(self, n: int) -> list[tuple[int, int]]:
        """(arc index, far node index) pairs at node n."""
        out = []
        for i, arc in enumerate(self.arcs):
            if arc.a == n:
                out.append((i, arc.b))
            elif arc.b == n:
                out.append((i, arc.a))
        return out

    def component_through(self, cut_arc: int, endpoint: int) -> frozenset[int]:
        """Nodes of the component containing ``endpoint`` once ``cut_arc``
        is removed (-1 removes none)."""
        seen = {endpoint}
        stack = [endpoint]
        while stack:
            cur = stack.pop()
            for i, far in self.neighbors(cur):
                if i == cut_arc or far in seen:
                    continue
                seen.add(far)
                stack.append(far)
        return frozenset(seen)


def tt_skeleton(system: LinearSystem) -> TreeSkeleton:
    """Skeleton of a tropical tree: critical divisors joined by arcs."""
    ok, report = tt_is_tree(system)
    if not ok:
        raise InputError("the system is not a tropical tree: "
                         + report["reason"])
    crits = tt_critical(system)
    index = {d: i for i, d in enumerate(crits)}
    gens = system.generators
    arcs: dict[tuple[int, int], SkeletonArc] = {}
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            rho_ij = system.rho(gens[i], gens[j])
            if rho_ij == 0:
                continue
            levels = set(system.pair_function(gens[i], gens[j])
                         .breakpoint_values())
            # Criticals discovered on other generator segments may sit at
            # interior levels of this one; include their positions so no
            # arc skips through a node.
            for d in crits:
                t = system.rho(gens[i], d)
                if 0 < t < rho_ij and t not in levels and \
                        system.path_point(gens[i], gens[j], t) == d:
                    levels.add(t)
            ordered = sorted(levels)
            points = [system.path_point(gens[i], gens[j], t) for t in ordered]
            for k in range(len(points) - 1):
                na = index[points[k]]
                nb = index[points[k + 1]]
                if na == nb:
                    raise CertificateError(
                        "two distinct levels yield the same divisor on a "
                        "generator segment",
                        {"pair": (i, j), "level": str(ordered[k])})
                span = ordered[k + 1] - ordered[k]
                stored = arcs.get((min(na, nb), max(na, nb)))
                if stored is None:
                    arcs[(min(na, nb), max(na, nb))] = SkeletonArc(
                        a=na, b=nb, length=span, pair=(i, j),
                        level=ordered[k])
                elif stored.length != span:
                    raise CertificateError(
                        "the same pair of critical divisors is joined by "
                        "arcs of different lengths",
                        {"nodes": (na, nb),
                         "lengths": (str(stored.length), str(span))})
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


def _locate(system: LinearSystem, skel: TreeSkeleton,
            x: Divisor) -> tuple[int | None, int | None, Fraction]:
    """Position of divisor x on the skeleton.

    Returns (arc index, node index, offset from the arc's first node);
    exactly one of the two indices is set.
    """
    for idx, node in enumerate(skel.nodes):
        if node == x:
            return None, idx, Fraction(0)
    for ai, arc in enumerate(skel.arcs):
        na, nb = skel.nodes[arc.a], skel.nodes[arc.b]
        t = system.rho(na, x)
        if 0 < t < arc.length and system.path_point(na, nb, t) == x:
            return ai, None, t
    raise CertificateError("a reduced divisor does not lie on the tree",
                           {"divisor": str(x)})


# ---------------------------------------------------------------------------
# the reduced-divisor map as a pseudo-harmonic morphism


@dataclass(frozen=True)
class SubArcMap:
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


@dataclass(frozen=True)
class PseudoHarmonicMap:
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
    return system.cached(("morphism",), lambda: _morphism(system))


def _morphism(system: LinearSystem) -> PseudoHarmonicMap:
    ok, report = tt_is_dominant(system)
    if not ok:
        raise InputError("the system is not a dominant tropical tree: "
                         + report["reason"])
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
        arc_idx, pos_a, pos_b = _common_arc(system, skel, ra, rb)
        sub_arcs.append(SubArcMap(edge=eid, start=off, end=off + length,
                                  arc=arc_idx, arc_from=pos_a, arc_to=pos_b,
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


def _common_arc(system: LinearSystem, skel: TreeSkeleton,
                ra: Divisor, rb: Divisor) -> tuple[int, Fraction, Fraction]:
    """Arc carrying both endpoint images, with their positions on it."""
    arc_a, node_a, t_a = _locate(system, skel, ra)
    arc_b, node_b, t_b = _locate(system, skel, rb)

    def candidates(arc_idx, node_idx):
        if arc_idx is not None:
            return {arc_idx}
        return {i for i, _ in skel.neighbors(node_idx)}

    shared = candidates(arc_a, node_a) & candidates(arc_b, node_b)
    if not shared:
        raise CertificateError(
            "segment endpoint images do not share an arc",
            {"from": str(ra), "to": str(rb)})
    ai = min(shared)
    arc = skel.arcs[ai]

    def position(arc_idx, node_idx, t):
        if arc_idx is not None:
            return t
        if node_idx == arc.a:
            return Fraction(0)
        return arc.length

    return ai, position(arc_a, node_a, t_a), position(arc_b, node_b, t_b)


# ---------------------------------------------------------------------------
# harmonization


@dataclass(frozen=True)
class Attachment:
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


@dataclass(frozen=True)
class Modification:
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

    candidates: dict[tuple, GraphPoint] = {}
    for node in skel.nodes:
        for p in node.support():
            candidates.setdefault(p.key(), p)

    attachments: list[Attachment] = []
    for key in sorted(candidates):
        p = candidates[key]
        red, _ = ls_reduced(system, p)
        arc_idx, node_idx, t = _locate(system, skel, red)
        if node_idx is not None:
            for arc_i, far in skel.neighbors(node_idx):
                tau = int(skel.nodes[far].coeff(p))
                if tau > 0:
                    comp = skel.component_through(arc_i, far)
                    attachments.append(Attachment(
                        point=p, multiplicity=tau,
                        component_nodes=tuple(sorted(comp))))
        else:
            arc = skel.arcs[arc_idx]
            for side, endpoint in (("a", arc.a), ("b", arc.b)):
                tau = int(skel.nodes[endpoint].coeff(p))
                if tau > 0:
                    comp = skel.component_through(arc_idx, endpoint)
                    attachments.append(Attachment(
                        point=p, multiplicity=tau,
                        component_nodes=tuple(sorted(comp)),
                        partial_arc=arc_idx, partial_t=t,
                        partial_side=side))

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
