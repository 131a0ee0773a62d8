"""Divisor theory on metric graphs.

Linear equivalence via integer-slope potentials, the chip-firing segment
between equivalent divisors, linear systems given by generators (with
membership, nearest-point projection, and reduced divisors), and the
independent burning route to reduced divisors.

The two routes to a reduced divisor, ls_project onto a generator family
and dv_dhar by metric burning, are deliberately separate code paths so
each can certify the other in tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Sequence

from .errors import CertificateError, InputError
from .graphs import (
    ClosedSubset,
    Divisor,
    GraphPoint,
    MetricGraph,
    PLFunction,
    Subdivision,
    _over,
    _potential,
)
from .tropical import as_fraction

__all__ = [
    "dv_lin_equiv",
    "dv_rho",
    "dv_path",
    "dv_b1",
    "dv_dhar",
    "dv_dhar_trace",
    "dv_dhar_certificate",
    "LinearSystem",
    "ls_member",
    "ls_project",
    "ls_reduced",
    "ls_extremals",
    "ls_bases",
]


def dv_lin_equiv(graph: MetricGraph, d1: Divisor, d2: Divisor) -> bool:
    """Whether the two divisors differ by an integer-slope function."""
    graph.check_divisor(d1, "d1")
    graph.check_divisor(d2, "d2")
    if d1.degree() != d2.degree():
        raise InputError("divisors must have equal degree")
    return _potential(graph, d1, d2).slopes_integer()


def _segment_function(graph: MetricGraph, d1: Divisor, d2: Divisor) -> PLFunction:
    """Min-normalized potential from d1 to d2, for equivalent effective pairs."""
    graph.check_divisor(d1, "d1")
    graph.check_divisor(d2, "d2")
    for d, which in ((d1, "first"), (d2, "second")):
        if not d.is_effective():
            raise InputError(f"the {which} divisor must be effective")
    if d1.degree() != d2.degree():
        raise InputError("divisors must have equal degree")
    f = _potential(graph, d1, d2)
    if not f.slopes_integer():
        raise InputError("divisors are not linearly equivalent")
    return f


def dv_rho(graph: MetricGraph, d1: Divisor, d2: Divisor) -> Fraction:
    """Chip-firing distance between equivalent effective divisors."""
    return _segment_function(graph, d1, d2).max_value()


def dv_path(graph: MetricGraph, d1: Divisor, d2: Divisor, t) -> Divisor:
    """The divisor at parameter t on the segment from d1 to d2.

    The segment is traced by clipping the normalized potential at level t,
    so every intermediate divisor is effective of the same degree.
    """
    f = _segment_function(graph, d1, d2)
    t = as_fraction(t)
    rho = f.max_value()
    if not (0 <= t <= rho):
        raise InputError(f"t must lie in [0, {rho}]")
    return f.clip_max(t).divisor().add(d1)


def dv_b1(graph: MetricGraph, d: Divisor, e: Divisor) -> Fraction:
    """One-sided linear pseudonorm of d - e: the integral of the
    min-normalized potential from e to d over the whole graph."""
    graph.check_divisor(d, "d")
    graph.check_divisor(e, "e")
    if d.degree() != e.degree():
        raise InputError("divisors must have equal degree")
    return _potential(graph, e, d).integral()


# ---------------------------------------------------------------------------
# reduced divisors by metric burning
# ---------------------------------------------------------------------------

def _burn_once(graph: MetricGraph, d: Divisor, q: GraphPoint):
    """One burning pass from q.

    Fire starts at q and crosses a point only when the arriving directions
    outnumber its chips. Returns (sub, burnt, unburnt): the subdivision at
    d's support and q, whether each of its nodes burnt, and the maximal
    closed set the fire cannot enter, or None when the fire consumes the
    whole graph.
    """
    sub = Subdivision(graph, d.support() + [q])
    n = len(sub.nodes)
    chips = [0] * n
    for p, c in d.entries.items():
        chips[sub.index[p]] = c
    inc: list[list[int]] = [[] for _ in range(n)]
    for a, b, _, _, _ in sub.segments:
        inc[a].append(b)
        inc[b].append(a)
    burnt = [False] * n
    burnt[sub.index[q]] = True
    changed = True
    while changed:
        changed = False
        for node in range(n):
            if burnt[node]:
                continue
            arrivals = sum(1 for other in inc[node] if burnt[other])
            if arrivals > chips[node]:
                burnt[node] = True
                changed = True
    if all(burnt):
        return sub, burnt, None
    vertices = set()
    den = lcm(*(e.length.denominator for e in graph.edges),
              *(o.denominator for offs in sub.cuts.values() for o in offs))
    intervals: dict[str, list[tuple[int, int]]] = {}  # over den
    for p, is_burnt in zip(sub.nodes, burnt):
        if is_burnt:
            continue
        if p.is_vertex:
            vertices.add(p.vertex)
        else:
            intervals.setdefault(p.edge, []).append((_over(p.offset, den),) * 2)
    for a, b, length, eid, off in sub.segments:
        if not burnt[a] and not burnt[b]:
            intervals.setdefault(eid, []).append((_over(off, den), _over(off + length, den)))
    unburnt = ClosedSubset._of_valid(
        graph, vertices, {eid: sorted(segs) for eid, segs in intervals.items()}, den)
    return sub, burnt, unburnt


def _fire_step(graph: MetricGraph, d: Divisor, sub: Subdivision,
               burnt: list[bool]) -> tuple[Divisor, Fraction]:
    """Fire the unburnt set by the largest event-free distance.

    An arm is a segment with exactly one burnt end, and l* is the length of
    the shortest arm. One chip leaves each arm's unburnt end and lands l*
    along the arm: on its burnt end when the arm is l* long, else at the
    interior point l* from the unburnt end. This is d plus the divisor of
    the firing function, 0 on the unburnt set, rising with slope 1 along
    each arm and flat at l* beyond.
    """
    arms = [seg for seg in sub.segments if burnt[seg[0]] != burnt[seg[1]]]
    l_star = min(length for _, _, length, _, _ in arms)
    chips = dict(d.entries)
    for a, b, length, eid, off in arms:
        u, w = (sub.nodes[b], sub.nodes[a]) if burnt[a] else (sub.nodes[a], sub.nodes[b])
        chips[u] = chips.get(u, 0) - 1
        land = w if length == l_star else GraphPoint(
            edge=eid, offset=off + length - l_star if burnt[a] else off + l_star)
        chips[land] = chips.get(land, 0) + 1
    fired = Divisor(graph, chips)
    if not (fired.is_effective() and fired.is_integral()):
        raise CertificateError("chip-firing produced an invalid divisor",
                               {"divisor": str(fired)})
    return fired, l_star


def _check_burning_input(graph: MetricGraph, d: Divisor, q: GraphPoint) -> None:
    graph.check_point(q, "q")
    if not d.is_effective() or not d.is_integral():
        raise InputError("the divisor must be effective with integer coefficients")
    graph.check_divisor(d, "divisor")


def _dhar_round_cap(graph: MetricGraph, d: Divisor, q: GraphPoint) -> int:
    denom = 1
    for e in graph.edges:
        denom = lcm(denom, e.length.denominator)
    for p in d.support() + [q]:
        if not p.is_vertex:
            denom = lcm(denom, p.offset.denominator)
    scaled_length = int(graph.total_length * denom)
    return 64 * (1 + scaled_length) * (int(d.degree()) + 2)


def dv_dhar_trace(graph: MetricGraph, d: Divisor, q: GraphPoint):
    """Reduced form of d at q by repeated burning, with the firing trace.

    Each round burns from q and fires the unburnt set by moving chips: each
    segment with one burnt end moves one chip from its unburnt end l* along
    it, l* the length of the shortest such segment (see _fire_step).
    """
    _check_burning_input(graph, d, q)
    cap = _dhar_round_cap(graph, d, q)
    current = d
    steps = []
    while True:
        sub, burnt, unburnt = _burn_once(graph, current, q)
        if unburnt is None:
            return current, steps
        if len(steps) >= cap:
            raise CertificateError("chip-firing did not stabilize within the safety cap",
                                   {"rounds": len(steps)})
        current, l_star = _fire_step(graph, current, sub, burnt)
        steps.append({"fired_set": unburnt, "distance": l_star})


def dv_dhar(graph: MetricGraph, d: Divisor, q: GraphPoint) -> Divisor:
    """The unique q-reduced divisor linearly equivalent to d.

    Repeatedly finds the maximal closed set the fire from q cannot enter
    and fires it toward q, until burning consumes the whole graph.
    """
    reduced, _ = dv_dhar_trace(graph, d, q)
    return reduced


def dv_dhar_certificate(graph: MetricGraph, d: Divisor, q: GraphPoint):
    """Burning certificate: does fire from q consume the whole graph?

    Returns (consumed, unburnt ClosedSubset or None); consumed means d is
    already q-reduced.
    """
    _check_burning_input(graph, d, q)
    _, _, unburnt = _burn_once(graph, d, q)
    return unburnt is None, unburnt


# ---------------------------------------------------------------------------
# linear systems
# ---------------------------------------------------------------------------

_MISS = object()


class LinearSystem:
    """Tropically convex family of effective divisors, given by generators.

    Generators must be effective divisors with integer coefficients, all of
    one degree and pairwise linearly equivalent. Every divisor the system
    touches gets one exact potential solve against generator 0, cached, so
    segment sweeps and tree machinery are pure piecewise-linear arithmetic
    afterwards. Every per-system result lives in one memo table, _memo,
    filled through cached() and keyed by (kind, *arguments); the arguments
    are divisors, which hash their key() once, and levels:
    ("potential", d) -> potential relative to generator 0; ("pair", a, b)
    -> pair_function; ("path", a, b, t) -> path_point; ("projection", e)
    -> f* and projection, whose certificates ls_project checks on every
    call, hit or not; and the tree layer's ("criticals",), ("is_tree",),
    ("is_dominant",) and ("morphism",).
    """

    def __init__(self, graph: MetricGraph, generators: Sequence[Divisor]):
        gens = list(generators)
        if not gens:
            raise InputError("a linear system needs at least one generator")
        for i, g in enumerate(gens):
            if not isinstance(g, Divisor):
                raise InputError(f"generator {i} is not a divisor")
            graph.check_divisor(g, f"generator {i}")
            if not g.is_effective():
                raise InputError(f"generator {i} must be effective")
            if not g.is_integral():
                raise InputError(f"generator {i} must have integer coefficients")
        deg = gens[0].degree()
        if any(g.degree() != deg for g in gens):
            raise InputError("generators must share one degree")
        self.graph = graph
        self.generators = tuple(gens)
        self.degree: Fraction = deg
        self._memo: dict[tuple, object] = {
            ("potential", gens[0]): PLFunction.constant(graph, 0)}
        for i, g in enumerate(gens):
            if not self.potential(g).slopes_integer():
                raise InputError(
                    f"generator {i} is not linearly equivalent to generator 0")

    def cached(self, key: tuple, build):
        """The value stored under key, or build(), stored first."""
        value = self._memo.get(key, _MISS)
        if value is _MISS:
            value = self._memo[key] = build()
        return value

    def potential(self, d: Divisor) -> PLFunction:
        """Potential of d relative to generator 0 (cached, one solve)."""
        def solve():
            if d.degree() != self.degree:
                raise InputError("divisor degree does not match the system")
            return _potential(self.graph, self.generators[0], d)

        return self.cached(("potential", d), solve)

    def register(self, d: Divisor, f: PLFunction, base: Divisor) -> None:
        """Record f + potential(base), when f's divisor is d - base, as the
        potential of d (relative to generator 0), unless d already has one."""
        key = ("potential", d)
        if key not in self._memo:
            self._memo[key] = f.add(self.potential(base))

    def pair_function(self, a: Divisor, b: Divisor) -> PLFunction:
        """Min-normalized potential from a to b (cached per ordered pair)."""
        return self.cached(("pair", a, b),
                           lambda: self.potential(b).sub(self.potential(a)).minus_min())

    def rho(self, a: Divisor, b: Divisor) -> Fraction:
        return self.pair_function(a, b).max_value()

    def path_point(self, a: Divisor, b: Divisor, t) -> Divisor:
        """Divisor at parameter t along the segment from a to b.

        Also registers the new divisor's potential, so walking a segment
        costs no additional solves.
        """
        t = as_fraction(t)
        f = self.pair_function(a, b)
        if not (0 <= t <= f.max_value()):
            raise InputError(f"t must lie in [0, {f.max_value()}]")

        def walk():
            clipped = f.clip_max(t)
            point = clipped.divisor().add(a)
            self.register(point, clipped, a)
            return point

        return self.cached(("path", a, b, t), walk)


def _check_target(T: LinearSystem, e: Divisor) -> None:
    if not isinstance(e, Divisor):
        raise InputError("the target must be a divisor")
    T.graph.check_divisor(e, "e")
    if e.degree() != T.degree:
        raise InputError("divisor degree does not match the system")
    if not e.is_effective():
        raise InputError("the target divisor must be effective")


def _cover(fns: Sequence[PLFunction]):
    """Minimizer sets of the functions, and their union."""
    sets = [f.extremum_set("min") for f in fns]
    union = sets[0]
    for s in sets[1:]:
        union = union.union(s)
    return sets, union


def ls_member(T: LinearSystem, e: Divisor):
    """Membership in the system, with a covering certificate.

    e belongs to the family iff the minimizer sets of the potentials from
    e toward the generators jointly cover the graph. Returns (bool, cert);
    the certificate carries the per-generator sets and, on failure, the
    uncovered components.
    """
    _check_target(T, e)
    if not e.is_integral():
        return False, {"member": False, "reason": "coefficients are not integers",
                       "min_sets": [], "uncovered": []}
    if not T.potential(e).slopes_integer():
        return False, {"member": False, "reason": "not linearly equivalent to the generators",
                       "min_sets": [], "uncovered": []}
    sets, union = _cover([T.pair_function(e, g) for g in T.generators])
    covered = union.covers_graph()
    cert = {
        "member": covered,
        "min_sets": sets,
        "uncovered": [] if covered else union.complement_components(),
    }
    return covered, cert


def ls_project(T: LinearSystem, e: Divisor):
    """Nearest member of the system, with optimality certificates.

    Residuated construction: shift each generator potential to touch zero
    and take the pointwise minimum f*; the projection is div(f*) + e. Each
    generator is then checked for additivity of the linear pseudonorm
    through the projection and for a common minimizer witness; the
    potentials from the projection toward the generators also give the
    membership certificate. A failed check raises CertificateError.
    """
    _check_target(T, e)
    g_bars = [T.pair_function(e, g) for g in T.generators]

    def project():
        f_star = reduce(PLFunction.min_with, g_bars)
        projection = f_star.divisor().add(e)
        T.register(projection, f_star, e)
        return f_star, projection

    f_star, projection = T.cached(("projection", e), project)
    if not projection.is_integral() or not projection.is_effective():
        raise CertificateError("projection is not an effective integer divisor",
                               {"projection": str(projection)})
    f_star_min = f_star.extremum_set("min")
    b_lower = f_star.integral()
    checks = []
    # potentials from the projection toward each generator (g_bar - f_star, shifted)
    to_projections = [T.pair_function(projection, g) for g in T.generators]
    for i, (g_bar, to_projection) in enumerate(zip(g_bars, to_projections)):
        b_total = g_bar.integral()
        b_upper = to_projection.integral()
        witness = to_projection.extremum_set("min").intersect(f_star_min)
        checks.append({
            "generator": i,
            "b1_total": b_total,
            "b1_to_projection": b_upper,
            "b1_from_projection": b_lower,
            "witness": witness,
        })
        if b_total != b_upper + b_lower:
            raise CertificateError(
                "projection failed the 1-pseudonorm additivity certificate",
                {"generator": i, "total": str(b_total), "split": str(b_upper + b_lower)})
        if witness.is_empty():
            raise CertificateError(
                "projection failed the minimizer intersection certificate",
                {"generator": i})
    sets, union = _cover(to_projections)
    if not (T.potential(projection).slopes_integer() and union.covers_graph()):
        raise CertificateError("projection is not a member of the system",
                               {"projection": str(projection)})
    membership = {"member": True, "min_sets": sets, "uncovered": []}
    return projection, {"checks": checks, "membership": membership}


def ls_reduced(T: LinearSystem, q: GraphPoint):
    """The q-reduced divisor of the system: the projection of deg·(q)."""
    T.graph.check_point(q, "q")
    target = Divisor(T.graph, {q: T.degree})
    return ls_project(T, target)


def ls_extremals(T: LinearSystem) -> list[Divisor]:
    """Unique minimal generating subset, by greedy redundancy removal."""
    gens = list(dict.fromkeys(T.generators))
    changed = True
    while changed and len(gens) > 1:
        changed = False
        for i in range(len(gens)):
            others = gens[:i] + gens[i + 1:]
            _, union = _cover([T.pair_function(gens[i], g) for g in others])
            if union.covers_graph():
                gens.pop(i)
                changed = True
                break
    return gens


def ls_bases(T: LinearSystem, d: Divisor) -> list[ClosedSubset]:
    """All bases of effective chip-firing moves inside the system from d.

    One candidate per generator direction: the minimizer set of the
    potential from d toward that generator (constant along the segment
    until the first critical level); the whole graph (no move) is skipped
    and duplicates are merged.
    """
    member, _ = ls_member(T, d)
    if not member:
        raise InputError("the divisor is not a member of the system")
    bases: dict[tuple, ClosedSubset] = {}  # key() -> first base found
    for g in T.generators:
        f_bar = T.pair_function(d, g)
        if f_bar.max_value() != 0:
            base = f_bar.extremum_set("min")
            bases.setdefault(base.key(), base)
    return [bases[k] for k in sorted(bases)]
