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

from . import _LAZY
from .errors import CertificateError, InputError
from .graphs import (
    ClosedSubset,
    Divisor,
    GraphPoint,
    MetricGraph,
    PLFunction,
    Subdivision,
    _potential,
)
from .rational import as_fraction

__all__ = _LAZY["divisors"]


def dv_lin_equiv(graph: MetricGraph, d1: Divisor, d2: Divisor) -> bool:
    """Whether the two divisors differ by an integer-slope function."""
    graph.check_divisor(d1, "d1")
    graph.check_divisor(d2, "d2")
    return _potential(graph, d1, d2).slopes_integer()


def _segment_function(graph: MetricGraph, d1: Divisor, d2: Divisor) -> PLFunction:
    """Min-normalized potential from d1 to d2, for equivalent effective pairs."""
    graph.check_divisor(d1, "d1")
    graph.check_divisor(d2, "d2")
    for d, which in ((d1, "first"), (d2, "second")):
        if not d.is_effective():
            raise InputError(f"the {which} divisor must be effective")
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
    return _potential(graph, e, d).integral()


# ---------------------------------------------------------------------------
# reduced divisors by metric burning
# ---------------------------------------------------------------------------

def _burn_once(graph: MetricGraph, d: Divisor, q: GraphPoint):
    """One burning pass from q.

    Fire starts at q and crosses a point only when the arriving directions
    outnumber its chips. It spreads breadth first in one pass: each burnt
    point sends it once along each of its segments, parallel ones apart.
    Returns (sub, burnt, unburnt): the subdivision at d's support and q,
    whether each of its nodes burnt, and the maximal closed set the fire
    cannot enter, or None when the fire consumes the whole graph.
    """
    sub = Subdivision(graph, [*d.entries, q])
    n = len(sub.nodes)
    chips = [0] * n
    for p, c in d.entries.items():
        chips[sub.index[p]] = c
    inc: list[list[int]] = [[] for _ in range(n)]
    for a, b, _, _, _ in sub.segments:
        inc[a].append(b)
        inc[b].append(a)
    burnt = [False] * n
    front = [sub.index[q]]  # the burnt nodes, in the order they burnt
    burnt[front[0]] = True
    arrived = [0] * n  # the segments along which fire has reached each node
    for node in front:
        for other in inc[node]:
            if not burnt[other]:
                arrived[other] += 1
                if arrived[other] > chips[other]:
                    burnt[other] = True
                    front.append(other)
    if all(burnt):
        return sub, burnt, None
    intervals: dict[str, list[tuple[Fraction, Fraction]]] = {}
    for a, b, length, eid, off in sub.segments:
        if not burnt[a] and not burnt[b]:
            intervals.setdefault(eid, []).append((off, off + length))
    unburnt = (p for p, is_burnt in zip(sub.nodes, burnt) if not is_burnt)
    return sub, burnt, ClosedSubset._encode(graph, unburnt, intervals)


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
    tail, head, l_star, _, _ = min(arms, key=lambda arm: arm[2])
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
    if l_star == 0:  # firing would make no progress
        raise CertificateError("chip-firing met a zero-length arm",
                               {"arm": f"{sub.nodes[tail]}..{sub.nodes[head]}"})
    return fired, l_star


def _check_burning_input(graph: MetricGraph, d: Divisor, q: GraphPoint) -> None:
    graph.check_point(q, "q")
    if not d.is_effective() or not d.is_integral():
        raise InputError("the divisor must be effective with integer coefficients")
    graph.check_divisor(d, "divisor")


def _dhar_round_cap(graph: MetricGraph, d: Divisor, q: GraphPoint) -> int:
    denom = lcm(*(e.length.denominator for e in graph.edges),
                *(p.offset.denominator for p in (*d.entries, q) if not p.is_vertex))
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
    one degree and pairwise linearly equivalent. Each divisor value has one
    object in the system (generators, targets and what derive() builds) and
    one cached potential, solved exactly or derived, so segment sweeps and
    tree machinery are pure piecewise-linear arithmetic afterwards. Every
    per-system result lives in one memo table, _memo, filled through
    cached() and keyed by (kind, *arguments): ("divisor", d) -> the
    system's object equal to d; ("potential", d) -> potential relative to
    generator 0; ("pair", a, b) -> pair_function; ("path", a, b, t) ->
    path_point strictly inside the segment (its ends are a and b, with no
    entry); ("projection", e) -> f* and projection, whose certificates
    ls_project checks on every call, hit or not; and the tree layer's
    ("criticals",), ("is_tree",), ("is_dominant",) and ("morphism",).
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
        self.degree: Fraction = deg
        self._memo: dict[tuple, object] = {}
        self.generators = tuple(map(self.intern, gens))
        self._memo["potential", self.generators[0]] = PLFunction.constant(graph, 0)
        for i, g in enumerate(self.generators):
            if not self.potential(g).slopes_integer():
                raise InputError(
                    f"generator {i} is not linearly equivalent to generator 0")

    def cached(self, key: tuple, build, *args):
        """The value stored under key, or build(*args), stored first."""
        value = self._memo.get(key, _MISS)
        if value is _MISS:
            value = self._memo[key] = build(*args)
        return value

    def intern(self, d: Divisor) -> Divisor:
        """The system's one object equal to d (d itself when it is new)."""
        return self._memo.setdefault(("divisor", d), d)

    def derive(self, f: PLFunction, base: Divisor) -> Divisor:
        """div(f) + base, interned; f + potential(base) is recorded as its
        potential (relative to generator 0) unless it already has one."""
        d = self.intern(f.divisor().add(base))
        self.cached(("potential", d), f.add, self.potential(base))
        return d

    def potential(self, d: Divisor) -> PLFunction:
        """Potential of d relative to generator 0 (cached, one solve)."""
        return self.cached(("potential", d), _potential, self.graph, self.generators[0], d)

    def pair_function(self, a: Divisor, b: Divisor) -> PLFunction:
        """Min-normalized potential from a to b (cached per ordered pair)."""
        return self.cached(("pair", a, b), self._pair, a, b)

    def _pair(self, a: Divisor, b: Divisor) -> PLFunction:
        return self.potential(b).sub(self.potential(a)).minus_min()

    def rho(self, a: Divisor, b: Divisor) -> Fraction:
        return self.pair_function(a, b).max_value()

    def path_point(self, a: Divisor, b: Divisor, t) -> Divisor:
        """Divisor at parameter t along the segment from a to b.

        The ends are a and b themselves (interned); an interior point is
        derived, so walking a segment costs no additional solves.
        """
        t = as_fraction(t)
        f = self.pair_function(a, b)
        rho = f.max_value()
        if not (0 <= t <= rho):
            raise InputError(f"t must lie in [0, {rho}]")
        if t == 0:
            return self.intern(a)
        if t == rho:
            return self.intern(b)
        return self.cached(("path", a, b, t), self._walk, f, a, t)

    def _walk(self, f: PLFunction, a: Divisor, t: Fraction) -> Divisor:
        return self.derive(f.clip_max(t), a)


def _target(T: LinearSystem, e: Divisor) -> Divisor:
    if not isinstance(e, Divisor):
        raise InputError("the target must be a divisor")
    T.graph.check_divisor(e, "e")
    if e.degree() != T.degree:
        raise InputError("divisor degree does not match the system")
    if not e.is_effective():
        raise InputError("the target divisor must be effective")
    return T.intern(e)


def _cover(fns: Sequence[PLFunction]):
    """Minimizer sets of the functions, and their union."""
    sets = [f.extremum_set("min") for f in fns]
    return sets, sets[0].union(*sets[1:])


def ls_member(T: LinearSystem, e: Divisor):
    """Membership in the system, with a covering certificate.

    e belongs to the family iff the minimizer sets of the potentials from
    e toward the generators jointly cover the graph. Returns (bool, cert);
    the certificate carries the per-generator sets and, on failure, the
    uncovered components.
    """
    return _membership(T, _target(T, e))


def _membership(T: LinearSystem, e: Divisor):
    """ls_member for an interned effective divisor of the system's degree."""
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
    through the projection and for a common minimizer witness, and the
    membership certificate is ls_member's for the projection. A failed
    check raises CertificateError.
    """
    return _projection(T, _target(T, e))


def _projection(T: LinearSystem, e: Divisor):
    """ls_project for an interned effective divisor of the system's degree."""
    g_bars = [T.pair_function(e, g) for g in T.generators]
    f_star, projection = T.cached(("projection", e), _project, T, e, g_bars)
    if not projection.is_integral() or not projection.is_effective():
        raise CertificateError("projection is not an effective integer divisor",
                               {"projection": str(projection)})
    f_star_min = f_star.extremum_set("min")
    b_lower = f_star.integral()
    checks = []
    for i, (g, g_bar) in enumerate(zip(T.generators, g_bars)):
        b_total = g_bar.integral()
        # the potential from the projection toward g is g_bar - f_star, shifted
        to_projection = T.pair_function(projection, g)
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
    member, membership = _membership(T, projection)
    if not member:
        raise CertificateError("projection is not a member of the system",
                               {"projection": str(projection)})
    return projection, {"checks": checks, "membership": membership}


def _project(T: LinearSystem, e: Divisor, g_bars: list[PLFunction]):
    """f*, the pointwise minimum of the g_bars, and the projection div(f*) + e."""
    f_star = reduce(PLFunction.min_with, g_bars)
    return f_star, T.derive(f_star, e)


def ls_reduced(T: LinearSystem, q: GraphPoint):
    """The q-reduced divisor of the system: the projection of deg·(q)."""
    T.graph.check_point(q, "q")
    return _projection(T, T.intern(Divisor(T.graph, {q: T.degree})))


def ls_extremals(T: LinearSystem) -> list[Divisor]:
    """Unique minimal generating subset: each distinct generator outside
    the system of the others, in order (the tropical Minkowski theorem)."""
    gens = list(dict.fromkeys(T.generators))
    if len(gens) > 1:
        gens = [g for g in gens if not _cover(
            [T.pair_function(g, h) for h in gens if h is not g])[1].covers_graph()]
    return gens


def ls_bases(T: LinearSystem, d: Divisor) -> list[ClosedSubset]:
    """All bases of effective chip-firing moves inside the system from d.

    One candidate per generator direction: the minimizer set of the
    potential from d toward that generator (constant along the segment
    until the first critical level), from ls_member's certificate; a set
    covering the graph (a constant potential, no move) is skipped and
    duplicates are merged.
    """
    member, cert = ls_member(T, d)
    if not member:
        raise InputError("the divisor is not a member of the system")
    bases: dict[tuple, ClosedSubset] = {}  # key() -> first base found
    for base in cert["min_sets"]:
        if not base.covers_graph():
            bases.setdefault(base.key(), base)
    return [bases[k] for k in sorted(bases)]
