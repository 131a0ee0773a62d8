"""Min-plus projective geometry over a finite weighted ground set.

A point is a real-valued function on a finite set X taken modulo additive
constants. The canonical representative subtracts the minimum, so stored
coordinates are nonnegative rationals with at least one zero. Two flavors
of convexity appear throughout:

  lower: hulls of min-combinations  [min_i (c_i + f_i)]
  upper: hulls of max-combinations  [max_i (c_i + f_i)]

Every upper-mode operation is realized by negating data and running the
lower code path, so there is a single implementation of each algorithm.
Arithmetic is exact: membership, projection and independence compute on
integer vectors over a common denominator and return fractions.Fraction
values; the only float in the module is the informational p=2 pseudonorm.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from . import _LAZY
from .errors import CertificateError, InputError
from .rational import as_fraction

__all__ = _LAZY["tropical"]


def _sign(mode: str) -> int:
    """1 for lower mode and -1 for upper mode; any other mode is an InputError."""
    if mode == "lower":
        return 1
    if mode == "upper":
        return -1
    raise InputError(f"mode must be 'lower' or 'upper', got {mode!r}")


class _Frozen:
    """Immutable value semantics: the fields, named once in ``__slots__``,
    set once in slot order by ``__init__``, equality within one class, the
    hash of the field tuple, and a repr that names each field."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class GroundSpace(_Frozen):
    """Finite ground set with positive weights (a measure with full support)."""

    __slots__ = ("labels", "weights")

    def __init__(self, labels: tuple[str, ...], weights: tuple[Fraction, ...]):
        super().__init__(labels, weights)
        if not self.labels:
            raise InputError("ground set must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise InputError("ground labels must be distinct")
        if len(self.weights) != len(self.labels):
            raise InputError("need exactly one weight per ground element")
        if any(w <= 0 for w in self.weights):
            raise InputError("weights must be positive")

    @classmethod
    def of(cls, labels: Iterable[str], weights: Iterable | None = None) -> "GroundSpace":
        labels = tuple(str(l) for l in labels)
        if weights is None:
            # default: uniform probability weights
            weights = tuple(Fraction(1, len(labels)) for _ in labels) if labels else ()
        else:
            weights = tuple(as_fraction(w) for w in weights)
        return cls(labels, weights)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def total_mass(self) -> Fraction:
        return sum(self.weights, Fraction(0))


class TropPoint(_Frozen):
    """A point of min-plus projective space, stored with minimum zero."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Fraction, ...]):
        super().__init__(coords)
        if not self.coords:
            raise InputError("a point needs at least one coordinate")
        if min(self.coords) != 0:
            raise InputError("canonical coordinates must have minimum zero")

    @classmethod
    def of(cls, values: Iterable) -> "TropPoint":
        """The point of values, shifted to minimum zero only when it is not."""
        vals = tuple(as_fraction(v) for v in values)
        if not vals:
            return cls(vals)  # raises the empty-point error
        m = min(vals)
        p = object.__new__(cls)  # canonical by construction: skip __init__'s checks
        _Frozen.__init__(p, vals if m == 0 else tuple(v - m for v in vals))
        return p

    @property
    def dim(self) -> int:
        return len(self.coords)

    def diff(self, other: "TropPoint") -> "TropPoint":
        """Class of the coordinatewise difference self - other."""
        _check_dim(self, other)
        return TropPoint.of(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def add(self, other: "TropPoint") -> "TropPoint":
        _check_dim(self, other)
        return TropPoint.of(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def negate(self) -> "TropPoint":
        return TropPoint.of(tuple(-a for a in self.coords))

    def max_normalized(self) -> tuple[Fraction, ...]:
        """Representative with maximum zero (nonpositive coordinates)."""
        m = max(self.coords)
        return tuple(a - m for a in self.coords)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _check_dim(a: TropPoint, b: TropPoint) -> None:
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} vs {b.dim}")


class TropGeneratorSet(_Frozen):
    """A finite generating set together with the hull flavor it spans."""

    __slots__ = ("points", "mode")

    def __init__(self, points: tuple[TropPoint, ...], mode: str = "lower"):
        super().__init__(points, mode)
        _sign(mode)
        if not self.points:
            raise InputError("generator set must be nonempty")
        dims = {p.dim for p in self.points}
        if len(dims) != 1:
            raise InputError("generators must share one dimension")

    @classmethod
    def of(cls, points: Iterable, mode: str = "lower") -> "TropGeneratorSet":
        pts, seen = [], set()
        for p in points:
            if not isinstance(p, TropPoint):
                p = TropPoint.of(p)
            if p.coords not in seen:
                seen.add(p.coords)
                pts.append(p)
        return cls(tuple(pts), mode)

    @property
    def dim(self) -> int:
        return self.points[0].dim

    def negate(self) -> "TropGeneratorSet":
        flipped = "upper" if self.mode == "lower" else "lower"
        return TropGeneratorSet(tuple(p.negate() for p in self.points), flipped)


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def tp_combine(points: Sequence[TropPoint], coeffs: Sequence, mode: str = "lower") -> TropPoint:
    """Min- (or max-) combination [op_i (c_i + f_i)] of the given points."""
    if len(points) != len(coeffs):
        raise InputError("need one coefficient per point")
    if not points:
        raise InputError("combination of an empty family")
    cs = [as_fraction(c) for c in coeffs]
    dims = {p.dim for p in points}
    if len(dims) != 1:
        raise InputError("points must share one dimension")
    op = min if _sign(mode) > 0 else max
    vec = [op(p.coords[k] + c for p, c in zip(points, cs)) for k in range(points[0].dim)]
    return TropPoint.of(vec)


def tp_norm(point: TropPoint) -> Fraction:
    """Spread of the class: max minus min of any representative."""
    return max(point.coords)


def tp_dist(a: TropPoint, b: TropPoint) -> Fraction:
    """Projective distance: the norm of the difference class."""
    return tp_norm(a.diff(b))


def tp_pseudonorm(point: TropPoint, p, mode: str = "lower",
                  space: GroundSpace | None = None):
    """Weighted one-sided pseudonorm of the class.

    lower: p-norm of the minimum-zero representative;
    upper: p-norm of (representative minus its maximum), i.e. of the
    distance down from the top. p is 1, 2 or 'inf' (or math.inf; no bool or
    other float). The p=2 value is a float, informational only; the rest is exact.
    A p=2 value past the float range, or one that rounds to 0 for a
    nonzero class, is an InputError at "output".
    """
    if space is None:
        space = GroundSpace.of([f"x{i}" for i in range(point.dim)])
    if space.size != point.dim:
        raise InputError("space size does not match point dimension")
    vec = point.coords if _sign(mode) > 0 else tuple(-v for v in point.max_normalized())
    if isinstance(p, bool) or p not in ((math.inf,) if isinstance(p, float) else (1, 2, "inf")):
        raise InputError(f"p must be 1, 2 or 'inf', got {p!r}")
    if p == 1:
        return sum((w * v for w, v in zip(space.weights, vec)), Fraction(0))
    if p == 2:
        try:
            value = math.sqrt(sum(float(w) * float(v) ** 2 for w, v in zip(space.weights, vec)))
        except OverflowError:
            value = math.inf
        if value == math.inf or value == 0 and any(vec):
            raise InputError("the p=2 pseudonorm is past the float range", "output")
        return value
    return max(vec)


def tp_argext(point: TropPoint, which: str = "min") -> frozenset:
    """Index set where the class attains its minimum (or maximum)."""
    if which == "min":
        return frozenset(i for i, v in enumerate(point.coords) if v == 0)
    if which == "max":
        m = max(point.coords)
        return frozenset(i for i, v in enumerate(point.coords) if v == m)
    raise InputError(f"which must be 'min' or 'max', got {which!r}")


def tp_path(a: TropPoint, b: TropPoint, t, mode: str = "lower") -> TropPoint:
    """Point at arc length t along the geodesic segment from a to b.

    The lower segment tracks [min(t, d) + f] where d is the minimum-zero
    representative of b - a; the upper segment is its negation dual.
    Both are unit-speed: consecutive points are at distance |t1 - t2|.
    """
    t = as_fraction(t)
    if _sign(mode) < 0:
        return tp_path(a.negate(), b.negate(), t, "lower").negate()
    _check_dim(a, b)
    d = b.diff(a)
    rho = tp_norm(d)
    if not (0 <= t <= rho):
        raise InputError(f"t={t} outside [0, {rho}]")
    return TropPoint.of(tuple(min(t, dv) + av for dv, av in zip(d.coords, a.coords)))


# ---------------------------------------------------------------------------
# hulls: membership, projection, extremals
# ---------------------------------------------------------------------------

def _integer_vectors(points: Sequence[TropPoint], sign: int):
    """Min-zero int vectors sign * scale * p of the points, and the scale,
    the least common denominator of their coordinates. With sign -1 (upper
    mode) the upper hull of the points is the lower hull of the vectors."""
    scale = math.lcm(*[c.denominator for p in points for c in p.coords])
    vecs = []
    for p in points:
        v = [sign * c.numerator * (scale // c.denominator) for c in p.coords]
        m = min(v)
        vecs.append([c - m for c in v])
    return vecs, scale


def _point(v: list[int], sign: int, scale: int) -> TropPoint:
    """The TropPoint of a min-zero integer vector."""
    if sign < 0:
        top = max(v)
        v = [top - c for c in v]
    return TropPoint(tuple(Fraction(c, scale) for c in v))


def _lifts(H: Sequence[list[int]], z: list[int]) -> list[int]:
    """c_i = max_k (z_k - h_ik): the least shift that puts row h_i at or above z."""
    return [max(zk - hk for zk, hk in zip(z, h)) for h in H]


def _combine(H: Sequence[list[int]], cs: Sequence[int]) -> list[int]:
    """The lower combination min_i (h_i + c_i) of the rows of H."""
    return [min(col) for col in zip(*[[hk + c for hk in h] for h, c in zip(H, cs)])]


def tp_member(S: TropGeneratorSet, gamma: TropPoint):
    """Hull membership with a covering certificate.

    Returns (bool, certificate). The certificate lists, per generator, the
    extremum set of generator - gamma (argmin for lower hulls, argmax for
    upper hulls); membership holds iff those sets cover the ground set.
    On a positive answer the coefficients reproduce gamma exactly: through
    tp_combine for lower hulls; for upper hulls as the maximum of c_i plus
    the maximum-zero representative of g_i (not tp_combine on S.points).
    The covering test and that check run on integer-scaled vectors.
    """
    if gamma.dim != S.dim:
        raise InputError("point dimension does not match generators")
    sign = _sign(S.mode)
    (*H, y), scale = _integer_vectors(S.points + (gamma,), sign)
    # each generator, lifted by its coefficient, touches y on its cover set
    cs = _lifts(H, y)
    cover = [[k for k, (yk, hk) in enumerate(zip(y, h)) if yk - hk == c]
             for h, c in zip(H, cs)]
    covered = set().union(*cover)
    missing = [k for k in range(len(y)) if k not in covered]
    if not missing:
        combo = _combine(H, cs)
        m = min(combo)
        combo = [c - m for c in combo]
        if combo != y:
            raise CertificateError("membership combination failed to reproduce the point",
                                   {"combo": str(_point(combo, sign, scale)),
                                    "point": str(_point(y, sign, scale))})
    return not missing, {"cover": cover,
                         "coefficients": [Fraction(sign * c, scale) for c in cs],
                         "missing": missing}


def _b1(d: list[int], weights: Sequence[int]):
    """The weighted 1-pseudonorm of the class of d, in the units of d and
    the weights, and the argmin set of d."""
    m = min(d)
    return (sum(w * (v - m) for w, v in zip(weights, d)),
            {k for k, v in enumerate(d) if v == m})


def tp_project(S: TropGeneratorSet, gamma: TropPoint,
               space: GroundSpace | None = None):
    """Nearest point of the hull, as (projection, certificate).

    The projection is the residuated combination min_i (g_i + c_i) with
    c_i = -min(g_i - gamma); for upper hulls it is max_i (g_i + c_i) with
    c_i = -max(g_i - gamma) on maximum-zero representatives. It is the
    unique minimizer of every weighted one-sided p-pseudonorm distance to
    gamma for finite p, is the identity on hull members, and is verified
    here by per-generator additivity and argmin-intersection certificates.
    The projection and its certificates are computed and checked on
    integer-scaled vectors and weights.
    """
    if gamma.dim != S.dim:
        raise InputError("point dimension does not match generators")
    if space is None:
        weights, wscale = [1] * S.dim, S.dim
    elif space.size != S.dim:
        raise InputError("space size does not match point dimension")
    else:
        wscale = math.lcm(*[w.denominator for w in space.weights])
        weights = [w.numerator * (wscale // w.denominator) for w in space.weights]
    sign = _sign(S.mode)
    (*H, y), scale = _integer_vectors(S.points + (gamma,), sign)
    cs = _lifts(H, y)
    f = _combine(H, cs)
    m = min(f)
    f = [v - m for v in f]
    unit = wscale * scale
    ag, at_gamma = _b1([a - b for a, b in zip(f, y)], weights)
    from_projection = Fraction(ag, unit)
    checks = []
    for i, h in enumerate(H):
        bg, _ = _b1([a - b for a, b in zip(h, y)], weights)
        ba, at_h = _b1([a - b for a, b in zip(h, f)], weights)
        total, to_projection = Fraction(bg, unit), Fraction(ba, unit)
        witness = sorted(at_h & at_gamma)
        checks.append({
            "generator": i,
            "b1_total": total,
            "b1_to_projection": to_projection,
            "b1_from_projection": from_projection,
            "witness": witness,
        })
        if bg != ba + ag:
            raise CertificateError(
                "projection failed the 1-pseudonorm additivity certificate",
                {"generator": i, "total": str(total),
                 "split": str(to_projection + from_projection)})
        if not witness:
            raise CertificateError(
                "projection failed the argmin intersection certificate",
                {"generator": i})
    return _point(f, sign, scale), {"coefficients": [Fraction(sign * c, scale) for c in cs],
                                    "checks": checks}


def _redundant(pts: list[TropPoint], i: int, mode: str):
    """tp_member's (verdict, certificate) for pts[i] against the hull of
    the other points."""
    return tp_member(TropGeneratorSet.of(pts[:i] + pts[i + 1:], mode), pts[i])


def tp_extremals(S: TropGeneratorSet) -> TropGeneratorSet:
    """Unique minimal generating subset: each distinct generator outside
    the hull of the others, in order (the tropical Minkowski theorem:
    Butkovic, Sergeev and Schneider 2007; Gaubert and Katz 2007)."""
    pts = list(dict.fromkeys(S.points))  # dedupe, keep order
    if len(pts) > 1:
        pts = [p for i, p in enumerate(pts) if not _redundant(pts, i, S.mode)[0]]
    return TropGeneratorSet.of(pts, S.mode)


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def _residuate(H: Sequence[list[int]], z: list[int]) -> list[int]:
    """Least point of the lower cone spanned by the rows of H at or above z:
    min_i (h_i + c_i) with c_i = max_k (z_k - h_ik). It is tp_project's
    combination before normalization, so it commutes with adding constants."""
    return _combine(H, _lifts(H, z))


GM_ROUND_LIMIT = 10 ** 7
"""Most rounds a Gondran-Minoux check may need, 2^(n-1) partitions times
_gm_partition_meets' bound 2*D*dim + 1; past it a family is rejected. The
benchmark's families need at most 816, 16 points in dimension 16 with
spread 10 need 10,518,528."""


def _gm_partition_meets(left: list[list[int]], right: list[list[int]]):
    """A common point of the lower cones of two integer families, or None.

    Alternating residuation from left[0] climbs monotonically; up to
    constants it is the sequence of alternating projections. A common point
    at or above the start bounds every iterate, and the least such point
    touches the start in some coordinate (otherwise subtracting 1 from it
    would give a smaller one), so an iterate above the start everywhere
    proves the cones disjoint (Cuninghame-Green and Butkovic 2003). With
    integer data each round without a meet raises the coordinate sum by at
    least 1 while iterates keep a spread of at most D, the largest spread of
    a generator, so the loop ends within 2*D*dim + 1 rounds.
    """
    start = z = left[0]
    while True:
        w = _residuate(right, z)
        if w == z:
            return z
        z = _residuate(left, w)
        if z == w:
            return w
        if all(a > b for a, b in zip(z, start)):
            return None


def tp_independence(S: TropGeneratorSet, kind: str = "weak"):
    """Independence check of one of three strengths.

    weak: no generator lies in the hull of the others (tp_extremals keeps
      every distinct one; a dependent verdict names the first it drops).
    gondran_minoux: no 2-partition of the generators has meeting hulls
      (decided exactly by alternating residuation on integer-scaled data;
      a common point is checked for membership in both hulls; a family
      whose round bound exceeds GM_ROUND_LIMIT raises InputError).
    tropical: no coefficients make every ground element attain the
      combination envelope at least twice (decided exactly by choosing,
      for every ground element, which pair of generators ties at the
      minimum there, and testing each choice as a difference-constraint
      system, depth first with infeasible prefixes pruned). Families with
      more than 2*10**6 patterns report 'undecided', the only case that
      does.

    Returns a dict with keys status ('independent', 'dependent' or
    'undecided'), kind, and certificate.
    """
    pts = list(dict.fromkeys(S.points))
    n = len(pts)
    if kind not in ("weak", "gondran_minoux", "tropical"):
        raise InputError(f"kind must be weak, gondran_minoux or tropical, got {kind!r}")
    if n < 2:
        return {"kind": kind, "status": "independent", "certificate": None}
    if kind == "weak":
        for i in range(n):
            redundant, cert = _redundant(pts, i, S.mode)
            if redundant:
                return {"kind": kind, "status": "dependent",
                        "certificate": {"redundant_index": i, "cover": cert["cover"],
                                        "coefficients": cert["coefficients"]}}
        return {"kind": kind, "status": "independent", "certificate": None}

    sign = _sign(S.mode)
    ivecs, scale = _integer_vectors(pts, sign)

    if kind == "gondran_minoux":
        rounds = 2 ** (n - 1) * (2 * max(map(max, ivecs)) * S.dim + 1)
        if rounds > GM_ROUND_LIMIT:
            raise InputError(f"Gondran-Minoux check of {n} generators may take {rounds} "
                             f"rounds, more than the limit {GM_ROUND_LIMIT}", "generators")
        for mask in range(2 ** (n - 1)):
            left_idx = [0] + [i for i in range(1, n) if mask & (1 << (i - 1))]
            right_idx = [i for i in range(1, n) if not mask & (1 << (i - 1))]
            if not right_idx:
                continue
            point = _gm_partition_meets([ivecs[i] for i in left_idx],
                                        [ivecs[i] for i in right_idx])
            if point is None:
                continue
            witness = TropPoint.of(tuple(Fraction(sign * c, scale) for c in point))
            for side in (left_idx, right_idx):
                if not tp_member(TropGeneratorSet.of([pts[i] for i in side], S.mode),
                                 witness)[0]:
                    raise CertificateError(
                        "Gondran-Minoux common point is not in both hulls",
                        {"partition": [left_idx, right_idx], "point": str(witness)})
            return {"kind": kind, "status": "dependent",
                    "certificate": {"partition": [left_idx, right_idx],
                                    "common_point": [str(c) for c in witness.coords]}}
        return {"kind": kind, "status": "independent", "certificate": None}

    tie_pairs = list(itertools.combinations(range(n), 2))
    if len(tie_pairs) ** S.dim > 2_000_000:
        return {"kind": kind, "status": "undecided", "certificate": None}
    solution = _first_tie_solution(ivecs, tie_pairs)
    if solution is None:
        return {"kind": kind, "status": "independent", "certificate": None}
    base = solution[0]
    cs = [Fraction(c - base, scale) for c in solution]
    if not _ties_everywhere(ivecs, solution):
        raise CertificateError("tie-pattern coefficients do not tie twice everywhere",
                               {"coefficients": [str(c) for c in cs]})
    return {"kind": kind, "status": "dependent",
            "certificate": {"coefficients": [str(c) for c in cs]}}


def _ties_everywhere(vecs: Sequence[list[int]], cs: Sequence[int]) -> bool:
    """Every ground element attains min_i (c_i + f_i) at least twice."""
    for x in range(len(vecs[0])):
        vals = [c + v[x] for c, v in zip(cs, vecs)]
        m = min(vals)
        if sum(1 for v in vals if v == m) < 2:
            return False
    return True


def _first_tie_solution(vals: Sequence[list[int]], pairs: Sequence[tuple[int, int]]):
    """Coefficients of the first feasible tie pattern in the order of
    itertools.product(pairs, repeat=dim), or None.

    A pattern names, for each ground element x, a pair (i, j) that ties at
    the minimum there: c_i - c_j = vals[j][x] - vals[i][x] and c_i - c_k <=
    vals[k][x] - vals[i][x] for every k. The search runs depth first over
    ground elements, each prefix adding its bounds to a copy of its
    parent's, and prunes a prefix with no solution, since more bounds never
    restore one. So the first full pattern reached is the first feasible
    one in product order, solved from the same bounds in the same order as
    when built in one pass.
    """
    n, dim = len(vals), len(vals[0])
    levels = [({}, iter(pairs))]
    while levels:
        parent, untried = levels[-1]
        pair = next(untried, None)
        if pair is None:
            levels.pop()
            continue
        x, (i, j) = len(levels) - 1, pair
        bounds = dict(parent)
        # bounds[b, a] is the least w found with c_a - c_b <= w
        ties = [(i, j, vals[i][x] - vals[j][x])]
        ties += [(k, i, vals[k][x] - vals[i][x]) for k in range(n) if k != i]
        for b, a, w in ties:
            if (b, a) not in bounds or w < bounds[b, a]:
                bounds[b, a] = w
        solution = _tie_system_solution(n, bounds)
        if solution is None:
            continue
        if len(levels) == dim:
            return solution
        levels.append((bounds, iter(pairs)))
    return None


def _tie_system_solution(n: int, bounds: dict):
    """Potentials within the difference bounds, or None: Bellman-Ford over
    the bound graph either returns feasible potentials or runs into the
    negative cycle that proves infeasibility."""
    edges = [(b, a, w) for (b, a), w in bounds.items()]
    dist = [0] * n
    for _ in range(n + 1):
        changed = False
        for b, a, w in edges:
            if dist[b] + w < dist[a]:
                dist[a] = dist[b] + w
                changed = True
        if not changed:
            return dist
    return None


# ---------------------------------------------------------------------------
# retraction and alternating projections
# ---------------------------------------------------------------------------

def tp_retract(S: TropGeneratorSet, gamma: TropPoint, t):
    """Strong deformation retraction onto the hull, evaluated at time t.

    Uses the profile phi(s) = 1/(1+s): the point rests at gamma while
    t < phi(distance to hull), then slides along the geodesic toward its
    projection, arriving exactly at t = 1. The map is the identity on the
    hull for every t and is 2-Lipschitz in the point argument.
    """
    t = as_fraction(t)
    if not (0 <= t <= 1):
        raise InputError(f"t={t} outside [0, 1]")
    proj, _ = tp_project(S, gamma)
    d = tp_dist(gamma, proj)
    if d == 0:
        return gamma
    phi = Fraction(1, 1) / (1 + d)
    if t < phi:
        return gamma
    travelled = d - (Fraction(1) / t - 1)
    return tp_path(gamma, proj, travelled, S.mode)


def tp_fixed_point(S_low: TropGeneratorSet, S_up: TropGeneratorSet, gamma: TropPoint):
    """Bounce a point between a lower hull and an upper hull.

    Precondition: gamma lies in the upper hull. One projection onto the
    lower hull, one back onto the upper hull, and one more onto the lower
    hull must return to the first landing point; the stabilized pair is
    returned along with the trace.
    """
    if S_low.mode != "lower" or S_up.mode != "upper":
        raise InputError("expected a lower-mode and an upper-mode generator set")
    ok, _ = tp_member(S_up, gamma)
    if not ok:
        raise InputError("the start point must lie in the upper hull")
    alpha, _ = tp_project(S_low, gamma)
    beta, _ = tp_project(S_up, alpha)
    alpha2, _ = tp_project(S_low, beta)
    if alpha2 != alpha:
        raise CertificateError("alternating projections did not stabilize in one round",
                               {"alpha": str(alpha), "alpha2": str(alpha2)})
    return {"start": gamma, "lower": alpha, "upper": beta,
            "distance": tp_dist(alpha, beta)}
