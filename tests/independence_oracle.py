"""Reference independence deciders: capped alternating projections for
Gondran-Minoux and exhaustive tie-pattern enumeration for tropical.

These are the straightforward searches `tp_independence` replaced. The GM
loop runs `tp_project` on Fraction points with a heuristic iteration cap
and reports 'undecided' when the cap runs out; the tropical search tries
every tie pattern in `itertools.product` order. Wherever they decide,
`tp_independence` must return the identical dict; the tests use them only
as an oracle. `gondran_minoux_by_box` is a third, independent route for
small integer families: it looks for a common point among all integer
points of bounded spread.
"""

import itertools
import math
from fractions import Fraction

from tropkit import TropGeneratorSet, TropPoint, tp_member, tp_norm, tp_project


def _integer_scale(points) -> int:
    denom = 1
    for p in points:
        for c in p.coords:
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
    return denom


def _scale_point(p: TropPoint, s: int) -> TropPoint:
    return TropPoint.of(tuple(c * s for c in p.coords))


def _gm_partition_meets(left, right, cap: int):
    """('meet', point), ('disjoint', None) or ('undecided', None)."""
    SL = TropGeneratorSet.of(left, "lower")
    SR = TropGeneratorSet.of(right, "lower")
    alpha = left[0]
    prev = None
    for _ in range(cap):
        beta, _ = tp_project(SR, alpha)
        if beta == alpha:
            return "meet", alpha
        alpha2, _ = tp_project(SL, beta)
        if alpha2 == beta:
            return "meet", beta
        if alpha2 == alpha and prev == (alpha.coords, beta.coords):
            # fixed pair at positive distance: the hulls do not meet
            return "disjoint", None
        prev = (alpha2.coords, beta.coords)
        alpha = alpha2
    return "undecided", None


def gondran_minoux(S: TropGeneratorSet) -> dict:
    kind = "gondran_minoux"
    pts = list(dict.fromkeys(S.points))
    n = len(pts)
    if n < 2:
        return {"kind": kind, "status": "independent", "certificate": None}
    scale = _integer_scale(pts)
    scaled = [_scale_point(p, scale) for p in pts]
    if S.mode == "upper":
        scaled = [p.negate() for p in scaled]
    spread = max(tp_norm(p) for p in scaled)
    cap = max(4, int(10 * spread * scaled[0].dim))
    undecided = False
    for mask in range(2 ** (n - 1)):
        left_idx = [0] + [i for i in range(1, n) if mask & (1 << (i - 1))]
        right_idx = [i for i in range(1, n) if not mask & (1 << (i - 1))]
        if not right_idx:
            continue
        verdict, point = _gm_partition_meets([scaled[i] for i in left_idx],
                                             [scaled[i] for i in right_idx], cap)
        if verdict == "meet":
            witness = TropPoint.of(tuple(Fraction(c, scale) for c in point.coords))
            if S.mode == "upper":
                witness = witness.negate()
            return {"kind": kind, "status": "dependent",
                    "certificate": {"partition": [left_idx, right_idx],
                                    "common_point": [str(c) for c in witness.coords]}}
        if verdict == "undecided":
            undecided = True
    if undecided:
        return {"kind": kind, "status": "undecided", "certificate": None}
    return {"kind": kind, "status": "independent", "certificate": None}


def _ties_everywhere(vecs, cs) -> bool:
    for x in range(len(vecs[0])):
        vals = [c + v[x] for c, v in zip(cs, vecs)]
        m = min(vals)
        if sum(1 for v in vals if v == m) < 2:
            return False
    return True


def _tie_system_solution(vals, assignment):
    """Bellman-Ford potentials for one tie pattern, or None when infeasible."""
    n = len(vals)
    bounds: dict[tuple[int, int], int] = {}

    def bound(a: int, b: int, w: int) -> None:
        # records c_a - c_b <= w
        key = (b, a)
        if key not in bounds or w < bounds[key]:
            bounds[key] = w

    for x, (i, j) in enumerate(assignment):
        bound(j, i, vals[i][x] - vals[j][x])
        for k in range(n):
            if k != i:
                bound(i, k, vals[k][x] - vals[i][x])
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


def tropical(S: TropGeneratorSet) -> dict:
    kind = "tropical"
    pts = list(dict.fromkeys(S.points))
    n = len(pts)
    if n < 2:
        return {"kind": kind, "status": "independent", "certificate": None}
    vecs = [p.coords if S.mode == "lower" else p.negate().coords for p in pts]
    dim = len(vecs[0])
    scale = _integer_scale(pts)
    ivecs = [[int(v * scale) for v in vec] for vec in vecs]
    tie_pairs = list(itertools.combinations(range(n), 2))
    if len(tie_pairs) ** dim > 2_000_000:
        return {"kind": kind, "status": "undecided", "certificate": None}
    for assignment in itertools.product(tie_pairs, repeat=dim):
        solution = _tie_system_solution(ivecs, assignment)
        if solution is None:
            continue
        base = solution[0]
        cs = [Fraction(c - base, scale) for c in solution]
        if _ties_everywhere(vecs, cs):
            return {"kind": kind, "status": "dependent",
                    "certificate": {"coefficients": [str(c) for c in cs]}}
    return {"kind": kind, "status": "independent", "certificate": None}


def gondran_minoux_by_box(S: TropGeneratorSet) -> str:
    """GM status of an integer family by exhaustive search for a common point.

    If two hulls of integer points meet, they meet in an integer point
    (residuating an integer start stays integral), and every hull point
    has spread at most the largest spread of a generator. So it suffices
    to test every integer point with minimum 0 and entries up to that
    spread. Meant for dimension 3 and entries up to 4 or so.
    """
    pts = list(dict.fromkeys(S.points))
    n = len(pts)
    spread = int(max(tp_norm(p) for p in pts))
    box = [TropPoint.of(z) for z in itertools.product(range(spread + 1), repeat=pts[0].dim)
           if min(z) == 0]
    for mask in range(2 ** (n - 1)):
        left = [pts[0]] + [pts[i] for i in range(1, n) if mask & (1 << (i - 1))]
        right = [pts[i] for i in range(1, n) if not mask & (1 << (i - 1))]
        if not right:
            continue
        SL, SR = TropGeneratorSet.of(left, S.mode), TropGeneratorSet.of(right, S.mode)
        if any(tp_member(SL, z)[0] and tp_member(SR, z)[0] for z in box):
            return "dependent"
    return "independent"
