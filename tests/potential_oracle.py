"""Reference potential solvers, used only as oracles by the tests.

`oracle_potential` is a dense Gauss-Jordan solve over the graph cut at the
divisor's support by the oracles' own `dhar_oracle.subdivide`, not by
library code: every point of the support becomes a node of the Laplacian,
so the matrix order grows with the divisor. `solve` is the sparse
`Fraction` solve that the integer elimination replaced: the support is
folded onto the vertices and the grounded vertex Laplacian is eliminated
by exact LDL^T in vertex order. The library must agree with both exactly.
"""

from fractions import Fraction

from dhar_oracle import _node, subdivide
from tropkit import Divisor, Edge, InputError, MetricGraph, PLFunction


def _gauss_solve(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination; raises if the system is singular."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise InputError("singular system (graph not connected?)")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def solve_node_potentials(n: int, segments: list,
                          injections: dict[int, Fraction]) -> list[Fraction]:
    """Potentials of nodes 0..n-1 joined by the segments (tail, head,
    length, ...) for the given net current injections (sums to zero).

    Conductance of a segment is the reciprocal of its length; node 0 is
    grounded. Exact over the rationals.
    """
    lap = [[Fraction(0)] * n for _ in range(n)]
    for a, b, length, _, _ in segments:
        c = 1 / length
        lap[a][a] += c
        lap[b][b] += c
        lap[a][b] -= c
        lap[b][a] -= c
    rhs = [Fraction(0)] * n
    for idx, cur in injections.items():
        rhs[idx] += cur
    if sum(rhs, Fraction(0)) != 0:
        raise InputError("injections must sum to zero")
    if n == 1:
        return [Fraction(0)]
    inner = _gauss_solve([row[1:] for row in lap[1:]], rhs[1:])
    return [Fraction(0)] + inner


def oracle_potential(graph: MetricGraph, d_from: Divisor, d_to: Divisor) -> PLFunction:
    """The potential with divisor d_to - d_from, minimum zero, by the dense solve."""
    delta = d_to.sub(d_from)
    nodes, index, segments = subdivide(graph, delta.support())
    injections = {index[_node(p)]: c for p, c in delta.items()}
    vals = solve_node_potentials(len(nodes), segments, injections)
    data: dict[str, list] = {}
    for a, b, length, eid, off in segments:  # in order along each edge
        data.setdefault(eid, [(off, vals[a])]).append((off + length, vals[b]))
    return PLFunction(graph, data).minus_min()


def _ldl_solve(rows: list[dict[int, Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve A x = rhs for symmetric positive definite A, given as the upper
    triangle row by row ({column: entry}, column >= row, diagonal present).

    Sparse exact LDL^T elimination in row order: positive definiteness
    makes every pivot nonzero, so no pivot search is needed. rows and rhs
    are overwritten.
    """
    for k, row in enumerate(rows):
        pivot = row[k]
        for i, a_ki in row.items():
            if i == k:
                continue
            f = a_ki / pivot
            target = rows[i]
            for j, a_kj in row.items():
                if j >= i:
                    target[j] = target.get(j, 0) - f * a_kj
            rhs[i] -= f * rhs[k]
    x = [Fraction(0)] * len(rows)
    for k in reversed(range(len(rows))):
        row = rows[k]
        x[k] = (rhs[k] - sum(a * x[j] for j, a in row.items() if j != k)) / row[k]
    return x


def solve(graph: MetricGraph, d_from: Divisor, d_to: Divisor) -> tuple[dict, dict]:
    """Vertex values of a potential with divisor d_to - d_from, the first
    vertex grounded, and each edge's sorted interior cuts (offset,
    coefficient). Each interior point's coefficient c at offset o on an
    edge (t, h, l) is folded onto the ends: c(l - o)/l to t and c o/l to h."""
    if d_from.degree() != d_to.degree():
        raise InputError("divisors must have equal degree")
    pos = {v: i - 1 for i, v in enumerate(graph.vertices)}
    rows: list[dict[int, Fraction]] = [{i: Fraction(0)} for i in range(len(pos) - 1)]
    for e in graph.edges:
        c = 1 / e.length
        a, b = sorted((pos[e.tail], pos[e.head]))
        rows[b][b] += c
        if a >= 0:
            rows[a][a] += c
            rows[a][b] = rows[a].get(b, 0) - c
    rhs = [Fraction(0)] * len(pos)  # the grounded vertex (-1) fills the spare last slot
    cuts: dict[str, list[tuple[Fraction, Fraction]]] = {}
    for p, c in d_to.sub(d_from).entries.items():
        if p.is_vertex:
            rhs[pos[p.vertex]] += c
            continue
        e = graph.edge_map[p.edge]
        rhs[pos[e.tail]] += c * (e.length - p.offset) / e.length
        rhs[pos[e.head]] += c * p.offset / e.length
        cuts.setdefault(e.id, []).append((p.offset, c))
    x = _ldl_solve(rows, rhs[:-1]) + [Fraction(0)]
    return {v: x[i] for v, i in pos.items()}, {eid: sorted(cs) for eid, cs in cuts.items()}


def cut_value(e: Edge, vals: dict, pts: list, o: Fraction) -> Fraction:
    """Value at offset o on e of the potential `solve` gives as vals and, on e, pts:
    the linear interpolation of the end values plus the interval's Green's
    function sum_i c_i min(o, o_i)(l - max(o, o_i))/l."""
    t, h, ell = vals[e.tail], vals[e.head], e.length
    return t + (h - t) * o / ell + sum(
        c * min(o, oi) * (ell - max(o, oi)) for oi, c in pts) / ell
