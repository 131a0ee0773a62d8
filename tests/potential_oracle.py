"""Reference potential solver: dense Gauss-Jordan over the subdivided graph.

Every point of the divisor's support becomes a node of the Laplacian, so
the matrix order grows with the divisor. `mg_potential` must agree with it
exactly; the tests use it only as an oracle.
"""

from fractions import Fraction

from tropkit import Divisor, InputError, MetricGraph, PLFunction
from tropkit.graphs import Subdivision


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


def solve_node_potentials(sub: Subdivision, injections: dict[int, Fraction]) -> list[Fraction]:
    """Node potentials for the given net current injections (sums to zero).

    Conductance of a segment is the reciprocal of its length; node 0 is
    grounded. Exact over the rationals.
    """
    n = len(sub.nodes)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for a, b, length, _, _ in sub.segments:
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
    sub = Subdivision(graph, delta.support())
    injections = {sub.node_of(p): c for p, c in delta.items()}
    vals = solve_node_potentials(sub, injections)
    vertex_vals = {v: vals[sub.index[("v", v)]] for v in graph.vertices}
    cuts = {eid: [(o, vals[sub.index[("p", eid, o)]]) for o in offs]
            for eid, offs in sub.cuts.items()}
    return PLFunction.from_node_values(graph, vertex_vals, cuts).minus_min()
