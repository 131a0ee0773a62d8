"""Shared fixtures and random-instance builders for the test suite."""

import os
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from tropkit import Divisor, GraphPoint, InputError, MetricGraph, load_workspace

FIXTURES = Path(__file__).parent / "fixtures"

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.register_profile("thorough", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(scope="session")
def c6():
    """Unit six-cycle workspace with its divisors and systems."""
    return load_workspace(str(FIXTURES / "c6.json"))


@pytest.fixture(scope="session")
def banana():
    """Three-banana chain workspace for the gonality fixtures."""
    return load_workspace(str(FIXTURES / "banana.json"))


@pytest.fixture(scope="session")
def tp3():
    """Three-element ground set with the rectangle point set."""
    return load_workspace(str(FIXTURES / "tp3.json"))


# ---------------------------------------------------------------------------
# deterministic random builders (shared by module and acceptance tests)
# ---------------------------------------------------------------------------

def random_length(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.choice([1, 1, 2, 3]))


def random_graph(rng: random.Random, max_vertices: int = 8,
                 max_edges: int = 12) -> MetricGraph:
    """Random connected multigraph with rational edge lengths.

    Spanning tree first, then extra edges (parallels and loops allowed,
    loops are normalized away by the constructor).
    """
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((f"e{len(edges)}", names[j], names[i], random_length(rng)))
    for _ in range(rng.randint(0, max_edges - (n - 1))):
        a = rng.randrange(n)
        b = rng.randrange(n)
        edges.append((f"e{len(edges)}", names[a], names[b], random_length(rng)))
    return MetricGraph.of(names, edges)


def random_grid(rng: random.Random, k: int) -> MetricGraph:
    """The k x k grid graph with edge lengths p/q, p in 1..4, q in 1..3."""
    edges = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                edges.append((f"h{i}.{j}", f"r{i}c{j}", f"r{i}c{j + 1}"))
            if i + 1 < k:
                edges.append((f"v{i}.{j}", f"r{i}c{j}", f"r{i + 1}c{j}"))
    return MetricGraph.of([f"r{i}c{j}" for i in range(k) for j in range(k)],
                          [(eid, a, b, Fraction(rng.randint(1, 4), rng.randint(1, 3)))
                           for eid, a, b in edges])


def random_point(rng: random.Random, graph: MetricGraph) -> GraphPoint:
    if rng.random() < 0.5:
        return graph.vertex_point(rng.choice(graph.vertices))
    e = rng.choice(graph.edges)
    offset = e.length * Fraction(rng.randint(1, 3), 4)
    return graph.point(edge=e.id, offset=offset)


def random_divisor(rng: random.Random, graph: MetricGraph,
                   points: int = 3) -> Divisor:
    pairs = [(random_point(rng, graph), Fraction(rng.randint(-3, 3)))
             for _ in range(points)]
    return Divisor.of(graph, pairs)


def equal_degree_pair(rng: random.Random,
                      graph: MetricGraph) -> tuple[Divisor, Divisor]:
    """Two random divisors of the same degree (coefficients may be negative)."""
    d1 = random_divisor(rng, graph)
    d2 = random_divisor(rng, graph)
    gap = d1.degree() - d2.degree()
    if gap:
        patch = Divisor.of(graph, [(random_point(rng, graph), gap)])
        d2 = d2.add(patch)
    return d1, d2


def random_cover(rng: random.Random, tree_vertices: int, degree: int):
    """A planted harmonic morphism of the given degree from a random graph
    onto a random metric tree: (graph, generators, local degrees by
    vertex, expansion by edge).

    Each tree vertex t gets a random composition of the degree, the local
    degrees of the vertices over t.  Each tree edge of length l gets a
    nonnegative integer matrix whose margins are its two fibers' local
    degrees (the northwest corner rule over shuffled orders), and each
    positive entry w becomes an edge of length l/w, so the map is harmonic
    of the given degree by construction.  The generators are the pullbacks
    of the tree's leaves, whose span is the pullback of the whole tree,
    and on about half the draws the pullback of one interior point of a
    tree edge.  A disconnected cover is drawn again, at most 100 times, so
    a connectivity bug fails here instead of looping forever; at most 46%
    of draws are disconnected (two tree vertices, degree 4), and the worst
    of 3,000 seeded calls needed 9 redraws.
    """
    for _ in range(100):
        tree = [(rng.randrange(t), t, random_length(rng)) for t in range(1, tree_vertices)]
        local: dict[str, int] = {}
        fibers = []
        for t in range(tree_vertices):
            cuts = sorted(rng.sample(range(1, degree), rng.randint(0, degree - 1)))
            parts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, degree])]
            fibers.append([f"t{t}.{k}" for k in range(len(parts))])
            local.update(zip(fibers[-1], parts))
        edges, lifts = [], []  # lifts: per tree edge, its (edge id, w) over it
        for s, t, length in tree:
            rows = rng.sample(fibers[s], len(fibers[s]))
            cols = rng.sample(fibers[t], len(fibers[t]))
            left, right = [local[v] for v in rows], [local[v] for v in cols]
            i = j = 0
            lifts.append([])
            while i < len(rows):
                w = min(left[i], right[j])
                eid = f"e{t}.{len(lifts[-1])}"
                edges.append((eid, rows[i], cols[j], length / w))
                lifts[-1].append((eid, w))
                left[i] -= w
                right[j] -= w
                i += not left[i]
                j += not right[j]
        try:
            graph = MetricGraph.of(list(local), edges)
        except InputError as exc:
            if str(exc) != "graph must be connected":
                raise
            continue
        valence = Counter(end for s, t, _ in tree for end in (s, t))
        generators = [Divisor(graph, {graph.vertex_point(v): local[v] for v in fibers[t]})
                      for t in range(tree_vertices) if valence[t] == 1]
        if rng.random() < 0.5:
            k = rng.randrange(len(tree))
            at = tree[k][2] * Fraction(rng.randint(1, 3), 4)
            generators.append(Divisor(graph, {graph.point(edge=eid, offset=at / w): w
                                              for eid, w in lifts[k]}))
        expansion = {eid: w for lift in lifts for eid, w in lift}
        return graph, generators, local, expansion
    raise AssertionError(f"100 covers of {tree_vertices} tree vertices and degree "
                         f"{degree} in a row were disconnected")
