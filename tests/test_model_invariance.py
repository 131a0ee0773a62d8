"""A metric graph is the same space under any model.

Subdividing an edge at an interior point, reversing an edge, renaming and
reordering the vertices and edges, and giving a cycle as a loop instead of
as two edges through a declared vertex change no intrinsic answer; scaling
every length by λ scales resistances, chip-firing distances and
j-function values by λ and the b1 pseudonorm (a potential's integral) by
λ², and changes nothing else. Every point is carried through the change of
model and every answer is compared with the carried answer: a burning
certificate's unburnt set at the carried points, and on dominant covers
the preimage of each skeleton node as a finite point set. The critical
set and the skeleton of a tree are left out: they list a divisor at every
piece end of a pair function, so a new vertex can add one (see
tt_critical). The morphism's local degrees are compared only at the
original vertices, which every model keeps as vertices.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cover, random_length, random_point
from tropkit import (
    Divisor,
    GraphPoint,
    LinearSystem,
    MetricGraph,
    dv_b1,
    dv_dhar,
    dv_dhar_certificate,
    dv_rho,
    ls_extremals,
    ls_member,
    ls_project,
    ls_reduced,
    mg_jfunction,
    mg_resistance,
    tt_harmonize,
    tt_is_dominant,
    tt_is_tree,
    tt_morphism,
    tt_preimage,
    tt_skeleton,
    tt_verify_witness,
)

CHANGES = ("subdivide", "reverse", "relabel", "scale", "loop")


def loop_free_graph(rng: random.Random):
    """Vertex names and (id, tail, head, length) edges: 2-7 vertices, a
    spanning tree and up to 5 more edges, parallel ones allowed."""
    names = [f"v{i}" for i in range(rng.randint(2, 7))]
    edges = [(f"e{i - 1}", names[rng.randrange(i)], names[i], random_length(rng))
             for i in range(1, len(names))]
    for _ in range(rng.randint(0, 5)):
        a, b = rng.sample(names, 2)
        edges.append((f"e{len(edges)}", a, b, random_length(rng)))
    return names, edges


def change_model(rng: random.Random, change: str, names: list, edges: list):
    """(G, H, move, scale): two models of one metric graph, up to the length
    scale, and move, which carries each point of G to the same point of H."""
    i = rng.randrange(len(edges))
    eid, tail, head, length = edges[i]
    rest = edges[:i] + edges[i + 1:]
    cut = length * Fraction(rng.randint(1, 7), 8)
    scale = Fraction(1)
    if change == "loop":  # a new cycle at tail: in G two edges through w, in H one loop
        H = MetricGraph.of(names, edges + [("L", tail, tail, length)])
        names, edges = names + ["w"], edges + [("c0", tail, "w", cut),
                                               ("c1", "w", tail, length - cut)]
        along = {"c0": 0, "c1": cut}

        def move(p):
            if p.vertex == "w":
                return H.point(edge="L", offset=cut)
            return H.point(edge="L", offset=along[p.edge] + p.offset) if p.edge in along else p
    elif change == "subdivide":
        H = MetricGraph.of(names + ["w"], rest + [("s0", tail, "w", cut),
                                                  ("s1", "w", head, length - cut)])

        def move(p):
            if p.edge != eid:
                return p
            return H.point(edge="s0", offset=p.offset) if p.offset < cut else \
                H.point(edge="s1", offset=p.offset - cut)
    elif change == "reverse":
        H = MetricGraph.of(names, rest + [(eid, head, tail, length)])

        def move(p):
            return H.point(edge=eid, offset=length - p.offset) if p.edge == eid else p
    elif change == "relabel":
        vnames = dict(zip(names, rng.sample([f"u{j}" for j in range(len(names))], len(names))))
        enames = {e[0]: f"f{j}" for j, e in enumerate(rng.sample(edges, len(edges)))}
        H = MetricGraph.of(rng.sample(list(vnames.values()), len(names)),
                           rng.sample([(enames[e], vnames[a], vnames[b], l)
                                       for e, a, b, l in edges], len(edges)))

        def move(p):
            return H.point(vertex=vnames[p.vertex]) if p.is_vertex else \
                H.point(edge=enames[p.edge], offset=p.offset)
    else:
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        H = MetricGraph.of(names, [(e, a, b, l * scale) for e, a, b, l in edges])

        def move(p):
            return p if p.is_vertex else H.point(edge=p.edge, offset=p.offset * scale)
    return MetricGraph.of(names, edges), H, move, scale


@pytest.mark.thorough
@given(seed=st.integers(0, 2 ** 32 - 1), change=st.sampled_from(CHANGES))
@settings(max_examples=min(settings.default.max_examples, 200))  # about 30 ms each
def test_a_change_of_model_changes_no_intrinsic_answer(seed, change):
    rng = random.Random(seed)
    G, H, move, scale = change_model(rng, change, *loop_free_graph(rng))

    def carry(d):
        return Divisor(H, {move(p): c for p, c in d.entries.items()})

    p, q = random_point(rng, G), random_point(rng, G)
    assert mg_resistance(H, move(p), move(q)) == scale * mg_resistance(G, p, q)
    d = Divisor.of(G, [(random_point(rng, G), rng.randint(1, 2))
                       for _ in range(rng.randint(1, 3))])
    j, k = mg_jfunction(G, q, p), mg_jfunction(H, move(q), move(p))
    for x in d.entries:
        assert k.eval(move(x)) == scale * j.eval(x)
    (consumed, unburnt), (carried, moved) = \
        dv_dhar_certificate(G, d, q), dv_dhar_certificate(H, carry(d), move(q))
    assert carried == consumed
    if unburnt is not None:
        for x in [*d.entries, q, *(random_point(rng, G) for _ in range(3))]:
            assert moved.contains(move(x)) == unburnt.contains(x)
    gens = []
    for at in [random_point(rng, G) for _ in range(rng.randint(2, 4))]:
        gens.append(dv_dhar(G, d, at))
        assert dv_dhar(H, carry(d), move(at)) == carry(gens[-1])
    assert dv_rho(H, carry(gens[0]), carry(gens[1])) == scale * dv_rho(G, gens[0], gens[1])
    assert dv_b1(H, carry(gens[0]), carry(gens[1])) == scale ** 2 * dv_b1(G, gens[0], gens[1])
    T, U = LinearSystem(G, gens), LinearSystem(H, [carry(g) for g in gens])
    assert ls_reduced(U, move(p))[0] == carry(ls_reduced(T, p)[0])
    e = Divisor.of(G, [(random_point(rng, G), 1) for _ in range(int(d.degree()))])
    assert ls_member(U, carry(e))[0] == ls_member(T, e)[0]
    assert ls_project(U, carry(e))[0] == carry(ls_project(T, e)[0])
    assert set(ls_extremals(U)) == {carry(g) for g in ls_extremals(T)}
    assert tt_is_tree(U)[0] == tt_is_tree(T)[0]

    graph, generators, _, _ = random_cover(rng, rng.randint(2, 4), rng.randint(2, 3))
    G, H, move, scale = change_model(rng, change, *map(list, graph.given))
    T = LinearSystem(G, [Divisor(G, g.entries) for g in generators])
    U = LinearSystem(H, [carry(g) for g in T.generators])
    assert tt_is_tree(U)[0] == tt_is_tree(T)[0]
    assert tt_is_dominant(U)[0] == tt_is_dominant(T)[0]
    assert tt_verify_witness(U, U.degree)[0] == tt_verify_witness(T, T.degree)[0]
    if tt_is_dominant(T)[0]:  # only a new cycle through w leaves the cover not dominant
        assert tt_harmonize(U)[2] == tt_harmonize(T)[2]
        f, g = tt_morphism(T), tt_morphism(U)
        for v in graph.vertices:
            at = GraphPoint(vertex=v)
            assert g.degree_of(move(at)) == f.degree_of(at)
        for node in tt_skeleton(T).nodes:
            fiber = tt_preimage(T, node).finite_points()
            assert fiber is not None
            assert set(tt_preimage(U, carry(node)).finite_points()) == set(map(move, fiber))
