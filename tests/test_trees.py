"""Tropical trees: recognition, reduced maps, morphisms, harmonization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_cover
from tropkit import (
    Attachment,
    Divisor,
    InputError,
    LinearSystem,
    MetricGraph,
    ls_bases,
    ls_project,
    ls_reduced,
    tt_critical,
    tt_harmonize,
    tt_is_dominant,
    tt_is_tree,
    tt_morphism,
    tt_preimage,
    tt_reduced_map,
    tt_skeleton,
    tt_support,
    tt_verify_witness,
)
from tropkit import trees
from tropkit.trees import _places


@pytest.fixture(scope="module")
def triangle(c6):
    return c6.system("triangle_mid")


@pytest.fixture(scope="module")
def seg(c6):
    return c6.system("seg_D1_D3")


class TestTreeRecognition:
    def test_triangle_criticals(self, c6, triangle):
        crits = tt_critical(triangle)
        expected = {c6.divisor(n).key() for n in ("D12", "D23", "D13", "D0")}
        assert {d.key() for d in crits} == expected
        assert [d.key() for d in crits] == sorted(d.key() for d in crits)

    def test_triangle_is_a_dominant_tree(self, triangle):
        ok, report = tt_is_tree(triangle)
        assert ok
        assert report["method"] == "critical-set verified"
        assert tt_support(triangle).covers_graph()
        dominant, dreport = tt_is_dominant(triangle)
        assert dominant
        assert dreport["method"] == "critical-set verified"

    def test_bad_triangle_witness_is_recheckable(self, c6):
        bad = c6.system("triangle_bad")
        ok, report = tt_is_tree(bad)
        assert not ok
        assert report["reason"] == \
            "two chip-firing bases fail to cover the graph"
        witness_divisor = report["divisor"]
        b1, b2 = report["bases"]
        assert not b1.union(b2).covers_graph()
        recomputed = {b.key() for b in ls_bases(bad, witness_divisor)}
        assert b1.key() in recomputed and b2.key() in recomputed
        dominant, dreport = tt_is_dominant(bad)
        assert not dominant
        assert dreport["reason"] == "not a tropical tree"

    def test_segment_leaving_the_generator_segments_is_reported(self, c6, monkeypatch):
        """With no chip-firing bases the first check passes vacuously, and
        c6 `complete` fails the second: a segment between two critical
        members turns at a divisor on no generator segment. triangle_bad,
        which the first check rejects, passes the second, so neither check
        stands in for the other. The systems are built fresh: the fixture's
        own are shared and would keep the patched verdict in their memo."""
        monkeypatch.setattr(trees, "ls_bases", lambda system, d: [])
        fresh = lambda name: LinearSystem(c6.need_graph(),
                                          [c6.divisor(n) for n in c6.systems[name]])
        ok, report = tt_is_tree(fresh("complete"))
        assert not ok
        assert report["reason"] == \
            "a segment between members leaves the generator segments"
        assert str(report["divisor"]) == "(v2)+(w12)+(w23)"
        assert [str(d) for d in report["between"]] == \
            ["2(e1@1/2)+(w13)", "2(e3@1/2)+(w12)"]
        assert tt_is_tree(fresh("triangle_bad"))[0]

    def test_segment_is_a_dominant_tree(self, seg):
        ok, _ = tt_is_tree(seg)
        assert ok
        dominant, _ = tt_is_dominant(seg)
        assert dominant

    def test_seg_banana_tree_but_not_dominant(self, banana):
        system = banana.system("seg_E1_E3")
        ok, _ = tt_is_tree(system)
        assert ok
        dominant, report = tt_is_dominant(system)
        assert not dominant
        assert report["reason"] == "support misses part of the graph"
        components = report["uncovered"]
        assert len(components) == 1
        assert components[0]["vertices"] == ["u2", "x1", "x2", "x3"]
        gap_edges = sorted(gap["edge"] for gap in components[0]["gaps"])
        assert gap_edges == [
            "banana-2-a-in", "banana-2-a-out",
            "banana-2-b-in", "banana-2-b-out",
            "banana-2-c-in", "banana-2-c-out",
        ]
        for gap in components[0]["gaps"]:
            assert (gap["from"], gap["to"]) == (0, pytest.approx(0.5))


class TestReducedMapAndPreimages:
    def test_a_lone_generator_is_the_image_of_every_point(self, c6):
        """A one-generator system admits no chip-firing move, so every point
        reduces to the generator and its preimage is the whole graph."""
        d = c6.divisor("D1")
        T = LinearSystem(c6.need_graph(), [d])
        assert ls_bases(T, d) == []
        assert tt_preimage(T, d).covers_graph()

    def test_preimage_of_the_center(self, c6, triangle):
        pre = tt_preimage(triangle, c6.divisor("D0"))
        pts = pre.finite_points()
        assert pts is not None
        assert {str(p) for p in pts} == {"v1", "v2", "v3"}

    def test_preimage_matches_base_intersection(self, c6, triangle):
        for name in ("D12", "D23", "D13", "D0"):
            d = c6.divisor(name)
            bases = ls_bases(triangle, d)
            expected = bases[0]
            for b in bases[1:]:
                expected = expected.intersect(b)
            assert tt_preimage(triangle, d).key() == expected.key()

    def test_preimage_sits_inside_the_support(self, c6, triangle):
        for name in ("D12", "D23", "D13", "D0"):
            d = c6.divisor(name)
            pts = tt_preimage(triangle, d).finite_points()
            assert pts is not None
            for p in pts:
                assert d.coeff(p) > 0

    def test_dominant_samples_appear_in_their_reduction(self, c6, triangle):
        g = c6.need_graph()
        for q, red in tt_reduced_map(triangle):
            assert red.coeff(q) > 0
            assert tt_preimage(triangle, red).contains(q)

    @pytest.mark.parametrize("ws, name", [("c6", "triangle_mid"), ("banana", "witness4")])
    def test_the_map_samples_vertices_then_each_edge_at_even_spacing(self, request, ws, name):
        T = request.getfixturevalue(ws).system(name)
        g = T.graph
        vertices = [g.vertex_point(v) for v in g.vertices]
        assert [q for q, _ in tt_reduced_map(T, 0)] == vertices
        rows = tt_reduced_map(T, 2)
        assert [q for q, _ in rows] == vertices + [
            g.point(edge=e.id, offset=e.length * k / 3) for e in g.edges for k in (1, 2)]
        assert all(red == ls_reduced(T, q)[0] for q, red in rows)
        assert tt_reduced_map(T) == tt_reduced_map(T, 1)

    @pytest.mark.parametrize("per_edge", [-1, 1.5, True, Fraction(1), "1", None])
    def test_a_density_that_is_not_a_nonnegative_int_is_refused(self, c6, per_edge):
        with pytest.raises(InputError) as exc:
            tt_reduced_map(c6.system("triangle_mid"), per_edge)
        assert exc.value.location == "per_edge"

    def test_subtree_reduction_compatibility(self, c6, triangle):
        """Reducing in a generator-subset subtree equals projecting the
        full reduction onto that subtree."""
        from tropkit import LinearSystem
        g = c6.need_graph()
        pairs = [("D12", "D23"), ("D23", "D13"), ("D12", "D13")]
        samples = [g.vertex_point(v) for v in g.vertices]
        for n1, n2 in pairs:
            sub = LinearSystem(g, [c6.divisor(n1), c6.divisor(n2)])
            for q in samples:
                direct, _ = ls_reduced(sub, q)
                full, _ = ls_reduced(triangle, q)
                through, _ = ls_project(sub, full)
                assert direct == through


class TestSkeletonAndMorphism:
    def test_triangle_skeleton_is_a_star(self, c6, triangle):
        skel = tt_skeleton(triangle)
        assert len(skel.nodes) == 4
        assert len(skel.arcs) == 3
        center = next(i for i, n in enumerate(skel.nodes)
                      if n == c6.divisor("D0"))
        for arc in skel.arcs:
            assert center in (arc.a, arc.b)
            assert arc.length == 1

    def test_triangle_morphism_reference(self, c6, triangle):
        g = c6.need_graph()
        morphism = tt_morphism(triangle)
        skel = morphism.skeleton
        node_of = {str(n): i for i, n in enumerate(skel.nodes)}
        fiber_sets = {i: {str(p) for p in fiber}
                      for i, fiber in enumerate(morphism.fibers)}
        assert fiber_sets[node_of[str(c6.divisor('D0'))]] == \
            {"v1", "v2", "v3"}
        assert fiber_sets[node_of[str(c6.divisor('D12'))]] == {"w12"}
        assert all(a.expansion == 1 for a in morphism.sub_arcs)
        assert morphism.degree_of(g.vertex_point("v1")) == 1
        assert morphism.degree_of(g.vertex_point("w12")) == 2
        quarter = g.point(edge="e1", offset="1/4")  # no subdivision node
        with pytest.raises(InputError) as refused:
            morphism.degree_of(quarter)
        assert (str(refused.value), refused.value.location) == (
            "e1@1/4 is not a subdivision node of the map", "")

    def test_segment_morphism_expansions(self, c6, seg):
        morphism = tt_morphism(seg)
        by_edge = {}
        for sub in morphism.sub_arcs:
            by_edge.setdefault(sub.edge, set()).add(sub.expansion)
        assert by_edge == {"e1": {1}, "e2": {1}, "e3": {1}, "e4": {1},
                           "e5": {2}, "e6": {2}}
        expansions = sorted((max(v) for v in by_edge.values()), reverse=True)
        assert expansions == [2, 2, 1, 1, 1, 1]

    def test_expansions_are_positive_integers(self, banana):
        morphism = tt_morphism(banana.system("witness4"))
        for sub in morphism.sub_arcs:
            assert isinstance(sub.expansion, int)
            assert sub.expansion >= 1
            span = abs(sub.arc_to - sub.arc_from)
            assert span == sub.expansion * (sub.end - sub.start)


class TestMemoTable:
    def test_tree_layer_memo_hands_out_copies(self, banana):
        """A system's second tt_morphism call returns the stored object, and
        changing a returned report or critical list leaves the next call's
        result equal to a fresh system's."""
        W = banana.system("witness4")
        T = LinearSystem(W.graph, W.generators)
        morphism = tt_morphism(T)
        assert tt_morphism(T) is morphism
        fresh = LinearSystem(W.graph, W.generators)
        for check in (tt_is_tree, tt_is_dominant):
            ok, report = check(T)
            assert ok
            report.clear()
            report["method"] = "changed"
            assert check(T) == check(fresh)
        crits = tt_critical(T)
        assert crits
        crits.clear()
        assert tt_critical(T) == tt_critical(fresh)


class TestHarmonization:
    def test_triangle_needs_three_unit_branches(self, triangle):
        modification, morphism, degree = tt_harmonize(triangle)
        assert degree == 3
        assert not modification.is_trivial
        assert len(modification.attachments) == 3
        points = sorted(str(a.point) for a in modification.attachments)
        assert points == ["v1", "v2", "v3"]
        assert all(a.multiplicity == 1 for a in modification.attachments)

    def test_segment_is_already_harmonic(self, seg):
        modification, morphism, degree = tt_harmonize(seg)
        assert degree == 3
        assert modification.is_trivial

    def test_node_fibers_conserve_degree_after_attachment(self, triangle):
        modification, morphism, degree = tt_harmonize(triangle)
        skel = morphism.skeleton
        for i in range(len(skel.nodes)):
            base = sum(morphism.degree_of(p) for p in morphism.fibers[i])
            added = sum(a.multiplicity for a in modification.attachments
                        if i in a.component_nodes)
            assert base + added == degree

    def test_banana_witness_harmonization(self, banana):
        modification, morphism, degree = tt_harmonize(banana.system("witness4"))
        assert degree == 4
        shape = sorted((str(a.point), a.multiplicity)
                       for a in modification.attachments)
        assert shape == [("u2", 1), ("u2", 1),
                         ("w13", 2), ("w13", 2), ("w13", 2)]

    def test_attachments_inside_an_arc(self):
        """A point whose reduced divisor lies inside an arc gets one branch
        toward each end of that arc, each cut at the image's position."""
        g = MetricGraph.of(["v0", "v1"], [("e0", "v0", "v1", 3),
                                          ("e1", "v1", "v0", "4/3")])
        at = g.point(edge="e0", offset="25/12")
        T = LinearSystem(g, [
            Divisor.of(g, [(at, 1), (g.point(edge="e1", offset="2/3"), 2)]),
            Divisor.of(g, [(g.point(edge="e0", offset="3/2"), 2), (at, 1)])])
        modification, _, degree = tt_harmonize(T)
        assert degree == 3
        assert modification.attachments == (
            Attachment(at, 1, (1, 2), partial_arc=0, partial_t=Fraction(11, 12),
                       partial_side="a"),
            Attachment(at, 1, (0,), partial_arc=0, partial_t=Fraction(11, 12),
                       partial_side="b"))


class TestWitnessVerification:
    def test_banana_degree_four_witness(self, banana):
        ok, report = tt_verify_witness(banana.system("witness4"), 4)
        assert ok
        assert report["verified"]
        assert report["stably_gonal"] == 4
        assert report["method"] == "critical-set verified"

    def test_wrong_degree_is_rejected(self, banana):
        ok, report = tt_verify_witness(banana.system("witness4"), 3)
        assert not ok
        assert "degree" in report["reason"]

    def test_non_dominant_system_fails(self, banana):
        ok, report = tt_verify_witness(banana.system("seg_E1_E3"), 3)
        assert not ok
        assert report["reason"] == "the system is not a dominant tropical tree"

    def test_non_integer_degree_is_rejected(self, banana):
        with pytest.raises(InputError):
            tt_verify_witness(banana.system("witness4"), "1/2")


@pytest.mark.thorough
class TestRandomCovers:
    """A harmonic morphism planted by conftest.random_cover is found again:
    the pullback of its tree is a dominant tropical tree whose
    reduced-divisor map has the planted local degrees and expansions."""

    @given(seed=st.integers(0, 2 ** 32 - 1), tree_vertices=st.integers(2, 6),
           degree=st.integers(2, 4))
    def test_the_planted_morphism_is_found(self, seed, tree_vertices, degree):
        graph, generators, local, expansion = random_cover(
            random.Random(seed), tree_vertices, degree)
        T = LinearSystem(graph, generators)
        assert tt_is_tree(T)[0]
        assert tt_is_dominant(T)[0]
        morphism = tt_morphism(T)
        skel = morphism.skeleton
        for arc in skel.arcs:  # the invariant that locating a divisor relies on
            assert arc.length == T.rho(skel.nodes[arc.a], skel.nodes[arc.b])
        for v, m in local.items():
            assert morphism.degree_of(graph.vertex_point(v)) == m
        assert {sa.edge for sa in morphism.sub_arcs} == set(expansion)
        for sa in morphism.sub_arcs:
            assert sa.expansion == expansion[sa.edge]
            mid = graph.point(edge=sa.edge, offset=(sa.start + sa.end) / 2)
            image = _places(T, skel, ls_reduced(T, mid)[0])
            assert image == {sa.arc: (sa.arc_from + sa.arc_to) / 2}
        modification, _, d = tt_harmonize(T)
        assert d == degree
        assert modification.is_trivial
        assert tt_verify_witness(T, degree)[0]
