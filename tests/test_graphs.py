"""Metric graphs, piecewise-linear functions and exact potential theory."""

import random
from fractions import Fraction
from functools import reduce
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropkit import (
    CertificateError,
    ClosedSubset,
    Divisor,
    GraphPoint,
    InputError,
    LinearSystem,
    MetricGraph,
    PLFunction,
    dv_b1,
    dv_dhar,
    dv_dhar_certificate,
    dv_dhar_trace,
    dv_lin_equiv,
    dv_path,
    dv_rho,
    ls_member,
    ls_project,
    ls_reduced,
    mg_distance,
    mg_jfunction,
    mg_potential,
    mg_resistance,
    mg_validate,
    rational_str,
)
from tropkit import graphs
from tropkit.workspace import to_jsonable

import closed_oracle
import dhar_oracle
import pl_oracle
import potential_oracle
from conftest import equal_degree_pair, random_graph, random_grid, random_point
from potential_oracle import oracle_potential


class TestGraphConstruction:
    def test_c6_report(self, c6):
        report = c6.graph_report
        assert report["vertices"] == 6
        assert report["edges"] == 6
        assert report["genus"] == 1
        assert report["total_length"] == 6
        assert report["connected"] is True
        assert report["loops_subdivided"] == []

    def test_loops_are_split_in_half(self):
        g = MetricGraph.of(["a"], [("loop", "a", "a", 3)])
        assert "loop:mid" in g.vertices
        assert g.loop_aliases["loop"] == ("loop:a", "loop:b", Fraction(3, 2))
        p = g.point(edge="loop", offset=2)
        assert p.edge == "loop:b" and p.offset == Fraction(1, 2)
        report = mg_validate(["a"], [("loop", "a", "a", 3)])[1]
        assert report["loops_subdivided"] == ["loop"]
        assert report["genus"] == 1
        assert report["total_length"] == 3

    def test_loop_offsets_run_over_the_whole_loop(self):
        g = MetricGraph.of(["a", "b"], [("e", "a", "b", 1), ("L", "a", "a", 2)])
        assert [g.point(edge="L", offset=t) for t in (0, "1/2", 1, "3/2", 2)] == [
            GraphPoint(vertex="a"), GraphPoint(edge="L:a", offset=Fraction(1, 2)),
            GraphPoint(vertex="L:mid"), GraphPoint(edge="L:b", offset=Fraction(1, 2)),
            GraphPoint(vertex="a")]

    @pytest.mark.parametrize("offset", [3, "5/2", -1, "-1/2"])
    def test_loop_offsets_past_the_loop_name_it_as_given(self, offset):
        g = MetricGraph.of(["a", "b"], [("e", "a", "b", 1), ("L", "a", "a", 2)])
        with pytest.raises(InputError) as err:
            g.point(edge="L", offset=offset)
        assert str(err.value) == f"offset {offset} outside [0, 2] on edge 'L'"

    @pytest.mark.parametrize("loop, message", [
        (("L", "x", "x", 2), "edge 'L' references an unknown vertex"),
        (("L", "a", "a", 0), "edge 'L' must have positive length"),
        (("L", "a", "a", -2), "edge 'L' must have positive length"),
    ])
    def test_invalid_loops_are_named_as_given(self, loop, message):
        with pytest.raises(InputError) as err:
            MetricGraph.of(["a", "b"], [("e", "a", "b", 1), loop])
        assert str(err.value) == message

    @pytest.mark.parametrize("vertices, edges, message", [
        (["a", "b"], [("L", "a", "b", 1), ("L", "a", "a", 2)], "edge ids must be distinct"),
        (["a", "b"], [("e", "a", "b", 1), ("L", "a", "a", 2), ("f", "b", "L:mid", 1)],
         "edge 'f' references an unknown vertex"),
        (["a", "b"], [("e", "a", "b", 1), ("L", "a", "a", 2), ("L", "b", "b", 1)],
         "edge ids must be distinct"),
        (["a", "L:mid"], [("e", "a", "L:mid", 0), ("L", "a", "a", 2)],
         "edge 'e' must have positive length"),
    ], ids=["loop beside an edge of its id", "end at an undeclared midpoint",
            "two loops of one id", "bad length before a midpoint clash"])
    def test_the_record_is_checked_before_the_split(self, vertices, edges, message):
        with pytest.raises(InputError) as err:
            MetricGraph.of(vertices, edges)
        assert str(err.value) == message

    @pytest.mark.parametrize("edge, offset", [("e", 1), ("e", None), (None, 1)])
    def test_a_point_is_a_vertex_or_an_edge_position(self, edge, offset):
        g = MetricGraph.of(["a", "b"], [("e", "a", "b", 2)])
        with pytest.raises(InputError) as err:
            g.point(vertex="a", edge=edge, offset=offset)
        assert str(err.value) == "a point is either a vertex or an edge position, not both"

    def test_boolean_offsets_are_not_inside_an_edge(self):
        g = MetricGraph.of(["a", "b"], [("e", "a", "b", 2)])
        for offset in (True, False):
            with pytest.raises(InputError) as err:
                g.check_point(GraphPoint(edge="e", offset=offset), "q")
            assert (str(err.value), err.value.location) == \
                (f"offset {offset} is not inside (0, 2) on edge 'e'", "q")
        with pytest.raises(InputError):
            mg_distance(g, GraphPoint(edge="e", offset=True), g.vertex_point("a"))

    def test_offset_normalization(self, c6):
        g = c6.need_graph()
        assert g.point(edge="e1", offset=0).vertex == "v1"
        assert g.point(edge="e1", offset=1).vertex == "w12"
        assert not g.point(edge="e1", offset=Fraction(1, 2)).is_vertex

    def test_invalid_graphs_are_rejected(self):
        with pytest.raises(InputError):
            MetricGraph.of(["a", "b"], [("e", "a", "c", 1)])
        with pytest.raises(InputError):
            MetricGraph.of(["a", "b"], [("e", "a", "b", 0)])
        with pytest.raises(InputError):
            MetricGraph.of(["a", "b", "c"], [("e", "a", "b", 1)])
        with pytest.raises(InputError):
            MetricGraph.of(["a", "b"], [("e", "a", "b", 1),
                                        ("e", "b", "a", 1)])

    def test_random_graphs_validate(self):
        rng = random.Random(7)
        for _ in range(10):
            g = random_graph(rng)
            assert g.total_length > 0
            assert g.genus >= 0


@pytest.mark.thorough
class TestRandomRecords:
    """The constructor takes the record as given, loops whole, and derives
    the loopless model the solvers read; a clash added to a record is refused."""

    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_the_constructor_splits_the_record(self, seed):
        g = random_graph(random.Random(seed))
        vertices, edges = g.given
        rebuilt = MetricGraph(vertices, edges)
        assert (rebuilt.given, rebuilt.vertices, rebuilt.edges, rebuilt.loop_aliases) == \
            (g.given, g.vertices, g.edges, g.loop_aliases)
        assert g.vertices == vertices + tuple(f"{eid}:mid" for eid in g.loop_aliases)
        assert all(e.tail != e.head for e in g.edges)
        assert len(g.edge_map) == len(g.edges) == len(edges) + len(g.loop_aliases)
        assert g.total_length == sum(e.length for e in edges)
        model = MetricGraph(g.vertices, g.edges)  # loopless: its own record
        assert model.given[0] is model.vertices and model.given[1] is model.edges
        assert (model.vertices, model.edges, model.loop_aliases) == (g.vertices, g.edges, {})

    @given(seed=st.integers(0, 2 ** 32 - 1), clash=st.sampled_from(["id", "end", "mid"]))
    def test_clashes_added_to_a_record_are_refused(self, seed, clash):
        rng = random.Random(seed)
        vertices, edges = random_graph(rng).given
        v, one = rng.choice(vertices), Fraction(1)
        vertices, edges, message = {
            "id": (vertices, edges + (graphs.Edge(rng.choice(edges).id, v, v, one),),
                   "edge ids must be distinct"),
            "end": (vertices, edges + (graphs.Edge("L", v, v, one), graphs.Edge("f", v, "L:mid", one)),
                    "edge 'f' references an unknown vertex"),
            "mid": (vertices + ("L:mid",),
                    edges + (graphs.Edge("L", v, v, one), graphs.Edge("f", v, "L:mid", one)),
                    "vertex name 'L:mid' collides with loop split"),
        }[clash]
        with pytest.raises(InputError) as err:
            MetricGraph(vertices, edges)
        assert str(err.value) == message


class TestDistances:
    def test_c6_distances(self, c6):
        g = c6.need_graph()
        v1, v3 = g.vertex_point("v1"), g.vertex_point("v3")
        assert mg_distance(g, v1, v3) == 2
        assert mg_distance(g, v1, g.vertex_point("w23")) == 3
        a = g.point(edge="e1", offset=Fraction(1, 4))
        b = g.point(edge="e1", offset=Fraction(3, 4))
        assert mg_distance(g, a, b) == Fraction(1, 2)

    @pytest.mark.thorough
    @given(seed=st.integers(0, 2 ** 32 - 1), same_edge=st.booleans())
    def test_matches_floyd_warshall_on_the_subdivision(self, seed, same_edge):
        """Random multigraphs and random pairs of vertices and interior
        points, on one edge when same_edge: the distance either way equals
        the shortest path over the segments of the graph cut at both."""
        rng = random.Random(seed)
        g = random_graph(rng)
        if same_edge:
            e = rng.choice(g.edges)
            p, q = (g.point(edge=e.id, offset=e.length * Fraction(rng.randint(1, 7), 8))
                    for _ in range(2))
        else:
            p, q = random_point(rng, g), random_point(rng, g)
        nodes, index, segments = dhar_oracle.subdivide(g, [p, q])
        n = len(nodes)
        dist = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
        for a, b, length, _, _ in segments:
            if dist[a][b] is None or length < dist[a][b]:
                dist[a][b] = dist[b][a] = length
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if dist[i][k] is not None and dist[k][j] is not None and (
                            dist[i][j] is None or dist[i][k] + dist[k][j] < dist[i][j]):
                        dist[i][j] = dist[i][k] + dist[k][j]
        expected = dist[index[dhar_oracle._node(p)]][index[dhar_oracle._node(q)]]
        assert mg_distance(g, p, q) == mg_distance(g, q, p) == expected

    def test_resistance_definitions_agree(self, c6):
        g = c6.need_graph()
        v1, v3 = g.vertex_point("v1"), g.vertex_point("v3")
        assert mg_resistance(g, v1, v3) == Fraction(4, 3)
        assert mg_resistance(g, v3, v1) == Fraction(4, 3)
        assert mg_resistance(g, v1, v1) == 0


class TestPotentials:
    def test_c6_reference_potential(self, c6):
        g = c6.need_graph()
        f = mg_potential(g, c6.divisor("D1"), c6.divisor("D3"))
        values = [f.eval(g.vertex_point(v)) for v in
                  ("v1", "w12", "v2", "w23", "v3", "w13")]
        assert values == [0, 1, 2, 3, 4, 2]
        assert f.max_value() == 4
        assert f.min_value() == 0
        assert f.integral() == 12
        assert f.slopes_integer()

    def test_divisor_round_trip_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(12):
            g = random_graph(rng)
            d1, d2 = equal_degree_pair(rng, g)
            f = mg_potential(g, d1, d2)
            assert f.divisor() == d2.sub(d1)
            assert f.divisor().degree() == 0
        # a zero coefficient is dropped whatever form it is given in
        p, q = g.vertex_point("v0"), g.vertex_point("v1")
        d = Divisor(g, {p: "0", q: 1})
        assert d == Divisor.of(g, [(q, 1)])
        assert str(d) == "(v1)" and d.is_effective()

    def test_cocycle_is_constant(self, c6):
        g = c6.need_graph()
        d0, d1, d2 = (c6.divisor(n) for n in ("D0", "D1", "D2"))
        total = mg_potential(g, d0, d1).add(mg_potential(g, d1, d2)) \
            .sub(mg_potential(g, d0, d2))
        assert total.spread() == 0

    def test_degree_mismatch_is_rejected(self, c6):
        g = c6.need_graph()
        with pytest.raises(InputError):
            mg_potential(g, c6.divisor("D1"),
                         Divisor.of(g, [(g.vertex_point("v2"), 1)]))

    def test_extremum_sets_disjoint_unless_constant(self, c6):
        g = c6.need_graph()
        f = mg_potential(g, c6.divisor("D1"), c6.divisor("D3"))
        lo = f.extremum_set("min")
        hi = f.extremum_set("max")
        assert lo.intersect(hi).is_empty()
        const = PLFunction.constant(g, 5)
        assert not const.extremum_set("min") \
            .intersect(const.extremum_set("max")).is_empty()

    def test_unknown_extremum_is_rejected(self, c6):
        """An unknown extremum is an input error, and a rejected call leaves
        the minimizer cache alone."""
        g = c6.need_graph()
        f = mg_potential(g, c6.divisor("D1"), c6.divisor("D3"))
        with pytest.raises(InputError, match="^which must be 'min' or 'max', got 'MAX'$"):
            f.extremum_set("MAX")
        assert f._min_set is None
        assert f.extremum_set("min") is f.extremum_set() is f._min_set

    def test_pointwise_operations_agree_with_eval(self):
        """add, sub, min_with, neg, add_const, clip_max and minus_min against
        eval of the inputs, at every breakpoint of either input and every
        midpoint between them. Operations build their results unchecked, so
        each result must pass the checked constructor unchanged: exact,
        continuous, and simplified even where kinks cancel, as in (f+h)-h,
        with the slopes the constructor derives, each an int exactly when it
        is integral, and a divisor of Fraction coefficients."""
        rng = random.Random(29)
        crossings = 0
        slope_types = set()
        for _ in range(15):
            g = random_graph(rng)
            f = mg_potential(g, *equal_degree_pair(rng, g))
            h = mg_potential(g, *equal_degree_pair(rng, g))
            low = f.min_with(h)
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            cap = (f.min_value() + f.max_value()) / 2
            shift = f.sub(h).min_value()
            results = [(f.add(h), lambda a, b: a + b),
                       (f.sub(h), lambda a, b: a - b),
                       (low, min),
                       (f.neg(), lambda a, b: -a),
                       (f.add_const(c), lambda a, b: a + c),
                       (f.clip_max(cap), lambda a, b: min(a, cap)),
                       (f.sub(h).minus_min(), lambda a, b: a - b - shift),
                       (f.add(h).sub(h), lambda a, b: a)]
            for result, _ in results:
                checked = PLFunction(result.graph, result.data)
                assert checked.data == result.data
                assert checked.slopes == result.slopes
                assert checked.vertex_values == result.vertex_values
                for s in (s for ss in result.slopes.values() for s in ss):
                    assert type(s) is (int if s.denominator == 1 else Fraction)
                    slope_types.add(type(s))
                assert all(type(c) is Fraction for c in result.divisor().entries.values())
            for e in g.edges:
                offs = sorted({o for o, _ in f.data[e.id]}
                              | {o for o, _ in h.data[e.id]})
                mids = [(x + y) / 2 for x, y in zip(offs, offs[1:])]
                for o in offs + mids:
                    p = (GraphPoint(edge=e.id, offset=o) if 0 < o < e.length
                         else GraphPoint(vertex=e.tail if o == 0 else e.head))
                    for result, op in results:
                        assert result.eval(p) == op(f.eval(p), h.eval(p))
                crossings += len({o for o, _ in low.data[e.id]} - set(offs))
        assert crossings > 0  # the sample exercises crossing insertion
        assert slope_types == {int, Fraction}

    def test_cached_invariants_match_a_fresh_checked_copy(self):
        """min_value, max_value, integral and extremum_set("min") are kept
        after their first read; slopes_integer reads the stored slopes. On potentials
        and on the result of every operation, taken after the inputs have
        filled their caches, two reads agree with each other and with a
        fresh checked copy, and the minimizer set is read back as the same
        object."""

        def invariants(f):
            return (f.min_value(), f.max_value(), f.integral(), f.slopes_integer(),
                    f.extremum_set("min").key(), f.extremum_set("max").key())

        rng = random.Random(41)
        verdicts = set()
        for _ in range(12):
            g = random_graph(rng)
            f = mg_potential(g, *equal_degree_pair(rng, g))
            h = mg_potential(g, *equal_degree_pair(rng, g))
            for fn in (f, h):
                invariants(fn)
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
            cap = (f.min_value() + f.max_value()) / 2
            results = [f, h, f.add(h), f.sub(h), f.min_with(h), f.clip_max(cap),
                       f.neg(), f.add_const(c), f.sub(h).minus_min(), f.neg().minus_min()]
            for result in results:
                fresh = invariants(PLFunction(result.graph, result.data))
                first_set = result.extremum_set("min")
                assert invariants(result) == invariants(result) == fresh
                assert result.extremum_set("min") is first_set
                verdicts.add(result.slopes_integer())
        assert verdicts == {True, False}

    def test_equals_the_dense_subdivided_oracle(self):
        """Equal breakpoint tuples on every edge: equal values at every
        vertex and every breakpoint. The solver builds its result
        unchecked, so the checked constructor must rebuild it unchanged."""
        seen = set()
        for seed in range(30):
            rng = random.Random(seed)
            g = random_graph(rng)
            crowded = rng.choice(g.edges)
            pairs = [(g.point(edge=crowded.id, offset=crowded.length * Fraction(k, 5)),
                      Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])))
                     for k in (1, 2, 4)]
            pairs += [(random_point(rng, g), Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])))
                      for _ in range(4)]
            d_to = Divisor.of(g, pairs)
            d_from = Divisor.of(g, [(random_point(rng, g), d_to.degree())])
            f = mg_potential(g, d_from, d_to)
            assert f.data == oracle_potential(g, d_from, d_to).data
            checked = PLFunction(f.graph, f.data)
            assert checked.data == f.data
            assert checked.vertex_values == f.vertex_values
            delta = d_to.sub(d_from)
            ends = [frozenset((e.tail, e.head)) for e in g.edges]
            cut_edges = [p.edge for p in delta.support() if not p.is_vertex]
            halves = {h for a, b, _ in g.loop_aliases.values() for h in (a, b)}
            seen.update(case for case, hit in [
                ("parallel", len(set(ends)) < len(ends)),
                ("loop cut", not halves.isdisjoint(cut_edges)),
                ("shared edge", len(set(cut_edges)) < len(cut_edges)),
                ("negative", any(c < 0 for c in delta.entries.values())),
                ("fractional", not delta.is_integral())] if hit)
        assert seen == {"parallel", "loop cut", "shared edge", "negative", "fractional"}

    def test_foster_theorem(self):
        """Sum over edges of R(tail, head)/length is |V| - 1."""
        for seed in range(5):
            g = random_graph(random.Random(seed))
            total = sum((mg_resistance(g, g.vertex_point(e.tail), g.vertex_point(e.head))
                         / e.length for e in g.edges), Fraction(0))
            assert total == len(g.vertices) - 1

    def test_resistance_equals_the_jfunction_and_the_oracle(self):
        """mg_resistance reads two values of the solve; the j-function and
        the dense oracle build the whole potential and evaluate it at p."""
        seen = set()
        for seed in range(20):
            rng = random.Random(seed)
            g = random_graph(rng)
            v, w = rng.sample(g.vertices, 2)
            e = rng.choice(g.edges)
            pairs = {"vertex-vertex": (g.vertex_point(v), g.vertex_point(w)),
                     "vertex-interior": (g.vertex_point(v), g.point(edge=e.id, offset=e.length / 3)),
                     "one edge": (g.point(edge=e.id, offset=e.length / 4),
                                  g.point(edge=e.id, offset=e.length * Fraction(3, 4)))}
            for loop, (_, _, half) in g.loop_aliases.items():
                pairs["loop halves"] = (g.point(edge=loop, offset=half / 2),
                                        g.point(edge=loop, offset=half * Fraction(3, 2)))
            for case, (p, q) in pairs.items():
                jp, jq = (Divisor.of(g, [(x, 1)]) for x in (p, q))
                r = mg_resistance(g, p, q)
                assert r > 0
                assert r == mg_jfunction(g, q, p).eval(p) == oracle_potential(g, jq, jp).eval(p)
                seen.add(case)
        assert seen == {"vertex-vertex", "vertex-interior", "one edge", "loop halves"}

    def test_resistance_between_two_points_on_one_edge_of_a_cycle(self):
        """Two cut points on one edge, an arc a apart on a cycle of length
        L: the resistance is a(L - a)/L."""
        g = MetricGraph.of(["x", "y", "z"], [("e", "x", "y", 3), ("f", "y", "z", Fraction(5, 2)),
                                             ("g", "z", "x", Fraction(7, 3))])
        total = g.total_length
        for o1, o2 in [(Fraction(1, 2), 2), (Fraction(1, 7), Fraction(29, 10)), (1, Fraction(4, 3))]:
            p, q = g.point(edge="e", offset=o1), g.point(edge="e", offset=o2)
            a = abs(Fraction(o2) - Fraction(o1))
            assert mg_resistance(g, p, q) == mg_resistance(g, q, p) == a * (total - a) / total


class TestIntegerSolve:
    """The fraction-free solve against the Fraction LDL^T solve it replaced
    and the dense subdivided Gauss oracle (tests/potential_oracle.py)."""

    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6))
    def test_matches_both_oracles(self, seed, k):
        """Random multigraphs (k = 1) and k x k grids, lengths p/q: the
        vertex values over their least common denominator, the potential
        and a resistance."""
        rng = random.Random(seed)
        g = random_graph(rng) if k == 1 else random_grid(rng, k)
        d_from, d_to = equal_degree_pair(rng, g)
        x, dx, cuts = graphs._solve(g, d_to.sub(d_from).entries)
        vals, ref_cuts = potential_oracle.solve(g, d_from, d_to)
        assert ({v: Fraction(x[v], dx) for v in g.vertices}, cuts) == (vals, ref_cuts)
        assert dx == lcm(*(v.denominator for v in vals.values()))
        assert mg_potential(g, d_from, d_to).data == oracle_potential(g, d_from, d_to).data
        p, q = random_point(rng, g), random_point(rng, g)
        jp, jq = (Divisor.of(g, [(pt, 1)]) for pt in (p, q))
        vals, cuts = potential_oracle.solve(g, jq, jp)
        at_p, at_q = (vals[pt.vertex] if pt.is_vertex else potential_oracle.cut_value(
            g.edge_map[pt.edge], vals, cuts.get(pt.edge, []), pt.offset) for pt in (p, q))
        assert mg_resistance(g, p, q) == at_p - at_q == oracle_potential(g, jq, jp).eval(p)

    @pytest.mark.parametrize("corrupt", [lambda x, d: ([x[0] + 1, *x[1:]], d),
                                         lambda x, d: (x, d + 1)], ids=["X", "D"])
    def test_a_wrong_solve_fails_its_residual_check(self, monkeypatch, corrupt):
        g = MetricGraph.of(["a", "b", "c"], [("e", "a", "b", 2), ("f", "b", "c", Fraction(1, 3)),
                                             ("h", "c", "a", 1)])
        a, b = g.vertex_point("a"), g.point(edge="f", offset=Fraction(1, 4))
        solve = graphs._bareiss
        monkeypatch.setattr(graphs, "_bareiss", lambda rows: corrupt(*solve(rows)))
        for call in (mg_resistance, mg_jfunction):
            with pytest.raises(CertificateError, match="failed its residual check"):
                call(g, a, b)


class TestPointsOffTheGraph:
    """Every public call that takes a bare point, Divisor.of, and every
    public call that takes a directly built divisor reject a point that is
    not a vertex or strictly inside an edge, and name the argument as the
    error's location."""

    G = MetricGraph.of(["a", "b"], [("e", "a", "b", 1)])
    A = GraphPoint(vertex="a")

    @pytest.mark.parametrize("point, message", [
        (GraphPoint(edge="e", offset=Fraction(-1, 2)), "offset -1/2 is not inside (0, 1) on edge 'e'"),
        (GraphPoint(edge="e", offset=Fraction(1)), "offset 1 is not inside (0, 1) on edge 'e'"),
        (GraphPoint(edge="x", offset=Fraction(1, 2)), "unknown edge 'x'"),
        (GraphPoint(vertex="z"), "unknown vertex 'z'"),
        ("a", "expected a graph point"),
        (GraphPoint("a", "e", Fraction(1, 2)),
         "a point is either a vertex or an edge position, not both"),
    ], ids=["before", "at the end", "unknown edge", "unknown vertex", "not a point",
            "vertex and edge"])
    @pytest.mark.parametrize("call, location", [
        (lambda g, p, a: mg_resistance(g, p, a), "p"),
        (lambda g, p, a: mg_resistance(g, a, p), "q"),
        (lambda g, p, a: mg_jfunction(g, p, a), "q"),
        (lambda g, p, a: mg_distance(g, a, p), "q"),
        (lambda g, p, a: dv_dhar_trace(g, Divisor.of(g, [(a, 1)]), p), "q"),
        (lambda g, p, a: dv_dhar_certificate(g, Divisor.of(g, [(a, 1)]), p), "q"),
        (lambda g, p, a: dv_dhar(g, Divisor(g, {p: 1}), a), "divisor"),
        (lambda g, p, a: ls_reduced(LinearSystem(g, [Divisor.of(g, [(a, 1)])]), p), "q"),
        (lambda g, p, a: Divisor.of(g, [(a, 1), (p, 1)]), "divisor entry 1"),
        (lambda g, p, a: mg_potential(g, Divisor(g, {p: 1}), Divisor(g, {a: 1})), "d_from"),
        (lambda g, p, a: mg_potential(g, Divisor(g, {a: 1}), Divisor(g, {p: 1})), "d_to"),
        (lambda g, p, a: dv_lin_equiv(g, Divisor(g, {a: 1}), Divisor(g, {p: 1})), "d2"),
        (lambda g, p, a: dv_rho(g, Divisor(g, {p: 1}), Divisor(g, {a: 1})), "d1"),
        (lambda g, p, a: dv_path(g, Divisor(g, {a: 1}), Divisor(g, {p: 1}), 0), "d2"),
        (lambda g, p, a: dv_b1(g, Divisor(g, {p: 1}), Divisor(g, {a: 1})), "d"),
        (lambda g, p, a: dv_b1(g, Divisor(g, {a: 1}), Divisor(g, {p: 1})), "e"),
        (lambda g, p, a: LinearSystem(g, [Divisor(g, {a: 1}), Divisor(g, {p: 1})]),
         "generator 1"),
        (lambda g, p, a: ls_member(LinearSystem(g, [Divisor(g, {a: 1})]), Divisor(g, {p: 1})),
         "e"),
        (lambda g, p, a: ls_project(LinearSystem(g, [Divisor(g, {a: 1})]), Divisor(g, {p: 1})),
         "e"),
        (lambda g, p, a: PLFunction.constant(g, 0).eval(p), "point"),
    ], ids=["resistance p", "resistance q", "jfunction q", "distance q", "dhar trace q",
            "dhar certificate q", "dhar divisor", "reduced q", "Divisor.of", "potential from",
            "potential to", "equivalence", "rho", "path", "b1 d", "b1 e", "system generator",
            "member target", "project target", "eval point"])
    def test_rejected_at_its_location(self, call, location, point, message):
        with pytest.raises(InputError) as exc:
            call(self.G, point, self.A)
        assert (str(exc.value), exc.value.location) == (message, location)


class TestPLFunctionChecks:
    """Every rejection of the checked constructor, one case each, on two
    parallel edges a-b of lengths 2 and 1; the last case is out of order
    but collinear, so the offsets must be checked before breakpoints
    where the slope does not change are dropped."""

    @pytest.mark.parametrize("data, message", [
        ({"e": ((0, 0), (2, 0))}, "missing data for edge 'f'"),
        ({"e": ((0, 0), (2, 0)), "f": ((0, 0), (1, 0)), "x": ((0, 0), (1, 0))},
         "function must cover exactly the graph's edges"),
        ({"e": ((0, 0), (1, 0)), "f": ((0, 0), (1, 0))},
         "breakpoints of edge 'e' must span [0, length]"),
        ({"e": ((0, 0), (Fraction(3, 2), 1), (Fraction(1, 2), 1), (2, 0)),
          "f": ((0, 0), (1, 0))},
         "breakpoints of edge 'e' must increase"),
        ({"e": ((0, 0), (2, 0)), "f": ((0, 1), (1, 0))},
         "discontinuity at vertex 'a'"),
        ({"e": ((0, 0.5), (2, 0)), "f": ((0, 0), (1, 0))},
         'floats are not accepted; write rationals as "p/q" strings'),
        ({"e": ((0, 0), (Fraction(3, 2), Fraction(3, 2)), (1, 1), (2, 2)),
          "f": ((0, 0), (1, 2))},
         "breakpoints of edge 'e' must increase"),
    ])
    def test_rejections(self, data, message):
        g = MetricGraph.of(["a", "b"], [("e", "a", "b", 2), ("f", "a", "b", 1)])
        with pytest.raises(InputError) as exc:
            PLFunction(g, data)
        assert str(exc.value) == message

    def test_string_offsets_order_as_rationals(self):
        """"1/3" sorts after "1/2" as text but before it as a rational."""
        g = MetricGraph.of(["a", "b"], [("e", "a", "b", 1)])
        f = PLFunction(g, {"e": ((0, 0), ("1/3", 2), ("1/2", 1), (1, 0))})
        assert f.data["e"] == ((0, 0), (Fraction(1, 3), 2), (Fraction(1, 2), 1), (1, 0))


def _boundary(f):
    """Everything a PL function shows outside the kernel, with the type of
    every breakpoint coordinate and slope."""
    return (f.data, {eid: tuple((type(o), type(v)) for o, v in bps) for eid, bps in f.data.items()},
            {eid: tuple((s, type(s)) for s in ss) for eid, ss in f.slopes.items()},
            f.vertex_values, f.min_value(), f.max_value(), f.integral(), f.slopes_integer(),
            f.breakpoint_values(), f.extremum_set("min").key(), f.extremum_set("max").key(),
            f.divisor().key())


_CHAIN = ("add", "sub", "neg", "add_const", "minus_min", "clip_max", "min_with")


@pytest.mark.thorough
class TestIntegerKernel:
    """The integer kernel against the Fraction kernel it replaced
    (tests/pl_oracle.py): the same breakpoints, slopes, values, integrals,
    extremum sets and divisors after every step."""

    @given(seed=st.integers(0, 2 ** 32 - 1), chain=st.lists(st.sampled_from(_CHAIN), max_size=6),
           k=st.integers(3, 5))
    def test_matches_the_fraction_oracle(self, seed, chain, k):
        """Potentials on random graphs (lengths such as 4/3 and 3/2, loops
        split in half), a chain of pointwise operations, then a min_with
        fold over the result and k potentials, whose crossings refine the
        offset denominator."""
        rng = random.Random(seed)
        g = random_graph(rng)
        pairs = [equal_degree_pair(rng, g) for _ in range(k)]
        pots = [mg_potential(g, *pair) for pair in pairs]
        refs = [pl_oracle.potential(g, *pair) for pair in pairs]
        for f, ref in zip(pots, refs):
            assert _boundary(f) == _boundary(ref)
        f, ref = pots[0], refs[0]
        for name in chain:
            i = rng.randrange(k)
            if name in ("add", "sub", "min_with"):
                f, ref = getattr(f, name)(pots[i]), getattr(ref, name)(refs[i])
            elif name == "add_const":
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                f, ref = f.add_const(c), ref.add_const(c)
            elif name == "clip_max":
                t = f.min_value() + (f.max_value() - f.min_value()) * Fraction(rng.randint(0, 4), 4)
                f, ref = f.clip_max(t), ref.clip_max(t)
            else:
                f, ref = getattr(f, name)(), getattr(ref, name)()
            assert _boundary(f) == _boundary(ref)
        shifts = [Fraction(rng.randint(0, 6), rng.randint(1, 5)) for _ in pots]
        low = reduce(PLFunction.min_with, [f] + [p.add_const(c) for p, c in zip(pots, shifts)])
        low_ref = reduce(pl_oracle.PLFunction.min_with,
                         [ref] + [p.add_const(c) for p, c in zip(refs, shifts)])
        assert _boundary(low) == _boundary(low_ref)
        # the checked constructor drops the collinear midpoints again
        dense = {eid: (*(p for (o1, v1), (o2, v2) in zip(bps, bps[1:])
                         for p in ((o1, v1), ((o1 + o2) / 2, (v1 + v2) / 2))), bps[-1])
                 for eid, bps in low_ref.data.items()}
        assert _boundary(PLFunction(g, dense)) == _boundary(pl_oracle.PLFunction(g, dense)) \
            == _boundary(low)

    def test_a_crossing_refines_the_offset_denominator(self):
        """x and (1 - x)/2 on a unit edge cross at 1/3, so the minimum has
        a breakpoint off every denominator of its inputs."""
        g = MetricGraph.of(["a", "b"], [("e", "a", "b", 1)])
        f = PLFunction(g, {"e": ((0, 0), (1, 1))})
        h = PLFunction(g, {"e": ((0, Fraction(1, 2)), (1, 0))})
        low = f.min_with(h)
        assert low.data["e"] == ((0, 0), (Fraction(1, 3), Fraction(1, 3)), (1, 0))
        assert low.slopes["e"] == (1, Fraction(-1, 2))
        ref = pl_oracle.PLFunction(g, f.data).min_with(pl_oracle.PLFunction(g, h.data))
        assert _boundary(low) == _boundary(ref)

    def test_edges_linear_on_both_sides_match_the_oracle(self, c6):
        """Potentials between vertex-supported divisors are linear on every
        edge, so add, sub and min_with combine each edge without a merge;
        a potential with an interior point in its support mixes in cut
        edges."""
        g = c6.need_graph()
        pairs = [("D1", "D2"), ("D2", "D3"), ("D12", "D0"), ("D3", "D13"), ("D23", "D1")]
        pairs = [(c6.divisor(a), c6.divisor(b)) for a, b in pairs]
        pots = [mg_potential(g, *pair) for pair in pairs]
        refs = [pl_oracle.potential(g, *pair) for pair in pairs]
        assert all(len(ss) == 1 for f in pots for ss in f.slopes.values())
        mid = Divisor.of(g, [(g.point(edge="e3", offset=Fraction(1, 3)), 3)])
        pots.append(mg_potential(g, c6.divisor("D1"), mid))
        refs.append(pl_oracle.potential(g, c6.divisor("D1"), mid))
        assert len(pots[-1].slopes["e3"]) == 2
        shifts = [Fraction(k, 7) for k in range(len(pots))]
        for i, (f, ref) in enumerate(zip(pots, refs)):
            for h, href in zip(pots[i + 1:], refs[i + 1:]):
                h, href = h.add_const(shifts[i]), href.add_const(shifts[i])
                for name in ("add", "sub", "min_with"):
                    assert _boundary(getattr(f, name)(h)) == _boundary(getattr(ref, name)(href))

    def test_linear_edges_crossing_off_every_input_denominator(self):
        """On a unit path a - m - b, the potential from a to b rises by 1
        per edge and the one from 2b to 2a falls by 2, so their minimum
        crosses a third of the way into an edge."""
        g = MetricGraph.of(["a", "m", "b"], [("e1", "a", "m", 1), ("e2", "m", "b", 1)])
        a, b = Divisor.of(g, [(g.vertex_point("a"), 1)]), Divisor.of(g, [(g.vertex_point("b"), 1)])
        pairs = [(a, b), (b.add(b), a.add(a))]
        f, h = (mg_potential(g, *pair) for pair in pairs)
        ref, href = (pl_oracle.potential(g, *pair) for pair in pairs)
        assert all(len(ss) == 1 for fn in (f, h) for ss in fn.slopes.values())
        low = f.min_with(h)
        assert {o for bps in low.data.values() for o, _ in bps} - {0, 1} \
            in ({Fraction(1, 3)}, {Fraction(2, 3)})
        assert _boundary(low) == _boundary(ref.min_with(href))
        assert _boundary(h.min_with(f)) == _boundary(href.min_with(ref))

    def test_minus_min_is_an_int_shift(self, c6):
        """minus_min is f itself at minimum 0, and otherwise the function
        add_const(-min_value()) builds: the same pieces, denominators and
        extremes."""
        g = c6.need_graph()
        f = mg_potential(g, c6.divisor("D12"), c6.divisor("D0"))
        h = mg_potential(g, c6.divisor("D2"), c6.divisor("D13"))
        assert f.min_value() == 0 and f.minus_min() is f
        for shifted in (f.add_const(Fraction(5, 3)), f.sub(h), h.neg(), f.add_const(-4)):
            assert shifted.min_value() != 0
            low, want = shifted.minus_min(), shifted.add_const(-shifted.min_value())
            assert (low._pieces, low._do, low._ds, low._dv) \
                == (want._pieces, want._do, want._ds, want._dv)
            assert low._range == want._extremes()
            assert _boundary(low) == _boundary(want)


class TestJFunctions:
    def test_c6_reference_values(self, c6):
        g = c6.need_graph()
        v1, v3 = g.vertex_point("v1"), g.vertex_point("v3")
        j = mg_jfunction(g, v3, v1)
        values = [j.eval(g.vertex_point(v)) for v in
                  ("v1", "w12", "v2", "w23", "v3", "w13")]
        assert values == [Fraction(4, 3), 1, Fraction(2, 3),
                          Fraction(1, 3), 0, Fraction(2, 3)]

    def _check_axioms(self, g, p, q, x):
        jq = mg_jfunction(g, q, p)
        r = mg_resistance(g, p, q)
        assert jq.eval(q) == 0
        assert 0 <= jq.eval(x) <= jq.eval(p)
        assert jq.eval(x) == mg_jfunction(g, q, x).eval(p)
        jp = mg_jfunction(g, p, q)
        assert jq.eval(x) + jp.eval(x) == r
        assert r == jq.eval(p) == jp.eval(q)
        assert r <= mg_distance(g, p, q)

    def test_axioms_on_c6(self, c6):
        g = c6.need_graph()
        rng = random.Random(3)
        for _ in range(6):
            p, q, x = (random_point(rng, g) for _ in range(3))
            if p.key() == q.key():
                continue
            self._check_axioms(g, p, q, x)

    def test_axioms_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(6):
            g = random_graph(rng, max_vertices=6, max_edges=9)
            p, q, x = (random_point(rng, g) for _ in range(3))
            if p.key() == q.key():
                continue
            self._check_axioms(g, p, q, x)

    def test_laplacian_of_j_is_the_dipole(self, c6):
        g = c6.need_graph()
        rng = random.Random(5)
        for _ in range(4):
            p, q = random_point(rng, g), random_point(rng, g)
            if p.key() == q.key():
                continue
            j = mg_jfunction(g, q, p)
            expected = Divisor.of(g, [(p, 1), (q, -1)])
            assert j.divisor() == expected


class TestClosedSubsets:
    def test_union_intersection_cover(self, c6):
        g = c6.need_graph()
        left = ClosedSubset(g, {"v1", "w12", "v2"},
                            {"e1": [(Fraction(0), Fraction(1))],
                             "e2": [(Fraction(0), Fraction(1))]})
        right = ClosedSubset(
            g, {"v2", "w23", "v3", "w13", "v1"},
            {"e3": [(Fraction(0), Fraction(1))],
             "e4": [(Fraction(0), Fraction(1))],
             "e5": [(Fraction(0), Fraction(1))],
             "e6": [(Fraction(0), Fraction(1))]})
        assert not left.covers_graph()
        assert left.union(right).covers_graph()
        mid = left.intersect(right)
        assert mid.contains(g.vertex_point("v1"))
        assert mid.contains(g.vertex_point("v2"))
        assert not mid.contains(g.point(edge="e1", offset=Fraction(1, 2)))

    def test_equal_sets_over_different_denominators(self, c6):
        """Equality and hashing read the intervals, not the int form: a union
        kept over the lcm of its operands' denominators still equals the set
        it adds nothing to."""
        g = c6.need_graph()
        half = ClosedSubset(g, (), {"e1": [(Fraction(0), Fraction(1, 2))]})
        same = half.union(ClosedSubset(g, (), {"e1": [(Fraction(1, 3), Fraction(1, 2))]}))
        assert (half._den, half._ivs) == (2, {"e1": ((0, 1),)})
        assert (same._den, same._ivs) == (6, {"e1": ((0, 3),)})
        assert half == same
        assert hash(half) == hash(same)

    def test_complement_components(self, c6):
        g = c6.need_graph()
        sub = ClosedSubset(g, {"v1", "w12"},
                           {"e1": [(Fraction(0), Fraction(1))]})
        comps = sub.complement_components()
        assert len(comps) == 1
        assert comps[0]["vertices"] == ["v2", "v3", "w13", "w23"]
        gaps = {gap["edge"] for gap in comps[0]["gaps"]}
        assert gaps == {"e2", "e3", "e4", "e5", "e6"}

    def test_finite_point_sets(self, c6):
        g = c6.need_graph()
        dots = ClosedSubset(g, {"v1"},
                            {"e3": [(Fraction(1, 2), Fraction(1, 2))]})
        pts = dots.finite_points()
        assert pts is not None
        assert {str(p) for p in pts} == {"v1", "e3@1/2"}
        band = ClosedSubset(g, set(), {"e1": [(Fraction(0), Fraction(1, 2))]})
        assert band.finite_points() is None

    def test_derived_sets_are_canonical_and_exact(self):
        """extremum_set, union and intersect build their sets without the
        constructor's checks. Each result holds exactly the points it
        should at every probe (vertices, the inputs' breakpoints and the
        midpoints between them), is canonical (sorted intervals with gaps
        between them, every edge end they reach among the vertices), and
        the checked constructor rebuilds it from its intervals and the
        vertices not at their ends."""
        seen = set()
        for seed in range(8):
            rng = random.Random(seed)
            g = random_graph(rng)
            fns = [mg_potential(g, *equal_degree_pair(rng, g)) for _ in range(3)]
            fns += [f.clip_max((f.min_value() + f.max_value()) / 2) for f in fns]
            cases = []  # (derived set, its membership test, probe offsets per edge)
            for f in fns:
                offs = {eid: {o for o, _ in bps} for eid, bps in f.data.items()}
                for which, level in (("min", f.min_value()), ("max", f.max_value())):
                    cases.append((f.extremum_set(which),
                                  lambda p, f=f, level=level: f.eval(p) == level, offs))
            base = [s for s, _, _ in cases]
            for i, a in enumerate(base):
                for b in base[i + 1:]:
                    offs = {eid: {x for s in (a, b) for seg in s.intervals.get(eid, ()) for x in seg}
                            for eid in g.edge_map}
                    cases.append((a.union(b), lambda p, a=a, b=b: a.contains(p) or b.contains(p),
                                  offs))
                    cases.append((a.intersect(b),
                                  lambda p, a=a, b=b: a.contains(p) and b.contains(p), offs))
                    if any(b1 == a2 or b2 == a1
                           for eid in a.intervals.keys() & b.intervals.keys()
                           for a1, b1 in a.intervals[eid] for a2, b2 in b.intervals[eid]):
                        seen.add("touching")
            for s, inside, offs in cases:
                for p in _probe_points(g, offs):
                    assert s.contains(p) == inside(p)
                ends = set()
                for eid, segs in s.intervals.items():
                    e = g.edge_map[eid]
                    assert all(b1 < a2 for (_, b1), (a2, _) in zip(segs, segs[1:]))
                    if segs[0][0] == 0:
                        ends.add(e.tail)
                    if segs[-1][1] == e.length:
                        ends.add(e.head)
                    if any(a == b and 0 < a < e.length for a, b in segs):
                        seen.add("isolated point")
                if ends:
                    seen.add("edge end")
                assert ends <= s.vertices
                rebuilt = ClosedSubset(g, s.vertices - ends, s.intervals)
                assert rebuilt.key() == s.key()
        assert seen == {"touching", "isolated point", "edge end"}


def _random_closed_sets(rng, g, count):
    """(vertices, intervals) inputs for the checked constructor. Interval
    ends are multiples of length/k, k drawn per set, so sets carry
    different denominators and their intervals touch, nest and reach edge
    ends; one set in four covers every edge in two touching halves."""
    out = []
    for _ in range(count):
        k = rng.choice([1, 2, 3, 4, 6])
        if rng.random() < 0.25:
            halves = {}
            for e in g.edges:
                cut = e.length * Fraction(rng.randint(0, k), k)
                halves[e.id] = [(0, cut), (cut, e.length)]
            out.append((set(), halves))
            continue
        ivs = {}
        for e in g.edges:
            ends = [sorted(rng.randint(0, k) for _ in range(2)) for _ in range(rng.randint(0, 3))]
            if ends:
                ivs[e.id] = [(e.length * Fraction(a, k), e.length * Fraction(b, k)) for a, b in ends]
        out.append(({v for v in g.vertices if rng.random() < 0.3}, ivs))
    return out


def _assert_same_closed_set(g, s, o):
    """The integer closed set s shows exactly what the Fraction oracle o
    shows: vertices, intervals with their types, key, cover, emptiness,
    complement, finite points, JSON form, and membership at every vertex,
    interval end and midpoint between them. Gap ends and point offsets
    must be Fractions: an int 0 compares equal but prints as a number."""
    typed = lambda ivs: {eid: (type(segs), [(a, type(a), b, type(b)) for a, b in segs])
                         for eid, segs in ivs.items()}
    assert s.vertices == o.vertices and type(s.vertices) is type(o.vertices)
    assert typed(s.intervals) == typed(o.intervals)
    assert s.key() == o.key()
    assert (s.covers_graph(), s.is_empty()) == (o.covers_graph(), o.is_empty())
    assert s.complement_components() == o.complement_components()
    missing, gaps = s.complement_gaps()
    assert (missing, gaps) == o.complement_gaps()
    assert all(type(x) is Fraction for _, a, b in gaps for x in (a, b))
    points = s.finite_points()
    assert points == o.finite_points()
    assert all(type(p.offset) is Fraction for p in points or () if not p.is_vertex)
    assert to_jsonable(s) == {
        "vertices": sorted(o.vertices),
        "intervals": {eid: [[rational_str(a), rational_str(b)] for a, b in segs]
                      for eid, segs in sorted(o.intervals.items())}}
    offs = {e.id: {x for seg in o.intervals.get(e.id, ()) for x in seg} for e in g.edges}
    for p in _probe_points(g, offs):
        assert s.contains(p) == o.contains(p)


@pytest.mark.thorough
class TestIntegerClosedSets:
    """Closed subsets on int intervals over one denominator per set against
    the Fraction closed sets they replaced (tests/closed_oracle.py)."""

    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_fraction_oracle(self, seed):
        """Random interval sets through the checked constructor and the
        minimizer, maximizer and nonconstant sets of random potentials (and
        of their clipped versions, which have plateaus), then unions and
        intersections of random pairs of them and unions of three."""
        rng = random.Random(seed)
        g = random_graph(rng)
        pairs = [(ClosedSubset(g, verts, ivs), closed_oracle.ClosedSubset(g, verts, ivs))
                 for verts, ivs in _random_closed_sets(rng, g, 5)]
        for _ in range(2):
            f = mg_potential(g, *equal_degree_pair(rng, g))
            for h in (f, f.clip_max((f.min_value() + f.max_value()) / 2)):
                pairs += [(h.extremum_set(which), closed_oracle.extremum_set(h, which))
                          for which in ("min", "max")]
                moving = {eid: [(o1, o2) for (o1, _), (o2, _), s
                                in zip(bps, bps[1:], h.slopes[eid]) if s]
                          for eid, bps in h.data.items()}
                pairs.append((h.nonconstant_set(), closed_oracle.ClosedSubset(g, (), moving)))
        for s, o in pairs:
            _assert_same_closed_set(g, s, o)
        for _ in range(12):
            (s, o), (t, u) = rng.sample(pairs, 2)
            _assert_same_closed_set(g, s.union(t), o.union(u))
            _assert_same_closed_set(g, s.intersect(t), o.intersect(u))
        for _ in range(4):  # one union of many sets builds what the chained unions build
            picked = rng.sample(pairs, 3)
            s = picked[0][0].union(*(t for t, _ in picked[1:]))
            chained = reduce(ClosedSubset.union, (t for t, _ in picked))
            _assert_same_closed_set(g, s, reduce(closed_oracle.ClosedSubset.union,
                                                 (u for _, u in picked)))
            assert (s._den, s._ivs, s.vertices) == (chained._den, chained._ivs, chained.vertices)


def _probe_points(g, offsets):
    """Every vertex and, on each edge, every interior offset given and the
    midpoints between consecutive offsets and the edge ends."""
    pts = [g.vertex_point(v) for v in g.vertices]
    for e in g.edges:
        offs = sorted({Fraction(0), e.length} | offsets.get(e.id, set()))
        for o in offs[1:-1] + [(x + y) / 2 for x, y in zip(offs, offs[1:])]:
            pts.append(GraphPoint(edge=e.id, offset=o))
    return pts


def _segment():
    return MetricGraph.of(["a", "b"], [("e", "a", "b", 1)])


class TestInputErrors:
    """Each input the graph layer refuses, with its message and no location."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: MetricGraph.of([], [("e", "a", "b", 1)]),
                     "graph needs at least one vertex", id="no vertex"),
        pytest.param(lambda: MetricGraph.of(["a", "a"], [("e", "a", "a", 1)]),
                     "vertex names must be distinct", id="repeated vertex"),
        pytest.param(lambda: MetricGraph.of(["a"], []), "graph needs at least one edge",
                     id="no edge"),
        pytest.param(lambda: _segment().point(),
                     "a point needs a vertex, or an edge and an offset", id="empty point"),
        pytest.param(lambda: _segment().point(edge="f", offset=0), "unknown edge 'f'",
                     id="point edge"),
        pytest.param(lambda: ClosedSubset(_segment(), (), {"f": [(0, 1)]}), "unknown edge 'f'",
                     id="interval edge"),
        pytest.param(lambda: ClosedSubset(_segment(), (), {"e": [(0, 2)]}),
                     "interval [0,2] outside edge 'e'", id="interval range"),
        pytest.param(lambda: ClosedSubset(_segment(), ["c"]), "unknown vertex 'c'",
                     id="set vertex"),
    ])
    def test_refused_inputs(self, call, message):
        with pytest.raises(InputError) as refused:
            call()
        assert (str(refused.value), refused.value.location) == (message, "")


def test_the_zero_divisor_prints_as_zero():
    assert str(Divisor(_segment(), {})) == "0"
