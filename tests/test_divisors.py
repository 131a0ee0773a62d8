"""Linear equivalence, chip-firing segments, Dhar reduction and projections."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dhar_oracle
import system_oracle
from conftest import random_graph, random_point
from tropkit import (
    CertificateError,
    Divisor,
    GraphPoint,
    GroundSpace,
    InputError,
    LinearSystem,
    TropGeneratorSet,
    TropPoint,
    dv_b1,
    dv_dhar,
    dv_dhar_certificate,
    dv_dhar_trace,
    dv_lin_equiv,
    dv_path,
    dv_rho,
    ls_bases,
    ls_extremals,
    ls_member,
    ls_project,
    ls_reduced,
    mg_potential,
    tp_member,
    tp_project,
    tt_critical,
)
from tropkit.divisors import _burn_once, _fire_step
from tropkit.graphs import Subdivision
from tropkit.trees import _sample_points as sample_points


@pytest.fixture(scope="module")
def complete(c6):
    return c6.system("complete")


@pytest.fixture(scope="module")
def triangle(c6):
    return c6.system("triangle_mid")


class TestEquivalenceAndSegments:
    def test_c6_reference_facts(self, c6):
        g = c6.need_graph()
        d1, d3 = c6.divisor("D1"), c6.divisor("D3")
        assert dv_lin_equiv(g, d1, d3)
        assert dv_rho(g, d1, d3) == 4
        assert dv_b1(g, d3, d1) == 12
        assert dv_path(g, d1, d3, 2) == c6.divisor("D13")

    def test_c6_quarter_points(self, c6):
        g = c6.need_graph()
        d1, d3 = c6.divisor("D1"), c6.divisor("D3")
        m1 = g.point(edge="e6", offset=Fraction(1, 2))
        m2 = g.point(edge="e5", offset=Fraction(1, 2))
        w12 = g.vertex_point("w12")
        w23 = g.vertex_point("w23")
        assert dv_path(g, d1, d3, 1) == Divisor.of(g, [(w12, 1), (m1, 2)])
        assert dv_path(g, d1, d3, 3) == Divisor.of(g, [(w23, 1), (m2, 2)])

    def test_inequivalent_degree_one_points(self, c6):
        g = c6.need_graph()
        a = Divisor.of(g, [(g.vertex_point("v1"), 1)])
        b = Divisor.of(g, [(g.vertex_point("w12"), 1)])
        assert not dv_lin_equiv(g, a, b)

    def test_degree_mismatch_raises(self, c6):
        g = c6.need_graph()
        with pytest.raises(InputError):
            dv_lin_equiv(g, c6.divisor("D1"), c6.divisor("D0").sub(
                Divisor.of(g, [(g.vertex_point("v1"), 1)])))

    @pytest.mark.parametrize("call", [
        lambda g, d, e: dv_lin_equiv(g, d, e),
        lambda g, d, e: dv_rho(g, d, e),
        lambda g, d, e: dv_path(g, d, e, 0),
        lambda g, d, e: dv_b1(g, d, e),
    ], ids=["dv_lin_equiv", "dv_rho", "dv_path", "dv_b1"])
    def test_unequal_degrees_are_one_input_error(self, c6, call):
        g = c6.need_graph()
        two = Divisor.of(g, [(g.vertex_point("v1"), 2)])
        with pytest.raises(InputError, match="^divisors must have equal degree$"):
            call(g, c6.divisor("D1"), two)

    def test_path_points_are_effective_and_reversible(self, c6):
        g = c6.need_graph()
        d1, d3 = c6.divisor("D1"), c6.divisor("D3")
        rho = dv_rho(g, d1, d3)
        for k in range(9):
            t = rho * Fraction(k, 8)
            point = dv_path(g, d1, d3, t)
            assert point.is_effective()
            assert point.degree() == 3
            assert point == dv_path(g, d3, d1, rho - t)

    def test_segment_metric_and_collinearity(self, c6):
        g = c6.need_graph()
        d1, d3 = c6.divisor("D1"), c6.divisor("D3")
        rho = dv_rho(g, d1, d3)
        rng = random.Random(23)
        for _ in range(6):
            t1 = rho * Fraction(rng.randint(0, 8), 8)
            t2 = rho * Fraction(rng.randint(0, 8), 8)
            p1 = dv_path(g, d1, d3, t1)
            p2 = dv_path(g, d1, d3, t2)
            assert dv_rho(g, p1, p2) == abs(t1 - t2)
            assert dv_rho(g, d1, p1) + dv_rho(g, p1, d3) == rho

    def test_rho_is_a_metric_on_sampled_triples(self, c6):
        g = c6.need_graph()
        d1, d3 = c6.divisor("D1"), c6.divisor("D3")
        pts = [dv_path(g, d1, d3, t) for t in (0, 1, 2, 3, 4)]
        for a in pts:
            for b in pts:
                assert dv_rho(g, a, b) == dv_rho(g, b, a)
                assert (dv_rho(g, a, b) == 0) == (a == b)
                for c in pts:
                    assert dv_rho(g, a, c) <= dv_rho(g, a, b) + dv_rho(g, b, c)

    def test_linear_split_matches_rho_times_length(self, c6):
        g = c6.need_graph()
        d1, d3 = c6.divisor("D1"), c6.divisor("D3")
        pairs = [(d1, d3), (d1, c6.divisor("D2")),
                 (c6.divisor("D12"), c6.divisor("D13")),
                 (dv_path(g, d1, d3, 1), dv_path(g, d1, d3, 3))]
        for d, e in pairs:
            assert dv_b1(g, e, d) + dv_b1(g, d, e) == \
                dv_rho(g, d, e) * g.total_length

    def test_path_points_belong_to_the_endpoint_system(self, c6):
        g = c6.need_graph()
        T = c6.system("seg_D1_D3")
        d1, d3 = c6.divisor("D1"), c6.divisor("D3")
        for k in range(5):
            point = dv_path(g, d1, d3, k)
            ok, _ = ls_member(T, point)
            assert ok


@pytest.mark.thorough
class TestDharReduction:
    def test_reference_trace(self, c6):
        g = c6.need_graph()
        v1 = g.vertex_point("v1")
        reduced, steps = dv_dhar_trace(g, c6.divisor("D13"), v1)
        assert reduced == c6.divisor("D1")
        assert len(steps) == 2
        consumed, unburnt = dv_dhar_certificate(g, reduced, v1)
        assert consumed and unburnt is None

    def test_single_round_case(self, c6):
        g = c6.need_graph()
        w12 = g.vertex_point("w12")
        reduced, steps = dv_dhar_trace(g, c6.divisor("D0"), w12)
        assert reduced == c6.divisor("D12")
        assert len(steps) == 1

    def test_already_reduced_divisors_are_fixed(self, c6):
        g = c6.need_graph()
        v1 = g.vertex_point("v1")
        assert dv_dhar(g, c6.divisor("D1"), v1) == c6.divisor("D1")

    def test_output_contract(self, c6, complete):
        g = c6.need_graph()
        rng = random.Random(31)
        starts = [c6.divisor(n) for n in ("D1", "D2", "D3", "D13", "D0")]
        for d in starts[:3] + [starts[3]]:
            q = sample_points(g)[rng.randrange(12)]
            red = dv_dhar(g, d, q)
            away = [(p, c) for p, c in red.items() if p.key() != q.key()]
            assert all(c >= 0 for _, c in away)
            assert dv_lin_equiv(g, red, d)
            consumed, _ = dv_dhar_certificate(g, red, q)
            assert consumed

    def test_firing_by_moving_chips_matches_the_oracle(self):
        """Burning on random graphs against tests/dhar_oracle.py, which fires
        through the divisor of a checked PL function: the same reduced
        divisor, fired sets, distances and rounds, and the same certificate.
        Chips sit at vertices and at interior offsets of denominator 1-5,
        and q is a vertex or an interior point."""
        seen = set()

        def interior(rng, g):
            e = rng.choice(g.edges)
            den = rng.randint(1, 5)
            top = -(-e.length.numerator * den // e.length.denominator)  # ceil(length * den)
            if top <= 1:
                return g.vertex_point(rng.choice([e.tail, e.head]))
            return g.point(edge=e.id, offset=Fraction(rng.randrange(1, top), den))

        def point(rng, g):
            return g.vertex_point(rng.choice(g.vertices)) if rng.random() < 0.4 \
                else interior(rng, g)

        @given(seed=st.integers(0, 2 ** 32 - 1))
        def check(seed):
            rng = random.Random(seed)
            g = random_graph(rng, max_vertices=6, max_edges=9)
            d = Divisor.of(g, [(point(rng, g), rng.randint(1, 3))
                               for _ in range(rng.randint(1, 4))])
            q = point(rng, g)
            current = d  # round by round first, so a wrong move fails before a runaway trace
            while (state := dhar_oracle.burn_once(g, current, q)) is not None:
                nodes, segments, burnt, ref_set = state
                sub, lib_burnt, unburnt = _burn_once(g, current, q)
                assert unburnt.key() == ref_set.key()
                fired, l_star = _fire_step(g, current, sub, lib_burnt)
                arms = [length for a, b, length, _, _ in segments if burnt[a] != burnt[b]]
                seen.add("exact arm")  # the shortest arm lands its chip on its burnt end
                if max(arms) > min(arms):
                    seen.add("longer arm")
                current, ref_l_star = dhar_oracle.fire(g, current, nodes, segments, burnt)
                assert (fired.key(), l_star) == (current.key(), ref_l_star)
            reduced, steps = dv_dhar_trace(g, d, q)
            ref, ref_steps = dhar_oracle.trace(g, d, q)
            assert reduced.key() == ref.key() == current.key()
            assert [(s["fired_set"].key(), s["distance"]) for s in steps] == \
                [(s["fired_set"].key(), s["distance"]) for s in ref_steps]
            consumed, unburnt = dv_dhar_certificate(g, d, q)
            ref_consumed, ref_unburnt = dhar_oracle.certificate(g, d, q)
            assert consumed == ref_consumed == (not steps)
            assert (unburnt and unburnt.key()) == (ref_unburnt and ref_unburnt.key())
            if len(steps) > 1:
                seen.add("multi-round")

        check()
        assert seen == {"exact arm", "longer arm", "multi-round"}

    def test_a_zero_length_arm_is_a_certificate_failure(self, c6):
        """A chip at offset 1 of the unit edge e1, an edge point where the
        vertex w12 is, cuts e1 into a zero-length arm. Firing it would move
        no chip any distance, so dv_dhar_trace would spin to its round cap;
        _fire_step raises instead."""
        g = c6.need_graph()
        d = Divisor(g, {GraphPoint(edge="e1", offset=1): 1, GraphPoint(vertex="v1"): 1})
        sub, burnt, unburnt = _burn_once(g, d, g.vertex_point("v3"))
        assert unburnt is not None
        with pytest.raises(CertificateError, match="zero-length arm") as failure:
            _fire_step(g, d, sub, burnt)
        assert failure.value.detail == {"arm": "e1@1..w12"}

    def test_two_routes_agree(self, c6, complete):
        """Burning and projection are independent implementations."""
        g = c6.need_graph()
        for q in sample_points(g):
            burned = dv_dhar(g, c6.divisor("D1"), q)
            projected, _ = ls_reduced(complete, q)
            assert burned == projected


class TestLinearSystems:
    def test_membership_verdicts(self, c6):
        bad = c6.system("triangle_bad")
        ok, cert = ls_member(bad, c6.divisor("D0"))
        assert ok and cert["member"]
        no, cert = ls_member(bad, c6.divisor("D23"))
        assert not no
        assert cert["uncovered"]

    def test_member_rejects_wrong_class(self, c6, complete):
        g = c6.need_graph()
        stranger = Divisor.of(g, [(g.vertex_point("w12"), 3)])
        ok, cert = ls_member(complete, stranger)
        assert not ok
        assert cert["reason"] == "not linearly equivalent to the generators"

    def test_projection_reference(self, c6, complete):
        g = c6.need_graph()
        v1 = g.vertex_point("v1")
        target = Divisor.of(g, [(v1, Fraction(3))])
        projection, report = ls_project(complete, target)
        assert projection == c6.divisor("D1")
        assert report["membership"]["member"]
        for check in report["checks"]:
            assert check["b1_total"] == \
                check["b1_to_projection"] + check["b1_from_projection"]

    def test_reduced_reference(self, c6, triangle):
        g = c6.need_graph()
        red, _ = ls_reduced(triangle, g.vertex_point("v1"))
        assert red == c6.divisor("D0")

    def test_projection_nesting(self, c6, triangle):
        g = c6.need_graph()
        sub = LinearSystem(g, [c6.divisor("D12"), c6.divisor("D13")])
        for q in sample_points(g)[:8]:
            target = Divisor.of(g, [(q, Fraction(3))])
            outer, _ = ls_project(triangle, target)
            direct, _ = ls_project(sub, target)
            through, _ = ls_project(sub, outer)
            assert direct == through

    def test_reduced_value_is_maximal(self, c6, triangle):
        g = c6.need_graph()
        members = [c6.divisor(n) for n in ("D12", "D23", "D13", "D0")]
        for q in sample_points(g):
            red, _ = ls_reduced(triangle, q)
            for d in members:
                assert red.coeff(q) >= d.coeff(q)

    def test_extremals(self, c6, triangle, complete):
        assert {d.key() for d in ls_extremals(triangle)} == \
            {c6.divisor(n).key() for n in ("D12", "D23", "D13")}
        padded = LinearSystem(c6.need_graph(),
                              list(complete.generators) + [c6.divisor("D13")])
        assert {d.key() for d in ls_extremals(padded)} == \
            {d.key() for d in ls_extremals(complete)}

    def test_one_distinct_generator_is_its_own_extremal(self, c6):
        D = c6.divisor("D1")
        assert ls_extremals(LinearSystem(c6.need_graph(), [D, D])) == [D]

    def test_bases_structure(self, c6, triangle):
        g = c6.need_graph()
        bases = ls_bases(triangle, c6.divisor("D0"))
        assert len(bases) == 3
        for x in range(len(bases)):
            for y in range(x + 1, len(bases)):
                assert bases[x].union(bases[y]).covers_graph()
        with pytest.raises(InputError):
            ls_bases(triangle, c6.divisor("D1"))

    @pytest.mark.parametrize("fixture,system", [
        ("c6", "complete"), ("c6", "triangle_mid"), ("banana", "witness4")])
    def test_projection_membership_matches_ls_member(self, request, fixture,
                                                      system):
        """ls_project's membership certificate, built from its own
        potentials, equals ls_member run on a fresh system."""
        T = request.getfixturevalue(fixture).system(system)
        for q in sample_points(T.graph):
            target = Divisor.of(T.graph, [(q, T.degree)])
            projection, cert = ls_project(T, target)
            fresh = LinearSystem(T.graph, T.generators)
            member, expected = ls_member(fresh, projection)
            got = cert["membership"]
            assert member and got["member"] == expected["member"]
            assert [s.key() for s in got["min_sets"]] == \
                [s.key() for s in expected["min_sets"]]
            assert got["uncovered"] == expected["uncovered"] == []

    @pytest.mark.parametrize("fixture,system", [("banana", "witness4"), ("c6", "complete")])
    def test_repeated_projections_match_fresh_systems(self, request, fixture, system):
        """Two ls_reduced sweeps on one system give the projections and
        certificates of a fresh system per call. The first sweep caches
        the potentials from each projection toward the generators and each
        projection, so the second, which repeats every projection, adds
        nothing to either cache. Repeated path points along every generator
        segment likewise equal those of a fresh system."""
        W = request.getfixturevalue(fixture).system(system)
        T = LinearSystem(W.graph, W.generators)
        points = sample_points(T.graph)

        def summary(projection, cert):
            checks = [(c["generator"], c["b1_total"], c["b1_to_projection"],
                       c["b1_from_projection"], c["witness"].key()) for c in cert["checks"]]
            return (projection, checks,
                    [s.key() for s in cert["membership"]["min_sets"]])

        def entries(kind):
            return sum(1 for key in T._memo if key[0] == kind)

        first = [summary(*ls_reduced(T, q)) for q in points]
        assert all(("pair", s[0], g) in T._memo for s in first for g in T.generators)
        cached = entries("pair"), entries("projection")
        second = [summary(*ls_reduced(T, q)) for q in points]
        assert (entries("pair"), entries("projection")) == cached
        for q, got1, got2 in zip(points, first, second):
            expected = summary(*ls_reduced(LinearSystem(T.graph, T.generators), q))
            assert got1 == got2 == expected
        walks = [(a, b, T.rho(a, b) * Fraction(k, 4))
                 for a in T.generators for b in T.generators for k in range(5)]
        first = [T.path_point(*walk) for walk in walks]
        cached = entries("path")
        assert [T.path_point(*walk) for walk in walks] == first
        assert entries("path") == cached
        for walk, point in zip(walks, first):
            assert point == LinearSystem(T.graph, T.generators).path_point(*walk)

    def test_segment_ends_are_the_ends(self, c6, complete):
        """path_point hands out the system's own a at level 0 and b at level
        rho(a, b), and stores no path entry for either end."""
        T = LinearSystem(c6.need_graph(), complete.generators)
        for a in T.generators:
            for b in T.generators:
                rho = T.rho(a, b)
                copy = Divisor(T.graph, a.entries)
                assert T.path_point(copy, b, 0) is T.intern(a) is a
                assert T.path_point(a, b, rho) is b
                assert ("path", a, b, Fraction(0)) not in T._memo
                assert ("path", a, b, rho) not in T._memo
        assert not any(key[0] == "path" for key in T._memo)

    def test_a_projection_memo_hit_is_still_checked(self, c6):
        """ls_project reuses (f*, projection) for a target it has seen, but
        still runs every certificate: a non-member divisor put in the memo
        in place of the projection is caught."""
        T = LinearSystem(c6.need_graph(), c6.system("seg_D1_D3").generators)
        target = Divisor.of(T.graph, [(T.graph.vertex_point("v2"), T.degree)])
        ls_project(T, target)
        f_star, _ = T._memo["projection", target]
        assert not ls_member(LinearSystem(T.graph, T.generators), target)[0]
        T._memo["projection", target] = (f_star, target)
        with pytest.raises(CertificateError):
            ls_project(T, target)

    def test_rejects_bad_generators(self, c6):
        g = c6.need_graph()
        with pytest.raises(InputError):
            LinearSystem(g, [c6.divisor("D1"),
                             Divisor.of(g, [(g.vertex_point("w12"), 3)])])
        with pytest.raises(InputError):
            LinearSystem(g, [Divisor.of(
                g, [(g.vertex_point("v1"), Fraction(1, 2))])])
        with pytest.raises(InputError):
            LinearSystem(g, [c6.divisor("D1").sub(c6.divisor("D0"))])
        with pytest.raises(InputError):
            LinearSystem(g, [])


@pytest.mark.thorough
class TestRandomExtremals:
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_one_pass_matches_the_greedy_loop(self, seed):
        """ls_extremals against tests/system_oracle.py on random systems:
        generators dv_dhar(D, q) for random q on a random graph, plus a
        point strictly inside the segment between two of them, planted at
        a random place. The same divisors in the same order; the planted
        point and every other dropped generator lie in the system the
        kept ones span."""
        rng = random.Random(seed)
        g = random_graph(rng, max_vertices=5, max_edges=7)
        D = Divisor.of(g, [(random_point(rng, g), rng.randint(1, 2))
                           for _ in range(rng.randint(1, 3))])
        gens = list(dict.fromkeys(dv_dhar(g, D, random_point(rng, g))
                                  for _ in range(rng.randint(2, 5))))
        planted = None
        if len(gens) > 1:
            a, b = rng.sample(gens, 2)
            base = LinearSystem(g, gens)
            level = base.rho(a, b) * Fraction(rng.randint(1, 4), 5)
            planted = base.path_point(a, b, level)
            gens.insert(rng.randint(0, len(gens)), planted)
        T = LinearSystem(g, gens)
        kept = ls_extremals(T)
        assert kept == system_oracle.extremals(T)
        assert planted not in kept
        spanned = LinearSystem(g, kept)
        for d in T.generators:
            assert d in kept or ls_member(spanned, d)[0]


class TestInterning:
    """A linear system keeps one object per divisor value: its generators,
    its targets and every divisor it derives."""

    def test_a_repeated_reduced_divisor_is_the_same_object(self, c6, complete):
        """ls_reduced builds a fresh deg·(q) target on every call; its
        projection is the object handed out before, and a generator when
        it equals one."""
        T = LinearSystem(c6.need_graph(), complete.generators)
        at_generators = 0
        for q in sample_points(T.graph):
            first, _ = ls_reduced(T, q)
            assert ls_reduced(T, q)[0] is first
            assert ls_project(T, Divisor.of(T.graph, [(q, T.degree)]))[0] is first
            equal = [g for g in T.generators if g == first]
            assert all(g is first for g in equal)
            at_generators += bool(equal)
        assert at_generators == 3  # D1, D2 and D3, reduced at v1, v2 and v3

    def test_equal_generators_share_one_object(self, c6):
        g = c6.need_graph()
        d1, d3 = c6.divisor("D1"), c6.divisor("D3")
        copy = Divisor.of(g, [(g.vertex_point("v1"), 3)])
        assert copy == d1 and copy is not d1
        T = LinearSystem(g, [d1, d3, copy])
        assert len(T.generators) == 3
        assert T.generators[2] is T.generators[0] is d1
        assert T.intern(Divisor.of(g, [(g.vertex_point("v3"), 3)])) is d3

    def test_targets_are_interned(self, c6, complete):
        """The first target of a value that ls_member or ls_project sees is
        the system's object for that value."""
        T = LinearSystem(c6.need_graph(), complete.generators)
        w12, w23 = T.graph.vertex_point("w12"), T.graph.vertex_point("w23")
        for check, point in ((ls_member, w12), (ls_project, w23)):
            target = Divisor.of(T.graph, [(point, 3)])
            check(T, target)
            assert T.intern(Divisor.of(T.graph, [(point, 3)])) is target

    @pytest.mark.parametrize("fixture,system", [
        ("banana", "witness4"), ("c6", "complete"), ("c6", "triangle_mid")])
    def test_critical_divisors_are_the_handed_out_objects(self, request, fixture, system):
        """Each critical divisor is the object that T.generators or
        T.path_point hands out for its value, whichever segment, direction
        and level reaches it."""
        W = request.getfixturevalue(fixture).system(system)
        T = LinearSystem(W.graph, W.generators)
        crits = tt_critical(T)
        reached = list(T.generators)
        for a in T.generators:
            for b in T.generators:
                reached += [T.path_point(a, b, level)
                            for level in T.pair_function(a, b).breakpoint_values()]
        for c in crits:
            equal = [d for d in reached if d == c]
            assert equal and all(d is c for d in equal)


def _node_space(graph, fns):
    """The subdivision at every interior breakpoint of the functions, with
    trapezoid weights: each node carries half of every segment at it."""
    sub = Subdivision(graph, [GraphPoint(edge=eid, offset=o) for f in fns
                              for eid, bps in f.data.items() for o, _ in bps[1:-1]])
    weights = [Fraction(0)] * len(sub.nodes)
    for a, b, length, _, _ in sub.segments:
        weights[a] += length / 2
        weights[b] += length / 2
    return sub.nodes, GroundSpace.of([f"n{i}" for i in range(len(sub.nodes))], weights)


def _check_against_tropical_projection(T, e):
    """ls_project(T, e) is tp_project on node vectors of the potentials.

    The nodes are the vertices and every breakpoint of the potentials of
    the generators, of e and of the projection, solved afresh against
    generator 0. Between nodes each of these is linear, so the vectors
    determine them, and the trapezoid weights turn the integrals in
    ls_project's certificates into tp_project's weighted sums."""
    projection, cert = ls_project(T, e)
    base = T.generators[0]
    fns = [mg_potential(T.graph, base, d) for d in (*T.generators, e, projection)]
    nodes, space = _node_space(T.graph, fns)
    *gens, gamma, expected = [TropPoint.of([f.eval(p) for p in nodes]) for f in fns]
    S = TropGeneratorSet.of(gens)
    assert len(S.points) == len(T.generators)
    got, tp_cert = tp_project(S, gamma, space)
    assert got == expected
    b1 = ("b1_total", "b1_to_projection", "b1_from_projection")
    assert [[c[k] for k in b1] for c in cert["checks"]] == \
        [[c[k] for k in b1] for c in tp_cert["checks"]]
    assert ls_member(T, e)[0] == tp_member(S, gamma)[0] == (projection == e)


class TestTropicalProjection:
    """The paper's thesis: a reduced divisor is a tropical projection."""

    @pytest.mark.parametrize("fixture,system", [
        ("banana", "witness4"), ("banana", "seg_E1_E3"), ("c6", "complete"),
        ("c6", "triangle_mid"), ("c6", "triangle_bad"), ("c6", "seg_D1_D3")])
    def test_fixture_systems(self, request, fixture, system):
        W = request.getfixturevalue(fixture).system(system)
        T = LinearSystem(W.graph, list(dict.fromkeys(W.generators)))
        for q in sample_points(T.graph):
            _check_against_tropical_projection(T, Divisor.of(T.graph, [(q, T.degree)]))

    def test_random_systems(self):
        """Generators dv_dhar(D, q) of degree genus + 1 on random graphs,
        deduplicated; targets deg·(q) and random effective divisors."""
        seen = set()

        @given(seed=st.integers(0, 2 ** 32 - 1))
        def check(seed):
            rng = random.Random(seed)
            g = random_graph(rng, max_vertices=6, max_edges=9)
            deg = g.genus + 1
            D = Divisor.of(g, [(random_point(rng, g), 1) for _ in range(deg)])
            T = LinearSystem(g, list(dict.fromkeys(
                dv_dhar(g, D, random_point(rng, g)) for _ in range(rng.randint(2, 4)))))
            e = Divisor.of(g, [(random_point(rng, g), 1) for _ in range(deg)])
            for target in (Divisor.of(g, [(random_point(rng, g), deg)]), e):
                _check_against_tropical_projection(T, target)
            seen.add(len(T.generators) > 1)
            seen.add(ls_member(T, e)[0])

        check()
        assert seen == {True, False}

    @pytest.mark.thorough
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_the_projection_minimizes_its_pseudonorm(self, seed):
        """The paper's definition of the projection of e: the member m of
        the system with the least dv_b1(m, e), and the only one. dv_b1
        solves each potential afresh, sharing no cache with ls_project.
        The members sampled are the generators, the points at 1/4, 1/2 and
        3/4 of rho along each pair of them, and the projections of three
        deg·(q) targets; the projection is also its own projection."""
        rng = random.Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        deg = g.genus + 1
        D = Divisor.of(g, [(random_point(rng, g), 1) for _ in range(deg)])
        gens = list(dict.fromkeys(
            dv_dhar(g, D, random_point(rng, g)) for _ in range(rng.randint(2, 4))))
        T = LinearSystem(g, gens)
        e = Divisor.of(g, [(random_point(rng, g), 1) for _ in range(deg)])
        projection = ls_project(T, e)[0]
        assert ls_project(T, projection)[0] == projection
        members = list(gens)
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                rho = dv_rho(g, a, b)
                members += [dv_path(g, a, b, rho * Fraction(k, 4)) for k in (1, 2, 3)]
        members += [ls_project(T, Divisor.of(g, [(random_point(rng, g), deg)]))[0]
                    for _ in range(3)]
        least = dv_b1(g, projection, e)
        for m in dict.fromkeys(members):
            assert ls_member(T, m)[0]
            if m != projection:
                assert least < dv_b1(g, m, e)


def _chips(ws, **at):
    """The divisor of the given coefficients at vertices of ws's graph."""
    g = ws.need_graph()
    return Divisor.of(g, [(g.vertex_point(v), c) for v, c in at.items()])


class TestInputErrors:
    """Each input the divisor layer refuses, on the six-cycle, with its
    message and no location: the command line locates it at --divisor."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda ws: dv_rho(ws.need_graph(), _chips(ws, v1=4, v2=-1), ws.divisor("D1")),
                     "the first divisor must be effective", id="rho first"),
        pytest.param(lambda ws: dv_rho(ws.need_graph(), ws.divisor("D1"), _chips(ws, w12=3)),
                     "divisors are not linearly equivalent", id="rho class"),
        pytest.param(lambda ws: dv_path(ws.need_graph(), ws.divisor("D1"), ws.divisor("D3"), 5),
                     "t must lie in [0, 4]", id="path range"),
        pytest.param(lambda ws: dv_dhar(ws.need_graph(), _chips(ws, v1="1/2"),
                                        ws.need_graph().vertex_point("v2")),
                     "the divisor must be effective with integer coefficients", id="burning"),
        pytest.param(lambda ws: LinearSystem(ws.need_graph(), [ws.divisor("D1"), "D3"]),
                     "generator 1 is not a divisor", id="generator type"),
        pytest.param(lambda ws: LinearSystem(ws.need_graph(), [ws.divisor("D1"),
                                                               _chips(ws, v1=2)]),
                     "generators must share one degree", id="generator degrees"),
        pytest.param(lambda ws: ws.system("complete").path_point(ws.divisor("D1"),
                                                                 ws.divisor("D3"), -1),
                     "t must lie in [0, 4]", id="system path range"),
        pytest.param(lambda ws: ls_member(ws.system("complete"), "D1"),
                     "the target must be a divisor", id="target type"),
        pytest.param(lambda ws: ls_member(ws.system("complete"), _chips(ws, v1=2)),
                     "divisor degree does not match the system", id="target degree"),
        pytest.param(lambda ws: ls_project(ws.system("complete"), _chips(ws, v1=4, v2=-1)),
                     "the target divisor must be effective", id="target effective"),
    ])
    def test_refused_inputs(self, c6, call, message):
        with pytest.raises(InputError) as refused:
            call(c6)
        assert (str(refused.value), refused.value.location) == (message, "")

    def test_a_fractional_target_is_no_member(self, c6, complete):
        ok, cert = ls_member(complete, _chips(c6, v1="3/2", v2="3/2"))
        assert not ok
        assert cert == {"member": False, "reason": "coefficients are not integers",
                        "min_sets": [], "uncovered": []}
