"""Acceptance gate: eight criteria, exact arithmetic unless stated.

Each criterion prints one PASS/FAIL line (visible with -s; the per-test
verdict in `pytest -v` mirrors it). Tolerances: everything is exact except
the quadratic pseudonorm comparisons, which allow 1e-9.
"""

import contextlib
import itertools
import json
import math
import random
from fractions import Fraction

from tropkit import (
    Divisor,
    GroundSpace,
    TropGeneratorSet,
    TropPoint,
    dumps_canonical,
    dv_b1,
    dv_dhar,
    dv_lin_equiv,
    dv_path,
    dv_rho,
    ls_bases,
    ls_member,
    ls_project,
    ls_reduced,
    mg_distance,
    mg_jfunction,
    mg_potential,
    mg_resistance,
    parse_workspace,
    serialize_workspace,
    tp_argext,
    tp_combine,
    tp_dist,
    tp_fixed_point,
    tp_independence,
    tp_member,
    tp_norm,
    tp_path,
    tp_project,
    tp_pseudonorm,
    tp_retract,
    tt_harmonize,
    tt_is_dominant,
    tt_is_tree,
    tt_morphism,
    tt_preimage,
)
from tropkit.cli import main as cli_main

from conftest import FIXTURES, equal_degree_pair, random_graph, random_point

SEED = 20260819


@contextlib.contextmanager
def criterion(n: int):
    try:
        yield
    except BaseException:
        print(f"CRITERION {n} FAIL")
        raise
    print(f"CRITERION {n} PASS")


def rand_vector(rng: random.Random, dim: int) -> TropPoint:
    return TropPoint.of(tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                              for _ in range(dim)))


def rand_space(rng: random.Random, dim: int) -> GroundSpace:
    return GroundSpace.of([f"x{i}" for i in range(dim)],
                          [Fraction(rng.randint(1, 5)) for _ in range(dim)])


def test_criterion_1_rectangle_projection(tp3):
    with criterion(1):
        space = tp3.need_space()
        gamma = TropPoint.of((0, 0, 0))

        lower = tp3.generator_set("rect", "lower")
        proj_low, cert_low = tp_project(lower, gamma, space)
        assert proj_low == TropPoint.of((0, 1, 0))
        assert len(cert_low["checks"]) == 4
        for check in cert_low["checks"]:
            assert check["b1_total"] == \
                check["b1_to_projection"] + check["b1_from_projection"]
            assert check["witness"]

        upper = tp3.generator_set("rect", "upper")
        proj_up, cert_up = tp_project(upper, gamma, space)
        assert proj_up == TropPoint.of((1, 1, 0))
        assert len(cert_up["checks"]) == 4

        assert tp_pseudonorm(tp3.point("A"), 1, "lower", space) == \
            Fraction(5, 3)


def test_criterion_2_projection_against_grid_oracle():
    rng = random.Random(SEED)
    with criterion(2):
        space = GroundSpace.of(["x0", "x1", "x2"], [Fraction(1, 3)] * 3)
        for _ in range(50):
            k = rng.randint(1, 3)
            gens_raw = [[rng.randint(-2, 2) for _ in range(3)]
                        for _ in range(k)]
            gamma_raw = [rng.randint(-2, 2) for _ in range(3)]
            gens = [TropPoint.of(g) for g in gens_raw]
            gamma = TropPoint.of(gamma_raw)
            S = TropGeneratorSet.of(gens, "lower")
            proj, _ = tp_project(S, gamma, space)

            # scaled-integer sweep of the hull: coefficients in [0, 4]
            # step 1/4 (scale everything by 4 and work over plain ints)
            gens4 = [[4 * v for v in g] for g in gens_raw]
            gamma4 = [4 * v for v in gamma_raw]
            best1 = None
            best_sq = None
            for cs in itertools.product(range(17), repeat=k):
                f = [min(g[x] + c for g, c in zip(gens4, cs)) - gamma4[x]
                     for x in range(3)]
                base = min(f)
                v1 = sum(f) - 3 * base
                sq = sum((v - base) ** 2 for v in f)
                if best1 is None or v1 < best1:
                    best1 = v1
                if best_sq is None or sq < best_sq:
                    best_sq = sq
            proj_b1 = tp_pseudonorm(proj.diff(gamma), 1, "lower", space)
            assert 12 * proj_b1 <= best1
            proj_b2 = tp_pseudonorm(proj.diff(gamma), 2, "lower", space)
            assert proj_b2 <= math.sqrt(best_sq / 48) + 1e-9


def test_criterion_3_circle_fixture(c6):
    with criterion(3):
        g = c6.need_graph()
        d1, d3 = c6.divisor("D1"), c6.divisor("D3")
        assert dv_rho(g, d1, d3) == 4
        assert dv_path(g, d1, d3, 2) == c6.divisor("D13")
        assert dv_b1(g, d3, d1) == 12

        v1 = g.vertex_point("v1")
        burned = dv_dhar(g, c6.divisor("D13"), v1)
        assert burned == d1
        complete = c6.system("complete")
        projected, _ = ls_project(complete, Divisor.of(g, [(v1, Fraction(3))]))
        assert burned == projected

        triangle = c6.system("triangle_mid")
        reduced, _ = ls_reduced(triangle, v1)
        assert reduced == c6.divisor("D0")

        bad = c6.system("triangle_bad")
        assert ls_member(bad, c6.divisor("D0"))[0] is True
        assert ls_member(bad, c6.divisor("D23"))[0] is False


def test_criterion_4_potential_theory(c6):
    rng = random.Random(SEED + 4)
    with criterion(4):
        g6 = c6.need_graph()
        assert mg_resistance(g6, g6.vertex_point("v1"),
                             g6.vertex_point("v3")) == Fraction(4, 3)

        def check_axioms(g, p, q, x):
            jq = mg_jfunction(g, q, p)
            jp = mg_jfunction(g, p, q)
            r = mg_resistance(g, p, q)
            assert jq.eval(q) == 0
            assert 0 <= jq.eval(x) <= jq.eval(p)
            assert jq.eval(x) == mg_jfunction(g, q, x).eval(p)
            assert jq.eval(x) + jp.eval(x) == r
            assert r == jq.eval(p) == jp.eval(q)
            assert r <= mg_distance(g, p, q)

        graphs = [g6] + [random_graph(rng) for _ in range(20)]
        for g in graphs:
            for _ in range(2):
                p, q, x = (random_point(rng, g) for _ in range(3))
                if p.key() == q.key():
                    q = g.vertex_point(g.vertices[0])
                    p = g.vertex_point(g.vertices[1])
                check_axioms(g, p, q, x)

        done = 0
        while done < 100:
            g = graphs[rng.randrange(len(graphs))]
            d1, d2 = equal_degree_pair(rng, g)
            assert mg_potential(g, d1, d2).divisor() == d2.sub(d1)
            done += 1


def test_criterion_5_tree_suite(c6):
    with criterion(5):
        triangle = c6.system("triangle_mid")
        ok, _ = tt_is_dominant(triangle)
        assert ok
        pre = tt_preimage(triangle, c6.divisor("D0")).finite_points()
        assert pre is not None and {str(p) for p in pre} == {"v1", "v2", "v3"}
        assert all(s.expansion == 1 for s in tt_morphism(triangle).sub_arcs)
        modification, _, degree = tt_harmonize(triangle)
        assert degree == 3
        assert len(modification.attachments) == 3

        bad = c6.system("triangle_bad")
        verdict, report = tt_is_tree(bad)
        assert verdict is False
        b1, b2 = report["bases"]
        assert not b1.union(b2).covers_graph()
        keys = {b.key() for b in ls_bases(bad, report["divisor"])}
        assert b1.key() in keys and b2.key() in keys

        seg = c6.system("seg_D1_D3")
        ok, _ = tt_is_dominant(seg)
        assert ok
        per_edge: dict[str, set[int]] = {}
        for s in tt_morphism(seg).sub_arcs:
            per_edge.setdefault(s.edge, set()).add(s.expansion)
        factors = sorted((max(v) for v in per_edge.values()), reverse=True)
        assert factors == [2, 2, 1, 1, 1, 1]
        seg_mod, _, seg_degree = tt_harmonize(seg)
        assert seg_degree == 3
        assert seg_mod.is_trivial


def test_criterion_6_gonality_witness(banana, capsys):
    with criterion(6):
        path = str(FIXTURES / "banana.json")
        assert banana.system("witness4").degree == 4
        assert banana.system("seg_E1_E3").degree == 3

        code = cli_main(["tree", "witness", "--graph", path,
                         "--system", "witness4", "--degree", "4"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["verified"] is True
        assert payload["stably_gonal"] == 4

        code = cli_main(["tree", "check", "--graph", path,
                         "--system", "seg_E1_E3"])
        capsys.readouterr()
        assert code == 0

        code = cli_main(["tree", "dominant", "--graph", path,
                         "--system", "seg_E1_E3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["reason"] == "support misses component banana-2"
        gap_edges = {gap["edge"] for comp in payload["uncovered"]
                     for gap in comp["gaps"]}
        assert all(e.startswith("banana-2-") for e in gap_edges)
        assert len(gap_edges) == 6


def test_criterion_7_property_suites():
    rng = random.Random(SEED + 7)
    with criterion(7):
        cases = 200

        # pseudonorm identities (1), (4), (5), (6)
        for _ in range(cases):
            dim = rng.randint(2, 4)
            a = rand_vector(rng, dim)
            space = rand_space(rng, dim)
            for p in (1, "inf"):
                assert tp_pseudonorm(a, p, "upper", space) == \
                    tp_pseudonorm(a.negate(), p, "lower", space)
            mu = space.total_mass
            assert tp_pseudonorm(a, 1, "lower", space) + \
                tp_pseudonorm(a, 1, "upper", space) == mu * tp_norm(a)
            m1 = float(tp_pseudonorm(a, 1, "lower", space)) / float(mu)
            m2 = tp_pseudonorm(a, 2, "lower", space) / math.sqrt(float(mu))
            minf = float(tp_pseudonorm(a, "inf", "lower", space))
            assert m1 <= m2 + 1e-9 and m2 <= minf + 1e-9
            assert tp_pseudonorm(a, "inf", "lower", space) == tp_norm(a)
            assert tp_pseudonorm(a, "inf", "upper", space) == tp_norm(a)

        # triangle equality condition for the tropical norm
        for _ in range(cases):
            dim = rng.randint(2, 4)
            a, b = rand_vector(rng, dim), rand_vector(rng, dim)
            additive = tp_norm(a.add(b)) == tp_norm(a) + tp_norm(b)
            meets = bool(tp_argext(a, "min") & tp_argext(b, "min")) and \
                bool(tp_argext(a, "max") & tp_argext(b, "max"))
            assert additive == meets

        # segment isometry and reversal
        for _ in range(cases):
            dim = rng.randint(2, 4)
            a, b = rand_vector(rng, dim), rand_vector(rng, dim)
            rho = tp_dist(a, b)
            t1 = rho * Fraction(rng.randint(0, 8), 8)
            t2 = rho * Fraction(rng.randint(0, 8), 8)
            assert tp_dist(tp_path(a, b, t1), tp_path(a, b, t2)) == \
                abs(t1 - t2)
            assert tp_path(a, b, t1) == tp_path(b, a, rho - t1)

        # three-point segment criterion
        for i in range(cases):
            dim = rng.randint(2, 4)
            a, b = rand_vector(rng, dim), rand_vector(rng, dim)
            if i % 2:
                c = tp_path(a, b, tp_dist(a, b) *
                            Fraction(rng.randint(0, 8), 8))
            else:
                c = rand_vector(rng, dim)
            covers = (tp_argext(a.diff(c), "min") |
                      tp_argext(b.diff(c), "min")) == frozenset(range(dim))
            t = tp_dist(a, c)
            on_seg = t <= tp_dist(a, b) and tp_path(a, b, t) == c
            assert covers == on_seg

        # projection identity, nonexpansiveness, nesting
        for _ in range(cases):
            dim = rng.randint(2, 4)
            k = rng.randint(1, 4)
            gens = [rand_vector(rng, dim) for _ in range(k)]
            S = TropGeneratorSet.of(gens, "lower")
            member = tp_combine(gens, [Fraction(rng.randint(-4, 4))
                                       for _ in gens], "lower")
            assert tp_project(S, member)[0] == member
            g1, g2 = rand_vector(rng, dim), rand_vector(rng, dim)
            p1, _ = tp_project(S, g1)
            p2, _ = tp_project(S, g2)
            assert tp_dist(p1, p2) <= tp_dist(g1, g2)
            sub = TropGeneratorSet.of(gens[:rng.randint(1, k)], "lower")
            assert tp_project(sub, g1)[0] == tp_project(sub, p1)[0]

        # upper-lower duality
        for _ in range(cases):
            dim = rng.randint(2, 4)
            gens = [rand_vector(rng, dim) for _ in range(rng.randint(1, 4))]
            gamma = rand_vector(rng, dim)
            low, _ = tp_project(TropGeneratorSet.of(gens, "lower"), gamma)
            up, _ = tp_project(TropGeneratorSet.of(
                [p.negate() for p in gens], "upper"), gamma.negate())
            assert up == low.negate()

        # a combination of two families lies on the segment between
        # its projections onto the two sub-hulls
        for _ in range(cases):
            dim = rng.randint(2, 4)
            gens1 = [rand_vector(rng, dim) for _ in range(rng.randint(1, 3))]
            gens2 = [rand_vector(rng, dim) for _ in range(rng.randint(1, 3))]
            union = gens1 + gens2
            gamma = tp_combine(union, [Fraction(rng.randint(-4, 4))
                                       for _ in union], "lower")
            p1, _ = tp_project(TropGeneratorSet.of(gens1, "lower"), gamma)
            p2, _ = tp_project(TropGeneratorSet.of(gens2, "lower"), gamma)
            t = tp_dist(p1, gamma)
            assert t <= tp_dist(p1, p2)
            assert tp_path(p1, p2, t) == gamma

        # fixed point stabilizes within one bounce in each hull
        for _ in range(cases):
            dim = rng.randint(2, 4)
            low = TropGeneratorSet.of(
                [rand_vector(rng, dim) for _ in range(rng.randint(1, 3))],
                "lower")
            up_gens = [rand_vector(rng, dim)
                       for _ in range(rng.randint(1, 3))]
            up = TropGeneratorSet.of(up_gens, "upper")
            gamma = tp_combine(up_gens, [Fraction(rng.randint(-4, 4))
                                         for _ in up_gens], "upper")
            result = tp_fixed_point(low, up, gamma)
            assert tp_member(low, result["lower"])[0]
            assert tp_member(up, result["upper"])[0]

        # retraction endpoint contract and 2-Lipschitz bound
        for _ in range(cases):
            dim = rng.randint(2, 4)
            gens = [rand_vector(rng, dim) for _ in range(rng.randint(1, 3))]
            S = TropGeneratorSet.of(gens, "lower")
            g1, g2 = rand_vector(rng, dim), rand_vector(rng, dim)
            assert tp_retract(S, g1, 0) == g1
            assert tp_retract(S, g1, 1) == tp_project(S, g1)[0]
            t = Fraction(rng.randint(0, 8), 8)
            moved = tp_dist(tp_retract(S, g1, t), tp_retract(S, g2, t))
            assert moved <= 2 * tp_dist(g1, g2)

        # dependence certificates, re-verified by direct tie counting
        dependents = 0
        for i in range(cases):
            dim = rng.randint(2, 3)
            k = dim + 1 if i % 2 else rng.randint(2, dim)
            gens = [TropPoint.of(tuple(Fraction(rng.randint(-2, 2))
                                       for _ in range(dim)))
                    for _ in range(k)]
            S = TropGeneratorSet.of(gens, "lower")
            result = tp_independence(S, "tropical")
            if result["status"] == "dependent":
                dependents += 1
                pts = list(S.points)
                cs = [Fraction(c) for c in result["certificate"]["coefficients"]]
                assert len(cs) == len(pts)
                for x in range(dim):
                    vals = [c + p.coords[x] for c, p in zip(cs, pts)]
                    m = min(vals)
                    assert sum(1 for v in vals if v == m) >= 2
            else:
                assert result["status"] == "independent"
                assert len(set(S.points)) <= dim
        assert dependents >= 50


def test_criterion_8_cli_round_trip(c6, banana, tp3, capsys):
    with criterion(8):
        for ws in (c6, banana, tp3):
            first = serialize_workspace(ws)
            again = serialize_workspace(parse_workspace(first, "round-trip"))
            assert dumps_canonical(first) == dumps_canonical(again)

        def run(argv):
            code = cli_main(argv)
            return code, capsys.readouterr().out

        for argv in (
                ["graph", "validate", str(FIXTURES / "c6.json")],
                ["graph", "validate", str(FIXTURES / "banana.json")],
                ["tp", "member", "--space", str(FIXTURES / "tp3.json"),
                 "--generators", "rect", "--point", "B"],
        ):
            assert run(argv) == run(argv)

        code, out = run(["sys", "reduced",
                         "--graph", str(FIXTURES / "c6.json"),
                         "--system", "triangle_mid",
                         "--at", '{"vertex":"v1"}'])
        assert code == 0
        assert json.loads(out)["reduced"] == [
            [{"vertex": "v1"}, "1"], [{"vertex": "v2"}, "1"],
            [{"vertex": "v3"}, "1"]]

        code, out = run(["tree", "dominant",
                         "--graph", str(FIXTURES / "banana.json"),
                         "--system", "seg_E1_E3"])
        assert code == 1
        assert json.loads(out)["reason"] == \
            "support misses component banana-2"

        code, out = run(["tp", "project",
                         "--space", str(FIXTURES / "tp3.json"),
                         "--generators", "rect",
                         "--point", '["0","0","0"]', "--mode", "lower"])
        assert code == 0
        assert json.loads(out)["projection"] == ["0", "1", "0"]
