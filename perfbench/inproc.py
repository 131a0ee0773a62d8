"""The three in-process workloads: tree_pipeline, grid_potential, tropical_hull.

Each workload builds a fixed pool of seeded inputs with public
constructors and parsers, then serves it as rounds of tasks.  A task is a
chain of timed public-API calls made through ``rec.op``; its output
checks run between those calls, outside the timed region.  Rounds cycle
through the pool, and the task order inside a round is shuffled by a
generator seeded from the workload seed and the round number, so a replay
of the same seed runs the same calls in the same order.

Every library call goes through the ``tk`` module attribute at call time,
so wrappers installed by the tracer are seen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import tropkit as tk


def _round_order(tasks: list, name: str, seed: int, index: int) -> list:
    random.Random(f"{name}:{seed}:round{index}").shuffle(tasks)
    return tasks


def _random_point(rng: random.Random, graph, interior: bool):
    if not interior:
        return graph.vertex_point(rng.choice(graph.vertices))
    e = rng.choice(graph.edges)
    return graph.point(edge=e.id, offset=e.length * Fraction(rng.randint(1, 3), 4))


def _samples(graph) -> list:
    """Every vertex and every edge midpoint."""
    return [graph.vertex_point(v) for v in graph.vertices] + \
        [graph.point(edge=e.id, offset=e.length / 2) for e in graph.edges]


# ---------------------------------------------------------------------------
# tree_pipeline


@dataclass
class SystemSpec:
    label: str
    graph: object
    samples: list
    generators: list | None = None        # fixture generators
    divisor: object = None                 # generated: dv_dhar(divisor, q)
    points: tuple = ()                     # ... for each q in points
    expected: tuple | None = None          # (tree, dominant) verdicts
    burning_oracle: bool = False           # ls_reduced must equal dv_dhar


class TreePipeline:
    """Fresh linear systems through the tree chain and ls_reduced sweeps.

    Each round runs the five fixture systems and GENERATED seeded systems
    whose generators are dv_dhar(D, q_i) on small random graphs of genus
    3, with D of degree 4 (genus + 1, so the generators differ).
    """

    GENERATED = 4
    POOL_ROUNDS = 8
    VERTICES, EDGES, DEGREE, GENERATORS = 5, 7, 4, 4
    # (fixture, system) -> (tree, dominant), as the library reports them
    FIXTURES = {
        ("banana", "witness4"): (True, True),
        ("banana", "seg_E1_E3"): (True, False),
        ("c6", "complete"): (False, False),
        ("c6", "triangle_mid"): (True, True),
        ("c6", "triangle_bad"): (False, False),
    }

    def __init__(self, seed: int, root):
        self.seed = seed
        spaces = {name: tk.load_workspace(str(root / "tests" / "fixtures" / f"{name}.json"))
                  for name in ("banana", "c6")}
        self.fixed = []
        for (fixture, system), verdict in self.FIXTURES.items():
            ws = spaces[fixture]
            graph = ws.need_graph()
            # generators come from the parsed divisors, never from
            # Workspace.system, which caches systems and their results
            self.fixed.append(SystemSpec(
                label=f"{fixture}.{system}", graph=graph, samples=_samples(graph),
                generators=[ws.divisor(d) for d in ws.systems[system]],
                expected=verdict, burning_oracle=(system == "complete")))
        rng = random.Random(f"tree_pipeline:{seed}")
        self.pool = [[self._generated(rng, f"gen{r}.{i}") for i in range(self.GENERATED)]
                     for r in range(self.POOL_ROUNDS)]

    def _generated(self, rng: random.Random, label: str) -> SystemSpec:
        names = [f"v{i}" for i in range(self.VERTICES)]
        edges = []
        for i in range(1, self.VERTICES):
            edges.append((f"e{len(edges)}", names[rng.randrange(i)], names[i]))
        while len(edges) < self.EDGES:
            a, b = rng.sample(names, 2)
            edges.append((f"e{len(edges)}", a, b))
        graph = tk.MetricGraph.of(names, [
            (eid, a, b, Fraction(rng.randint(1, 4), rng.choice([1, 1, 2, 3])))
            for eid, a, b in edges])
        divisor = tk.Divisor.of(graph, [(_random_point(rng, graph, rng.random() < 0.5), 1)
                                        for _ in range(self.DEGREE)])
        points = tuple(_random_point(rng, graph, rng.random() < 0.5)
                       for _ in range(self.GENERATORS))
        return SystemSpec(label=label, graph=graph, samples=_samples(graph),
                          divisor=divisor, points=points)

    def round(self, index: int) -> list:
        specs = self.fixed + self.pool[index % self.POOL_ROUNDS]
        return _round_order([lambda rec, s=s: self._chain(rec, s) for s in specs],
                            "tree_pipeline", self.seed, index)

    @staticmethod
    def _chain(rec, spec: SystemSpec) -> None:
        graph = spec.graph
        if spec.generators is not None:
            gens = spec.generators
        else:
            gens = [rec.op("dv_dhar", spec.label, tk.dv_dhar, graph, spec.divisor, q)
                    for q in spec.points]
        system_label = f"{spec.label}#{rec.tasks}"
        S = rec.op("LinearSystem", spec.label, tk.LinearSystem, graph, gens)
        tree, _ = rec.op("tt_is_tree", system_label, tk.tt_is_tree, S)
        dominant, _ = rec.op("tt_is_dominant", system_label, tk.tt_is_dominant, S)
        if spec.expected is not None:
            rec.check((tree, dominant) == spec.expected,
                      f"{spec.label}: tree/dominant {(tree, dominant)}, "
                      f"expected {spec.expected}")
        degree = int(S.degree)
        if dominant:
            rec.op("tt_morphism", system_label, tk.tt_morphism, S)
            _, _, harmonic = rec.op("tt_harmonize", system_label, tk.tt_harmonize, S)
            rec.check(harmonic == degree,
                      f"{spec.label}: harmonic degree {harmonic} != {degree}")
        verified, _ = rec.op("tt_verify_witness", system_label, tk.tt_verify_witness,
                             S, degree)
        rec.check(verified == dominant,
                  f"{spec.label}: witness verdict {verified} at degree {degree}")
        rec.note_property("dominant_systems" if dominant else
                          "tree_systems" if tree else "non_tree_systems")
        for q in spec.samples:
            reduced, _ = rec.op("ls_reduced", system_label, tk.ls_reduced, S, q)
            rec.check(reduced.is_effective() and reduced.is_integral()
                      and reduced.degree() == S.degree,
                      f"{spec.label}: ls_reduced at {q} is not a member-sized divisor")
            if spec.burning_oracle:
                rec.check(reduced == tk.dv_dhar(graph, gens[0], q),
                          f"{spec.label}: ls_reduced at {q} differs from dv_dhar")

    def properties(self) -> dict:
        generated = [s for r in self.pool for s in r]
        return {
            "fixture_systems": [s.label for s in self.fixed],
            "generated_systems": len(generated),
            "generated_per_round": self.GENERATED,
            "generated_graph": {"vertices": self.VERTICES, "edges": self.EDGES,
                                "genus": self.EDGES - self.VERTICES + 1},
            "generated_degree": self.DEGREE,
            "generators_per_system": self.GENERATORS,
            "samples_per_system": sorted({len(s.samples) for s in self.fixed + generated}),
        }


# ---------------------------------------------------------------------------
# grid_potential


@dataclass
class GridSpec:
    label: str
    size: int
    graph: object
    v: object        # vertex
    w: object        # another vertex
    x: object        # interior point
    divisor: object  # effective, degree = genus
    sinks: tuple     # burning points: one vertex, one interior point


class GridPotential:
    """Resistance, j-functions, burning and equivalence on k x k grids.

    Every round visits one seeded grid of each size in SIZES (edge lengths
    p/q with p in 1..4, q in 1..3) and runs eleven ops on it, so each
    graph serves several calls.  The burned divisor has degree equal to
    the genus, about half of its points interior.
    """

    SIZES = (3, 4, 5)
    POOL_ROUNDS = 48

    def __init__(self, seed: int, root):
        self.seed = seed
        rng = random.Random(f"grid_potential:{seed}")
        self.pool = [[self._grid(rng, k, f"grid{r}.{k}") for k in self.SIZES]
                     for r in range(self.POOL_ROUNDS)]

    @staticmethod
    def _grid(rng: random.Random, k: int, label: str) -> GridSpec:
        names = [f"r{i}c{j}" for i in range(k) for j in range(k)]
        edges = []
        for i in range(k):
            for j in range(k):
                if j + 1 < k:
                    edges.append((f"h{i}.{j}", f"r{i}c{j}", f"r{i}c{j + 1}"))
                if i + 1 < k:
                    edges.append((f"v{i}.{j}", f"r{i}c{j}", f"r{i + 1}c{j}"))
        graph = tk.MetricGraph.of(names, [
            (eid, a, b, Fraction(rng.randint(1, 4), rng.randint(1, 3)))
            for eid, a, b in edges])
        v, w = (graph.vertex_point(n) for n in rng.sample(names, 2))
        divisor = tk.Divisor.of(graph, [(_random_point(rng, graph, rng.random() < 0.5), 1)
                                        for _ in range(graph.genus)])
        return GridSpec(label=label, size=k, graph=graph, v=v, w=w,
                        x=_random_point(rng, graph, True), divisor=divisor,
                        sinks=(_random_point(rng, graph, False),
                               _random_point(rng, graph, True)))

    def round(self, index: int) -> list:
        specs = self.pool[index % self.POOL_ROUNDS]
        return _round_order([lambda rec, s=s: self._ops(rec, s) for s in specs],
                            "grid_potential", self.seed, index)

    def _ops(self, rec, spec: GridSpec) -> None:
        g, label = spec.graph, spec.label
        resistance = {}
        for a, b in ((spec.v, spec.w), (spec.v, spec.x), (spec.w, spec.x)):
            resistance[a, b] = rec.op("mg_resistance", label, tk.mg_resistance, g, a, b)
            resistance[b, a] = rec.op("mg_resistance", label, tk.mg_resistance, g, b, a)
            rec.check(resistance[a, b] == resistance[b, a],
                      f"{label}: R({a},{b}) != R({b},{a})")
        j = rec.op("mg_jfunction", label, tk.mg_jfunction, g, spec.v, spec.x)
        rec.check(j.eval(spec.v) == 0 and j.eval(spec.x) == resistance[spec.x, spec.v],
                  f"{label}: j-function disagrees with the resistance")
        for i, q in enumerate(spec.sinks):
            reduced, steps = rec.op("dv_dhar_trace", label, tk.dv_dhar_trace,
                                    g, spec.divisor, q)
            rec.note_property("dhar_traces")
            rec.note_property("dhar_rounds", len(steps))
            consumed, _ = tk.dv_dhar_certificate(g, reduced, q)
            rec.check(consumed, f"{label}: burning certificate rejects the reduced divisor")
            if i:
                # timed once per grid, so that the heaviest solves stay
                # under a tenth of the ops; the other result is checked here
                rec.check(tk.dv_lin_equiv(g, spec.divisor, reduced),
                          f"{label}: reduced divisor not equivalent to its input")
                continue
            rec.check(rec.op("dv_lin_equiv", label, tk.dv_lin_equiv,
                             g, spec.divisor, reduced),
                      f"{label}: reduced divisor not equivalent to its input")
            rho = rec.op("dv_rho", label, tk.dv_rho, g, spec.divisor, reduced)
            rec.check(rho >= 0 and (rho == 0) == (reduced == spec.divisor),
                      f"{label}: rho {rho} inconsistent with the reduced divisor")
        if spec.size == self.SIZES[0]:
            # Foster: sum over edges of R(tail, head) / length = |V| - 1
            total = sum(tk.mg_resistance(g, g.vertex_point(e.tail),
                                         g.vertex_point(e.head)) / e.length
                        for e in g.edges)
            rec.check(total == len(g.vertices) - 1,
                      f"{label}: Foster sum {total} != {len(g.vertices) - 1}")

    def properties(self) -> dict:
        specs = [s for r in self.pool for s in r]
        return {
            "grid_sizes": list(self.SIZES),
            "grids": len(specs),
            "divisor_degrees": {k: specs[i].graph.genus for i, k in enumerate(self.SIZES)},
            "divisor_interior_points": sum(
                1 for s in specs for p in s.divisor.support() if not p.is_vertex),
            "divisor_support_points": sum(len(s.divisor.support()) for s in specs),
        }


# ---------------------------------------------------------------------------
# tropical_hull


ROADMAP_INSTANCE = ((4, 8, 3, 3, 7), (8, 8, 7, 6, 2), (3, 2, 8, 6, 0), (1, 2, 9, 0, 4))


def _combine(points, coeffs, mode: str) -> list:
    op = min if mode == "lower" else max
    return [op(p.coords[k] + c for p, c in zip(points, coeffs))
            for k in range(points[0].dim)]


def _recheck(S, verdict: dict) -> bool:
    """Re-verify a dependence certificate from its definition."""
    pts = list(S.points)
    cert = verdict["certificate"]
    if verdict["kind"] == "weak":
        # upper-mode coefficients act on the maximum-zero representatives,
        # the negation dual of the lower mode's minimum-zero ones
        i = cert["redundant_index"]
        rest = [p.coords if S.mode == "lower" else p.max_normalized()
                for p in pts[:i] + pts[i + 1:]]
        op = min if S.mode == "lower" else max
        combined = [op(c + v[k] for c, v in zip(cert["coefficients"], rest))
                    for k in range(S.dim)]
        return tk.TropPoint.of(combined) == pts[i]
    if verdict["kind"] == "gondran_minoux":
        point = tk.TropPoint.of([Fraction(c) for c in cert["common_point"]])
        return all(tk.tp_member(tk.TropGeneratorSet.of([pts[i] for i in side], S.mode),
                                point)[0]
                   for side in cert["partition"])
    cs = [Fraction(c) for c in cert["coefficients"]]
    vecs = [p.coords if S.mode == "lower" else p.negate().coords for p in pts]
    for x in range(S.dim):
        vals = [c + v[x] for c, v in zip(cs, vecs)]
        if vals.count(min(vals)) < 2:
            return False
    return True


class TropicalHull:
    """Projection, membership, extremals and independence; no graph code.

    Per round: one hull of HULL_GENERATORS random rational generators at
    each dim in DIMS (the smaller ones also get a planted redundant
    generator, for extremals and weak independence); Gondran-Minoux and
    tropical independence on one integer family (entries 0..5) of every
    shape in FAMILY_SHAPES; and the ROADMAP instance in lower mode.
    """

    DIMS = (16, 64, 256)
    SMALL_DIMS = (16, 64)
    HULL_GENERATORS = 8
    FAMILY_SHAPES = tuple((n, d) for n in range(2, 6) for d in range(2, 6))
    # the tie-pattern search costs about 2 s per 5-point family in dim 5
    TROPICAL_SHAPES = tuple(s for s in FAMILY_SHAPES if s != (5, 5))
    POOL_ROUNDS = 12

    def __init__(self, seed: int, root):
        self.seed = seed
        rng = random.Random(f"tropical_hull:{seed}")
        self.pool = [self._round_inputs(rng, r) for r in range(self.POOL_ROUNDS)]
        self.fixed = tk.TropGeneratorSet.of([list(p) for p in ROADMAP_INSTANCE], "lower")

    def _round_inputs(self, rng: random.Random, r: int) -> dict:
        hulls = []
        for dim in self.DIMS:
            mode = rng.choice(["lower", "upper"])
            base = [tk.TropPoint.of([Fraction(rng.randint(0, 40), rng.randint(1, 4))
                                     for _ in range(dim)])
                    for _ in range(self.HULL_GENERATORS)]
            planted = None
            points = list(base)
            if dim in self.SMALL_DIMS:
                # shifting the second generator by the median gap makes
                # each one win on about half the coordinates
                a, b = rng.sample(base, 2)
                shift = sorted(x - y for x, y in zip(a.coords, b.coords))[dim // 2]
                planted = tk.TropPoint.of(_combine([a, b], [0, shift], mode))
                points.insert(rng.randrange(len(points) + 1), planted)
            gamma = tk.TropPoint.of([Fraction(rng.randint(0, 40), rng.randint(1, 4))
                                     for _ in range(dim)])
            hulls.append((f"hull{r}.{dim}", tk.TropGeneratorSet.of(points, mode),
                          gamma, planted))
        families = {}
        for n, d in self.FAMILY_SHAPES:
            families[(n, d)] = tk.TropGeneratorSet.of(
                [[rng.randint(0, 5) for _ in range(d)] for _ in range(n)],
                rng.choice(["lower", "upper"]))
        return {"hulls": hulls, "families": families}

    def round(self, index: int) -> list:
        inputs = self.pool[index % self.POOL_ROUNDS]
        tasks = [lambda rec, h=h: self._hull(rec, *h) for h in inputs["hulls"]]
        for kind, shapes in (("gondran_minoux", self.FAMILY_SHAPES),
                             ("tropical", self.TROPICAL_SHAPES)):
            for shape in shapes:
                S = inputs["families"][shape]
                label = f"family{index % self.POOL_ROUNDS}.{shape[0]}x{shape[1]}"
                tasks.append(lambda rec, S=S, k=kind, lb=label: self._independence(rec, lb, S, k))
        for kind in ("weak", "gondran_minoux", "tropical"):
            tasks.append(lambda rec, k=kind: self._independence(rec, "roadmap", self.fixed, k))
        return _round_order(tasks, "tropical_hull", self.seed, index)

    @staticmethod
    def _hull(rec, label, S, gamma, planted) -> None:
        projection, _ = rec.op("tp_project", label, tk.tp_project, S, gamma)
        inside, _ = rec.op("tp_member", label, tk.tp_member, S, projection)
        rec.check(inside, f"{label}: projection is not a hull member")
        again, _ = tk.tp_project(S, projection)
        rec.check(again == projection, f"{label}: projection is not idempotent")
        member, _ = rec.op("tp_member", label, tk.tp_member, S, gamma)
        rec.note_property("random_points_inside" if member else "random_points_outside")
        if planted is None:
            return
        kept = rec.op("tp_extremals", label, tk.tp_extremals, S)
        rec.check(planted not in kept.points
                  and all(tk.tp_member(kept, p)[0] for p in S.points),
                  f"{label}: extremals keep the planted point or lose the hull")
        verdict = rec.op("tp_independence", label, tk.tp_independence, S, "weak")
        rec.check(verdict["status"] == "dependent" and _recheck(S, verdict),
                  f"{label}: weak independence missed the planted point")

    @staticmethod
    def _independence(rec, label, S, kind) -> None:
        verdict = rec.op(f"tp_independence.{kind}", label, tk.tp_independence, S, kind)
        status = verdict["status"]
        rec.note_property(f"{kind}.{status}")
        if status == "undecided":
            rec.undecided()
        elif status == "dependent":
            rec.check(_recheck(S, verdict),
                      f"{label}: {kind} dependence certificate does not re-check")

    def properties(self) -> dict:
        sizes = {}
        for r in self.pool:
            for (n, d), S in r["families"].items():
                key = f"{n}x{d}"
                sizes.setdefault(key, []).append(len(S.points))
        return {
            "hull_dims": list(self.DIMS),
            "hull_generators": self.HULL_GENERATORS,
            "planted_redundant_at_dims": list(self.SMALL_DIMS),
            "family_shapes_points_x_dim": [f"{n}x{d}" for n, d in self.FAMILY_SHAPES],
            "tropical_kind_shapes": [f"{n}x{d}" for n, d in self.TROPICAL_SHAPES],
            "family_points_after_dedup_mean": {
                k: round(sum(v) / len(v), 3) for k, v in sizes.items()},
            "roadmap_instance": [list(p) for p in ROADMAP_INSTANCE],
        }


WORKLOADS = {
    "tree_pipeline": TreePipeline,
    "grid_potential": GridPotential,
    "tropical_hull": TropicalHull,
}
