"""Projective classes, pseudonorms, segments, hulls and projections."""

import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tropkit import (
    CertificateError,
    GroundSpace,
    InputError,
    TropGeneratorSet,
    TropPoint,
    tp_argext,
    tp_combine,
    tp_dist,
    tp_extremals,
    tp_fixed_point,
    tp_independence,
    tp_member,
    tp_norm,
    tp_path,
    tp_project,
    tp_pseudonorm,
    tp_retract,
)
from tropkit import tropical

import hull_oracle
import independence_oracle

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
unit_fracs = st.fractions(min_value=0, max_value=1, max_denominator=8)


def vector(dim: int):
    return st.lists(fracs, min_size=dim, max_size=dim).map(tuple)


@st.composite
def point_family(draw, count: int, dim_min: int = 2, dim_max: int = 4):
    dim = draw(st.integers(dim_min, dim_max))
    return [TropPoint.of(draw(vector(dim))) for _ in range(count)]


@st.composite
def hull_instance(draw, max_gens: int = 4, extra_points: int = 1):
    dim = draw(st.integers(2, 4))
    k = draw(st.integers(1, max_gens))
    gens = [TropPoint.of(draw(vector(dim))) for _ in range(k)]
    extras = [TropPoint.of(draw(vector(dim))) for _ in range(extra_points)]
    return gens, extras


@st.composite
def hull_with_member(draw, max_gens: int = 4):
    gens, _ = draw(hull_instance(max_gens, extra_points=0))
    coeffs = [draw(fracs) for _ in gens]
    return gens, tp_combine(gens, coeffs, "lower")


@st.composite
def integer_family(draw, max_points: int = 4, max_dim: int = 4, top: int = 5,
                   modes=("lower", "upper")):
    """Two to max_points generators with entries 0..top, in a drawn mode."""
    dim = draw(st.integers(2, max_dim))
    rows = draw(st.lists(st.lists(st.integers(0, top), min_size=dim, max_size=dim),
                         min_size=2, max_size=max_points))
    return TropGeneratorSet.of(rows, draw(st.sampled_from(modes)))


def upper_rebuild(S: TropGeneratorSet, coeffs) -> TropPoint:
    """max_i (c_i + g_i) over the maximum-zero representatives of S."""
    reps = [p.max_normalized() for p in S.points]
    return TropPoint.of([max(c + r[k] for c, r in zip(coeffs, reps))
                         for k in range(S.dim)])


def weighted_space(dim: int, seedlist) -> GroundSpace:
    weights = [Fraction(w) for w in seedlist[:dim]]
    return GroundSpace.of([f"x{i}" for i in range(dim)], weights)


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
huge_rationals = st.builds(Fraction, st.integers(-10 ** 400, 10 ** 400), st.integers(1, 5))
huge_weights = st.builds(Fraction, st.integers(1, 10 ** 400), st.integers(1, 10 ** 400))


@st.composite
def oracle_case(draw):
    """A hull in a drawn mode: one to five generators (repeats allowed) in
    dimension 1 to 8 with denominators 1 to 5, a point that is a
    combination of them half the time, and the default space or a weighted
    one."""
    dim = draw(st.integers(1, 8))
    mode = draw(st.sampled_from(("lower", "upper")))
    rows = st.lists(small_rationals, min_size=dim, max_size=dim)
    gens = [TropPoint.of(draw(rows)) for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        coeffs = draw(st.lists(small_rationals, min_size=len(gens), max_size=len(gens)))
        gamma = tp_combine(gens, coeffs, mode)
    else:
        gamma = TropPoint.of(draw(rows))
    space = None
    if draw(st.booleans()):
        weights = st.builds(Fraction, st.integers(1, 6), st.integers(1, 5))
        space = weighted_space(dim, draw(st.lists(weights, min_size=dim, max_size=dim)))
    return TropGeneratorSet(tuple(gens), mode), gamma, space


class TestCanonicalForm:
    def test_minimum_zero_representative(self):
        p = TropPoint.of((3, 7, 5))
        assert p.coords == (Fraction(0), Fraction(4), Fraction(2))

    @given(point_family(1))
    def test_constant_shift_is_identified(self, fam):
        (p,) = fam
        shifted = TropPoint.of(tuple(c + 7 for c in p.coords))
        assert shifted == p
        assert hash(shifted) == hash(p)

    @given(point_family(2))
    def test_diff_add_inverse(self, fam):
        a, b = fam
        assert a.diff(b).add(b) == a
        assert a.negate().negate() == a

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(InputError):
            TropPoint.of(())
        with pytest.raises(InputError):
            tp_dist(TropPoint.of((0, 1)), TropPoint.of((0, 1, 2)))


class TestNormsAndPseudonorms:
    def test_reference_values(self):
        space = GroundSpace.of(["e1", "e2", "e3"],
                               [Fraction(1, 3)] * 3)
        a = TropPoint.of((-1, 3, 0))
        assert tp_norm(a) == 4
        assert tp_pseudonorm(a, 1, "lower", space) == Fraction(5, 3)
        assert tp_pseudonorm(a, 1, "upper", space) == Fraction(7, 3)
        assert tp_pseudonorm(a, "inf", "lower", space) == 4

    @pytest.mark.parametrize("p", [True, 1.0, 2.0])
    def test_bool_and_float_p_are_refused(self, p):
        """True passed as the 1-pseudonorm and 2.0 as the float p=2 value;
        math.inf, the one float that names a p, still passes."""
        a = TropPoint.of((-1, 3, 0))
        with pytest.raises(InputError) as err:
            tp_pseudonorm(a, p)
        assert str(err.value) == f"p must be 1, 2 or 'inf', got {p!r}"
        assert tp_pseudonorm(a, math.inf) == 4

    @given(point_family(1), st.lists(st.integers(1, 5), min_size=4, max_size=4))
    def test_upper_equals_lower_of_negation(self, fam, wseed):
        (p,) = fam
        space = weighted_space(p.dim, wseed)
        for q in (1, 2, "inf"):
            assert tp_pseudonorm(p, q, "upper", space) == \
                tp_pseudonorm(p.negate(), q, "lower", space)

    @given(point_family(1), st.lists(st.integers(1, 5), min_size=4, max_size=4))
    def test_linear_split_of_the_norm(self, fam, wseed):
        (p,) = fam
        space = weighted_space(p.dim, wseed)
        low = tp_pseudonorm(p, 1, "lower", space)
        up = tp_pseudonorm(p, 1, "upper", space)
        assert low + up == space.total_mass * tp_norm(p)

    @given(point_family(1), st.lists(st.integers(1, 5), min_size=4, max_size=4))
    def test_mean_chain_is_monotone(self, fam, wseed):
        (p,) = fam
        space = weighted_space(p.dim, wseed)
        mu = float(space.total_mass)
        m1 = float(tp_pseudonorm(p, 1, "lower", space)) / mu
        m2 = tp_pseudonorm(p, 2, "lower", space) / math.sqrt(mu)
        minf = float(tp_pseudonorm(p, "inf", "lower", space))
        assert m1 <= m2 + 1e-9
        assert m2 <= minf + 1e-9

    @pytest.mark.thorough
    @given(st.integers(2, 5).flatmap(lambda dim: st.tuples(
        st.lists(huge_rationals, min_size=dim, max_size=dim),
        st.lists(huge_weights, min_size=dim, max_size=dim))),
        st.sampled_from(("lower", "upper")))
    @example(([0, 10 ** 155, 0], [Fraction(1, 3)] * 3), "lower")
    @example(([10 ** 100, 0], [10 ** 300, 1]), "lower")
    @example(([1, 0], [Fraction(1, 10 ** 400), 1]), "lower")
    def test_quadratic_value_is_finite_or_an_output_error(self, case, mode):
        # a class that is not zero has a positive value, so a float that
        # rounds it to 0 is as much an output error as one that overflows
        coords, weights = case
        p = TropPoint.of(coords)
        space = weighted_space(p.dim, weights)
        vec = p.coords if mode == "lower" else tuple(-v for v in p.max_normalized())
        try:
            expected = math.sqrt(sum(float(w) * float(v) ** 2 for w, v in zip(weights, vec)))
        except OverflowError:
            expected = math.inf
        if expected == math.inf or expected == 0 and any(vec):
            with pytest.raises(InputError) as err:
                tp_pseudonorm(p, 2, mode, space)
            assert err.value.location == "output"
        else:
            assert tp_pseudonorm(p, 2, mode, space) == expected

    @given(point_family(1))
    def test_sup_pseudonorm_is_the_norm(self, fam):
        (p,) = fam
        space = GroundSpace.of([f"x{i}" for i in range(p.dim)])
        assert tp_pseudonorm(p, "inf", "lower", space) == tp_norm(p)
        assert tp_pseudonorm(p, "inf", "upper", space) == tp_norm(p)

    @given(point_family(2))
    def test_triangle_equality_condition(self, fam):
        a, b = fam
        additive = tp_norm(a.add(b)) == tp_norm(a) + tp_norm(b)
        meet_min = bool(tp_argext(a, "min") & tp_argext(b, "min"))
        meet_max = bool(tp_argext(a, "max") & tp_argext(b, "max"))
        assert additive == (meet_min and meet_max)


class TestLatticeOperations:
    """Pointwise min/max identities on raw representatives."""

    @staticmethod
    def _vmin(f, g):
        return tuple(min(x, y) for x, y in zip(f, g))

    @staticmethod
    def _vmax(f, g):
        return tuple(max(x, y) for x, y in zip(f, g))

    @given(st.integers(2, 4).flatmap(
        lambda d: st.tuples(vector(d), vector(d), vector(d))))
    def test_lattice_identities(self, triple):
        f, g, h = triple
        vmin, vmax = self._vmin, self._vmax
        assert vmin(f, vmax(f, g)) == f
        assert vmax(f, vmin(g, h)) == vmin(vmax(f, g), vmax(f, h))
        assert tuple(a + b for a, b in zip(vmin(f, g), vmax(f, g))) == \
            tuple(a + b for a, b in zip(f, g))
        assert vmin(tuple(-x for x in f), tuple(-x for x in g)) == \
            tuple(-x for x in vmax(f, g))


class TestSegments:
    @given(point_family(2), unit_fracs)
    def test_endpoints_and_reversal(self, fam, s):
        a, b = fam
        rho = tp_dist(a, b)
        t = s * rho
        assert tp_path(a, b, 0) == a
        assert tp_path(a, b, rho) == b
        assert tp_path(a, b, t) == tp_path(b, a, rho - t)

    @given(point_family(2), unit_fracs, unit_fracs)
    def test_unit_speed(self, fam, s1, s2):
        a, b = fam
        rho = tp_dist(a, b)
        p1 = tp_path(a, b, s1 * rho)
        p2 = tp_path(a, b, s2 * rho)
        assert tp_dist(p1, p2) == abs(s1 - s2) * rho

    @given(point_family(2), unit_fracs, unit_fracs)
    def test_upper_segment_is_also_unit_speed(self, fam, s1, s2):
        a, b = fam
        rho = tp_dist(a, b)
        p1 = tp_path(a, b, s1 * rho, "upper")
        p2 = tp_path(a, b, s2 * rho, "upper")
        assert tp_dist(p1, p2) == abs(s1 - s2) * rho
        assert tp_path(a, b, 0, "upper") == a
        assert tp_path(a, b, rho, "upper") == b

    @given(point_family(3))
    def test_three_point_criterion(self, fam):
        a, b, c = fam
        covers = (tp_argext(a.diff(c), "min") | tp_argext(b.diff(c), "min")) \
            == frozenset(range(a.dim))
        t = tp_dist(a, c)
        on_segment = t <= tp_dist(a, b) and tp_path(a, b, t) == c
        assert covers == on_segment

    @given(point_family(2))
    def test_rejects_out_of_range_parameter(self, fam):
        a, b = fam
        with pytest.raises(InputError):
            tp_path(a, b, tp_dist(a, b) + 1)


class TestMembershipAndProjection:
    @given(hull_with_member())
    def test_members_are_recognized_and_fixed(self, inst):
        gens, gamma = inst
        S = TropGeneratorSet.of(gens, "lower")
        ok, cert = tp_member(S, gamma)
        assert ok
        assert not cert["missing"]
        proj, _ = tp_project(S, gamma)
        assert proj == gamma

    @given(hull_instance())
    def test_projection_lands_in_the_hull(self, inst):
        gens, (gamma,) = inst
        S = TropGeneratorSet.of(gens, "lower")
        proj, cert = tp_project(S, gamma)
        ok, _ = tp_member(S, proj)
        assert ok
        assert len(cert["checks"]) == len(S.points)

    @given(hull_with_member())
    def test_certificates_hold_for_combinations(self, inst):
        """Pseudonorm additivity and shared minimizers, checked against a
        hull member that is not necessarily a generator."""
        gens, beta = inst
        S = TropGeneratorSet.of(gens, "lower")
        space = GroundSpace.of([f"x{i}" for i in range(S.dim)])
        gamma = TropPoint.of(tuple(Fraction(i % 3, 2) - 1 for i in range(S.dim)))
        proj, _ = tp_project(S, gamma)
        total = tp_pseudonorm(beta.diff(gamma), 1, "lower", space)
        first = tp_pseudonorm(beta.diff(proj), 1, "lower", space)
        second = tp_pseudonorm(proj.diff(gamma), 1, "lower", space)
        assert total == first + second
        assert tp_argext(beta.diff(proj), "min") & \
            tp_argext(proj.diff(gamma), "min")

    @given(hull_instance(extra_points=2))
    def test_nonexpansive(self, inst):
        gens, (g1, g2) = inst
        S = TropGeneratorSet.of(gens, "lower")
        p1, _ = tp_project(S, g1)
        p2, _ = tp_project(S, g2)
        assert tp_dist(p1, p2) <= tp_dist(g1, g2)

    @given(hull_instance(max_gens=4), st.integers(1, 3))
    def test_nested_projection(self, inst, keep):
        gens, (gamma,) = inst
        sub = gens[:min(keep, len(gens))]
        S = TropGeneratorSet.of(gens, "lower")
        S_sub = TropGeneratorSet.of(sub, "lower")
        direct, _ = tp_project(S_sub, gamma)
        through, _ = tp_project(S_sub, tp_project(S, gamma)[0])
        assert direct == through

    @given(hull_instance())
    def test_upper_lower_duality(self, inst):
        gens, (gamma,) = inst
        S_low = TropGeneratorSet.of(gens, "lower")
        S_up = TropGeneratorSet.of([p.negate() for p in gens], "upper")
        low, _ = tp_project(S_low, gamma)
        up, _ = tp_project(S_up, gamma.negate())
        assert up == low.negate()

    @given(hull_instance(max_gens=3, extra_points=0),
           hull_instance(max_gens=3, extra_points=0))
    @settings(max_examples=25)
    def test_segment_decomposition(self, inst1, inst2):
        gens1, _ = inst1
        gens2, _ = inst2
        if gens1[0].dim != gens2[0].dim:
            return
        both = gens1 + gens2
        coeffs = [Fraction(i, 2) for i in range(len(both))]
        gamma = tp_combine(both, coeffs, "lower")
        p1, _ = tp_project(TropGeneratorSet.of(gens1, "lower"), gamma)
        p2, _ = tp_project(TropGeneratorSet.of(gens2, "lower"), gamma)
        t = tp_dist(p1, gamma)
        assert t <= tp_dist(p1, p2)
        assert tp_path(p1, p2, t) == gamma

    @given(hull_instance(max_gens=3, extra_points=3))
    def test_distance_bound_between_hulls(self, inst):
        gens, others = inst
        betas = others[:len(gens)]
        if len(betas) < len(gens):
            betas = betas + [betas[-1]] * (len(gens) - len(betas))
        coeffs = [Fraction(i) for i in range(len(gens))]
        gamma = tp_combine(gens, coeffs, "lower")
        T = TropGeneratorSet.of(betas, "lower")
        proj, _ = tp_project(T, gamma)
        bound = max(tp_dist(a, b) for a, b in zip(gens, betas))
        assert tp_dist(gamma, proj) <= bound

    def test_upper_coefficients_act_on_maximum_zero_representatives(self):
        S = TropGeneratorSet.of([(0, 2, 5), (3, 0, 1), (1, 4, 0)], "upper")
        gamma = tp_combine(S.points, [0, Fraction(1, 2), -1], "upper")
        assert gamma == TropPoint.of((Fraction(1, 2), 0, 2))
        ok, cert = tp_member(S, gamma)
        assert ok and cert["coefficients"] == [0, Fraction(-3, 2), -2]
        # tp_combine works on the canonical (minimum-zero) points, so it
        # does not rebuild gamma from these coefficients
        assert tp_combine(S.points, cert["coefficients"], "upper") == \
            TropPoint.of((0, Fraction(1, 2), Fraction(7, 2)))
        assert upper_rebuild(S, cert["coefficients"]) == gamma

    @given(hull_instance())
    def test_upper_projection_coefficients_rebuild_it(self, inst):
        gens, (gamma,) = inst
        S = TropGeneratorSet.of(gens, "upper")
        proj, cert = tp_project(S, gamma)
        assert upper_rebuild(S, cert["coefficients"]) == proj

    def test_singleton_hull(self):
        g = TropPoint.of((1, 5, 2))
        S = TropGeneratorSet.of([g], "lower")
        proj, _ = tp_project(S, TropPoint.of((0, 0, 9)))
        assert proj == g

    def test_dimension_mismatch(self):
        S = TropGeneratorSet.of([TropPoint.of((0, 1))], "lower")
        with pytest.raises(InputError):
            tp_project(S, TropPoint.of((0, 1, 2)))

    @pytest.mark.parametrize("mode", ["lower", "upper"])
    def test_space_of_another_size_is_rejected(self, mode):
        S = TropGeneratorSet.of([(0, 1, 2), (2, 1, 0)], mode)
        space = GroundSpace.of(["a", "b"])
        with pytest.raises(InputError, match="space size"):
            tp_project(S, TropPoint.of((0, 5, 1)), space)


class TestAgainstTheReference:
    """The integer kernel against the Fraction code it replaced
    (tests/hull_oracle.py): identical results, certificates included."""

    @given(oracle_case())
    @settings(max_examples=100)
    def test_projection_and_certificate(self, case):
        S, gamma, space = case
        assert tp_project(S, gamma, space) == hull_oracle.project(S, gamma, space)

    @given(oracle_case())
    @settings(max_examples=100)
    def test_membership_and_certificate(self, case):
        S, gamma, _ = case
        assert tp_member(S, gamma) == hull_oracle.member(S, gamma)

    @given(oracle_case())
    def test_extremals_and_weak_independence(self, case):
        S, _, _ = case
        assert tp_extremals(S) == hull_oracle.extremals(S)
        assert tp_independence(S, "weak") == hull_oracle.weak_independence(S)


class TestKernelCertificates:
    """Each certificate check fires when the kernel computes a wrong value.
    The generators (0, 1, 2) and (2, 1, 0) each cover part of the ground
    set of their combination with coefficients 0, in either mode."""

    @staticmethod
    def instance(mode):
        S = TropGeneratorSet.of([(0, 1, 2), (2, 1, 0)], mode)
        return S, tp_combine(S.points, [0, 0], mode)

    @staticmethod
    def raise_first_coefficient(monkeypatch):
        combine = tropical._combine
        monkeypatch.setattr(tropical, "_combine",
                            lambda H, cs: combine(H, [cs[0] + 1] + list(cs[1:])))

    @pytest.mark.parametrize("mode", ["lower", "upper"])
    def test_a_wrong_coefficient_fails_the_membership_combination(self, mode, monkeypatch):
        S, gamma = self.instance(mode)
        assert tp_member(S, gamma)[0]
        self.raise_first_coefficient(monkeypatch)
        with pytest.raises(CertificateError, match="membership combination") as failure:
            tp_member(S, gamma)
        assert failure.value.detail["point"] == str(gamma)

    @pytest.mark.parametrize("mode", ["lower", "upper"])
    def test_a_wrong_projection_fails_additivity(self, mode, monkeypatch):
        S, gamma = self.instance(mode)
        self.raise_first_coefficient(monkeypatch)
        with pytest.raises(CertificateError, match="additivity"):
            tp_project(S, gamma)

    @pytest.mark.parametrize("mode", ["lower", "upper"])
    def test_a_missing_common_argmin_fails_the_witness(self, mode, monkeypatch):
        """For exact data additivity holds iff the two argmin sets meet, so
        only a wrong argmin set, patched in, reaches the witness check."""
        S, gamma = self.instance(mode)
        b1 = tropical._b1
        monkeypatch.setattr(tropical, "_b1", lambda d, w: (b1(d, w)[0], set()))
        with pytest.raises(CertificateError, match="argmin intersection"):
            tp_project(S, gamma)


class TestExtremals:
    def test_rectangle_extremals_drop_the_low_corner(self, tp3):
        """min(A, C+1, D+1) reproduces B, so B is redundant in lower mode."""
        S = tp3.generator_set("rect")
        kept = tp_extremals(S)
        pts = tp3.points
        assert set(kept.points) == {pts["A"], pts["C"], pts["D"]}
        ok, _ = tp_member(kept, pts["B"])
        assert ok

    @given(hull_with_member())
    def test_combinations_are_pruned(self, inst):
        gens, extra = inst
        base = TropGeneratorSet.of(gens, "lower")
        padded = TropGeneratorSet.of(list(gens) + [extra], "lower")
        assert set(tp_extremals(padded).points) == set(tp_extremals(base).points)

    @given(hull_instance())
    def test_removed_points_stay_in_the_hull(self, inst):
        gens, _ = inst
        S = TropGeneratorSet.of(gens, "lower")
        kept = tp_extremals(S)
        for g in gens:
            ok, _ = tp_member(kept, g)
            assert ok

    @given(oracle_case())
    @example((TropGeneratorSet.of([(0, 3), (0, 1), (0, 0), (0, 2)], "lower"), None, None))
    @example((TropGeneratorSet.of([(0, 0), (0, 2), (0, 3), (0, 1)], "upper"), None, None))
    def test_weak_independence_is_keeping_every_point(self, case):
        """The set-theoretical characterization: a family is weakly
        independent iff no point lies in the hull of the others, that is,
        iff tp_extremals keeps every distinct point; a dependent verdict
        names the first point that tp_extremals drops. The two examples
        drop two points each, the segment between the ends."""
        S, _, _ = case
        kept = tp_extremals(S).points
        dropped = [i for i, p in enumerate(dict.fromkeys(S.points)) if p not in kept]
        verdict = tp_independence(S, "weak")
        assert (verdict["status"] == "independent") == (not dropped)
        if dropped:
            assert verdict["certificate"]["redundant_index"] == dropped[0]

    @pytest.mark.parametrize("mode", ["lower", "upper"])
    def test_one_distinct_point_is_its_own_extremal(self, mode):
        """A one-point set, and a set that repeats its one point, keep that
        point: there are no others to span it."""
        A = TropPoint.of((0, 1, 2))
        assert tp_extremals(TropGeneratorSet((A,), mode)) == TropGeneratorSet((A,), mode)
        twins = TropGeneratorSet((A, A), mode)
        assert tp_extremals(twins) == TropGeneratorSet((A,), mode)
        assert tp_independence(twins, "weak")["status"] == "independent"


class TestIndependence:
    def test_rectangle_statuses(self, tp3):
        S = tp3.generator_set("rect")
        weak = tp_independence(S, "weak")
        assert weak["status"] == "dependent"
        assert weak["certificate"]["redundant_index"] == 1
        gm = tp_independence(S, "gondran_minoux")
        assert gm["status"] == "dependent"
        trop = tp_independence(S, "tropical")
        assert trop["status"] == "dependent"

    def test_gm_certificate_reverifies(self, tp3):
        S = tp3.generator_set("rect")
        gm = tp_independence(S, "gondran_minoux")
        left_idx, right_idx = gm["certificate"]["partition"]
        witness = TropPoint.of(
            [Fraction(c) for c in gm["certificate"]["common_point"]])
        pts = list(S.points)
        for side in (left_idx, right_idx):
            hull = TropGeneratorSet.of([pts[i] for i in side], "lower")
            ok, _ = tp_member(hull, witness)
            assert ok

    def test_tropical_certificate_ties_twice_everywhere(self, tp3):
        S = tp3.generator_set("rect")
        result = tp_independence(S, "tropical")
        cs = [Fraction(c) for c in result["certificate"]["coefficients"]]
        for x in range(S.dim):
            vals = [c + p.coords[x] for c, p in zip(cs, S.points)]
            m = min(vals)
            assert sum(1 for v in vals if v == m) >= 2

    @given(hull_instance(max_gens=3, extra_points=0))
    def test_duplicates_do_not_change_the_verdict(self, inst):
        gens, _ = inst
        S = TropGeneratorSet.of(gens, "lower")
        doubled = TropGeneratorSet(S.points + (S.points[0],), "lower")
        for kind in ("weak", "gondran_minoux", "tropical"):
            assert tp_independence(S, kind)["status"] == \
                tp_independence(doubled, kind)["status"]

    @given(hull_with_member())
    def test_appended_combination_is_weakly_dependent(self, inst):
        gens, combo = inst
        if combo in set(gens):
            return
        S = TropGeneratorSet.of(list(gens) + [combo], "lower")
        assert tp_independence(S, "weak")["status"] == "dependent"

    def test_single_generator_is_independent(self):
        S = TropGeneratorSet.of([TropPoint.of((0, 2, 1))], "lower")
        for kind in ("weak", "gondran_minoux", "tropical"):
            assert tp_independence(S, kind)["status"] == "independent"

    @given(integer_family())
    @settings(max_examples=60)
    def test_matches_the_reference_searches_wherever_they_decide(self, S):
        """Same dict, certificate included, as capped alternating projections
        and exhaustive tie-pattern enumeration; GM is always decided."""
        for kind, reference in (("gondran_minoux", independence_oracle.gondran_minoux),
                                ("tropical", independence_oracle.tropical)):
            result = tp_independence(S, kind)
            assert result["status"] in ("independent", "dependent")
            expected = reference(S)
            if expected["status"] != "undecided":
                assert result == expected

    @given(integer_family(max_dim=3, top=3))
    def test_gm_matches_a_search_over_integer_points(self, S):
        assert tp_independence(S, "gondran_minoux")["status"] == \
            independence_oracle.gondran_minoux_by_box(S)

    @given(integer_family(max_points=5))
    def test_weak_then_gm_then_tropical_dependence(self, S):
        status = {kind: tp_independence(S, kind)["status"]
                  for kind in ("weak", "gondran_minoux", "tropical")}
        if status["weak"] == "dependent":
            assert status["gondran_minoux"] == "dependent"
        if status["gondran_minoux"] == "dependent":
            assert status["tropical"] == "dependent"

    @given(st.integers(2, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 6), min_size=n, max_size=n), min_size=n, max_size=n)),
        st.sampled_from(("lower", "upper")))
    def test_square_gm_follows_the_permutation_parity(self, rows, mode):
        """Gondran and Minoux (1984): n projectively distinct points in
        dimension n are independent iff the optimal weight sum_i a_i,s(i)
        over even permutations s differs from the one over odd ones (min
        in lower mode, max in upper mode)."""
        S = TropGeneratorSet.of(rows, mode)
        n = len(rows)
        assume(len(S.points) == n)
        weights: dict[int, list[int]] = {0: [], 1: []}
        for perm in itertools.permutations(range(n)):
            parity = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2)) % 2
            weights[parity].append(sum(row[k] for row, k in zip(rows, perm)))
        best = min if mode == "lower" else max
        expected = "independent" if best(weights[0]) != best(weights[1]) else "dependent"
        assert tp_independence(S, "gondran_minoux")["status"] == expected

    @given(integer_family(modes=("upper",)))
    def test_upper_gm_is_lower_gm_of_the_negation(self, S):
        upper = tp_independence(S, "gondran_minoux")
        lower = tp_independence(S.negate(), "gondran_minoux")
        assert upper["status"] == lower["status"]
        if upper["status"] == "dependent":
            assert upper["certificate"]["partition"] == lower["certificate"]["partition"]
            point = TropPoint.of([Fraction(c) for c in upper["certificate"]["common_point"]])
            assert point.negate() == TropPoint.of(
                [Fraction(c) for c in lower["certificate"]["common_point"]])

    def test_roadmap_instance_is_decided(self):
        """Capped alternating projections left GM undecided on this family."""
        S = TropGeneratorSet.of([[4, 8, 3, 3, 7], [8, 8, 7, 6, 2],
                                 [3, 2, 8, 6, 0], [1, 2, 9, 0, 4]], "lower")
        assert independence_oracle.gondran_minoux(S)["status"] == "undecided"
        for kind in ("weak", "gondran_minoux", "tropical"):
            assert tp_independence(S, kind) == \
                {"kind": kind, "status": "independent", "certificate": None}

    def test_only_the_tie_pattern_guard_is_undecided(self):
        """Ten tie pairs in dimension 7 exceed 2*10**6 patterns."""
        S = TropGeneratorSet.of([[(3 * i + 5 * x) % 7 for x in range(7)]
                                 for i in range(5)], "lower")
        assert len(S.points) == 5
        assert tp_independence(S, "tropical")["status"] == "undecided"
        assert tp_independence(S, "gondran_minoux")["status"] in ("independent", "dependent")

    def test_gm_rejects_families_past_its_round_limit_at_once(self):
        """30 points in dimension 30 with spread 10 would need 2**29 * 601
        rounds by the bound; 4 points over 10007 need 449,096 and are
        still decided."""
        S = TropGeneratorSet.of([[0 if i == x else 10 for x in range(30)]
                                 for i in range(30)], "lower")
        start = time.perf_counter()
        with pytest.raises(InputError) as exc:
            tp_independence(S, "gondran_minoux")
        assert time.perf_counter() - start < 1
        assert exc.value.location == "generators"
        assert str(2 ** 29 * 601) in str(exc.value)
        rows = [[0, 354, 7747], [0, 609, 492], [7223, 2805, 0], [0, 353, 9356]]
        S = TropGeneratorSet.of([[Fraction(x, 10007) for x in r] for r in rows], "lower")
        assert tp_independence(S, "gondran_minoux")["status"] in ("independent", "dependent")

    def test_a_gm_point_outside_a_hull_fails_its_check(self, tp3, monkeypatch):
        monkeypatch.setattr(tropical, "_gm_partition_meets",
                            lambda left, right: [0, 0, 1000])
        with pytest.raises(CertificateError):
            tp_independence(tp3.generator_set("rect"), "gondran_minoux")

    def test_coefficients_without_ties_fail_their_check(self, tp3, monkeypatch):
        monkeypatch.setattr(tropical, "_first_tie_solution",
                            lambda vals, pairs: [1000 * i for i in range(len(vals))])
        with pytest.raises(CertificateError):
            tp_independence(tp3.generator_set("rect"), "tropical")


class TestRetraction:
    @given(hull_instance())
    def test_endpoint_contract(self, inst):
        gens, (gamma,) = inst
        S = TropGeneratorSet.of(gens, "lower")
        assert tp_retract(S, gamma, 0) == gamma
        proj, _ = tp_project(S, gamma)
        assert tp_retract(S, gamma, 1) == proj

    @given(hull_with_member(), unit_fracs)
    def test_identity_on_the_hull(self, inst, t):
        gens, gamma = inst
        S = TropGeneratorSet.of(gens, "lower")
        assert tp_retract(S, gamma, t) == gamma

    @given(hull_instance(extra_points=2), unit_fracs)
    @settings(max_examples=40)
    def test_two_lipschitz(self, inst, t):
        gens, (g1, g2) = inst
        S = TropGeneratorSet.of(gens, "lower")
        moved = tp_dist(tp_retract(S, g1, t), tp_retract(S, g2, t))
        assert moved <= 2 * tp_dist(g1, g2)


class TestFixedPoint:
    def test_reference_bounce(self):
        S_low = TropGeneratorSet.of(
            [TropPoint.of((0, 1)), TropPoint.of((1, 0))], "lower")
        S_up = TropGeneratorSet.of([TropPoint.of((3, 3))], "upper")
        result = tp_fixed_point(S_low, S_up, TropPoint.of((3, 3)))
        assert result["lower"] == TropPoint.of((0, 0))
        assert result["upper"] == TropPoint.of((3, 3))
        assert result["distance"] == 0

    @given(hull_instance(max_gens=3, extra_points=0),
           hull_instance(max_gens=3, extra_points=0))
    @settings(max_examples=25)
    def test_stabilizes_and_lands_in_both_hulls(self, inst1, inst2):
        gens_low, _ = inst1
        gens_up, _ = inst2
        if gens_low[0].dim != gens_up[0].dim:
            return
        S_low = TropGeneratorSet.of(gens_low, "lower")
        S_up = TropGeneratorSet.of([p.negate() for p in gens_up], "upper")
        gamma = tp_combine(list(S_up.points),
                           [Fraction(i, 2) for i in range(len(gens_up))],
                           "upper")
        result = tp_fixed_point(S_low, S_up, gamma)
        assert tp_member(S_low, result["lower"])[0]
        assert tp_member(S_up, result["upper"])[0]
        assert result["distance"] == tp_dist(result["lower"], result["upper"])

    def test_requires_an_upper_hull_member(self):
        S_low = TropGeneratorSet.of([TropPoint.of((0, 1))], "lower")
        S_up = TropGeneratorSet.of([TropPoint.of((0, 3))], "upper")
        with pytest.raises(InputError):
            tp_fixed_point(S_low, S_up, TropPoint.of((0, 1)))


def _corners():
    """The lower-mode set of the corners (0, 1) and (1, 0)."""
    return TropGeneratorSet.of([(0, 1), (1, 0)])


class TestInputErrors:
    """Each input the tropical layer refuses, with its message; the layer
    names no location, which the workspace and the command line add."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: TropGeneratorSet.of([(0, 1)], "middle"),
                     "mode must be 'lower' or 'upper', got 'middle'", id="mode"),
        pytest.param(lambda: GroundSpace.of([]), "ground set must be nonempty",
                     id="empty ground"),
        pytest.param(lambda: GroundSpace.of(["x", "x"]), "ground labels must be distinct",
                     id="repeated label"),
        pytest.param(lambda: GroundSpace.of(["x", "y"], ["1"]),
                     "need exactly one weight per ground element", id="weight count"),
        pytest.param(lambda: GroundSpace.of(["x", "y"], ["1", "0"]),
                     "weights must be positive", id="zero weight"),
        pytest.param(lambda: TropPoint((Fraction(1), Fraction(2))),
                     "canonical coordinates must have minimum zero", id="not canonical"),
        pytest.param(lambda: TropGeneratorSet.of([]), "generator set must be nonempty",
                     id="no generators"),
        pytest.param(lambda: TropGeneratorSet.of([(0, 1), (0, 1, 2)]),
                     "generators must share one dimension", id="generator dimensions"),
        pytest.param(lambda: tp_combine([TropPoint.of((0, 1))], [0, 1]),
                     "need one coefficient per point", id="coefficient count"),
        pytest.param(lambda: tp_combine([], []), "combination of an empty family",
                     id="empty combination"),
        pytest.param(lambda: tp_combine([TropPoint.of((0, 1)), TropPoint.of((0, 1, 2))], [0, 0]),
                     "points must share one dimension", id="point dimensions"),
        pytest.param(lambda: tp_pseudonorm(TropPoint.of((0, 1)), 1, "lower",
                                           GroundSpace.of(["x"])),
                     "space size does not match point dimension", id="pseudonorm space"),
        pytest.param(lambda: tp_argext(TropPoint.of((0, 1)), "mid"),
                     "which must be 'min' or 'max', got 'mid'", id="argext which"),
        pytest.param(lambda: tp_member(_corners(), TropPoint.of((0, 1, 2))),
                     "point dimension does not match generators", id="member dimension"),
        pytest.param(lambda: tp_independence(_corners(), "strong"),
                     "kind must be weak, gondran_minoux or tropical, got 'strong'",
                     id="independence kind"),
        pytest.param(lambda: tp_retract(_corners(), TropPoint.of((0, 1)), 2),
                     "t=2 outside [0, 1]", id="retract time"),
        pytest.param(lambda: tp_fixed_point(_corners(), _corners(), TropPoint.of((0, 1))),
                     "expected a lower-mode and an upper-mode generator set",
                     id="fixed point modes"),
    ])
    def test_refused_inputs(self, call, message):
        with pytest.raises(InputError) as refused:
            call()
        assert (str(refused.value), refused.value.location) == (message, "")

    def test_values_are_immutable_and_equal_only_within_their_class(self):
        p = TropPoint.of((0, 1))
        with pytest.raises(AttributeError, match="cannot assign to field 'coords'"):
            p.coords = (Fraction(0),)
        assert p.__eq__(GroundSpace.of(["x", "y"])) is NotImplemented
        assert p != TropGeneratorSet.of([p]) and p == TropPoint.of((0, 1))
