"""Walls, stratum enumeration, and the codimension-estimate audits."""

from fractions import Fraction
from math import isqrt

import pytest

from strangedual.strata import (
    Wall,
    _compositions,
    _t_tuples,
    chain_audit,
    codim_audit,
    hodge_check,
    is_suitable,
    stack_dim,
    strata_box_oracle,
    strata_enumerate,
    stratum_codim_ok,
    unordered_count,
    wall_enumerate,
)
from strangedual.surfaces import (
    MukaiVector,
    elliptic_k3,
    mukai_pair,
    normalized_vector,
    ns_pair,
)

E = elliptic_k3()


def vec(r, x, y, s):
    return MukaiVector(r, E.cls(x, y), s)


class TestStackDim:
    def test_positive_square(self):
        v = vec(2, 1, 0, -2)  # <v,v> = 6
        assert mukai_pair(v, v) == 6
        assert stack_dim(v) == 7

    def test_isotropic_primitive(self):
        v = vec(1, 0, 1, 0)
        assert mukai_pair(v, v) == 0
        assert stack_dim(v) == 1

    def test_isotropic_imprimitive(self):
        v = vec(2, 0, 2, 0)
        assert stack_dim(v) == 2

    def test_rigid(self):
        v = vec(1, 0, 0, 1)  # <v,v> = -2
        assert stack_dim(v) == -1

    def test_rigid_multiple(self):
        v = 2 * vec(1, 0, 0, 1)  # <v,v> = -8 = -2 l^2
        assert stack_dim(v) == -4

    def test_empty(self):
        v = vec(1, 1, 0, 1)  # <v,v> = -4 with l = 1
        assert mukai_pair(v, v) == -4
        assert stack_dim(v) is None

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            stack_dim(vec(0, 0, 1, 0))

    def test_upper_bound(self):
        # dim <= <v^2> + r^2 wherever nonempty
        rng = range(-3, 4)
        for r in range(1, 4):
            for x in rng:
                for y in rng:
                    for s in rng:
                        v = vec(r, x, y, s)
                        d = stack_dim(v)
                        if d is not None:
                            assert d <= mukai_pair(v, v) + r * r


class TestWalls:
    def test_contains_worked_wall(self):
        walls = wall_enumerate(vec(2, 1, 0, -2), 3)
        by_m = {w.m_value: w for w in walls}
        assert Fraction(4) in by_m
        wall = by_m[Fraction(4)]
        assert wall.d == E.cls(1, -2)
        assert ns_pair(wall.d, wall.d) == -6
        assert (1, E.cls(1, -1)) in wall.witnesses

    def test_bound_zero_is_empty(self):
        assert wall_enumerate(vec(2, 1, 0, -2), 0) == []

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            wall_enumerate(vec(1, 1, 0, 0), 3)

    def test_wall_invariants(self):
        for wall in wall_enumerate(vec(3, 1, 1, -2), 3):
            h1 = E.cls(wall.m_value.denominator, wall.m_value.numerator)
            assert ns_pair(wall.d, h1) == 0
            assert ns_pair(wall.d, wall.d) < 0
            assert wall.m_value > 2
            for r1, xi1 in wall.witnesses:
                assert 1 <= r1 < 3

    def test_wall_validation(self):
        with pytest.raises(ValueError):
            Wall(E.cls(1, -2), Fraction(5), ())
        with pytest.raises(ValueError):
            Wall(E.cls(0, 1), Fraction(3), ())


class TestSuitability:
    def test_beyond_all_walls(self):
        rep = is_suitable(5, vec(2, 1, 0, -2), 3)
        assert rep.suitable
        assert rep.max_wall == 4

    def test_below_a_wall(self):
        rep = is_suitable(3, vec(2, 1, 0, -2), 3)
        assert not rep.suitable

    def test_rank_one_vacuous(self):
        rep = is_suitable(7, vec(1, 1, 4, 0), 3)
        assert rep.suitable and rep.max_wall is None

    def test_bound_is_reported(self):
        rep = is_suitable(5, vec(2, 1, 0, -2), 3)
        assert rep.coeff_bound == 3
        assert "3" in rep.note


def _wall_at_4(v):
    return [w for w in wall_enumerate(v, 3) if w.m_value == 4][0]


class TestStrataEnumeration:
    def test_worked_case_exactly_three(self):
        v = vec(2, 1, 0, -2)
        strata = strata_enumerate(v, _wall_at_4(v), 2)
        assert len(strata) == 3
        assert unordered_count(strata) == 3
        expected_parts = {
            (vec(1, 1, -1, s1), vec(1, 0, 1, -2 - s1)) for s1 in (-1, -2, -3)
        }
        assert {st.parts for st in strata} == expected_parts
        assert all(st.total_dim == 5 for st in strata)
        assert {st.dims for st in strata} == {(-1, 3), (1, 1), (3, -1)}
        for st in strata:
            assert mukai_pair(st.parts[0], st.parts[1]) == 3

    def test_parts_sum_and_slope_equality(self):
        v = vec(2, 1, 0, -2)
        wall = _wall_at_4(v)
        h1 = E.cls(wall.m_value.denominator, wall.m_value.numerator)
        for st in strata_enumerate(v, wall, 2):
            total = st.parts[0]
            for p in st.parts[1:]:
                total = total + p
            assert total == v
            for p in st.parts:
                assert v.r * ns_pair(p.c1, h1) == p.r * ns_pair(v.c1, h1)

    def test_ordering_is_filtration_order(self):
        # the swapped tuples fail the descending Gieseker keys
        v = vec(2, 1, 0, -2)
        strata = strata_enumerate(v, _wall_at_4(v), 2)
        for st in strata:
            assert st.parts[0].c1 == E.cls(1, -1)

    def test_too_many_parts(self):
        v = vec(2, 1, 0, -2)
        assert strata_enumerate(v, _wall_at_4(v), 3) == []

    def test_rank_three_vector(self):
        v = vec(3, 1, 0, -1)
        for wall in wall_enumerate(v, 2):
            for k in (2, 3):
                for st in strata_enumerate(v, wall, k):
                    total = st.parts[0]
                    for p in st.parts[1:]:
                        total = total + p
                    assert total == v
                    assert all(p.r >= 1 for p in st.parts)
                    assert chain_audit(v, st).ok
                    assert stratum_codim_ok(v, st)


class TestOracle:
    @pytest.mark.parametrize("s4", range(-4, 1))
    def test_pruned_matches_box_bruteforce(self, s4):
        v = vec(2, 1, 0, s4)
        for wall in wall_enumerate(v, 3):
            pruned = strata_enumerate(v, wall, 2)
            oracle = strata_box_oracle(v, wall, coeff_bound=3, s_bound=20)
            assert set(pruned) == set(oracle), (s4, wall.d, wall.m_value)
            # the box provably covers: every pruned part sits strictly inside
            for st in pruned:
                for p in st.parts:
                    assert all(abs(c) < 3 for c in p.c1.coeffs)
                    assert abs(p.s) < 20


def _reference_t_tuples(ranks, t_bounds, budget, dsq, r):
    """The t-tuple recursion before residue pruning: every pair of every prefix."""
    k = len(ranks)

    def pair_ok(ts):
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                lhs = (ranks[i] * ts[j] - ranks[j] * ts[i]) ** 2 * dsq
                if lhs > budget * ranks[i] * ranks[j] * r * r:
                    return False
        return True

    def rec(prefix):
        if len(prefix) == k - 1:
            last = -sum(prefix)
            if abs(last) > t_bounds[k - 1]:
                return
            ts = prefix + (last,)
            if pair_ok(ts):
                yield ts
            return
        i = len(prefix)
        for t in range(-t_bounds[i], t_bounds[i] + 1):
            if pair_ok(prefix + (t,)):
                yield from rec(prefix + (t,))

    yield from rec(())


class TestTTuples:
    @pytest.mark.parametrize("r", range(2, 6))
    @pytest.mark.parametrize("y, s", [(0, -4), (1, -4), (2, -2)])
    def test_matches_reference_recursion(self, r, y, s):
        # the reference tuples that give integral parts, in the same order
        v = vec(r, 1, y, s)
        budget = mukai_pair(v, v) + 2 * r * r
        assert budget > 0
        walls = wall_enumerate(v, 4)
        compared = 0
        for wall in walls:
            dsq = -ns_pair(wall.d, wall.d)
            for k in range(2, r + 1):
                for ranks in _compositions(r, k):
                    t_bounds = [isqrt((ri * ri * budget * r * r) // dsq) + 1 for ri in ranks]
                    expected = [
                        ts
                        for ts in _reference_t_tuples(ranks, t_bounds, budget, dsq, r)
                        if all(
                            (ri * x + ti * dc) % r == 0
                            for ri, ti in zip(ranks, ts)
                            for x, dc in zip(v.c1.coeffs, wall.d.coeffs)
                        )
                    ]
                    got = list(
                        _t_tuples(ranks, t_bounds, budget, dsq, r, v.c1.coeffs, wall.d.coeffs)
                    )
                    assert got == expected, (wall.d, ranks)
                    compared += len(got)
        assert compared > 0 or not walls


class TestAudits:
    def test_worked_codim_audit(self):
        v = vec(2, 1, 0, -2)
        audit = codim_audit(v, _wall_at_4(v))
        assert audit.strata_count == 3
        assert audit.min_codim == 2
        assert audit.bound == Fraction(1, 2)
        assert audit.bound_satisfied
        assert audit.chain_ok
        assert not audit.corollary_applicable

    def test_corollary_threshold(self):
        # r = 2, <v,v> = 12: bound = 3 + 2 - 4 + 1 = 2
        v = vec(2, 1, 1, -3)
        assert mukai_pair(v, v) == 12
        walls = wall_enumerate(v, 3)
        assert walls
        audit = codim_audit(v, walls[0])
        assert audit.bound == 2
        assert audit.corollary_applicable
        assert audit.remark_applicable  # c1 primitive and 12 >= 10

    def test_remark_threshold(self):
        # r = 2: the relaxed bound is <v,v> >= 2(r-1)(r^2+1) = 10
        v = vec(2, 1, 0, -3)
        assert mukai_pair(v, v) == 10
        audit = codim_audit(v, _wall_at_4(v))
        assert audit.remark_applicable
        assert audit.min_codim is None or audit.min_codim >= 2

    def test_precomputed_strata(self):
        v = vec(3, 1, 1, -4)
        for wall in wall_enumerate(v, 3):
            strata = [st for k in (2, 3) for st in strata_enumerate(v, wall, k)]
            assert codim_audit(v, wall, strata) == codim_audit(v, wall)

    def test_positivity_guard(self):
        v = vec(2, 1, 0, 0)  # <v,v> = -2
        with pytest.raises(ValueError):
            codim_audit(v, _wall_at_4(v))

    def test_chain_steps_individually(self):
        v = vec(2, 1, 0, -2)
        for st in strata_enumerate(v, _wall_at_4(v), 2):
            audit = chain_audit(v, st)
            assert audit.split_identity_ok
            assert audit.bogomolov_ok
            assert audit.hodge_ok
            assert audit.drop_rank_weights_ok
            assert audit.collect_identity_ok
            assert audit.final_bound_ok

    def test_min_codim_meets_ceil_bound(self):
        for s4 in range(-4, -1):
            v = vec(2, 1, 0, s4)
            for wall in wall_enumerate(v, 3):
                audit = codim_audit(v, wall)
                if audit.min_codim is not None:
                    assert audit.min_codim >= audit.bound
                if audit.remark_applicable and audit.min_codim is not None:
                    assert audit.min_codim >= 2


class TestHodge:
    def test_worked_instance(self):
        verdict = hodge_check(E.cls(1, -2), E.cls(1, 4))
        assert verdict.applicable and verdict.holds
        assert verdict.d_squared == -6

    def test_zero_class_vacuous(self):
        verdict = hodge_check(E.zero, E.cls(1, 4))
        assert not verdict.applicable and verdict.holds

    def test_nonorthogonal_vacuous(self):
        verdict = hodge_check(E.fiber, E.cls(1, 4))
        assert not verdict.applicable

    def test_primitive_strictness(self):
        verdict = hodge_check(E.cls(1, -2), E.cls(1, 4), primitive_c1=True)
        assert verdict.strict_even

    def test_ample_guard(self):
        with pytest.raises(ValueError):
            hodge_check(E.cls(1, -2), E.cls(1, 1))  # H.sigma = -1

    def test_orthogonal_classes_all_negative(self):
        h = E.cls(1, 4)
        rng = range(-6, 7)
        for x in rng:
            for y in rng:
                d = E.cls(x, y)
                verdict = hodge_check(d, h)
                assert verdict.holds


def test_normalized_vectors_have_expected_walls():
    # normalized tower vectors keep their fiber-degree, so walls exist
    v = normalized_vector(2, 9, E)
    walls = wall_enumerate(v, 3)
    assert walls
    for wall in walls:
        strata = strata_enumerate(v, wall, 2)
        for st in strata:
            assert chain_audit(v, st).ok
            assert stratum_codim_ok(v, st)
