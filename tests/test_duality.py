"""Twist exponents, theta line bundles, hypothesis lists and the tower."""

from fractions import Fraction

import pytest

from strangedual.duality import (
    DivisibilityError,
    NuBoundError,
    TowerResult,
    compute_nu,
    deformation_setup,
    delta_bound,
    dimension_match,
    duality_line_bundle,
    duality_line_bundle_class,
    hypotheses_report,
    k3_divisible_points,
    minimal_valid_total,
    ogrady_tower,
    theorem2_equivalence,
    theta_classes,
    theta_pair,
    theta_relation_identity,
    theta_relation_sweep,
    tower_instance,
)
from strangedual.hilbert import binom
from strangedual.surfaces import (
    ELLIPTIC_GENERAL,
    ELLIPTIC_K3,
    ModelMismatchError,
    MukaiVector,
    chi_rr,
    chi_vec,
    elliptic_general,
    elliptic_k3,
    euler_form,
    euler_pair_hom,
    generic_k3,
    h0_surface,
    moduli_dim,
    mukai_pair,
    normalized_vector,
    structure_vector,
    twist,
)

E = elliptic_k3()


def _reference_compute_nu(r, s, a, b, model=None):
    """compute_nu as it was written before one rule served every model: an
    integer branch for the elliptic K3 and a Fraction branch for the
    general elliptic surface."""
    if min(r, s) < 2:
        raise ValueError("both ranks must be >= 2")
    if min(a, b) < 0:
        raise ValueError("half-dimensions must be >= 0")
    if model is None:
        model = elliptic_k3()
    if model.kind == ELLIPTIC_K3:
        if (a + b - 2) % (r + s) != 0:
            raise DivisibilityError("divisibility")
        minus_nu = (a + b - 2) // (r + s) - (r + s - 2)
        if minus_nu < 2:
            raise NuBoundError("bound")
        return -minus_nu
    if model.kind == ELLIPTIC_GENERAL:
        chi = model.chi_o
        minus_nu = Fraction(a + b - chi, r + s) - Fraction((r + s - 1) * chi, 2) + 1
        if minus_nu.denominator != 1:
            raise DivisibilityError("divisibility")
        if minus_nu < chi:
            raise NuBoundError("bound")
        return -int(minus_nu)
    raise ModelMismatchError("nu is defined on the elliptic models")


def _reference_ogrady_tower(r_max, a, model=None):
    """ogrady_tower as it was written with one twist per generator: each
    vector is twisted by -chi(O).f once each for the recursion and the two
    shadows."""
    if model is None:
        model = elliptic_k3()
    chi_o = model.chi_o
    vectors = tuple(normalized_vector(r, a, model) for r in range(1, r_max + 1))
    o = structure_vector(model)
    down = -chi_o * model.fiber
    recursion_ok = all(
        vectors[i + 1] == o + twist(vectors[i], down) for i in range(len(vectors) - 1)
    )
    chi_one_ok = all(chi_vec(v) == 1 for v in vectors)
    dim_ok = all(moduli_dim(v) == 2 * a for v in vectors)
    h_shadow_ok = all(chi_vec(twist(v, down)) == 1 - chi_o for v in vectors)
    ext_shadow_ok = all(euler_pair_hom(twist(v, down), o) == -1 for v in vectors)
    return TowerResult(vectors, recursion_ok, chi_one_ok, dim_ok, h_shadow_ok, ext_shadow_ok)


def _nu_or_error(nu_rule, *args):
    try:
        return nu_rule(*args)
    except ValueError as exc:
        return type(exc)


# the elliptic K3 and the general elliptic surfaces with chi(O) = 1..6
NU_MODELS = (E, *(elliptic_general(chi_o) for chi_o in range(1, 7)))
# the elliptic K3 and the general elliptic surfaces with chi(O) = 1..4
TOWER_MODELS = NU_MODELS[:5]


class TestOneNuRule:
    @pytest.mark.parametrize("model", NU_MODELS, ids=lambda m: f"{m.kind}-chi{m.chi_o}")
    def test_equals_the_two_branch_rule(self, model):
        # every (r, s, a, b) with 2 <= r, s <= 6 and 0 <= a, b <= 89; the
        # reference reads a and b only through a + b (both are >= 0 here),
        # so it is evaluated once per total
        compared = 0
        for r in range(2, 7):
            for s in range(2, 7):
                expected = [
                    _nu_or_error(_reference_compute_nu, r, s, 0, total, model)
                    for total in range(179)
                ]
                for a in range(90):
                    for b in range(90):
                        got = _nu_or_error(compute_nu, r, s, a, b, model)
                        assert got == expected[a + b], (r, s, a, b, model)
                        compared += 1
        assert compared == 25 * 90 * 90

    def test_generic_model_and_small_ranks_are_refused(self):
        for args in ((2, 2, 9, 9, generic_k3(4)), (1, 2, 9, 9, E), (2, 2, -1, 9, E)):
            got = _nu_or_error(compute_nu, *args)
            assert got == _nu_or_error(_reference_compute_nu, *args)
            assert issubclass(got, ValueError)

    def test_k3_validity_is_the_minimal_total(self):
        for r in range(2, 7):
            for s in range(2, 7):
                assert minimal_valid_total(r, s, 2) == (r + s) ** 2 + 2
                for _, _, a, b, valid in k3_divisible_points([r], [s], 150):
                    nu = _nu_or_error(_reference_compute_nu, r, s, a, b)
                    assert valid == isinstance(nu, int), (r, s, a, b)


class TestComputeNu:
    def test_case_study(self):
        assert compute_nu(2, 2, 9, 9) == -2

    def test_mixed_ranks(self):
        # a+b = 27, r+s = 5: (25)/5 - 3 = 2
        assert compute_nu(2, 3, 13, 14) == -2

    def test_bound_violation(self):
        with pytest.raises(NuBoundError):
            compute_nu(2, 2, 5, 5)

    def test_divisibility_violation(self):
        with pytest.raises(DivisibilityError):
            compute_nu(2, 2, 9, 8)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            compute_nu(1, 2, 9, 9)

    def test_general_model_chi2_reduces_to_k3(self):
        gen2 = elliptic_general(2)
        for (r, s, a, b) in [(2, 2, 9, 9), (2, 3, 13, 14), (3, 3, 19, 19)]:
            assert compute_nu(r, s, a, b, gen2) == compute_nu(r, s, a, b)

    def test_general_model_half_terms_cancel(self):
        # chi = 3, r+s = 4: both fractional terms are half-integers
        assert compute_nu(2, 2, 18, 19, elliptic_general(3)) == -5
        with pytest.raises(DivisibilityError):
            compute_nu(2, 2, 18, 18, elliptic_general(3))

    def test_general_model_bound_is_chi(self):
        gen3 = elliptic_general(3)
        # a+b = 21 gives -nu = 1 < 3
        with pytest.raises(NuBoundError):
            compute_nu(2, 2, 10, 11, gen3)


class TestLineBundle:
    def test_case_study_bundle(self):
        inst = tower_instance(2, 2, 9, 9)
        check = duality_line_bundle(inst)
        assert check.line_bundle == E.cls(4, 8)
        assert check.chi == 18 and check.chi_matches
        assert check.h0 == 18 and check.h0_matches
        assert check.alternative_form_matches

    def test_alternative_form_across_grid(self):
        for (r, s, a, b) in [(2, 3, 13, 14), (3, 3, 19, 19), (2, 4, 20, 18)]:
            check = duality_line_bundle(tower_instance(r, s, a, b))
            assert check.ok

    def test_wrong_bundle_is_reported_not_raised(self):
        inst = tower_instance(2, 2, 9, 9)
        wrong = inst._replace(nu=-3, line_bundle=duality_line_bundle_class(2, 2, -3))
        check = duality_line_bundle(wrong)
        assert check.line_bundle == E.cls(4, 9)
        assert (check.chi, check.h0) == (22, 22)
        assert not (check.chi_matches or check.h0_matches or check.alternative_form_matches)
        assert not check.ok

    def test_general_model_chi(self):
        gen3 = elliptic_general(3)
        inst = tower_instance(2, 2, 14, 15, gen3)
        check = duality_line_bundle(inst)
        assert check.chi == 29 and check.chi_matches

    def test_theta_bundle_on_every_model(self):
        """chi(v . w) = 0, dim M(v) = 2a, dim M(w) = 2b, h0(L) = chi(L) = a+b,
        and L has its general-chi alternative form, on every valid instance
        with chi(O) 1..6, ranks 2..5 and a+b < 200."""
        checked = 0
        for chi_o in range(1, 7):
            model = elliptic_general(chi_o)
            for r in range(2, 6):
                for s in range(2, 6):
                    t = r + s
                    for total in range(200):
                        try:
                            inst = tower_instance(r, s, total // 2, total - total // 2, model)
                        except (DivisibilityError, NuBoundError):
                            continue
                        checked += 1
                        assert euler_form(inst.v, inst.w) == 0, (chi_o, r, s, total)
                        dims = (moduli_dim(inst.v), moduli_dim(inst.w))
                        assert dims == (2 * inst.a, 2 * inst.b), (chi_o, r, s, total)
                        line = inst.line_bundle
                        assert h0_surface(line) == chi_rr(line) == total, (chi_o, r, s, total)
                        f_coeff = Fraction(t * (t - 1) * chi_o + 2 * (total - chi_o), 2 * t)
                        assert f_coeff.denominator == 1
                        assert line == model.cls(t, int(f_coeff) + chi_o - 1)
                        check = duality_line_bundle(inst)
                        assert check.h0 == total and check.h0_matches
                        assert check.alternative_form_matches
        assert checked == 1684

    def test_bundle_class_includes_canonical_twist(self):
        gen4 = elliptic_general(4)
        line = duality_line_bundle_class(2, 2, -4, gen4)
        # (r+s) sigma + ((r+s-1)chi - nu) f + (chi - 2) f
        assert line == gen4.cls(4, 12 + 4 + 2)


class TestTowerInstance:
    def test_orthogonality_and_halves(self):
        inst = tower_instance(2, 3, 13, 14)
        assert euler_form(inst.v, inst.w) == 0
        assert mukai_pair(inst.v, inst.v) == 2 * 13 - 2
        assert mukai_pair(inst.w, inst.w) == 2 * 14 - 2

    def test_twisted_partner(self):
        inst = tower_instance(2, 2, 9, 9)
        assert inst.w == twist(normalized_vector(2, 9, E), -2 * E.fiber)


class TestHypotheses:
    def test_t1_bound_threshold(self):
        g = generic_k3(10)
        h = g.hyperplane
        # <v,v> = 10 - 2*2*(chi-2): chi = 0 gives <v,v> = 18... pick s-slots
        v = MukaiVector(2, h, -2)  # chi = 0, <v,v> = 10 + 8 = 18? no: 10 - 2*2*(-2) = 18
        w = MukaiVector(3, h, -3)  # chi = 0
        rep = hypotheses_report(v, w, "T1")
        assert rep.conditions["i_c1_equals_H"]
        assert rep.conditions["ii_chi_nonpositive"]
        # threshold 2(r-1)(r^2+1) = 10 for r = 2, 2*2*10 = 40 for s = 3
        assert rep.conditions["iii_pairing_bound"] == (
            mukai_pair(v, v) >= 10 and mukai_pair(w, w) >= 40
        )

    def test_t1a_degree_threshold(self):
        for degree, expected in [(6, False), (8, True)]:
            g = generic_k3(degree)
            h = g.hyperplane
            chi = 0
            chi_p = (2 * 2 * 2 - degree) // 2 - 0  # solve orthogonality for chi'
            v = MukaiVector(2, h, chi - 2)
            w = MukaiVector(2, h, chi_p - 2)
            if euler_form(v, w) != 0:
                continue
            rep = hypotheses_report(v, w, "T1A")
            assert rep.conditions["degree_at_least_8"] == expected

    def test_t2_sum_bound(self):
        inst = tower_instance(2, 3, 13, 14)
        rep = hypotheses_report(inst.v, inst.w, "T2")
        assert rep.verdict
        assert rep.conditions["ii_pairing_sum_bound"]
        assert rep.conditions["i_fiber_degree_one"]

    def test_t5_dimension_bound(self):
        assert delta_bound(2, 2, 2) == 36
        gen2 = elliptic_general(2)
        inst = tower_instance(2, 2, 9, 9, gen2)
        rep = hypotheses_report(inst.v, inst.w, "T5")
        # dim sum = 36 >= Delta = 36
        assert rep.conditions["ii_dimension_sum_bound"]
        assert rep.verdict

    def test_wrong_model_raises(self):
        inst = tower_instance(2, 2, 9, 9)
        with pytest.raises(ModelMismatchError):
            hypotheses_report(inst.v, inst.w, "T1")

    def test_vectors_on_two_models_raise(self):
        # the report runs on the model v lives on; w must live there too
        inst = tower_instance(2, 2, 9, 9)
        other = tower_instance(2, 2, 9, 9, elliptic_general(2))
        for theorem in ("T2", "T5"):
            with pytest.raises(ModelMismatchError):
                hypotheses_report(inst.v, other.w, theorem)

    def test_unknown_theorem(self):
        inst = tower_instance(2, 2, 9, 9)
        with pytest.raises(ValueError):
            hypotheses_report(inst.v, inst.w, "T9")


class TestDimensionMatch:
    def test_case_study(self):
        assert dimension_match(tower_instance(2, 2, 9, 9)) == (48620, 48620, True)

    def test_degenerate_split(self):
        left, right, equal = dimension_match(tower_instance(2, 2, 18, 0))
        assert (left, right, equal) == (1, 1, True)

    def test_general_model_counts_from_h0(self):
        inst = tower_instance(2, 2, 14, 15, elliptic_general(3))
        assert dimension_match(inst) == (binom(29, 14), binom(29, 15), True)

    def test_instance_without_theta_bundle(self):
        with pytest.raises(ValueError, match="no twist data"):
            dimension_match(deformation_setup(2, 3, 0, -1).generic)

    def test_swap_symmetry(self):
        for (r, s, a, b) in [(2, 3, 13, 14), (2, 2, 10, 8), (3, 3, 19, 19)]:
            left, right, equal = dimension_match(tower_instance(r, s, a, b))
            assert equal and left == binom(a + b, a)


class TestTower:
    def test_recursion_and_chi(self):
        result = ogrady_tower(10, 9)
        assert result.ok
        assert result.vectors[0] == normalized_vector(1, 9, E)

    def test_recursion_identity_explicit(self):
        o = structure_vector(E)
        for r in range(1, 10):
            lhs = normalized_vector(r + 1, 9, E)
            rhs = o + twist(normalized_vector(r, 9, E), -2 * E.fiber)
            assert lhs == rhs

    def test_h_shadow(self):
        # chi(E_r(-2f)) = -1, the one-dimensional obstruction space
        for r in range(1, 8):
            v = normalized_vector(r, 9, E)
            assert chi_vec(twist(v, -2 * E.fiber)) == -1

    def test_ext_shadow(self):
        o = structure_vector(E)
        for r in range(1, 8):
            v = twist(normalized_vector(r, 9, E), -2 * E.fiber)
            assert euler_pair_hom(v, o) == -1

    @pytest.mark.parametrize("chi_o", [2, 3, 4])
    def test_general_models(self, chi_o):
        model = elliptic_general(chi_o)
        for a in (0, 7, 23):
            assert ogrady_tower(8, a, model).ok

    @pytest.mark.parametrize("model", TOWER_MODELS, ids=lambda m: f"{m.kind}-chi{m.chi_o}")
    def test_matches_the_reference(self, model):
        for r_max in range(1, 11):
            for a in range(0, 21):
                assert ogrady_tower(r_max, a, model) == _reference_ogrady_tower(r_max, a, model)


class TestThetaRelation:
    def test_worked_instance(self):
        g = generic_k3(14)
        h = g.hyperplane
        v = MukaiVector(2, h, 0 - 2)
        w = MukaiVector(3, h, -1 - 3)
        res = theta_relation_identity(v, w)
        assert res.lambda_v == MukaiVector(0, -2 * h, 14)
        assert res.mu_v == MukaiVector(-14, -2 * h, 0)
        # 14.w = (42, 14H, -56) = (chi(w) - s) lambda - s mu
        rhs = (-1 - 3) * res.lambda_v - 3 * res.mu_v
        assert rhs == MukaiVector(42, 14 * h, -56) == 14 * w
        assert res.ok

    def test_perpendicularity(self):
        g = generic_k3(14)
        v = MukaiVector(2, g.hyperplane, -2)
        lam, mu = theta_classes(v)
        assert euler_form(v, lam) == 0
        assert euler_form(v, mu) == 0

    def test_non_orthogonal_pair_fails(self):
        g = generic_k3(8)
        v = MukaiVector(2, g.hyperplane, -2)
        w = MukaiVector(3, g.hyperplane, -3)
        res = theta_relation_identity(v, w)
        assert not res.orthogonal
        assert not res.ok

    def test_theta_pair(self):
        v, w = theta_pair(2, 3, 0, -1)
        g = generic_k3(14)
        assert (v, w) == (MukaiVector(2, g.hyperplane, -2), MukaiVector(3, g.hyperplane, -4))
        assert v.model is g and euler_form(v, w) == 0
        for chi, chi_p in ((-1, 0), (4, 5)):  # H^2 = 15 and -10
            with pytest.raises(ValueError, match="not a positive even integer"):
                theta_pair(2, 3, chi, chi_p)

    def test_sweep_clean(self):
        checked, failures, crossed = theta_relation_sweep(2, 5, -5, 0)
        assert checked == 16 * 36
        assert failures == []
        assert crossed > 0


class TestDeformation:
    def test_worked_instance(self):
        pair = deformation_setup(2, 3, 0, -1)
        assert pair.degree == 14
        assert pair.elliptic.v.c1 == E.cls(1, 8)
        assert pair.pairings_agree
        assert pair.elliptic.nu == 0 + (-1) - 2

    def test_rank_two_threshold(self):
        pair = deformation_setup(2, 2, 0, 0)
        assert pair.degree == 8
        assert pair.generic.a == pair.generic.b

    def test_validation(self):
        with pytest.raises(ValueError):
            deformation_setup(2, 3, 1, 0)  # positive chi
        with pytest.raises(ValueError):
            deformation_setup(2, 3, -1, 0)  # odd H^2 = 15

    def test_pairings_match_across_models(self):
        for (r, s, chi, chi_p) in [(2, 2, 0, -2), (3, 4, -2, -4), (2, 5, 0, 0)]:
            pair = deformation_setup(r, s, chi, chi_p)
            v_g, w_g = pair.generic.v, pair.generic.w
            v_e, w_e = pair.elliptic.v, pair.elliptic.w
            assert mukai_pair(v_g, v_g) == mukai_pair(v_e, v_e)
            assert mukai_pair(w_g, w_g) == mukai_pair(w_e, w_e)
            assert euler_form(v_e, w_e) == 0


def test_theorem2_equivalence_never_disagrees():
    for r in (2, 3):
        for s in (2, 3):
            for total in range(2, 41):
                for a in range(0, total + 1):
                    assert theorem2_equivalence(r, s, a, total - a) is not False


def test_valid_instances_meet_dimension_floor():
    # every parameter set passing the twist computation has a+b >= (r+s)^2 + 2
    for r in (2, 3, 4):
        for s in (2, 3, 4):
            for total in range(0, 61):
                for a in range(0, total + 1):
                    try:
                        compute_nu(r, s, a, total - a)
                    except ValueError:
                        continue
                    assert total >= (r + s) ** 2 + 2


def test_t1_threshold_instance():
    # r = 2 with <v,v> = 10 sits exactly on the bound 2(r-1)(r^2+1)
    g = generic_k3(2)
    v = MukaiVector(2, g.hyperplane, -2)
    assert mukai_pair(v, v) == 10
    w = MukaiVector(3, g.hyperplane, -6)  # chi = -3, <w,w> = 2 + 36 = 38
    if euler_form(v, w) == 0:
        rep = hypotheses_report(v, w, "T1")
        assert rep.conditions["iii_pairing_bound"] == (38 >= 40)
    bound_v = 2 * (2 - 1) * (2 * 2 + 1)
    assert mukai_pair(v, v) >= bound_v
