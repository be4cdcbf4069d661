"""Picard classes on Hilbert schemes, section counts and exclusion logic."""

import pytest

from strangedual.duality import (
    compute_nu,
    duality_line_bundle_class,
    k3_divisible_points,
    k3_tower_row,
    minimal_valid_total,
    tower_instance,
)
from strangedual.hilbert import (
    binom,
    exclusion_flags,
    exclusion_report,
    require_exclusion_model,
    taut_det_sections,
)
from strangedual.surfaces import (
    ModelMismatchError,
    elliptic_general,
    elliptic_k3,
    euler_form,
    generic_k3,
    h0_coeffs,
    h0_surface,
    moduli_dim,
)

E = elliptic_k3()


def test_binom_conventions():
    assert binom(4, 2) == 6
    assert binom(3, 5) == 0
    assert binom(17, 18) == 0
    assert binom(5, -1) == 0
    assert binom(-2, 0) == 0
    assert binom(0, 0) == 1
    assert binom(18, 9) == 48620


class TestSectionCounts:
    def test_det_count_fiber_classes(self):
        for a in range(1, 10):
            assert taut_det_sections(E.cls(0, a - 1), a) == 1

    def test_full_and_partial_counts(self):
        line = E.cls(4, 8)  # h0 = 18
        assert taut_det_sections(line, 18) == 1
        assert taut_det_sections(line, 9) == binom(18, 9)

    def test_unknown_propagates(self):
        # h0(2 sigma + 3f) = 4, a class the pinned ranges left unknown
        assert taut_det_sections(E.cls(2, 3), 2) == 6

    def test_section_multiple_has_one_section(self):
        # h0(O(4 sigma)) = 1: one point takes it, two or more points none
        assert taut_det_sections(E.cls(4, 0), 1) == 1
        for a in range(2, 12):
            assert taut_det_sections(E.cls(4, 0), a) == 0

    def test_no_sections_downstairs(self):
        for a in range(1, 5):
            assert taut_det_sections(E.cls(2, -1), a) == 0

    def test_sigma_plus_two_fibers(self):
        # h0(sigma + 2f) = 3
        assert [taut_det_sections(E.cls(1, 2), a) for a in range(5)] == [1, 3, 3, 1, 0]

    def test_general_model_and_guard(self):
        # h0(O(4f)) = 5 on every elliptic model
        assert taut_det_sections(elliptic_general(3).cls(0, 4), 2) == binom(5, 2)
        with pytest.raises(ModelMismatchError):
            taut_det_sections(generic_k3(4).cls(1), 1)


class TestExclusionReport:
    def test_case_study(self):
        rep = exclusion_report(tower_instance(2, 2, 9, 9))
        assert rep.nu == -2
        assert rep.line_bundle == E.cls(4, 8)
        assert rep.h0_l_minus_bf == 0 and rep.h0_l_minus_af == 0
        assert rep.q3_excluded
        # L((-a+1)f) = O(4 sigma) has the single section supported on the
        # section divisors, so the Q1/Q2 exclusion fails here and only here
        assert rep.h0_l_a1f == 1 and rep.h0_l_b1f == 1
        assert not rep.q1q2_excluded
        assert rep.h0_l_minus_sigma == 17
        assert rep.s_count == binom(17, 18) == 0
        assert rep.s_proper and rep.q_proper

    def test_asymmetric_point_is_excluded(self):
        rep = exclusion_report(tower_instance(2, 2, 10, 8))
        assert rep.q3_excluded
        assert rep.q1q2_excluded

    def test_h0_l_minus_sigma_formula(self):
        # h0(L(-sigma)) = a + b + 1 + nu in the big-and-nef range
        for (r, s, a, b) in [(2, 2, 9, 9), (2, 3, 13, 14), (3, 3, 20, 18), (2, 4, 20, 18)]:
            rep = exclusion_report(tower_instance(r, s, a, b))
            assert rep.h0_l_minus_sigma == a + b + 1 + rep.nu
            assert rep.s_count == 0

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            exclusion_report(tower_instance(2, 2, 5, 5))

    @pytest.mark.parametrize("model", [elliptic_general(2), elliptic_general(3)])
    def test_refused_off_the_elliptic_k3(self, model):
        # the general model at chi(O) = 2 has the K3's numbers, but not its Q, R and S
        total = minimal_valid_total(2, 2, model.chi_o)
        inst = tower_instance(2, 2, total // 2, total - total // 2, model)
        with pytest.raises(ModelMismatchError, match="Q, R and S are defined on the elliptic K3"):
            exclusion_report(inst)
        with pytest.raises(ModelMismatchError, match="Q, R and S are defined on the elliptic K3"):
            require_exclusion_model(model)
        require_exclusion_model(E)
        with pytest.raises(ModelMismatchError):
            require_exclusion_model(generic_k3(8))

    def test_sweep_invariants_small_grid(self):
        exceptional = []
        points = 0
        for r in (2, 3):
            for s in (2, 3):
                for total in range(2, 41):
                    for a in range(0, total + 1):
                        b = total - a
                        try:
                            compute_nu(r, s, a, b)
                        except ValueError:
                            continue
                        points += 1
                        rep = exclusion_report(tower_instance(r, s, a, b))
                        assert rep.q3_excluded, (r, s, a, b)
                        assert rep.s_proper and rep.q_proper, (r, s, a, b)
                        if not rep.q1q2_excluded:
                            exceptional.append((r, s, a, b))
        assert points > 100
        assert exceptional == [(2, 2, 9, 9)]


def _reference_h0_surface(d):
    """The pinned-range rule on a typed class, kept apart from ``h0_coeffs``."""
    if d.model != E:
        raise ModelMismatchError("section counts are pinned on the elliptic K3 only")
    m, n = d.coeffs
    if m >= 0 and n < 0:
        return 0
    if m > 0 and n >= 2 * m:
        return 2 + m * (n - m)
    if n == 0 and m >= 0:
        return 1
    if m == 0 and n >= 0:
        return n + 1
    return None


def _reference_count(d):
    """The pinned rule where it pins a value, ``h0_surface`` elsewhere."""
    pinned = _reference_h0_surface(d)
    return h0_surface(d) if pinned is None else pinned


def _reference_exclusion_report(r, s, a, b):
    """The exclusion counts through NSClass arithmetic on L, as fields of the report."""
    nu = compute_nu(r, s, a, b)
    line = duality_line_bundle_class(r, s, nu)
    fib, sig = E.fiber, E.sigma
    h0_mbf = _reference_count(line - b * fib)
    h0_maf = _reference_count(line - a * fib)
    h0_a1 = _reference_count(line + (1 - a) * fib)
    h0_b1 = _reference_count(line + (1 - b) * fib)
    h0_msig = _reference_count(line - sig)
    h0_q = _reference_count(line + (1 - a - b) * fib)
    q1q2_excluded = h0_a1 == 0 or h0_b1 == 0
    s_count = binom(h0_msig, a + b)
    q_count = binom(h0_q + (a + b) - 1, a + b)
    return dict(
        nu=nu, line_bundle=line,
        h0_l_minus_bf=h0_mbf,
        h0_l_minus_af=h0_maf,
        h0_l_a1f=h0_a1,
        h0_l_b1f=h0_b1,
        h0_l_minus_sigma=h0_msig,
        q3_left_count=binom(h0_mbf, a),
        q3_right_count=binom(h0_maf, b),
        q1q2_left_count=binom(h0_a1 + a - 1, a),
        q1q2_right_count=binom(h0_b1 + b - 1, b),
        s_count=s_count,
        q_count=q_count,
        q3_excluded=h0_mbf == 0 or h0_maf == 0,
        q1q2_excluded=q1q2_excluded,
        s_proper=s_count == 0,
        q_proper=q_count == 0,
    )


# the acceptance batch's exclusion-sweep bounds, and one wider box
EXCLUSION_BOXES = [(range(2, 5), range(2, 5), 60), (range(2, 7), range(2, 7), 120)]


class TestIntegerExclusionRoute:
    def test_h0_coeffs_matches_the_typed_rule(self):
        pinned = 0
        for m in range(-6, 13):
            for n in range(-6, 60):
                expected = _reference_h0_surface(E.cls(m, n))
                if expected is not None:
                    pinned += 1
                    assert h0_coeffs(m, n, 2) == expected, (m, n)
        # 78 with n < 0, 564 big and nef, 13 multiples of sigma, 59 of f
        assert pinned == 714

    @pytest.mark.parametrize("r_rng,s_rng,ab_max", EXCLUSION_BOXES)
    def test_reports_and_rows_match_the_typed_route(self, r_rng, s_rng, ab_max):
        points = [p[:4] for p in k3_divisible_points(r_rng, s_rng, ab_max) if p[4]]
        assert (2, 2, 9, 9) in points
        for r, s, a, b in points:
            inst = tower_instance(r, s, a, b)
            got = exclusion_report(inst)._asdict()
            assert got == _reference_exclusion_report(r, s, a, b), (r, s, a, b)
            nu, v, w, chi_vw, dims = k3_tower_row(r, s, a, b)
            assert nu == inst.nu
            assert v == (inst.v.r, *inst.v.c1.coeffs, inst.v.s), (r, s, a, b)
            assert w == (inst.w.r, *inst.w.c1.coeffs, inst.w.s), (r, s, a, b)
            assert chi_vw == euler_form(inst.v, inst.w) == 0, (r, s, a, b)
            assert dims == (moduli_dim(inst.v), moduli_dim(inst.w)) == (2 * a, 2 * b), (r, s, a, b)
        if ab_max == 60:
            assert len(points) == 1829

    @pytest.mark.parametrize("r_rng,s_rng,ab_max", EXCLUSION_BOXES)
    def test_sweep_flags_match_the_report(self, r_rng, s_rng, ab_max):
        # the sweep takes (m, n) from L on the tower row's nu and calls exclusion_flags
        points = [p[:4] for p in k3_divisible_points(r_rng, s_rng, ab_max) if p[4]]
        for r, s, a, b in points:
            nu = k3_tower_row(r, s, a, b)[0]
            m, n = duality_line_bundle_class(r, s, nu).coeffs
            rep = exclusion_report(tower_instance(r, s, a, b))
            flags = (rep.q3_excluded, rep.q1q2_excluded, rep.s_proper, rep.q_proper)
            assert exclusion_flags(m, n, a, b, 2) == flags, (r, s, a, b)
            # and the flags are the verdicts on the record's own counts
            assert flags == (
                rep.h0_l_minus_bf == 0 or rep.h0_l_minus_af == 0,
                rep.h0_l_a1f == 0 or rep.h0_l_b1f == 0,
                rep.s_count == 0,
                rep.q_count == 0,
            ), (r, s, a, b)
