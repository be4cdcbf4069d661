"""Lattice arithmetic, Riemann-Roch counts and Mukai-vector algebra."""

import operator
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strangedual.surfaces as surfaces
from strangedual.duality import theta_classes, theta_pair
from strangedual.fourier_mukai import coords_vector, derive_fm_matrix, fm_apply
from strangedual.surfaces import (
    ModelMismatchError,
    MukaiVector,
    NSClass,
    chi_rr,
    chi_vec,
    elliptic_general,
    elliptic_k3,
    euler_form,
    euler_pair_hom,
    generic_k3,
    h0_surface,
    ideal_sheaf_vector,
    moduli_dim,
    mukai_dual,
    mukai_pair,
    mukai_tensor,
    normalized_vector,
    ns_pair,
    sign_law_sweep,
    structure_vector,
    twist,
)

E = elliptic_k3()
G2 = generic_k3(2)
GEN3 = elliptic_general(3)

coord = st.integers(min_value=-6, max_value=6)
small = st.integers(min_value=-3, max_value=3)


def evec(r, x, y, s):
    return MukaiVector(r, E.cls(x, y), s)


def _point_vector(model):
    """v(O_p) of a point sheaf: rank 0, c1 = 0, chi = 1."""
    return MukaiVector(0, model.zero, 1)


def ediv(x, y):
    return E.cls(x, y)


mukai_vectors = st.builds(evec, coord, coord, coord, coord)
gen3_vectors = st.builds(lambda r, x, y, s: MukaiVector(r, GEN3.cls(x, y), s),
                         small, small, small, small)
divisors = st.builds(ediv, small, small)


class TestNSPairing:
    def test_basis_products(self):
        assert ns_pair(E.sigma, E.sigma) == -2
        assert ns_pair(E.fiber, E.fiber) == 0
        assert ns_pair(E.sigma, E.fiber) == 1

    def test_bilinear_expansion(self):
        # (s+4f).(s-2f) = -2 + 4 - 2 = 0
        assert ns_pair(ediv(1, 4), ediv(1, -2)) == 0

    def test_zero_class(self):
        assert ns_pair(E.zero, ediv(3, -7)) == 0

    def test_generic_rank_one(self):
        g = generic_k3(14)
        assert ns_pair(g.hyperplane, g.hyperplane) == 14
        assert ns_pair(3 * g.hyperplane, 2 * g.hyperplane) == 84

    def test_general_model_section_square(self):
        assert ns_pair(GEN3.sigma, GEN3.sigma) == -3
        assert ns_pair(GEN3.sigma, GEN3.fiber) == 1

    def test_model_mismatch(self):
        with pytest.raises(ModelMismatchError):
            ns_pair(E.sigma, G2.hyperplane)

    @given(small, small, small, small)
    def test_symmetry(self, x1, y1, x2, y2):
        assert ns_pair(ediv(x1, y1), ediv(x2, y2)) == ns_pair(ediv(x2, y2), ediv(x1, y1))

    @given(small, small, small, small, small, small, small)
    def test_bilinearity(self, x1, y1, x2, y2, x3, y3, k):
        d1, d2, d3 = ediv(x1, y1), ediv(x2, y2), ediv(x3, y3)
        assert ns_pair(d1 + k * d2, d3) == ns_pair(d1, d3) + k * ns_pair(d2, d3)


class TestRiemannRoch:
    def test_case_study_bundle(self):
        assert chi_rr(ediv(4, 8)) == 18

    def test_trivial_bundle(self):
        assert chi_rr(E.zero) == 2
        assert chi_rr(GEN3.zero) == 3

    def test_big_nef_closed_form(self):
        # in the branch m > 0, n >= 2m the count is 2 + m(n - m)
        for m in range(1, 6):
            for n in range(2 * m, 2 * m + 10):
                d = ediv(m, n)
                assert chi_rr(d) == 2 + m * (n - m)
                assert h0_surface(d) == chi_rr(d)

    def test_general_model_canonical_twist(self):
        # K = (chi-2).f enters through D.(D-K)/2
        d = GEN3.cls(2, 5)
        dd = ns_pair(d, d)
        dk = ns_pair(d, GEN3.canonical)
        assert chi_rr(d) == (dd - dk) // 2 + 3


class TestSectionCounts:
    def test_remark_instance(self):
        assert h0_surface(ediv(3, 8)) == 17

    def test_section_multiples(self):
        assert h0_surface(ediv(4, 0)) == 1
        assert h0_surface(ediv(0, 0)) == 1

    def test_fiber_multiples(self):
        for a in range(1, 12):
            assert h0_surface(ediv(0, a - 1)) == a

    def test_negative_fiber_direction(self):
        assert h0_surface(ediv(3, -1)) == 0
        assert h0_surface(ediv(0, -5)) == 0

    def test_unknown_window(self):
        # classes the pinned ranges left unknown, now counted by the one rule
        assert h0_surface(ediv(2, 3)) == 4
        assert h0_surface(ediv(-1, 5)) == 0

    def test_model_guard(self):
        with pytest.raises(ModelMismatchError):
            h0_surface(G2.hyperplane)

    def test_general_model_counts(self):
        # pi_*O(3 sigma) = O + O(-6) + O(-9) on chi(O) = 3: h0(3 sigma + 10 f) = 11 + 5 + 2
        assert h0_surface(GEN3.cls(3, 10)) == 18
        assert h0_surface(GEN3.cls(3, 8)) == 9 + 3
        assert h0_surface(GEN3.cls(0, 4)) == 5
        assert h0_surface(GEN3.cls(2, -1)) == 0

    @pytest.mark.parametrize("chi_o", range(1, 7))
    def test_rule_matches_the_vanishing_oracle(self, chi_o):
        """Kawamata-Viehweg and the fixed section, with no use of pi_*O(k.sigma).

        f and sigma + chi.f are nef, so a class meeting one of them negatively
        has no sections.  h0(nf) = n + 1.  Where D - K is nef and big,
        h0(D) = chi(D).  Where D.sigma < 0, sigma is a fixed component and
        h0(D) = h0(D - sigma).  The classes left over step down into the band
        k.chi <= n <= k.chi + chi - 3, where D - K is not nef.
        """
        model = elliptic_general(chi_o)
        nefs = (model.fiber, model.sigma + chi_o * model.fiber)

        def oracle(d):
            k, n = d.coeffs
            if any(ns_pair(d, nef) < 0 for nef in nefs):
                return 0
            if k == 0:
                return n + 1
            adj = d - model.canonical
            if min(ns_pair(adj, model.fiber), ns_pair(adj, model.sigma)) >= 0 < ns_pair(adj, adj):
                return chi_rr(d)
            if ns_pair(d, model.sigma) < 0:
                return oracle(d - model.sigma)
            return None

        decided = 0
        for k in range(-4, 12):
            for n in range(-8, 80):
                expected = oracle(model.cls(k, n))
                if expected is not None:
                    decided += 1
                    assert surfaces.h0_coeffs(k, n, chi_o) == expected, (chi_o, k, n)
        # 16 * 88 classes, less 66 left over for each of the chi - 2 residues of the band
        assert decided == 16 * 88 - 66 * max(0, chi_o - 2)


class TestMukaiPairing:
    def test_structure_sheaf(self):
        o = structure_vector(E)
        assert mukai_pair(o, o) == -2

    def test_normalized_tower_square(self):
        for r in range(1, 6):
            for a in range(0, 12):
                v = normalized_vector(r, a, E)
                assert mukai_pair(v, v) == 2 * a - 2

    def test_expansion_instance(self):
        v = evec(2, 1, 0, -2)
        w = evec(1, 0, 1, 0)
        assert mukai_pair(v, w) == 3

    def test_general_model_rejected(self):
        v = MukaiVector(1, GEN3.zero, 3)
        with pytest.raises(ModelMismatchError):
            mukai_pair(v, v)

    @given(mukai_vectors, mukai_vectors)
    def test_symmetry_and_dual_invariance(self, v, w):
        assert mukai_pair(v, w) == mukai_pair(w, v)
        assert mukai_pair(mukai_dual(v), mukai_dual(w)) == mukai_pair(v, w)


class TestDual:
    def test_structure_sheaf_self_dual(self):
        o = structure_vector(E)
        assert mukai_dual(o) == o

    def test_negates_c1_only_on_k3(self):
        v = evec(3, 1, 5, -2)
        assert mukai_dual(v) == evec(3, -1, -5, -2)

    @given(mukai_vectors)
    def test_involution(self, v):
        assert mukai_dual(mukai_dual(v)) == v

    def test_general_model_chi_correction(self):
        # chi(E*) = chi(E) + c1.K
        v = MukaiVector(2, GEN3.cls(1, 4), 5)
        dual = mukai_dual(v)
        assert dual.c1 == -v.c1
        assert dual.s == 5 + ns_pair(v.c1, GEN3.canonical)
        assert mukai_dual(dual) == v


def _tensor_chern_oracle(v, w):
    """Independent tensor-product route through explicit Chern characters."""
    model = v.model
    k = model.canonical

    def chern2(u):
        return (Fraction(chi_vec(u)) - u.r * model.chi_o
                + Fraction(ns_pair(u.c1, k), 2))

    ch2 = v.r * chern2(w) + w.r * chern2(v) + ns_pair(v.c1, w.c1)
    c1 = v.r * w.c1 + w.r * v.c1
    rank = v.r * w.r
    chi = ch2 + rank * model.chi_o - Fraction(ns_pair(c1, k), 2)
    assert chi.denominator == 1
    return rank, c1, int(chi)


class TestTensor:
    def test_unit(self):
        o = structure_vector(E)
        assert mukai_tensor(o, o) == o
        assert mukai_tensor(o, _point_vector(E)) == _point_vector(E)

    def test_case_study_product_has_chi_zero(self):
        v = normalized_vector(2, 9, E)
        w = twist(normalized_vector(2, 9, E), -2 * E.fiber)
        prod = mukai_tensor(v, w)
        assert chi_vec(prod) == 0
        # the product's ch2 is -8, so chi = -8 + 2*4
        assert prod.s - prod.r == -8

    @given(mukai_vectors, mukai_vectors)
    def test_commutative(self, v, w):
        assert mukai_tensor(v, w) == mukai_tensor(w, v)

    @settings(max_examples=40)
    @given(mukai_vectors, mukai_vectors, mukai_vectors)
    def test_associative(self, u, v, w):
        left = mukai_tensor(mukai_tensor(u, v), w)
        right = mukai_tensor(u, mukai_tensor(v, w))
        assert left == right

    @given(mukai_vectors, mukai_vectors)
    def test_against_chern_oracle(self, v, w):
        prod = mukai_tensor(v, w)
        rank, c1, chi = _tensor_chern_oracle(v, w)
        assert (prod.r, prod.c1, chi_vec(prod)) == (rank, c1, chi)

    @given(gen3_vectors, gen3_vectors)
    def test_general_model_against_chern_oracle(self, v, w):
        prod = mukai_tensor(v, w)
        rank, c1, chi = _tensor_chern_oracle(v, w)
        assert (prod.r, prod.c1, chi_vec(prod)) == (rank, c1, chi)


class TestTwist:
    def test_fiber_twist_raises_chi_by_one(self):
        for r in range(1, 5):
            v = normalized_vector(r, 7, E)
            assert chi_vec(twist(v, E.fiber)) == chi_vec(v) + 1

    def test_zero_twist(self):
        v = evec(2, 1, 7, -1)
        assert twist(v, E.zero) == v

    @given(mukai_vectors, divisors)
    def test_group_law(self, v, d):
        assert twist(twist(v, d), -d) == v

    @given(mukai_vectors, divisors)
    def test_twist_is_tensor_with_line_bundle(self, v, d):
        assert twist(v, d) == mukai_tensor(v, _reference_line_bundle_vector(d))

    @given(gen3_vectors, st.builds(lambda x, y: GEN3.cls(x, y), small, small))
    def test_general_model_group_law(self, v, d):
        assert twist(twist(v, d), -d) == v


class TestChiAndDimensions:
    def test_chi_examples(self):
        assert chi_vec(structure_vector(E)) == 2
        assert chi_vec(_point_vector(E)) == 1
        for r in range(1, 8):
            assert chi_vec(normalized_vector(r, 11, E)) == 1

    def test_euler_form_examples(self):
        o = structure_vector(E)
        assert euler_form(o, o) == 2
        assert euler_form(o, _point_vector(E)) == 1

    def test_points_form_the_surface(self):
        # v(O_p) is isotropic, so its moduli space has dimension 2: the K3 itself
        p = _point_vector(E)
        assert mukai_pair(p, p) == 0
        assert mukai_pair(structure_vector(E), p) == -1
        assert moduli_dim(p) == 2

    def test_line_bundles_are_rigid(self):
        # <v, v> = -2 for every line bundle, so its moduli space is a point
        for x in range(-3, 4):
            for y in range(-3, 4):
                d = E.cls(x, y)
                v = twist(structure_vector(E), d)
                assert v == _reference_line_bundle_vector(d)
                assert mukai_pair(v, v) == -2
                assert moduli_dim(v) == 0

    def test_euler_form_deformation_orthogonality(self):
        # H^2 = 2rs - r chi' - s chi makes the pair orthogonal
        g = generic_k3(14)
        v = MukaiVector(2, g.hyperplane, 0 - 2)
        w = MukaiVector(3, g.hyperplane, -1 - 3)
        assert euler_form(v, w) == 0
        assert mukai_pair(v, mukai_dual(w)) == 0

    def test_moduli_dim(self):
        assert moduli_dim(structure_vector(E)) == 0
        assert moduli_dim(evec(2, 1, 0, -2)) == 8
        for r in range(1, 6):
            for a in range(0, 10):
                assert moduli_dim(normalized_vector(r, a, E)) == 2 * a
                assert moduli_dim(normalized_vector(r, a, GEN3)) == 2 * a

    def test_ideal_sheaf_vector(self):
        v = ideal_sheaf_vector(ediv(1, 9), 9)
        assert v == normalized_vector(1, 9, E)


def _reference_sign_law_sweep(model, bound):
    """The exhaustive tuple loop that sign_law_sweep ran before the Gram check.

    It has its own copies of both formulas on raw (r, x, y, s) tuples; y is 0
    on a generic K3.  Returns (pairs checked, mismatches).
    """
    rng = range(-bound, bound + 1)
    if model == E:
        vecs = [(r, x, y, s) for r in rng for x in rng for y in rng for s in rng]

        def dot(a, b):
            return -2 * a[1] * b[1] + a[1] * b[2] + a[2] * b[1]

    else:
        h2 = model.degree
        vecs = [(r, x, 0, s) for r in rng for x in rng for s in rng]

        def dot(a, b):
            return h2 * a[1] * b[1]

    mismatches = []
    checked = 0
    for i, v in enumerate(vecs):
        r1, s1 = v[0], v[3]
        for w in vecs[i:]:
            r2, s2 = w[0], w[3]
            d = dot(v, w)
            lhs = r1 * (r2 + s2) + r2 * (r1 + s1) + d - 2 * r1 * r2
            rhs = d + r1 * s2 + s1 * r2
            checked += 1
            if lhs != rhs:
                mismatches.append((v, w, lhs, rhs))
    return checked, mismatches


def _grid_vectors(model, bound):
    rng = range(-bound, bound + 1)
    return [
        MukaiVector(q[0], model.cls(*q[1:-1]), q[-1])
        for q in product(rng, repeat=model.ns_rank + 2)
    ]


class TestSignLaw:
    @given(mukai_vectors, mukai_vectors)
    def test_euler_form_is_minus_pairing_with_dual(self, v, w):
        assert euler_form(v, w) == -mukai_pair(v, mukai_dual(w))
        assert (euler_form(v, w) == 0) == (mukai_pair(v, mukai_dual(w)) == 0)

    def test_documented_discrepancy(self):
        o = structure_vector(E)
        assert euler_form(o, o) == 2
        assert mukai_pair(o, mukai_dual(o)) == -2

    def test_sweep_small(self):
        checked, mismatches, discrepancy = sign_law_sweep(E, 2)
        assert checked == (5 ** 4) * (5 ** 4 + 1) // 2
        assert mismatches == []
        assert discrepancy == {"euler_form(vO, vO)": 2, "<vO, vO_dual>": -2}

    def test_sweep_generic(self):
        checked, mismatches, _ = sign_law_sweep(generic_k3(6), 2)
        assert mismatches == []
        assert checked == (5 ** 3) * (5 ** 3 + 1) // 2

    @pytest.mark.parametrize("model", [E, G2, generic_k3(4), generic_k3(6), generic_k3(8)])
    @pytest.mark.parametrize("bound", [-1, 0, 1, 2])
    def test_gram_sweep_agrees_with_the_exhaustive_loop(self, model, bound):
        checked, mismatches, _ = sign_law_sweep(model, bound)
        ref_checked, ref_mismatches = _reference_sign_law_sweep(model, bound)
        assert checked == ref_checked
        assert mismatches == ref_mismatches == []

    @pytest.mark.parametrize("model", [E, G2])
    def test_broken_dual_is_caught_with_every_witness(self, model, monkeypatch):
        def broken_dual(v):
            return MukaiVector(v.r, -v.c1, -v.s)

        monkeypatch.setattr(surfaces, "mukai_dual", broken_dual)
        checked, mismatches, _ = sign_law_sweep(model, 1)
        vecs = _grid_vectors(model, 1)
        brute = []
        for i, v in enumerate(vecs):
            for w in vecs[i:]:
                lhs = euler_form(v, w)
                rhs = -mukai_pair(v, broken_dual(w))
                if lhs != rhs:
                    brute.append((v, w, lhs, rhs))
        assert checked == len(vecs) * (len(vecs) + 1) // 2
        assert mismatches
        assert all(lhs != rhs for _, _, lhs, rhs in mismatches)
        assert mismatches == brute

    @given(mukai_vectors, mukai_vectors)
    def test_hom_pairing_is_minus_mukai_on_k3(self, v, w):
        assert euler_pair_hom(v, w) == -mukai_pair(v, w)

    def test_hom_pairing_general_model(self):
        o = structure_vector(GEN3)
        assert euler_pair_hom(o, o) == 3
        # the canonical correction is antisymmetric
        v = MukaiVector(2, GEN3.cls(1, 0), 1)
        asym = euler_pair_hom(v, o) - euler_pair_hom(o, v)
        assert asym == ns_pair(v.c1, GEN3.canonical) - 2 * ns_pair(o.c1, GEN3.canonical)


class TestNormalizedVectors:
    def test_worked_example(self):
        assert normalized_vector(2, 9, E) == evec(2, 1, 7, -1)

    def test_rank_one_is_twisted_ideal_sheaf(self):
        for a in range(0, 8):
            assert normalized_vector(1, a, E) == evec(1, 1, a, 0)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            normalized_vector(0, 5, E)
        with pytest.raises(ValueError):
            normalized_vector(2, -1, E)
        with pytest.raises(ModelMismatchError):
            normalized_vector(2, 5, G2)

    def test_general_model_normalization(self):
        v = normalized_vector(3, 10, GEN3)
        assert chi_vec(v) == 1
        assert v.c1 == GEN3.cls(1, 10 - 3 * 2 * 3 // 2)


class TestVectorHelpers:
    def test_content(self):
        v = evec(4, 2, -6, 8)
        assert v.content() == 2

    def test_arithmetic(self):
        v, w = evec(1, 2, 3, 4), evec(5, 6, 7, 8)
        assert v + w == evec(6, 8, 10, 12)
        assert -v == evec(-1, -2, -3, -4)
        assert 3 * v == evec(3, 6, 9, 12)
        with pytest.raises(ModelMismatchError):
            v + MukaiVector(1, G2.hyperplane, 0)


# ---------------------------------------------------------------------------
# The per-kind formulas the models used before they carried one lattice
# description, kept as an independent reference for the branch-free algebra.
# ---------------------------------------------------------------------------

REFERENCE_MODELS = [elliptic_k3(), generic_k3(2), generic_k3(8),
                    elliptic_general(1), elliptic_general(3)]


def _ref_is_k3(model):
    return model.kind in (surfaces.GENERIC_K3, surfaces.ELLIPTIC_K3)


def _reference_dot(d1, d2):
    model = d1.model
    if model.kind == surfaces.GENERIC_K3:
        return d1.coeffs[0] * d2.coeffs[0] * model.degree
    x1, y1 = d1.coeffs
    x2, y2 = d2.coeffs
    return -model.chi_o * x1 * x2 + x1 * y2 + y1 * x2


def _reference_canonical(model):
    if model.kind == surfaces.ELLIPTIC_GENERAL:
        return model.cls(0, model.chi_o - 2)
    return model.zero


def _reference_str(d):
    if d.model.kind == surfaces.GENERIC_K3:
        return f"{d.coeffs[0]}H"
    x, y = d.coeffs
    return f"{x}s+{y}f"


def _reference_chi_rr(d):
    num = _reference_dot(d, d) - _reference_dot(d, _reference_canonical(d.model))
    return num // 2 + d.model.chi_o


def _reference_ch2(v):
    model = v.model
    if _ref_is_k3(model):
        return Fraction(v.s - v.r)
    k_dot = _reference_dot(v.c1, _reference_canonical(model))
    return Fraction(v.s - v.r * model.chi_o) + Fraction(k_dot, 2)


def _reference_chi_vec(v):
    return v.r + v.s if _ref_is_k3(v.model) else v.s


def _reference_mukai_dual(v):
    if _ref_is_k3(v.model):
        return MukaiVector(v.r, -v.c1, v.s)
    k_dot = _reference_dot(v.c1, _reference_canonical(v.model))
    return MukaiVector(v.r, -v.c1, v.s + k_dot)


def _reference_mukai_tensor(v, w):
    rank = v.r * w.r
    c1 = v.r * w.c1 + w.r * v.c1
    chi = (v.r * _reference_chi_vec(w) + w.r * _reference_chi_vec(v)
           + _reference_dot(v.c1, w.c1) - rank * v.model.chi_o)
    return MukaiVector(rank, c1, chi - rank if _ref_is_k3(v.model) else chi)


def _reference_structure_vector(model):
    return MukaiVector(1, model.zero, 1 if _ref_is_k3(model) else model.chi_o)


def _reference_line_bundle_vector(d):
    chi = _reference_chi_rr(d)
    return MukaiVector(1, d, chi - 1 if _ref_is_k3(d.model) else chi)


def _reference_ideal_sheaf_vector(d, n):
    chi = _reference_chi_rr(d) - n
    return MukaiVector(1, d, chi - 1 if _ref_is_k3(d.model) else chi)


def _reference_twist(v, d):
    c1 = v.c1 + v.r * d
    dd = _reference_dot(d, d)
    shift = _reference_dot(v.c1, d)
    if _ref_is_k3(v.model):
        return MukaiVector(v.r, c1, v.s + shift + v.r * dd // 2)
    num = v.r * (dd - _reference_dot(d, _reference_canonical(v.model)))
    return MukaiVector(v.r, c1, v.s + shift + num // 2)


def _reference_moduli_dim(v):
    c1sq = _reference_dot(v.c1, v.c1)
    c2 = Fraction(c1sq, 2) - _reference_ch2(v)
    dim = 2 * v.r * c2 - (v.r - 1) * c1sq - (v.r * v.r - 1) * v.model.chi_o
    assert dim.denominator == 1
    return int(dim)


def _reference_normalized_vector(r, a, model):
    c1 = model.cls(1, a - r * (r - 1) * model.chi_o // 2)
    if model.kind == surfaces.ELLIPTIC_K3:
        return MukaiVector(r, c1, 1 - r)
    return MukaiVector(r, c1, 1)


def _grid_classes(model, bound):
    return [model.cls(*c) for c in product(range(-bound, bound + 1), repeat=model.ns_rank)]


@pytest.mark.parametrize(
    "model", REFERENCE_MODELS, ids=lambda m: f"{m.kind}-{m.degree}-{m.chi_o}"
)
class TestBranchFreeAlgebraMatchesPerKindFormulas:
    def test_dot_and_str(self, model):
        classes = _grid_classes(model, 3)
        for d1 in classes:
            assert str(d1) == _reference_str(d1)
            for d2 in classes:
                assert d1.dot(d2) == _reference_dot(d1, d2)

    def test_unary_vector_functions(self, model):
        assert model.canonical == _reference_canonical(model)
        assert structure_vector(model) == _reference_structure_vector(model)
        for v in _grid_vectors(model, 2):
            assert chi_vec(v) == _reference_chi_vec(v)
            assert mukai_dual(v) == _reference_mukai_dual(v)
            assert moduli_dim(v) == _reference_moduli_dim(v)

    def test_tensor_and_twist(self, model):
        vectors = _grid_vectors(model, 1)
        classes = _grid_classes(model, 2)
        for v in vectors:
            for w in vectors:
                assert mukai_tensor(v, w) == _reference_mukai_tensor(v, w)
            for d in classes:
                assert twist(v, d) == _reference_twist(v, d)

    def test_line_bundle_and_ideal_sheaf_vectors(self, model):
        for d in _grid_classes(model, 3):
            for n in range(3):
                assert ideal_sheaf_vector(d, n) == _reference_ideal_sheaf_vector(d, n)

    def test_normalized_vector(self, model):
        for r in range(1, 5):
            for a in range(6):
                if model.ns_rank != 2:
                    with pytest.raises(ModelMismatchError):
                        normalized_vector(r, a, model)
                    continue
                assert normalized_vector(r, a, model) == _reference_normalized_vector(r, a, model)


class TestModelsAreBuiltOnce:
    def test_factories_return_one_model_per_parameter(self):
        assert elliptic_k3() is elliptic_k3()
        assert generic_k3(8) is generic_k3(8)
        assert elliptic_general(3) is elliptic_general(3)
        assert elliptic_general(2) is not elliptic_k3()

    def test_equal_copy_still_combines(self):
        copy = surfaces.SurfaceModel(surfaces.ELLIPTIC_K3)
        assert copy is not E and copy == E
        d = copy.cls(1, 2)
        assert d.dot(E.cls(0, 1)) == 1
        assert MukaiVector(1, d, 0) + evec(1, 0, 0, 0) == evec(2, 1, 2, 0)
        assert twist(evec(1, 0, 0, 0), d) == twist(evec(1, 0, 0, 0), E.cls(1, 2))

    def test_models_are_immutable_and_compare_by_their_parameters(self):
        with pytest.raises(AttributeError):
            E.chi_o = 3
        with pytest.raises(AttributeError):
            del E.gram
        assert E.chi_o == 2 and E.gram == ((-2, 1), (1, 0))
        assert hash(surfaces.SurfaceModel(surfaces.ELLIPTIC_K3)) == hash(E)
        assert elliptic_general(2) != E and generic_k3(8) != generic_k3(10)

    def test_general_model_at_chi_two_is_not_the_k3(self):
        gen2 = elliptic_general(2)
        with pytest.raises(ModelMismatchError):
            E.cls(1, 0).dot(gen2.cls(1, 0))


# ---------------------------------------------------------------------------
# The generator-based lattice algebra the models used before it was unrolled
# by NS rank and before its fields were unpacked inline, kept as the typed
# reference for both: it reads every field by name, runs the one shared
# operand guard and pairs classes with a double sum over the Gram matrix.
# ---------------------------------------------------------------------------

L0_MODELS = [elliptic_k3(), *(generic_k3(d) for d in (2, 4, 6, 8)),
             *(elliptic_general(c) for c in (1, 2, 3, 4))]


def _reference_require_same(a, b):
    """The operand guard of ``NSClass`` and ``MukaiVector``: type, then model."""
    name = type(a).__name__
    if not isinstance(b, type(a)):
        raise TypeError(f"expected {name}, got {type(b).__name__}")
    if a.model is not b.model and a.model != b.model:
        what = "NS classes" if name == "NSClass" else "Mukai vectors"
        raise ModelMismatchError(f"{what} live on different surface models")


def _reference_dot(d1, d2):
    _reference_require_same(d1, d2)
    g = d1.model.gram
    return sum(g[i][j] * a * b for i, a in enumerate(d1.coeffs) for j, b in enumerate(d2.coeffs))


def _reference_add(d1, d2):
    _reference_require_same(d1, d2)
    return surfaces.NSClass(d1.model, tuple(a + b for a, b in zip(d1.coeffs, d2.coeffs)))


def _reference_sub(d1, d2):
    _reference_require_same(d1, d2)
    return surfaces.NSClass(d1.model, tuple(a - b for a, b in zip(d1.coeffs, d2.coeffs)))


def _reference_neg(d):
    return surfaces.NSClass(d.model, tuple(-a for a in d.coeffs))


def _reference_rmul(k, d):
    if not isinstance(k, int):
        raise TypeError("NS classes only scale by integers")
    return surfaces.NSClass(d.model, tuple(k * a for a in d.coeffs))


def _reference_cls(model, *coeffs):
    if len(coeffs) != model.ns_rank:
        raise ValueError(f"{model.kind} expects {model.ns_rank} coefficient(s), got {len(coeffs)}")
    return surfaces.NSClass(model, tuple(int(c) for c in coeffs))


def _reference_vector_add(v, w):
    _reference_require_same(v, w)
    return MukaiVector(v.r + w.r, _reference_add(v.c1, w.c1), v.s + w.s)


def _reference_vector_sub(v, w):
    _reference_require_same(v, w)
    return MukaiVector(v.r - w.r, _reference_sub(v.c1, w.c1), v.s - w.s)


def _reference_vector_neg(v):
    return MukaiVector(-v.r, _reference_neg(v.c1), -v.s)


def _reference_vector_rmul(k, v):
    if not isinstance(k, int):
        raise TypeError("Mukai vectors only scale by integers")
    return MukaiVector(k * v.r, _reference_rmul(k, v.c1), k * v.s)


def _reference_chi_vec(v):
    return v.s + v.model.s_shift * v.r


def _reference_chi_rr(d):
    num = _reference_dot(d, d) - _reference_dot(d, d.model.canonical)
    assert num % 2 == 0
    return num // 2 + d.model.chi_o


def _reference_mukai_dual(v):
    return MukaiVector(v.r, _reference_neg(v.c1), v.s + _reference_dot(v.c1, v.model.canonical))


def _reference_mukai_pair(v, w):
    _reference_require_same(v, w)
    if not v.model.is_k3:
        raise ModelMismatchError(
            "the Mukai pairing needs integral degree-4 components; "
            "the general elliptic model stores chi instead"
        )
    return _reference_dot(v.c1, w.c1) - v.r * w.s - v.s * w.r


def _reference_typed_twist(v, d):
    model = v.model
    if model is not d.model and model != d.model:
        raise ModelMismatchError("twisting class lives on a different model")
    num = v.r * (_reference_dot(d, d) - _reference_dot(d, model.canonical))
    assert num % 2 == 0
    c1 = _reference_add(v.c1, _reference_rmul(v.r, d))
    return MukaiVector(v.r, c1, v.s + _reference_dot(v.c1, d) + num // 2)


def _reference_typed_mukai_tensor(v, w):
    _reference_require_same(v, w)
    model = v.model
    rank = v.r * w.r
    c1 = _reference_add(_reference_rmul(v.r, w.c1), _reference_rmul(w.r, v.c1))
    chi = (v.r * _reference_chi_vec(w) + w.r * _reference_chi_vec(v)
           + _reference_dot(v.c1, w.c1) - rank * model.chi_o)
    return MukaiVector(rank, c1, chi - model.s_shift * rank)


def _reference_euler_pair_hom(v, w):
    _reference_require_same(v, w)
    k = v.model.canonical
    return (
        v.r * _reference_chi_vec(w)
        + w.r * _reference_chi_vec(v)
        - v.r * w.r * v.model.chi_o
        - _reference_dot(v.c1, w.c1)
        + w.r * _reference_dot(v.c1, k)
    )


def _reference_moduli_dim(v):
    model = v.model
    c1sq = _reference_dot(v.c1, v.c1)
    twice_ch2 = 2 * (_reference_chi_vec(v) - v.r * model.chi_o) + _reference_dot(v.c1, model.canonical)
    return c1sq - v.r * twice_ch2 - (v.r * v.r - 1) * model.chi_o


def _l0_draws(n, seed=13):
    """n seeded draws (model, coefficient tuples, scalar, ranks and slots)."""
    rng = random.Random(seed)
    for _ in range(n):
        model = rng.choice(L0_MODELS)
        c1, c2 = ([rng.randint(-60, 60) for _ in range(model.ns_rank)] for _ in range(2))
        yield model, c1, c2, rng.randint(-12, 12), [rng.randint(-9, 9) for _ in range(4)]


class TestUnrolledAlgebraMatchesTypedReference:
    def test_class_algebra_twist_and_tensor(self):
        seen = set()
        for model, c1, c2, k, (r1, s1, r2, s2) in _l0_draws(2400):
            seen.add(model)
            d1, d2 = model.cls(*c1), model.cls(*c2)
            assert d1 == _reference_cls(model, *c1) and d1.coeffs == tuple(c1)
            assert d1 + d2 == _reference_add(d1, d2)
            assert d1 - d2 == _reference_sub(d1, d2)
            assert -d1 == _reference_neg(d1)
            assert k * d1 == _reference_rmul(k, d1) == d1 * k
            assert d1.dot(d2) == _reference_dot(d1, d2)
            assert chi_rr(d1) == _reference_chi_rr(d1)
            v, w = MukaiVector(r1, d1, s1), MukaiVector(r2, d2, s2)
            assert v + w == _reference_vector_add(v, w)
            assert v - w == _reference_vector_sub(v, w)
            assert -v == _reference_vector_neg(v)
            assert k * v == _reference_vector_rmul(k, v) == v * k
            assert chi_vec(v) == _reference_chi_vec(v)
            assert mukai_dual(v) == _reference_mukai_dual(v)
            assert moduli_dim(v) == _reference_moduli_dim(v)
            assert euler_pair_hom(v, w) == _reference_euler_pair_hom(v, w)
            if model.is_k3:
                assert mukai_pair(v, w) == _reference_mukai_pair(v, w)
            assert twist(v, d2) == _reference_typed_twist(v, d2)
            assert mukai_tensor(v, w) == _reference_typed_mukai_tensor(v, w)
        assert seen == set(L0_MODELS)

    def test_cls_converts_like_the_reference(self):
        for model in L0_MODELS:
            coeffs = ("3", 2.0, True)[: model.ns_rank]
            got, expected = model.cls(*coeffs), _reference_cls(model, *coeffs)
            assert got == expected
            assert [type(c) for c in got.coeffs] == [type(c) for c in expected.coeffs]

    @pytest.mark.parametrize("other", [G2.hyperplane, GEN3.cls(1, 0), elliptic_general(2).cls(0, 1)])
    def test_mixed_model_operand(self, other):
        d = E.cls(1, -2)
        cases = [
            (lambda: d + other, lambda: _reference_add(d, other)),
            (lambda: d - other, lambda: _reference_sub(d, other)),
            (lambda: twist(evec(2, 1, 0, -1), other),
             lambda: _reference_typed_twist(evec(2, 1, 0, -1), other)),
            (lambda: mukai_tensor(evec(2, 1, 0, -1), MukaiVector(1, other, 0)),
             lambda: _reference_typed_mukai_tensor(evec(2, 1, 0, -1), MukaiVector(1, other, 0))),
        ]
        for got, expected in cases:
            with pytest.raises(ModelMismatchError):
                got()
            with pytest.raises(ModelMismatchError):
                expected()

    @pytest.mark.parametrize("k", [Fraction(1, 2), Fraction(2), 1.5, 2.0, "2"])
    def test_non_int_scalar(self, k):
        for model in L0_MODELS:
            d = model.cls(*([1] * model.ns_rank))
            for op in (lambda: k * d, lambda: d * k, lambda: _reference_rmul(k, d)):
                with pytest.raises(TypeError):
                    op()

    @pytest.mark.parametrize("model", L0_MODELS, ids=lambda m: f"{m.kind}-{m.degree}-{m.chi_o}")
    def test_wrong_coefficient_count(self, model):
        for n in (0, 1, 2, 3):
            if n == model.ns_rank:
                continue
            with pytest.raises(ValueError, match="coefficient"):
                model.cls(*range(n))
            with pytest.raises(ValueError, match="coefficient"):
                _reference_cls(model, *range(n))


# ---------------------------------------------------------------------------
# The guard matrix: every operation that unpacks its fields and runs its
# operand guard inline refuses a non-class operand and a class of another
# model with the exception type and message the shared guard gave.
# ---------------------------------------------------------------------------

# one model of each kind, then a second model of two kinds with other parameters
GUARD_MODELS = [generic_k3(8), E, GEN3, generic_k3(2), elliptic_general(2)]
NS_MESSAGE = "NS classes live on different surface models"
MUKAI_MESSAGE = "Mukai vectors live on different surface models"


def _guard_class(model):
    return model.cls(*(1, -2)[: model.ns_rank])


def _guard_vector(model):
    return MukaiVector(2, _guard_class(model), -1)


# name: (operation, receiver, operand, typed reference, operand type, mismatch message)
GUARDED = {
    "NSClass.__add__": (operator.add, _guard_class, _guard_class, _reference_add,
                        "NSClass", NS_MESSAGE),
    "NSClass.__sub__": (operator.sub, _guard_class, _guard_class, _reference_sub,
                        "NSClass", NS_MESSAGE),
    "NSClass.dot": (lambda d1, d2: d1.dot(d2), _guard_class, _guard_class, _reference_dot,
                    "NSClass", NS_MESSAGE),
    "MukaiVector.__add__": (operator.add, _guard_vector, _guard_vector, _reference_vector_add,
                            "MukaiVector", MUKAI_MESSAGE),
    "MukaiVector.__sub__": (operator.sub, _guard_vector, _guard_vector, _reference_vector_sub,
                            "MukaiVector", MUKAI_MESSAGE),
    "mukai_tensor": (mukai_tensor, _guard_vector, _guard_vector, _reference_typed_mukai_tensor,
                     "MukaiVector", MUKAI_MESSAGE),
    "euler_form": (euler_form, _guard_vector, _guard_vector,
                   lambda v, w: _reference_chi_vec(_reference_typed_mukai_tensor(v, w)),
                   "MukaiVector", MUKAI_MESSAGE),
    "euler_pair_hom": (euler_pair_hom, _guard_vector, _guard_vector, _reference_euler_pair_hom,
                       "MukaiVector", MUKAI_MESSAGE),
    "mukai_pair": (mukai_pair, _guard_vector, _guard_vector, _reference_mukai_pair,
                   "MukaiVector", MUKAI_MESSAGE),
    "twist": (twist, _guard_vector, _guard_class, _reference_typed_twist,
              "NSClass", "twisting class lives on a different model"),
}


def _outcome(call):
    """The value of call(), or the type and message of what it raised."""
    try:
        return call()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _model_id(model):
    return f"{model.kind}-{model.degree or model.chi_o}"


class TestGuardMatrix:
    @pytest.mark.parametrize("other", GUARD_MODELS, ids=_model_id)
    @pytest.mark.parametrize("model", GUARD_MODELS, ids=_model_id)
    @pytest.mark.parametrize("name", list(GUARDED))
    def test_operand_of_another_model(self, name, model, other):
        op, receiver, operand, reference, _, message = GUARDED[name]
        a, b = receiver(model), operand(other)
        got, expected = _outcome(lambda: op(a, b)), _outcome(lambda: reference(a, b))
        assert got == expected
        if other != model:
            assert got == (ModelMismatchError, message)

    @pytest.mark.parametrize("model", GUARD_MODELS[:3], ids=_model_id)
    @pytest.mark.parametrize("name", list(GUARDED))
    def test_non_class_operand(self, name, model):
        op, receiver, operand, reference, expected_type, _ = GUARDED[name]
        a = receiver(model)
        # a plain tuple of the right shape, the other lattice type, and two non-tuples
        wrong = [5, None, tuple(operand(model))]
        wrong.append(_guard_vector(model) if expected_type == "NSClass" else _guard_class(model))
        for b in wrong:
            got = _outcome(lambda: op(a, b))
            assert got == (TypeError, f"expected {expected_type}, got {type(b).__name__}")
            if name != "twist":
                # twist read d.model before it had a type guard, so a non-class
                # operand raised AttributeError there
                assert got == _outcome(lambda: reference(a, b))

    @pytest.mark.parametrize("k", [Fraction(1, 2), 1.5, "2", None])
    @pytest.mark.parametrize("model", GUARD_MODELS[:3], ids=_model_id)
    def test_non_integer_scalar(self, model, k):
        d, v = _guard_class(model), _guard_vector(model)
        for x, reference, message in (
            (d, _reference_rmul, "NS classes only scale by integers"),
            (v, _reference_vector_rmul, "Mukai vectors only scale by integers"),
        ):
            for op in (lambda: k * x, lambda: x * k, lambda: reference(k, x)):
                assert _outcome(op) == (TypeError, message)

    @pytest.mark.parametrize("model", GUARD_MODELS, ids=_model_id)
    def test_one_operand_operations_agree_with_the_reference(self, model):
        d, v = _guard_class(model), _guard_vector(model)
        assert -d == _reference_neg(d) and -v == _reference_vector_neg(v)
        assert chi_rr(d) == _reference_chi_rr(d)
        assert chi_vec(v) == _reference_chi_vec(v)
        assert mukai_dual(v) == _reference_mukai_dual(v)
        assert moduli_dim(v) == _reference_moduli_dim(v)


# ---------------------------------------------------------------------------
# Records built with tuple.__new__ skip the generated __new__ and its
# argument check, so the arity each class declares is checked here.
# ---------------------------------------------------------------------------

ARITY_MODELS = [generic_k3(8), E, GEN3]


def _records_built_directly(model, c1, c2, k, r1, s1, r2, s2):
    """Every record the operations that build records directly return on ``model``."""
    d1, d2 = model.cls(*c1), model.cls(*c2)
    v, w = MukaiVector(r1, d1, s1), MukaiVector(r2, d2, s2)
    records = [
        d1, d1 + d2, d1 - d2, -d1, k * d1, d1 * k, model.zero,
        v + w, v - w, -v, k * v, v * k, mukai_dual(v), mukai_tensor(v, w), twist(v, d2),
        structure_vector(model), ideal_sheaf_vector(d1, abs(s2)),
    ]
    if model.ns_rank == 1:
        records += [model.hyperplane, *theta_classes(v)]
    else:
        records += [
            model.sigma, model.fiber, normalized_vector(abs(r1) + 1, abs(s1), model),
            coords_vector(model, (r1, *c1, s1)), fm_apply(derive_fm_matrix(model), v),
        ]
    return records


def _assert_whole_record(rec, model):
    assert len(rec) == len(type(rec)._fields)
    if type(rec) is MukaiVector:
        d = rec.c1
        assert type(d) is NSClass and len(d) == len(NSClass._fields)
        assert rec == MukaiVector(rec.r, NSClass(d.model, d.coeffs), rec.s)
    else:
        assert type(rec) is NSClass
        d = rec
    assert d.model == model
    assert len(d.coeffs) == len(model.labels)
    assert d == NSClass(d.model, d.coeffs)


class TestRecordArity:
    @settings(max_examples=150)
    @given(
        st.sampled_from(ARITY_MODELS),
        st.tuples(small, small), st.tuples(small, small),
        small, small, small, small, small,
    )
    def test_records_built_directly_have_the_declared_arity(self, model, c1, c2, k, r1, s1, r2, s2):
        n = model.ns_rank
        for rec in _records_built_directly(model, c1[:n], c2[:n], k, r1, s1, r2, s2):
            _assert_whole_record(rec, model)

    @pytest.mark.parametrize("model", ARITY_MODELS)
    def test_named_classes_are_held_by_the_model(self, model):
        # built once with the model: every read returns the same record
        named = {"zero": (0,) * model.ns_rank}
        if model.ns_rank == 1:
            named["hyperplane"] = (1,)
        else:
            named.update(sigma=(1, 0), fiber=(0, 1))
        for name, coeffs in named.items():
            cls = getattr(model, name)
            assert cls is getattr(model, name), name
            _assert_whole_record(cls, model)
            assert cls.coeffs == coeffs, name

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(-5, 0), st.integers(-5, 0))
    def test_theta_pair_records(self, r, s, chi, chi_prime):
        h2 = 2 * r * s - r * chi_prime - s * chi
        assume(h2 % 2 == 0)
        for rec in theta_pair(r, s, chi, chi_prime):
            _assert_whole_record(rec, generic_k3(h2))
