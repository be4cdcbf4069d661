"""Derivation and verification of the transform's lattice action."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strangedual.fourier_mukai as fourier_mukai

from strangedual.fourier_mukai import (
    FMDerivationError,
    FMMatrix,
    coords_vector,
    derive_bridge_matrix,
    derive_fm_matrix,
    fm_apply,
    fm_c1_grr,
    vector_coords,
    verify_fm_suite,
)
from strangedual.linalg import row_reduce
from strangedual.surfaces import (
    ModelMismatchError,
    MukaiVector,
    NSClass,
    elliptic_general,
    elliptic_k3,
    generic_k3,
    ideal_sheaf_vector,
    mukai_dual,
    mukai_pair,
    normalized_vector,
    structure_vector,
    twist,
)

E = elliptic_k3()

# Frozen oracle: solving the four defining constraints by hand (inputs
# v(E_r_dual) at (r,a) in {(1,0),(1,1),(2,0)} plus v(O) -> -v(O_sigma))
# gives these columns; re-derived below from scratch before use.
EXPECTED_COLUMNS = ((0, -1, -1, -1), (1, 0, 1, 1), (0, 0, 0, -1), (0, 0, 1, 0))


def _point_vector(model):
    """v(O_p) of a point sheaf: rank 0, c1 = 0, chi = 1."""
    return MukaiVector(0, model.zero, 1)


# On a fibre the transform sends a class of rank r and degree d to (d, -r).
# A sheaf of rank r and degree d on a fibre has coordinates (0, 0, r, d) on
# every elliptic model: rank 0, c1 = r.f and chi = d in the last slot.
ELLIPTIC_MODELS = [E, elliptic_general(1), elliptic_general(3)]


def _on_fiber(r, d):
    return (0, 0, r, d)


def _fiber_class(q):
    """(rank, degree) on the fibre of fibre-supported coordinates."""
    assert q[:2] == (0, 0), q
    return q[2], q[3]


@pytest.mark.parametrize("model", ELLIPTIC_MODELS, ids=lambda m: f"{m.kind}-{m.chi_o}")
class TestFiberTransform:
    def test_degree_one_bundles(self, model):
        matrix = derive_fm_matrix(model)
        for r in range(1, 6):
            assert _fiber_class(matrix.apply(_on_fiber(r, 1))) == (1, -r)

    def test_duals_pick_up_the_shift_sign(self, model):
        matrix = derive_fm_matrix(model)
        for r in range(1, 6):
            assert _fiber_class(matrix.apply(_on_fiber(r, -1))) == (-1, -r)

    def test_point_to_degree_zero(self, model):
        matrix = derive_fm_matrix(model)
        image = fm_apply(matrix, _point_vector(model))
        assert image == MukaiVector(0, model.fiber, 0)
        assert _fiber_class(vector_coords(image)) == (1, 0)

    def test_square_is_minus_identity(self, model):
        matrix = derive_fm_matrix(model)
        for r in range(-4, 5):
            for d in range(-4, 5):
                q = _on_fiber(r, d)
                assert matrix.apply(matrix.apply(q)) == tuple(-c for c in q)

    def test_rank_and_fiber_degree_follow_the_fiber_law(self, model):
        # the relative transform restricts to every fibre: (r, c1.f) -> (c1.f, -r)
        matrix = derive_fm_matrix(model)
        rng = range(-3, 4)
        for q in [(r, x, y, s) for r in rng for x in rng for y in rng for s in rng]:
            v, image = coords_vector(model, q), coords_vector(model, matrix.apply(q))
            assert (image.r, image.c1.dot(model.fiber)) == (v.c1.dot(model.fiber), -v.r), q


def _det4(rows):
    """Independent 4x4 determinant by cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j in range(len(rows)):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det4(minor)
    return total


def _defining_pairs(model):
    pairs = []
    for r, a in ((1, 0), (1, 1), (2, 0)):
        u = mukai_dual(normalized_vector(r, a, model))
        o = -ideal_sheaf_vector(model.cls(r, r * model.chi_o), a)
        pairs.append((vector_coords(u), vector_coords(o)))
    pairs.append(
        (vector_coords(structure_vector(model)),
         vector_coords(-MukaiVector(0, model.sigma, 1)))
    )
    return pairs


class TestDerivation:
    def test_unique_solve_matches_frozen_columns(self):
        matrix = derive_fm_matrix(E)
        assert matrix.columns == EXPECTED_COLUMNS

    def test_defining_inputs_are_independent(self):
        # the solve is genuinely determined: input vectors span the lattice
        pairs = _defining_pairs(E)
        assert _det4([list(u) for u, _ in pairs]) != 0

    def test_frozen_matrix_satisfies_every_defining_constraint(self):
        matrix = derive_fm_matrix(E)
        for u, o in _defining_pairs(E):
            assert matrix.apply(u) == o

    def test_determinant_is_unimodular(self):
        matrix = derive_fm_matrix(E)
        assert matrix.determinant() in (-1, 1)

    def test_isometry_all_basis_pairs(self):
        matrix = derive_fm_matrix(E)
        assert fourier_mukai._isometry_failures(matrix) == []
        basis = [coords_vector(E, tuple(int(i == j) for j in range(4))) for i in range(4)]
        for ei in basis:
            for ej in basis:
                assert mukai_pair(fm_apply(matrix, ei), fm_apply(matrix, ej)) == mukai_pair(ei, ej)

    def test_point_maps_to_fiber_class(self):
        matrix = derive_fm_matrix(E)
        point = coords_vector(E, (0, 0, 0, 1))
        image = fm_apply(matrix, point)
        assert vector_coords(image) == (0, 0, 1, 0)

    def test_rejects_non_elliptic_model(self):
        with pytest.raises(ModelMismatchError):
            derive_fm_matrix(generic_k3(4))


class TestImages:
    def test_structure_sheaf_normalization(self):
        matrix = derive_fm_matrix(E)
        image = fm_apply(matrix, structure_vector(E))
        assert image == -MukaiVector(0, E.sigma, 1)

    def test_dual_tower_images(self):
        matrix = derive_fm_matrix(E)
        for r in range(1, 7):
            for a in range(0, 21):
                u = mukai_dual(normalized_vector(r, a, E))
                expected = -ideal_sheaf_vector(E.cls(r, 2 * r), a)
                assert fm_apply(matrix, u) == expected

    def test_direct_tower_worked_instance(self):
        matrix = derive_fm_matrix(E)
        image = fm_apply(matrix, normalized_vector(2, 9, E))
        assert vector_coords(image) == (1, -2, -2, -8)

    def test_direct_tower_coordinates(self):
        matrix = derive_fm_matrix(E)
        for r in range(1, 7):
            for a in range(0, 15):
                image = fm_apply(matrix, normalized_vector(r, a, E))
                assert vector_coords(image) == (1, -r, -2 * (r - 1), (r - 1) ** 2 - a)

    def test_rank_one_base_case(self):
        # the transform of the twisted ideal-sheaf vector matches r = 1
        matrix = derive_fm_matrix(E)
        for a in range(0, 10):
            v1 = ideal_sheaf_vector(E.cls(1, a), a)
            assert normalized_vector(1, a, E) == v1
            image = fm_apply(matrix, v1)
            assert vector_coords(image) == (1, -1, 0, -a)

    def test_twist_rule(self):
        matrix = derive_fm_matrix(E)
        fib = E.fiber
        for r in range(1, 4):
            u = mukai_dual(normalized_vector(r, 5, E))
            base = fm_apply(matrix, u)
            for n in range(-3, 4):
                shifted = fm_apply(matrix, twist(u, n * fib))
                assert shifted == twist(base, n * fib)
                assert shifted.c1 == base.c1 - n * fib


class TestC1ByGRR:
    def test_structure_sheaf(self):
        assert fm_c1_grr(structure_vector(E)) == -E.sigma

    def test_dual_tower(self):
        for r in range(1, 6):
            u = mukai_dual(normalized_vector(r, 7, E))
            assert fm_c1_grr(u) == E.cls(-r, -2 * r)
            twisted = twist(u, 3 * E.fiber)
            assert fm_c1_grr(twisted) == E.cls(-r, -2 * r - 3)

    def test_agrees_with_matrix_on_grid(self):
        matrix = derive_fm_matrix(E)
        rng = range(-2, 3)
        for r in rng:
            for x in rng:
                for y in rng:
                    for s in rng:
                        v = coords_vector(E, (r, x, y, s))
                        assert fm_c1_grr(v) == fm_apply(matrix, v).c1

    def test_model_guard(self):
        v = MukaiVector(1, elliptic_general(3).zero, 3)
        with pytest.raises(ModelMismatchError):
            fm_c1_grr(v)


class TestBridge:
    def test_two_sided_identity(self):
        matrix = derive_fm_matrix(E)
        bridge = derive_bridge_matrix(matrix)
        identity = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        assert bridge.matmul(matrix).rows == identity
        assert matrix.matmul(bridge).rows == identity

    def test_bridge_sends_section_back(self):
        matrix = derive_fm_matrix(E)
        bridge = derive_bridge_matrix(matrix)
        o_sigma = MukaiVector(0, E.sigma, 1)
        assert fm_apply(bridge, o_sigma) == -structure_vector(E)


class TestSuite:
    def test_full_suite_elliptic_k3(self):
        matrix = derive_fm_matrix(E)
        report = verify_fm_suite(matrix, 6, 20)
        assert report.dual_images_ok
        assert report.direct_images_ok
        assert report.twist_rule_ok
        assert report.bridge_ok
        assert report.c1_grr_ok
        assert report.isometry_ok
        assert report.all_ok
        assert report.failures == {}

    @pytest.mark.parametrize("chi_o", [2, 3, 4])
    def test_general_model(self, chi_o):
        model = elliptic_general(chi_o)
        matrix = derive_fm_matrix(model)
        assert matrix.determinant() in (-1, 1)
        report = verify_fm_suite(matrix, 5, 12)
        assert report.isometry_ok
        assert report.all_ok

    def test_chi2_degeneration_matches_k3(self):
        model = elliptic_general(2)
        matrix = derive_fm_matrix(model)
        report = verify_fm_suite(matrix, 4, 8)
        assert report.degeneration_ok
        # spot check the base change chi = rank + s on one vector
        k3_matrix = derive_fm_matrix(E)
        v_k3 = coords_vector(E, (2, 1, 7, -1))
        v_gen = coords_vector(model, (2, 1, 7, 1))  # same class, chi slot
        img_k3 = vector_coords(fm_apply(k3_matrix, v_k3))
        img_gen = vector_coords(fm_apply(matrix, v_gen))
        assert img_gen == (img_k3[0], img_k3[1], img_k3[2], img_k3[0] + img_k3[3])

    def test_c1_check_catches_a_wrong_matrix(self):
        matrix = derive_fm_matrix(E)
        rows = [list(row) for row in matrix.rows]
        rows[1][3] += 1  # the x-coefficient of the image now depends on s
        broken = FMMatrix(E, tuple(tuple(row) for row in rows))
        report = verify_fm_suite(broken, 1, 0)
        assert report.c1_grr_ok is False
        assert report.failures["c1_grr"] == [(0, 0, 0, 1)]

    def test_degeneration_check_catches_a_wrong_matrix(self):
        model = elliptic_general(2)
        matrix = derive_fm_matrix(model)
        rows = [list(row) for row in matrix.rows]
        rows[2][0] += 1
        broken = FMMatrix(model, tuple(tuple(row) for row in rows))
        report = verify_fm_suite(broken, 1, 0)
        assert report.degeneration_ok is False
        assert report.failures["degeneration"] == [(1, 0, 0, 0)]
        assert not report.all_ok

    def test_chi3_matrix_is_integral_in_chi_coordinates(self):
        matrix = derive_fm_matrix(elliptic_general(3))
        assert matrix.columns == ((0, -1, -3, -1), (1, 0, 2, 3), (0, 0, 0, -1), (0, 0, 1, 0))


class TestLinalg:
    def test_determinant_matches_cofactor_expansion(self):
        rng = random.Random(5)
        matrices = [list(map(list, derive_fm_matrix(E).rows))]
        matrices.append([list(u) for u, _ in _defining_pairs(E)])
        for _ in range(40):
            matrices.append([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        # rank-deficient ones: a repeated row, and a row that is a sum of two
        for m in matrices[2:12]:
            matrices.append([m[0], m[1], m[2], m[0]])
            matrices.append([m[0], m[1], [a + b for a, b in zip(m[0], m[1])], m[3]])
        singular = 0
        for m in matrices:
            _, pivots, det = row_reduce(m)
            assert det == _det4(m)
            assert (det == 0) == (pivots != (0, 1, 2, 3))
            singular += det == 0
            assert FMMatrix(E, tuple(map(tuple, m))).determinant() == _det4(m)
        assert singular == 23

    def test_reduced_rows_solve_the_system(self):
        # [A | I] reduces to [I | A^-1]
        a = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 3], [0, 0, 0, 1]]
        aug = [row + [int(i == j) for j in range(4)] for i, row in enumerate(a)]
        reduced, pivots, det = row_reduce(aug)
        assert pivots == (0, 1, 2, 3) and det == 2 - 1
        inverse = [row[4:] for row in reduced]
        assert inverse == [[1, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 1, -3], [0, 0, 0, 1]]

    def test_singular_system_is_reported(self):
        reduced, pivots, det = row_reduce([[1, 2, 5], [2, 4, 7]])
        assert det == 0 and pivots == (0, 2)
        assert reduced == [[1, 2, 0], [0, 0, 1]]
        assert row_reduce([[0, 0], [0, 0]]) == ([], (), Fraction(0))

    def test_dependent_defining_inputs_are_rejected(self, monkeypatch):
        # the normalization repeats the first defining input: U is singular
        repeat = fourier_mukai._dual_tower_pair(1, 0, E)
        monkeypatch.setattr(fourier_mukai, "_normalization_pair", lambda model: repeat)
        with pytest.raises(FMDerivationError, match="linearly dependent"):
            derive_fm_matrix(E)

    def test_residual_is_rejected(self, monkeypatch):
        # a wrong image at one grid point outside the defining system
        original = fourier_mukai._dual_tower_pair

        def perturbed(r, a, model):
            u, o = original(r, a, model)
            return (u, o + _point_vector(model)) if (r, a) == (3, 2) else (u, o)

        monkeypatch.setattr(fourier_mukai, "_dual_tower_pair", perturbed)
        with pytest.raises(FMDerivationError, match=r"conflict with the solved matrix at \[\(3, 2\)\]"):
            derive_fm_matrix(E)

    @pytest.mark.parametrize("a", [1, 2, 9])
    def test_gamma_relations_unchanged(self, a):
        # a rectangular system: the diagonal conditions on the correction
        # divisor's coefficients (q1, r1, r2, s1, s2)
        q1 = a - 1 if a > 1 else 1
        reduced, pivots, _ = row_reduce([[q1, 0, 0, 0, 0], [0, 0, 0, 1, -1], [1, -2, 2, 0, 0]])
        assert pivots == (0, 1, 3)
        assert reduced == [[1, 0, 0, 0, 0], [0, 1, -1, 0, 0], [0, 0, 0, 1, -1]]


# ---------------------------------------------------------------------------
# The elimination over Fractions that row_reduce ran before it became
# fraction-free, kept as its reference.
# ---------------------------------------------------------------------------


def _fraction_row_reduce(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    pivots = []
    det = Fraction(1)
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pivot = next((i for i in range(rank, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        lead = rows[rank][col]
        det *= lead
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
    if pivots != list(range(n)):
        det = Fraction(0)
    return rows[: len(pivots)], tuple(pivots), det


@st.composite
def integer_matrices(draw):
    """Integer matrices of shape 4x4, 4x8 or any other up to 6x9.

    One row may be replaced by a combination of two others (a singular
    leading block), and the first row may lose its leading entry, so that
    the first pivot needs a row swap.
    """
    n, m = draw(st.sampled_from([(4, 4), (4, 8)]) | st.tuples(st.integers(1, 6), st.integers(1, 9)))
    entries = st.integers(-9, 9)
    rows = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    if draw(st.booleans()):
        rows[0][0] = 0
    return rows


class TestFractionFreeElimination:
    @settings(max_examples=400, deadline=None)
    @given(integer_matrices())
    @example([[0, 3, 2, 1], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])  # a swap: det -3
    @example([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [1, 1, 1, 1]])  # singular
    @example([[0, 0, 0], [0, 0, 5]])  # a zero row and a skipped column
    def test_matches_the_fraction_reference(self, matrix):
        reduced, pivots, det = row_reduce(matrix)
        expected_rows, expected_pivots, expected_det = _fraction_row_reduce(matrix)
        assert pivots == expected_pivots
        assert reduced == expected_rows
        assert det == expected_det
        assert all(type(x) is Fraction for row in reduced for x in row)
        assert type(det) is Fraction

    def test_the_transform_systems_match_the_reference(self):
        for model in ELLIPTIC_MODELS:
            system = [list(u) + list(o) for u, o in fourier_mukai._defining_quads(model)]
            matrix = derive_fm_matrix(model)
            for rows in (system, [list(row) for row in matrix.rows]):
                assert row_reduce(rows) == _fraction_row_reduce(rows)

    @pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, "1"])
    def test_non_integer_entries_are_refused(self, entry):
        with pytest.raises(TypeError, match="rows of integers"):
            row_reduce([[1, 0], [0, entry]])


# ---------------------------------------------------------------------------
# The operand guards of the transform: fm_apply refuses a non-vector, and a
# vector of another model, with its own message on every surface kind.
# ---------------------------------------------------------------------------

GUARD_VECTORS = {
    "elliptic-k3": MukaiVector(2, E.cls(1, -3), -1),
    "elliptic-general-3": MukaiVector(2, elliptic_general(3).cls(1, -3), -1),
    "elliptic-general-2": MukaiVector(2, elliptic_general(2).cls(1, -3), -1),
    "generic-k3": MukaiVector(2, generic_k3(8).cls(1), -1),
}


class TestTransformGuards:
    @pytest.mark.parametrize("model", [E, elliptic_general(2), elliptic_general(3)],
                             ids=lambda m: f"{m.kind}-{m.chi_o}")
    @pytest.mark.parametrize("kind", list(GUARD_VECTORS))
    def test_fm_apply_on_each_surface_kind(self, model, kind):
        matrix = derive_fm_matrix(model)
        v = GUARD_VECTORS[kind]
        if v.model == model:
            image = fm_apply(matrix, v)
            assert vector_coords(image) == matrix.apply(vector_coords(v))
            return
        with pytest.raises(ModelMismatchError) as info:
            fm_apply(matrix, v)
        assert str(info.value) == "vector and transform matrix live on different models"

    @pytest.mark.parametrize("operand", [5, (2, E.cls(1, 0), -1), E.cls(1, 0), None],
                             ids=["int", "tuple", "NSClass", "None"])
    def test_fm_apply_refuses_a_non_vector(self, operand):
        with pytest.raises(TypeError) as info:
            fm_apply(derive_fm_matrix(E), operand)
        assert str(info.value) == f"expected MukaiVector, got {type(operand).__name__}"

    def test_vector_coords_needs_the_elliptic_lattice(self):
        for kind, v in GUARD_VECTORS.items():
            if kind == "generic-k3":
                for call in (lambda: vector_coords(v), lambda: coords_vector(v.model, (2, 1, -3, -1))):
                    with pytest.raises(ModelMismatchError) as info:
                        call()
                    assert str(info.value) == "transform coordinates need the elliptic lattice"
            else:
                assert vector_coords(v) == (2, 1, -3, -1)
                assert coords_vector(v.model, vector_coords(v)) == v
                assert type(coords_vector(v.model, (1, 2, 3, 4)).c1) is NSClass

    def test_apply_is_the_matrix_product(self):
        rng = random.Random(3)
        for _ in range(200):
            rows = tuple(tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(4))
            q = tuple(rng.randint(-9, 9) for _ in range(4))
            expected = tuple(sum(row[j] * q[j] for j in range(4)) for row in rows)
            assert FMMatrix(E, rows).apply(q) == expected
