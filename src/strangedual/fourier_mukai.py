"""The lattice action of the relative Fourier-Mukai transform.

The transform along the fibration sends the structure sheaf to the section
(shifted by one) and the dual of the rank-r tower sheaf to a twisted ideal
sheaf, again shifted.  On K-theory a shift into odd degree is a sign, so
these statements pin down a linear map on vector coordinates

    (rank, x, y, s)    with c1 = x.sigma + y.f.

The map is never hard-coded: :func:`derive_fm_matrix` solves the linear
constraint system exactly (Fraction arithmetic), raises unless it is
uniquely solvable, and re-checks every remaining constraint on a grid.  The
matrix for the elliptic K3 acts on Mukai coordinates (s = v4); the general
elliptic model has no integral v4 and its matrix acts on (rank, x, y, chi)
coordinates instead.  For chi(O) = 2 the two are conjugate under the base
change chi = rank + s, and the suite checks that identification exactly.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .linalg import row_reduce
from .surfaces import (
    ELLIPTIC_GENERAL,
    ELLIPTIC_K3,
    ModelMismatchError,
    MukaiVector,
    NSClass,
    SurfaceModel,
    chi_vec,
    elliptic_k3,
    euler_pair_hom,
    ideal_sheaf_vector,
    mukai_dual,
    mukai_pair,
    normalized_vector,
    structure_vector,
    twist,
)

Quad = tuple[int, int, int, int]


class FMDerivationError(ValueError):
    """The transform constraints are inconsistent or underdetermined."""


# ---------------------------------------------------------------------------
# Matrix machinery (exact)
# ---------------------------------------------------------------------------


def vector_coords(v: MukaiVector) -> Quad:
    if v.model.ns_rank != 2:
        raise ModelMismatchError("transform coordinates need the elliptic lattice")
    x, y = v.c1.coeffs
    return (v.r, x, y, v.s)


def coords_vector(model: SurfaceModel, q: Quad) -> MukaiVector:
    return MukaiVector(q[0], model.cls(q[1], q[2]), q[3])


class FMMatrix(NamedTuple):
    """A 4x4 integer matrix acting on (rank, x, y, s) coordinates."""

    model: SurfaceModel
    rows: tuple[Quad, Quad, Quad, Quad]

    def apply(self, q: Quad) -> Quad:
        return tuple(sum(r[j] * q[j] for j in range(4)) for r in self.rows)  # type: ignore[return-value]

    def column(self, j: int) -> Quad:
        return tuple(self.rows[i][j] for i in range(4))  # type: ignore[return-value]

    @property
    def columns(self) -> tuple[Quad, Quad, Quad, Quad]:
        return tuple(self.column(j) for j in range(4))  # type: ignore[return-value]

    def matmul(self, other: "FMMatrix") -> "FMMatrix":
        rows = tuple(
            tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(4)) for j in range(4))
            for i in range(4)
        )
        return FMMatrix(self.model, rows)  # type: ignore[arg-type]

    def determinant(self) -> int:
        _, _, det = row_reduce(self.rows)
        assert det.denominator == 1
        return int(det)


def _fit_matrix(model: SurfaceModel, pairs: list[tuple[Quad, Quad]]) -> FMMatrix | None:
    """The matrix M with M.u = o for four (u, o) pairs; None when the u's are dependent.

    M = O.U^-1 with U the column matrix of inputs.  Solving M.U = O row by
    row is solving U^T.M^T = O^T, so [U^T | O^T] is row-reduced exactly and
    M^T read off its right half.  None rather than a guess when U is singular.
    """
    reduced, _, det = row_reduce([list(u) + list(o) for u, o in pairs])
    if det == 0:
        return None
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            e = reduced[j][4 + i]
            if e.denominator != 1:
                raise FMDerivationError(f"non-integral matrix entry {e} from the constraints")
            row.append(int(e))
        rows.append(tuple(row))
    return FMMatrix(model, tuple(rows))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Constraints from the displayed transforms
# ---------------------------------------------------------------------------


def _dual_tower_pair(r: int, a: int, model: SurfaceModel) -> tuple[MukaiVector, MukaiVector]:
    """(input, image) for the transform of the dual tower sheaf.

    The dual of the rank-r tower sheaf goes to I_Z(r.sigma + r.chi(O).f)
    shifted by one; the shift is a sign on K-classes.
    """
    u = mukai_dual(normalized_vector(r, a, model))
    d = model.cls(r, r * model.chi_o)
    o = -ideal_sheaf_vector(d, a)
    return u, o


def _normalization_pair(model: SurfaceModel) -> tuple[MukaiVector, MukaiVector]:
    """The structure sheaf goes to the section class, shifted by one."""
    u = structure_vector(model)
    o = -MukaiVector(0, model.sigma, 1)  # v(O_sigma): chi = 1, s-slot 1 on both models
    return u, o


_DEFINING = ((1, 0), (1, 1), (2, 0))


def _defining_quads(model: SurfaceModel) -> list[tuple[Quad, Quad]]:
    """(input, image) coordinates of the defining dual-tower images and the normalization."""
    pairs = [_dual_tower_pair(r, a, model) for r, a in _DEFINING]
    pairs.append(_normalization_pair(model))
    return [(vector_coords(u), vector_coords(o)) for u, o in pairs]


def derive_fm_matrix(model: SurfaceModel | None = None) -> FMMatrix:
    """Solve for the unique lattice map realizing the displayed transforms.

    The defining system uses the dual-tower images at (r, a) in
    {(1,0), (1,1), (2,0)} plus the structure-sheaf normalization; every
    further grid point with r <= 4 and a <= 6 is then re-checked.  A
    dependent system or any residual raises ``FMDerivationError`` (the
    constraints are never silently pruned), so a returned matrix is the
    unique solution and satisfies every checked constraint.
    """
    if model is None:
        model = elliptic_k3()
    if model.ns_rank != 2:
        raise ModelMismatchError("the transform is defined on the elliptic models")

    matrix = _fit_matrix(model, _defining_quads(model))
    if matrix is None:
        raise FMDerivationError(
            f"defining constraints {_DEFINING} + normalization are linearly dependent"
        )

    failures = []
    for r in range(1, 5):
        for a in range(0, 7):
            u, o = _dual_tower_pair(r, a, model)
            if matrix.apply(vector_coords(u)) != vector_coords(o):
                failures.append((r, a))
    if failures:
        raise FMDerivationError(f"constraints conflict with the solved matrix at {failures}")
    return matrix


# the coordinate basis, which is also the rows of the identity matrix
_BASIS: tuple[Quad, ...] = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
_PAIRS = tuple(product(range(4), repeat=2))  # the 16 index pairs (i, j)


def _isometry_failures(matrix: FMMatrix) -> list[tuple[int, int]]:
    """The basis pairs (i, j), of all 16, whose pairing the matrix does not preserve.

    On the K3 model both the Mukai pairing and the Hom-Euler pairing are
    checked; the general model has only the latter.
    """
    model = matrix.model
    basis = [coords_vector(model, e) for e in _BASIS]
    images = [fm_apply(matrix, e) for e in basis]
    return [
        (i, j)
        for i, j in _PAIRS
        if euler_pair_hom(images[i], images[j]) != euler_pair_hom(basis[i], basis[j])
        or (model.is_k3 and mukai_pair(images[i], images[j]) != mukai_pair(basis[i], basis[j]))
    ]


def fm_apply(matrix: FMMatrix, v: MukaiVector) -> MukaiVector:
    """Matrix-vector product in the model's transform coordinates."""
    if v.model != matrix.model:
        raise ModelMismatchError("vector and transform matrix live on different models")
    return coords_vector(matrix.model, matrix.apply(vector_coords(v)))


def fm_c1_grr(v: MukaiVector) -> NSClass:
    """c1 of the transform of v, straight from Grothendieck-Riemann-Roch.

    For a class of rank r, Euler characteristic chi and c1 = l.sigma + m.f
    on the elliptic K3, the pushforward computation gives
    -r.sigma + (chi - 2r + l).f, independently of the derived matrix.
    """
    if v.model.kind != ELLIPTIC_K3:
        raise ModelMismatchError("the closed-form c1 is computed on the elliptic K3")
    el = v.c1.coeffs[0]
    return v.model.cls(-v.r, chi_vec(v) - 2 * v.r + el)


def derive_bridge_matrix(matrix: FMMatrix) -> FMMatrix:
    """The inverse-direction transform, derived from the same image set.

    The composite of the two transforms is the identity up to an even shift,
    so the inverse functor must send each displayed image back to its
    source; solving those swapped constraints independently and multiplying
    out is a consistency check on the whole derivation.
    """
    swapped = [(o, u) for u, o in _defining_quads(matrix.model)]
    bridge = _fit_matrix(matrix.model, swapped)
    if bridge is None:
        raise FMDerivationError("bridge constraints are linearly dependent")
    return bridge


# ---------------------------------------------------------------------------
# The verification suite
# ---------------------------------------------------------------------------


class FMSuiteReport(NamedTuple):
    dual_images_ok: bool
    direct_images_ok: bool
    twist_rule_ok: bool
    bridge_ok: bool
    c1_grr_ok: bool | None
    isometry_ok: bool
    degeneration_ok: bool | None
    failures: dict  # where each failing fact fails; empty exactly when every fact holds

    @property
    def all_ok(self) -> bool:
        return not self.failures


def _direct_image_expected(r: int, a: int, model: SurfaceModel) -> MukaiVector:
    """The unshifted image of the rank-r tower sheaf itself.

    A dual ideal sheaf has the same lattice class as the ideal sheaf (its c1
    vanishes), so the image class is that of I(-r.sigma - (r-1).chi(O).f)
    with a points subtracted; on the K3 the s-slot works out to (r-1)^2 - a.
    """
    d = model.cls(-r, -(r - 1) * model.chi_o)
    return ideal_sheaf_vector(d, a)


def verify_fm_suite(matrix: FMMatrix, r_max: int, a_max: int) -> FMSuiteReport:
    """Assert every displayed transform identity on the (r, a) grid.

    Each fact that fails lists in ``failures`` where it fails: grid points,
    twists, missed identity entries, basis pairs or basis vectors.
    """
    model = matrix.model
    dual_fail = []
    direct_fail = []
    for r in range(1, r_max + 1):
        for a in range(0, a_max + 1):
            u, o = _dual_tower_pair(r, a, model)
            if fm_apply(matrix, u) != o:
                dual_fail.append((r, a))
            image = fm_apply(matrix, normalized_vector(r, a, model))
            if image != _direct_image_expected(r, a, model):
                direct_fail.append((r, a))

    twist_fail = []
    fib = model.fiber
    for r in range(1, min(r_max, 3) + 1):
        for a in range(0, min(a_max, 4) + 1):
            u, _ = _dual_tower_pair(r, a, model)
            base_image = fm_apply(matrix, u)
            for n in range(-3, 4):
                shifted = fm_apply(matrix, twist(u, n * fib))
                if shifted != twist(base_image, n * fib):
                    twist_fail.append((r, a, n))
                    continue
                # rank of the image class is -1, so the c1 shift is -n.f
                if shifted.c1 != base_image.c1 - n * fib:
                    twist_fail.append((r, a, n))

    bridge = derive_bridge_matrix(matrix)
    products = (bridge.matmul(matrix), matrix.matmul(bridge))
    # the identity entries (i, j) that either product misses
    bridge_fail = [(i, j) for i, j in _PAIRS if any(p.rows[i][j] != _BASIS[i][j] for p in products)]

    c1_fail = None  # None where a fact does not apply to the model
    if model.kind == ELLIPTIC_K3:
        # both sides are linear in v, so they agree everywhere iff on a basis
        basis = [coords_vector(model, quad) for quad in _BASIS]
        c1_fail = [vector_coords(v) for v in basis if fm_c1_grr(v) != fm_apply(matrix, v).c1]
    degeneration_fail = None
    if model.kind == ELLIPTIC_GENERAL and model.chi_o == 2:
        degeneration_fail = _degeneration_failures(matrix)

    found = {
        "dual_images": dual_fail,
        "direct_images": direct_fail,
        "twist_rule": twist_fail,
        "bridge": bridge_fail,
        "c1_grr": c1_fail,
        "isometry": _isometry_failures(matrix),
        "degeneration": degeneration_fail,
    }
    # each fact's flag and its failures entry come from the same list
    return FMSuiteReport(
        **{f"{key}_ok": None if where is None else not where for key, where in found.items()},
        failures={key: where for key, where in found.items() if where},
    )


def _degeneration_failures(matrix: FMMatrix) -> list[Quad]:
    """The basis vectors on which chi(O) = 2 does not reproduce the
    elliptic-K3 matrix; it must reproduce it exactly.

    The general model stores chi where the K3 stores s = chi - rank; under
    that base change the two linear actions must agree, which is to say on
    the coordinate basis.
    """
    k3 = elliptic_k3()
    k3_matrix = derive_fm_matrix(k3)

    def to_chi(q: Quad) -> Quad:
        return (q[0], q[1], q[2], q[0] + q[3])

    def to_s(q: Quad) -> Quad:
        return (q[0], q[1], q[2], q[3] - q[0])

    return [e for e in _BASIS if to_s(matrix.apply(to_chi(e))) != k3_matrix.apply(e)]


__all__ = [
    "FMMatrix",
    "FMSuiteReport",
    "FMDerivationError",
    "vector_coords",
    "coords_vector",
    "derive_fm_matrix",
    "derive_bridge_matrix",
    "fm_apply",
    "fm_c1_grr",
    "verify_fm_suite",
]
