"""Divisor-class calculus on Hilbert schemes of points and their products.

Pic(X^[a]) = Pic(X) + Z.M with M = O^[a]; a class is stored as a base
divisor on the surface plus the integer M-exponent.  The tautological
line bundle of L is L^[a] = L_(a) (x) M.  Section counts follow the two
binomial formulas

    h0(X^[a], L_(a))  = C(h0(X, L) + a - 1, a)
    h0(X^[a], L^[a])  = C(h0(X, L), a)

with h0(X, L) from ``h0_surface``, the section-count rule of the elliptic
models.  Divisor classes are tracked as Picard elements, never as
effective divisors: effectivity statements are section-count statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .linalg import row_reduce
from .surfaces import (
    ModelMismatchError,
    NSClass,
    SurfaceModel,
    h0_coeffs,
    h0_surface,
)


def binom(n: int, k: int) -> int:
    """Exact big-integer binomial, 0 whenever k < 0 or n < k."""
    if k < 0 or n < k:
        return 0
    return comb(n, k)


@dataclass(frozen=True)
class HilbPicClass:
    """base_(a) (x) M^m on the Hilbert scheme of ``points`` points."""

    points: int
    base: NSClass
    m: int

    def __post_init__(self) -> None:
        if self.points < 1:
            raise ValueError("Hilbert scheme needs >= 1 point")

    def _require_same(self, other: "HilbPicClass") -> None:
        if self.points != other.points or self.base.model != other.base.model:
            raise ModelMismatchError("classes live on different Hilbert schemes")

    def __add__(self, other: "HilbPicClass") -> "HilbPicClass":
        self._require_same(other)
        return HilbPicClass(self.points, self.base + other.base, self.m + other.m)

    def __sub__(self, other: "HilbPicClass") -> "HilbPicClass":
        self._require_same(other)
        return HilbPicClass(self.points, self.base - other.base, self.m - other.m)

    def __neg__(self) -> "HilbPicClass":
        return HilbPicClass(self.points, -self.base, -self.m)

    def __rmul__(self, k: int) -> "HilbPicClass":
        return HilbPicClass(self.points, k * self.base, k * self.m)

    __mul__ = __rmul__


@dataclass(frozen=True)
class ProductClass:
    """External box product of classes on X^[a] x X^[b]."""

    left: HilbPicClass
    right: HilbPicClass

    def __add__(self, other: "ProductClass") -> "ProductClass":
        return ProductClass(self.left + other.left, self.right + other.right)

    def __sub__(self, other: "ProductClass") -> "ProductClass":
        return ProductClass(self.left - other.left, self.right - other.right)

    def __neg__(self) -> "ProductClass":
        return ProductClass(-self.left, -self.right)


def taut_class(base: NSClass, a: int) -> HilbPicClass:
    """L^[a] = L_(a) (x) M."""
    return HilbPicClass(a, base, 1)


def named_class(name: str, a: int, model: SurfaceModel, b: int | None = None):
    """The standard divisor classes Q, R, S on X^[a], and Q3 on a product.

    O(Q) = O((a-1)f)^[a]   (two points in one fiber)
    O(R) = M^-2            (two coincident points)
    O(S) = O(sigma)_(a)    (a point on the section)
    O(Q3) = O(bf)_(a) [x] O(af)_(b)  (points of Z and W in one fiber)
    """
    if model.ns_rank != 2:
        raise ModelMismatchError("named classes need the elliptic lattice")
    if name == "Q":
        return HilbPicClass(a, model.cls(0, a - 1), 1)
    if name == "R":
        return HilbPicClass(a, model.zero, -2)
    if name == "S":
        return HilbPicClass(a, model.sigma, 0)
    if name == "Q3":
        if b is None:
            raise ValueError("Q3 needs both point counts a and b")
        return ProductClass(
            HilbPicClass(a, model.cls(0, b), 0), HilbPicClass(b, model.cls(0, a), 0)
        )
    raise ValueError(f"unknown named class {name!r}")


def tau_pullback(c: HilbPicClass, a: int, b: int) -> ProductClass:
    """Pull back a class on X^[a+b] along the sum map X^[a] x X^[b] -> X^[a+b].

    On Picard groups the pullback is the diagonal embedding.
    """
    if c.points != a + b:
        raise ValueError(f"class lives on X^[{c.points}], expected X^[{a + b}]")
    return ProductClass(HilbPicClass(a, c.base, c.m), HilbPicClass(b, c.base, c.m))


def is_tau_pullback(p: ProductClass) -> bool:
    """True iff the product class lies on the diagonal (same base, same M-exponent)."""
    return p.left.base == p.right.base and p.left.m == p.right.m


def taut_sym_sections(base: NSClass, a: int) -> int:
    """h0(X^[a], L_(a)) = C(h0(L) + a - 1, a)."""
    return binom(h0_surface(base) + a - 1, a)


def taut_det_sections(base: NSClass, a: int) -> int:
    """h0(X^[a], L^[a]) = C(h0(L), a)."""
    return binom(h0_surface(base), a)


# ---------------------------------------------------------------------------
# The pullback-constraint solve for the correction divisor Gamma
# ---------------------------------------------------------------------------


_GAMMA_UNKNOWNS = ("q1", "r1", "r2", "s1", "s2")


def _relation_string(row: list[Fraction]) -> str:
    pivot = next(i for i, x in enumerate(row) if x != 0)
    rest = [(j, -row[j]) for j in range(pivot + 1, len(row)) if row[j] != 0]
    if not rest:
        return f"{_GAMMA_UNKNOWNS[pivot]} = 0"
    terms = " + ".join(
        _GAMMA_UNKNOWNS[j] if coef == 1 else f"{coef}*{_GAMMA_UNKNOWNS[j]}"
        for j, coef in rest
    )
    return f"{_GAMMA_UNKNOWNS[pivot]} = {terms}"


def solve_gamma_constraints(r: int, s: int, a: int, b: int) -> tuple[str, ...]:
    """Impose the diagonal condition on O(Gamma) and solve for the coefficients.

    Gamma = q1.Q1 + q3.Q3 + r1.R1 + r2.R2 + s1.S1 + s2.S2 with q2 = q3 = 0
    beforehand, so the unknowns are (q1, r1, r2, s1, s2).  O(Gamma) restricted
    to the two factors reads
    (O(q1(a-1)f + s1.sigma)_(a) (x) M^(q1-2r1)) [x] (O(s2.sigma)_(b) (x) M^(-2r2)),
    and the pullback condition along the sum map equates the two base
    classes and the two M-exponents:

        q1 * (a - 1) = 0        (fiber parts of the bases)
        s1 - s2      = 0        (section parts of the bases)
        q1 - 2 r1 + 2 r2 = 0    (M-exponents)

    solved exactly by row reduction.  On X^[1] there is no two-points-in-a-
    fiber divisor (h0(I_p) = 0), so q1 drops out of Gamma for a = 1 as well.
    Returns the reduced relations as sorted strings; the expected set is
    ("q1 = 0", "r1 = r2", "s1 = s2"), which leaves Gamma0 = r1.R + s1.S.
    """
    if min(r, s) < 2 or min(a, b) < 1:
        raise ValueError("need ranks >= 2 and point counts >= 1")
    rows = [
        [a - 1 if a > 1 else 1, 0, 0, 0, 0],
        [0, 0, 0, 1, -1],
        [1, -2, 2, 0, 0],
    ]
    reduced, _, _ = row_reduce(rows)
    return tuple(sorted(_relation_string(row) for row in reduced))


def gamma_product_class(
    model: SurfaceModel, a: int, b: int, q1: int, r1: int, r2: int, s1: int, s2: int
) -> ProductClass:
    """O(Gamma) on X^[a] x X^[b] for given coefficients (q2 = q3 = 0)."""
    left = HilbPicClass(a, q1 * model.cls(0, a - 1) + s1 * model.sigma, q1 - 2 * r1)
    right = HilbPicClass(b, s2 * model.sigma, -2 * r2)
    return ProductClass(left, right)


# ---------------------------------------------------------------------------
# Exclusion bookkeeping for the correction-divisor argument
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExclusionReport:
    """Section counts ruling divisor components in or out of the theta locus."""

    r: int
    s: int
    a: int
    b: int
    nu: int
    line_bundle: NSClass
    h0_l_minus_bf: int
    h0_l_minus_af: int
    h0_l_a1f: int  # h0(L((-a+1)f))
    h0_l_b1f: int
    h0_l_minus_sigma: int
    q3_left_count: int  # C(h0(L(-bf)), a)
    q3_right_count: int
    q1q2_left_count: int  # C(h0(L((-a+1)f)) + a - 1, a)
    q1q2_right_count: int
    s_count: int  # C(h0(L(-sigma)), a+b)
    q_count: int  # sym count of L((-a-b+1)f) on X^[a+b]
    q3_excluded: bool
    q1q2_excluded: bool
    exceptional_case: bool
    s_proper: bool
    q_proper: bool


def exclusion_flags(m: int, n: int, a: int, b: int, chi: int) -> tuple[bool, bool, bool, bool]:
    """The exclusion verdicts on L = m.sigma + n.f, as plain integers.

    Returns (q3_excluded, q1q2_excluded, s_proper, q_proper): Q3 is excluded
    when L(-bf) or L(-af) has no section, Q1/Q2 when L((-a+1)f) or L((-b+1)f)
    has none, S is proper when C(h0(L(-sigma)), a+b) = 0 and Q when the sym
    count of L((-a-b+1)f) on X^[a+b] is 0.  Every count is ``h0_coeffs`` at
    chi(O) = chi.  ``exclusion_report`` takes its flags from here.
    """
    q3_excluded = h0_coeffs(m, n - b, chi) == 0 or h0_coeffs(m, n - a, chi) == 0
    q1q2_excluded = h0_coeffs(m, n + 1 - a, chi) == 0 or h0_coeffs(m, n + 1 - b, chi) == 0
    s_proper = binom(h0_coeffs(m - 1, n, chi), a + b) == 0
    q_proper = binom(h0_coeffs(m, n + 1 - a - b, chi) + (a + b) - 1, a + b) == 0
    return q3_excluded, q1q2_excluded, s_proper, q_proper


def exclusion_report(r: int, s: int, a: int, b: int) -> ExclusionReport:
    """Run the section-count exclusions for valid duality parameters.

    Requires (r, s, a, b) to pass the divisibility/bound conditions; the
    theta line bundle is L = O((r+s)sigma + (2(r+s) - 2 - nu)f) on the
    elliptic K3.  Every count is ``h0_coeffs`` of L shifted by a multiple of
    f or by -sigma, taken on L's coefficients (m, n) at the K3's chi(O) = 2;
    the four verdicts are ``exclusion_flags`` on the same (m, n).
    """
    from .duality import compute_nu, duality_line_bundle_class

    model_nu = compute_nu(r, s, a, b)
    line = duality_line_bundle_class(r, s, model_nu)
    m, n = line.coeffs
    chi = line.model.chi_o
    q3_excluded, q1q2_excluded, s_proper, q_proper = exclusion_flags(m, n, a, b, chi)

    h0_mbf = h0_coeffs(m, n - b, chi)
    h0_maf = h0_coeffs(m, n - a, chi)
    h0_a1 = h0_coeffs(m, n + 1 - a, chi)
    h0_b1 = h0_coeffs(m, n + 1 - b, chi)
    h0_msig = h0_coeffs(m - 1, n, chi)
    return ExclusionReport(
        r=r,
        s=s,
        a=a,
        b=b,
        nu=model_nu,
        line_bundle=line,
        h0_l_minus_bf=h0_mbf,
        h0_l_minus_af=h0_maf,
        h0_l_a1f=h0_a1,
        h0_l_b1f=h0_b1,
        h0_l_minus_sigma=h0_msig,
        q3_left_count=binom(h0_mbf, a),
        q3_right_count=binom(h0_maf, b),
        q1q2_left_count=binom(h0_a1 + a - 1, a),
        q1q2_right_count=binom(h0_b1 + b - 1, b),
        s_count=binom(h0_msig, a + b),
        q_count=binom(h0_coeffs(m, n + 1 - a - b, chi) + (a + b) - 1, a + b),
        q3_excluded=q3_excluded,
        q1q2_excluded=q1q2_excluded,
        exceptional_case=not q1q2_excluded,
        s_proper=s_proper,
        q_proper=q_proper,
    )
