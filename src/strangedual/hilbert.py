"""Section counts on Hilbert schemes of points and the exclusion bookkeeping.

The tautological line bundle of L on X^[a] is L^[a] = L_(a) (x) M with
M = O^[a].  Its section count is the binomial

    h0(X^[a], L^[a])  = C(h0(X, L), a)

with h0(X, L) from ``h0_surface``, the section-count rule of the elliptic
models.  Effectivity statements are section-count statements: the
exclusions below rule components of the correction divisor in or out by
counting sections of L shifted by fiber and section classes.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .surfaces import ModelMismatchError, NSClass, SurfaceModel, elliptic_k3, h0_coeffs, h0_surface

if TYPE_CHECKING:  # duality imports this module
    from .duality import DualityInstance


def binom(n: int, k: int) -> int:
    """Exact big-integer binomial, 0 whenever k < 0 or n < k."""
    if k < 0 or n < k:
        return 0
    return comb(n, k)


def taut_det_sections(base: NSClass, a: int) -> int:
    """h0(X^[a], L^[a]) = C(h0(L), a)."""
    return binom(h0_surface(base), a)


# ---------------------------------------------------------------------------
# Exclusion bookkeeping for the correction-divisor argument
# ---------------------------------------------------------------------------


class ExclusionReport(NamedTuple):
    """Section counts ruling divisor components in or out of the theta locus."""

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
    q_count: int  # C(h0(L((-a-b+1)f)) + a+b-1, a+b)
    q3_excluded: bool
    q1q2_excluded: bool
    s_proper: bool
    q_proper: bool


def require_exclusion_model(model: SurfaceModel) -> None:
    """Raise ModelMismatchError unless ``model`` is the elliptic K3, where the
    exclusion argument's classes live."""
    if model != elliptic_k3():
        raise ModelMismatchError("the classes Q, R and S are defined on the elliptic K3")


def exclusion_flags(m: int, n: int, a: int, b: int, chi: int) -> tuple[bool, bool, bool, bool]:
    """The exclusion verdicts on L = m.sigma + n.f, as plain integers.

    Returns (q3_excluded, q1q2_excluded, s_proper, q_proper): Q3 is excluded
    when L(-bf) or L(-af) has no section, Q1/Q2 when L((-a+1)f) or L((-b+1)f)
    has none, S is proper when C(h0(L(-sigma)), a+b) = 0 and Q when
    C(h0(L((-a-b+1)f)) + a+b-1, a+b) = 0.  Every count is ``h0_coeffs`` at
    chi(O) = chi.  ``exclusion_report`` takes its flags from here.
    """
    q3_excluded = h0_coeffs(m, n - b, chi) == 0 or h0_coeffs(m, n - a, chi) == 0
    q1q2_excluded = h0_coeffs(m, n + 1 - a, chi) == 0 or h0_coeffs(m, n + 1 - b, chi) == 0
    s_proper = binom(h0_coeffs(m - 1, n, chi), a + b) == 0
    q_proper = binom(h0_coeffs(m, n + 1 - a - b, chi) + (a + b) - 1, a + b) == 0
    return q3_excluded, q1q2_excluded, s_proper, q_proper


def exclusion_report(inst: DualityInstance) -> ExclusionReport:
    """Run the section-count exclusions on an elliptic-K3 instance.

    The instance is built from valid duality parameters (r, s, a, b) and
    carries nu and the theta line bundle L = O((r+s)sigma + (2(r+s) - 2 -
    nu)f).  Every count is ``h0_coeffs`` of L shifted by a multiple of f or
    by -sigma, taken on L's coefficients (m, n) at the K3's chi(O) = 2; the
    four verdicts are ``exclusion_flags`` on the same (m, n).
    """
    require_exclusion_model(inst.surface)
    a, b, line = inst.a, inst.b, inst.line_bundle
    (m, n), chi = line.coeffs, inst.surface.chi_o
    q3_excluded, q1q2_excluded, s_proper, q_proper = exclusion_flags(m, n, a, b, chi)

    h0_mbf = h0_coeffs(m, n - b, chi)
    h0_maf = h0_coeffs(m, n - a, chi)
    h0_a1 = h0_coeffs(m, n + 1 - a, chi)
    h0_b1 = h0_coeffs(m, n + 1 - b, chi)
    h0_msig = h0_coeffs(m - 1, n, chi)
    return ExclusionReport(
        nu=inst.nu,
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
        s_proper=s_proper,
        q_proper=q_proper,
    )
