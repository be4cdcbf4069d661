"""Numerical hypothesis checks and dimension bookkeeping for the duality map.

Given two normalized moduli spaces of ranks r, s and half-dimensions a, b on
an elliptic surface with chi(O) = chi, the pairing vanishing
chi(E . F(nu f)) = 0 pins the twist nu through the one rule

    -nu = (a+b-chi)/(r+s) - (r+s-1)chi/2 + 1 >= chi,

which on the elliptic K3 (chi = 2) reads -nu = (a+b-2)/(r+s) - (r+s-2) >= 2.
The candidate theta bundle comes from L = O((r+s)sigma + ((r+s-1)chi - nu)f
+ K), with chi(L) = a+b.

This module builds such instances, verifies the hypothesis lists of the
duality theorems, matches theta-section counts across the two factors, walks
the rank-raising tower of moduli spaces at chi-level, and checks the exact
lattice identity behind the big-and-nef theta bundles used in the
deformation argument.  The ``judge_*`` functions at the end give the verdicts
of the CLI's checks on these facts and on the exclusions.
"""

from __future__ import annotations

from typing import NamedTuple

from .hilbert import (
    binom,
    exclusion_group_flags,
    exclusion_point_flags,
    exclusion_report,
    exclusions_hold,
    require_exclusion_model,
    taut_det_sections,
)
from .surfaces import (
    ELLIPTIC_K3,
    GENERIC_K3,
    MissingParamsError,
    ModelMismatchError,
    MukaiVector,
    NothingToExamineError,
    NSClass,
    SurfaceModel,
    chi_rr,
    chi_vec,
    elliptic_general,
    elliptic_k3,
    euler_form,
    euler_pair_hom,
    generic_k3,
    h0_surface,
    moduli_dim,
    mukai_dual,
    mukai_pair,
    normalized_vector,
    ns_pair,
    structure_vector,
    twist,
)


class DivisibilityError(ValueError):
    """a + b fails the divisibility required for an integral twist."""


class NuBoundError(ValueError):
    """The twist bound -nu >= chi(O) fails (-nu >= 2 on the elliptic K3)."""


_RANKS_MESSAGE = "both ranks must be >= 2"


def _require_ranks(r: int, s: int) -> None:
    if r < 2 or s < 2:
        raise ValueError(_RANKS_MESSAGE)


def compute_nu(r: int, s: int, a: int, b: int, model: SurfaceModel | None = None) -> int:
    """The fiber-twist exponent nu for complementary moduli of ranks r, s.

    One integer rule on every elliptic model: 2t(-nu) = 2(a+b-chi) -
    t(t-1)chi + 2t with t = r+s and chi = chi(O).  Raises DivisibilityError /
    NuBoundError separately so callers can tell an invalid grid point from a
    merely-too-small one.
    """
    _require_ranks(r, s)
    if a < 0 or b < 0:
        raise ValueError("half-dimensions must be >= 0")
    if model is None:
        model = elliptic_k3()
    if len(model.labels) != 2:
        raise ModelMismatchError("nu is defined on the elliptic models")
    t, chi = r + s, model.chi_o
    num = 2 * (a + b - chi) - t * (t - 1) * chi + 2 * t
    if num % (2 * t) != 0:
        raise DivisibilityError(f"-nu = {num}/{2 * t} is not an integer")
    minus_nu = num // (2 * t)
    if minus_nu < chi:
        raise NuBoundError(f"-nu = {minus_nu} < chi = {chi}")
    return -minus_nu


def minimal_valid_total(r: int, s: int, chi_o: int) -> int:
    """The least a + b that ``compute_nu`` accepts at chi(O) = chi_o, where -nu = chi_o."""
    t = r + s
    return t * (chi_o - 1) + t * (t - 1) * chi_o // 2 + chi_o


def k3_divisible_points(r_rng, s_rng, ab_max: int):
    """Yield (r, s, a, b, valid) for the elliptic-K3 grid points with r+s | a+b-2.

    Covers r in r_rng, s in s_rng and 0 <= a, b with a+b <= ab_max, in
    (r, s, a+b, a) order.  ``valid`` is True exactly where compute_nu returns
    a twist, i.e. a+b >= ``minimal_valid_total(r, s, 2)``; the other points
    fail only its bound, never its divisibility.
    """
    for r in r_rng:
        for s in s_rng:
            _require_ranks(r, s)
            least = minimal_valid_total(r, s, 2)
            for total in range(2, ab_max + 1, r + s):
                valid = total >= least
                for a in range(0, total + 1):
                    yield r, s, a, total - a, valid


def duality_line_bundle_class(r: int, s: int, nu: int, model: SurfaceModel | None = None) -> NSClass:
    """The theta line bundle L = O((r+s)sigma + ((r+s-1)chi - nu)f + K).

    On the elliptic K3 (chi = 2, K = 0) this is (r+s)sigma + (2(r+s)-2-nu)f.
    """
    if model is None:
        model = elliptic_k3()
    if model.ns_rank != 2:
        raise ModelMismatchError("the theta line bundle lives on the elliptic models")
    t = r + s
    return model.cls(t, (t - 1) * model.chi_o - nu) + model.canonical


def delta_bound(chi_o: int, r: int, s: int) -> int:
    """The dimension threshold chi(O)((r+s)^2 + (r+s) + 2) - 2(r+s)."""
    t = r + s
    return chi_o * (t * t + t + 2) - 2 * t


class DualityInstance(NamedTuple):
    """A pair of orthogonal vectors with its parameters, twist nu and theta line bundle L."""

    surface: SurfaceModel
    v: MukaiVector
    w: MukaiVector
    r: int
    s: int
    a: int
    b: int
    nu: int
    line_bundle: NSClass


def tower_instance(r: int, s: int, a: int, b: int, model: SurfaceModel | None = None) -> DualityInstance:
    """Build the normalized instance (v_{r,a}, v_{s,b} twisted by nu fibers).

    The twist by nu fibers is meant to make the second vector pair to zero
    with the first, and both vectors to have moduli of dimensions 2a and 2b;
    the checks that own those facts compare them, this builder does not.
    """
    if model is None:
        model = elliptic_k3()
    nu = compute_nu(r, s, a, b, model)
    v = normalized_vector(r, a, model)
    w = twist(normalized_vector(s, b, model), nu * model.fiber)
    line = duality_line_bundle_class(r, s, nu, model)
    return DualityInstance(model, v, w, r, s, a, b, nu, line)


def _chi_product(gram, v: tuple[int, ...], w: tuple[int, ...]) -> int:
    """chi(v . w) = c1(v).c1(w) + r(v)s(w) + s(v)r(w) on raw K3 coordinates.

    A vector is (rank, c1 coefficients..., s), with c1 in the NS basis whose
    Gram matrix is ``gram``: H on the generic K3, sigma and f on the
    elliptic K3.  Unrolled by NS rank, as ``NSClass.dot`` is.
    """
    if len(v) == 3:
        (r1, x1, s1), (r2, x2, s2) = v, w
        return gram[0][0] * x1 * x2 + r1 * s2 + s1 * r2
    (r1, x1, y1, s1), (r2, x2, y2, s2) = v, w
    c1c1 = gram[0][0] * x1 * x2 + gram[0][1] * (x1 * y2 + y1 * x2) + gram[1][1] * y1 * y2
    return c1c1 + r1 * s2 + s1 * r2


def k3_tower_row(
    r: int, s: int, a: int, b: int, nu: int | None = None
) -> tuple[int, tuple[int, ...], tuple[int, ...], int, tuple[int, int]]:
    """``tower_instance`` on the elliptic K3 in plain integers.

    Returns nu, the coordinates (rank, sigma, f, s) of

        v = v_{r,a}                 = (r, sigma + (a - r(r-1))f, 1 - r),
        w = twist(v_{s,b}, nu.f)    = (s, sigma + (b - s(s-1) + s.nu)f, 1 - s + nu),

    chi(v . w) and (dim M(v), dim M(w)), for the caller to compare with 0
    and (2a, 2b).  The dimension is <u, u> + 2 = 2 - chi(u . u*), with
    u* = (r, -c1, s) the dual.  nu is ``compute_nu(r, s, a, b)`` unless
    the caller passes it: it depends on r, s and a + b alone, so a walk
    over one such group takes it from the group's first row.
    """
    if nu is None:
        nu = compute_nu(r, s, a, b)
    gram = elliptic_k3().gram
    v = (r, 1, a - r * (r - 1), 1 - r)
    w = (s, 1, b - s * (s - 1) + s * nu, 1 - s + nu)
    dim_v = 2 - _chi_product(gram, v, (r, -v[1], -v[2], v[3]))
    dim_w = 2 - _chi_product(gram, w, (s, -w[1], -w[2], w[3]))
    return nu, v, w, _chi_product(gram, v, w), (dim_v, dim_w)


class LineBundleCheck(NamedTuple):
    line_bundle: NSClass
    chi: int
    chi_matches: bool
    h0: int
    h0_matches: bool
    alternative_form_matches: bool

    @property
    def ok(self) -> bool:
        return self.chi_matches and self.h0_matches and self.alternative_form_matches


def duality_line_bundle(inst: DualityInstance) -> LineBundleCheck:
    """chi(L) and h0(L) of an instance's L, each compared with a + b.

    Also compares L with its alternative form t.sigma + ((t(t-1)chi +
    2(a+b-chi))/2t + chi - 1)f with t = r+s and chi = chi(O), which on the
    elliptic K3 reads t.sigma + (t + (a+b-2)/t)f.
    """
    line = inst.line_bundle
    total = inst.a + inst.b
    chi = chi_rr(line)
    h0 = h0_surface(line)
    t, chi_o = inst.r + inst.s, inst.surface.chi_o
    alt = inst.surface.cls(t, (t * (t - 1) * chi_o + 2 * (total - chi_o)) // (2 * t) + chi_o - 1)
    return LineBundleCheck(line, chi, chi == total, h0, h0 == total, alt == line)


# ---------------------------------------------------------------------------
# Theorem hypothesis lists
# ---------------------------------------------------------------------------

THEOREM_IDS = ("T1", "T1A", "T2", "T5", "Conj")


class HypothesisReport(NamedTuple):
    conditions: dict[str, bool]
    verdict: bool


def _report(conditions: dict[str, bool]) -> HypothesisReport:
    return HypothesisReport(conditions, all(conditions.values()))


def hypotheses_report(v: MukaiVector, w: MukaiVector, theorem_id: str) -> HypothesisReport:
    """Per-condition verdicts for the hypotheses of a duality statement on
    the surface model that v and w live on."""
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    model = v.model
    if w.model != model:
        raise ModelMismatchError("v and w live on different surface models")
    r, s = v.r, w.r
    orth = euler_form(v, w) == 0

    if theorem_id in ("T1", "T1A"):
        if model.kind != GENERIC_K3:
            raise ModelMismatchError(f"{theorem_id} concerns the generic K3 model")
        h = model.hyperplane
        cond = {
            "orthogonal": orth,
            "i_c1_equals_H": v.c1 == h and w.c1 == h,
            "ii_chi_nonpositive": chi_vec(v) <= 0 and chi_vec(w) <= 0,
        }
        if theorem_id == "T1":
            cond["ranks"] = r >= 2 and s >= 3
            cond["iii_pairing_bound"] = (
                mukai_pair(v, v) >= 2 * (r - 1) * (r * r + 1)
                and mukai_pair(w, w) >= 2 * (s - 1) * (s * s + 1)
            )
        else:
            cond["ranks"] = r == 2 and s == 2
            cond["degree_at_least_8"] = model.degree >= 8
        return _report(cond)

    if theorem_id == "T2":
        if model.kind != ELLIPTIC_K3:
            raise ModelMismatchError("T2 concerns the elliptic K3 model")
        t = r + s
        cond = {
            "orthogonal": orth,
            "ranks": r >= 2 and s >= 2,
            "i_fiber_degree_one": ns_pair(v.c1, model.fiber) == 1
            and ns_pair(w.c1, model.fiber) == 1,
            "ii_pairing_sum_bound": mukai_pair(v, v) + mukai_pair(w, w) >= 2 * t * t,
        }
        return _report(cond)

    # T5 / Conj: any elliptic surface with a section
    if model.ns_rank != 2:
        raise ModelMismatchError(f"{theorem_id} concerns the elliptic models")
    cond = {
        "orthogonal": orth,
        "ranks": r >= 2 and s >= 2,
        "i_fiber_degree_one": ns_pair(v.c1, model.fiber) == 1
        and ns_pair(w.c1, model.fiber) == 1,
        "ii_dimension_sum_bound": moduli_dim(v) + moduli_dim(w)
        >= delta_bound(model.chi_o, r, s),
    }
    return _report(cond)


def dimension_match(inst: DualityInstance) -> tuple[int, int, bool]:
    """Theta-section counts on the two factors: C(h0(L), a) against C(h0(L), b).

    Both come from the surface section count h0(L) of ``h0_surface`` through
    the determinant formula, on every elliptic model, so an error there
    would cancel between them.  They match when both also equal C(chi(L), a),
    with chi(L) by Riemann-Roch (``chi_rr``), which does not pass through
    ``h0_surface``.
    """
    line = inst.line_bundle
    left = taut_det_sections(line, inst.a)
    right = taut_det_sections(line, inst.b)
    return left, right, left == right == binom(chi_rr(line), inst.a)


# ---------------------------------------------------------------------------
# The rank-raising tower
# ---------------------------------------------------------------------------


class TowerResult(NamedTuple):
    recursion_ok: bool
    chi_one_ok: bool
    dim_ok: bool
    h_shadow_ok: bool
    ext_shadow_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.recursion_ok
            and self.chi_one_ok
            and self.dim_ok
            and self.h_shadow_ok
            and self.ext_shadow_ok
        )


def require_tower_model(model: SurfaceModel) -> None:
    """Raise ModelMismatchError unless ``model`` is elliptic, where the tower lives."""
    if model.ns_rank != 2:
        raise ModelMismatchError("the tower lives on the elliptic models")


def ogrady_tower(r_max: int, a: int, model: SurfaceModel | None = None) -> TowerResult:
    """The sequence v_{1,a} .. v_{r_max,a} with its chi-level consistency checks.

    Each step must satisfy v_{r+1,a} = v(O) + twist(v_{r,a}, -chi(O).f); the
    extension that realizes the step is controlled by
    chi Hom(E_r(-chi f), O) = -1 (one-dimensional obstruction space, shadow
    of ext0 = ext2 = 0, ext1 = 1) and chi(E_r(-chi f)) = 1 - chi(O).
    """
    if model is None:
        model = elliptic_k3()
    require_tower_model(model)
    chi_o = model.chi_o
    vectors = tuple(normalized_vector(r, a, model) for r in range(1, r_max + 1))
    o = structure_vector(model)
    down = -chi_o * model.fiber
    downs = tuple(twist(v, down) for v in vectors)

    recursion_ok = all(nxt == o + u for nxt, u in zip(vectors[1:], downs))
    chi_one_ok = all(chi_vec(v) == 1 for v in vectors)
    dim_ok = all(moduli_dim(v) == 2 * a for v in vectors)
    h_shadow_ok = all(chi_vec(u) == 1 - chi_o for u in downs)
    ext_shadow_ok = all(euler_pair_hom(u, o) == -1 for u in downs)
    return TowerResult(recursion_ok, chi_one_ok, dim_ok, h_shadow_ok, ext_shadow_ok)


# ---------------------------------------------------------------------------
# The theta-bundle relation on the generic K3
# ---------------------------------------------------------------------------


def theta_pair(
    r: int, s: int, chi: int, chi_prime: int, model: SurfaceModel | None = None
) -> tuple[MukaiVector, MukaiVector]:
    """The theta-relation point v = (r, H, chi - r), w = (s, H, chi' - s).

    The two are orthogonal exactly when H^2 = 2rs - r.chi' - s.chi, so they
    live on ``generic_k3`` of that degree.  Raises ValueError unless that
    H^2 is a positive even integer, and ModelMismatchError when ``model`` is
    given and is not that surface.
    """
    h2 = 2 * r * s - r * chi_prime - s * chi
    if h2 <= 0 or h2 % 2 != 0:
        raise ValueError(f"induced H^2 = {h2} is not a positive even integer")
    surface = generic_k3(h2)
    if model is not None and model != surface:
        raise ModelMismatchError(f"the theta pair lives on the generic K3 of degree {h2}")
    h = surface.hyperplane
    v = tuple.__new__(MukaiVector, (r, h, chi - r))
    w = tuple.__new__(MukaiVector, (s, h, chi_prime - s))
    return v, w


class ThetaRelationResult(NamedTuple):
    lambda_v: MukaiVector
    mu_v: MukaiVector
    orthogonal: bool
    lambda_perp: bool
    mu_perp: bool
    identity_ok: bool

    @property
    def ok(self) -> bool:
        return self.orthogonal and self.lambda_perp and self.mu_perp and self.identity_ok


def theta_classes(v: MukaiVector) -> tuple[MukaiVector, MukaiVector]:
    """The two auxiliary classes (0, -v0.H, H.v2) and (-H.v2, v4.H, 0)."""
    r, c1, s = v
    model, _ = c1
    if model.kind != GENERIC_K3:
        raise ModelMismatchError("theta classes are set up on the generic K3 model")
    h = model.hyperplane
    h_c1 = ns_pair(h, c1)
    lam = tuple.__new__(MukaiVector, (0, (-r) * h, h_c1))
    mu = tuple.__new__(MukaiVector, (-h_c1, s * h, 0))
    return lam, mu


def theta_relation_identity(v: MukaiVector, w: MukaiVector) -> ThetaRelationResult:
    """Verify H^2.w = (chi(w) - s).lambda_v - s.mu_v componentwise.

    Both auxiliary classes must pair to zero with v under the Euler form
    (they cut out big-and-nef theta bundles on the moduli space), and the
    identity itself is an exact lattice statement contingent only on the
    orthogonality of v and w.
    """
    _, (model, _), _ = v
    s, (w_model, _), _ = w
    # models are built once per parameter; != covers an equal copy
    if model.kind != GENERIC_K3 or (w_model is not model and w_model != model):
        raise ModelMismatchError("the relation is set up on the generic K3 model")
    lam, mu = theta_classes(v)
    h2 = model.degree
    chi_w = chi_vec(w)
    lhs = h2 * w
    rhs = (chi_w - s) * lam - s * mu
    return ThetaRelationResult(
        lambda_v=lam,
        mu_v=mu,
        orthogonal=euler_form(v, w) == 0,
        lambda_perp=euler_form(v, lam) == 0,
        mu_perp=euler_form(v, mu) == 0,
        identity_ok=lhs == rhs,
    )


# ---------------------------------------------------------------------------
# Deformation to the elliptic K3
# ---------------------------------------------------------------------------


class DeformationPair(NamedTuple):
    elliptic: DualityInstance
    pairings_agree: bool
    degree: int


def deformation_setup(
    r: int, s: int, chi: int, chi_prime: int, model: SurfaceModel | None = None
) -> DeformationPair:
    """Match a generic-K3 pair with its elliptic degeneration.

    The generic side is ``theta_pair(r, s, chi, chi_prime, model)``, of
    H^2 = 2n; the record holds the elliptic side alone, where H degenerates
    to the numerical section sigma + (n+1)f of the same square.
    All Mukai pairings must agree across the two models.  The elliptic
    instance carries nu = ``compute_nu(r, s, a, b)`` as computed; the theory
    says it is chi + chi' - 2, which the caller judges.
    """
    _require_ranks(r, s)
    if chi > 0 or chi_prime > 0:
        raise ValueError("the deformation argument needs chi(v), chi(w) <= 0")
    v_g, w_g = theta_pair(r, s, chi, chi_prime, model)
    h2 = v_g.model.degree

    ell = elliptic_k3()
    k = h2 // 2 + 1  # (sigma + k.f)^2 = 2k - 2 = H^2
    c1 = ell.cls(1, k)
    v_e = MukaiVector(r, c1, chi - r)
    w_e = MukaiVector(s, c1, chi_prime - s)

    agree = (
        mukai_pair(v_g, v_g) == mukai_pair(v_e, v_e)
        and mukai_pair(w_g, w_g) == mukai_pair(w_e, w_e)
        and mukai_pair(v_g, mukai_dual(w_g)) == mukai_pair(v_e, mukai_dual(w_e))
        and euler_form(v_g, w_g) == euler_form(v_e, w_e) == 0
    )
    a = mukai_pair(v_g, v_g) // 2 + 1
    b = mukai_pair(w_g, w_g) // 2 + 1
    nu = compute_nu(r, s, a, b)
    line = duality_line_bundle_class(r, s, nu)
    return DeformationPair(DualityInstance(ell, v_e, w_e, r, s, a, b, nu, line), agree, h2)


def theta_relation_sweep(
    r_lo: int = 2, r_hi: int = 5, chi_lo: int = -5, chi_hi: int = 0
) -> tuple[int, list, int]:
    """Run the theta-bundle lattice identity over a parameter box.

    The identity is symbolic in H^2, so this sweep works directly in
    coordinates (rank, H-coefficient, degree-4 slot) with H^2 = 2rs - r.chi'
    - s.chi as an integer parameter; this also covers the points where H^2
    is odd and no polarized model of that degree exists.  Points with even
    H^2 are cross-checked against the typed model route.  Returns (points
    checked, failures, points cross-checked).
    """
    failures = []
    checked = 0
    cross_checked = 0
    for r in range(r_lo, r_hi + 1):
        for s in range(r_lo, r_hi + 1):
            for chi in range(chi_lo, chi_hi + 1):
                for chi_p in range(chi_lo, chi_hi + 1):
                    h2 = 2 * r * s - r * chi_p - s * chi
                    if h2 <= 0:
                        continue
                    checked += 1
                    # triples (rank, H-coeff, s) with the Gram matrix (H^2)
                    gram = ((h2,),)
                    v = (r, 1, chi - r)
                    w = (s, 1, chi_p - s)
                    lam = (0, -r, h2)
                    mu = (-h2, (chi - r), 0)
                    (w0, w1, w2), (l0, l1, l2), (m0, m1, m2) = w, lam, mu
                    # H^2.w = (chi' - s).lambda - s.mu, and v orthogonal to w and
                    # both auxiliary classes
                    k = chi_p - s
                    ok = (
                        h2 * w0 == k * l0 - s * m0
                        and h2 * w1 == k * l1 - s * m1
                        and h2 * w2 == k * l2 - s * m2
                        and _chi_product(gram, v, lam) == 0
                        and _chi_product(gram, v, mu) == 0
                        and _chi_product(gram, v, w) == 0
                    )
                    if not ok:
                        failures.append((r, s, chi, chi_p))
                    if h2 % 2 == 0:
                        cross_checked += 1
                        res = theta_relation_identity(*theta_pair(r, s, chi, chi_p))
                        if res.ok != ok:
                            failures.append((r, s, chi, chi_p, "typed-route disagreement"))
    return checked, failures, cross_checked


def theorem2_equivalence(r: int, s: int, a: int, b: int) -> bool | None:
    """Compare the pairing-sum bound with the twist bound on one grid point.

    Returns True when both tests agree (both pass or both fail), False on a
    disagreement, None when divisibility fails (the twist is undefined).
    """
    pairing_sum_ok = (2 * a - 2) + (2 * b - 2) >= 2 * (r + s) ** 2
    try:
        compute_nu(r, s, a, b)
        nu_ok = True
    except DivisibilityError:
        return None
    except NuBoundError:
        nu_ok = False
    return pairing_sum_ok == nu_ok


# ---------------------------------------------------------------------------
# Check judges: each takes an instance's model and the check's params and
# bounds, and returns (verdict, report)
# ---------------------------------------------------------------------------


def nu_holds(inst: DualityInstance) -> bool:
    """Whether nu is the root of x -> chi(v . v_{s,b}(x f)), and dim M(v) = 2a
    and dim M(w) = 2b.  The map is affine, so two typed evaluations find the
    root without ``compute_nu``'s formula."""
    model = inst.surface
    u = normalized_vector(inst.s, inst.b, model)
    at_zero = euler_form(inst.v, u)
    slope = euler_form(inst.v, twist(u, model.fiber)) - at_zero
    root_ok = slope != 0 and at_zero % slope == 0 and -at_zero // slope == inst.nu
    return root_ok and moduli_dim(inst.v) == 2 * inst.a and moduli_dim(inst.w) == 2 * inst.b


def _tower_point(r, s, a, b, model: SurfaceModel) -> DualityInstance:
    if None in (r, s, a, b):
        raise MissingParamsError("missing params: need r, s, a and b")
    return tower_instance(r, s, a, b, model)


def judge_nu(model: SurfaceModel, r, s, a, b) -> tuple[bool, dict]:
    inst = _tower_point(r, s, a, b, model)
    return nu_holds(inst), {"nu": inst.nu, "v": inst.v, "w": inst.w}


def judge_line_bundle(model: SurfaceModel, r, s, a, b) -> tuple[bool, dict]:
    check = duality_line_bundle(_tower_point(r, s, a, b, model))
    data = {"L": check.line_bundle, "chi": check.chi, "h0": check.h0}
    return check.ok, {**data, "alternative_form_matches": check.alternative_form_matches}


def judge_chi_vanishing(model: SurfaceModel, r, s, a, b) -> tuple[bool, dict]:
    inst = _tower_point(r, s, a, b, model)
    value = euler_form(inst.v, inst.w)
    return value == 0, {"chi_product": value}


def judge_dimension_match(model: SurfaceModel, r, s, a, b) -> tuple[bool, dict]:
    left, right, equal = dimension_match(_tower_point(r, s, a, b, model))
    return equal, {"left": left, "right": right, "equal": equal}


def judge_exclusions(model: SurfaceModel, r, s, a, b) -> tuple[bool, dict]:
    # asked before the instance is built, so an invalid point does not hide it
    require_exclusion_model(model)
    rep = exclusion_report(_tower_point(r, s, a, b, model))
    ok = exclusions_hold((r, s, a, b), rep.q3_excluded, rep.q1q2_excluded, rep.s_proper, rep.q_proper)
    return ok, {"report": rep}


def judge_tower(model: SurfaceModel, a, r_max: int, a_max: int | None) -> tuple[bool, dict]:
    """``ogrady_tower`` to rank r_max at each a in 0..a_max, or at the one a
    (9 when not given)."""
    a_values = [9 if a is None else a] if a_max is None else range(0, a_max + 1)
    failures = [x for x in a_values if not ogrady_tower(r_max, x, model).ok]
    return not failures, {"r_max": r_max, "a_checked": len(a_values), "failures": failures}


def judge_theta_relation(
    model: SurfaceModel, r, s, chi, chi_prime, r_lo: int, r_hi: int, chi_lo: int, chi_hi: int
) -> tuple[bool, dict]:
    """The identity at the point (r, s, chi, chi') when all four are given,
    else ``theta_relation_sweep`` over the bounds."""
    if None not in (r, s, chi, chi_prime):
        v, w = theta_pair(r, s, chi, chi_prime, model)
        res = theta_relation_identity(v, w)
        return res.ok, {
            "h_squared": v.model.degree,
            "lambda": res.lambda_v,
            "mu": res.mu_v,
            "identity_ok": res.identity_ok,
            "perpendicular": res.lambda_perp and res.mu_perp,
        }
    if (r, s, chi, chi_prime) != (None,) * 4:
        raise MissingParamsError("the point mode needs params r, s, chi and chi_prime")
    checked, failures, crossed = theta_relation_sweep(r_lo, r_hi, chi_lo, chi_hi)
    data = {"points_checked": checked, "failures": failures, "typed_cross_checked": crossed}
    if checked == 0:
        raise NothingToExamineError("no point with H^2 > 0 in the bounds", **data)
    return not failures, data


def judge_deformation(model: SurfaceModel, r, s, chi, chi_prime) -> tuple[bool, dict]:
    """The pairings agree across the degeneration, and nu = chi + chi' - 2."""
    if None in (r, s, chi, chi_prime):
        raise MissingParamsError("need params r, s, chi and chi_prime")
    pair = deformation_setup(r, s, chi, chi_prime, model)
    data = {
        "h_squared": pair.degree,
        "elliptic_c1": pair.elliptic.v.c1,
        "nu": pair.elliptic.nu,
        "pairings_agree": pair.pairings_agree,
    }
    return pair.pairings_agree and pair.elliptic.nu == chi + chi_prime - 2, data


def judge_hypotheses(model: SurfaceModel, theorem: str, v, w) -> tuple[bool, HypothesisReport]:
    if v is None or w is None:
        raise MissingParamsError("need both vectors v and w")
    rep = hypotheses_report(v, w, theorem)
    return rep.verdict, rep


def judge_tower_hypotheses(model: SurfaceModel, theorem: str, v, w, r, s, a, b):
    """``judge_hypotheses`` on v and w, or without them on the tower vectors
    of (r, s, a, b)."""
    if v is None and w is None:
        if None in (r, s, a, b):
            raise MissingParamsError("need vectors v/w or (r, s, a, b)")
        inst = tower_instance(r, s, a, b, model)
        v, w = inst.v, inst.w
    return judge_hypotheses(model, theorem, v, w)


def judge_exclusion_sweep(
    model: SurfaceModel, r_lo: int, r_hi: int, s_lo: int, s_hi: int, ab_max: int
) -> tuple[bool, dict]:
    """The exclusions, the tower facts and the Theorem-2 bound comparison on
    every elliptic-K3 point of ``k3_divisible_points`` in the bounds.

    The bound comparison runs on every divisible point, valid or not; the
    rest on the valid points, on plain integers through ``k3_tower_row``
    and the two exclusion flag functions.
    """
    require_exclusion_model(model)
    points, holds = 0, True
    h0_violations, h00_exceptions, chi_violations, bound_disagreements = [], [], [], []
    grid = k3_divisible_points(range(r_lo, r_hi + 1), range(s_lo, s_hi + 1), ab_max)
    group = None
    for r, s, a, b, valid in grid:
        # the bound comparison, nu, L and the S and Q verdicts depend on
        # (r, s, a+b) alone, and the grid yields the points of each such
        # group one after another
        if group != (r, s, a + b):
            group = (r, s, a + b)
            # both directions of the bound equivalence: valid and too-small twists
            disagrees = theorem2_equivalence(r, s, a, b) is False
            nu = line = None
        if disagrees:
            bound_disagreements.append((r, s, a, b))
        if not valid:
            continue
        points += 1
        nu, _, _, chi_vw, dims = k3_tower_row(r, s, a, b, nu)
        if chi_vw != 0 or dims != (2 * a, 2 * b):
            chi_violations.append((r, s, a, b))
        if line is None:
            line = duality_line_bundle_class(r, s, nu)
            (m, n), chi = line.coeffs, line.model.chi_o
            s_proper, q_proper = exclusion_group_flags(m, n, a + b, chi)
        q3_excluded, q1q2_excluded = exclusion_point_flags(m, n, a, b, chi)
        if not (q3_excluded and s_proper and q_proper):
            h0_violations.append((r, s, a, b))
        if not q1q2_excluded:
            h00_exceptions.append((r, s, a, b))
        holds = holds and exclusions_hold((r, s, a, b), q3_excluded, q1q2_excluded, s_proper, q_proper)
    data = {
        "points_checked": points,
        "h0_violations": h0_violations,
        "h00_exceptions": h00_exceptions,
        "chi_vanishing_violations": chi_violations,
        "bound_equivalence_disagreements": bound_disagreements,
    }
    ok = holds and not chi_violations and not bound_disagreements
    if ok and points == 0:
        raise NothingToExamineError("no valid (r, s, a, b) in the bounds", **data)
    return ok, data


def judge_general_consistency(model: SurfaceModel, chi_list, ranks) -> tuple[bool, dict]:
    """One case for each chi(O) in chi_list and each pair of ranks, at the
    least valid a + b, on its own general elliptic model.

    A case holds when ``nu_holds`` and chi(v . w) = 0 (``instance_ok``), the
    line-bundle check passes, the tower to rank 6 holds at a and, at
    chi(O) = 2, the instance degenerates to the elliptic K3's.
    """
    if not (chi_list and ranks):
        raise NothingToExamineError("nothing to examine: chi_list or ranks is empty", cases=[])
    cases = []
    for chi_o in chi_list:
        surface = elliptic_general(chi_o)
        for r in ranks:
            for s in ranks:
                total = minimal_valid_total(r, s, chi_o)
                a, b = total // 2, total - total // 2
                inst = tower_instance(r, s, a, b, surface)
                line = duality_line_bundle(inst)
                case = {"chi_o": chi_o, "r": r, "s": s, "a": a, "b": b, "nu": inst.nu, "chi_L": line.chi}
                case["instance_ok"] = nu_holds(inst) and euler_form(inst.v, inst.w) == 0
                case["line_bundle_ok"] = line.ok
                case["tower_ok"] = ogrady_tower(6, a, surface).ok
                if chi_o == 2:
                    k3 = tower_instance(r, s, a, b, elliptic_k3())
                    facts = (inst.nu, inst.line_bundle.coeffs, inst.v.c1.coeffs)
                    case["k3_degeneration_ok"] = (k3.nu, k3.line_bundle.coeffs, k3.v.c1.coeffs) == facts
                cases.append(case)
    oks = ("instance_ok", "line_bundle_ok", "tower_ok", "k3_degeneration_ok")
    return all(case.get(key, True) for case in cases for key in oks), {"cases": cases}


__all__ = [
    "DivisibilityError",
    "NuBoundError",
    "DualityInstance",
    "LineBundleCheck",
    "HypothesisReport",
    "TowerResult",
    "ThetaRelationResult",
    "DeformationPair",
    "THEOREM_IDS",
    "compute_nu",
    "minimal_valid_total",
    "k3_divisible_points",
    "duality_line_bundle_class",
    "duality_line_bundle",
    "delta_bound",
    "tower_instance",
    "k3_tower_row",
    "hypotheses_report",
    "dimension_match",
    "ogrady_tower",
    "theta_classes",
    "theta_pair",
    "theta_relation_identity",
    "deformation_setup",
    "theorem2_equivalence",
]
