"""Batch front-end: parse instance descriptions, run check suites, emit JSON.

Input is a YAML file (or command-line flags assembled into the same shape):

    version: 1
    instances:
      - name: case-study
        surface: {kind: elliptic-k3}
        params: {r: 2, s: 2, a: 9, b: 9}
        checks: [nu, line-bundle, dimension-match, exclusions]

An instance may carry ``grid: {r: [2,3], a: [9,12]}``; it is then expanded
into one report per grid point.  Output is a JSON document with a stable
schema: {version, instances: [{spec, results: {check: {status, ...}},
timing_ms}]}.  All rationals serialize as "p/q" strings; reports are
deterministic modulo the timing field.

Exit codes: 0 when every requested check passes, 1 when some check fails or
errors, 2 for parse/config problems.  STRANGEDUAL_WORKERS > 1 runs batch
items in a process pool (report order still follows spec order).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from fractions import Fraction
from itertools import product

import yaml

from . import __version__
from .duality import (
    DivisibilityError,
    NuBoundError,
    compute_nu,
    deformation_setup,
    delta_bound,
    dimension_match,
    duality_line_bundle,
    hypotheses_report,
    k3_divisible_points,
    k3_tower_row,
    ogrady_tower,
    theorem2_equivalence,
    theta_relation_identity,
    theta_relation_sweep,
    tower_instance,
)
from .fourier_mukai import derive_fm_matrix, verify_fm_suite
from .hilbert import exclusion_report
from .strata import (
    chain_audit,
    codim_audit,
    is_suitable,
    strata_box_oracle,
    strata_enumerate,
    stratum_codim_ok,
    unordered_count,
    wall_enumerate,
)
from .surfaces import (
    ELLIPTIC_GENERAL,
    ELLIPTIC_K3,
    GENERIC_K3,
    MukaiVector,
    NSClass,
    SurfaceModel,
    elliptic_general,
    elliptic_k3,
    euler_form,
    generic_k3,
    mukai_pair,
    sign_law_sweep,
)

WORKERS_ENV = "STRANGEDUAL_WORKERS"
# the one valid (r, s, a, b) of the elliptic K3 where h0 does not exclude the
# Q1/Q2 components (the paper's case study); both exclusion checks expect it
DOCUMENTED_H00_EXCEPTION = (2, 2, 9, 9)
# libyaml's parser when the installed PyYAML has it; both build the same specs
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class CliConfigError(ValueError):
    """A spec file or flag set could not be parsed into instances."""


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, NSClass):
        return {"basis": obj.model.basis, "coeffs": list(obj.coeffs)}
    if isinstance(obj, MukaiVector):
        return {"r": obj.r, "c1": to_jsonable(obj.c1), "s": obj.s}
    if isinstance(obj, SurfaceModel):
        return {"kind": obj.kind, **{p: getattr(obj, p) for p in MODEL_PARAMS[obj.kind]}}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=repr)
        return [to_jsonable(x) for x in items]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------

SURFACE_KINDS = {
    "elliptic-k3": ELLIPTIC_K3,
    "generic-k3": GENERIC_K3,
    "elliptic-general": ELLIPTIC_GENERAL,
}
# the parameters that pick a model of each kind, as reports show them
MODEL_PARAMS = {ELLIPTIC_K3: (), GENERIC_K3: ("degree",), ELLIPTIC_GENERAL: ("chi_o",)}
# instance params the checks read as integers
INT_PARAMS = ("r", "s", "a", "b", "chi", "chi_prime")


def resolve_surface(spec: dict) -> SurfaceModel:
    kind = spec.get("kind", "elliptic-k3")
    if kind not in SURFACE_KINDS:
        raise CliConfigError(f"unknown surface kind {kind!r}")
    try:
        if kind == "generic-k3":
            return generic_k3(int(spec.get("degree", 0)))
        if kind == "elliptic-general":
            return elliptic_general(int(spec.get("chi_o", 0)))
        return elliptic_k3()
    except ValueError as exc:
        raise CliConfigError(str(exc)) from exc


def parse_vector(text: str, model: SurfaceModel) -> MukaiVector:
    """Parse "r:x,y:s" (elliptic) or "r:x:s" (generic) into a vector."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise CliConfigError(f"vector {text!r} is not of the form r:c1:s")
    try:
        r = int(parts[0])
        coeffs = tuple(int(c) for c in parts[1].split(","))
        s = int(parts[2])
    except ValueError as exc:
        raise CliConfigError(f"vector {text!r} has non-integer entries") from exc
    if len(coeffs) != model.ns_rank:
        raise CliConfigError(
            f"vector {text!r} carries {len(coeffs)} c1 coefficients; "
            f"{model.kind} needs {model.ns_rank}"
        )
    return MukaiVector(r, model.cls(*coeffs), s)


def parse_rational(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    try:
        if "/" in str(text):
            num, den = str(text).split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliConfigError(f"bad rational {text!r}") from exc


def _config_int(value, what: str) -> int:
    """``value`` as an int; booleans and non-integral numbers are config errors.

    ``int()`` alone would take ``True`` as 1 and truncate ``9.6`` to 9.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise CliConfigError(f"{what} is not an integer: {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise CliConfigError(f"{what} is not an integer: {value!r}") from None


def normalize_instance(raw: dict, index: int) -> list[dict]:
    """Validate one raw instance and expand its grid, if any."""
    if not isinstance(raw, dict):
        raise CliConfigError(f"instance #{index} is not a mapping")
    unknown = set(raw) - {"name", "surface", "params", "checks", "bounds", "grid"}
    if unknown:
        raise CliConfigError(f"instance #{index} has unknown fields {sorted(unknown)}")
    checks = raw.get("checks")
    if not isinstance(checks, list) or not checks:
        raise CliConfigError(f"instance #{index} lists no checks")
    for c in checks:
        if c not in CHECK_ORDER:
            raise CliConfigError(f"instance #{index} requests unknown check {c!r}")
    base = {
        "name": str(raw.get("name", f"instance-{index}")),
        "surface": dict(raw.get("surface") or {"kind": "elliptic-k3"}),
        "params": dict(raw.get("params") or {}),
        "checks": list(checks),
        "bounds": dict(raw.get("bounds") or {}),
    }
    # validate eagerly: malformed surfaces/vectors are config errors (exit 2)
    model = resolve_surface(base["surface"])
    for key in INT_PARAMS:
        if key in base["params"]:
            _config_int(base["params"][key], f"instance #{index} param {key!r}")
    for key in ("v", "w"):
        if key in base["params"]:
            parse_vector(base["params"][key], model)
    if "m" in base["params"]:
        parse_rational(base["params"]["m"])
    grid = raw.get("grid")
    if not grid:
        return [base]
    if not isinstance(grid, dict) or not grid:
        raise CliConfigError(f"instance #{index} grid is not a mapping")
    axes = []
    for key in sorted(grid):
        rng = grid[key]
        if not (isinstance(rng, list) and len(rng) == 2):
            raise CliConfigError(f"grid axis {key!r} is not a [lo, hi] pair")
        lo, hi = (_config_int(end, f"grid axis {key!r} end") for end in rng)
        axes.append((key, range(lo, hi + 1)))
    out = []
    for combo in product(*(rng for _, rng in axes)):
        inst = json.loads(json.dumps(base))
        label = ",".join(f"{k}={v}" for (k, _), v in zip(axes, combo))
        inst["name"] = f"{base['name']}[{label}]"
        for (key, _), value in zip(axes, combo):
            inst["params"][key] = value
        out.append(inst)
    return out


def load_batch(path: str) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=YAML_LOADER)
    except OSError as exc:
        raise CliConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise CliConfigError(f"{path}: {exc}") from exc
    if doc is None:
        return []
    if isinstance(doc, dict):
        raw_instances = doc.get("instances", [])
    elif isinstance(doc, list):
        raw_instances = doc
    else:
        raise CliConfigError(f"{path}: top level must be a mapping or list")
    if not isinstance(raw_instances, list):
        raise CliConfigError(f"{path}: instances must be a list")
    out = []
    for i, raw in enumerate(raw_instances):
        out.extend(normalize_instance(raw, i))
    return out


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


class _Ctx:
    def __init__(self, spec: dict):
        self.spec = spec
        self.model = resolve_surface(spec["surface"])
        self.params = spec["params"]
        self.bounds = spec["bounds"]
        self.cache: dict = {}

    def int_param(self, *names: str) -> list[int]:
        missing = [n for n in names if n not in self.params]
        if missing:
            raise KeyError(f"missing params {missing}")
        return [int(self.params[n]) for n in names]

    def bound(self, name: str, default):
        return self.bounds.get(name, default)

    def instance(self):
        if "instance" not in self.cache:
            r, s, a, b = self.int_param("r", "s", "a", "b")
            self.cache["instance"] = tower_instance(r, s, a, b, self.model)
        return self.cache["instance"]


def _check_nu(ctx: _Ctx):
    inst = ctx.instance()
    return "pass", {"nu": inst.nu, "v": inst.v, "w": inst.w}


def _check_line_bundle(ctx: _Ctx):
    check = duality_line_bundle(ctx.instance())
    return "pass" if check.ok else "fail", {
        "L": check.line_bundle,
        "chi": check.chi,
        "h0": check.h0,
        "alternative_form_matches": check.alternative_form_matches,
    }


def _check_chi_vanishing(ctx: _Ctx):
    inst = ctx.instance()
    value = euler_form(inst.v, inst.w)
    return ("pass" if value == 0 else "fail"), {"chi_product": value}


def _check_dimension_match(ctx: _Ctx):
    left, right, equal = dimension_match(ctx.instance())
    return ("pass" if equal else "fail"), {"left": left, "right": right, "equal": equal}


def _check_exclusions(ctx: _Ctx):
    inst = ctx.instance()
    if inst.surface.kind != ELLIPTIC_K3:
        return "error:model", {"reason": "exclusion counts are pinned on the elliptic K3"}
    rep = exclusion_report(inst.r, inst.s, inst.a, inst.b)
    documented_exception = (inst.r, inst.s, inst.a, inst.b) == DOCUMENTED_H00_EXCEPTION
    ok = (
        rep.q3_excluded
        and rep.s_proper
        and rep.q_proper
        and rep.q1q2_excluded == (not documented_exception)
    )
    return ("pass" if ok else "fail"), {"report": rep}


def _check_tower(ctx: _Ctx):
    r_max = int(ctx.bound("r_max", 10))
    if "a_max" in ctx.bounds:
        a_values = range(0, int(ctx.bounds["a_max"]) + 1)
    else:
        a_values = [int(ctx.params.get("a", 9))]
    if r_max < 1 or not a_values:
        return "error:empty", {
            "reason": "no tower vector to check: need r_max >= 1 and some a",
            "r_max": r_max,
            "a_checked": 0,
        }
    failures = []
    for a in a_values:
        result = ogrady_tower(r_max, a, ctx.model)
        if not result.ok:
            failures.append(a)
    data = {"r_max": r_max, "a_checked": len(list(a_values)), "failures": failures}
    return ("pass" if not failures else "fail"), data


def _check_sign_law(ctx: _Ctx):
    bound = int(ctx.bound("coord_bound", 3))
    degrees = list(ctx.bound("degrees", [2, 4, 6, 8]))
    total = 0
    mismatches = 0
    checked_e, bad_e, discrepancy = sign_law_sweep(elliptic_k3(), bound)
    total += checked_e
    mismatches += len(bad_e)
    for deg in degrees:
        checked_g, bad_g, _ = sign_law_sweep(generic_k3(int(deg)), bound)
        total += checked_g
        mismatches += len(bad_g)
    data = {
        "pairs_checked": total,
        "mismatches": mismatches,
        "documented_discrepancy": discrepancy,
    }
    if total == 0:
        reason = "the coordinate grid is empty: need coord_bound >= 0"
        return "error:empty", {"reason": reason, **data}
    return ("pass" if mismatches == 0 else "fail"), data


def _check_fm_verify(ctx: _Ctx):
    if ctx.model.ns_rank != 2:
        return "error:model", {"reason": "the transform lives on the elliptic models"}
    r_max = int(ctx.bound("r_max", 6))
    a_max = int(ctx.bound("a_max", 20))
    if r_max < 1 or a_max < 0:
        return "error:empty", {
            "reason": "no (r, a) row to check: need r_max >= 1 and a_max >= 0",
            "r_max": r_max,
            "a_max": a_max,
        }
    matrix, diag = derive_fm_matrix(ctx.model)
    report = verify_fm_suite(matrix, r_max, a_max)
    ok = diag.unique and diag.isometry_ok and report.all_ok
    data = {
        "columns": [list(c) for c in matrix.columns],
        "determinant": diag.determinant,
        "unique": diag.unique,
        "isometry_ok": report.isometry_ok,
        "dual_images_ok": report.dual_images_ok,
        "direct_images_ok": report.direct_images_ok,
        "twist_rule_ok": report.twist_rule_ok,
        "bridge_ok": report.bridge_ok,
        "c1_grr_ok": report.c1_grr_ok,
        "degeneration_ok": report.degeneration_ok,
    }
    return ("pass" if ok else "fail"), data


def _check_theta_relation(ctx: _Ctx):
    if all(k in ctx.params for k in ("r", "s", "chi", "chi_prime")):
        r, s, chi, chi_p = ctx.int_param("r", "s", "chi", "chi_prime")
        h2 = 2 * r * s - r * chi_p - s * chi
        if h2 <= 0 or h2 % 2:
            return "error:parameters", {"reason": f"induced H^2 = {h2} has no even model"}
        model = generic_k3(h2)
        h = model.hyperplane
        res = theta_relation_identity(
            MukaiVector(r, h, chi - r), MukaiVector(s, h, chi_p - s)
        )
        data = {
            "h_squared": h2,
            "lambda": res.lambda_v,
            "mu": res.mu_v,
            "identity_ok": res.identity_ok,
            "perpendicular": res.lambda_perp and res.mu_perp,
        }
        return ("pass" if res.ok else "fail"), data
    checked, failures, crossed = theta_relation_sweep(
        int(ctx.bound("r_lo", 2)),
        int(ctx.bound("r_hi", 5)),
        int(ctx.bound("chi_lo", -5)),
        int(ctx.bound("chi_hi", 0)),
    )
    data = {"points_checked": checked, "failures": failures, "typed_cross_checked": crossed}
    return ("pass" if not failures else "fail"), data


def _check_deformation(ctx: _Ctx):
    r, s, chi, chi_p = ctx.int_param("r", "s", "chi", "chi_prime")
    pair = deformation_setup(r, s, chi, chi_p)
    data = {
        "h_squared": pair.degree,
        "elliptic_c1": pair.elliptic.v.c1,
        "nu": pair.elliptic.nu,
        "pairings_agree": pair.pairings_agree,
    }
    return ("pass" if pair.pairings_agree else "fail"), data


def _make_hypotheses_check(theorem: str):
    def run(ctx: _Ctx):
        if "v" in ctx.params and "w" in ctx.params:
            v = parse_vector(ctx.params["v"], ctx.model)
            w = parse_vector(ctx.params["w"], ctx.model)
        elif all(k in ctx.params for k in ("r", "s", "a", "b")):
            inst = ctx.instance()
            v, w = inst.v, inst.w
        else:
            return "error:missing-params", {"reason": "need vectors v/w or (r, s, a, b)"}
        rep = hypotheses_report(v, w, ctx.model, theorem)
        return ("pass" if rep.verdict else "fail"), {
            "conditions": rep.conditions,
            "verdict": rep.verdict,
        }

    return run


def _check_exclusion_sweep(ctx: _Ctx):
    r_lo = int(ctx.bound("r_lo", 2))
    r_hi = int(ctx.bound("r_hi", 4))
    s_lo = int(ctx.bound("s_lo", 2))
    s_hi = int(ctx.bound("s_hi", 4))
    ab_max = int(ctx.bound("ab_max", 60))
    points = 0
    h0_violations = []
    h00_exceptions = []
    bound_disagreements = []
    grid = k3_divisible_points(range(r_lo, r_hi + 1), range(s_lo, s_hi + 1), ab_max)
    for r, s, a, b, valid in grid:
        # both directions of the bound equivalence: valid and too-small twists
        if theorem2_equivalence(r, s, a, b) is False:
            bound_disagreements.append((r, s, a, b))
        if not valid:
            continue
        points += 1
        rep = exclusion_report(r, s, a, b)
        if not (rep.q3_excluded and rep.s_proper and rep.q_proper):
            h0_violations.append((r, s, a, b))
        if rep.exceptional_case:
            h00_exceptions.append((r, s, a, b))
        # raises unless chi(v . w) = 0, so a violation is an error, never a list entry
        k3_tower_row(r, s, a, b)
    er, es, ea, eb = DOCUMENTED_H00_EXCEPTION
    expected_exceptions = (
        [DOCUMENTED_H00_EXCEPTION]
        if (r_lo <= er <= r_hi and s_lo <= es <= s_hi and ea + eb <= ab_max)
        else []
    )
    ok = (
        not h0_violations
        and not bound_disagreements
        and h00_exceptions == expected_exceptions
    )
    data = {
        "points_checked": points,
        "h0_violations": h0_violations,
        "h00_exceptions": h00_exceptions,
        "chi_vanishing_violations": [],
        "bound_equivalence_disagreements": bound_disagreements,
    }
    if ok and points == 0:
        return "error:empty", {"reason": "no valid (r, s, a, b) in the bounds", **data}
    return ("pass" if ok else "fail"), data


def _audit_one_vector(v: MukaiVector, coeff_bound: int, parts_arg, with_oracle: bool):
    walls_data = []
    all_ok = True
    q_v = mukai_pair(v, v)
    # the codimension audit (q_v > 0) needs every part count, so each wall is
    # enumerated once for all of them and the --parts view is filtered from it
    if q_v > 0 or parts_arg is None:
        part_counts = range(2, v.r + 1)
    else:
        part_counts = [parts_arg]
    for wall in wall_enumerate(v, coeff_bound):
        strata = []
        for k in part_counts:
            strata.extend(strata_enumerate(v, wall, k))
        shown = strata if parts_arg is None else [
            st for st in strata if len(st.parts) == parts_arg
        ]
        audit = codim_audit(v, wall, strata) if q_v > 0 else None
        if audit is not None and audit.chain_ok:
            chain_ok = True  # every stratum passed, the shown ones among them
        else:
            chain_ok = all(chain_audit(v, st).ok for st in shown)
        codim_ok = all(stratum_codim_ok(v, st) for st in shown)
        oracle_ok = True
        if with_oracle and (parts_arg in (None, 2)):
            two_part = [st for st in shown if len(st.parts) == 2]
            oracle = strata_box_oracle(v, wall)
            oracle_ok = set(two_part) == set(oracle)
        entry = {
            "wall_d": wall.d,
            "m_value": wall.m_value,
            "strata": len(shown),
            "unordered": unordered_count(shown),
            "min_codim": min(((q_v + 1) - st.total_dim for st in shown), default=None),
            "chain_ok": chain_ok,
            "codim_bound_ok": codim_ok,
            "oracle_match": oracle_ok,
        }
        if audit is not None:
            entry["bound"] = audit.bound
            entry["bound_satisfied"] = audit.bound_satisfied
            entry["corollary_applicable"] = audit.corollary_applicable
            entry["remark_applicable"] = audit.remark_applicable
            all_ok = all_ok and audit.bound_satisfied
        walls_data.append(entry)
        all_ok = all_ok and chain_ok and codim_ok and oracle_ok
    return all_ok, walls_data


def _check_strata_audit(ctx: _Ctx):
    if ctx.model.kind != ELLIPTIC_K3:
        return "error:model", {"reason": "strata are enumerated on the elliptic K3"}
    coeff_bound = int(ctx.bound("coeff_bound", 3))
    if coeff_bound < 1:
        return "error:empty", {
            "reason": "the wall-class box is empty: need coeff_bound >= 1",
            "coeff_bound": coeff_bound,
        }
    parts_arg = ctx.bounds.get("parts")
    with_oracle = bool(ctx.bound("oracle", True))
    vectors = []
    if "v" in ctx.params:
        vectors.append(parse_vector(ctx.params["v"], ctx.model))
    else:
        s4_lo = int(ctx.bound("s4_lo", -4))
        s4_hi = int(ctx.bound("s4_hi", 0))
        for s4 in range(s4_lo, s4_hi + 1):
            vectors.append(MukaiVector(2, ctx.model.sigma, s4))
    if not vectors:
        return "error:empty", {"reason": "no vector to audit: s4_lo > s4_hi"}
    results = []
    ok = True
    for v in vectors:
        v_ok, walls_data = _audit_one_vector(
            v, coeff_bound, int(parts_arg) if parts_arg else None, with_oracle
        )
        results.append({"v": v, "ok": v_ok, "walls": walls_data})
        ok = ok and v_ok
    return ("pass" if ok else "fail"), {"coeff_bound": coeff_bound, "vectors": results}


def _check_suitability(ctx: _Ctx):
    if "v" not in ctx.params or "m" not in ctx.params:
        return "error:missing-params", {"reason": "need params v and m"}
    v = parse_vector(ctx.params["v"], ctx.model)
    m = parse_rational(ctx.params["m"])
    rep = is_suitable(m, v, int(ctx.bound("coeff_bound", 3)))
    data = {
        "suitable": rep.suitable,
        "max_wall": rep.max_wall,
        "coeff_bound": rep.coeff_bound,
        "note": rep.note,
    }
    return ("pass" if rep.suitable else "fail"), data


def _minimal_valid_total(r: int, s: int, model: SurfaceModel) -> int:
    total = 0
    while True:
        total += 1
        try:
            compute_nu(r, s, total // 2, total - total // 2, model)
            return total
        except (DivisibilityError, NuBoundError):
            continue


def _check_general_consistency(ctx: _Ctx):
    chi_list = [int(c) for c in ctx.bound("chi_list", [2, 3, 4])]
    ranks = [int(x) for x in ctx.bound("ranks", [2, 3])]
    details = []
    ok = True
    for chi_o in chi_list:
        model = elliptic_general(chi_o)
        for r in ranks:
            for s in ranks:
                total = _minimal_valid_total(r, s, model)
                a, b = total // 2, total - total // 2
                inst = tower_instance(r, s, a, b, model)
                check = duality_line_bundle(inst)
                entry = {
                    "chi_o": chi_o,
                    "r": r,
                    "s": s,
                    "a": a,
                    "b": b,
                    "nu": inst.nu,
                    "chi_L": check.chi,
                    "chi_matches": check.chi_matches,
                }
                tower_ok = ogrady_tower(6, a, model).ok
                entry["tower_ok"] = tower_ok
                ok = ok and check.chi_matches and tower_ok
                if chi_o == 2:
                    k3_inst = tower_instance(r, s, a, b, elliptic_k3())
                    degeneration = (
                        k3_inst.nu == inst.nu
                        and k3_inst.line_bundle.coeffs == inst.line_bundle.coeffs
                        and k3_inst.v.c1.coeffs == inst.v.c1.coeffs
                    )
                    entry["k3_degeneration_ok"] = degeneration
                    ok = ok and degeneration
                details.append(entry)
    delta = delta_bound(2, 2, 2)
    ok = ok and delta == 36
    return ("pass" if ok else "fail"), {"delta_2_2_chi2": delta, "cases": details}


CHECKS = {
    "nu": (_check_nu, ()),
    "line-bundle": (_check_line_bundle, ("nu",)),
    "chi-vanishing": (_check_chi_vanishing, ("nu",)),
    "dimension-match": (_check_dimension_match, ("nu",)),
    "exclusions": (_check_exclusions, ("nu",)),
    "tower": (_check_tower, ()),
    "sign-law": (_check_sign_law, ()),
    "fm-verify": (_check_fm_verify, ()),
    "theta-relation": (_check_theta_relation, ()),
    "deformation": (_check_deformation, ()),
    "hypotheses-T1": (_make_hypotheses_check("T1"), ()),
    "hypotheses-T1A": (_make_hypotheses_check("T1A"), ()),
    "hypotheses-T2": (_make_hypotheses_check("T2"), ()),
    "hypotheses-T5": (_make_hypotheses_check("T5"), ()),
    "hypotheses-Conj": (_make_hypotheses_check("Conj"), ()),
    "exclusion-sweep": (_check_exclusion_sweep, ()),
    "strata-audit": (_check_strata_audit, ()),
    "suitability": (_check_suitability, ()),
    "general-consistency": (_check_general_consistency, ()),
}
CHECK_ORDER = list(CHECKS)


def run_instance(spec: dict) -> dict:
    """Execute the requested checks of one instance in dependency order."""
    started = time.perf_counter()
    ctx = _Ctx(spec)
    results: dict[str, dict] = {}
    statuses: dict[str, str] = {}
    for name in CHECK_ORDER:
        if name not in spec["checks"]:
            continue
        fn, requires = CHECKS[name]
        blocked = [req for req in requires if statuses.get(req, "pass") != "pass"]
        if blocked:
            statuses[name] = "skipped"
            results[name] = {
                "status": "skipped",
                "reason": f"requires {blocked[0]} which did not pass",
            }
            continue
        try:
            status, data = fn(ctx)
        except DivisibilityError as exc:
            status, data = "error:divisibility", {"reason": str(exc)}
        except NuBoundError as exc:
            status, data = "error:nu-bound", {"reason": str(exc)}
        except KeyError as exc:
            status, data = "error:missing-params", {"reason": str(exc)}
        except (ValueError, AssertionError) as exc:
            status, data = "error:invalid", {"reason": str(exc)}
        except Exception as exc:  # one broken check must not sink the batch
            status, data = f"error:internal:{type(exc).__name__}", {"reason": str(exc)}
        statuses[name] = status
        results[name] = {"status": status, **to_jsonable(data)}
    return {
        "spec": spec,
        "results": results,
        "timing_ms": int((time.perf_counter() - started) * 1000),
    }


def _workers_from_env() -> int:
    """The process count asked for by STRANGEDUAL_WORKERS (1 when unset)."""
    text = os.environ.get(WORKERS_ENV, "1") or "1"
    try:
        return int(text)
    except ValueError:
        raise CliConfigError(f"{WORKERS_ENV}={text!r} is not an integer") from None


def run_batch(instances: list[dict]) -> dict:
    workers = _workers_from_env()
    if workers > 1 and len(instances) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_instance, instances))
    else:
        reports = [run_instance(spec) for spec in instances]
    return {"version": __version__, "instances": reports}


def document_exit_code(doc: dict) -> int:
    for report in doc["instances"]:
        for result in report["results"].values():
            if result["status"] != "pass":
                return 1
    return 0


def _emit(doc: dict, out_path: str | None, quiet: bool) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not quiet:
        for report in doc["instances"]:
            for name, result in sorted(report["results"].items()):
                line = f"{report['spec']['name']}: {name}: {result['status']}"
                print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--quiet", action="store_true", help="suppress per-check summary lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strangedual",
        description="Exact lattice checks for strange duality on K3-type surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run checks on a single instance")
    p_check.add_argument("--surface", default="elliptic-k3", choices=sorted(SURFACE_KINDS))
    p_check.add_argument("--degree", type=int, help="H^2 for the generic K3 model")
    p_check.add_argument("--chi-o", type=int, help="chi(O) for the general elliptic model")
    p_check.add_argument("--r", type=int)
    p_check.add_argument("--s", type=int)
    p_check.add_argument("--a", type=int)
    p_check.add_argument("--b", type=int)
    p_check.add_argument("--chi", type=int)
    p_check.add_argument("--chi-prime", type=int)
    p_check.add_argument("--v", help="vector r:x,y:s (or r:x:s on the generic model)")
    p_check.add_argument("--w", help="second vector")
    p_check.add_argument("--m", help="polarization parameter, integer or p/q")
    p_check.add_argument("--checks", required=True, help="comma-separated check names")
    _add_common(p_check)

    p_batch = sub.add_parser("batch", help="run every instance of a YAML spec file")
    p_batch.add_argument("path")
    _add_common(p_batch)

    p_fm = sub.add_parser("fm-verify", help="derive and verify the transform matrix")
    p_fm.add_argument("--rmax", type=int, default=6)
    p_fm.add_argument("--amax", type=int, default=20)
    p_fm.add_argument("--surface", default="elliptic-k3", choices=["elliptic-k3", "elliptic-general"])
    p_fm.add_argument("--chi-o", type=int)
    _add_common(p_fm)

    p_strata = sub.add_parser("strata", help="enumerate walls and audit strata")
    p_strata.add_argument("--v", required=True, help="vector r:x,y:s")
    p_strata.add_argument("--coeff-bound", type=int, default=3)
    p_strata.add_argument("--parts", type=int)
    p_strata.add_argument("--no-oracle", action="store_true")
    _add_common(p_strata)

    p_sweep = sub.add_parser("sweep", help="exclusion sweep over rank/dimension grids")
    p_sweep.add_argument("--r", default="2:4", help="rank range lo:hi for the first factor")
    p_sweep.add_argument("--s", default="2:4", help="rank range lo:hi for the second factor")
    p_sweep.add_argument("--ab-max", type=int, default=60)
    _add_common(p_sweep)
    return parser


def _surface_spec(kind: str, degree, chi_o) -> dict:
    spec = {"kind": kind}
    if degree is not None:
        spec["degree"] = degree
    if chi_o is not None:
        spec["chi_o"] = chi_o
    return spec


def _range_pair(text: str) -> list[int]:
    try:
        lo, hi = str(text).split(":")
        return [int(lo), int(hi)]
    except ValueError as exc:
        raise CliConfigError(f"bad range {text!r}, expected lo:hi") from exc


def instances_from_args(args: argparse.Namespace) -> list[dict]:
    if args.command == "batch":
        return load_batch(args.path)
    if args.command == "check":
        params = {}
        for key in ("r", "s", "a", "b", "chi", "v", "w", "m"):
            value = getattr(args, key, None)
            if value is not None:
                params[key] = value
        if args.chi_prime is not None:
            params["chi_prime"] = args.chi_prime
        raw = {
            "name": "check",
            "surface": _surface_spec(args.surface, args.degree, args.chi_o),
            "params": params,
            "checks": [c.strip() for c in args.checks.split(",") if c.strip()],
        }
        return normalize_instance(raw, 0)
    if args.command == "fm-verify":
        raw = {
            "name": "fm-verify",
            "surface": _surface_spec(args.surface, None, args.chi_o),
            "checks": ["fm-verify"],
            "bounds": {"r_max": args.rmax, "a_max": args.amax},
        }
        return normalize_instance(raw, 0)
    if args.command == "strata":
        bounds = {"coeff_bound": args.coeff_bound, "oracle": not args.no_oracle}
        if args.parts is not None:
            bounds["parts"] = args.parts
        raw = {
            "name": "strata",
            "surface": {"kind": "elliptic-k3"},
            "params": {"v": args.v},
            "checks": ["strata-audit"],
            "bounds": bounds,
        }
        return normalize_instance(raw, 0)
    if args.command == "sweep":
        r_lo, r_hi = _range_pair(args.r)
        s_lo, s_hi = _range_pair(args.s)
        raw = {
            "name": "sweep",
            "surface": {"kind": "elliptic-k3"},
            "checks": ["exclusion-sweep"],
            "bounds": {
                "r_lo": r_lo,
                "r_hi": r_hi,
                "s_lo": s_lo,
                "s_hi": s_hi,
                "ab_max": args.ab_max,
            },
        }
        return normalize_instance(raw, 0)
    raise CliConfigError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _workers_from_env()  # a bad STRANGEDUAL_WORKERS fails here, before any work
        instances = instances_from_args(args)
    except CliConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = run_batch(instances)
    _emit(doc, args.out, args.quiet)
    return document_exit_code(doc)


if __name__ == "__main__":
    sys.exit(main())
