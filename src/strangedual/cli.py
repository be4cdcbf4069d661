"""Batch front-end: parse instance descriptions, run check suites, emit JSON.

Input is a YAML file (or command-line flags assembled into the same shape):

    version: 1
    instances:
      - name: case-study
        surface: {kind: elliptic-k3}
        params: {r: 2, s: 2, a: 9, b: 9}
        checks: [nu, line-bundle, dimension-match, exclusions]

An instance may carry ``grid: {r: [2,3], a: [9,12]}``; it is then expanded
into one report per grid point.  Instances run one after another, in file
order.  Output is a JSON document with a stable schema: {version,
instances: [{spec, results: {check: {status, ...}}, timing_ms}]}.  All
rationals serialize as "p/q" strings; reports are deterministic modulo the
timing field.

Exit codes: 0 when every requested check passes, 1 when some check fails or
errors, 2 for parse/config problems, among them a param, surface key or
bound that nothing reads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import partial
from itertools import product
from types import MappingProxyType
from typing import NamedTuple

import yaml

from . import __version__
from .duality import (
    DivisibilityError,
    NuBoundError,
    deformation_setup,
    dimension_match,
    duality_line_bundle,
    duality_line_bundle_class,
    hypotheses_report,
    k3_divisible_points,
    k3_tower_row,
    minimal_valid_total,
    ogrady_tower,
    theorem2_equivalence,
    theta_pair,
    theta_relation_identity,
    theta_relation_sweep,
    tower_instance,
)
from .fourier_mukai import derive_fm_matrix, verify_fm_suite
from .hilbert import exclusion_flags, exclusion_report, require_exclusion_model
from .strata import codim_audit, is_suitable, wall_enumerate
from .surfaces import (
    ELLIPTIC_GENERAL,
    ELLIPTIC_K3,
    GENERIC_K3,
    ModelMismatchError,
    MukaiVector,
    NSClass,
    SurfaceModel,
    elliptic_general,
    elliptic_k3,
    euler_form,
    generic_k3,
    moduli_dim,
    mukai_pair,  # unused here; perfbench/tests/test_perfbench.py reads cli.mukai_pair
    sign_law_sweep,
)

# the one valid (r, s, a, b) of the elliptic K3 where h0 does not exclude the
# Q1/Q2 components (the paper's case study); both exclusion checks expect it
DOCUMENTED_H00_EXCEPTION = (2, 2, 9, 9)
# the batch-file format this reader takes; a file may omit its version
BATCH_VERSION = 1
# libyaml's parser when the installed PyYAML has it; both build the same specs
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class CliConfigError(ValueError):
    """A spec file or flag set could not be parsed into instances."""


class MissingParamsError(Exception):
    """A check was not given the params it needs; reported as error:missing-params."""


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
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):  # a NamedTuple record
        return {name: to_jsonable(value) for name, value in obj._asdict().items()}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------

SURFACE_KINDS = {
    "elliptic-k3": ELLIPTIC_K3,
    "generic-k3": GENERIC_K3,
    "elliptic-general": ELLIPTIC_GENERAL,
}
# the parameters that pick a model of each kind
MODEL_PARAMS = {ELLIPTIC_K3: (), GENERIC_K3: ("degree",), ELLIPTIC_GENERAL: ("chi_o",)}
# the factory of each kind, which takes exactly its MODEL_PARAMS as keywords
MODEL_FACTORIES = {ELLIPTIC_K3: elliptic_k3, GENERIC_K3: generic_k3, ELLIPTIC_GENERAL: elliptic_general}
# instance params the checks read as integers
INT_PARAMS = ("r", "s", "a", "b", "chi", "chi_prime")


def resolve_surface(spec: dict) -> SurfaceModel:
    name = spec.get("kind", "elliptic-k3")
    if not isinstance(name, str) or name not in SURFACE_KINDS:
        raise CliConfigError(f"unknown surface kind {name!r}")
    kind = SURFACE_KINDS[name]
    unknown = [key for key in spec if key not in ("kind", *MODEL_PARAMS[kind])]
    if unknown:
        raise CliConfigError(f"surface {name} takes no key {unknown[0]!r}")
    try:
        args = {key: _config_int(spec.get(key, 0), f"surface {key}") for key in MODEL_PARAMS[kind]}
        return MODEL_FACTORIES[kind](**args)
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
    """An integer, or "p/q" with integers p and q != 0."""
    if not (isinstance(text, str) and "/" in text):
        return Fraction(_config_int(text, "rational"))
    try:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
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


class Bound(NamedTuple):
    """One bound a check reads: its type, its default and, where the check
    has nothing to examine below some value, that lower bound."""

    kind: type  # int, or list for a list of ints
    default: object = None  # None: the check reads "not given"
    lo: int | None = None

    def read(self, value, what: str):
        if self.kind is list:
            if not isinstance(value, list):
                raise CliConfigError(f"{what} is not a list of integers: {value!r}")
            return tuple(_config_int(x, what) for x in value)
        return _config_int(value, what)


def check_arguments(spec: dict, where: str = "instance") -> tuple[SurfaceModel, dict[str, dict]]:
    """The model of a spec and the typed keyword arguments of each requested
    check, read as ``CHECKS`` declares them.  Raises CliConfigError on an
    unknown check, a malformed surface, param or bound, and on a bound that
    none of the requested checks reads."""
    model = resolve_surface(spec["surface"])
    params = {}
    for key, value in spec["params"].items():
        if key in ("v", "w"):
            params[key] = parse_vector(value, model)
        elif key == "m":
            params[key] = parse_rational(value)
        elif key in INT_PARAMS:
            params[key] = _config_int(value, f"{where} param {key!r}")
        else:
            raise CliConfigError(f"{where} has unknown param {key!r}")
    given = spec["bounds"]
    args = {}
    for name in spec["checks"]:
        if not isinstance(name, str) or name not in CHECKS:
            raise CliConfigError(f"{where} requests unknown check {name!r}")
        check = CHECKS[name]
        args[name] = {key: params.get(key) for key in check.params}
        for key, bound in check.bounds.items():
            what = f"{where} bound {key!r}"
            args[name][key] = bound.read(given[key], what) if key in given else bound.default
    unread = [key for key in given if all(key not in CHECKS[name].bounds for name in args)]
    if unread:
        raise CliConfigError(f"{where} bounds {unread} are read by none of its checks")
    return model, args


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
    for key in ("surface", "params", "bounds"):
        if not isinstance(raw.get(key) or {}, dict):
            raise CliConfigError(f"instance #{index} {key} is not a mapping")
    base = {
        "name": str(raw.get("name", f"instance-{index}")),
        "surface": dict(raw.get("surface") or {"kind": "elliptic-k3"}),
        "params": dict(raw.get("params") or {}),
        "checks": list(checks),
        "bounds": dict(raw.get("bounds") or {}),
    }
    # validate eagerly: malformed surfaces, params and bounds are config errors (exit 2)
    check_arguments(base, f"instance #{index}")
    grid = raw.get("grid")
    if not grid:
        return [base]
    if not isinstance(grid, dict):
        raise CliConfigError(f"instance #{index} grid is not a mapping")
    axes = []
    for key in sorted(grid, key=str):
        # the grid sets integer params only, so the checks above hold at every point
        if key not in INT_PARAMS:
            raise CliConfigError(f"grid axis {key!r} is not one of the integer params {INT_PARAMS}")
        rng = grid[key]
        if not (isinstance(rng, list) and len(rng) == 2):
            raise CliConfigError(f"grid axis {key!r} is not a [lo, hi] pair")
        lo, hi = (_config_int(end, f"grid axis {key!r} end") for end in rng)
        if lo > hi:
            raise CliConfigError(f"grid axis {key!r} is empty: {lo} > {hi}")
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
        unknown = sorted(set(doc) - {"version", "instances"}, key=str)
        if unknown:
            raise CliConfigError(f"{path}: unknown top-level keys {unknown}")
        version = doc.get("version", BATCH_VERSION)
        if isinstance(version, bool) or version != BATCH_VERSION:
            raise CliConfigError(f"{path}: version {version!r} is not {BATCH_VERSION}")
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
    """The model of one instance and the tower instance its checks share."""

    def __init__(self, model: SurfaceModel):
        self.model = model
        self.cache: dict = {}

    def instance(self, r, s, a, b):
        if None in (r, s, a, b):
            raise MissingParamsError("missing params: need r, s, a and b")
        if (r, s, a, b) not in self.cache:
            self.cache[r, s, a, b] = tower_instance(r, s, a, b, self.model)
        return self.cache[r, s, a, b]


def _check_nu(ctx: _Ctx, r, s, a, b):
    inst = ctx.instance(r, s, a, b)
    ok = moduli_dim(inst.v) == 2 * a and moduli_dim(inst.w) == 2 * b
    return ("pass" if ok else "fail"), {"nu": inst.nu, "v": inst.v, "w": inst.w}


def _check_line_bundle(ctx: _Ctx, r, s, a, b):
    check = duality_line_bundle(ctx.instance(r, s, a, b))
    return "pass" if check.ok else "fail", {
        "L": check.line_bundle,
        "chi": check.chi,
        "h0": check.h0,
        "alternative_form_matches": check.alternative_form_matches,
    }


def _check_chi_vanishing(ctx: _Ctx, r, s, a, b):
    inst = ctx.instance(r, s, a, b)
    value = euler_form(inst.v, inst.w)
    return ("pass" if value == 0 else "fail"), {"chi_product": value}


def _check_dimension_match(ctx: _Ctx, r, s, a, b):
    left, right, equal = dimension_match(ctx.instance(r, s, a, b))
    return ("pass" if equal else "fail"), {"left": left, "right": right, "equal": equal}


def _check_exclusions(ctx: _Ctx, r, s, a, b):
    require_exclusion_model(ctx.model)
    rep = exclusion_report(ctx.instance(r, s, a, b))
    documented_exception = (r, s, a, b) == DOCUMENTED_H00_EXCEPTION
    ok = (
        rep.q3_excluded
        and rep.s_proper
        and rep.q_proper
        and rep.q1q2_excluded == (not documented_exception)
    )
    return ("pass" if ok else "fail"), {"report": rep}


def _check_tower(ctx: _Ctx, a, r_max, a_max):
    if a_max is not None:
        a_values = range(0, a_max + 1)
    else:
        a_values = [9 if a is None else a]
    failures = [x for x in a_values if not ogrady_tower(r_max, x, ctx.model).ok]
    data = {"r_max": r_max, "a_checked": len(a_values), "failures": failures}
    return ("pass" if not failures else "fail"), data


def _check_sign_law(ctx: _Ctx, coord_bound, degrees):
    total = 0
    mismatches = 0
    checked_e, bad_e, discrepancy = sign_law_sweep(elliptic_k3(), coord_bound)
    total += checked_e
    mismatches += len(bad_e)
    for deg in degrees:
        checked_g, bad_g, _ = sign_law_sweep(generic_k3(deg), coord_bound)
        total += checked_g
        mismatches += len(bad_g)
    data = {
        "pairs_checked": total,
        "mismatches": mismatches,
        "documented_discrepancy": discrepancy,
    }
    return ("pass" if mismatches == 0 else "fail"), data


def _check_fm_verify(ctx: _Ctx, r_max, a_max):
    matrix = derive_fm_matrix(ctx.model)
    report = verify_fm_suite(matrix, r_max, a_max)
    data = {"columns": matrix.columns, "determinant": matrix.determinant(), **report._asdict()}
    return ("pass" if report.all_ok else "fail"), data


def _check_theta_relation(ctx: _Ctx, r, s, chi, chi_prime, r_lo, r_hi, chi_lo, chi_hi):
    if None not in (r, s, chi, chi_prime):
        v, w = theta_pair(r, s, chi, chi_prime)
        res = theta_relation_identity(v, w)
        data = {
            "h_squared": v.model.degree,
            "lambda": res.lambda_v,
            "mu": res.mu_v,
            "identity_ok": res.identity_ok,
            "perpendicular": res.lambda_perp and res.mu_perp,
        }
        return ("pass" if res.ok else "fail"), data
    checked, failures, crossed = theta_relation_sweep(r_lo, r_hi, chi_lo, chi_hi)
    data = {"points_checked": checked, "failures": failures, "typed_cross_checked": crossed}
    if checked == 0:
        return "error:empty", {"reason": "no point with H^2 > 0 in the bounds", **data}
    return ("pass" if not failures else "fail"), data


def _check_deformation(ctx: _Ctx, r, s, chi, chi_prime):
    if None in (r, s, chi, chi_prime):
        raise MissingParamsError("need params r, s, chi and chi_prime")
    pair = deformation_setup(r, s, chi, chi_prime)
    data = {
        "h_squared": pair.degree,
        "elliptic_c1": pair.elliptic.v.c1,
        "nu": pair.elliptic.nu,
        "pairings_agree": pair.pairings_agree,
    }
    ok = pair.pairings_agree and pair.elliptic.nu == chi + chi_prime - 2
    return ("pass" if ok else "fail"), data


def _check_hypotheses(ctx: _Ctx, theorem: str, v, w, r, s, a, b):
    if v is None or w is None:
        if None in (r, s, a, b):
            raise MissingParamsError("need vectors v/w or (r, s, a, b)")
        inst = ctx.instance(r, s, a, b)
        v, w = inst.v, inst.w
    rep = hypotheses_report(v, w, theorem)
    return ("pass" if rep.verdict else "fail"), rep


def _check_exclusion_sweep(ctx: _Ctx, r_lo, r_hi, s_lo, s_hi, ab_max):
    require_exclusion_model(ctx.model)
    points = 0
    h0_violations = []
    h00_exceptions = []
    chi_violations = []
    bound_disagreements = []
    grid = k3_divisible_points(range(r_lo, r_hi + 1), range(s_lo, s_hi + 1), ab_max)
    group = None
    for r, s, a, b, valid in grid:
        # the bound comparison, nu and L depend on (r, s, a+b) alone, and the
        # grid yields the points of each such group one after another
        if group != (r, s, a + b):
            group = (r, s, a + b)
            # both directions of the bound equivalence: valid and too-small twists
            disagrees = theorem2_equivalence(r, s, a, b) is False
            line = None
        if disagrees:
            bound_disagreements.append((r, s, a, b))
        if not valid:
            continue
        points += 1
        nu, _, _, chi_vw, dims = k3_tower_row(r, s, a, b)
        if chi_vw != 0 or dims != (2 * a, 2 * b):
            chi_violations.append((r, s, a, b))
        if line is None:
            line = duality_line_bundle_class(r, s, nu)
            (m, n), chi = line.coeffs, line.model.chi_o
        q3_excluded, q1q2_excluded, s_proper, q_proper = exclusion_flags(m, n, a, b, chi)
        if not (q3_excluded and s_proper and q_proper):
            h0_violations.append((r, s, a, b))
        if not q1q2_excluded:
            h00_exceptions.append((r, s, a, b))
    er, es, ea, eb = DOCUMENTED_H00_EXCEPTION
    expected_exceptions = (
        [DOCUMENTED_H00_EXCEPTION]
        if (r_lo <= er <= r_hi and s_lo <= es <= s_hi and ea + eb <= ab_max)
        else []
    )
    ok = (
        not h0_violations
        and not chi_violations
        and not bound_disagreements
        and h00_exceptions == expected_exceptions
    )
    data = {
        "points_checked": points,
        "h0_violations": h0_violations,
        "h00_exceptions": h00_exceptions,
        "chi_vanishing_violations": chi_violations,
        "bound_equivalence_disagreements": bound_disagreements,
    }
    if ok and points == 0:
        return "error:empty", {"reason": "no valid (r, s, a, b) in the bounds", **data}
    return ("pass" if ok else "fail"), data


def _audit_one_vector(v: MukaiVector, coeff_bound: int):
    walls_data = []
    all_ok = True
    for wall in wall_enumerate(v, coeff_bound):
        audit = codim_audit(v, wall)
        walls_data.append({"wall_d": wall.d, "m_value": wall.m_value, **audit._asdict()})
        all_ok = all_ok and audit.chain_ok and audit.codim_bound_ok and audit.oracle_match
    return all_ok, walls_data


def _check_strata_audit(ctx: _Ctx, v, coeff_bound, s4_lo, s4_hi):
    if v is not None:
        vectors = [v]
    else:
        vectors = [MukaiVector(2, ctx.model.sigma, s4) for s4 in range(s4_lo, s4_hi + 1)]
    if not vectors:
        return "error:empty", {"reason": "no vector to audit: s4_lo > s4_hi"}
    results = []
    ok = True
    for v in vectors:
        v_ok, walls_data = _audit_one_vector(v, coeff_bound)
        results.append({"v": v, "ok": v_ok, "walls": walls_data})
        ok = ok and v_ok
    return ("pass" if ok else "fail"), {"coeff_bound": coeff_bound, "vectors": results}


def _check_suitability(ctx: _Ctx, v, m, coeff_bound):
    if v is None or m is None:
        raise MissingParamsError("need params v and m")
    rep = is_suitable(m, v, coeff_bound)
    return ("pass" if rep.suitable else "fail"), rep


def _check_general_consistency(ctx: _Ctx, chi_list, ranks):
    if not (chi_list and ranks):
        reason = "nothing to examine: chi_list or ranks is empty"
        return "error:empty", {"reason": reason, "cases": []}
    details = []
    ok = True
    for chi_o in chi_list:
        model_ctx = _Ctx(elliptic_general(chi_o))
        for r in ranks:
            for s in ranks:
                total = minimal_valid_total(r, s, chi_o)
                a, b = total // 2, total - total // 2
                inst = model_ctx.instance(r, s, a, b)
                nu_status, _ = _check_nu(model_ctx, r, s, a, b)
                chi_status, _ = _check_chi_vanishing(model_ctx, r, s, a, b)
                line_status, line_data = _check_line_bundle(model_ctx, r, s, a, b)
                entry = {
                    "chi_o": chi_o,
                    "r": r,
                    "s": s,
                    "a": a,
                    "b": b,
                    "nu": inst.nu,
                    "chi_L": line_data["chi"],
                    "instance_ok": nu_status == chi_status == "pass",
                    "line_bundle_ok": line_status == "pass",
                    "tower_ok": ogrady_tower(6, a, inst.surface).ok,
                }
                ok = ok and entry["instance_ok"] and entry["line_bundle_ok"] and entry["tower_ok"]
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
    return ("pass" if ok else "fail"), {"cases": details}


class Check(NamedTuple):
    """A check and all it reads: ``run(ctx, **args)`` gets its params (None when
    not given) and bounds as typed keyword arguments and returns (status, data).
    ``examined`` names the count an ``error:empty`` report sets to 0."""

    run: Callable
    requires: tuple[str, ...] = ()  # checks that must pass first
    params: tuple[str, ...] = ()
    bounds: Mapping[str, Bound] = MappingProxyType({})
    examined: str | None = None


RSAB = ("r", "s", "a", "b")
THETA_PARAMS = ("r", "s", "chi", "chi_prime")
CHECKS = {
    "nu": Check(_check_nu, params=RSAB),
    "line-bundle": Check(_check_line_bundle, ("nu",), RSAB),
    "chi-vanishing": Check(_check_chi_vanishing, ("nu",), RSAB),
    "dimension-match": Check(_check_dimension_match, ("nu",), RSAB),
    "exclusions": Check(_check_exclusions, ("nu",), RSAB),
    "tower": Check(_check_tower, params=("a",), examined="a_checked", bounds={
        "r_max": Bound(int, 10, lo=1),
        "a_max": Bound(int, lo=0),
    }),
    "sign-law": Check(_check_sign_law, examined="pairs_checked", bounds={
        "coord_bound": Bound(int, 3, lo=0),
        "degrees": Bound(list, (2, 4, 6, 8)),
    }),
    "fm-verify": Check(_check_fm_verify, bounds={
        "r_max": Bound(int, 6, lo=1),
        "a_max": Bound(int, 20, lo=0),
    }),
    "theta-relation": Check(_check_theta_relation, params=THETA_PARAMS, bounds={
        "r_lo": Bound(int, 2),
        "r_hi": Bound(int, 5),
        "chi_lo": Bound(int, -5),
        "chi_hi": Bound(int, 0),
    }),
    "deformation": Check(_check_deformation, params=THETA_PARAMS),
    **{
        f"hypotheses-{t}": Check(partial(_check_hypotheses, theorem=t), params=("v", "w", *RSAB))
        for t in ("T1", "T1A", "T2", "T5", "Conj")
    },
    "exclusion-sweep": Check(_check_exclusion_sweep, bounds={
        "r_lo": Bound(int, 2),
        "r_hi": Bound(int, 4),
        "s_lo": Bound(int, 2),
        "s_hi": Bound(int, 4),
        "ab_max": Bound(int, 60),
    }),
    "strata-audit": Check(_check_strata_audit, params=("v",), bounds={
        "coeff_bound": Bound(int, 3, lo=1),
        "s4_lo": Bound(int, -4),
        "s4_hi": Bound(int, 0),
    }),
    "suitability": Check(_check_suitability, params=("v", "m"), bounds={
        "coeff_bound": Bound(int, 3),
    }),
    "general-consistency": Check(_check_general_consistency, bounds={
        "chi_list": Bound(list, (2, 3, 4)),
        "ranks": Bound(list, (2, 3)),
    }),
}


def _unmet(check: Check, args: dict):
    """The error:empty result a lower bound gives before a run, if any."""
    for key, bound in check.bounds.items():
        if bound.lo is not None and args[key] is not None and args[key] < bound.lo:
            data = {"reason": f"nothing to examine: need {key} >= {bound.lo}", key: args[key]}
            if check.examined:
                data[check.examined] = 0
            return "error:empty", data


def run_instance(spec: dict) -> dict:
    """Execute the requested checks of one instance in dependency order."""
    started = time.perf_counter()
    model, args = check_arguments(spec)
    ctx = _Ctx(model)
    results: dict[str, dict] = {}
    statuses: dict[str, str] = {}
    for name, check in CHECKS.items():
        if name not in args:
            continue
        blocked = [req for req in check.requires if statuses.get(req, "pass") != "pass"]
        if blocked:
            statuses[name] = "skipped"
            results[name] = {
                "status": "skipped",
                "reason": f"requires {blocked[0]} which did not pass",
                "timing_ms": 0,
            }
            continue
        check_started = time.perf_counter()
        try:
            status, data = _unmet(check, args[name]) or check.run(ctx, **args[name])
        except DivisibilityError as exc:
            status, data = "error:divisibility", {"reason": str(exc)}
        except NuBoundError as exc:
            status, data = "error:nu-bound", {"reason": str(exc)}
        except MissingParamsError as exc:
            status, data = "error:missing-params", {"reason": str(exc)}
        except ModelMismatchError as exc:  # the library judges where each check runs
            status, data = "error:model", {"reason": str(exc)}
        except ValueError as exc:
            status, data = "error:invalid", {"reason": str(exc)}
        except Exception as exc:  # one broken check must not sink the batch
            status, data = f"error:internal:{type(exc).__name__}", {"reason": str(exc)}
        statuses[name] = status
        timing_ms = int((time.perf_counter() - check_started) * 1000)
        results[name] = {"status": status, **to_jsonable(data), "timing_ms": timing_ms}
    return {
        "spec": spec,
        "results": results,
        "timing_ms": int((time.perf_counter() - started) * 1000),
    }


def run_batch(instances: list[dict]) -> dict:
    return {"version": __version__, "instances": [run_instance(spec) for spec in instances]}


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


def _default(check: str, bound: str):
    return CHECKS[check].bounds[bound].default


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strangedual",
        description="Exact lattice checks for strange duality on K3-type surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to this path")
    common.add_argument("--quiet", action="store_true", help="suppress per-check summary lines")

    p_check = sub.add_parser("check", parents=[common], help="run checks on a single instance")
    p_check.add_argument("--surface", default="elliptic-k3", choices=sorted(SURFACE_KINDS))
    p_check.add_argument("--degree", type=int, help="H^2 for the generic K3 model")
    p_check.add_argument("--chi-o", type=int, help="chi(O) for the general elliptic model")
    for key in INT_PARAMS:
        p_check.add_argument(f"--{key.replace('_', '-')}", type=int)
    p_check.add_argument("--v", help="vector r:x,y:s (or r:x:s on the generic model)")
    p_check.add_argument("--w", help="second vector")
    p_check.add_argument("--m", help="polarization parameter, integer or p/q")
    p_check.add_argument("--checks", required=True, help="comma-separated check names")

    p_batch = sub.add_parser("batch", parents=[common], help="run every instance of a YAML spec file")
    p_batch.add_argument("path")

    p_fm = sub.add_parser("fm-verify", parents=[common], help="derive and verify the transform matrix")
    p_fm.add_argument("--rmax", type=int, default=_default("fm-verify", "r_max"))
    p_fm.add_argument("--amax", type=int, default=_default("fm-verify", "a_max"))
    p_fm.add_argument("--surface", default="elliptic-k3", choices=["elliptic-k3", "elliptic-general"])
    p_fm.add_argument("--chi-o", type=int)

    p_strata = sub.add_parser("strata", parents=[common], help="enumerate walls and audit strata")
    p_strata.add_argument("--v", required=True, help="vector r:x,y:s")
    p_strata.add_argument("--coeff-bound", type=int, default=_default("strata-audit", "coeff_bound"))

    p_sweep = sub.add_parser("sweep", parents=[common], help="exclusion sweep over rank/dimension grids")
    for axis, factor in (("r", "first"), ("s", "second")):
        lo, hi = (_default("exclusion-sweep", f"{axis}_{end}") for end in ("lo", "hi"))
        help_text = f"rank range lo:hi for the {factor} factor"
        p_sweep.add_argument(f"--{axis}", default=f"{lo}:{hi}", help=help_text)
    p_sweep.add_argument("--ab-max", type=int, default=_default("exclusion-sweep", "ab_max"))
    return parser


def _range_pair(text: str) -> list[int]:
    try:
        lo, hi = str(text).split(":")
        return [int(lo), int(hi)]
    except ValueError as exc:
        raise CliConfigError(f"bad range {text!r}, expected lo:hi") from exc


def instances_from_args(args: argparse.Namespace) -> list[dict]:
    if args.command == "batch":
        return load_batch(args.path)
    surface = {"kind": getattr(args, "surface", "elliptic-k3")}
    for key in ("degree", "chi_o"):
        if getattr(args, key, None) is not None:
            surface[key] = getattr(args, key)
    raw = {"name": args.command, "surface": surface, "params": {}, "bounds": {}}
    if args.command == "check":
        for key in (*INT_PARAMS, "v", "w", "m"):
            if getattr(args, key) is not None:
                raw["params"][key] = getattr(args, key)
        raw["checks"] = [c.strip() for c in args.checks.split(",") if c.strip()]
    elif args.command == "fm-verify":
        raw["checks"] = ["fm-verify"]
        raw["bounds"] = {"r_max": args.rmax, "a_max": args.amax}
    elif args.command == "strata":
        raw["params"] = {"v": args.v}
        raw["checks"] = ["strata-audit"]
        raw["bounds"] = {"coeff_bound": args.coeff_bound}
    else:
        raw["checks"] = ["exclusion-sweep"]
        r_lo, r_hi = _range_pair(args.r)
        s_lo, s_hi = _range_pair(args.s)
        raw["bounds"] = {"r_lo": r_lo, "r_hi": r_hi, "s_lo": s_lo, "s_hi": s_hi, "ab_max": args.ab_max}
    return normalize_instance(raw, 0)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        instances = instances_from_args(args)
    except CliConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = run_batch(instances)
    _emit(doc, args.out, args.quiet)
    return document_exit_code(doc)


if __name__ == "__main__":
    sys.exit(main())
