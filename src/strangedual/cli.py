"""Batch front-end: parse instance descriptions, run check suites, emit JSON.

Input is a batch file in a subset of YAML, read by ``batchfile`` (or
command-line flags assembled into the same shape):

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
import gc
import json
import sys
import time
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import partial
from itertools import product
from types import MappingProxyType
from typing import NamedTuple

from . import __version__
from .batchfile import CliConfigError, read_batch_text
from .duality import (
    DivisibilityError,
    NuBoundError,
    judge_chi_vanishing,
    judge_deformation,
    judge_dimension_match,
    judge_exclusion_sweep,
    judge_exclusions,
    judge_general_consistency,
    judge_hypotheses,
    judge_line_bundle,
    judge_nu,
    judge_theta_relation,
    judge_tower,
    judge_tower_hypotheses,
)
from .fourier_mukai import judge_fm_verify
from .strata import judge_strata_audit, judge_suitability
from .surfaces import (
    MissingParamsError,
    ModelMismatchError,
    MukaiVector,
    NothingToExamineError,
    NSClass,
    SurfaceModel,
    elliptic_general,
    elliptic_k3,
    generic_k3,
    judge_sign_law,
    mukai_pair,  # unused here; perfbench/tests/test_perfbench.py reads cli.mukai_pair
)

# the batch-file format this reader takes; a file may omit its version
BATCH_VERSION = 1


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

# the factory of each surface kind and the keys it takes, all as keywords
SURFACE_KINDS = {
    "elliptic-k3": (elliptic_k3, ()),
    "generic-k3": (generic_k3, ("degree",)),
    "elliptic-general": (elliptic_general, ("chi_o",)),
}
# instance params the checks read as integers
INT_PARAMS = ("r", "s", "a", "b", "chi", "chi_prime")


def resolve_surface(spec: dict) -> SurfaceModel:
    name = spec.get("kind", "elliptic-k3")
    if not isinstance(name, str) or name not in SURFACE_KINDS:
        raise CliConfigError(f"unknown surface kind {name!r}")
    factory, keys = SURFACE_KINDS[name]
    unknown = [key for key in spec if key not in ("kind", *keys)]
    if unknown:
        raise CliConfigError(f"surface {name} takes no key {unknown[0]!r}")
    try:
        return factory(**{key: _config_int(spec.get(key, 0), f"surface {key}") for key in keys})
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
    """One bound a check reads: its type and its default."""

    kind: type  # int, or list for a list of ints
    default: object = None  # None: the check reads "not given"

    def read(self, value, what: str):
        if self.kind is list:
            if not isinstance(value, list):
                raise CliConfigError(f"{what} is not a list of integers: {value!r}")
            return tuple(_config_int(x, what) for x in value)
        return _config_int(value, what)


def check_arguments(spec: dict, where: str = "instance") -> tuple[SurfaceModel, dict[str, dict]]:
    """The model of a spec and the typed keyword arguments of each requested
    check, read as ``CHECKS`` declares them.  Raises CliConfigError on an
    unknown check, a malformed surface, param or bound, and on a param or
    bound that none of the requested checks reads."""
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
        stated = [[key for key in mode if key in params or key in given] for mode in check.modes]
        stated = [keys for keys in stated if keys]
        if len(stated) > 1:
            raise CliConfigError(f"{where} gives {name} inputs of two modes: {stated[0]} and {stated[1]}")
    for what, keys in (("params", params), ("bounds", given)):
        unread = [key for key in keys if all(key not in getattr(CHECKS[n], what) for n in args)]
        if unread:
            raise CliConfigError(f"{where} {what} {unread} are read by none of its checks")
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
        if raw.get(key) is not None and not isinstance(raw[key], dict):
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
    # every point sets the same params, so one point shows whether a check reads each axis
    check_arguments(out[0], f"instance #{index}")
    return out


def load_batch(path: str) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliConfigError(f"cannot read {path}: {exc}") from exc
    doc = read_batch_text(text, path)
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


class Check(NamedTuple):
    """A check and all it reads.  ``run(model, **args)`` is a library judge:
    it gets the instance's surface model, its params (None when not given)
    and bounds as typed keyword arguments, and returns (verdict, data).  Each
    of ``modes`` names the params and bounds of one way to run the check; an
    instance may give the inputs of one mode only."""

    run: Callable
    requires: tuple[str, ...] = ()  # checks that must pass first
    params: tuple[str, ...] = ()
    bounds: Mapping[str, Bound] = MappingProxyType({})
    modes: tuple[tuple[str, ...], ...] = ()


RSAB = ("r", "s", "a", "b")
THETA_PARAMS = ("r", "s", "chi", "chi_prime")
CHECKS = {
    "nu": Check(judge_nu, params=RSAB),
    "line-bundle": Check(judge_line_bundle, ("nu",), RSAB),
    "chi-vanishing": Check(judge_chi_vanishing, ("nu",), RSAB),
    "dimension-match": Check(judge_dimension_match, ("nu",), RSAB),
    "exclusions": Check(judge_exclusions, ("nu",), RSAB),
    "tower": Check(judge_tower, params=("a",), bounds={
        "r_max": Bound(int, 10),
        "a_max": Bound(int),
    }, modes=(("a",), ("a_max",))),
    "sign-law": Check(judge_sign_law, bounds={
        "coord_bound": Bound(int, 3),
        "degrees": Bound(list, (2, 4, 6, 8)),
    }),
    "fm-verify": Check(judge_fm_verify, bounds={
        "r_max": Bound(int, 6),
        "a_max": Bound(int, 20),
    }),
    "theta-relation": Check(judge_theta_relation, params=THETA_PARAMS, bounds={
        "r_lo": Bound(int, 2),
        "r_hi": Bound(int, 5),
        "chi_lo": Bound(int, -5),
        "chi_hi": Bound(int, 0),
    }, modes=(THETA_PARAMS, ("r_lo", "r_hi", "chi_lo", "chi_hi"))),
    "deformation": Check(judge_deformation, params=THETA_PARAMS),
    **{
        f"hypotheses-{t}": Check(partial(judge_hypotheses, theorem=t), params=("v", "w"))
        for t in ("T1", "T1A")
    },
    **{
        f"hypotheses-{t}": Check(partial(judge_tower_hypotheses, theorem=t), params=("v", "w", *RSAB),
                                 modes=(("v", "w"), RSAB))
        for t in ("T2", "T5", "Conj")
    },
    "exclusion-sweep": Check(judge_exclusion_sweep, bounds={
        "r_lo": Bound(int, 2),
        "r_hi": Bound(int, 4),
        "s_lo": Bound(int, 2),
        "s_hi": Bound(int, 4),
        "ab_max": Bound(int, 60),
    }),
    "strata-audit": Check(judge_strata_audit, params=("v",), bounds={
        "coeff_bound": Bound(int, 3),
        "s4_lo": Bound(int, -4),
        "s4_hi": Bound(int, 0),
    }, modes=(("v",), ("s4_lo", "s4_hi"))),
    "suitability": Check(judge_suitability, params=("v", "m"), bounds={
        "coeff_bound": Bound(int, 3),
    }),
    "general-consistency": Check(judge_general_consistency, bounds={
        "chi_list": Bound(list, (2, 3, 4)),
        "ranks": Bound(list, (2, 3)),
    }),
}
# the status of a judge's verdict, and of each exception a judge may raise,
# the first that matches; any other exception is error:internal:<its type>
VERDICT_STATUS = {True: "pass", False: "fail"}
ERROR_STATUS = (
    (NothingToExamineError, "error:empty"),
    (DivisibilityError, "error:divisibility"),
    (NuBoundError, "error:nu-bound"),
    (MissingParamsError, "error:missing-params"),
    (ModelMismatchError, "error:model"),  # the library judges where each check runs
    (ValueError, "error:invalid"),
)


def run_instance(spec: dict) -> dict:
    """Execute the requested checks of one instance in dependency order."""
    started = time.perf_counter()
    model, args = check_arguments(spec)
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
            verdict, data = check.run(model, **args[name])
            status = VERDICT_STATUS[verdict]
        except Exception as exc:  # one broken check must not sink the batch
            internal = f"error:internal:{type(exc).__name__}"
            status = next((s for kind, s in ERROR_STATUS if isinstance(exc, kind)), internal)
            data = {"reason": str(exc), **(exc.data if isinstance(exc, NothingToExamineError) else {})}
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
    p_check.add_argument(
        "--bounds", default="{}", help="the bounds as a batch file writes them: '{r_max: 6, a_max: 20}'"
    )

    p_batch = sub.add_parser("batch", parents=[common], help="run every instance of a YAML spec file")
    p_batch.add_argument("path")
    return parser


def instances_from_args(args: argparse.Namespace) -> list[dict]:
    if args.command == "batch":
        return load_batch(args.path)
    flags = vars(args)
    surface = {key: flags[key] for key in ("degree", "chi_o") if flags[key] is not None}
    raw = {
        "name": "check",
        "surface": {"kind": args.surface, **surface},
        "params": {key: flags[key] for key in (*INT_PARAMS, "v", "w", "m") if flags[key] is not None},
        "checks": [c.strip() for c in args.checks.split(",") if c.strip()],
        "bounds": read_batch_text(args.bounds, "--bounds"),
    }
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


def entry() -> None:
    """Run ``main`` and exit with its code, the heap frozen first: shutdown's
    collections skip frozen objects, and ``atexit`` handlers and stream flushes
    still run (``os._exit`` would skip them).  Callers of ``main`` keep their GC state."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
