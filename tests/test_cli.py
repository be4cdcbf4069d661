"""CLI behavior: parsing, exit codes, batch semantics, determinism."""

import ast
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from math import comb, gcd
from pathlib import Path

import pytest
import yaml

import strangedual.cli as cli
import strangedual.duality as duality
import strangedual.fourier_mukai as fourier_mukai
import strangedual.hilbert as hilbert
import strangedual.strata as strata
import strangedual.surfaces as surfaces
from strangedual.batchfile import read_batch_text
from strangedual.cli import (
    CliConfigError,
    document_exit_code,
    load_batch,
    main,
    normalize_instance,
    parse_rational,
    parse_vector,
    run_batch,
    run_instance,
    to_jsonable,
)
from strangedual.duality import (
    DivisibilityError,
    NuBoundError,
    compute_nu,
    k3_divisible_points,
)
from strangedual.fourier_mukai import derive_fm_matrix
from strangedual.strata import (
    chain_audit,
    codim_audit,
    strata_box_oracle,
    strata_enumerate,
    unordered_count,
    wall_enumerate,
)
from strangedual.surfaces import elliptic_general, elliptic_k3, generic_k3, mukai_pair
from fractions import Fraction
from test_strata import BENCH_VECTORS, _reference_stratum_codim_ok


E = elliptic_k3()


@pytest.fixture(autouse=True)
def _batch_texts_read_as_pyyaml_reads_them(monkeypatch):
    """Every batch text a test here loads, and the reader accepts, reads as
    PyYAML's safe_load reads it: same values, types and key order."""

    def compared(text, source):
        doc = read_batch_text(text, source)
        assert repr(doc) == repr(yaml.safe_load(text)), source
        return doc

    monkeypatch.setattr(cli, "read_batch_text", compared)


def _strip_timing(text: str) -> str:
    return re.sub(r'"timing_ms": \d+', '"timing_ms": 0', text)


class TestParsing:
    def test_vector_elliptic(self):
        v = parse_vector("2:1,7:-1", E)
        assert (v.r, v.c1.coeffs, v.s) == (2, (1, 7), -1)

    def test_vector_generic(self):
        g = generic_k3(8)
        v = parse_vector("2:1:-2", g)
        assert (v.r, v.c1.coeffs, v.s) == (2, (1,), -2)

    def test_vector_errors(self):
        with pytest.raises(CliConfigError):
            parse_vector("2:1", E)
        with pytest.raises(CliConfigError):
            parse_vector("2:1:3", E)  # needs two c1 coefficients
        with pytest.raises(CliConfigError):
            parse_vector("a:1,2:3", E)

    def test_rational(self):
        assert parse_rational("8/3") == Fraction(8, 3)
        assert parse_rational(5) == Fraction(5)
        with pytest.raises(CliConfigError):
            parse_rational("x/y")

    def test_unknown_check_rejected(self):
        with pytest.raises(CliConfigError):
            normalize_instance({"checks": ["no-such-check"]}, 0)

    def test_unknown_field_rejected(self):
        with pytest.raises(CliConfigError):
            normalize_instance({"checks": ["nu"], "extra": 1}, 0)

    def test_fraction_serialization(self):
        assert to_jsonable(Fraction(8, 3)) == "8/3"
        assert to_jsonable({"m": Fraction(4)}) == {"m": "4/1"}


class TestRunInstance:
    def test_case_study_all_pass(self):
        spec = normalize_instance(
            {
                "name": "case",
                "surface": {"kind": "elliptic-k3"},
                "params": {"r": 2, "s": 2, "a": 9, "b": 9},
                "checks": ["nu", "line-bundle", "chi-vanishing", "dimension-match", "exclusions"],
            },
            0,
        )[0]
        report = run_instance(spec)
        statuses = {k: v["status"] for k, v in report["results"].items()}
        assert set(statuses.values()) == {"pass"}
        assert report["results"]["nu"]["nu"] == -2
        assert report["results"]["dimension-match"]["left"] == 48620

    def test_divisibility_error_skips_dependents(self):
        spec = normalize_instance(
            {
                "name": "bad",
                "params": {"r": 2, "s": 2, "a": 9, "b": 8},
                "checks": ["nu", "line-bundle", "dimension-match"],
            },
            0,
        )[0]
        report = run_instance(spec)
        results = report["results"]
        assert results["nu"]["status"] == "error:divisibility"
        assert results["line-bundle"]["status"] == "skipped"
        assert "nu" in results["line-bundle"]["reason"]
        assert results["dimension-match"]["status"] == "skipped"
        assert document_exit_code({"instances": [report]}) == 1

    def test_nu_bound_error_is_distinct(self):
        spec = normalize_instance(
            {"params": {"r": 2, "s": 2, "a": 5, "b": 5}, "checks": ["nu"]}, 0
        )[0]
        report = run_instance(spec)
        assert report["results"]["nu"]["status"] == "error:nu-bound"

    def test_missing_params(self):
        spec = normalize_instance({"checks": ["nu"]}, 0)[0]
        result = run_instance(spec)["results"]["nu"]
        assert result["status"] == "error:missing-params"
        assert result["reason"] == "missing params: need r, s, a and b"

    @pytest.mark.parametrize(
        "check,reason",
        [
            ("deformation", "need params r, s, chi and chi_prime"),
            ("suitability", "need params v and m"),
            ("hypotheses-T2", "need vectors v/w or (r, s, a, b)"),
        ],
    )
    def test_missing_params_of_each_check(self, check, reason):
        spec = normalize_instance({"checks": [check]}, 0)[0]
        result = run_instance(spec)["results"][check]
        assert (result["status"], result["reason"]) == ("error:missing-params", reason)

    def test_key_error_in_a_check_is_internal(self, monkeypatch):
        def broken(*args):
            raise KeyError("a fault in the program")

        monkeypatch.setattr(duality, "tower_instance", broken)
        spec = normalize_instance(
            {"params": {"r": 2, "s": 2, "a": 9, "b": 9}, "checks": ["nu"]}, 0
        )[0]
        result = run_instance(spec)["results"]["nu"]
        assert result["status"] == "error:internal:KeyError"

    def test_assertion_error_in_a_check_is_internal(self, monkeypatch):
        # a failed assertion marks a fault in the program, not a bad input
        def broken(*args):
            raise AssertionError("a fault in the program")

        monkeypatch.setattr(duality, "tower_instance", broken)
        spec = normalize_instance(
            {"params": {"r": 2, "s": 2, "a": 9, "b": 9}, "checks": ["nu"]}, 0
        )[0]
        result = run_instance(spec)["results"]["nu"]
        assert result["status"] == "error:internal:AssertionError"
        assert result["reason"] == "a fault in the program"

    @pytest.mark.parametrize(
        "chi,chi_prime,h2", [(-1, 0, 15), (0, -1, 14), (4, 5, -10)]
    )
    def test_single_point_theta_relation(self, chi, chi_prime, h2):
        # an odd or non-positive H^2 is outside the relation's domain
        # the point's own surface where it has one; an invalid H^2 is refused
        # before the stated surface is read
        params = {"r": 2, "s": 3, "chi": chi, "chi_prime": chi_prime}
        raw = {"params": params, "checks": ["theta-relation"]}
        if h2 > 0 and h2 % 2 == 0:
            raw["surface"] = {"kind": "generic-k3", "degree": h2}
        result = run_instance(normalize_instance(raw, 0)[0])["results"]["theta-relation"]
        if h2 > 0 and h2 % 2 == 0:
            assert (result["status"], result["h_squared"]) == ("pass", h2)
        else:
            assert result["status"] == "error:invalid"
            assert result["reason"] == f"induced H^2 = {h2} is not a positive even integer"

    def test_suitability_check(self):
        spec = normalize_instance(
            {
                "params": {"v": "2:1,0:-2", "m": 5},
                "checks": ["suitability"],
                "bounds": {"coeff_bound": 3},
            },
            0,
        )[0]
        report = run_instance(spec)
        result = report["results"]["suitability"]
        assert result["status"] == "pass"
        assert result["max_wall"] == "4/1"
        # the report is the SuitabilityReport as is, with its status and timing
        assert set(result) == {"status", "suitable", "max_wall", "coeff_bound", "note", "timing_ms"}

    @pytest.mark.parametrize(
        "surface,params,theorem",
        [
            ({"kind": "generic-k3", "degree": 8}, {"v": "2:1:-2", "w": "3:1:-3"}, "T1"),
            ({"kind": "elliptic-k3"}, {"r": 2, "s": 3, "a": 13, "b": 14}, "T2"),
        ],
    )
    def test_hypotheses_report_keys(self, surface, params, theorem):
        name = f"hypotheses-{theorem}"
        spec = normalize_instance({"surface": surface, "params": params, "checks": [name]}, 0)[0]
        result = run_instance(spec)["results"][name]
        # the report is the HypothesisReport as is, with its status and timing
        assert set(result) == {"status", "conditions", "verdict", "timing_ms"}
        assert result["status"] == ("pass" if result["verdict"] else "fail")

    def test_exclusions_report_keys(self):
        spec = normalize_instance({"params": {"r": 2, "s": 2, "a": 9, "b": 9}, "checks": ["exclusions"]}, 0)[0]
        report = run_instance(spec)["results"]["exclusions"]["report"]
        # the inputs stay in the instance's params; the exceptional case is not q1q2_excluded
        assert not {"r", "s", "a", "b", "exceptional_case"} & set(report)
        assert (report["nu"], report["q1q2_excluded"], report["q3_excluded"]) == (-2, False, True)

    def test_hypotheses_from_tower_params(self):
        spec = normalize_instance(
            {
                "params": {"r": 2, "s": 3, "a": 13, "b": 14},
                "checks": ["hypotheses-T2"],
            },
            0,
        )[0]
        report = run_instance(spec)
        assert report["results"]["hypotheses-T2"]["status"] == "pass"


RSAB_9 = {"r": 2, "s": 2, "a": 9, "b": 9}


class TestHalfStatedModes:
    """A check with two modes refuses a half-stated one rather than run the other."""

    @pytest.mark.parametrize("params", [{"r": 9}, {"r": 2, "s": 2, "chi": -1}])
    def test_a_partial_theta_point_is_missing_params(self, params):
        raw = {"surface": {"kind": "generic-k3", "degree": 8}, "params": params,
               "checks": ["theta-relation"]}
        result = run_instance(normalize_instance(raw, 0)[0])["results"]["theta-relation"]
        assert result["status"] == "error:missing-params"
        assert result["reason"] == "the point mode needs params r, s, chi and chi_prime"
        assert "points_checked" not in result

    @pytest.mark.parametrize("key", ["v", "w"])
    @pytest.mark.parametrize("theorem", ["T2", "T5", "Conj"])
    def test_a_lone_vector_is_missing_params(self, key, theorem):
        params = {key: "2:1,7:-1"}
        raw = {"params": params, "checks": [f"hypotheses-{theorem}"]}
        result = run_instance(normalize_instance(raw, 0)[0])["results"][f"hypotheses-{theorem}"]
        assert result["status"] == "error:missing-params"
        assert result["reason"] == "need both vectors v and w"


class TestTwoModesAtOnce:
    """Inputs of two modes of one check exit 2 at load: one mode would go unread."""

    @pytest.mark.parametrize(
        "text,stated",
        [
            ("  - params: {v: '2:1,0:-2'}\n    checks: [strata-audit]\n    bounds: {s4_lo: -2}\n",
             "strata-audit inputs of two modes: ['v'] and ['s4_lo']"),
            ("  - params: {v: '2:1,0:-2'}\n    checks: [strata-audit]\n    bounds: {s4_hi: 0, coeff_bound: 3}\n",
             "strata-audit inputs of two modes: ['v'] and ['s4_hi']"),
            ("  - surface: {kind: generic-k3, degree: 12}\n    params: {r: 2, s: 2, chi: -1, chi_prime: -1}\n"
             "    checks: [theta-relation]\n    bounds: {chi_hi: 0}\n",
             "theta-relation inputs of two modes: ['r', 's', 'chi', 'chi_prime'] and ['chi_hi']"),
            ("  - params: {r: 2}\n    checks: [theta-relation]\n    bounds: {r_lo: 2, r_hi: 3}\n",
             "theta-relation inputs of two modes: ['r'] and ['r_lo', 'r_hi']"),
            ("  - params: {v: '2:1,7:-1', w: '2:1,6:-2', a: 9}\n    checks: [hypotheses-T2]\n",
             "hypotheses-T2 inputs of two modes: ['v', 'w'] and ['a']"),
            ("  - params: {w: '2:1,6:-2', r: 2, s: 2, a: 9, b: 9}\n    checks: [nu, hypotheses-Conj]\n",
             "hypotheses-Conj inputs of two modes: ['w'] and ['r', 's', 'a', 'b']"),
            # a grid axis is a param at every point
            ("  - params: {v: '2:1,7:-1', w: '2:1,6:-2'}\n    grid: {r: [2, 3]}\n    checks: [hypotheses-T5]\n",
             "hypotheses-T5 inputs of two modes: ['v', 'w'] and ['r']"),
            ("  - params: {a: 9}\n    checks: [tower]\n    bounds: {a_max: 6}\n",
             "tower inputs of two modes: ['a'] and ['a_max']"),
        ],
        ids=["strata-v-s4_lo", "strata-v-s4_hi", "theta-point-bound", "theta-part-point-bounds",
             "hypotheses-vectors-a", "hypotheses-w-rsab", "hypotheses-grid", "tower-a-a_max"],
    )
    def test_inputs_of_two_modes_exit_two(self, tmp_path, capsys, text, stated):
        code, err, doc = _run_batch_text(tmp_path, "instances:\n" + text, capsys)
        assert code == 2 and doc is None
        assert err == f"error: instance #0 gives {stated}\n"

    @pytest.mark.parametrize("name", [name for name, check in cli.CHECKS.items() if check.modes])
    def test_the_modes_of_a_check_are_disjoint_inputs_it_reads(self, name):
        check = cli.CHECKS[name]
        moded = [key for mode in check.modes for key in mode]
        assert len(check.modes) == 2 and len(moded) == len(set(moded))
        assert set(moded) <= set(check.params) | set(check.bounds)


class TestChecksGiveTheVerdict:
    """A broken rule is a fail on the check that owns the fact it breaks."""

    def test_nu_off_by_one(self, monkeypatch):
        original = duality.compute_nu
        monkeypatch.setattr(duality, "compute_nu", lambda *args: original(*args) - 1)
        spec = normalize_instance({"params": RSAB_9, "checks": ["nu", "line-bundle"]}, 0)[0]
        results = run_instance(spec)["results"]
        # nu finds the twist -2 as the root of chi(v . v_{s,b}(x f)); the
        # dimensions alone would pass, as a fibre twist keeps them
        assert (results["nu"]["status"], results["nu"]["nu"]) == ("fail", -3)
        assert results["line-bundle"]["status"] == "skipped"
        # run without nu, the checks that require it judge nu too
        checks = ["line-bundle", "chi-vanishing", "dimension-match"]
        spec = normalize_instance({"params": RSAB_9, "checks": checks}, 0)[0]
        results = run_instance(spec)["results"]
        chi = results["chi-vanishing"]
        assert (chi["status"], chi["chi_product"]) == ("fail", -4)
        line = results["line-bundle"]
        assert (line["status"], line["chi"], line["h0"]) == ("fail", 22, 22)
        assert line["alternative_form_matches"] is False
        assert results["dimension-match"]["status"] == "pass"
        assert not any(r["status"].startswith("error") for r in results.values())

    def test_nu_off_by_one_fails_the_sweep(self, monkeypatch):
        original = duality.compute_nu
        monkeypatch.setattr(duality, "compute_nu", lambda *args: original(*args) - 1)
        bounds = {"r_hi": 2, "s_lo": 3, "s_hi": 3, "ab_max": 40}
        spec = normalize_instance({"checks": ["exclusion-sweep"], "bounds": bounds}, 0)[0]
        result = run_instance(spec)["results"]["exclusion-sweep"]
        # every valid point: a + b = 27, 32 and 37
        valid = [list(p[:4]) for p in k3_divisible_points([2], [3], 40) if p[4]]
        assert len(valid) == 28 + 33 + 38
        assert result["status"] == "fail"
        assert result["chi_vanishing_violations"] == valid

    def test_wrong_dimension_fails_nu(self, monkeypatch):
        original = duality.normalized_vector
        monkeypatch.setattr(
            duality, "normalized_vector", lambda r, a, model: original(r, a + 1, model)
        )
        spec = normalize_instance({"params": RSAB_9, "checks": ["nu", "chi-vanishing"]}, 0)[0]
        results = run_instance(spec)["results"]
        assert results["nu"]["status"] == "fail"
        assert results["chi-vanishing"]["status"] == "skipped"

    @pytest.mark.parametrize("shift", [0, 1, -1])
    def test_nu_judges_the_twist_at_every_valid_point(self, monkeypatch, shift):
        original = duality.compute_nu
        monkeypatch.setattr(duality, "compute_nu", lambda *args: original(*args) + shift)
        points = [p[:4] for p in k3_divisible_points(range(2, 5), range(2, 5), 40) if p[4]]
        verdicts = Counter(duality.judge_nu(E, *point)[0] for point in points)
        assert verdicts == {shift == 0: len(points)}
        assert len(points) > 100

    def test_broken_euler_form_fails_general_consistency(self, monkeypatch):
        monkeypatch.setattr(duality, "euler_form", lambda v, w: 1)
        bounds = {"chi_list": [3], "ranks": [2]}
        spec = normalize_instance({"checks": ["general-consistency"], "bounds": bounds}, 0)[0]
        result = run_instance(spec)["results"]["general-consistency"]
        assert result["status"] == "fail"
        assert [case["instance_ok"] for case in result["cases"]] == [False]
        assert result["cases"][0]["line_bundle_ok"] and result["cases"][0]["tower_ok"]

    def test_nu_off_by_one_fails_deformation(self, monkeypatch, tmp_path):
        original = duality.compute_nu
        monkeypatch.setattr(duality, "compute_nu", lambda *args: original(*args) - 1)
        out = tmp_path / "report.json"
        argv = ["check", "--surface", "generic-k3", "--degree", "14", "--r", "2", "--s", "3",
                "--chi", "0", "--chi-prime", "-1", "--checks", "deformation", "--out", str(out),
                "--quiet"]
        assert main(argv) == 1
        result = json.loads(out.read_text())["instances"][0]["results"]["deformation"]
        # the pairings still agree; nu = -4 is not chi + chi' - 2 = -3
        assert (result["status"], result["nu"], result["pairings_agree"]) == ("fail", -4, True)

    def test_section_on_a_negative_fibre_class_fails_the_exclusions(self, monkeypatch):
        # every class with a negative fibre coefficient gets one section
        original = hilbert.h0_coeffs
        monkeypatch.setattr(
            hilbert, "h0_coeffs", lambda m, n, chi: 1 if n < 0 else original(m, n, chi)
        )
        bounds = {"r_hi": 2, "s_lo": 3, "s_hi": 3, "ab_max": 40}
        spec = normalize_instance(
            {"params": RSAB_9, "checks": ["exclusions", "exclusion-sweep"], "bounds": bounds}, 0
        )[0]
        results = run_instance(spec)["results"]
        exclusions = results["exclusions"]
        assert (exclusions["status"], exclusions["report"]["q_proper"]) == ("fail", False)
        sweep = results["exclusion-sweep"]
        assert sweep["status"] == "fail"
        valid = [list(p[:4]) for p in k3_divisible_points([2], [3], 40) if p[4]]
        assert sweep["h0_violations"] == valid

    @pytest.mark.parametrize("name", ["h0_surface", "chi_rr"])
    def test_broken_section_count_fails_general_consistency(self, monkeypatch, name):
        original = getattr(duality, name)
        monkeypatch.setattr(duality, name, lambda line: original(line) + 1)
        bounds = {"chi_list": [3], "ranks": [2]}
        spec = normalize_instance({"checks": ["general-consistency"], "bounds": bounds}, 0)[0]
        result = run_instance(spec)["results"]["general-consistency"]
        assert result["status"] == "fail"
        assert [case["line_bundle_ok"] for case in result["cases"]] == [False]
        assert result["cases"][0]["instance_ok"] and result["cases"][0]["tower_ok"]


class TestNoVacuousPass:
    def test_tower_with_nothing_to_check(self):
        spec = normalize_instance(
            {"checks": ["tower"], "bounds": {"r_max": -3, "a_max": -1}}, 0
        )[0]
        result = run_instance(spec)["results"]["tower"]
        assert result["status"] == "error:empty"
        assert result["a_checked"] == 0

    def test_strata_with_empty_wall_box(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(["check", "--v", "2:1,0:-2", "--checks", "strata-audit",
                     "--bounds", "{coeff_bound: -1}", "--out", str(out), "--quiet"])
        assert code == 1
        result = json.loads(out.read_text())["instances"][0]["results"]["strata-audit"]
        assert result["status"] == "error:empty"

    def test_strata_with_no_vector(self):
        spec = normalize_instance(
            {"checks": ["strata-audit"], "bounds": {"s4_lo": 0, "s4_hi": -1}}, 0
        )[0]
        result = run_instance(spec)["results"]["strata-audit"]
        assert result["status"] == "error:empty"


    @pytest.mark.parametrize("check,bounds,reason", [
        ("strata-audit", "{s4_lo: 0, s4_hi: -1}", "sigma lives on the elliptic models"),
        ("tower", "{a_max: -1}", "the tower lives on the elliptic models"),
    ])
    def test_an_empty_range_asks_the_model_first(self, tmp_path, check, bounds, reason):
        # on the elliptic K3 both ranges are error:empty
        out = tmp_path / "r.json"
        code = main(["check", "--surface", "generic-k3", "--degree", "8", "--checks", check,
                     "--bounds", bounds, "--out", str(out), "--quiet"])
        assert code == 1
        result = json.loads(out.read_text())["instances"][0]["results"][check]
        assert (result["status"], result["reason"]) == ("error:model", reason)

    def test_sign_law_with_empty_grid(self):
        spec = normalize_instance(
            {"checks": ["sign-law"], "bounds": {"coord_bound": -1}}, 0
        )[0]
        result = run_instance(spec)["results"]["sign-law"]
        assert result["status"] == "error:empty"
        assert result["pairs_checked"] == 0

    def test_sweep_with_empty_rank_range(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(["check", "--checks", "exclusion-sweep", "--bounds", "{r_lo: 2, r_hi: 1}",
                     "--out", str(out), "--quiet"])
        assert code == 1
        result = json.loads(out.read_text())["instances"][0]["results"]["exclusion-sweep"]
        assert result["status"] == "error:empty"
        assert result["points_checked"] == 0

    def test_fm_verify_with_no_rows(self, tmp_path):
        out = tmp_path / "f.json"
        code = main(["check", "--checks", "fm-verify", "--bounds", "{r_max: 0, a_max: -1}",
                     "--out", str(out), "--quiet"])
        assert code == 1
        result = json.loads(out.read_text())["instances"][0]["results"]["fm-verify"]
        assert result["status"] == "error:empty"

    @pytest.mark.parametrize(
        "bounds", [{"r_lo": 5, "r_hi": 2}, {"chi_lo": 0, "chi_hi": -5}, {"r_hi": 0}]
    )
    def test_theta_relation_sweep_with_no_point(self, bounds):
        spec = normalize_instance({"checks": ["theta-relation"], "bounds": bounds}, 0)[0]
        result = run_instance(spec)["results"]["theta-relation"]
        assert result["status"] == "error:empty"
        assert result["reason"]
        assert result["points_checked"] == 0

    @pytest.mark.parametrize("bounds", [{"chi_list": []}, {"ranks": []}])
    def test_general_consistency_with_no_case(self, bounds):
        spec = normalize_instance({"checks": ["general-consistency"], "bounds": bounds}, 0)[0]
        result = run_instance(spec)["results"]["general-consistency"]
        assert result["status"] == "error:empty"
        assert result["reason"]
        assert result["cases"] == []


def _reference_valid_grid_points(r_rng, s_rng, ab_max):
    """The exclusion grid as it was found before: compute_nu on every (a, b)."""
    for r in r_rng:
        for s in s_rng:
            for total in range(2, ab_max + 1):
                for a in range(0, total + 1):
                    b = total - a
                    try:
                        compute_nu(r, s, a, b)
                    except (DivisibilityError, NuBoundError):
                        continue
                    yield r, s, a, b


SWEEP_BOUNDS = [
    (range(2, 5), range(2, 5), 60),
    (range(2, 5), range(2, 5), 0),
    (range(2, 5), range(2, 5), 2),
    (range(2, 5), range(2, 5), 17),
    (range(2, 5), range(2, 5), 18),
    (range(4, 2), range(2, 5), 60),
    (range(3, 6), range(2, 3), 90),
]


class TestExclusionSweepGrid:
    @pytest.mark.parametrize("r_rng,s_rng,ab_max", SWEEP_BOUNDS)
    def test_points_by_formula(self, r_rng, s_rng, ab_max):
        got = list(k3_divisible_points(r_rng, s_rng, ab_max))
        valid = [p[:4] for p in got if p[4]]
        assert valid == list(_reference_valid_grid_points(r_rng, s_rng, ab_max))
        divisible = [
            (r, s, a, total - a)
            for r in r_rng
            for s in s_rng
            for total in range(2, ab_max + 1)
            for a in range(total + 1)
            if (total - 2) % (r + s) == 0
        ]
        assert [p[:4] for p in got] == divisible

    def test_acceptance_bounds_counts(self):
        points = list(k3_divisible_points(range(2, 5), range(2, 5), 60))
        assert len(points) == 2903
        assert sum(valid for *_, valid in points) == 1829

    def test_rank_below_two_is_invalid(self):
        spec = normalize_instance(
            {"checks": ["exclusion-sweep"], "bounds": {"r_lo": 1, "r_hi": 2}}, 0
        )[0]
        result = run_instance(spec)["results"]["exclusion-sweep"]
        assert result["status"] == "error:invalid"

    @pytest.mark.parametrize(
        "surface", ["{kind: elliptic-general, chi_o: 3}", "{kind: generic-k3, degree: 8}"]
    )
    def test_off_the_elliptic_k3_is_a_model_error(self, tmp_path, capsys, surface):
        # the sweep's numbers are the elliptic K3's: another surface must not pass
        # on them (TestSurfaceMatrix), and a rank below 2 must not hide that
        text = (
            f"instances:\n  - surface: {surface}\n"
            "    checks: [exclusion-sweep]\n    bounds: {r_lo: 1, r_hi: 2}\n"
        )
        code, _, doc = _run_batch_text(tmp_path, text, capsys)
        result = doc["instances"][0]["results"]["exclusion-sweep"]
        assert code == 1
        assert result["status"] == "error:model"
        assert result["reason"] == "the classes Q, R and S are defined on the elliptic K3"

    def test_nu_calls_per_valid_and_divisible_point(self, monkeypatch):
        calls = []
        original = duality.compute_nu

        def counting(*args):
            calls.append(args[:4])
            return original(*args)

        monkeypatch.setattr(duality, "compute_nu", counting)
        spec = normalize_instance({"checks": ["exclusion-sweep"]}, 0)[0]
        result = run_instance(spec)["results"]["exclusion-sweep"]
        assert result["status"] == "pass"
        assert result["points_checked"] == 1829
        # nu depends on (r, s, a+b) alone: k3_tower_row computes it on the
        # first valid point of each of the 41 valid groups, whose nu also
        # gives the theta bundle, and theorem2_equivalence once on each of
        # the 95 (r, s, a+b) groups of the 2903 divisible points
        assert len(calls) == 41 + 95
        per_group = Counter((r, s, a + b) for r, s, a, b in calls)
        assert sorted(per_group.values()) == [1] * 54 + [2] * 41

    def test_one_flipped_q3_flag_fails_its_point(self, monkeypatch):
        original = duality.exclusion_point_flags

        def flipped(m, n, a, b, chi):
            q3, q1q2 = original(m, n, a, b, chi)
            return q3 != ((a, b) == (13, 14)), q1q2

        monkeypatch.setattr(duality, "exclusion_point_flags", flipped)
        bounds = {"r_hi": 2, "s_lo": 3, "s_hi": 3}
        spec = normalize_instance({"checks": ["exclusion-sweep"], "bounds": bounds}, 0)[0]
        result = run_instance(spec)["results"]["exclusion-sweep"]
        assert result["status"] == "fail"
        assert result["h0_violations"] == [[2, 3, 13, 14]]

    def test_one_flipped_s_flag_fails_its_group(self, monkeypatch):
        original = duality.exclusion_group_flags
        totals = []

        def flipped(m, n, total, chi):
            totals.append(total)
            s_proper, q_proper = original(m, n, total, chi)
            return s_proper != (total == 27), q_proper

        monkeypatch.setattr(duality, "exclusion_group_flags", flipped)
        bounds = {"r_hi": 2, "s_lo": 3, "s_hi": 3}
        spec = normalize_instance({"checks": ["exclusion-sweep"], "bounds": bounds}, 0)[0]
        result = run_instance(spec)["results"]["exclusion-sweep"]
        # once per valid (2, 3, a+b) group, a+b = 27, 32, ..., 57
        assert totals == list(range(27, 61, 5))
        assert result["status"] == "fail"
        assert result["h0_violations"] == [[2, 3, a, 27 - a] for a in range(28)]

    def test_non_orthogonal_point_does_not_pass(self, monkeypatch):
        # k3_tower_row gives the sweep its chi(v . w); break it at one point
        _, bad_v, bad_w, _, _ = duality.k3_tower_row(2, 3, 13, 14)
        original = duality._chi_product

        def broken(gram, v, w):
            value = original(gram, v, w)
            return value + 1 if (v, w) == (bad_v, bad_w) else value

        monkeypatch.setattr(duality, "_chi_product", broken)
        spec = normalize_instance({"checks": ["exclusion-sweep"]}, 0)[0]
        result = run_instance(spec)["results"]["exclusion-sweep"]
        assert result["status"] == "fail"
        assert result["chi_vanishing_violations"] == [[2, 3, 13, 14]]

    def test_wrong_dimension_point_fails(self, monkeypatch):
        # dim M(w) = 2 - chi(w . w*); break that pairing at one point
        _, _, bad_w, _, _ = duality.k3_tower_row(2, 3, 13, 14)
        rank, x, y, slot = bad_w
        original = duality._chi_product

        def broken(gram, v, w):
            value = original(gram, v, w)
            return value + 1 if (v, w) == (bad_w, (rank, -x, -y, slot)) else value

        monkeypatch.setattr(duality, "_chi_product", broken)
        bounds = {"r_hi": 2, "s_lo": 3, "s_hi": 3}
        spec = normalize_instance({"checks": ["exclusion-sweep"], "bounds": bounds}, 0)[0]
        result = run_instance(spec)["results"]["exclusion-sweep"]
        assert result["status"] == "fail"
        assert result["chi_vanishing_violations"] == [[2, 3, 13, 14]]

    def test_bound_comparison_sees_the_invalid_points(self, monkeypatch):
        seen = []

        def recording(r, s, a, b):
            seen.append((r, s, a, b))
            return False if (r, s, a, b) == (2, 2, 0, 2) else True

        monkeypatch.setattr(duality, "theorem2_equivalence", recording)
        spec = normalize_instance({"checks": ["exclusion-sweep"]}, 0)[0]
        result = run_instance(spec)["results"]["exclusion-sweep"]
        # once per (r, s, a+b) group, on its first point; a disagreement
        # holds on every point of the group
        assert len(seen) == 95
        assert result["status"] == "fail"
        assert result["bound_equivalence_disagreements"] == [[2, 2, 0, 2], [2, 2, 1, 1], [2, 2, 2, 0]]


def _reference_minimal_valid_total(r, s, model):
    """The least a + b that compute_nu accepts, found by trying each in turn."""
    total = 0
    while True:
        total += 1
        try:
            compute_nu(r, s, total // 2, total - total // 2, model)
            return total
        except (DivisibilityError, NuBoundError):
            continue


class TestGeneralConsistency:
    def test_minimal_valid_total_by_formula(self):
        for chi_o in range(1, 9):
            model = elliptic_general(chi_o)
            for r in range(2, 7):
                for s in range(2, 7):
                    expected = _reference_minimal_valid_total(r, s, model)
                    assert duality.minimal_valid_total(r, s, chi_o) == expected, (chi_o, r, s)


class TestStrataAuditWork:
    def test_one_enumeration_per_wall(self, monkeypatch):
        calls = []
        original = strata.strata_enumerate

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(strata, "strata_enumerate", counting)
        spec = normalize_instance(
            {"params": {"v": "4:1,1:-4"}, "checks": ["strata-audit"]}, 0
        )[0]
        result = run_instance(spec)["results"]["strata-audit"]
        assert result["status"] == "pass"
        walls = result["vectors"][0]["walls"]
        assert walls
        assert len(calls) == len(walls)


def _reference_audit_one_vector(v, coeff_bound):
    """The wall entries as they were built before each came from one
    ``codim_audit``: the CLI's own count, minimum, bound, chain loop,
    per-stratum bound loop, oracle comparison on whole strata and
    applicability thresholds over the strata of every part count."""
    walls_data = []
    all_ok = True
    r, q_v = v.r, mukai_pair(v, v)
    bound = Fraction(q_v, 2 * r) + r - r * r + 1
    c1_content = 0
    for c in v.c1.coeffs:
        c1_content = gcd(c1_content, abs(c))
    for wall in wall_enumerate(v, coeff_bound):
        strata = []
        for k in range(2, r + 1):
            strata.extend(st for st in strata_enumerate(v, wall) if len(st.parts) == k)
        chain_ok = all(chain_audit(v, [st])[0].ok for st in strata)
        codim_ok = all(_reference_stratum_codim_ok(v, st) for st in strata)
        two_part = [st for st in strata if len(st.parts) == 2]
        oracle_ok = set(two_part) == set(strata_box_oracle(v, wall))
        walls_data.append({
            "wall_d": wall.d,
            "m_value": wall.m_value,
            "strata": len(strata),
            "unordered": unordered_count(strata),
            "min_codim": min(((q_v + 1) - st.total_dim for st in strata), default=None),
            "chain_ok": chain_ok,
            "codim_bound_ok": codim_ok,
            "oracle_match": oracle_ok,
            "bound": bound,
            "corollary_applicable": bound >= 2,
            "remark_applicable": c1_content == 1 and q_v >= 2 * (r - 1) * (r * r + 1),
        })
        all_ok = all_ok and chain_ok and codim_ok and oracle_ok
    return all_ok, walls_data


# <v, v> < 0, = 0 and > 0, each with strata on its walls at coeff_bound 3
WALL_ENTRY_VECTORS = ("2:1,0:0", "4:1,-1:0", "3:1,1:0", "4:1,1:0", "3:1,0:-1", "4:1,1:-4")
WALL_ENTRY_KEYS_LINE = "| wall-entry key | covers |"
# those vectors at coeff_bound 3, and every benchmark vector at its coeff_bound 4
WALL_ENTRY_CASES = [(text, 3) for text in WALL_ENTRY_VECTORS] + [
    (f"{r}:1,{y}:{s}", 4) for r, y, s in BENCH_VECTORS
]


def _strata_audit(text):
    spec = normalize_instance({"params": {"v": text}, "checks": ["strata-audit"]}, 0)[0]
    return run_instance(spec)["results"]["strata-audit"]


class TestStrataWallEntries:
    """Each wall entry is one ``codim_audit`` of the strata it shows."""

    def test_signs_of_the_vectors(self):
        signs = {(mukai_pair(v, v) > 0) - (mukai_pair(v, v) < 0)
                 for v in (parse_vector(t, E) for t in WALL_ENTRY_VECTORS)}
        assert signs == {-1, 0, 1}

    @pytest.mark.parametrize("text,coeff_bound", WALL_ENTRY_CASES)
    def test_entries_equal_the_reference(self, text, coeff_bound):
        v = parse_vector(text, E)
        got = strata.audit_vector(v, coeff_bound)
        expected = _reference_audit_one_vector(v, coeff_bound)
        assert to_jsonable(got) == to_jsonable(expected)
        assert got[1]

    def test_a_stratum_the_oracle_misses_fails_the_audit(self, monkeypatch):
        # every wall runs the oracle: drop one stratum from its answer and
        # each wall with two-part strata must report the mismatch
        calls = []

        def missing_one(v, wall):
            calls.append(wall)
            return strata_box_oracle(v, wall)[1:]

        monkeypatch.setattr(strata, "strata_box_oracle", missing_one)
        v = parse_vector("4:1,-1:0", E)  # one of its three walls has two-part strata
        result = _strata_audit("4:1,-1:0")
        assert result["status"] == "fail"
        entries = result["vectors"][0]["walls"]
        walls = wall_enumerate(v, 3)
        assert len(calls) == len(entries) == len(walls)
        has_two_part = [
            any(len(st.parts) == 2 for st in strata_enumerate(v, wall)) for wall in walls
        ]
        assert any(has_two_part) and not all(has_two_part)
        assert [not e["oracle_match"] for e in entries] == has_two_part
        assert all(e["chain_ok"] and e["codim_bound_ok"] for e in entries)

    def test_no_stratum_is_audited_twice(self, monkeypatch):
        counts = {}
        original = strata.chain_audit

        def counting(v, listed):
            for stratum in listed:
                counts[v, stratum] = counts.get((v, stratum), 0) + 1
            return original(v, listed)

        monkeypatch.setattr(strata, "chain_audit", counting)
        audited = 0
        for text in WALL_ENTRY_VECTORS:
            counts.clear()
            result = _strata_audit(text)
            assert result["status"] == "pass"
            assert max(counts.values(), default=1) == 1, text
            # every stratum of every part count, each once
            shown = sum(entry["strata"] for entry in result["vectors"][0]["walls"])
            assert len(counts) == shown, text
            audited += len(counts)
        assert audited > 0

    def test_every_chain_audit_runs_inside_codim_audit(self, monkeypatch):
        # so do the enumeration of the strata and the oracle
        depth = [0]
        names = ("chain_audit", "strata_enumerate", "strata_box_oracle")
        inside, outside = {name: 0 for name in names}, {name: 0 for name in names}

        def counted(name):
            original = getattr(strata, name)

            def run(*args):
                (inside if depth[0] else outside)[name] += 1
                return original(*args)

            return run

        original_codim = strata.codim_audit

        def codim(*args):
            depth[0] += 1
            try:
                return original_codim(*args)
            finally:
                depth[0] -= 1

        for name in names:
            monkeypatch.setattr(strata, name, counted(name))
        monkeypatch.setattr(strata, "codim_audit", codim)
        for text in WALL_ENTRY_VECTORS:
            assert _strata_audit(text)["status"] == "pass"
        assert all(inside.values()) and not any(outside.values())

    def test_reading_chain_ok_calls_nothing(self, monkeypatch):
        v = parse_vector("4:1,1:-4", E)
        audits = [codim_audit(v, wall) for wall in wall_enumerate(v, 3)]

        def forbidden(*args):
            raise AssertionError("chain_audit ran after codim_audit returned")

        monkeypatch.setattr(strata, "chain_audit", forbidden)
        assert all(audit.chain_ok for audit in audits)
        assert sum(audit.strata for audit in audits) > 0

    def test_readme_lists_the_keys_of_an_entry(self):
        lines = README.read_text(encoding="utf-8").splitlines()
        start = lines.index(WALL_ENTRY_KEYS_LINE) + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            key = line.strip().strip("|").split("|", 1)[0].strip()
            rows.append(key.strip("`"))
        for text in ("4:1,1:-4", "3:1,1:0", "2:1,0:0"):  # <v, v> > 0, = 0 and < 0
            _, walls = strata.audit_vector(parse_vector(text, E), 3)
            assert [list(entry) for entry in walls] == [rows] * len(walls), text


class TestBatch:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_batch(str(path)) == []

    def test_two_specs_two_reports(self, tmp_path):
        path = tmp_path / "two.yaml"
        path.write_text(
            "instances:\n"
            "  - name: one\n"
            "    params: {r: 2, s: 2, a: 9, b: 9}\n"
            "    checks: [nu]\n"
            "  - name: two\n"
            "    params: {r: 2, s: 3, a: 13, b: 14}\n"
            "    checks: [nu]\n"
        )
        doc = run_batch(load_batch(str(path)))
        assert [r["spec"]["name"] for r in doc["instances"]] == ["one", "two"]

    def test_grid_expansion(self, tmp_path):
        path = tmp_path / "grid.yaml"
        path.write_text(
            "instances:\n"
            "  - name: g\n"
            "    grid: {a: [9, 10], b: [9, 9]}\n"
            "    params: {r: 2, s: 2}\n"
            "    checks: [nu]\n"
        )
        instances = load_batch(str(path))
        assert len(instances) == 2
        assert instances[0]["name"] == "g[a=9,b=9]"
        assert instances[1]["params"]["a"] == 10

    def test_report_matches_the_golden_file(self, tmp_path):
        data = Path(__file__).parent / "data"
        out = tmp_path / "report.json"
        assert main(["batch", str(data / "acceptance_batch.yaml"), "--out", str(out), "--quiet"]) == 0
        golden = (data / "acceptance_report.json").read_text()
        assert _strip_timing(out.read_text()) == _strip_timing(golden)

    def test_strata_report_matches_the_golden_file(self, tmp_path):
        # the seed-1 batch of the benchmark's strata workload
        data = Path(__file__).parent / "data"
        out = tmp_path / "report.json"
        assert main(["batch", str(data / "strata_batch.yaml"), "--out", str(out), "--quiet"]) == 0
        golden = (data / "strata_report.json").read_text()
        assert _strip_timing(out.read_text()) == _strip_timing(golden)

    def test_yaml_parse_error(self, tmp_path, capsys):
        code, err, doc = _run_batch_text(tmp_path, "version: 1\ninstances: [}{", capsys)
        assert code == 2 and doc is None
        assert err.startswith(f"error: {tmp_path / 'b.yaml'}, line 2: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "text,key,line",
        [
            ("instances:\n  - params: {r: 2, s: 2, a: 9, b: 9, a: 10}\n    checks: [nu]\n", "a", 2),
            ("instances:\n  - params: {r: 2, s: 2, a: 9, b: 9}\n    checks: [nu]\n    checks: [tower]\n",
             "checks", 4),
        ],
        ids=["flow-mapping", "block-mapping"],
    )
    def test_a_duplicate_key_exits_two(self, tmp_path, capsys, text, key, line):
        # YAML loaders keep the last value; a batch file must not lose the first
        code, err, doc = _run_batch_text(tmp_path, text, capsys)
        assert code == 2 and doc is None
        assert err == f"error: {tmp_path / 'b.yaml'}, line {line}: duplicate key {key!r}\n"

    @pytest.mark.parametrize(
        "text,words",
        [
            ("instance:\n  - params: {r: 2, s: 2, a: 9, b: 9}\n    checks: [nu]\n", "'instance'"),
            ("version: 7\ninstances:\n  - params: {r: 2, s: 2, a: 9, b: 9}\n    checks: [nu]\n",
             "version 7"),
            ("instances:\n  - params: {r: 2, s: 2, b: 9}\n    grid: {a: [12, 9]}\n    checks: [nu]\n",
             "grid axis 'a' is empty"),
        ],
        ids=["unknown-top-level-key", "unknown-version", "empty-grid-axis"],
    )
    def test_a_batch_that_would_check_nothing_exits_two(self, tmp_path, capsys, text, words):
        code, err, doc = _run_batch_text(tmp_path, text, capsys)
        assert code == 2 and doc is None
        assert err.startswith("error: ") and words in err
        assert len(err.strip().splitlines()) == 1

    def test_an_empty_instance_list_is_valid(self, tmp_path):
        path = tmp_path / "none.yaml"
        path.write_text("version: 1\ninstances: []\n")
        assert load_batch(str(path)) == []


class TestGeneralModelSections:
    """line-bundle and dimension-match read h0(L) on the general elliptic model."""

    ARGV = ["check", "--surface", "elliptic-general", "--chi-o", "3",
            "--r", "2", "--s", "2", "--a", "14", "--b", "15", "--quiet"]

    def _results(self, tmp_path, checks):
        out = tmp_path / "r.json"
        code = main([*self.ARGV, "--checks", checks, "--out", str(out)])
        return code, json.loads(out.read_text())["instances"][0]["results"]

    def test_counts_come_from_h0(self, tmp_path):
        code, results = self._results(tmp_path, "nu,line-bundle,dimension-match")
        assert code == 0
        assert results["line-bundle"]["h0"] == 29
        match = results["dimension-match"]
        assert match["status"] == "pass"
        assert (match["left"], match["right"]) == (comb(29, 14), comb(29, 15))

    def test_h0_off_by_one_fails_dimension_match(self, tmp_path, monkeypatch):
        real = surfaces.h0_coeffs
        monkeypatch.setattr(
            surfaces, "h0_coeffs", lambda m, n, chi_o: real(m, n, chi_o) + (chi_o == 3)
        )
        code, results = self._results(tmp_path, "nu,dimension-match")
        assert code == 1
        match = results["dimension-match"]
        assert match["status"] == "fail"
        assert (match["left"], match["right"]) == (comb(30, 14), comb(30, 15))


class TestDimensionMatchSecondJudge:
    """dimension-match also requires C(chi(L), a), which does not read h0(L)."""

    def _case_study(self):
        path = Path(__file__).parent / "data" / "acceptance_batch.yaml"
        (spec,) = [s for s in load_batch(str(path)) if s["name"] == "case-study-2299"]
        return run_instance(spec)["results"]["dimension-match"]

    def test_a_section_count_error_both_sides_share_fails(self, monkeypatch):
        assert self._case_study()["status"] == "pass"
        real = duality.taut_det_sections
        monkeypatch.setattr(duality, "taut_det_sections", lambda base, a: real(base, a) + 1)
        match = self._case_study()
        assert match["status"] == "fail"
        assert (match["left"], match["right"], match["equal"]) == (48621, 48621, False)


class TestMainExitCodes:
    def test_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "check",
                "--r", "2", "--s", "2", "--a", "9", "--b", "9",
                "--checks", "nu,line-bundle,dimension-match",
                "--out", str(out),
                "--quiet",
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["instances"][0]["results"]["nu"]["status"] == "pass"

    def test_exit_one_on_check_error(self, tmp_path):
        code = main(
            [
                "check",
                "--r", "2", "--s", "2", "--a", "9", "--b", "8",
                "--checks", "nu",
                "--out", str(tmp_path / "r.json"),
                "--quiet",
            ]
        )
        assert code == 1

    def test_exit_two_on_config_error(self, capsys):
        code = main(["check", "--checks", "definitely-not-a-check", "--quiet"])
        assert code == 2

    def test_internal_error_does_not_sink_batch(self, tmp_path, monkeypatch):
        def crash(*args):
            raise RuntimeError("a fault in the program")

        monkeypatch.setattr(surfaces, "sign_law_sweep", crash)
        spec = tmp_path / "b.yaml"
        spec.write_text(
            "instances:\n"
            "  - name: good\n"
            "    params: {r: 2, s: 2, a: 9, b: 9}\n"
            "    checks: [nu]\n"
            "  - name: crashing\n"
            "    checks: [sign-law]\n"
        )
        out = tmp_path / "r.json"
        assert main(["batch", str(spec), "--out", str(out), "--quiet"]) == 1
        good, bad = json.loads(out.read_text())["instances"]
        assert good["results"]["nu"]["status"] == "pass"
        assert bad["results"]["sign-law"]["status"] == "error:internal:RuntimeError"

    @pytest.mark.parametrize(
        "param", ["r: [2]", "a: nine", "chi_prime: {x: 1}", "a: 9.6", "b: true"]
    )
    def test_exit_two_on_wrongly_typed_param(self, tmp_path, capsys, param):
        params = {"r": "r: 2", "s": "s: 2", "a": "a: 9", "b": "b: 9", "chi_prime": None}
        params[param.split(":")[0]] = param
        spec = tmp_path / "typed.yaml"
        spec.write_text(
            "instances:\n"
            f"  - params: {{{', '.join(p for p in params.values() if p)}}}\n"
            "    checks: [nu]\n"
        )
        assert main(["batch", str(spec), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert param.split(":")[0] in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("axis", ["[x, 9]", "[1, 9.5]", "[true, 9]", "[1, [9]]"])
    def test_exit_two_on_non_integer_grid_end(self, tmp_path, capsys, axis):
        spec = tmp_path / "grid.yaml"
        spec.write_text(
            "instances:\n"
            "  - params: {r: 2, s: 2, b: 9}\n"
            f"    grid: {{a: {axis}}}\n"
            "    checks: [nu]\n"
        )
        assert main(["batch", str(spec), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "grid axis 'a'" in err
        assert len(err.strip().splitlines()) == 1

    def test_exit_two_on_missing_file(self):
        assert main(["batch", "/nonexistent/specs.yaml", "--quiet"]) == 2

    def test_strata_audit_from_the_command_line(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(["check", "--v", "2:1,0:-2", "--checks", "strata-audit",
                     "--bounds", "{coeff_bound: 3}", "--out", str(out), "--quiet"])
        assert code == 0
        doc = json.loads(out.read_text())
        walls = doc["instances"][0]["results"]["strata-audit"]["vectors"][0]["walls"]
        by_m = {w["m_value"]: w for w in walls}
        assert by_m["4/1"]["strata"] == 3
        assert by_m["4/1"]["min_codim"] == 2

    def test_fm_verify_from_the_command_line(self, tmp_path):
        out = tmp_path / "fm.json"
        assert main(["check", "--checks", "fm-verify", "--bounds", "{r_max: 4, a_max: 8}",
                     "--out", str(out), "--quiet"]) == 0

    def test_fm_verify_reports_where_a_perturbed_matrix_fails(self, tmp_path, monkeypatch):
        def perturbed(model):
            matrix = derive_fm_matrix(model)
            rows = [list(row) for row in matrix.rows]
            rows[3][0] += 1
            return matrix._replace(rows=tuple(map(tuple, rows)))

        monkeypatch.setattr(fourier_mukai, "derive_fm_matrix", perturbed)
        out = tmp_path / "fm.json"
        assert main(["check", "--checks", "fm-verify", "--bounds", "{r_max: 2, a_max: 2}",
                     "--out", str(out), "--quiet"]) == 1
        result = json.loads(out.read_text())["instances"][0]["results"]["fm-verify"]
        assert result["status"] == "fail"
        # every fact that fails says where: the bridge and isometry facts too
        failing = {
            key.removesuffix("_ok") for key, ok in result.items() if key.endswith("_ok") and ok is False
        }
        assert failing == {"dual_images", "direct_images", "bridge", "isometry"}
        assert set(result["failures"]) == failing
        assert result["failures"]["bridge"] == [[2, 0], [3, 1]]
        assert result["failures"]["isometry"] == [[0, 1], [1, 0]]

    def test_determinism_modulo_timing(self, tmp_path):
        spec = tmp_path / "d.yaml"
        spec.write_text(
            "instances:\n"
            "  - name: case\n"
            "    params: {r: 2, s: 2, a: 9, b: 9}\n"
            "    checks: [nu, line-bundle, dimension-match, exclusions]\n"
            "  - name: walls\n"
            "    params: {v: '2:1,0:-2'}\n"
            "    checks: [strata-audit]\n"
        )
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["batch", str(spec), "--out", str(out1), "--quiet"]) == 0
        assert main(["batch", str(spec), "--out", str(out2), "--quiet"]) == 0
        assert _strip_timing(out1.read_text()) == _strip_timing(out2.read_text())


def _run_batch_text(tmp_path, text, capsys):
    spec = tmp_path / "b.yaml"
    spec.write_text(text)
    out = tmp_path / "r.json"
    code = main(["batch", str(spec), "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    return code, err, (json.loads(out.read_text()) if out.exists() else None)


README = Path(__file__).resolve().parents[1] / "README.md"
README_TABLE_HEADER = "| check | params | bound | type | default | lower bound |"
TYPE_NAMES = {int: "int", list: "list of int"}


def _default_text(default) -> str:
    if default is None:
        return "—"
    if isinstance(default, tuple):
        return json.dumps(list(default))
    return json.dumps(default)


def _table_rows_from_checks():
    rows = []
    for name, check in cli.CHECKS.items():
        params = ", ".join(f"`{p}`" for p in check.params) or "—"
        for i, (key, bound) in enumerate(check.bounds.items() or [(None, None)]):
            cells = [f"`{name}`", params if i == 0 else ""]
            if bound is None:
                cells += ["—"] * 4
            else:
                lo = "—" if bound.lo is None else str(bound.lo)
                cells += [f"`{key}`", TYPE_NAMES[bound.kind], _default_text(bound.default), lo]
            rows.append(cells)
    return rows


README_ERROR_HEADER = "| status | means |"


class TestCheckTable:
    """Every check reads its params and bounds as ``cli.CHECKS`` declares them."""

    def test_readme_lists_every_error_kind(self):
        lines = README.read_text(encoding="utf-8").splitlines()
        start = lines.index(README_ERROR_HEADER) + 2
        listed = set()
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            status = line.strip("|").split("|")[0].strip().strip("`")
            listed.add(status.removesuffix(":<Type>"))
        source = Path(cli.__file__).read_text(encoding="utf-8")
        # "error:internal:{...}" is the f-string of error:internal:<Type>
        emitted = set(re.findall(r'"(error:[a-z-]+)', source))
        assert emitted == listed
        assert "error:parameters" not in emitted

    def test_readme_table_matches_the_checks(self):
        lines = README.read_text(encoding="utf-8").splitlines()
        start = lines.index(README_TABLE_HEADER) + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
        assert rows == _table_rows_from_checks()

    def test_each_check_takes_exactly_its_declared_arguments(self):
        for name, check in cli.CHECKS.items():
            fixed = getattr(check.run, "keywords", {})  # the theorem of a hypotheses check
            taken = set(inspect.signature(check.run).parameters) - {"model", *fixed}
            assert taken == set(check.params) | set(check.bounds), name

    @pytest.mark.parametrize(
        "check,bounds,key",
        [
            ("sign-law", "{degrees: 5}", "degrees"),
            ("general-consistency", "{chi_list: 3}", "chi_list"),
            ("general-consistency", "{ranks: [2, x]}", "ranks"),
            ("strata-audit", "{coeff_bound: 3.7}", "coeff_bound"),
            ("tower", "{r_max: true, a_max: 2}", "r_max"),
            ("fm-verify", "{a_max: [20]}", "a_max"),
            ("tower", "{rmax: 3}", "rmax"),
            ("tower", "{coord_bound: 3}", "coord_bound"),
            ("tower", "[r_max, 3]", "bounds"),
        ],
    )
    def test_exit_two_on_a_bad_bound(self, tmp_path, capsys, check, bounds, key):
        text = f"instances:\n  - checks: [{check}]\n    bounds: {bounds}\n"
        code, err, doc = _run_batch_text(tmp_path, text, capsys)
        assert code == 2 and doc is None
        assert err.startswith("error: ")
        assert key in err
        assert len(err.strip().splitlines()) == 1

    def test_a_bound_may_be_read_by_several_checks(self):
        spec = normalize_instance(
            {"checks": ["tower", "fm-verify"], "bounds": {"r_max": 2, "a_max": 1}}, 0
        )[0]
        results = run_instance(spec)["results"]
        assert results["tower"]["status"] == results["fm-verify"]["status"] == "pass"
        assert results["tower"]["r_max"] == 2

    @pytest.mark.parametrize(
        "surface,key",
        [
            ("{kind: generic-k3, degree: 8.5}", "degree"),
            ("{kind: elliptic-general, chi_o: true}", "chi_o"),
            ("{kind: elliptic-general, chi_o: 2.9}", "chi_o"),
            ("{kind: [generic-k3]}", "kind"),
        ],
    )
    def test_exit_two_on_a_non_integral_surface_param(self, tmp_path, capsys, surface, key):
        text = f"instances:\n  - surface: {surface}\n    checks: [tower]\n"
        code, err, _ = _run_batch_text(tmp_path, text, capsys)
        assert code == 2
        assert err.startswith("error: ") and key in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "params,key",
        [("{aa: 5}", "aa"), ("{a: 9, degree: 8}", "degree"), ("{v: '2:1,0:-2', x: 1}", "x")],
    )
    def test_exit_two_on_an_unknown_param(self, tmp_path, capsys, params, key):
        text = f"instances:\n  - params: {params}\n    checks: [tower]\n"
        code, err, doc = _run_batch_text(tmp_path, text, capsys)
        assert code == 2 and doc is None
        assert err.startswith("error: ") and repr(key) in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "surface,key",
        [
            ("{kind: elliptic-k3, degree: 8}", "degree"),
            ("{degree: 8}", "degree"),
            ("{kind: elliptic-k3, chi_o: 2}", "chi_o"),
            ("{kind: generic-k3, degree: 8, chi_o: 2}", "chi_o"),
            ("{kind: elliptic-general, chi_o: 3, degree: 2}", "degree"),
            ("{kind: generic-k3, degree: 8, deg: 8}", "deg"),
        ],
    )
    def test_exit_two_on_a_surface_key_its_kind_does_not_take(
        self, tmp_path, capsys, surface, key
    ):
        text = f"instances:\n  - surface: {surface}\n    checks: [tower]\n"
        code, err, doc = _run_batch_text(tmp_path, text, capsys)
        assert code == 2 and doc is None
        assert err.startswith("error: ") and repr(key) in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--degree", "8", "--r", "2", "--s", "2", "--a", "9", "--b", "9",
             "--checks", "nu"],
            ["check", "--surface", "generic-k3", "--degree", "8", "--chi-o", "2", "--checks", "tower"],
            ["check", "--chi-o", "3", "--checks", "fm-verify"],
        ],
    )
    def test_exit_two_on_a_surface_flag_its_kind_does_not_take(self, capsys, argv):
        assert main([*argv, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "field", ["params: {v: '2:1,0:-2', m: 9.6}", "grid: {v: [1, 2]}", "grid: {1: [1, 2], a: [1, 2]}"]
    )
    def test_exit_two_on_a_non_integral_rational_or_a_vector_grid(self, tmp_path, capsys, field):
        text = f"instances:\n  - {field}\n    checks: [suitability]\n"
        code, err, _ = _run_batch_text(tmp_path, text, capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "surface,check,reason",
        [
            ("{kind: generic-k3, degree: 8}", "exclusions", "Q, R and S are defined"),
            ("{kind: elliptic-general, chi_o: 3}", "exclusions", "Q, R and S are defined"),
            ("{kind: generic-k3, degree: 8}", "fm-verify", "the elliptic models"),
            # without a vector the audit builds (2, sigma, s4), and sigma says no first
            ("{kind: generic-k3, degree: 8}", "strata-audit", "sigma lives on the elliptic models"),
            ("{kind: elliptic-general, chi_o: 3}", "strata-audit", "enumerated on the elliptic K3"),
        ],
    )
    def test_model_guards(self, surface, check, reason):
        rsab = {"r": 2, "s": 2, "a": 9, "b": 9}
        params = {key: value for key, value in rsab.items() if key in cli.CHECKS[check].params}
        raw = {"surface": yaml.safe_load(surface), "params": params, "checks": [check]}
        spec = normalize_instance(raw, 0)[0]
        result = run_instance(spec)["results"][check]
        assert result["status"] == "error:model"
        assert reason in result["reason"]

    def test_each_lower_bound_gives_empty_just_below_it(self):
        probed = 0
        for name, check in cli.CHECKS.items():
            for key, bound in check.bounds.items():
                if bound.lo is None:
                    continue
                for value, empty in ((bound.lo - 1, True), (bound.lo, False)):
                    spec = normalize_instance({"checks": [name], "bounds": {key: value}}, 0)[0]
                    result = run_instance(spec)["results"][name]
                    assert (result["status"] == "error:empty") == empty, (name, key, value)
                    if empty:
                        assert result[key] == value
                        if check.examined:
                            assert result[check.examined] == 0
                probed += 1
        assert probed == 6

    @pytest.mark.parametrize("bounds", ["{parts: 2}", "{oracle: false}"])
    def test_the_removed_strata_switches_are_read_by_no_check(self, tmp_path, capsys, bounds):
        text = (
            "instances:\n  - params: {v: '2:1,0:-2'}\n"
            f"    checks: [strata-audit]\n    bounds: {bounds}\n"
        )
        code, err, doc = _run_batch_text(tmp_path, text, capsys)
        assert code == 2 and doc is None
        assert err.startswith("error: ") and "read by none of its checks" in err
        assert len(err.strip().splitlines()) == 1

    def test_exit_two_on_a_param_no_check_reads(self, capsys):
        argv = ["check", "--checks", "tower", "--r", "2", "--chi", "5", "--a", "9", "--quiet"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: instance #0 params ['r', 'chi'] are read by none of its checks\n"

    @pytest.mark.parametrize("theorem", ["T1", "T1A"])
    def test_exit_two_on_a_tower_point_given_to_t1(self, tmp_path, capsys, theorem):
        # T1 and T1A concern the generic K3 and read the vectors v and w alone
        text = (
            "instances:\n  - surface: {kind: generic-k3, degree: 8}\n"
            f"    params: {{r: 2, s: 2, a: 9, b: 9}}\n    checks: [hypotheses-{theorem}]\n"
        )
        code, err, doc = _run_batch_text(tmp_path, text, capsys)
        assert code == 2 and doc is None
        assert err == "error: instance #0 params ['r', 's', 'a', 'b'] are read by none of its checks\n"

    def test_exit_two_on_a_grid_axis_no_check_reads(self, tmp_path, capsys):
        text = "instances:\n  - grid: {r: [2, 3]}\n    checks: [tower]\n"
        code, err, doc = _run_batch_text(tmp_path, text, capsys)
        assert code == 2 and doc is None
        assert err == "error: instance #0 params ['r'] are read by none of its checks\n"

    def test_a_param_read_by_one_of_the_checks_is_taken(self):
        # a is read by tower; r, s and b by nu
        raw = {"params": {"r": 2, "s": 2, "a": 9, "b": 9}, "checks": ["tower", "nu"]}
        results = run_instance(normalize_instance(raw, 0)[0])["results"]
        assert [results[c]["status"] for c in ("tower", "nu")] == ["pass", "pass"]


# one surface of each kind, and the params the matrix below gives every
# check that reads them; v is written for each surface's NS rank
MATRIX_SURFACES = {
    "elliptic-k3": {"kind": "elliptic-k3"},
    "elliptic-general": {"kind": "elliptic-general", "chi_o": 3},
    "generic-k3": {"kind": "generic-k3", "degree": 8},
}
MATRIX_PARAMS = {"r": 2, "s": 2, "a": 9, "b": 9, "chi": -1, "chi_prime": -1, "m": 9}
MATRIX_V = {"elliptic-k3": "2:1,0:-2", "elliptic-general": "2:1,0:-2", "generic-k3": "2:1:-2"}

PASS = ("pass", None)
NOT_INTEGRAL = ("error:divisibility", "-nu = 2/8 is not an integer")  # (2, 2, 9, 9) at chi(O) = 3
NU_MODEL = ("error:model", "nu is defined on the elliptic models")
QRS_MODEL = ("error:model", "the classes Q, R and S are defined on the elliptic K3")
WALLS_MODEL = ("error:model", "walls are enumerated on the elliptic K3 model")
# (r, s, chi, chi') = (2, 2, -1, -1) lies on the generic K3 of degree 12, not 8
THETA_MODEL = ("error:model", "the theta pair lives on the generic K3 of degree 12")
RSAB_CELLS = (PASS, NOT_INTEGRAL, NU_MODEL)
T1_MODEL = ("error:model", "T1 concerns the generic K3 model")
T1A_MODEL = ("error:model", "T1A concerns the generic K3 model")
# (status, reason) of each check alone on elliptic-k3, elliptic-general and
# generic-k3; every error:model reason is the library's ModelMismatchError
SURFACE_MATRIX = {
    "nu": RSAB_CELLS,
    "line-bundle": RSAB_CELLS,
    "chi-vanishing": RSAB_CELLS,
    "dimension-match": RSAB_CELLS,
    "exclusions": (PASS, QRS_MODEL, QRS_MODEL),
    "tower": (PASS, PASS, ("error:model", "the tower lives on the elliptic models")),
    "sign-law": (PASS, PASS, PASS),
    "fm-verify": (PASS, PASS, ("error:model", "the transform is defined on the elliptic models")),
    "theta-relation": (THETA_MODEL, THETA_MODEL, THETA_MODEL),
    "deformation": (THETA_MODEL, THETA_MODEL, THETA_MODEL),
    # T1 and T1A read v and w alone, both MATRIX_V; ranks (2, 2) fail T1 and pass T1A
    "hypotheses-T1": (T1_MODEL, T1_MODEL, ("fail", None)),
    "hypotheses-T1A": (T1A_MODEL, T1A_MODEL, PASS),
    "hypotheses-T2": RSAB_CELLS,
    "hypotheses-T5": RSAB_CELLS,
    "hypotheses-Conj": RSAB_CELLS,
    "exclusion-sweep": (PASS, QRS_MODEL, QRS_MODEL),
    "strata-audit": (PASS, WALLS_MODEL, WALLS_MODEL),
    "suitability": (PASS, WALLS_MODEL, WALLS_MODEL),
    "general-consistency": (PASS, PASS, PASS),
}


class TestSurfaceMatrix:
    """The library alone judges which surface kinds a check runs on."""

    def test_the_matrix_covers_every_check(self):
        assert list(SURFACE_MATRIX) == list(cli.CHECKS)

    @pytest.mark.parametrize("kind", list(MATRIX_SURFACES))
    @pytest.mark.parametrize("check", list(SURFACE_MATRIX))
    def test_each_check_on_each_surface_kind(self, check, kind):
        read = cli.CHECKS[check].params
        given = dict(MATRIX_PARAMS)
        # the hypotheses checks that also read (r, s, a, b) run in that mode;
        # every other check gets v, and w = v where it reads w
        if "r" not in read or "w" not in read:
            given["v"] = given["w"] = MATRIX_V[kind]
        params = {key: given[key] for key in read if key in given}
        raw = {"surface": MATRIX_SURFACES[kind], "params": params, "checks": [check]}
        result = run_instance(normalize_instance(raw, 0)[0])["results"][check]
        status, reason = SURFACE_MATRIX[check][list(MATRIX_SURFACES).index(kind)]
        assert (result["status"], result.get("reason")) == (status, reason)

    @pytest.mark.parametrize("check", ["theta-relation", "deformation"])
    @pytest.mark.parametrize("degree,status", [(8, "error:model"), (10, "error:model"), (12, "pass")])
    def test_a_theta_point_runs_on_its_own_surface_only(self, check, degree, status):
        params = {"r": 2, "s": 2, "chi": -1, "chi_prime": -1}
        raw = {"surface": {"kind": "generic-k3", "degree": degree}, "params": params,
               "checks": [check]}
        result = run_instance(normalize_instance(raw, 0)[0])["results"][check]
        assert result["status"] == status
        if status == "pass":
            assert result["h_squared"] == 12
        else:
            assert result["reason"] == THETA_MODEL[1]

    def test_a_model_error_is_the_library_message(self, monkeypatch):
        def refuse(*args):
            raise surfaces.ModelMismatchError("no such surface here")

        monkeypatch.setattr(surfaces, "sign_law_sweep", refuse)
        result = run_instance(normalize_instance({"checks": ["sign-law"]}, 0)[0])["results"]
        assert result["sign-law"]["status"] == "error:model"
        assert result["sign-law"]["reason"] == "no such surface here"


class TestBoundsFlag:
    """``check --bounds`` gives the bounds as a batch file writes them."""

    def test_the_bounds_reach_the_check(self, tmp_path):
        out = tmp_path / "r.json"
        argv = ["check", "--checks", "tower", "--bounds", "{r_max: 2, a_max: 1}"]
        assert main([*argv, "--out", str(out), "--quiet"]) == 0
        result = json.loads(out.read_text())["instances"][0]["results"]["tower"]
        assert (result["r_max"], result["a_checked"]) == (2, 2)

    @pytest.mark.parametrize(
        "bounds,words",
        [
            ("{r_max: 6, r_max: 7}", "--bounds, line 1: duplicate key 'r_max'"),
            ("{r_max: 6", "--bounds, line 1: "),
            ("[r_max, 6]", "instance #0 bounds is not a mapping"),
            ("0", "instance #0 bounds is not a mapping"),
            ("{rmax: 6}", "bounds ['rmax'] are read by none of its checks"),
            ("{r_max: " + "[" * 600 + "]" * 600 + "}", "--bounds, line 1: collections nested more than 64"),
        ],
        ids=["duplicate-key", "unclosed", "not-a-mapping", "zero", "unread", "too-deep"],
    )
    def test_a_bad_bounds_flag_exits_two(self, capsys, bounds, words):
        assert main(["check", "--checks", "fm-verify", "--bounds", bounds, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and words in err
        assert len(err.strip().splitlines()) == 1


class TestJudgesLiveInTheLibrary:
    """cli.py turns verdicts into statuses; every verdict rule is a library judge."""

    def test_no_check_runs_a_function_of_the_cli(self):
        for name, check in cli.CHECKS.items():
            run = check.run.func if isinstance(check.run, partial) else check.run
            assert run.__module__.startswith("strangedual."), name
            assert run.__module__ != "strangedual.cli", name

    def test_the_cli_holds_no_verdict_rule(self):
        source = Path(cli.__file__).read_text(encoding="utf-8")
        assert '"pass" if' not in source
        assert "def _check_" not in source


def _readme_cli_commands():
    """The ``strangedual`` lines of the README's CLI ``sh`` block, with their
    continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("strangedual ")]


class TestReadmeCommands:
    @pytest.mark.parametrize("argv", _readme_cli_commands(), ids=lambda argv: argv[1])
    def test_command_runs_and_passes(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(README.parent)  # the batch path is relative to the checkout
        assert main([*argv[1:], "--quiet", "--out", str(tmp_path / "report.json")]) == 0


class TestReadmeQuickSession:
    def test_session_runs_and_gives_the_values_it_shows(self):
        text = README.read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert len(blocks) == 1
        namespace = {}
        compared = 0
        for line in blocks[0].splitlines():
            code, _, comment = line.partition("#")
            if not code.strip():
                continue
            if not isinstance(ast.parse(code).body[0], ast.Expr):
                exec(code, namespace)
                continue
            value = eval(code, namespace)
            try:
                shown = ast.literal_eval(comment.strip())
            except (ValueError, SyntaxError):
                continue  # the comment describes the value in words
            assert value == shown, code
            compared += 1
        assert compared == 4


class TestPerCheckTiming:
    def test_every_result_carries_its_own_timing(self, monkeypatch):
        original = cli.CHECKS["line-bundle"].run

        def slow(*args, **kwargs):
            time.sleep(0.035)
            return original(*args, **kwargs)

        monkeypatch.setitem(cli.CHECKS, "line-bundle", cli.CHECKS["line-bundle"]._replace(run=slow))
        # (2, 2, 9, 10) fails divisibility, so its line-bundle is skipped
        for params, slow_check in ((RSAB_9, "line-bundle"), ({**RSAB_9, "b": 10}, None)):
            checks = ["nu", "line-bundle", "exclusions"]
            spec = normalize_instance({"params": params, "checks": checks}, 0)[0]
            report = run_instance(spec)
            timings = {name: result["timing_ms"] for name, result in report["results"].items()}
            assert set(timings) == set(checks)
            assert all(type(t) is int and t >= 0 for t in timings.values())
            assert sum(timings.values()) <= report["timing_ms"]
            if slow_check:
                assert timings[slow_check] >= 30
            else:
                assert report["results"]["line-bundle"]["status"] == "skipped"
                assert timings["line-bundle"] == 0


class TestStartUp:
    def test_loading_a_batch_loads_neither_yaml_nor_dataclasses_nor_inspect(self):
        # all three are costly to import, and the program needs none of them:
        # inspect alone pulls in ast, dis and tokenize, and the batch-file
        # reader is the package's own
        batch = Path(__file__).parent / "data" / "acceptance_batch.yaml"
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from strangedual.cli import load_batch\n"
            "import strangedual.cli\n"
            "assert len(load_batch(sys.argv[1])) == 10\n"
            "print(strangedual.cli.__file__)\n"
            "print(sorted({'dataclasses', 'inspect', 'yaml'} & (set(sys.modules) - before)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(batch)], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        path, loaded = proc.stdout.splitlines()
        assert Path(path).resolve() == Path(cli.__file__).resolve()
        assert loaded == "[]"

    def test_no_module_of_the_package_imports_yaml(self):
        package = Path(cli.__file__).parent
        imported = set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        assert "re" in imported  # the walk sees the package's imports
        assert "yaml" not in imported
