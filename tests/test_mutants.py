"""Mutant rows: a primitive made wrong at one input must turn named checks
away from ``pass``.

Each row patches one library function (or method) so that it is off by one
on a single input the checks reach, in every ``strangedual`` module that
binds it, then runs the named instance of the committed acceptance batch in
process, less any checks the row drops, so that a check which requires the
broken one can be named.  The named checks pass unpatched; patched, each
must fail and its report must show where.  One test follows:
``delta_bound`` on a point of its own, which the acceptance batch does not
run.
"""

import sys
from pathlib import Path

import pytest

import strangedual.duality as duality
import strangedual.fourier_mukai as fourier_mukai
import strangedual.hilbert as hilbert
import strangedual.linalg as linalg
import strangedual.strata as strata
import strangedual.surfaces as surfaces
from strangedual.cli import load_batch, normalize_instance, run_instance
from strangedual.fourier_mukai import FMMatrix, derive_fm_matrix, vector_coords
from strangedual.strata import strata_enumerate, wall_enumerate
from strangedual.surfaces import MukaiVector, elliptic_k3, normalized_vector

E = elliptic_k3()
DATA = Path(__file__).parent / "data"
ACCEPTANCE = {spec["name"]: spec for spec in load_batch(str(DATA / "acceptance_batch.yaml"))}


def _patch_everywhere(monkeypatch, module, name, replacement):
    """Patch ``name`` in every strangedual module that binds the same object."""
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("strangedual") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)
    return original


def _bump_s(v):
    return v._replace(s=v.s + 1)


def _twist_mutant(monkeypatch):
    # the tower twists each v_{r,a} by -2f on the elliptic K3; break one of them
    target = (normalized_vector(3, 7, E), -2 * E.fiber)
    original = _patch_everywhere(
        monkeypatch, surfaces, "twist",
        lambda v, d: _bump_s(original(v, d)) if (v, d) == target else original(v, d),
    )


def _apply_mutant(monkeypatch):
    # the direct image of the tower vector v_{4,9}, inside the suite's grid
    target = vector_coords(normalized_vector(4, 9, E))
    original = FMMatrix.apply

    def apply(self, q):
        out = original(self, q)
        return (*out[:3], out[3] + 1) if self.model == E and q == target else out

    monkeypatch.setattr(FMMatrix, "apply", apply)


def _tensor_chi_mutant(monkeypatch):
    # the typed theta pair at (r, s, chi, chi') = (2, 3, 0, -1), H^2 = 14
    target = duality.theta_pair(2, 3, 0, -1)
    original = _patch_everywhere(
        monkeypatch, surfaces, "mukai_tensor",
        lambda v, w: _bump_s(original(v, w)) if (v, w) == target else original(v, w),
    )


def _determinant_mutant(monkeypatch):
    # the determinant of the elliptic-K3 transform matrix itself
    target = derive_fm_matrix(E).rows

    def row_reduce(matrix):
        reduced, pivots, det = original(matrix)
        return reduced, pivots, det + 1 if tuple(map(tuple, matrix)) == target else det

    original = _patch_everywhere(monkeypatch, linalg, "row_reduce", row_reduce)
    assert fourier_mukai.row_reduce is row_reduce


def _group_s_flag_mutant(monkeypatch):
    # S made improper on the (r, s, a+b) = (2, 2, 18) group alone: r + s = 4
    # has no other split, so L = 4.sigma + n.f and a + b pin the group
    m, n = duality.duality_line_bundle_class(2, 2, duality.compute_nu(2, 2, 9, 9)).coeffs

    def group_flags(m_, n_, total, chi):
        s_proper, q_proper = original(m_, n_, total, chi)
        return s_proper != ((m_, n_, total) == (m, n, 18)), q_proper

    original = _patch_everywhere(monkeypatch, hilbert, "exclusion_group_flags", group_flags)


def _theta_chi_product_mutant(monkeypatch):
    # the integer route's chi(v . w) at (r, s, chi, chi') = (2, 3, 0, -1), H^2 = 14
    target = (((14,),), (2, 1, -2), (3, 1, -4))
    original = _patch_everywhere(
        monkeypatch, duality, "_chi_product",
        lambda gram, v, w: original(gram, v, w) + ((gram, v, w) == target),
    )


def _chain_final_bound_mutant(monkeypatch):
    # the first stratum of hn-strata's 2:sigma:-2 on its wall sigma - 2f (m = 4)
    v = MukaiVector(2, E.sigma, -2)
    wall = next(w for w in wall_enumerate(v, 3) if w.d.coeffs == (1, -2))
    target = (v, strata_enumerate(v, wall)[0])

    def chain_audit(v, listed):
        return [
            audit._replace(final_bound_ok=False) if (v, stratum) == target else audit
            for stratum, audit in zip(listed, original(v, listed))
        ]

    original = _patch_everywhere(monkeypatch, strata, "chain_audit", chain_audit)


def _strata_drop_mutant(monkeypatch):
    # the enumerator loses the first stratum of the same vector on the same wall
    v = MukaiVector(2, E.sigma, -2)
    target = (v, next(w for w in wall_enumerate(v, 3) if w.d.coeffs == (1, -2)))
    original = _patch_everywhere(
        monkeypatch, strata, "strata_enumerate",
        lambda v, wall: original(v, wall)[1:] if (v, wall) == target else original(v, wall),
    )


def _stack_dim_mutant(monkeypatch):
    # the part (1, f, 0) of <v^2> = 0: (r, c1^2, content of c1, s) = (1, 0, 1, 0)
    original = _patch_everywhere(
        monkeypatch, strata, "_stack_dim", lambda *args: original(*args) + (args == (1, 0, 1, 0))
    )


def _part_count_skip_mutant(monkeypatch):
    # the skip test cuts part count 2 on the same wall of the same vector:
    # (r, c1, D, |D^2|, <v^2> + 2r^2) = (2, sigma, sigma - 2f, 6, 14)
    target = (2, (1, 0), (1, -2), 6, 14)
    original = _patch_everywhere(
        monkeypatch, strata, "_part_count_bound",
        lambda *args: 1 if args == target else original(*args),
    )


# case-study-2299: (r, s, a, b) = (2, 2, 9, 9), nu = -2 and L = 4.sigma + 8f
CASE_POINT = (2, 2, 9, 9)


def _nu_mutant(monkeypatch):
    original = _patch_everywhere(
        monkeypatch, duality, "compute_nu",
        lambda r, s, a, b, model=None: original(r, s, a, b, model) + ((r, s, a, b) == CASE_POINT),
    )


def _h0_coeffs_mutant(monkeypatch):
    original = _patch_everywhere(
        monkeypatch, surfaces, "h0_coeffs",
        lambda m, n, chi_o: original(m, n, chi_o) + ((m, n, chi_o) == (4, 8, 2)),
    )


def _chi_rr_mutant(monkeypatch):
    target = E.cls(4, 8)
    original = _patch_everywhere(
        monkeypatch, surfaces, "chi_rr", lambda d: original(d) + (d == target)
    )


def _failing_walls(result, flag):
    return [
        (entry["v"]["s"], wall["wall_d"]["coeffs"])
        for entry in result["vectors"]
        for wall in entry["walls"]
        if not wall[flag]
    ]


# (mutant, acceptance instance, {check that must leave pass: what its report
# must show}, then any checks dropped from the instance)
MUTANTS = {
    "twist": (_twist_mutant, "tower-identities", {"tower": lambda r: 7 in r["failures"]}),
    "FMMatrix.apply": (_apply_mutant, "fm-matrix", {
        "fm-verify": lambda r: r["failures"]["direct_images"] == [[4, 9]],
    }),
    "mukai_tensor chi": (_tensor_chi_mutant, "theta-relation", {
        "theta-relation": lambda r: r["failures"] == [[2, 3, 0, -1, "typed-route disagreement"]],
    }),
    "row_reduce determinant": (_determinant_mutant, "fm-matrix", {
        "fm-verify": lambda r: r["determinant"] == 2 and r["failures"] == {},
    }),
    "exclusion_group_flags S": (_group_s_flag_mutant, "exclusion-sweep", {
        "exclusion-sweep": lambda r: r["h0_violations"] == [[2, 2, a, 18 - a] for a in range(19)],
    }),
    "_chi_product theta point": (_theta_chi_product_mutant, "theta-relation", {
        "theta-relation":
            lambda r: r["failures"] == [[2, 3, 0, -1], [2, 3, 0, -1, "typed-route disagreement"]],
    }),
    "chain_audit final bound": (_chain_final_bound_mutant, "hn-strata", {
        "strata-audit": lambda r: _failing_walls(r, "chain_ok") == [(-2, [1, -2])],
    }),
    # the oracle keeps its own box, so a wrongly skipped part count shows
    "_part_count_bound skip": (_part_count_skip_mutant, "hn-strata", {
        "strata-audit": lambda r: _failing_walls(r, "oracle_match") == [(-2, [1, -2])],
    }),
    "strata_enumerate drops a stratum": (_strata_drop_mutant, "hn-strata", {
        "strata-audit": lambda r: _failing_walls(r, "oracle_match") == [(-2, [1, -2])],
    }),
    # the enumerator and the oracle share _stack_dim, so only the chain's own
    # dimensions see it, on the wall sigma - 2f of each s4 that has the part
    "_stack_dim of one part": (_stack_dim_mutant, "hn-strata", {
        "strata-audit": lambda r: (
            _failing_walls(r, "chain_ok") == [(s4, [1, -2]) for s4 in range(-4, 0)]
            and not _failing_walls(r, "oracle_match")
        ),
    }),
    # nu finds the twist -2 as the root of chi(v . v_{s,b}(x f)), so it fails
    # first, and line-bundle, chi-vanishing and exclusions, which require it,
    # skip; the next row runs them without nu
    "compute_nu case point": (_nu_mutant, "case-study-2299", {
        "nu": lambda r: r["nu"] == -1,
        "hypotheses-T2": lambda r: r["conditions"]["orthogonal"] is False,
    }),
    # with L = 4.sigma + 7f the documented h0 exception no longer holds
    "compute_nu without the nu check": (_nu_mutant, "case-study-2299", {
        "line-bundle": lambda r: r["L"]["coeffs"] == [4, 7] and not r["alternative_form_matches"],
        "chi-vanishing": lambda r: r["chi_product"] == 4,
        "exclusions": lambda r: r["report"]["q1q2_excluded"] is True,
    }, "nu"),
    "h0_coeffs of L": (_h0_coeffs_mutant, "case-study-2299", {
        "line-bundle": lambda r: (r["chi"], r["h0"]) == (18, 19),
        "dimension-match": lambda r: r["left"] == r["right"] == 92378,  # C(19, 9)
    }),
    "chi_rr of L": (_chi_rr_mutant, "case-study-2299", {
        "line-bundle": lambda r: (r["chi"], r["h0"]) == (19, 18),
        "dimension-match": lambda r: r["left"] == r["right"] == 48620,  # C(18, 9)
    }),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_leaves_pass(monkeypatch, name):
    mutate, instance, expected, *dropped = MUTANTS[name]
    spec = dict(ACCEPTANCE[instance])
    spec["checks"] = [check for check in spec["checks"] if check not in dropped]
    results = run_instance(spec)["results"]
    assert all(results[check]["status"] == "pass" for check in expected)
    mutate(monkeypatch)
    results = run_instance(spec)["results"]
    for check, shows in expected.items():
        assert results[check]["status"] == "fail", check
        assert shows(results[check]), check


# An elliptic-general point exactly on the dimension bound of T5 and the
# conjecture: dim M(v) + dim M(w) = 28 + 30 = 58 = delta_bound(3, 2, 2).
BOUND_POINT = {
    "surface": {"kind": "elliptic-general", "chi_o": 3},
    "params": {"v": "2:1,11:1", "w": "2:1,6:-2"},
    "checks": ["hypotheses-T5", "hypotheses-Conj"],
}


def test_delta_bound_raised_by_one_fails_the_point_on_the_bound(monkeypatch):
    spec = normalize_instance(BOUND_POINT, 0)[0]
    results = run_instance(spec)["results"]
    for check in BOUND_POINT["checks"]:
        assert results[check]["status"] == "pass"
        assert results[check]["conditions"]["ii_dimension_sum_bound"] is True
    assert duality.delta_bound(3, 2, 2) == 58
    original = _patch_everywhere(monkeypatch, duality, "delta_bound",
                                 lambda chi_o, r, s: original(chi_o, r, s) + 1)
    results = run_instance(spec)["results"]
    for check in BOUND_POINT["checks"]:
        assert results[check]["status"] == "fail"
        assert results[check]["conditions"]["ii_dimension_sum_bound"] is False

