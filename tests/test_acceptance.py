"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Everything here is exact integer/rational arithmetic; every assertion is an
equality or an exact inequality, zero tolerance throughout.  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from strangedual.duality import (
    compute_nu,
    delta_bound,
    dimension_match,
    duality_line_bundle,
    ogrady_tower,
    theta_relation_identity,
    theta_relation_sweep,
    tower_instance,
)
from strangedual.fourier_mukai import (
    coords_vector,
    derive_bridge_matrix,
    derive_fm_matrix,
    fm_apply,
    fm_c1_grr,
    vector_coords,
    verify_fm_suite,
)
from strangedual.hilbert import binom, exclusion_report
from strangedual.strata import (
    chain_audit,
    codim_audit,
    strata_box_oracle,
    strata_enumerate,
    wall_enumerate,
)
from strangedual.surfaces import (
    MukaiVector,
    chi_vec,
    elliptic_general,
    elliptic_k3,
    euler_form,
    generic_k3,
    ideal_sheaf_vector,
    moduli_dim,
    mukai_dual,
    mukai_pair,
    normalized_vector,
    sign_law_sweep,
    structure_vector,
    twist,
)
from test_strata import _reference_stratum_codim_ok

E = elliptic_k3()
BATCH = Path(__file__).parent / "data" / "acceptance_batch.yaml"


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_normalized_tower_identities():
    o = structure_vector(E)
    down = -2 * E.fiber
    ok = True
    for r in range(1, 11):
        for a in range(0, 51):
            v = normalized_vector(r, a, E)
            ok = ok and mukai_pair(v, v) == 2 * a - 2
            ok = ok and chi_vec(v) == 1
            if r < 10:
                ok = ok and normalized_vector(r + 1, a, E) == o + twist(v, down)
    _verdict(1, ok, "tower pairing/chi/recursion identities, r<=10, a<=50, exact")


def test_criterion_2_euler_form_sign_law():
    checked, mismatches, discrepancy = sign_law_sweep(E, 3)
    total_checked = checked
    for degree in (2, 4, 6, 8):
        c, m, _ = sign_law_sweep(generic_k3(degree), 3)
        total_checked += c
        mismatches += m
    ok = not mismatches
    # the sweep decides on basis Gram matrices; spot-check it on grid vectors
    rng = random.Random(0)
    vecs = [
        MukaiVector(rng.randint(-3, 3), E.cls(rng.randint(-3, 3), rng.randint(-3, 3)),
                    rng.randint(-3, 3))
        for _ in range(60)
    ]
    for v in vecs:
        for w in vecs:
            lhs = euler_form(v, w)
            rhs = -mukai_pair(v, mukai_dual(w))
            ok = ok and lhs == rhs and (lhs == 0) == (mukai_pair(v, mukai_dual(w)) == 0)
    ok = ok and discrepancy == {"euler_form(vO, vO)": 2, "<vO, vO_dual>": -2}
    _verdict(2, ok, f"{total_checked} grid pairs, GRR = -<v,w*>, discrepancy documented")


def test_criterion_3_fm_matrix():
    matrix = derive_fm_matrix(E)
    # derive_fm_matrix raises unless the solve is unique and every residual vanishes
    ok = matrix.columns == ((0, -1, -1, -1), (1, 0, 1, 1), (0, 0, 0, -1), (0, 0, 1, 0))
    ok = ok and matrix.determinant() in (-1, 1)

    # 16/16 basis isometry
    basis = [coords_vector(E, tuple(int(i == j) for j in range(4))) for i in range(4)]
    for ei in basis:
        for ej in basis:
            ok = ok and mukai_pair(fm_apply(matrix, ei), fm_apply(matrix, ej)) == mukai_pair(ei, ej)

    # displayed images on the grid r <= 6, a <= 20
    for r in range(1, 7):
        for a in range(0, 21):
            u = mukai_dual(normalized_vector(r, a, E))
            ok = ok and fm_apply(matrix, u) == -ideal_sheaf_vector(E.cls(r, 2 * r), a)
            image = fm_apply(matrix, normalized_vector(r, a, E))
            ok = ok and vector_coords(image) == (1, -r, -2 * (r - 1), (r - 1) ** 2 - a)

    # twist rule for n in [-3, 3]
    for r in range(1, 4):
        u = mukai_dual(normalized_vector(r, 6, E))
        base = fm_apply(matrix, u)
        for n in range(-3, 4):
            shifted = fm_apply(matrix, twist(u, n * E.fiber))
            ok = ok and shifted == twist(base, n * E.fiber)
            ok = ok and shifted.c1 == base.c1 - n * E.fiber

    bridge = derive_bridge_matrix(matrix)
    identity = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    ok = ok and bridge.matmul(matrix).rows == matrix.matmul(bridge).rows == identity

    for quad in ((1, 0, 0, 1), (2, 1, 7, -1), (0, 0, 0, 1), (-1, 2, -3, 4)):
        v = coords_vector(E, quad)
        ok = ok and fm_c1_grr(v) == fm_apply(matrix, v).c1

    report = verify_fm_suite(matrix, 6, 20)
    ok = ok and report.all_ok
    _verdict(3, ok, "unique solve, isometry 16/16, images r<=6 a<=20, twists, bridge, GRR c1")


def test_criterion_4_case_study_2299():
    inst = tower_instance(2, 2, 9, 9)
    ok = inst.nu == -2
    check = duality_line_bundle(inst)
    ok = ok and check.line_bundle == E.cls(4, 8) and check.chi == 18 and check.ok
    left, right, equal = dimension_match(inst)
    ok = ok and (left, right, equal) == (48620, 48620, True)
    rep = exclusion_report(inst)
    ok = ok and not rep.q1q2_excluded and rep.h0_l_a1f == 1
    ok = ok and rep.h0_l_minus_sigma == 17 and rep.s_count == binom(17, 18) == 0
    _verdict(4, ok, "nu=-2, L=4s+8f, chi=18, counts 48620/48620, exceptional case flagged")


def test_criterion_5_exclusion_sweep():
    ok = True
    points = 0
    exceptions = []
    for r in range(2, 5):
        for s in range(2, 5):
            for total in range(0, 61):
                for a in range(0, total + 1):
                    b = total - a
                    try:
                        compute_nu(r, s, a, b)
                    except ValueError:
                        continue
                    points += 1
                    inst = tower_instance(r, s, a, b)
                    rep = exclusion_report(inst)
                    ok = ok and rep.q3_excluded  # eq. for the joint-fiber component
                    if not rep.q1q2_excluded:
                        exceptions.append((r, s, a, b))
                    ok = ok and euler_form(inst.v, inst.w) == 0
                    ok = ok and (moduli_dim(inst.v), moduli_dim(inst.w)) == (2 * a, 2 * b)
    ok = ok and exceptions == [(2, 2, 9, 9)]
    _verdict(5, ok, f"{points} valid points, one documented exception, chi products vanish")


def test_criterion_6_hn_strata():
    v = MukaiVector(2, E.sigma, -2)
    walls = {w.m_value: w for w in wall_enumerate(v, 3)}
    ok = Fraction(4) in walls
    wall = walls[Fraction(4)]
    ok = ok and wall.d == E.cls(1, -2)
    strata = [st for st in strata_enumerate(v, wall) if len(st.parts) == 2]
    ok = ok and len(strata) == 3
    ok = ok and {st.parts[0][2] for st in strata} == {-1, -2, -3}
    ok = ok and all(st.total_dim == 5 for st in strata)
    audit = codim_audit(v, wall)
    ok = ok and audit.min_codim == 2 and audit.bound == Fraction(1, 2) and audit.codim_bound_ok
    ok = ok and set(strata) == set(strata_box_oracle(v, wall))

    audited = 0
    for s4 in range(-4, 1):
        vv = MukaiVector(2, E.sigma, s4)
        for w in wall_enumerate(vv, 3):
            pruned = [st for st in strata_enumerate(vv, w) if len(st.parts) == 2]
            ok = ok and set(pruned) == set(strata_box_oracle(vv, w))
            for st in pruned:
                audited += 1
                ok = ok and chain_audit(vv, [st])[0].ok
                ok = ok and _reference_stratum_codim_ok(vv, st)
    _verdict(6, ok, f"3 strata of dim 5, codim 2 vs bound 1/2, oracle match, {audited} chain audits")


def test_criterion_7_theta_relation():
    checked, failures, crossed = theta_relation_sweep(2, 5, -5, 0)
    ok = checked == 16 * 36 and not failures and crossed > 0
    g = generic_k3(14)
    h = g.hyperplane
    res = theta_relation_identity(MukaiVector(2, h, -2), MukaiVector(3, h, -4))
    ok = ok and res.ok
    ok = ok and 14 * MukaiVector(3, h, -4) == MukaiVector(42, 14 * h, -56)
    _verdict(7, ok, f"{checked} parameter points componentwise, worked instance 14w = (42,14H,-56)")


def test_criterion_8_general_elliptic_surfaces():
    ok = delta_bound(2, 2, 2) == 36
    for chi_o in (2, 3, 4):
        model = elliptic_general(chi_o)
        for r in (2, 3):
            for s in (2, 3):
                total = 0
                while True:
                    total += 1
                    try:
                        compute_nu(r, s, total // 2, total - total // 2, model)
                        break
                    except ValueError:
                        continue
                a, b = total // 2, total - total // 2
                inst = tower_instance(r, s, a, b, model)
                ok = ok and euler_form(inst.v, inst.w) == 0
                ok = ok and (moduli_dim(inst.v), moduli_dim(inst.w)) == (2 * a, 2 * b)
                check = duality_line_bundle(inst)
                ok = ok and check.chi == a + b and check.ok
                if chi_o == 2:
                    k3_inst = tower_instance(r, s, a, b, E)
                    ok = ok and k3_inst.nu == inst.nu
                    ok = ok and k3_inst.line_bundle.coeffs == inst.line_bundle.coeffs
                    ok = ok and k3_inst.v.c1.coeffs == inst.v.c1.coeffs
        for a in range(0, 51):
            ok = ok and ogrady_tower(10, a, model).ok

    # chi(O) = 2 transform matrix degenerates to the K3 one exactly
    matrix2 = derive_fm_matrix(elliptic_general(2))
    report = verify_fm_suite(matrix2, 4, 10)
    ok = ok and report.all_ok and report.degeneration_ok
    _verdict(8, ok, "chi(L) = a+b for chi in {2,3,4}, Delta = 36, chi=2 degenerates to the K3")


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "strangedual.cli", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_9_cli_determinism(tmp_path):
    out1 = tmp_path / "report1.json"
    out2 = tmp_path / "report2.json"
    first = _run_cli(["batch", str(BATCH), "--out", str(out1), "--quiet"])
    second = _run_cli(["batch", str(BATCH), "--out", str(out2), "--quiet"])
    ok = first.returncode == 0 and second.returncode == 0

    doc = json.loads(out1.read_text())
    statuses = {
        f"{inst['spec']['name']}:{name}": result["status"]
        for inst in doc["instances"]
        for name, result in inst["results"].items()
    }
    ok = ok and all(status == "pass" for status in statuses.values())

    strip = lambda text: re.sub(r'"timing_ms": \d+', '"timing_ms": 0', text)
    ok = ok and strip(out1.read_text()) == strip(out2.read_text())
    _verdict(9, ok, f"batch of {len(doc['instances'])} instances, exit 0, byte-stable modulo timing")
