"""Tests of the benchmark's own parts: closed forms, brute force, generators, tracer.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import verify  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

from strangedual import cli, duality, strata, surfaces  # noqa: E402


def test_sign_law_pairs_closed_form():
    assert verify.sign_law_pairs(3, [2, 4, 6, 8]) == 3_119_585


def test_exclusion_points_closed_form():
    assert verify.exclusion_points(2, 4, 2, 4, 60) == 1_829


def test_wall_class_at_m_4_is_sigma_minus_2f():
    assert verify.wall_class(Fraction(4)) == (1, -2)
    assert verify.wall_class(Fraction(6)) == (1, -4)


def test_rank2_brute_force_worked_case():
    # v = (2, sigma, -2) on the wall sigma - 2f at m = 4: only t = 1 is
    # admissible, giving parts (1, sigma - f, s1) + (1, f, -2 - s1) with
    # s1 = -3, -2, -1.
    strata_found = verify.rank2_strata(1, 0, -2, Fraction(4))
    assert sorted(strata_found) == [
        ((1, (1, -1), s1), (1, (0, 1), -2 - s1)) for s1 in (-3, -2, -1)
    ]


def test_rank2_brute_force_counts_by_hand():
    # (2, sigma, s) at m = 4, D = sigma - 2f, D^2 = -6: t runs over odd
    # t with 6 t^2 <= 8 - 4 s.  t = 1 gives s1 = s - 1 .. -1, that is 1 - s
    # strata; t = 3 enters at s = -14 with parts (1, 2 sigma - 3f, s1) +
    # (1, -sigma + 3f, -14 - s1), s1 = -11 .. -9.
    assert len(verify.rank2_strata(1, 0, 0, Fraction(4))) == 1
    assert len(verify.rank2_strata(1, 0, -4, Fraction(4))) == 5
    assert len(verify.rank2_strata(1, 0, -10, Fraction(4))) == 11
    found = verify.rank2_strata(1, 0, -14, Fraction(4))
    assert len(found) == 15 + 3
    assert {p[0][1] for p in found} == {(1, -1), (2, -3)}


def test_generator_repeats_for_a_seed_and_keeps_its_size():
    first = workloads.strata_batch(random.Random(5))
    again = workloads.strata_batch(random.Random(5))
    other = workloads.strata_batch(random.Random(6))
    assert first.text == again.text
    assert first.text != other.text
    assert len(first.expected) == len(other.expected)
    fixed = [e for e in workloads.strata_batch(random.Random(5)).expected if e["fails"]]
    assert [(e["r"], e["y"], e["s"]) for e in fixed] == [(4, 0, -9)]


def _attributes():
    """Every attribute of the package's modules and of their classes."""
    snapshot = {}
    for key, mod in sys.modules.items():
        if key == "strangedual" or key.startswith("strangedual."):
            for name, value in vars(mod).items():
                snapshot[(key, name)] = value
                if isinstance(value, type) and value.__module__ == key:
                    for attr, member in vars(value).items():
                        snapshot[(key, name, attr)] = member
    return snapshot


def test_tracer_wraps_every_namespace_and_restores_everything():
    before = _attributes()
    original_pair = surfaces.mukai_pair
    tracer = Tracer()
    with tracer:
        # cli, strata and duality import mukai_pair by name: one wrapper everywhere
        assert surfaces.mukai_pair is not original_pair
        assert cli.mukai_pair is surfaces.mukai_pair is strata.mukai_pair is duality.mukai_pair
        assert surfaces.NSClass.dot is not before[("strangedual.surfaces", "NSClass", "dot")]
        changed = [key for key, value in _attributes().items() if value is not before[key]]
        assert len(changed) > 50
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_self_times_add_up_to_the_traced_pass():
    specs = cli.load_batch(str(BENCH_DIR.parent / workloads.ACCEPTANCE_BATCH))
    small = [s for s in specs if s["name"] in ("case-study-2299", "hn-strata", "fm-degeneration")]
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        cli.run_batch(small)
        outer = time.perf_counter() - t0
    summary = tracer.summary()
    assert summary.fn_calls["cli.run_batch"] == 1
    assert set(summary.self_s) == set(LAYERS)
    total_self = sum(summary.self_s.values())
    assert abs(total_self - summary.root_s) < 1e-6
    assert abs(summary.root_s - summary.fn_s["cli.run_batch"]) < 1e-9
    assert 0.9 * outer <= summary.root_s <= outer
    assert summary.fn_size["strata.strata_enumerate"] > 0


def test_tracer_wraps_only_public_functions_and_methods():
    model_property = vars(surfaces.MukaiVector)["model"]
    with Tracer() as tracer:
        assert "surfaces.mukai_pair" in tracer.names
        assert "surfaces.NSClass.dot" in tracer.names
        assert not any(name.rsplit(".", 1)[1].startswith("_") for name in tracer.names)
        assert vars(surfaces.MukaiVector)["model"] is model_property
