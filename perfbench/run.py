"""Benchmark of the strangedual CLI on two workloads.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  One process generates the inputs from the
seed, runs the CLI once to get the reference report, then repeats whole
rounds while the next one still fits in ``--seconds`` (counted from the
start, set-up included; at least three rounds).  With
``--trace 0`` a round is one CLI subprocess on the batch file (wall time, CPU
time and peak memory), one set-up subprocess (start Python, import the CLI,
``load_batch``) and one in-process ``run_batch`` on specs already loaded.
With ``--trace 1`` a round is one untraced ``run_batch`` and one traced
in-process ``cli.main``; per-layer numbers come from the traced passes and
from untraced microbenchmarks of the lattice primitives.

Every pass's report must equal the first once ``timing_ms`` is stripped, and
the first is checked against values the benchmark computes itself
(``verify.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  An operation is one
(instance, check) result; it fails when its status is not ``pass``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "_out"

sys.path.insert(0, str(BENCH_DIR))

import verify  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

WORKLOADS = ("acceptance", "strata")
DEFAULT_SEED = 1
# whole rounds a run makes even when --seconds is too short for them
MIN_ROUNDS = 3
TIMING = re.compile(r'"timing_ms": \d+')
SETUP_CODE = "import sys\nfrom strangedual.cli import load_batch\nload_batch(sys.argv[1])\n"


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing program or input)."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class Workload:
    """The batch file of one workload and the program run against it."""

    def __init__(self, name: str, seed: int):
        if not (SRC / "strangedual" / "cli.py").is_file():
            raise BenchError(f"no program at {SRC / 'strangedual'}")
        OUT.mkdir(exist_ok=True)
        self.name = name
        self.expected: list[dict] = []
        if name == "acceptance":
            self.path = ROOT / workloads.ACCEPTANCE_BATCH
            if not self.path.is_file():
                raise BenchError(f"missing {workloads.ACCEPTANCE_BATCH}")
        else:
            batch = workloads.strata_batch(random.Random(seed))
            self.path = OUT / f"{name}-{seed}.yaml"
            self.path.write_text(batch.text, encoding="utf-8")
            self.expected = batch.expected
        self.report_path = OUT / f"{name}-{seed}-report.json"
        self.stderr_path = OUT / f"{name}-{seed}-stderr.txt"
        self.env = dict(os.environ)
        self.env.pop("STRANGEDUAL_WORKERS", None)
        # run from cached bytecode, as an installed program does, whatever
        # the caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        sys.path.insert(0, str(SRC))
        from strangedual import cli

        if Path(cli.__file__).resolve().parent != (SRC / "strangedual").resolve():
            raise BenchError(f"imported {cli.__file__}, not the checkout's program")
        self.cli = cli
        self.specs = cli.load_batch(str(self.path))

    def check(self, doc: dict) -> list[str]:
        if self.name == "acceptance":
            return verify.check_acceptance(doc)
        return verify.check_strata(doc, self.expected)

    def _spawn(self, argv: list[str]):
        """Run one subprocess; return (exit code, wall s, CPU s, peak RSS MB)."""
        with open(self.stderr_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                # wait4 gives the child's own usage plus that of children it waited for
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0

    def cli_pass(self):
        # a pass that writes no report must not be judged by the last one
        self.report_path.unlink(missing_ok=True)
        return self._spawn(
            ["-m", "strangedual.cli", "batch", str(self.path), "--quiet", "--out", str(self.report_path)]
        )

    def setup_pass(self):
        return self._spawn(["-c", SETUP_CODE, str(self.path)])

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]


class Run:
    """Counts operations and collects problems across the passes of one run.

    The first report is kept only as text.  Holding it as Python objects
    would grow the heap the garbage collector sees and change how often it
    runs full collections, and with that the in-process timings.
    """

    def __init__(self, wl: Workload):
        self.wl = wl
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        rc, *_ = wl.cli_pass()
        text = wl.report_path.read_text(encoding="utf-8")
        doc = json.loads(text)
        self.reference_text = TIMING.sub("", text)
        self.reference_compact = TIMING.sub("", json.dumps(doc, sort_keys=True))
        self.ops = sum(len(inst["results"]) for inst in doc["instances"])
        self.fails = sum(
            1 for inst in doc["instances"] for r in inst["results"].values() if r["status"] != "pass"
        )
        self.exit_code = 1 if self.fails else 0
        self._count(rc, "first CLI pass")
        self.problems.extend(wl.check(doc))

    def _count(self, rc: int, what: str) -> None:
        self.attempted += self.ops
        self.failed += self.fails
        if rc != self.exit_code:
            self.problems.append(f"{what}: exit {rc}, expected {self.exit_code}: {self.wl.stderr_tail()}")

    def cli_report(self, rc: int, what: str) -> None:
        """Count a pass that wrote the report file, and compare it with the first."""
        self._count(rc, what)
        text = TIMING.sub("", self.wl.report_path.read_text(encoding="utf-8"))
        if text != self.reference_text:
            self.problems.append(f"{what}: report differs from the first pass")

    def doc_report(self, doc: dict, what: str) -> None:
        """Count an in-process pass and compare its document with the first."""
        self._count(self.wl.cli.document_exit_code(doc), what)
        if TIMING.sub("", json.dumps(doc, sort_keys=True)) != self.reference_compact:
            self.problems.append(f"{what}: report differs from the first pass")


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def measure(wl: Workload, run: Run, deadline: float) -> dict:
    walls, cpus, rss, setups, checks = [], [], [], [], []
    rounds = 0
    round_s = 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() + round_s < deadline:
        round_started = time.perf_counter()
        rc, wall, cpu, peak = wl.cli_pass()
        run.cli_report(rc, f"CLI pass {rounds}")
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)

        rc, wall, _, _ = wl.setup_pass()
        if rc != 0:
            run.problems.append(f"set-up pass {rounds}: exit {rc}: {wl.stderr_tail()}")
        setups.append(wall)

        t0 = time.perf_counter()
        doc = wl.cli.run_batch(wl.specs)
        checks.append(time.perf_counter() - t0)
        run.doc_report(doc, f"in-process pass {rounds}")
        del doc
        rounds += 1
        round_s = time.perf_counter() - round_started
    print(f"{wl.name}: {rounds} rounds", file=sys.stderr)
    for name, values in (("wall_s", walls), ("setup_s", setups), ("check_s", checks)):
        print(f"  {name}: {' '.join(f'{v:.3f}' for v in values)}", file=sys.stderr)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "check_s": (statistics.median(checks), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

FUNCTION_MS = {
    "surfaces.sign_law_sweep.ms": "surfaces.sign_law_sweep",
    "hilbert.exclusion_report.ms": "hilbert.exclusion_report",
    "fourier_mukai.verify_fm_suite.ms": "fourier_mukai.verify_fm_suite",
    "strata.wall_enumerate.ms": "strata.wall_enumerate",
    "strata.strata_enumerate.ms": "strata.strata_enumerate",
    "strata.codim_audit.ms": "strata.codim_audit",
    "strata.strata_box_oracle.ms": "strata.strata_box_oracle",
    "cli.load_batch.ms": "cli.load_batch",
}


def _pass_metrics(s) -> dict:
    """Per-layer numbers of one traced pass: name -> (value, unit)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (s.self_s[layer] * 1000, "ms")
        out[f"{layer}.calls"] = (s.calls[layer], "count")
    for metric, fn in FUNCTION_MS.items():
        out[metric] = (s.fn_s.get(fn, 0.0) * 1000, "ms")
    nu_calls = s.fn_calls.get("duality.compute_nu", 0)
    nu_ok = s.fn_ok.get("duality.compute_nu", 0)
    out["duality.compute_nu.calls"] = (nu_calls, "count")
    out["duality.compute_nu.ok_ratio"] = (nu_ok / nu_calls if nu_calls else 0.0, "ratio")
    st_calls = s.fn_calls.get("strata.strata_enumerate", 0)
    st_found = s.fn_size.get("strata.strata_enumerate", 0)
    out["strata.strata_enumerate.calls"] = (st_calls, "count")
    out["strata.strata_per_call"] = (st_found / st_calls if st_calls else 0.0, "count")
    emit = s.fn_s["cli.main"] - s.fn_s["cli.load_batch"] - s.fn_s["cli.run_batch"]
    out["cli.emit.ms"] = (emit * 1000, "ms")
    return out


def trace(wl: Workload, run: Run, deadline: float, seed: int) -> dict:
    micro = microbenchmarks(random.Random(seed))
    tracer = Tracer()
    report = str(wl.report_path)
    per_pass, instance_ms, traced_s, untraced_s = [], [], [], []
    rounds = 0
    while True:
        round_started = time.perf_counter()
        doc = wl.cli.run_batch(wl.specs)
        untraced_s.append(time.perf_counter() - round_started)
        run.doc_report(doc, f"untraced pass {rounds}")
        del doc

        wl.report_path.unlink(missing_ok=True)
        with tracer:
            rc = wl.cli.main(["batch", str(wl.path), "--quiet", "--out", report])
        summary = tracer.summary()
        tracer.reset()
        run.cli_report(rc, f"traced pass {rounds}")
        per_pass.append(_pass_metrics(summary))
        traced_s.append(summary.fn_s["cli.run_batch"])
        instance_ms.extend(d * 1000 for d in summary.durations("cli.run_instance"))
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now + (now - round_started) >= deadline:
            break
        # the spans must not sit in the heap during the next untraced pass
        del summary
    print(f"{wl.name}: {rounds} traced rounds", file=sys.stderr)
    summary.write_tsv(OUT / f"{wl.name}-{seed}-spans.tsv")

    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if name.endswith(".calls"):
            # a count must repeat exactly from pass to pass
            if len(set(values)) != 1:
                run.problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    metrics["cli.run_instance.ms.p50"] = (statistics.median(instance_ms), "ms")
    overhead = statistics.median(traced_s) / statistics.median(untraced_s)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    for name, value in micro.items():
        metrics[name] = (value, "us")
    return metrics


def microbenchmarks(rng: random.Random) -> dict:
    """Untraced µs per operation of the lattice primitives.

    Inputs are random classes and vectors with coordinates in [-5, 5] on the
    elliptic K3 and on general elliptic surfaces (chi(O) in 1..4); the Mukai
    pairing is defined on the K3 only.  Each figure is the median of 7
    timings of 20 sweeps over the inputs.
    """
    samples, repeat = 7, 20
    from strangedual.surfaces import (
        MukaiVector, elliptic_general, elliptic_k3, euler_form, moduli_dim, mukai_pair, twist,
    )

    def coords(n):
        return [rng.randint(-5, 5) for _ in range(n)]

    def pairs(model, n):
        out = []
        for _ in range(n):
            d1, d2 = model.cls(*coords(2)), model.cls(*coords(2))
            r1, s1, r2, s2 = coords(4)
            out.append((d1, d2, MukaiVector(r1, d1, s1), MukaiVector(r2, d2, s2)))
        return out

    k3 = pairs(elliptic_k3(), 64)
    general = []
    for _ in range(4):
        general.extend(pairs(elliptic_general(rng.randint(1, 4)), 16))
    both = k3 + general
    ops = {
        "surfaces.ns_add_us": (both, lambda d1, d2, v, w: d1 + d2),
        "surfaces.ns_dot_us": (both, lambda d1, d2, v, w: d1.dot(d2)),
        "surfaces.mukai_pair_us": (k3, lambda d1, d2, v, w: mukai_pair(v, w)),
        "surfaces.euler_form_us": (both, lambda d1, d2, v, w: euler_form(v, w)),
        "surfaces.twist_us": (both, lambda d1, d2, v, w: twist(v, d2)),
        "surfaces.moduli_dim_us": (both, lambda d1, d2, v, w: moduli_dim(v)),
    }
    out = {}
    for name, (inputs, op) in ops.items():
        times = []
        for _ in range(samples):
            t0 = time.perf_counter()
            for _ in range(repeat):
                for args in inputs:
                    op(*args)
            times.append((time.perf_counter() - t0) / (repeat * len(inputs)) * 1e6)
        out[name] = statistics.median(times)
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the CLI subprocess it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.perf_counter() + args.seconds
    try:
        wl = Workload(args.workload, args.seed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = Run(wl)
    if args.trace:
        metrics = trace(wl, run, deadline, args.seed)
    else:
        metrics = measure(wl, run, deadline)
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
