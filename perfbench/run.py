"""The weylkit benchmark: one command, four seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload convexity --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py for the op mixes and BENCHMARK.json for why each
was chosen):

* ``convexity``: in-process ``verify-convexity``, ``hull`` and ``fold`` CLI
  jobs on A2, A3, B2, C2, G2 and F4 points, stdout captured in memory;
* ``metric``: criterion-6 samples (metric axioms, Weyl invariance, the two
  distance formulas) on A2, B2, G2, A3, F4, I2(5) and I2(8), over Q and
  lex pairs;
* ``twisted``: criterion-10/11 samples (closed-form valuation, product
  inequality, theta scaling, anisotropy) for cases B, F and G;
* ``trees``: in-process ``tree --input`` jobs on quadruple tables written
  during set-up, a fifth of them perturbed so that they must be rejected.

Each run is a closed loop with one client in a fresh worker process whose
``PYTHONHASHSEED`` is fixed.  It replays the workload's seeded pass (100 to
1620 ops) in whole passes until ``--seconds`` have passed.  Every time it
reports is a wall time rescaled by the host's speed at that moment, which
a calibration loop interleaved with the ops measures (spec.py); the raw
times are in the record line.  ``--trace 0`` prints the end-to-end metrics:

* ``throughput_ops_s``: ops completed per second of op time (the checks
  and calibrations between ops are not timed);
* ``op_p50_ms``, ``op_p90_ms``: time per op; every pass holds at least 100
  ops, so at least ten lie beyond p90;
* ``setup_s``: median over SETUP_PROBES fresh processes of the time from
  ``import weylkit`` until the workload's modules are imported and its root
  systems and Weyl groups built (probe.py);
* ``peak_rss_mb``: peak resident memory of the worker process.

``--trace 1`` prints the per-layer metrics of a traced replay (tracer.py):
calls, self time, self-time share and escaped exceptions per layer, the
named work counts, and ``trace_overhead`` (traced over untraced time).  Before the result, one
line records the run: machine, Python, source version, seed, hash seed,
sample counts, error rate, the known-defect probe and any failures.  The
last line of stdout is the result object.  Every op's output is checked;
failed ops are counted and make ``correct`` false.

``--smoke`` runs a few ops once.  CLI outputs are checked against the
digests in reference.json, written by record.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from spec import HASH_SEED, SETUP

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_seconds(workload: str, probes: int) -> list[list[float]]:
    """[raw, rescaled] set-up seconds of ``probes`` fresh processes (probe.py)."""
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        out.append([float(x) for x in proc.stdout.split()])
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "weylkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git work tree (src_sha256 still names the code)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "hash_seed": HASH_SEED,
        "platform": platform.platform(),
        "python": sys.version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few ops per run, one set-up probe")
    args = ap.parse_args(argv)

    if not (SRC / "weylkit" / "__init__.py").is_file():
        print(f"perfbench: no weylkit sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(OUT_DIR),
    ] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(lines[-1])
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()}
    report = out["report"]
    if not args.trace:
        try:
            samples = setup_seconds(args.workload, 1 if args.smoke else SETUP_PROBES)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"perfbench: set-up probe failed: {exc}", file=sys.stderr)
            return 1
        metrics["setup_s"] = {"value": statistics.median(scaled for _, scaled in samples), "unit": "s"}
        report["raw_setup_s"] = statistics.median(raw for raw, _ in samples)
        report["setup_samples_s"] = samples
    print(json.dumps({"record": run_record(args), "report": report}, sort_keys=True))
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": dict(sorted(metrics.items())),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
