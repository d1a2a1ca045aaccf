"""Self-test of the benchmark itself; exits 0 when every check holds.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

* Smoke runs (a few ops) of every workload, untraced and traced, must print
  exactly the metrics BENCHMARK.json names, each with its unit, and no
  failed op.
* Two traced smoke runs on one seed must report identical work counts.
* Against a tampered reference (every recorded digest replaced), a few ops
  of each CLI workload, replayed as the worker replays them, must all be
  counted as failed.
* Installing the tracer must rebind the cross-module imports it lists, and
  uninstalling it must restore every original binding.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from spec import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(DEFAULT_SEED)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=175)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list, label: str):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], (label, result)
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (label, set(got) ^ set(want))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (label, name)


def work_counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in ("count", "bytes") or name.endswith("_yield")
    }


def check_tampered_reference():
    import workloads
    from worker import Tally

    reference = json.loads((HERE / "reference.json").read_text())
    reference["digests"] = {key: "0" * 20 for key in reference["digests"]}
    for name in ("convexity", "trees"):
        workload = workloads.WORKLOADS[name]()
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-out") as workdir:
            ops = workload.prepare(DEFAULT_SEED, workdir)[:3]
            tally = Tally()
            tally.replay(workload, ops, reference)
        assert len(tally.failures) / len(tally.latencies) == 1.0, (name, tally.failures)
        assert all("differ from the reference" in f for f in tally.failures), (name, tally.failures)
        print(f"ok  {name}: a tampered reference digest is counted as a failed op")


def check_tracer_bindings():
    import weylkit.cli  # noqa: F401  (imports every layer module)
    from tracer import REQUIRED_REBINDINGS, Tracer

    mods = {layer: sys.modules[f"weylkit.{layer}"] for layer, _ in REQUIRED_REBINDINGS}
    before = {(layer, n): getattr(mods[layer], n) for layer, names in REQUIRED_REBINDINGS for n in names}
    tracer = Tracer()
    tracer.install()
    try:
        for (layer, n), original in before.items():
            assert getattr(mods[layer], n) is not original, f"{layer}.{n} not rebound"
    finally:
        tracer.uninstall()
    for (layer, n), original in before.items():
        assert getattr(mods[layer], n) is original, f"{layer}.{n} not restored"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        check_result(run(workload, 0), bench["end_to_end"], f"{workload} untraced")
        first = run(workload, 1)
        check_result(first, bench["per_layer"], f"{workload} traced")
        second = run(workload, 1)
        assert work_counts(first) == work_counts(second), f"{workload}: work counts differ between runs"
        print(f"ok  {workload}: metrics, units and repeatable work counts")

    sys.path.insert(0, str(ROOT / "src"))
    check_tampered_reference()
    check_tracer_bindings()
    print("ok  tracer rebinds the listed cross-module imports and restores them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
