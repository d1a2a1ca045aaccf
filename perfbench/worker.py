"""One workload in one fresh process; started by run.py, prints one JSON line.

Untraced (``--trace 0``): replay the workload's seeded pass again and again,
in whole passes, until ``--seconds`` have passed, with a calibration loop
between ops at least every CAL_EVERY_S.  Each op's wall time is rescaled by
the host's speed around it (the median of the nearest calibrations, see
spec.py), and throughput and latency percentiles are taken over the
rescaled times; the raw ones go into the report.  Traced (``--trace 1``):
replay a fixed prefix of the pass once to warm up, once untraced and once
through the layer wrappers, and report the per-layer numbers; the counts
depend only on the seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from spec import CAL_REF_S, HASH_SEED, SETUP, calibrate

HERE = Path(__file__).resolve().parent
SMOKE_OPS = 4
CAL_EVERY_S = 0.05  # calibrate between ops at least this often
CAL_WINDOW = 4  # an op's host speed: median of this many calibrations before it and as many after


class Tally:
    """Latencies, failures and output bytes of a sequence of ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.out_bytes = 0
        self.cals: list[tuple[int, float]] = []  # (ops timed before it, calibration seconds)

    def replay(self, workload, ops, reference, tracer=None, calibrated=False):
        clock = time.perf_counter
        calibrated_at = -CAL_EVERY_S
        for op in ops:
            if calibrated and clock() - calibrated_at >= CAL_EVERY_S:
                self.cals.append((len(self.latencies), calibrate()))
                calibrated_at = clock()
            if tracer is not None:
                tracer.op_id = len(self.latencies)
            t0 = clock()
            try:
                result, error = workload.run(op), None
            except Exception as exc:  # a raising op is a failed op, not a failed run
                result, error = None, exc
            self.latencies.append(clock() - t0)
            if error is not None:
                reason = f"raised {type(error).__name__}: {error}"
            else:
                if isinstance(result, tuple):
                    self.out_bytes += len(result[1].encode())
                reason = workload.check(op, result, reference)
            if reason is not None:
                self.failures.append(f"{op.kind} {' '.join(map(str, op.args))[:120]}: {reason}")
        if calibrated:
            self.cals.append((len(self.latencies), calibrate()))

    def scaled_latencies(self) -> list[float]:
        """Each latency times CAL_REF_S over the median of the calibrations around it."""
        cals = [c for _, c in self.cals]
        speed = [
            statistics.median(cals[max(0, j - CAL_WINDOW + 1) : j + CAL_WINDOW + 1]) for j in range(len(cals))
        ]
        out, j = [], 0
        for i, lat in enumerate(self.latencies):
            while j + 1 < len(self.cals) and self.cals[j + 1][0] <= i:
                j += 1
            out.append(lat * CAL_REF_S / speed[j])
        return out

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def percentile_ms(latencies, pct: int) -> float:
    if len(latencies) == 1:
        return latencies[0] * 1000
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1] * 1000


def set_up(workload_name: str):
    modules, systems = SETUP[workload_name]
    for mod in modules:
        importlib.import_module(mod)
    from weylkit.root_system import build

    for label in systems:
        build(label).weyl_group()


def probe_known_defect(workload, reference) -> dict:
    ops = getattr(workload, "probe_ops", [])
    tally = Tally()
    tally.replay(workload, ops, reference)
    return {
        "ops": len(ops),
        "failed": len(tally.failures),
        "error_rate": len(tally.failures) / len(ops) if ops else 0.0,
        "examples": tally.failures[:2],
    }


def untraced(args, workload, ops, reference) -> dict:
    gc.collect()
    if args.smoke:
        ops = ops[:SMOKE_OPS]
    tally = Tally()
    passes = 0
    start = time.perf_counter()
    while True:
        tally.replay(workload, ops, reference, calibrated=True)
        passes += 1
        if args.smoke or time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    lat = tally.latencies
    scaled = tally.scaled_latencies()
    metrics = {
        "throughput_ops_s": (len(scaled) / sum(scaled), "1/s"),
        "op_p50_ms": (percentile_ms(scaled, 50), "ms"),
        "op_p90_ms": (percentile_ms(scaled, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    cals = [c for _, c in tally.cals]
    report = {
        "ops_per_pass": len(ops),
        "passes": passes,
        "samples": len(lat),
        "wall_s": wall,
        "busy_s": tally.busy_s,
        "raw_throughput_ops_s": len(lat) / tally.busy_s,
        "raw_op_p50_ms": percentile_ms(lat, 50),
        "raw_op_p90_ms": percentile_ms(lat, 90),
        "calibrations": len(cals),
        "calibration_quartiles_ms": [c * 1000 for c in statistics.quantiles(cals, n=4)],
        "error_rate": len(tally.failures) / len(lat),
        "failures": tally.failures[:5],
        "out_bytes": tally.out_bytes,
        "known_defect": probe_known_defect(workload, reference),
    }
    return {"attempted": len(lat), "failed": len(tally.failures), "metrics": metrics, "report": report}


def traced(args, workload, ops, reference, tracer, setup_counts) -> dict:
    from tracer import LAYERS

    ops = ops[: SMOKE_OPS if args.smoke else workload.trace_ops]
    Tally().replay(workload, ops, reference)  # warm-up: caches filled before either timed replay
    gc.collect()
    plain = Tally()
    plain.replay(workload, ops, reference)
    gc.collect()
    tracer.reset()
    tracer.install()
    try:
        tally = Tally()
        tally.replay(workload, ops, reference, tracer)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    metrics = tracer.layer_metrics(tally.busy_s)
    for name in sorted(counts):
        if name != "path_model.gallery_endpoints":
            metrics[name] = (counts[name], "count")
    metrics["root_system.systems_built"] = (setup_counts["root_system.systems_built"], "count")
    metrics["root_system.setup_self_s"] = (setup_counts["root_system.setup_self_s"], "s")
    metrics["model_space.hull_yield"] = (
        _ratio(counts["model_space.hull_points"], counts["model_space.hull_candidates"]),
        "share",
    )
    metrics["path_model.gallery_yield"] = (
        _ratio(counts["path_model.gallery_endpoints"], counts["path_model.gallery_walks"]),
        "share",
    )
    metrics["cli.out_bytes"] = (tally.out_bytes, "bytes")
    metrics["trace_overhead"] = (tally.busy_s / plain.busy_s, "x")
    defect = probe_known_defect(workload, reference)
    metrics["cli.known_defect_failures"] = (defect["failed"], "count")
    spans_path = Path(args.out_dir) / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_spans(spans_path, {"workload": args.workload, "seed": args.seed, "ops": len(ops)})
    failures = tally.failures + plain.failures
    report = {
        "samples": len(ops),
        "layers": list(LAYERS),
        "untraced_busy_s": plain.busy_s,
        "traced_busy_s": tally.busy_s,
        "error_rate": len(failures) / (2 * len(ops)),
        "failures": failures[:5],
        "spans_file": str(spans_path.relative_to(Path(args.out_dir).parent)),
        "spans_recorded": len(tracer.span_name),
        "spans_dropped": tracer.dropped,
        "known_defect": defect,
    }
    return {"attempted": len(ops), "failed": len(failures), "metrics": metrics, "report": report}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        print(f"worker: PYTHONHASHSEED must be {HASH_SEED}", file=sys.stderr)
        return 2
    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    import weylkit

    if Path(weylkit.__file__).resolve().parent != src / "weylkit":
        print(f"worker: weylkit imported from {weylkit.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    tracer = setup_counts = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            set_up(args.workload)
        finally:
            tracer.uninstall()
        setup_counts = {
            "root_system.systems_built": tracer.counts["root_system.systems_built"],
            "root_system.setup_self_s": tracer.self_s["root_system"],
        }
    else:
        set_up(args.workload)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    try:
        ops = workload.prepare(args.seed, workdir)
        if args.trace:
            out = traced(args, workload, ops, reference, tracer, setup_counts)
        else:
            out = untraced(args, workload, ops, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
