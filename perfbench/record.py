"""Write reference.json: the recorded outputs the CLI ops are checked against.

Usage (from the root of a checkout)::

    python3 perfbench/record.py

The CLI workloads (``convexity`` and ``trees``) draw every op from fixed
pools.  For every pool op that passes its own checks, this records a digest
of its stdout bytes, keyed by its argv (input files named by content).  A
failing op gets no digest and is reported here; in a run it then fails for
want of a digest.  It also records the hull size of every dominant point in
the convexity pools; outside F4 each size is confirmed by
``verify-convexity``, whose path-closure and gallery counts must agree.

Run it again only when a change is meant to alter CLI output bytes or the
pools.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from spec import HASH_SEED

HERE = Path(__file__).resolve().parent


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    from worker import set_up

    digests: dict = {}
    out_dir = HERE.parent / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    hull_counts: dict = {}
    for name in ("convexity", "trees"):
        set_up(name)
        workload = workloads.WORKLOADS[name]()
        workdir = tempfile.mkdtemp(dir=out_dir)
        try:
            ops = workload.pool_ops(workdir)
            if name == "convexity":
                hull_counts = confirmed_hull_counts(workload, ops)
            reference = {"hull_counts": hull_counts, "digests": {}}
            failed = 0
            for op in ops:
                result = workload.run(op)
                reason = workload.check(replace(op, key=None), result, reference)  # semantic checks only
                if reason is None:
                    digests[op.key] = workloads.digest(result[1].encode())
                else:
                    failed += 1
                    print(f"no digest for {' '.join(op.args)}: {reason}", file=sys.stderr)
            print(f"{name}: {len(ops)} pool ops, {failed} failed their checks", file=sys.stderr)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    data = {
        "hull_counts": dict(sorted(hull_counts.items())),
        "digests": dict(sorted(digests.items())),
    }
    with open(HERE / "reference.json", "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def confirmed_hull_counts(workload, ops) -> dict:
    """Hull sizes of the pool points, each one confirmed as far as it can be."""
    import workloads

    counts = {}
    points = {(op.args[2], op.expect[0]) for op in ops if op.kind in ("verify", "hull")}
    for label, xs in sorted(points):
        if label == "F4":
            op = workloads.cli_op("hull", ["hull", "--type", label, f"--point={xs}"], (xs, xs))
            code, text = workload.run(op)
            counts[f"{label}:{xs}"] = json.loads(text)["count"]
            continue
        op = workload.verify_op(label, xs, xs)
        result = workload.run(op)
        reason = workload.check(replace(op, key=None), result, {"hull_counts": {}})
        if reason is not None:
            print(f"no hull count for {label} {xs}: {reason}", file=sys.stderr)
            continue
        counts[f"{label}:{xs}"] = json.loads(result[1])["counts"]["hull_points"]
    return counts


if __name__ == "__main__":
    sys.exit(main())
