"""Shared constants and the speed calibration; importing this module imports no weylkit code."""

import time
from fractions import Fraction

# Every workload process runs with this PYTHONHASHSEED, so set and dict
# orders of strings are the same in every run.
HASH_SEED = "0"

# The seed the CLI workloads draw their input pools from; reference.json
# records the outputs of every op in those pools.
DEFAULT_SEED = 0

# What each workload needs before its first op: the modules it imports and
# the root systems it builds together with their Weyl groups.  set-up time
# is measured from ``import weylkit`` until all of this is done.
SETUP = {
    "convexity": (("weylkit.cli",), ("A2", "B2", "C2", "G2", "A3", "F4")),
    "metric": (("weylkit.model_space",), ("A2", "B2", "G2", "A3", "F4", "I2(5)", "I2(8)")),
    "twisted": (("weylkit.twisted_algebra",), ()),
    "trees": (("weylkit.cli",), ()),
}

WORKLOADS = tuple(SETUP)

# The host this benchmark runs on changes speed by up to 1.6x over seconds
# to minutes, as neighbours load the shared cores.  Every time the benchmark
# reports is therefore rescaled by the host's speed at that moment, measured
# with a fixed stdlib loop (``calibrate``) interleaved with the ops: a time
# t measured while the loop takes c seconds is reported as t * CAL_REF_S / c.
# CAL_REF_S is about the loop's time on the tuning host when unloaded, so
# reported times are close to that host's unloaded wall times.  The raw times are reported too.
CAL_REF_S = 0.001


def calibrate() -> float:
    """Seconds for a fixed loop of Fraction arithmetic and dict stores."""
    t0 = time.perf_counter()
    acc, d = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 7, i)
        d[i % 13] = acc
    return time.perf_counter() - t0

