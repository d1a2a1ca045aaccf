"""Set-up time of one workload in a fresh process.

The clock starts at ``import weylkit`` and stops when the workload is ready:
its modules imported, its root systems built together with their Weyl
groups.  Interpreter start-up and the benchmark's own input generation are
not included.  Calibration loops just before and just after give the host's
speed (spec.py).  Prints the raw seconds and the seconds rescaled by that
speed, on one line.  Usage: ``python3 probe.py <workload>`` with ``src`` on
``PYTHONPATH``.
"""

import importlib
import statistics
import sys
import time

from spec import CAL_REF_S, SETUP, calibrate

CALIBRATIONS = 5  # before and as many after


def main() -> int:
    modules, systems = SETUP[sys.argv[1]]
    before = [calibrate() for _ in range(CALIBRATIONS)]
    t0 = time.perf_counter()
    for mod in modules:
        importlib.import_module(mod)
    from weylkit.root_system import build

    for label in systems:
        build(label).weyl_group()
    raw = time.perf_counter() - t0
    speed = statistics.median(before + [calibrate() for _ in range(CALIBRATIONS)])
    print(repr(raw), repr(raw * CAL_REF_S / speed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
