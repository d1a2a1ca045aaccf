"""Command-line front end with stable JSON output.

Subcommands: ``rootsys``, ``hull``, ``fold``, ``verify-convexity``, ``tree``
and ``sr``.  Exit codes: 0 when every check passes, 2 for unusable input,
3 when an enumeration cap is exceeded.  The cap can be overridden with the
``WEYLKIT_CAP`` environment variable or ``--cap``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field as dc_field
from itertools import repeat

# only the layers every subcommand runs are imported here; ``tree``, ``sr``
# and ``--svg`` import theirs when they run, so a job compiles no module it
# does not use
from . import model_space as ms
from . import path_model as pm
from .root_system import RootSystem, build
from .scalars import QuadInt, ScalarDomainError, format_scalar, parse_rational, parse_scalar, scalar_to_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3


@dataclass
class Report:
    """A pass/fail record; a failing report always carries a witness."""

    status: str = "pass"
    counts: dict = dc_field(default_factory=dict)
    witnesses: list = dc_field(default_factory=list)
    timings: dict = dc_field(default_factory=dict)

    def fail(self, witness):
        self.status = "fail"
        if len(self.witnesses) < 5:
            self.witnesses.append(witness)

    def to_json(self, include_timings: bool = False) -> dict:
        if self.status == "fail" and not self.witnesses:
            raise AssertionError("failing report without witness")
        out = {
            "status": self.status,
            "counts": self.counts,
            "witnesses": self.witnesses,
        }
        if include_timings:
            out["timings"] = self.timings
        return out


def _cap(args) -> int:
    """``--cap``, else ``WEYLKIT_CAP``, else the default; a cap that is no integer >= 0 is refused.

    :func:`main` calls it once for every subcommand, so each refuses a bad
    cap; ``hull`` and ``verify-convexity`` spend it, the others only check it.
    """
    name, cap = "--cap", getattr(args, "cap", None)
    if cap is None:
        name, cap = "WEYLKIT_CAP", os.environ.get("WEYLKIT_CAP") or ms.DEFAULT_CAP
    try:
        value = int(cap)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {cap!r}")
    return value


def _write_atomic(path: str, data: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".weylkit-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, obj) -> None:
    # every object emitted is a fresh tree of dicts, lists and strings: no cycle to look for
    text = json.dumps(obj, sort_keys=True, indent=2, check_circular=False) + "\n"
    if getattr(args, "output", None):
        _write_atomic(args.output, text)
    else:
        sys.stdout.write(text)


def _point_json(pt) -> list:
    return [format_scalar(c) for c in pt]


def _parse_point(rs: RootSystem, text: str) -> tuple:
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise ValueError(f"empty coordinate in point {text!r}")
    if len(parts) != rs.rank:
        raise ValueError(f"expected {rs.rank} coordinates, got {len(parts)}")
    return tuple(parse_rational(p) for p in parts)


# --------------------------------------------------------------------------
# subcommands


def cmd_rootsys(args) -> int:
    rs = build(args.type)
    obj = {
        "label": rs.label,
        "rank": rs.rank,
        "crystallographic": rs.crystallographic,
        "gram": [[scalar_to_json(c) for c in row] for row in rs.gram],
        "cartan": [[scalar_to_json(c) for c in row] for row in rs.cartan],
        "positive_roots": [[scalar_to_json(c) for c in b] for b in rs.positive_roots],
        "weyl_order": rs.weyl_order,
    }
    _emit(args, obj)
    return EXIT_OK


def cmd_hull(args) -> int:
    rs = build(args.type)
    x = _parse_point(rs, args.point)
    t0 = time.perf_counter()
    points = ms.enumerate_AQ(rs, x, args.cap)
    elapsed = time.perf_counter() - t0
    obj = {
        "query": {"type": rs.label, "point": _point_json(x)},
        "points": [_point_json(p) for p in points],
        "count": len(points),
    }
    if args.timings:
        obj["timings"] = {"enumerate_s": round(elapsed, 6)}
    _emit(args, obj)
    if args.svg:
        from .svg import Scene, emit_svg

        orbit = rs.weyl_orbit(x)
        scene = Scene(
            orbit=list(orbit),
            hull_shade=list(orbit),
            lattice=list(points),
            title=f"hull {rs.label} {args.point}",
        )
        _write_atomic(args.svg, emit_svg(rs, scene))
    return EXIT_OK


def cmd_fold(args) -> int:
    rs = build(args.type)
    x = _parse_point(rs, args.point)
    y = _parse_point(rs, args.target)
    word = None
    if args.w0_word:
        word = tuple(int(k) for k in args.w0_word.split(","))
    ys, mults, path = pm.parkinson_ram_unfold(rs, x, y, word)
    obj = {
        "type": rs.label,
        "point": _point_json(x),
        "target": _point_json(y),
        "w0_word": list(word if word is not None else rs.longest_element().word),
        "descent": [_point_json(p) for p in ys],
        "fold_multiplicities": mults,
        "breakpoints": [[format_scalar(t)] + _point_json(p) for t, p in path.breakpoints()],
        "endpoint": _point_json(path.endpoint()),
    }
    _emit(args, obj)
    if args.svg:
        from .svg import Scene, emit_svg

        orbit = rs.weyl_orbit(x)
        scene = Scene(
            orbit=list(orbit),
            hull_shade=list(orbit),
            path_points=[p for _, p in path.breakpoints()],
            title=f"fold {rs.label} {args.point} -> {args.target}",
        )
        _write_atomic(args.svg, emit_svg(rs, scene))
    return EXIT_OK


def cmd_verify_convexity(args) -> int:
    rs = build(args.type)
    x = _parse_point(rs, args.point)
    cap = args.cap
    report = Report()
    t0 = time.perf_counter()
    # built first: a point that is no special vertex is refused before any enumeration
    gallery = pm.minimal_gallery(rs, x)
    aq = ms.enumerate_AQ(rs, x, cap)
    report.counts["hull_points"] = len(aq)

    def against_hull(check, got) -> dict:
        return {
            "check": check,
            "missing": [_point_json(p) for p in set(aq) - set(got)][:3],
            "extra": [_point_json(p) for p in set(got) - set(aq)][:3],
        }

    w0 = rs.longest_element()
    x_plus = rs.dominant_rep(x)[0]
    _, endpoints = pm.positive_fold_closure(rs, pm.straight_path_to(w0.apply(x_plus)), cap=cap, paths=False)
    report.counts["path_endpoints"] = len(endpoints)
    if endpoints != aq:
        report.fail(against_hull("path closure vs hull", endpoints))
    report.counts["gallery_length"] = len(gallery)
    if len(gallery) <= args.gallery_max_length:
        g_endpoints = pm.folded_gallery_endpoints(rs, gallery, cap=cap)
        report.counts["gallery_endpoints"] = len(g_endpoints)
        if g_endpoints != aq:
            report.fail(against_hull("gallery vs hull", g_endpoints))
    else:
        report.counts["gallery_endpoints"] = "skipped (length above --gallery-max-length)"
    report.timings["total_s"] = round(time.perf_counter() - t0, 6)
    obj = report.to_json(include_timings=args.timings)
    obj["type"] = rs.label
    obj["point"] = _point_json(x)
    obj["endpoints"] = [_point_json(p) for p in endpoints]
    _emit(args, obj)
    return EXIT_OK if report.status == "pass" else 1


def _tree_entries(values: dict) -> tuple:
    """The table's end labels, four per key, and its scalars, one per key.

    The keys are split in one pass over their join, and each distinct value
    string is parsed once, to one object.  A table with a bad key or value is
    read entry by entry, so that the first bad one is named.
    """
    keys, vals = list(values), list(values.values())
    if set(map(str.count, keys, repeat(","))) != {3} or set(map(type, vals)) != {str}:
        for key, val in values.items():
            if key.count(",") != 3:
                raise ValueError(f"bad quadruple key {key!r}")
            if not isinstance(val, str):
                raise ValueError(f"value of {key!r} must be a string, got {val!r}")
            parse_scalar(val)  # an unparseable value before the bad entry is named first
    names = list(map(str.strip, ",".join(keys).split(","))) if keys else []
    parsed = {val: parse_scalar(val) for val in dict.fromkeys(vals)}
    return names, list(map(parsed.__getitem__, vals))


def cmd_tree(args) -> int:
    from . import lambda_tree as lt

    with open(args.input) as fh:
        data = json.load(fh)
    ends = data.get("ends") if isinstance(data, dict) else None
    if not (isinstance(ends, list) and all(isinstance(e, str) for e in ends)):
        raise ValueError("tree input must be a JSON object with an 'ends' list of strings")
    if not isinstance(data.get("values"), dict):
        raise ValueError("tree input needs a 'values' object")
    ends = tuple(ends)
    pv = lt.valuation_from_lists(ends, *_tree_entries(data["values"]))
    # the base labels follow the spacing rule of the keys; a base that names
    # no three distinct ends is refused before the table is checked
    base = lt.checked_base(pv, map(str.strip, args.base.split(",")) if args.base else ends[:3])
    pv_report = lt.check_pv(pv)
    obj = {
        "ends": list(ends),
        "pv_ok": pv_report.ok,
        "violations": [
            {"axiom": a, "where": list(q), "detail": d} for a, q, d in pv_report.violations[:10]
        ],
    }
    if pv_report.ok:
        # pv_report is this job's one exhaustive axiom check; build on it directly
        datum = lt.build_datum(pv, base)
        rt = lt.roundtrip_check(pv, datum)
        obj["rt_ok"] = not lt.datum_axiom_violations(datum)
        obj["roundtrip_ok"] = rt.ok
        if not rt.ok:
            q, want, got = rt.mismatches[0]
            obj["violations"].append(
                {"axiom": "roundtrip", "where": list(q), "detail": f"{want!r} vs {got!r}"}
            )
        obj["rendering"] = lt.render_datum_text(datum).splitlines()
    _emit(args, obj)
    if args.text and "rendering" in obj:
        sys.stdout.write("\n".join(obj["rendering"]) + "\n")
    ok = obj["pv_ok"] and obj.get("rt_ok", False) and obj.get("roundtrip_ok", False)
    return EXIT_OK if ok else 1


def _sr_parse_args(case: str, text: str):
    from . import twisted_algebra as tw

    p = 2 if case in ("B", "F") else 3
    parts = text.split(",")
    want = 2 if p == 2 else 3
    if len(parts) != want:
        raise ValueError(f"case {case} takes {want} comma-separated series")
    return [tw.parse_laurent(s, p) for s in parts]


def cmd_sr_norm(args) -> int:
    from . import twisted_algebra as tw

    vals = _sr_parse_args(args.case, args.args)
    if args.case in ("B", "F"):
        norm = tw.norm_R(*vals)
        closed = tw.nu_R_closed(*vals)
    else:
        norm = tw.norm_N(*vals)
        closed = tw.nu_N_closed(*vals)
    obj = {
        "case": args.case,
        "args": [tw.format_laurent(v) for v in vals],
        "norm": tw.format_laurent(norm),
        "nu": tw.format_nu(norm.nu()),
        "closed_form": tw.format_nu(closed),
        "agree": tw.compare(norm.nu(), closed) == 0,
    }
    _emit(args, obj)
    return EXIT_OK if obj["agree"] else 1


def cmd_sr_check(args) -> int:
    import random

    from . import twisted_algebra as tw

    if args.samples < 0:
        raise ValueError(f"--samples must be an integer >= 0, got {args.samples}")
    rng = random.Random(args.seed)
    p = 2 if args.case in ("B", "F") else 3
    report = Report()
    t0 = time.perf_counter()
    mism = 0
    for _ in range(args.samples):
        if p == 2:
            g = tw.random_K(rng)
            lhs, rhs = tw.phi_K(g), tw.nu_R_closed(g.s, g.t)
        else:
            g = tw.random_T(rng)
            lhs, rhs = tw.phi_T(g), tw.nu_N_closed(g.r, g.s, g.t)
        if tw.compare(lhs, rhs) != 0:
            mism += 1
            report.fail({"identity": "closed form", "element": repr(g)})
        th = g.s.theta()
        if not g.s.is_zero() and tw.compare(th.nu(), g.s.nu().times_sqrt_p()) != 0:
            report.fail({"identity": "theta invariance", "element": repr(g.s)})
    threshold_samples = max(10, args.samples // 10)
    v1 = tw.check_V1(args.case, QuadInt(0, 0, p), samples=threshold_samples, seed=args.seed)
    if not v1.ok:
        report.fail({"identity": "threshold subgroup", "detail": repr(v1.failures[0])})
    report.counts = {"samples": args.samples, "threshold_samples": threshold_samples, "closed_form_mismatches": mism}
    report.timings["total_s"] = round(time.perf_counter() - t0, 6)
    obj = report.to_json(include_timings=args.timings)
    obj["identity"] = "closed-form minimum, theta invariance, threshold subgroup"
    obj["case"] = args.case
    obj["samples"] = args.samples
    obj["failures"] = obj.pop("witnesses")
    _emit(args, obj)
    return EXIT_OK if report.status == "pass" else 1


# --------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="weylkit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write JSON here (atomically) instead of stdout")
        p.add_argument("--cap", type=int, help="enumeration state cap")
        p.add_argument(
            "--timings",
            action="store_true",
            help="include wall-clock timings (breaks byte-for-byte determinism)",
        )

    p = sub.add_parser("rootsys", help="describe a root system")
    p.add_argument("--type", required=True)
    common(p)
    p.set_defaults(func=cmd_rootsys)

    p = sub.add_parser("hull", help="enumerate the orbit hull lattice points")
    p.add_argument("--type", required=True)
    p.add_argument("--point", required=True, help="simple-root coordinates, comma separated")
    p.add_argument("--svg", help="write a rank-2 figure here")
    common(p)
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("fold", help="fold the extreme path onto a hull point")
    p.add_argument("--type", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--w0-word", dest="w0_word", help="reduced word, comma separated indices")
    p.add_argument("--svg")
    common(p)
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("verify-convexity", help="check path and gallery folding against the hull")
    p.add_argument("--type", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--gallery-max-length", type=int, default=14)
    common(p)
    p.set_defaults(func=cmd_verify_convexity)

    p = sub.add_parser("tree", help="check a quadruple table and rebuild its tree")
    p.add_argument("--input", required=True, help="JSON with 'ends' and 'values'")
    p.add_argument("--base", help="base triple, comma separated end labels")
    p.add_argument("--text", action="store_true", help="include a text rendering")
    common(p)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("sr", help="twisted norms and valuation identities")
    srsub = p.add_subparsers(dest="sr_command", required=True)
    pn = srsub.add_parser("norm", help="evaluate a norm and its closed-form valuation")
    pn.add_argument("--case", required=True, choices=["B", "F", "G"])
    pn.add_argument("--args", required=True, help='series literals, e.g. "x^1+x^{2+1r},x^1"')
    common(pn)
    pn.set_defaults(func=cmd_sr_norm)
    pc = srsub.add_parser("check", help="sampled identity report")
    pc.add_argument("--case", required=True, choices=["B", "F", "G"])
    pc.add_argument("--samples", type=int, default=1000)
    pc.add_argument("--seed", type=int, default=0)
    common(pc)
    pc.set_defaults(func=cmd_sr_check)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        args.cap = _cap(args)
        # the cached parser holds the command functions it was built with;
        # look the command up by name so that a later rebinding (a test's
        # monkeypatch, the perfbench tracer's wrapper) takes effect
        return globals()[args.func.__name__](args)
    except ms.CapExceeded as exc:
        print(f"weylkit: enumeration cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    # every layer's error class, and json.JSONDecodeError, subclasses ValueError
    except (ScalarDomainError, ValueError, OSError) as exc:
        print(f"weylkit: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
