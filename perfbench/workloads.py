"""The four workloads: seeded op sequences, the ops and their output checks.

Every input is drawn through ``random.Random`` before timing starts; the
program only ever sees the generated inputs.  A workload's ``prepare`` gives
one pass: a seeded op list that a run replays until its time is up.  Each
pass holds the same number of ops of each op class, and the seed picks the
inputs inside each class, so every seed measures the same mix.  The CLI
workloads draw their inputs from ``DEFAULT_SEED`` instead (the seed picks
convexity's fold targets and orders both passes), so that every CLI op's
output can be checked against a recorded digest.

Ops call weylkit through module attributes (``ms.distance``, ``cli.main``)
so that the traced run sees every call through its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from spec import DEFAULT_SEED
from weylkit import cli
from weylkit import lambda_tree as lt
from weylkit import model_space as ms
from weylkit import root_system as rsys
from weylkit import scalars as sc
from weylkit import twisted_algebra as tw

GALLERY_MAX = 12  # gallery enumeration is on for walks of length <= 12


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple  # the input: a CLI argv, or the arguments of a library op
    expect: tuple = ()  # what the output checks need to know about the input
    key: str | None = None  # reference-digest key, for CLI ops


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


def run_cli(argv) -> tuple[int, str]:
    """One in-process CLI job; stdout is captured in memory, not written to disk."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_op(kind: str, argv: list, expect: tuple = (), key_argv: list | None = None) -> Op:
    """A CLI job; its digest key is the argv, with input files named by content."""
    key = digest(json.dumps(key_argv or argv).encode())
    return Op(kind, tuple(argv), expect, key)


def _fmt_point(x) -> str:
    return ",".join(str(Fraction(c)) for c in x)


def _parse_point(text: str) -> tuple:
    return tuple(Fraction(c) for c in text.split(","))


class Workload:
    """A workload's pass: the seeded op list a run replays until its time is up."""

    name = ""
    trace_ops = 50  # ops of the pass the traced run replays

    def prepare(self, seed: int, workdir: str) -> list[Op]:
        """The pass for ``seed``; input files go under ``workdir``."""
        raise NotImplementedError

    def run(self, op: Op):
        """The timed part of an op."""
        raise NotImplementedError

    def check(self, op: Op, result, reference: dict) -> str | None:
        """None when the op's output is right, else the reason it is not."""
        return result

    def cli_check(self, op: Op, result, reference: dict, semantic) -> str | None:
        """Semantic checks, then, for an op with a key, its recorded output digest."""
        code, text = result
        try:
            obj = json.loads(text)
        except ValueError:
            return f"exit {code}, output is not JSON"
        reason = semantic(op, code, obj, reference)
        if reason is not None or op.key is None:
            return reason
        want = reference["digests"].get(op.key)
        if want is None:
            return "no recorded reference digest (re-run perfbench/record.py)"
        if digest(text.encode()) != want:
            return "output bytes differ from the reference"
        return None


# --------------------------------------------------------------------------
# convexity: verify-convexity, hull and fold through the CLI


VERIFY_POOL = {
    "A2": ("1,1", "1,2", "2,1", "2,2", "2,3", "3,2", "3,3", "3,4", "4,3"),
    "B2": ("1,2", "2,2", "2,3", "3,3", "3,4", "4,4"),
    "C2": ("1,1", "2,1", "2,2", "3,2"),
    "G2": ("2,1", "3,2", "4,2"),
    "A3": ("1,1,1", "1,2,1", "2,2,1"),
}
# (system, dominant point, n): every pass runs hull on the same n Weyl
# images of the point: images differ in cost, so a seeded pick among them
# moved a pass's cost (and throughput) with the seed
HULL_MIX = (
    ("A2", "4,4", 4),
    ("A2", "5,5", 4),
    ("B2", "4,5", 4),
    ("C2", "4,3", 4),
    ("G2", "5,3", 2),
    ("A3", "2,3,2", 1),
    ("F4", "1,2,3,2", 1),
)
# fold jobs per pass fold each point onto FOLD_PER_PASS of its FOLD_TARGETS hull points
FOLD_POOL = (("A2", "3,3"), ("B2", "3,4"), ("C2", "2,2"), ("G2", "3,2"), ("A3", "1,2,1"))
FOLD_TARGETS = 16
FOLD_PER_PASS = 11
# non-dominant orbit representatives: the known verify-convexity defect
PROBE_POOL = (("A2", "3,2"), ("A2", "2,2"), ("B2", "2,2"), ("B2", "3,3"), ("C2", "1,1"), ("G2", "2,1"))


def _w0(label: str, x: tuple) -> tuple:
    """w0.x: minus the diagram flip for A_n, minus the identity otherwise."""
    return tuple(-c for c in (reversed(x) if label.startswith("A") else x))


class Convexity(Workload):
    """Every verify point and hull image once per pass, plus fold jobs the seed picks from a fixed pool."""

    name = "convexity"

    def pools(self):
        """Hull and fold jobs, drawn from DEFAULT_SEED so that every one has a recorded digest."""
        rng = random.Random(DEFAULT_SEED)
        hulls = {}
        for label, xs, n in HULL_MIX:
            group = rsys.build(label).weyl_group()
            images = [_fmt_point(group[rng.randrange(len(group))].apply(_parse_point(xs))) for _ in range(n)]
            hulls[(label, xs)] = [cli_op("hull", ["hull", "--type", label, f"--point={pt}"], (xs, pt)) for pt in images]
        folds = {}
        for label, xs in FOLD_POOL:
            targets = [_fmt_point(p) for p in ms.enumerate_AQ(rsys.build(label), _parse_point(xs))]
            folds[(label, xs)] = [
                cli_op("fold", ["fold", "--type", label, f"--point={xs}", f"--target={y}"], (xs, y))
                for y in rng.sample(targets, FOLD_TARGETS)
            ]
        return hulls, folds

    def pool_ops(self, workdir):
        hulls, folds = self.pools()
        verify = [self.verify_op(label, xs, xs) for label, pts in VERIFY_POOL.items() for xs in pts]
        return verify + [op for ops in (*hulls.values(), *folds.values()) for op in ops]

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        hulls, folds = self.pools()
        self.probe_ops = [self._probe(rng, label, xs) for label, xs in PROBE_POOL]
        ops = [self.verify_op(label, xs, xs) for label, pts in VERIFY_POOL.items() for xs in pts]
        for hull_ops in hulls.values():
            ops += hull_ops
        for key in FOLD_POOL:
            ops += rng.sample(folds[key], FOLD_PER_PASS)
        rng.shuffle(ops)
        return ops

    def verify_op(self, label, pt, dominant):
        argv = ["verify-convexity", "--type", label, f"--point={pt}", f"--gallery-max-length={GALLERY_MAX}"]
        return cli_op("verify", argv, (dominant,))

    def _probe(self, rng, label, xs):
        """A non-dominant image of xs; checked for the counts only, since it is known to fail."""
        rs = rsys.build(label)
        group = rs.weyl_group()
        while True:
            img = group[rng.randrange(len(group))].apply(_parse_point(xs))
            if not rs.is_dominant(img):
                return replace(self.verify_op(label, _fmt_point(img), xs), key=None)

    def run(self, op):
        return run_cli(op.args)

    def check(self, op, result, reference):
        return self.cli_check(op, result, reference, self._semantic)

    @staticmethod
    def _semantic(op, code, obj, reference):
        label = op.args[2]
        reference_hull = reference.get("hull_counts", {}).get(f"{label}:{op.expect[0]}")
        if op.kind == "verify":
            if code != 0 or obj.get("status") != "pass":
                return f"verify-convexity exit {code}, status {obj.get('status')}, counts {obj.get('counts')}"
            c = obj["counts"]
            if not (c["hull_points"] == c["path_endpoints"] == len(obj["endpoints"])):
                return f"hull and path-closure counts differ: {c}"
            if c["gallery_length"] <= GALLERY_MAX and c["gallery_endpoints"] != c["hull_points"]:
                return f"hull and gallery-endpoint counts differ: {c}"
            if c["gallery_length"] > GALLERY_MAX and isinstance(c["gallery_endpoints"], int):
                return "gallery enumeration ran above --gallery-max-length"
            if reference_hull is not None and c["hull_points"] != reference_hull:
                return f"hull count {c['hull_points']} != reference {reference_hull}"
            return None
        if op.kind == "hull":
            if code != 0:
                return f"hull exit {code}"
            if obj["count"] != len(obj["points"]) or len({tuple(p) for p in obj["points"]}) != obj["count"]:
                return "hull count does not match its point list"
            if ",".join(obj["query"]["point"]) != op.expect[1]:
                return "hull query echoes the wrong point"
            if reference_hull is not None and obj["count"] != reference_hull:
                return f"hull count {obj['count']} != reference {reference_hull}"
            return None
        # fold
        if code != 0:
            return f"fold exit {code}"
        target = op.expect[1].split(",")
        want_end = [str(c) for c in _w0(label, _parse_point(op.expect[0]))]
        if obj["endpoint"] != target or obj["descent"][0] != target:
            return "folded path misses its target"
        if obj["descent"][-1] != want_end:
            return "descent does not end at w0.x"
        return None


# --------------------------------------------------------------------------
# metric: criterion-6 samples through the library


# (system, coefficient group, ops per round).  The I2(8) samples, whose
# number-field signs make them the costliest, are the top 20% of ops, so
# p90 falls inside their block rather than between two op classes.
METRIC_MIX = (
    ("A2", "Q", 2),
    ("A2", "lex", 2),
    ("B2", "Q", 2),
    ("B2", "lex", 2),
    ("G2", "Q", 2),
    ("G2", "lex", 2),
    ("A3", "Q", 2),
    ("A3", "lex", 2),
    ("F4", "Q", 1),
    ("F4", "lex", 1),
    ("I2(5)", "Q", 1),
    ("I2(5)", "lex", 1),
    ("I2(8)", "Q", 2),
    ("I2(8)", "lex", 3),
)


class Metric(Workload):
    name = "metric"
    rounds = 40  # rounds of METRIC_MIX per pass
    trace_ops = 500

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        ops = []
        for _ in range(self.rounds):
            block = []
            for label, lam, n in METRIC_MIX:
                rs = rsys.build(label)
                order = rs.weyl_order
                for _ in range(n):
                    x, y, z, t = (self._point(rng, rs.rank, lam) for _ in range(4))
                    block.append(Op("metric", (label, x, y, z, rng.randrange(order), t)))
            rng.shuffle(block)
            ops += block
        return ops

    @staticmethod
    def _point(rng, rank, lam):
        if lam == "Q":
            return tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(rank))
        return tuple(sc.lex(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rank))

    def run(self, op):
        label, x, y, z, wi, t = op.args
        rs = rsys.build(label)
        d = ms.distance
        dxy = d(rs, x, y)
        if sc.compare(dxy, d(rs, y, x)) != 0:
            return "symmetry"
        s = sc.sign(dxy)
        if s < 0 or (s == 0) != (x == y):
            return "positivity"
        if sc.compare(d(rs, x, z) + d(rs, z, y), dxy) < 0:
            return "triangle inequality"
        w = rs.weyl_group()[wi]
        wx = tuple(a + b for a, b in zip(w.apply(x), t))
        wy = tuple(a + b for a, b in zip(w.apply(y), t))
        if sc.compare(d(rs, wx, wy), dxy) != 0:
            return "invariance under a Weyl element and a translation"
        origin = tuple(sc.zero_like(c) for c in x)
        if sc.compare(ms.distance_origin_via_coords(rs, x), d(rs, origin, x)) != 0:
            return "distance != distance_origin_via_coords"
        return None


# --------------------------------------------------------------------------
# twisted: criterion-10/11 samples through the library


def _rand_terms(rng, p, n):
    return tuple((rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, p - 1)) for _ in range(n))


def _qmul(a, b, c, d, p):
    """(a + b sqrt p)(c + d sqrt p) as an integer pair."""
    return a * c + p * b * d, a * d + b * c


# Per round and case: the number of terms of each component of the random
# elements, plus how many engineered-tie elements.  Cost grows steeply with
# the term counts, so every round holds the same shapes: the (2, 2) block
# holds p50 and the case-G block, ~10x costlier, is the tail that holds p90.
_P2_SHAPES = ((2, 0), (1, 1), (0, 2), (2, 2), (2, 2), (2, 2), (2, 2), (3, 3))
TWISTED_MIX = (
    ("B", _P2_SHAPES, 1),
    ("F", _P2_SHAPES, 1),
    ("G", ((1, 2, 2),) * 3, 1),
)


class Twisted(Workload):
    name = "twisted"
    rounds = 60  # rounds of TWISTED_MIX per pass
    trace_ops = 1000

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        ops = []
        for _ in range(self.rounds):
            block = []
            for case, shapes, n_tie in TWISTED_MIX:
                p = 2 if case in "BF" else 3
                for shape in shapes + (None,) * n_tie:
                    g = self._tie(rng, p) if shape is None else tuple(_rand_terms(rng, p, n) for n in shape)
                    h = tuple(_rand_terms(rng, p, n) for n in (shape or (1,) * len(g)))
                    block.append(Op("twisted", (case, p, g, h)))
            rng.shuffle(block)
            ops += block
        return ops

    @staticmethod
    def _tie(rng, p):
        """Components whose closed-form terms tie, as in criterion 10."""
        if p == 2:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            return (((*_qmul(a, b, 1, 1, 2), 1),), ((a, b, 1),))
        a, b = rng.randint(-1, 1), rng.randint(-1, 1)
        return (
            ((a, b, rng.randint(1, 2)),),
            ((*_qmul(a, b, 1, 1, 3), rng.randint(1, 2)),),
            ((*_qmul(a, b, 2, 1, 3), rng.randint(1, 2)),),
        )

    @staticmethod
    def _laurent(p, terms):
        return tw.laurent(p, {sc.QuadInt(a, b, p): c for a, b, c in terms})

    def run(self, op):
        _, p, g_spec, h_spec = op.args
        g_parts = [self._laurent(p, t) for t in g_spec]
        h_parts = [self._laurent(p, t) for t in h_spec]
        if p == 2:
            g, h = tw.GroupKElem(*g_parts), tw.GroupKElem(*h_parts)
            phi, mul = tw.phi_K, tw.mul_K
            closed = tw.nu_R_closed(*g_parts)
            norm = tw.norm_R(*g_parts)
        else:
            g, h = tw.GroupTElem(*g_parts), tw.GroupTElem(*h_parts)
            phi, mul = tw.phi_T, tw.mul_T
            closed = tw.nu_N_closed(*g_parts)
            norm = tw.norm_N(*g_parts)
        compare = sc.compare
        pg, ph = phi(g), phi(h)
        if compare(pg, closed) != 0:
            return "valuation != closed-form minimum"
        floor = pg if compare(pg, ph) <= 0 else ph
        if compare(phi(mul(g, h)), floor) < 0:
            return "product inequality"
        for x in g_parts:
            if not x.is_zero() and compare(tw.theta(x).nu(), x.nu().times_sqrt_p()) != 0:
                return "theta scaling"
        if any(not x.is_zero() for x in g_parts) and norm.is_zero():
            return "anisotropy: a nonzero element has norm zero"
        return None


# --------------------------------------------------------------------------
# trees: `weylkit tree --input` on tables written during set-up


# (ends, coefficient group, valid jobs per pass).  Z2lex tables stop at
# 8 ends: a 9-end Z2lex job alone takes ~1 s, a sixth of a pass, and its
# cost moves ~20% with the tree's shape.  Cost grows steeply with the ends,
# so the small tables are the many and the 7- and 8-end ones the tail.
TREE_MIX = (
    (4, "Z", 14),
    (4, "Z2lex", 12),
    (5, "Z", 12),
    (5, "Z2lex", 8),
    (6, "Z", 8),
    (6, "Z2lex", 8),
    (7, "Z", 6),
    (7, "Z2lex", 4),
    (8, "Z", 4),
    (8, "Z2lex", 2),
    (9, "Z", 2),
)
# (ends, coefficient group, perturbed jobs per pass): tables that must be rejected
PERTURBED = ((5, "Z", 5), (6, "Z2lex", 5), (7, "Z", 5), (8, "Z2lex", 5))
STYLES = ("full", "orbit")  # every quadruple, or one representative per symmetry orbit


def _fmt_value(v) -> str:
    if isinstance(v, sc.LexPair):
        return f"({_fmt_value(v.hi)};{_fmt_value(v.lo)})"
    return str(Fraction(v))


def _pv1_orbit(q):
    a, b, c, d = q
    return ((a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a)), (
        (a, b, d, c),
        (b, a, c, d),
        (d, c, a, b),
        (c, d, b, a),
    )


class Trees(Workload):
    """The same jobs in every pass, in an order the seed picks.

    A class's tables differ in cost, and at two to eight jobs per class a
    seeded pick among them spread p50 and p90 by 10-12% over ten seeds
    (quartile distance over median).
    """

    name = "trees"

    def prepare(self, seed, workdir):
        """Job j of a class of k runs its table j // 2 in style j % 2; tables come from DEFAULT_SEED."""
        rng = random.Random(DEFAULT_SEED)
        self.workdir, self.files = workdir, {}
        ops = []
        for mix, perturbed in ((TREE_MIX, False), (PERTURBED, True)):
            for n, lam, k in mix:
                tables = [lt.tree_generator(rng.randrange(2**31), n, lam)[1] for _ in range((k + 1) // 2)]
                quads = [rng.choice(sorted(pv.table)) if perturbed else None for pv in tables]
                ops += [self._op(tables[j // 2], STYLES[j % 2], quads[j // 2]) for j in range(k)]
        random.Random(seed).shuffle(ops)
        return ops

    def pool_ops(self, workdir):
        return self.prepare(DEFAULT_SEED, workdir)

    def _op(self, pv, style, perturb):
        table = dict(pv.table)
        if perturb is not None:
            v = table[perturb]
            bumped = sc.LexPair(v.hi, v.lo + 1) if isinstance(v, sc.LexPair) else v + 1
            plus, minus = _pv1_orbit(perturb)
            for q in plus:
                table[q] = bumped
            for q in minus:
                table[q] = -bumped
        if style == "orbit":
            values, covered = {}, set()
            for q in itertools.permutations(pv.ends, 4):
                if q not in covered:
                    values[q] = table[q]
                    plus, minus = _pv1_orbit(q)
                    covered.update(plus + minus)
        else:
            values = table
        text = json.dumps(
            {"ends": list(pv.ends), "values": {",".join(q): _fmt_value(v) for q, v in sorted(values.items())}},
            sort_keys=True,
        )
        content = digest(text.encode())
        path = self.files.get(content)
        if path is None:
            path = self.files[content] = os.path.join(self.workdir, f"table-{len(self.files)}.json")
            with open(path, "w") as fh:
                fh.write(text)
        expect = (perturb is not None, tuple(pv.ends))
        return cli_op("tree", ["tree", "--input", path], expect, ["tree", "--input", f"sha256:{content}"])

    def run(self, op):
        return run_cli(op.args)

    def check(self, op, result, reference):
        return self.cli_check(op, result, reference, self._semantic)

    @staticmethod
    def _semantic(op, code, obj, reference):
        perturbed, ends = op.expect[0], list(op.expect[1])
        if obj.get("ends") != ends:
            return "tree output lists the wrong ends"
        if perturbed:
            if code != 1 or obj.get("pv_ok") is not False or not obj.get("violations"):
                return f"perturbed table not rejected: exit {code}, pv_ok {obj.get('pv_ok')}"
            if "rt_ok" in obj:
                return "rejected table was rebuilt anyway"
            return None
        if code != 0 or not (obj.get("pv_ok") and obj.get("rt_ok") and obj.get("roundtrip_ok")):
            return f"valid table failed: exit {code}, violations {obj.get('violations', [])[:2]}"
        if obj["violations"]:
            return "valid table reports violations"
        return None


WORKLOADS = {w.name: w for w in (Convexity, Metric, Twisted, Trees)}
