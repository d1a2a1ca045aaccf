"""Root systems and number fields shared across threads give the results of a serial run.

Each check builds fresh objects, so that the threads race on the first
computation of every lazily derived value, and sets a short switch interval so
that the interpreter switches threads often inside those computations.
"""

import functools
import importlib
import json
import random
import sys
import threading
from fractions import Fraction as Q

import pytest
from test_lambda_tree import bumped_orbit
from test_root_system import typed

from weylkit import cli
from weylkit import lambda_tree as lt
from weylkit import model_space as ms
from weylkit import path_model as pm
from weylkit import root_system
from weylkit.root_system import RootSystem, build, dihedral_cosine_field
from weylkit.scalars import NumberField, QuadInt, format_scalar

THREADS = 8
LABELS = ("A2", "B2", "G2", "A3", "I2(8)")
LAYER_MODULES = ("scalars", "root_system", "model_space", "path_model", "lambda_tree", "twisted_algebra", "cli")
# module-level containers that are not caches of derived data: the build memo
# and two constant tables keyed by label
MODULE_CONTAINERS = {("root_system", "_CACHE"), ("root_system", "_SPHERICAL_ORDER"), ("root_system", "_POSITIVE_COUNT")}


@pytest.fixture
def fast_switching():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def run_threads(job):
    """job(k) run by THREADS threads released together; their results in thread order."""
    barrier = threading.Barrier(THREADS)
    results, errors = [None] * THREADS, []

    def target(k):
        barrier.wait()
        try:
            results[k] = job(k)
        except Exception as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(k,)) for k in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
        assert not t.is_alive(), "a thread did not finish"
    if errors:
        raise errors[0]
    return results


def near_zero_coeffs(field):
    """Coefficients of p - q zeta^k, p / q a close rational value of zeta^k, and of their negatives."""
    lo, hi = field.isolator
    for _ in range(200):
        lo, hi = field.refine_isolator((lo, hi))
    out = []
    for k in range(1, field.degree):
        approx = (((lo + hi) / 2) ** k).limit_denominator(2**40)
        a = [approx.numerator] + [0] * (k - 1) + [-approx.denominator]
        out += [a, [-c for c in a]]
    return out + [[1, -1], [-3, 0, 1], [0, 0, 0, 1]]


def test_sign_enclosures_filled_by_many_threads(fast_switching):
    # a sign decision reads the field's enclosures of the powers of zeta, kept
    # per precision and filled on first use; threads sharing one fresh field
    # must each get the signs of a serial run
    cases = near_zero_coeffs(dihedral_cosine_field(8))
    serial = dihedral_cosine_field(8)
    want = [serial.elem(a).sign() for a in cases]
    assert set(want) == {-1, 1}
    # some signs are left open by the 64-bit enclosures, so wider ones are filled
    assert any(lo <= 0 <= hi for lo, hi in (serial.bracket(a, 64) for a in cases))
    assert len(serial._enclosures) > 1
    # the first test reads the 64-bit enclosures in midpoint-radius form: a
    # cached_property, built on first use and published by one assignment
    assert isinstance(vars(NumberField)["_midpoint_radius"], functools.cached_property)
    for _ in range(6):
        field = dihedral_cosine_field(8)  # quartic: 2 cos(pi/8)
        assert field.degree == 4 and "_midpoint_radius" not in vars(field)
        assert run_threads(lambda k: [field.elem(a).sign() for a in cases]) == [want] * THREADS
        assert vars(field)["_midpoint_radius"] == serial._midpoint_radius


def points(rs, n=4):
    rng = random.Random(rs.label)
    return [tuple(Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rs.rank)) for _ in range(n)]


def jobs(rs):
    """Named computations on rs; each result is a plain value to compare."""
    xs = points(rs)
    out = {
        "group": lambda: [(w.word, typed(w.matrix)) for w in rs.weyl_group()],
        "w0": lambda: (rs.longest_element().word, typed(rs.longest_element().matrix)),
        "distance": lambda: [typed(ms.distance(rs, x, y)) for x in xs for y in xs],
        # each root's co-root is kept on first use, by one dict assignment
        "pairing": lambda: [typed(rs.pairing(x, a)) for x in xs for a in rs.positive_roots],
        "via coords": lambda: [typed(ms.distance_origin_via_coords(rs, x)) for x in xs],
        "round trip": lambda: [
            typed(ms.point_from_hyperplane_coords(rs, ms.hyperplane_coords(rs, x))) for x in xs
        ],
        # Weyl images: field coordinates for I2(n), so the field's tables are read
        "images": lambda: [
            typed(ms.distance_origin_via_coords(rs, w.apply(x))) for w in rs.weyl_group()[:6] for x in xs
        ],
    }
    if rs.crystallographic:
        vertex = tuple(Q(c) for c in rs.interior_dominant_f())
        out["hull"] = lambda: ms.enumerate_AQ(rs, vertex)
        out["galleries"] = lambda: pm.folded_gallery_endpoints(rs, pm.minimal_gallery(rs, vertex))
        # the level maps, the integer Cartan matrix and the level walls are built on first use
        out["closure"] = lambda: pm.positive_fold_closure(rs, pm.straight_path_to(rs.longest_element().apply(vertex)))
    return out


def run_jobs(rs, first=0):
    """Every job of rs, starting from the job at index ``first``, keyed by name."""
    named = list(jobs(rs).items())
    named = named[first % len(named) :] + named[: first % len(named)]
    return {name: job() for name, job in named}


@pytest.mark.parametrize("label", LABELS)
def test_shared_root_system_matches_a_serial_run(label, fast_switching):
    want = run_jobs(RootSystem(label))
    rs = RootSystem(label)  # fresh: every derived value and, for I2(n), a fresh field
    # each thread starts on another job, so each derived value is first asked
    # for by several threads from several call sites
    assert run_threads(lambda k: run_jobs(rs, k)) == [want] * THREADS


def test_cli_jobs_in_threads_match_a_serial_run(tmp_path, fast_switching):
    # each thread runs hull, fold and tree jobs through main, every job
    # writing to its own --output file
    pv = lt.tree_generator(5, 6, "Z")[1]
    table = tmp_path / "table.json"
    values = {",".join(q): format_scalar(v) for q, v in pv.table.items()}
    table.write_text(json.dumps({"ends": list(pv.ends), "values": values}))
    argvs = [
        ["hull", "--type", "B2", "--point", "3,4"],
        ["hull", "--type", "G2", "--point", "2,1"],
        ["fold", "--type", "A2", "--point", "3,3", "--target", "1,-1"],
        ["fold", "--type", "C2", "--point", "2,2", "--target", "0,1"],
        ["tree", "--input", str(table)],
    ]

    def run(name):
        out = []
        for i, argv in enumerate(argvs):
            path = tmp_path / f"{name}-{i}.json"
            code = cli.main(argv + ["--output", str(path)])
            out.append((code, path.read_bytes()))
        return out

    want = run("serial")
    assert all(code == 0 for code, _ in want)
    assert run_threads(lambda k: run(f"thread{k}")) == [want] * THREADS


def test_shared_valuations_match_a_serial_run(fast_switching):
    # one valuation carries the codes its completion made; a hand-built one
    # computes them on first use, which the threads race on
    def valuations():
        z = lt.tree_generator(11, 7, "Z")[1]
        lexpv = lt.tree_generator(12, 6, "Z2lex")[1]
        # one orbit moved, so that the reports hold violations
        bumped = bumped_orbit(lexpv.table, sorted(lexpv.table)[len(lexpv.table) // 3])
        return [
            lt.valuation_from_entries(z.ends, dict(z.table)),
            lt.ProjectiveValuation(lexpv.ends, dict(lexpv.table)),
            lt.ProjectiveValuation(lexpv.ends, bumped),
        ]

    def job(pvs, k=0):
        out = []
        for pv in pvs[k % len(pvs) :] + pvs[: k % len(pvs)]:
            datum = lt.build_datum(pv, pv.ends[-3:])
            out.append((pv.ends, lt.check_pv(pv), repr(datum._wedge), lt.roundtrip_check(pv, datum)))
        return sorted(out, key=repr)

    want = job(valuations())
    assert [report.ok for _, report, _, _ in want].count(False) == 1
    for _ in range(3):
        pvs = valuations()
        assert "codes" not in vars(pvs[1]) and "codes" not in vars(pvs[2])
        assert run_threads(lambda k: job(pvs, k)) == [want] * THREADS


def test_table_of_a_cli_read_valuation_derived_by_many_threads(fast_switching):
    # a valuation the CLI read holds its view and no table; threads that read its
    # table and its values for the first time, all at once, get the serial table
    pv = lt.tree_generator(13, 8, "Z2lex")[1]
    values = {",".join(q): format_scalar(v) for q, v in pv.table.items()}
    quads = list(pv.table)[::97]
    want = (list(pv.table.items()), [pv.table[q] for q in quads])

    def job(shared, k):
        if k % 2:  # value() first, then the table
            got = [shared.value(*q) for q in quads]
            return list(shared.table.items()), got
        table = list(shared.table.items())
        return table, [shared.value(*q) for q in quads]

    for _ in range(3):
        shared = lt.valuation_from_lists(pv.ends, *cli._tree_entries(values))
        assert "table" not in vars(shared)
        assert run_threads(lambda k: job(shared, k)) == [want] * THREADS


@pytest.mark.parametrize("n", [4, 5, 7, 8])
def test_one_layout_built_by_many_threads(n, fast_switching):
    # a tree job reads its table through the layout of its number of ends, built
    # on first use; threads that all ask for one n's layout at once, sharing
    # fresh valuations, get the serial reports
    lam = ("Z", "Z2lex")[n % 2]

    def valuations():
        pv = lt.tree_generator(n, n, lam)[1]
        out = [pv, lt.ProjectiveValuation(pv.ends, bumped_orbit(pv.table, sorted(pv.table)[len(pv.table) // 2]))]
        if lam == "Z":  # the view of the values
            out.append(lt.ProjectiveValuation(pv.ends, {q: QuadInt(int(v), int(v), 2) for q, v in pv.table.items()}))
        return out

    def job(pvs):
        out = []
        for pv in pvs:
            datum = lt.build_datum(pv, pv.ends[:3])
            out.append((lt.check_pv(pv), lt.roundtrip_check(pv, datum), lt.datum_axiom_violations(datum)))
        return out

    want = job(valuations())
    assert want[0][0].ok and not want[1][0].ok
    for _ in range(3):
        pvs = valuations()
        lt._layout.cache_clear()
        assert run_threads(lambda k: job(pvs)) == [want] * THREADS


@pytest.mark.parametrize("n", [5, 8])
def test_one_rejected_valuation_checked_while_its_layout_is_built(n, fast_switching):
    # threads that share one valuation read from entries, with one orbit moved, and all
    # build its n's layout at once get the serial report: the half-orbit heads, the
    # blocks d < e and the listing of the failed blocks all come from that layout
    pv = lt.tree_generator(n + 20, n, ("Z", "Z2lex")[n % 2])[1]
    table = bumped_orbit(pv.table, sorted(pv.table)[len(pv.table) // 4])
    want = lt.check_pv(lt.valuation_from_entries(pv.ends, table))
    assert not want.ok
    for _ in range(3):
        shared = lt.valuation_from_entries(pv.ends, table)
        lt._layout.cache_clear()
        assert run_threads(lambda k: lt.check_pv(shared)) == [want] * THREADS


def test_build_hands_every_thread_one_system(fast_switching):
    # two I2(n) systems of one label have two fields, whose elements do not mix
    root_system._CACHE.pop("I2(7)", None)
    systems = run_threads(lambda k: build("I2(7)"))
    assert all(rs is systems[0] for rs in systems)


def test_no_module_level_caches():
    # derived data lives on the RootSystem that owns it; a module-level dict,
    # list or set would be shared by every thread and keyed by label
    found = {
        (name, attr)
        for name in LAYER_MODULES
        for attr, value in vars(importlib.import_module(f"weylkit.{name}")).items()
        if isinstance(value, (dict, list, set)) and not attr.startswith("__")
    }
    assert found <= MODULE_CONTAINERS, found - MODULE_CONTAINERS
