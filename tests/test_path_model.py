"""Root operators, positive folds, the descent algorithm and alcove walks."""

import dataclasses
import itertools
import math
import random
from collections import deque
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit import model_space as ms
from weylkit import path_model as pm
from weylkit.root_system import RootSystem, build
from weylkit.scalars import ScalarDomainError, lex


def random_lattice_path(rs, rng, max_steps=5):
    """A non-trivial PL path with breakpoints in the co-root lattice."""
    coroots = [tuple(Q(c) for c in rs.coroot_of(a)) for a in rs.simple_roots]
    while True:
        steps = []
        for _ in range(rng.randint(1, max_steps)):
            v = rs.zero_point()
            for cr in coroots:
                k = rng.randint(-2, 2)
                v = tuple(a + k * b for a, b in zip(v, cr))
            steps.append(v)
        path = pm.path_from_steps(steps)
        if path.steps:
            return path


# --------------------------------------------------------------------------
# the Fraction implementations that the level-coordinate kernels replaced,
# kept here as references: simple-root steps, heights by root_level,
# reflections by LinearForms and affine reflections by co-roots


def ref_is_positive_multiple(v, w):
    piv = next((j for j, c in enumerate(v) if c != 0), None)
    if piv is None or w[piv] == 0 or (w[piv] > 0) != (v[piv] > 0):
        return False
    return all(wj * v[piv] == vj * w[piv] for vj, wj in zip(v, w))


def ref_canonical_steps(steps):
    out = []
    for v in steps:
        if all(c == 0 for c in v):
            continue
        if out and ref_is_positive_multiple(out[-1], v):
            out[-1] = tuple(a + b for a, b in zip(out[-1], v))
        else:
            out.append(v)
    return tuple(out)


def ref_split_step(v, f):
    return tuple(c * f for c in v), tuple(c * (1 - f) for c in v)


def ref_root_operator_e(rs, path, i):
    """The raising operator on Fraction steps, as it was before the level kernels."""
    alpha = rs.simple_roots[i]
    steps = list(path.steps)
    if not steps:
        return None
    incs = [rs.root_level(v, alpha) for v in steps]
    heights = [Q(0)]
    for d in incs:
        heights.append(heights[-1] + d)
    n = min(heights)
    if n > -1:
        return None
    idx1 = heights.index(n)
    # first strict undershoot of n + 1 along the prefix
    s = 0
    while heights[s + 1] >= n + 1:
        s += 1
    if heights[s] == n + 1:
        prefix = steps[:s]
        middle = deque(steps[s:idx1])
    else:
        f = (heights[s] - (n + 1)) / (heights[s] - heights[s + 1])
        head, tail = ref_split_step(steps[s], f)
        prefix = steps[:s] + [head]
        middle = deque([tail] + steps[s + 1 : idx1])
    suffix = steps[idx1:]

    out = []
    while middle:
        v = middle.popleft()
        inc = rs.root_level(v, alpha)
        if inc < 0:
            out.append(rs.simple_reflection(i).apply(v))
        elif inc == 0:
            out.append(v)
        else:
            # an excursion above the running minimum: keep it, up to its return
            acc = inc
            out.append(v)
            while acc > 0:
                w = middle.popleft()
                winc = rs.root_level(w, alpha)
                if acc + winc >= 0:
                    out.append(w)
                    acc += winc
                else:
                    f = acc / (-winc)
                    head, tail = ref_split_step(w, f)
                    out.append(head)
                    middle.appendleft(tail)
                    acc = Q(0)
    return pm.PLPath(ref_canonical_steps(prefix + out + suffix), path.rank)


def ref_closure(rs, path):
    seen = {path}
    queue = deque([path])
    while queue:
        cur = queue.popleft()
        for i in range(rs.rank):
            nxt = ref_root_operator_e(rs, cur, i)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    paths = tuple(sorted(seen, key=lambda p: p.steps))
    return paths, tuple(sorted({p.endpoint() for p in paths}))


def ref_unfold(rs, x, y):
    ys, mults = pm.parkinson_ram_chain(rs, x, y)
    pi = pm.straight_path_to(ys[-1])
    for i_k, m_k in zip(reversed(rs.longest_element().word), reversed(mults)):
        for _ in range(m_k):
            pi = ref_root_operator_e(rs, pi, i_k)
    return ys, mults, pi


def ref_galleries(rs, minimal):
    """(start word, fold mask, weight) of every positively folded walk, in the kernel's order."""
    theta = rs.highest_root()
    walls = [(tuple(-c for c in theta), Q(-1))] + [(a, Q(0)) for a in rs.simple_roots]

    def affine(j, y):
        beta, k = walls[j]
        t = rs.root_level(y, beta) - k
        return tuple(a - t * c for a, c in zip(y, rs.coroot_of(beta)))

    word, x0, out = minimal.gallery_type, rs.from_levels(*minimal.target), []

    def rec(idx, w, v, mask, crossed):
        if idx == len(word):
            y = x0
            for j in reversed(crossed):
                y = affine(j, y)
            out.append((w.word, mask, w.apply(y)))
            return
        beta, _ = walls[word[idx]]
        rec(idx + 1, w, rs.reflect(beta, v), mask + (False,), crossed + (word[idx],))
        if rs.root_level(v, beta) > 0:
            rec(idx + 1, w, v, mask + (True,), crossed)

    for w in rs.weyl_group():
        v = rs.interior_dominant_f()
        for i in w.word:
            v = rs.reflect(rs.simple_roots[i], v)
        rec(0, w, v, (), ())
    return out


def reference_folded_galleries(rs, minimal, cap=ms.DEFAULT_CAP):
    """(start word, fold mask, level weight) of every walk, by the recursive walk with a leaf replay.

    Each leaf reflects the target in its crossed letters, last first, and
    then in the letters of its start w, last first; every node costs one
    state of ``cap``.
    """
    walls = rs.alcove_walls
    word = minimal.gallery_type
    target, den = minimal.target
    budget = [cap]

    def rec(idx, w, v, mask, crossed):
        budget[0] -= 1
        if budget[0] < 0:
            raise pm.CapExceeded(f"gallery enumeration exceeded {cap} states")
        if idx == len(word):
            y = pm._reflect_levels(walls, reversed(crossed), target, den)
            yield w.word, mask, pm._reflect_levels(walls, (i + 1 for i in reversed(w.word)), y, den)
            return
        j = word[idx]
        yield from rec(idx + 1, w, pm._reflect_levels(walls, (j,), v, 0), mask + (False,), crossed + (j,))
        if sum(b * c for b, c in zip(walls[j][0], v)) > 0:
            yield from rec(idx + 1, w, v, mask + (True,), crossed)

    if rs.weyl_order > cap:
        raise pm.CapExceeded(f"gallery enumeration exceeded {cap} states")
    for w in rs.weyl_group():
        v = (1,) * rs.rank  # w^-1 . d, d with every level 1
        for i in w.word:
            v = pm._reflect_levels(walls, (i + 1,), v, 0)
        yield from rec(0, w, v, (), ())


def reference_gallery_endpoints(rs, minimal, cap=ms.DEFAULT_CAP):
    """The gallery endpoints as a set of Fraction weights, sorted as Fraction tuples."""
    return tuple(sorted({rs.from_levels(*g.weight) for g in pm.folded_galleries(rs, minimal, cap)}))


def special_vertex(rs, coeffs):
    cw = rs.fundamental_coweights()
    return tuple(sum(c * Q(v[j]) for c, v in zip(coeffs, cw)) for j in range(rs.rank))


class TestPaths:
    def test_collinear_merge(self):
        p = pm.path_from_steps([(Q(1), Q(0)), (Q(2), Q(0))])
        assert p == pm.straight_path_to((Q(3), Q(0)))

    def test_no_merge_on_direction_reversal(self):
        p = pm.path_from_steps([(Q(1), Q(0)), (Q(-1), Q(0))])
        assert len(p.steps) == 2
        assert p.endpoint() == (Q(0), Q(0))

    def test_concat_endpoint_additivity(self):
        rng = random.Random(3)
        rs = build("A2")
        for _ in range(100):
            p1 = random_lattice_path(rs, rng)
            p2 = random_lattice_path(rs, rng)
            joined = pm.path_from_steps(p1.steps + p2.steps, 2)
            want = tuple(a + b for a, b in zip(p1.endpoint(), p2.endpoint()))
            assert joined.endpoint() == want


@st.composite
def step_runs(draw):
    """(prefix, middle, suffix): canonical prefix and suffix, any middle, of small integer steps."""
    rank = draw(st.integers(1, 3))
    steps = st.lists(st.tuples(*[st.integers(-2, 2)] * rank), max_size=5)
    return pm._canonical_steps(draw(steps)), tuple(draw(steps)), pm._canonical_steps(draw(steps))


class TestJoinedSteps:
    @settings(max_examples=400, deadline=None)
    @given(step_runs())
    @example(((), (), ()))
    @example((((1, 0),), (), ((2, 0),)))  # the two ends meet when the middle is empty
    @example((((1, 0),), ((0, 0), (3, 0)), ((2, 0), (0, 1))))
    def test_matches_the_full_pass(self, case):
        prefix, middle, suffix = case
        assert pm._joined(prefix, middle, suffix) == pm._canonical_steps(prefix + middle + suffix)


class TestRootOperator:
    def test_absent_on_dominant_straight_path(self):
        rs = build("A2")
        p = pm.straight_path_to((Q(2), Q(1)))
        for i in range(2):
            assert pm.root_operator_e(rs, p, i) is None

    def test_a1_hand_computation(self):
        rs = build("A1")
        p = pm.straight_path_to((Q(-1),))
        lifted = pm.root_operator_e(rs, p, 0)
        assert lifted.breakpoints() == [
            (Q(0), (Q(0),)),
            (Q(1, 2), (Q(-1, 2),)),
            (Q(1), (Q(0),)),
        ]
        # the endpoint moved up by the co-root
        assert lifted.endpoint() == (Q(0),)

    def test_endpoint_shift_law(self):
        rng = random.Random(5)
        for label in ("A1", "A2", "G2"):
            rs = build(label)
            coroots = [tuple(Q(c) for c in rs.coroot_of(a)) for a in rs.simple_roots]
            applied = 0
            for _ in range(120):
                p = random_lattice_path(rs, rng)
                for i in range(rs.rank):
                    lifted = pm.root_operator_e(rs, p, i)
                    if lifted is None:
                        continue
                    applied += 1
                    want = tuple(a + b for a, b in zip(p.endpoint(), coroots[i]))
                    assert lifted.endpoint() == want
            assert applied > 50

    def test_oscillating_height_profile(self):
        # a path whose height rises above the threshold again between the
        # critical times; the operator must keep the excursion unreflected
        rs = build("A1")
        p = pm.path_from_points([(Q(0),), (Q(-1, 4),), (Q(1),), (Q(-1),)])
        lifted = pm.root_operator_e(rs, p, 0)
        assert lifted is not None
        assert lifted.endpoint() == (Q(0),)
        heights = [pt[0] * 2 for _, pt in lifted.breakpoints()]
        assert min(heights) >= Q(-1)


_KERNEL_LABELS = ("A1", "A2", "A3", "B2", "C2", "G2", "F4", "B3", "C3", "D4")


@st.composite
def rational_paths(draw):
    """(label, path): a few rational steps, most of them off the co-weight lattice."""
    label = draw(st.sampled_from(_KERNEL_LABELS))
    rank = build(label).rank
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    steps = draw(st.lists(st.tuples(*[coord] * rank), min_size=1, max_size=5))
    return label, pm.path_from_steps(steps, rank)


class TestRootOperatorKernel:
    """The level-coordinate kernel against the Fraction operator it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(rational_paths())
    # splits that are not exact over the path's denominator: the kernel rescales
    @example(("A2", pm.path_from_steps([(Q(-1), Q(-1)), (Q(-3), Q(1))])))
    @example(("A2", pm.path_from_steps([(Q(-1), Q(-2, 3))])))
    @example(("A2", pm.path_from_steps([(Q(-1, 2), Q(-2)), (Q(3, 2), Q(2)), (Q(4, 3), Q(1, 2))])))
    @example(("A1", pm.path_from_points([(Q(0),), (Q(-1, 4),), (Q(1),), (Q(-1),)])))
    # a rise above the running minimum that the next step crosses back: denominators past the strategy's 6
    @example(("A1", pm.path_from_steps([(Q(-3, 10),), (Q(1, 10),), (Q(-4, 10),)])))
    def test_matches_the_fraction_operator(self, case):
        label, path = case
        rs = build(label)
        for i in range(rs.rank):
            got = pm.root_operator_e(rs, path, i)
            assert got == ref_root_operator_e(rs, path, i)
            assert got is None or all(type(c) is Q for v in got.steps for c in v)

    def test_rescale_branch_is_taken(self):
        # over one denominator the first split of this integer path is not
        # exact: the raised path needs a larger one
        rs = build("A2")
        path = pm.path_from_steps([(Q(-1), Q(-1)), (Q(-3), Q(1))])
        _, den = rs.to_levels(path.steps)
        raised = pm.root_operator_e(rs, path, 0)
        assert raised == ref_root_operator_e(rs, path, 0)
        assert rs.to_levels(raised.steps)[1] > den

    def test_excursion_above_the_running_minimum(self):
        # the rise of 1/10 between the two descents is kept up to its return,
        # which splits the last step
        rs = build("A1")
        path = pm.path_from_steps([(Q(-3, 10),), (Q(1, 10),), (Q(-4, 10),)])
        raised = pm.root_operator_e(rs, path, 0)
        assert raised == ref_root_operator_e(rs, path, 0)
        assert raised.endpoint() == (Q(2, 5),)

    def test_needs_a_crystallographic_system(self):
        rs = build("I2(5)")
        with pytest.raises(pm.PathModelError, match="crystallographic"):
            pm.root_operator_e(rs, pm.straight_path_to((Q(-1), Q(0))), 0)


# special vertices (co-weight coefficients) per system, for the kernel grid
_GRID = {
    "A1": [(c,) for c in range(5)],
    "A2": list(itertools.product(range(3), repeat=2)),
    "A3": list(itertools.product(range(2), repeat=3)),
    "B2": list(itertools.product(range(3), repeat=2)),
    "C2": list(itertools.product(range(3), repeat=2)),
    "G2": list(itertools.product(range(3), repeat=2)),
    "F4": [(1, 0, 0, 0), (0, 0, 0, 1)],
    "B3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)],
    "C3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)],
    "D4": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)],
}
_GRID_CASES = [(label, c) for label, cs in _GRID.items() for c in cs]


class TestKernelGrid:
    """Closure, unfold and gallery walks equal the Fraction references on special vertices."""

    @pytest.mark.parametrize("label,coeffs", _GRID_CASES, ids=str)
    def test_closure(self, label, coeffs):
        rs = build(label)
        x = special_vertex(rs, coeffs)
        path = pm.straight_path_to(rs.longest_element().apply(x))
        assert pm.positive_fold_closure(rs, path) == ref_closure(rs, path)

    @pytest.mark.parametrize("label,coeffs", [c for c in _GRID_CASES if c[0] != "F4"], ids=str)
    def test_closure_without_paths(self, label, coeffs):
        # the same BFS: its state set has one entry per path, and the endpoints are equal
        rs = build(label)
        path = pm.straight_path_to(rs.longest_element().apply(special_vertex(rs, coeffs)))
        paths, endpoints = pm.positive_fold_closure(rs, path)
        states, ends = pm.positive_fold_closure(rs, path, paths=False)
        assert ends == endpoints
        assert len(states) == len(paths)
        assert {pm._path_of(rs, *state, rs.rank) for state in states} == set(paths)

    @pytest.mark.parametrize("label,coeffs", _GRID_CASES, ids=str)
    def test_unfold(self, label, coeffs):
        rs = build(label)
        x = special_vertex(rs, coeffs)
        hull = ms.enumerate_AQ(rs, x)
        for y in hull[:: max(1, len(hull) // 12)]:
            assert pm.parkinson_ram_unfold(rs, x, y) == ref_unfold(rs, x, y)

    # the reference walks every F4 start with LinearForms reflections: one vertex
    @pytest.mark.parametrize("label,coeffs", [c for c in _GRID_CASES if c != ("F4", (0, 0, 0, 1))], ids=str)
    def test_gallery_walks(self, label, coeffs):
        rs = build(label)
        minimal = pm.minimal_gallery(rs, special_vertex(rs, coeffs))
        want = ref_galleries(rs, minimal)
        got = [(g.start, g.fold_mask, rs.from_levels(*g.weight)) for g in pm.folded_galleries(rs, minimal)]
        assert got == want
        assert pm.folded_gallery_endpoints(rs, minimal) == tuple(sorted({weight for _, _, weight in want}))
        assert pm.folded_gallery_endpoints(rs, minimal) == reference_gallery_endpoints(rs, minimal)

    # the level weights, and the F4 vertex the Fraction reference skips
    @pytest.mark.parametrize("label,coeffs", _GRID_CASES, ids=str)
    def test_gallery_walks_against_the_leaf_replay(self, label, coeffs):
        rs = build(label)
        minimal = pm.minimal_gallery(rs, special_vertex(rs, coeffs))
        _, den = minimal.target
        got = list(pm.folded_galleries(rs, minimal))
        assert [(g.start, g.fold_mask, g.weight) for g in got] == [
            (w, mask, (y, den)) for w, mask, y in reference_folded_galleries(rs, minimal)
        ]
        assert {(g.gallery_type, g.target) for g in got} == {(minimal.gallery_type, minimal.target)}


def two_pass_raise(rs, i, steps, den):
    """``path_model._raise`` as it was when the common factor m was taken in a second loop over the pieces."""
    row = rs.integer_cartan[i]
    heights = list(itertools.accumulate((v[i] for v in steps), initial=0))
    n = min(heights)
    if n > -den:
        return None
    idx1 = heights.index(n)
    top = n + den
    s = 0
    while heights[s + 1] >= top:
        s += 1
    pieces = []
    middle = deque((v, 1, 1) for v in steps[s:idx1])
    if heights[s] != top:
        a, b = heights[s] - top, heights[s] - heights[s + 1]
        pieces.append((steps[s], a, b))
        middle[0] = (steps[s], b - a, b)
    while middle:
        v, p, q = middle.popleft()
        inc = v[i] * p // q
        if inc < 0:
            pieces.append((tuple(c - v[i] * r for c, r in zip(v, row)), p, q))
        elif inc == 0:
            pieces.append((v, p, q))
        else:
            acc = inc
            pieces.append((v, p, q))
            while acc > 0:
                w, p, q = middle.popleft()
                winc = w[i] * p // q
                if acc + winc >= 0:
                    pieces.append((w, p, q))
                    acc += winc
                else:
                    pieces.append((w, p * acc, q * -winc))
                    middle.appendleft((w, p * (-winc - acc), q * -winc))
                    acc = 0
    m = 1
    for v, p, q in pieces:
        if q != 1:
            m = math.lcm(m, q // math.gcd(q, p * math.gcd(*v)))
    out = [v if m == q == 1 else tuple(c * p * m // q for c in v) for v, p, q in pieces]
    prefix = tuple(tuple(c * m for c in v) for v in steps[:s])
    suffix = tuple(tuple(c * m for c in v) for v in steps[idx1:])
    return pm._reduced(pm._joined(prefix, out, suffix), den * m)


# co-weight coefficients up to these tops, each vertex and its half: the half
# is no lattice point, so its closure splits steps off the path's denominator
_SWEEP_TOPS = {"A1": 12, "A2": 4, "B2": 4, "C2": 4, "G2": 3, "A3": 2, "B3": 1, "C3": 1, "D4": 1}


class TestClosureSweep:
    """The closure's states and endpoints against a breadth-first search on the two-pass kernel."""

    @pytest.mark.parametrize("label", list(_SWEEP_TOPS))
    def test_states_and_endpoints(self, label):
        rs = build(label)
        tops = itertools.product(range(_SWEEP_TOPS[label] + 1), repeat=rs.rank)
        cases = [(coeffs, d) for coeffs in tops if any(coeffs) for d in (1, 2)]
        splits = 0
        for coeffs, d in cases:
            x = tuple(c / d for c in special_vertex(rs, coeffs))
            path = pm.straight_path_to(rs.longest_element().apply(x))
            start = pm._levels_of(rs, path)
            want, queue = {start}, deque([start])
            while queue:
                state = queue.popleft()
                for i in range(rs.rank):
                    nxt = two_pass_raise(rs, i, *state)
                    if nxt is not None and nxt not in want:
                        splits += nxt[1] > state[1]
                        want.add(nxt)
                        queue.append(nxt)
            states, endpoints = pm.positive_fold_closure(rs, path, paths=False)
            assert states == want, (coeffs, d)
            assert endpoints == rs.sorted_from_levels((tuple(map(sum, zip(*st))), den) for st, den in want)
        # rank one has no excursion to split: every other sweep takes the rescaling branch
        assert splits > 0 or rs.rank == 1


def outcome_of_walk(walk, *args):
    """(walks yielded, the cap message or None) of a walk run to its end or to its cap."""
    n = 0
    try:
        for _ in walk(*args):
            n += 1
    except pm.CapExceeded as e:
        return n, str(e)
    return n, None


def reference_height_minimum(rs, path, i):
    """The least height (pi(t), alpha_i) of a path: PL, so it sits at a breakpoint."""
    return min(rs.root_level(pt, rs.simple_roots[i]) for _, pt in path.breakpoints())


class TestHeightFunction:
    def test_minimum_gates_the_operator(self):
        rs = build("A2")
        rng = random.Random(71)
        for _ in range(60):
            p = random_lattice_path(rs, rng)
            for i in range(2):
                applies = pm.root_operator_e(rs, p, i) is not None
                assert applies == (reference_height_minimum(rs, p, i) <= Q(-1))


class TestClosure:
    def test_zero_path(self):
        rs = build("A2")
        paths, endpoints = pm.positive_fold_closure(rs, pm.PLPath((), 2))
        assert paths == (pm.PLPath((), 2),)
        assert endpoints == ((Q(0), Q(0)),)

    def test_a1_alpha(self):
        rs = build("A1")
        _, endpoints = pm.positive_fold_closure(rs, pm.straight_path_to((Q(-1),)))
        assert endpoints == ((Q(-1),), (Q(0),), (Q(1),))

    def test_a2_adjoint(self):
        rs = build("A2")
        x = (Q(1), Q(1))
        w0 = rs.longest_element()
        paths, endpoints = pm.positive_fold_closure(rs, pm.straight_path_to(w0.apply(x)))
        assert len(paths) == 8  # seven endpoints, the origin reached twice
        assert endpoints == ms.enumerate_AQ(rs, x)

    def test_cap(self):
        rs = build("A2")
        w0 = rs.longest_element()
        for paths in (True, False):
            with pytest.raises(pm.CapExceeded):
                pm.positive_fold_closure(rs, pm.straight_path_to(w0.apply((Q(3), Q(3)))), cap=5, paths=paths)

    def test_endpoints_sort_as_fraction_tuples(self):
        # G2 (2, 3) in co-weights: the paths' level steps lie over many denominators
        # and the endpoints have denominators 1 and 3; the integer order is the
        # order of the Fraction tuples
        rs = build("G2")
        x = special_vertex(rs, (2, 3))
        paths, endpoints = pm.positive_fold_closure(rs, pm.straight_path_to(rs.longest_element().apply(x)))
        assert len({den for _, den in (pm._levels_of(rs, p) for p in paths)}) > 1
        assert {c.denominator for p in endpoints for c in p} == {1, 3}
        assert endpoints == tuple(sorted({p.endpoint() for p in paths}))

    def test_sorted_from_levels_against_fraction_sort(self):
        # one point at several denominators, and points whose order the numerators alone would invert
        rs = build("B2")
        rng = random.Random(5)
        pairs = [(tuple(rng.randint(-9, 9) for _ in range(2)), rng.choice((1, 2, 3, 4, 6))) for _ in range(200)]
        pairs += [((2 * k, -4 * k), 2 * k) for k in range(1, 4)] + [((1, 0), 3), ((1, 0), 2)]
        want = tuple(sorted({rs.from_levels(v, den) for v, den in pairs}))
        assert rs.sorted_from_levels(pairs) == want
        assert rs.sorted_from_levels(iter(pairs)) == want


class TestParkinsonRam:
    def test_extreme_target_needs_no_folds(self):
        rs = build("A2")
        x = (Q(2), Q(2))
        w0x = tuple(rs.longest_element().apply(x))
        path = pm.parkinson_ram_fold(rs, x, w0x)
        assert path == pm.straight_path_to(w0x)
        _, mults = pm.parkinson_ram_chain(rs, x, w0x)
        assert all(m == 0 for m in mults)

    def test_total_shift_to_top(self):
        rs = build("A2")
        x = (Q(2), Q(2))
        ys, mults = pm.parkinson_ram_chain(rs, x, x)
        w0x = tuple(rs.longest_element().apply(x))
        assert ys[0] == x and ys[-1] == w0x
        word = rs.longest_element().word
        shift = rs.zero_point()
        for i_k, m_k in zip(word, mults):
            cr = rs.coroot_of(rs.simple_roots[i_k])
            shift = tuple(a + m_k * Q(b) for a, b in zip(shift, cr))
        assert shift == tuple(a - b for a, b in zip(x, w0x))

    def test_every_hull_point_is_reached(self):
        rs = build("A2")
        x = (Q(2), Q(2))
        for y in ms.enumerate_AQ(rs, x):
            path = pm.parkinson_ram_fold(rs, x, y)
            assert path.endpoint() == y

    def test_outside_hull_rejected(self):
        rs = build("A2")
        with pytest.raises(pm.PathModelError):
            pm.parkinson_ram_fold(rs, (Q(3), Q(3)), (Q(4), Q(2)))

    def test_bad_word_rejected(self):
        rs = build("A2")
        with pytest.raises(pm.PathModelError):
            pm.parkinson_ram_fold(rs, (Q(1), Q(1)), (Q(1), Q(1)), w0_word=(0, 1))

    def test_order_of_checks(self):
        # a fold checks dominance, then the word, then the target; the chain
        # checks the target, then the word
        rs = build("A2")
        x, outside = (Q(3), Q(3)), (Q(4), Q(2))
        with pytest.raises(pm.PathModelError, match="dominant"):
            pm.parkinson_ram_fold(rs, (Q(-1), Q(1)), outside, w0_word=(0, 1))
        with pytest.raises(pm.PathModelError, match="reduced word"):
            pm.parkinson_ram_fold(rs, x, outside, w0_word=(0, 1))
        with pytest.raises(pm.PathModelError, match="outside"):
            pm.parkinson_ram_chain(rs, x, outside, w0_word=(0, 1))
        with pytest.raises(pm.PathModelError, match="0..1"):
            pm.parkinson_ram_fold(rs, x, (Q(0), Q(0)), w0_word=(0, 5, 0))

    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "G2"])
    def test_only_special_vertices_descend(self, label):
        # x = sum c_i w_i^ unfolds onto itself exactly when every c_i is an
        # integer; any other x is refused before the descent, with its cause
        rs = build(label)
        cw = rs.fundamental_coweights()
        steps = (Q(0), Q(1, 4), Q(1, 3), Q(1, 2), Q(1), Q(3, 2), Q(2)) if rs.rank < 3 else (Q(0), Q(1, 2), Q(1))
        for coeffs in itertools.product(steps, repeat=rs.rank):
            x = tuple(sum(c * v[j] for c, v in zip(coeffs, cw)) for j in range(rs.rank))
            if all(c.denominator == 1 for c in coeffs):
                assert rs.coweight_lattice_member(x)
                assert pm.parkinson_ram_unfold(rs, x, x)[2].endpoint() == x
            else:
                assert outcome_of(pm.parkinson_ram_unfold, rs, x, x) == OFF_LATTICE

    def test_off_lattice_refusals_keep_the_unfold_order(self):
        # not dominant first, then a bad w0 word, then the lattice
        rs = build("A2")
        with pytest.raises(pm.PathModelError, match="dominant"):
            pm.parkinson_ram_unfold(rs, (Q(-1, 2), Q(1)), (Q(1, 2), Q(1)), w0_word=(0, 1))
        with pytest.raises(pm.PathModelError, match="reduced word"):
            pm.parkinson_ram_unfold(rs, (Q(1, 2), Q(1)), (Q(1, 2), Q(1)), w0_word=(0, 1))
        with pytest.raises(pm.PathModelError, match="special vertex"):
            pm.parkinson_ram_unfold(rs, (Q(1, 2), Q(1)), (Q(9), Q(9)), w0_word=(1, 0, 1))

    def test_alternative_reduced_word(self):
        rs = build("A2")
        x = (Q(2), Q(2))
        for y in ms.enumerate_AQ(rs, x):
            path = pm.parkinson_ram_fold(rs, x, y, w0_word=(1, 0, 1))
            assert path.endpoint() == y

    @pytest.mark.parametrize("label,x", [("A2", (3, 3)), ("B2", (3, 4))])
    def test_coset_tested_once_per_target(self, label, x, monkeypatch):
        # descent steps y - m alpha^ stay in the coset of the target; only the
        # target, which comes from outside, is tested
        rs = build(label)
        x = tuple(map(Q, x))
        hull = ms.enumerate_AQ(rs, x)
        calls = []
        real = type(rs).coroot_coset_member
        monkeypatch.setattr(
            type(rs), "coroot_coset_member", lambda self, a, b: calls.append((a, b)) or real(self, a, b)
        )
        for y in hull[:: len(hull) // 4]:
            calls.clear()
            ys, _ = pm.parkinson_ram_chain(rs, x, y)
            assert calls == [(x, y)]
            assert ys[-1] == rs.longest_element().apply(x)


def reference_descent(rs, x, y):
    """(ys, ms) of the descent as a Fraction loop: each step tested by ``in_AQ`` against x+."""
    x = tuple(Q(c) for c in x)
    y = tuple(Q(c) for c in y)
    xp, _ = rs.dominant_rep(x)
    if not (ms.in_AQ(rs, y, xp) and rs.coroot_coset_member(x, y)):
        raise pm.PathModelError("target point is outside the orbit hull")
    ys, mults = [y], []
    for i_k in rs.longest_element().word:
        coroot = rs.coroot_of(rs.simple_roots[i_k])
        m = 0
        while ms.in_AQ(rs, tuple(c - (m + 1) * s for c, s in zip(ys[-1], coroot)), xp):
            m += 1
        ys.append(tuple(c - m * s for c, s in zip(ys[-1], coroot)))
        mults.append(m)
    if ys[-1] != rs.longest_element().apply(x):
        raise pm.PathModelError("descent chain did not reach the opposite extreme point")
    return ys, mults


OFF_LATTICE = "the orbit generator must be a special vertex (a co-weight lattice point)"


def outcome_of(f, *args):
    try:
        return f(*args)
    except pm.PathModelError as exc:
        return str(exc)


class TestDescentOnNumerators:
    """The integer descent takes the steps of the Fraction loop."""

    @pytest.mark.parametrize(
        "label,x",
        [
            ("A2", "3,3"), ("A2", "2,1"), ("A2", "-1,2"), ("A2", "4/3,2/3"), ("A2", "1/2,1"),
            ("B2", "3,4"), ("B2", "1,1"), ("B2", "1/2,3/2"),
            ("G2", "3,2"), ("G2", "2,1"), ("G2", "1,2/3"), ("G2", "1/3,1"),
            ("A3", "1,2,1"), ("A3", "1,1,1"), ("A3", "3/4,3/2,5/4"),
        ],
    )
    def test_every_hull_point(self, label, x):
        # from a point off the co-weight lattice the descent misses w0.x, so the chain refuses it up front
        rs = build(label)
        x = tuple(Q(c) for c in x.split(","))
        for y in ms.enumerate_AQ(rs, x):
            if rs.coweight_lattice_member(x):
                assert outcome_of(pm.parkinson_ram_chain, rs, x, y) == outcome_of(reference_descent, rs, x, y)
            else:
                assert outcome_of(pm.parkinson_ram_chain, rs, x, y) == OFF_LATTICE

    @pytest.mark.parametrize("point", ["lex", "field"])
    @pytest.mark.parametrize("descend", [pm.parkinson_ram_chain, pm.parkinson_ram_unfold])
    def test_needs_rational_points(self, descend, point):
        rs = build("A2")
        one = build("I2(5)").field.one()
        y = (lex(1, 2), lex(-3, 1)) if point == "lex" else (one, one * 2)
        with pytest.raises(ScalarDomainError, match="rational coordinates"):
            descend(rs, (Q(3), Q(3)), y)


class TestGalleries:
    def test_zero_gallery(self):
        rs = build("A2")
        g = pm.minimal_gallery(rs, rs.zero_point())
        assert len(g) == 0
        assert pm.folded_gallery_endpoints(rs, g) == (rs.zero_point(),)

    def test_known_minimal_lengths(self):
        rs = build("A2")
        assert len(pm.minimal_gallery(rs, (Q(3), Q(3)))) == 9
        assert len(pm.minimal_gallery(rs, (Q(4), Q(2)))) == 10
        # every dominant special vertex sum_i c_i w_i with c_i <= top
        for label, top in (("A2", 8), ("B2", 8), ("C2", 8), ("G2", 5), ("A3", 3), ("F4", 2), ("B3", 2), ("C3", 2), ("D4", 1)):
            rs = build(label)
            cw = rs.fundamental_coweights()
            for coeffs in itertools.product(range(top + 1), repeat=rs.rank):
                x = tuple(sum(c * v[j] for c, v in zip(coeffs, cw)) for j in range(rs.rank))
                assert len(pm.minimal_gallery(rs, x)) == ms.gallery_distance(rs, rs.zero_point(), x) - 1

    def test_non_vertex_rejected(self):
        rs = build("A2")
        with pytest.raises(pm.PathModelError):
            pm.minimal_gallery(rs, (Q(1, 2), Q(0)))

    def test_a1_endpoints(self):
        rs = build("A1")
        g = pm.minimal_gallery(rs, (Q(1),))
        assert pm.folded_gallery_endpoints(rs, g) == ((Q(-1),), (Q(0),), (Q(1),))

    def test_a2_matches_hull(self):
        rs = build("A2")
        x = (Q(2), Q(2))
        g = pm.minimal_gallery(rs, x)
        assert pm.folded_gallery_endpoints(rs, g) == ms.enumerate_AQ(rs, x)

    def test_soundness_subset(self):
        rs = build("G2")
        x = (Q(2), Q(1))
        xp = rs.dominant_rep(x)[0]
        for gallery in pm.folded_galleries(rs, pm.minimal_gallery(rs, x)):
            weight = rs.from_levels(*gallery.weight)
            assert ms.in_AQ(rs, weight, xp) and rs.coroot_coset_member(x, weight)

    def test_both_entry_points_agree(self):
        # the type of a minimal walk to x+ and of one to w0.x fold to the same set
        for label, x in (("A2", (Q(2), Q(2))), ("G2", (Q(1), Q(2, 3)))):
            rs = build(label)
            w0x = tuple(rs.longest_element().apply(x))
            plus = pm.folded_gallery_endpoints(rs, pm.minimal_gallery(rs, x))
            minus = pm.folded_gallery_endpoints(rs, pm.minimal_gallery(rs, w0x))
            assert plus == minus

    def test_cap(self):
        rs = build("A2")
        g = pm.minimal_gallery(rs, (Q(3), Q(3)))
        with pytest.raises(pm.CapExceeded):
            pm.folded_gallery_endpoints(rs, g, cap=10)

    def test_cap_stops_the_walk_where_the_leaf_replay_stopped(self):
        # 311 walk-tree states, the 6 starts included; each state costs one unit of cap
        rs = build("A2")
        minimal = pm.minimal_gallery(rs, (Q(3), Q(3)))
        outcomes = [outcome_of_walk(pm.folded_galleries, rs, minimal, cap) for cap in range(313)]
        assert outcomes == [outcome_of_walk(reference_folded_galleries, rs, minimal, cap) for cap in range(313)]
        assert outcomes[310][1] == "gallery enumeration exceeded 310 states" and outcomes[311][1] is None

    def test_cap_holds_before_the_weyl_group(self):
        # every start costs a state: A7's 40,320 starts spend cap 10 before the group is built
        rs = RootSystem("A7")
        with pytest.raises(pm.CapExceeded, match="exceeded 10 states"):
            pm.folded_gallery_endpoints(rs, pm.minimal_gallery(rs, rs.zero_point()), cap=10)
        assert "_group" not in vars(rs) and "_weyl_bfs" not in vars(rs)

    @pytest.mark.parametrize("label,x", [("A2", (2, 2)), ("B2", (1, 2)), ("G2", (2, 1))])
    def test_walks_start_without_inverse_matrices(self, label, x, monkeypatch):
        # each start w^-1 . d_int is reached by simple reflections, not a w^-1 matrix
        rs = build(label)
        x = tuple(map(Q, x))
        minimal = pm.minimal_gallery(rs, x)
        elements = []
        real = type(rs).element
        monkeypatch.setattr(type(rs), "element", lambda self, w: elements.append(w) or real(self, w))
        endpoints = pm.folded_gallery_endpoints(rs, minimal)
        assert elements == []
        assert endpoints == ms.enumerate_AQ(rs, x)

    @pytest.mark.parametrize("label,x", [("A2", (2, 2)), ("B2", (1, 2)), ("G2", (2, 1))])
    def test_walks_hold_integer_data_only(self, label, x, monkeypatch):
        # a walk holds its start word and its level vectors: it builds no Fraction weight and no Weyl element
        rs = build(label)
        minimal = pm.minimal_gallery(rs, tuple(map(Q, x)))
        calls = []
        for name in ("from_levels", "element"):
            real = getattr(type(rs), name)
            spy = lambda self, *a, real=real, name=name: calls.append(name) or real(self, *a)
            monkeypatch.setattr(type(rs), name, spy)
        walks = list(pm.folded_galleries(rs, minimal))
        assert walks and calls == []

        def ints(v):
            return all(map(ints, v)) if isinstance(v, tuple) else type(v) in (int, bool)

        for g in [minimal, *walks]:
            assert all(ints(getattr(g, f.name)) for f in dataclasses.fields(g))

    def test_start_table_is_built_once_on_the_first_walk(self, monkeypatch):
        # the group's matrices and the start table are built on the same search, each only when asked for
        rs = RootSystem("B2")
        rs.weyl_group()
        assert "alcove_walk_starts" not in vars(rs)
        rs = RootSystem("B2")
        calls = []
        real = type(rs).weyl_group
        monkeypatch.setattr(type(rs), "weyl_group", lambda self: calls.append(self) or real(self))
        pm.folded_gallery_endpoints(rs, pm.minimal_gallery(rs, (Q(1), Q(2))))
        table = vars(rs)["alcove_walk_starts"]
        pm.folded_gallery_endpoints(rs, pm.minimal_gallery(rs, (Q(2), Q(2))))
        assert vars(rs)["alcove_walk_starts"] is table and calls == [] and "_group" not in vars(rs)

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "C3", "F4"])
    def test_start_table_entries(self, label):
        # (word of w, w^-1 . d, M_w): d has every level 1, and M_w is w on level vectors
        rs = build(label)
        table = rs.alcove_walk_starts
        assert [w for w, _, _ in table] == [w.word for w in rs.weyl_group()]
        d = rs.interior_dominant_f()
        x = tuple(Q(k + 1, 3) for k in range(rs.rank))
        (lx,), den = rs.to_levels((x,))
        for w, v, m in table[:: max(1, len(table) // 60)]:
            assert rs.from_levels(v, 1) == tuple(rs.element(reversed(w)).apply(d))
            wx = tuple(rs.element(w).apply(x))
            assert rs.from_levels(tuple(sum(a * b for a, b in zip(row, lx)) for row in m), den) == wx
        # equal rows are one object
        rows = [row for _, _, m in table for row in m]
        assert len({id(row) for row in rows}) == len(set(rows))

    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "G2", "B3", "C3", "D4", "F4", "E6"])
    def test_start_table_against_whole_matrices(self, label):
        # each M_p S_i rebuilt row by row, every row interned by value: the table the
        # per-letter row maps must reproduce entry for entry
        rs = RootSystem(label)
        cartan, n = rs.integer_cartan, rs.rank
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        rows = {row: row for row in ident}
        mats = [ident]
        for word, _, parent in rs._weyl_bfs[1:]:
            i, c = word[-1], cartan[word[-1]]
            mats.append(
                tuple(
                    rows.setdefault(r, r)
                    for r in (row[:i] + (row[i] - sum(a * b for a, b in zip(row, c)),) + row[i + 1 :] for row in mats[parent])
                )
            )
        assert rs.alcove_walk_starts == tuple((w, v, m) for (w, v, _), m in zip(rs._weyl_bfs, mats))
        got = [row for _, _, m in rs.alcove_walk_starts for row in m]
        assert len({id(row) for row in got}) == len(set(got)) == len(rows)

    @pytest.mark.parametrize("label,coeffs", [("A2", (1, 1)), ("B2", (0, 2)), ("G2", (1, 0)), ("A3", (1, 0, 1))])
    def test_leaves_are_frozen_dataclass_galleries(self, label, coeffs):
        # a leaf is filled past __init__; it must be the dataclass value all the same
        rs = build(label)
        minimal = pm.minimal_gallery(rs, special_vertex(rs, coeffs))
        names = [f.name for f in dataclasses.fields(pm.FoldedGallery)]
        leaves = list(pm.folded_galleries(rs, minimal))
        assert leaves
        for g in leaves:
            built = pm.FoldedGallery(**{name: getattr(g, name) for name in names})
            assert g == built and built == g
            assert hash(g) == hash(built) and repr(g) == repr(built)
            assert dataclasses.astuple(g) == dataclasses.astuple(built)
            assert len(g) == len(built) == len(minimal)
            with pytest.raises(dataclasses.FrozenInstanceError):
                g.weight = built.target
            with pytest.raises(dataclasses.FrozenInstanceError):
                del g.start
        assert len(set(leaves)) == len({dataclasses.astuple(g) for g in leaves})

    @pytest.mark.parametrize("point", ["lex", "field"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda rs, y: pm.minimal_gallery(rs, y),
            lambda rs, y: pm.path_from_steps([y]),
            lambda rs, y: pm.straight_path_to(y),
        ],
        ids=["minimal_gallery", "path_from_steps", "straight_path_to"],
    )
    def test_needs_rational_points(self, make, point):
        rs = build("A2")
        one = build("I2(5)").field.one()
        y = (lex(1, 2), lex(-3, 1)) if point == "lex" else (one, one * 2)
        with pytest.raises(ScalarDomainError, match="rational coordinates"):
            make(rs, y)

    def test_track_consistency(self):
        rs = build("A2")
        g = pm.minimal_gallery(rs, (Q(2), Q(2)))
        assert g.fold_mask == tuple(False for _ in range(len(g)))


ORACLE_SYSTEMS = ("A1", "A2", "A3", "B2", "C2", "G2")
GALLERY_MAX = 12  # folded walks are enumerated up to this length


@st.composite
def special_vertices(draw):
    """(label, c): the dominant special vertex sum_i c_i w_i, small c_i."""
    label = draw(st.sampled_from(ORACLE_SYSTEMS))
    rank = build(label).rank
    top = 2 if rank > 2 else 3
    return label, tuple(draw(st.lists(st.integers(0, top), min_size=rank, max_size=rank)))


class TestThreeOracles:
    @settings(max_examples=40, deadline=None)
    @given(special_vertices())
    @example(("A2", (0, 0)))
    # on the ray of the co-weight sum: a straight segment from the base alcove
    # meets two walls at once, so its crossings give no single type word
    @example(("A2", (4, 6)))
    @example(("B2", (2, 3)))
    @example(("B2", (4, 6)))
    @example(("C2", (4, 6)))
    @example(("G2", (2, 3)))
    # the point (14, 8): 37,961 paths for 571 endpoints; its gallery has 70 letters
    @example(("G2", (4, 6)))
    @example(("F4", (1, 0, 0, 0)))
    @example(("B3", (1, 1, 0)))
    @example(("C3", (1, 0, 1)))
    @example(("D4", (1, 0, 1, 1)))
    def test_hull_closure_and_gallery_endpoints_agree(self, case):
        label, coeffs = case
        rs = build(label)
        cw = rs.fundamental_coweights()
        x = tuple(sum(c * Q(v[j]) for c, v in zip(coeffs, cw)) for j in range(rs.rank))
        hull = ms.enumerate_AQ(rs, x)
        _, closure = pm.positive_fold_closure(rs, pm.straight_path_to(rs.longest_element().apply(x)))
        assert closure == hull
        g = pm.minimal_gallery(rs, x)
        assert len(g) == ms.gallery_distance(rs, rs.zero_point(), x) - 1
        if len(g) <= GALLERY_MAX:
            assert pm.folded_gallery_endpoints(rs, g) == hull

    # E6's galleries start from all 51,840 Weyl elements, so E6 checks hull = closure only
    @pytest.mark.parametrize(
        "label,i", [(label, i) for label, rank in (("B4", 4), ("C4", 4), ("E6", 6)) for i in range(rank)], ids=str
    )
    def test_at_every_fundamental_coweight(self, label, i):
        rs = build(label)
        x = special_vertex(rs, [int(j == i) for j in range(rs.rank)])
        hull = ms.enumerate_AQ(rs, x)
        _, closure = pm.positive_fold_closure(rs, pm.straight_path_to(rs.longest_element().apply(x)), paths=False)
        assert closure == hull
        if label != "E6":
            assert pm.folded_gallery_endpoints(rs, pm.minimal_gallery(rs, x)) == hull
