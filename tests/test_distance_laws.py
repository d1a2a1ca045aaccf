"""The paper's distance laws, checked on its own objects.

A Λ-tree is 0-hyperbolic (I. Chiswell, *Introduction to Λ-trees*, 2001): of
the three pair sums of four points, the largest two are equal.  A retraction
onto an apartment centred at a chamber at infinity folds a geodesic into a
positively folded path or gallery without increasing distance (PAPER.md; the
folds are what ``positive_fold_closure`` and ``folded_galleries`` enumerate):
every closure path of the straight path to w0·x⁺ has the d-length of x and
ends no farther from the origin than x, and every folded-gallery endpoint is
no farther from the origin, in gallery distance, than x.
"""

import functools
import random
from fractions import Fraction as Q

import pytest

from weylkit import lambda_tree as lt
from weylkit import model_space as ms
from weylkit import path_model as pm
from weylkit.root_system import build
from weylkit.scalars import LexPair, compare


def _datum(seed, lam):
    """A datum of 4-8 ends over Z or Z2lex from tree_generator, or over Q as a Z table through x -> x/3."""
    _, pv = lt.tree_generator(seed, 4 + seed % 5, "Z2lex" if lam == "Z2lex" else "Z")
    if lam == "Q":
        pv = lt.valuation_from_entries(pv.ends, {q: v / 3 for q, v in pv.table.items()})
    return lt.datum_from_valuation(pv, pv.ends[:3])


@pytest.mark.parametrize("lam", ["Z", "Z2lex", "Q"])
def test_trees_are_zero_hyperbolic(lam):
    order = functools.cmp_to_key(compare)
    for seed in range(10):
        datum = _datum(seed, lam)
        wedges = datum.finite_wedges()
        top = max(wedges, key=order)
        above = top + top + (LexPair(Q(0), Q(1)) if lam == "Z2lex" else Q(1, 2))
        heights = [*sorted({*wedges, top - top}, key=order), above]  # the root, each branch height, and one above all
        rng, d = random.Random(seed), functools.partial(lt.tree_distance, datum)
        for _ in range(70):
            x, y, z, w = (lt.canonical_point(datum, rng.choice(datum.ends), rng.choice(heights)) for _ in range(4))
            sums = sorted([d(x, y) + d(z, w), d(x, z) + d(y, w), d(x, w) + d(y, z)], key=order)
            assert compare(sums[1], sums[2]) == 0, (seed, x, y, z, w, sums)


# special vertices of nine systems, in the coordinates that `--point` takes
SHADOW_CASES = [
    ("A2", (3, 3)),
    ("A2", (4, 2)),
    ("B2", (3, 3)),
    ("C2", (2, 3)),
    ("G2", (4, 3)),
    ("G2", (7, 4)),
    ("A3", (2, 3, 2)),
    ("B3", (2, 3, 3)),
    ("F4", (2, 3, 4, 2)),
]


@pytest.mark.parametrize("label, point", SHADOW_CASES, ids=[f"{n}-{'-'.join(map(str, p))}" for n, p in SHADOW_CASES])
def test_folds_do_not_increase_distance(label, point):
    rs = build(label)
    x, origin = tuple(map(Q, point)), rs.zero_point()
    d = ms.distance(rs, origin, x)
    paths, _ = pm.positive_fold_closure(rs, pm.straight_path_to(rs.longest_element().apply(rs.dominant_rep(x)[0])))
    assert len(paths) > 1
    for path in paths:
        # each piece is a Weyl image of a piece of the straight path: the d-length is kept
        assert sum(ms.distance(rs, origin, step) for step in path.steps) == d
        assert ms.distance(rs, origin, path.endpoint()) <= d
    reach = ms.gallery_distance(rs, origin, x)
    endpoints = pm.folded_gallery_endpoints(rs, pm.minimal_gallery(rs, x))
    assert len(endpoints) > 1
    assert all(ms.gallery_distance(rs, origin, e) <= reach for e in endpoints)
