from __future__ import annotations

import copy
import gc
import hashlib
import importlib.util
import pickle
import re
import sys
from fractions import Fraction
from functools import cache
from itertools import accumulate, islice
from math import gcd
from operator import mul
from pathlib import Path

import pytest

from conftest import (
    canonical_segments,
    descent_min_reps,
    group_of,
    norm_coroot,
    root_raise,
    searched_reach,
    stepwise_orbit_table,
    weight_grid,
)

from wondermono import paths, rootsys
from wondermono.demazure import weyl_dim
from wondermono.paths import (
    LSPath,
    PathPair,
    generate_pairs,
    generate_paths,
    initial_direction,
    pair_directions,
    path_directions,
    root_lower,
)
from wondermono.rootsys import from_name
from wondermono.weyl import WeylGroup

HALF = Fraction(1, 2)
ONE = Fraction(1)


def test_canonical_segments_merge():
    segs = canonical_segments([((2,), HALF), ((2,), HALF)])
    assert segs == (((2,), ONE),)
    segs = canonical_segments([((2,), HALF), ((-2,), Fraction(0)), ((2,), HALF)])
    assert segs == (((2,), ONE),)
    with pytest.raises(ValueError):
        canonical_segments([((2,), Fraction(-1, 2))])


def test_straight_path():
    path = LSPath([((3,), 1)], (3,))
    assert path.segments == (((3,), ONE),)
    assert path.endpoint() == (3,)


def test_durations_sum_to_one():
    with pytest.raises(ValueError):
        LSPath(segments=(((2,), HALF),), shape=(2,))


def test_a1_lowering_walkthrough():
    g = group_of("A1")
    top = LSPath([((2,), 1)], (2,))
    mid = root_lower(g.rs, 1, top)
    assert mid is not None
    assert mid.segments == (((-2,), HALF), ((2,), HALF))
    assert mid.endpoint() == (0,)
    bot = root_lower(g.rs, 1, mid)
    assert bot is not None
    assert bot.segments == (((-2,), ONE),)
    assert bot.endpoint() == (-2,)
    assert root_lower(g.rs, 1, bot) is None


def test_a1_path_set():
    g = group_of("A1")
    paths = generate_paths(g.rs, (2,))
    assert len(paths) == 3
    assert sorted(p.endpoint() for p in paths) == [(-2,), (0,), (2,)]
    dirs = {p.endpoint(): initial_direction(g, p).word_str for p in paths}
    assert dirs == {(2,): "e", (0,): "s1", (-2,): "s1"}


def test_counts_match_dimensions():
    cases = [("A2", (1, 1), 8), ("B2", (0, 1), 4), ("G2", (1, 0), 7), ("A3", (0, 1, 0), 6)]
    for name, lam, dim in cases:
        g = group_of(name)
        paths = generate_paths(g.rs, lam)
        assert len(paths) == dim
        assert weyl_dim(g.rs, lam) == dim


def test_weight_multiplicity():
    g = group_of("A2")
    paths = generate_paths(g.rs, (1, 1))
    zero = [p for p in paths if p.endpoint() == (0, 0)]
    assert len(zero) == 2


def test_lowering_shifts_endpoint():
    for name, lam in [("A2", (1, 1)), ("B2", (1, 0)), ("G2", (1, 0))]:
        g = group_of(name)
        for path in generate_paths(g.rs, lam):
            for i in range(1, g.rank + 1):
                low = root_lower(g.rs, i, path)
                if low is None:
                    continue
                alpha = g.rs.simple_root(i)
                assert low.endpoint() == tuple(a - b for a, b in zip(path.endpoint(), alpha))


def test_lower_raise_roundtrip():
    for name, lam in [("A2", (1, 1)), ("A2", (2, 0)), ("B2", (1, 0)), ("B2", (0, 1)), ("G2", (1, 0))]:
        g = group_of(name)
        for path in generate_paths(g.rs, lam):
            for i in range(1, g.rank + 1):
                low = root_lower(g.rs, i, path)
                if low is not None:
                    assert root_raise(g.rs, i, low) == path
                up = root_raise(g.rs, i, path)
                if up is not None:
                    assert root_lower(g.rs, i, up) == path


def test_raise_exhausts_at_dominant():
    # the straight dominant path is the unique path killed by every raising operator
    for name, lam in [("A2", (1, 1)), ("B2", (1, 1))]:
        g = group_of(name)
        tops = [
            p
            for p in generate_paths(g.rs, lam)
            if all(root_raise(g.rs, i, p) is None for i in range(1, g.rank + 1))
        ]
        assert tops == [LSPath([(lam, 1)], lam)]


def test_initial_direction_zero_shape():
    g = group_of("A2")
    path = LSPath([((0, 0), 1)], (0, 0))
    assert initial_direction(g, path) == g.identity


def check_initial_directions_minimal(g, shape):
    for path in generate_paths(g.rs, shape):
        el = initial_direction(g, path)
        assert el.act(shape) == path.dirs[0]
        for other in g.elements:
            if other.act(shape) == path.dirs[0]:
                assert g.bruhat_leq(el, other)


def test_initial_direction_minimal():
    check_initial_directions_minimal(group_of("B2"), (1, 1))


@pytest.mark.parametrize("name, shape", [("B2", (1, 0)), ("A3", (0, 1, 0)), ("G2", (1, 0)), ("F4", (0, 0, 0, 1))])
def test_initial_direction_minimal_singular(name, shape):
    # a singular shape has a nontrivial stabilizer, so each direction has several preimages
    check_initial_directions_minimal(group_of(name), shape)


def test_initial_direction_outside_orbit():
    g = group_of("A2")
    path = LSPath((((2, 0), Fraction(1)),), (1, 0))
    with pytest.raises(ValueError, match=r"direction \(2, 0\) is not in the orbit of \(1, 0\)"):
        initial_direction(g, path)


def test_generate_pairs_structure():
    g = group_of("A2")
    mu = (1, 0)
    pairs = generate_pairs(g, mu)
    lefts = generate_paths(g.rs, g.dual_weight(mu))
    rights = generate_paths(g.rs, mu)
    assert len(pairs) == len(lefts) * len(rights)
    assert [(p.left, p.right) for p in pairs] == [(a, b) for a in lefts for b in rights]
    for p in pairs:
        assert p.mu == mu


def test_list_weights_match_tuples():
    g = group_of("A2")
    assert generate_paths(g.rs, [1, 0]) == generate_paths(g.rs, (1, 0))
    assert generate_pairs(g, [1, 0]) == generate_pairs(g, (1, 0))
    for p in generate_pairs(g, [1, 0]):
        assert p.mu == (1, 0)
    assert path_directions(g, [1, 0]) is path_directions(g, (1, 0))
    assert list(pair_directions(g, [1, 0])) == list(pair_directions(g, (1, 0)))


def test_pair_directions_align_with_pairs():
    g = group_of("B2")
    for mu in [(0, 0), (1, 0), (1, 1)]:
        dirs = list(pair_directions(g, mu))
        pairs = generate_pairs(g, mu)
        assert len(dirs) == len(pairs)
        for (a, b), p in zip(dirs, pairs):
            assert g.elements[a] == initial_direction(g, p.left)
            assert g.elements[b] == initial_direction(g, p.right)


@pytest.mark.parametrize("name, shape", [("B2", (1, 1)), ("F4", (0, 0, 0, 1))])
def test_path_directions_align_with_paths(name, shape):
    g = group_of(name)
    dirs = path_directions(g, shape)
    paths = generate_paths(g.rs, shape)
    assert len(dirs) == len(paths)
    for a, p in zip(dirs, paths):
        assert g.elements[a] == initial_direction(g, p)


def test_paths_stay_integral_on_walls():
    # every LS-path endpoint lies in the weight lattice: A2 and B2 at each of the 9 weights of weight_grid(2, 2)
    for name in ["A2", "B2"]:
        g = group_of(name)
        for lam in weight_grid(g.rank, 2):
            for path in generate_paths(g.rs, lam):
                for c in path.endpoint():
                    assert c == int(c)


def test_shape_denominator():
    g = group_of("G2")
    # G2 (2,1) pairs to 1, 2, 5, 7, 3 and 4 against the positive coroots
    assert paths.shape_denominator(g.rs, (2, 1)) == 420
    # its durations 1/7, 3/28 and 3/20 all lie in (1/420)Z
    assert all(420 % p.den == 0 for p in generate_paths(g.rs, (2, 1)))
    assert paths.shape_denominator(g.rs, (0, 0)) == 1
    assert paths.shape_denominator(group_of("A1").rs, (3,)) == 3


@pytest.mark.parametrize("name, lam", [("G2", (2, 1)), ("B3", (1, 0, 1)), ("F4", (0, 0, 0, 1))])
def test_path_arithmetic_builds_no_fraction(monkeypatch, name, lam):
    # a fresh group, so no memoized path model is reused
    g = WeylGroup(from_name(name))

    def no_fraction(*args):
        raise AssertionError("a Fraction was built in path arithmetic")

    monkeypatch.setattr(paths, "Fraction", no_fraction)
    found = generate_paths(g.rs, lam)
    assert len(found) == weyl_dim(g.rs, lam)
    members = set(found)
    for path in found:
        initial_direction(g, path)
        end = path.endpoint()
        for i in range(1, g.rank + 1):
            low = root_lower(g.rs, i, path)
            if low is not None:
                assert low in members
                assert low.endpoint() == tuple(a - b for a, b in zip(end, g.rs.simple_root(i)))


# weights whose paths have several denominators and both long and short directions, in types G, B, C, D and F
FIELD_CASES = [
    ("G2", (0, 4)),
    ("B3", (1, 2, 0)),
    ("C3", (3, 0, 1)),
    ("C4", (0, 1, 0, 1)),
    ("D4", (1, 0, 1, 1)),
    ("F4", (0, 0, 1, 0)),
]


def test_fraction_built_paths_equal_generated():
    g = group_of("G2")
    for path in generate_paths(g.rs, (1, 1)):
        built = LSPath(path.segments, path.shape)
        assert built == path and hash(built) == hash(path)
        assert LSPath(segments=list(path.segments), shape=list(path.shape)) == path
        # durations over a larger denominator reduce to the same path
        doubled = [(d, t / 2) for d, t in path.segments for _ in range(2)]
        assert LSPath(canonical_segments(doubled), path.shape) == path
        assert built.segments == path.segments
    # _path rebuilds every field from the segments, so the fields carried along each chain must match it
    for name, lam in FIELD_CASES:
        for path in generate_paths(group_of(name).rs, lam):
            built = LSPath(path.segments, path.shape)
            assert (built.dirs, built.steps, built.den, built.shape, built.end) == (
                path.dirs,
                path.steps,
                path.den,
                path.shape,
                path.end,
            )


def test_lowering_never_rounds():
    # neither path is an LS path: one is not over D = 2, one cuts between multiples of 1/6.  root_lower
    # refuses both; the kernel reads steps over D only, and given the second's orbit form, raises rather than round
    a2 = group_of("A2").rs
    off_denominator = LSPath([((1, 1), Fraction(1, 3)), ((1, -2), Fraction(2, 3))], (1, 1))
    with pytest.raises(ValueError, match=r"^path denominator 3 does not divide D = 2 of shape \(1, 1\)$"):
        root_lower(a2, 1, off_denominator)
    g2 = group_of("G2").rs
    off_cut = LSPath([((-3, 1), HALF), ((-3, 2), Fraction(1, 3)), ((3, -1), Fraction(1, 6))], (0, 1))
    with pytest.raises(ValueError, match=r"^not an LS path of shape \(0, 1\): no chain at its breakpoint 1/2 "):
        root_lower(g2, 2, off_cut)
    table = rootsys.orbit_table(g2, off_cut.shape)
    big = paths.shape_denominator(g2, off_cut.shape)
    assert big == off_cut.den
    dirs = tuple(map(table.index.__getitem__, off_cut.dirs))
    with pytest.raises(ValueError, match="not a multiple of 1/6"):
        paths._lower(table, 1, dirs, off_cut.steps, big)


def test_path_checks_on_ints():
    with pytest.raises(ValueError, match="positive"):
        LSPath([((2,), Fraction(3, 2)), ((-2,), Fraction(-1, 2))], (2,))
    with pytest.raises(ValueError, match="distinct"):
        LSPath([((2,), HALF), ((2,), HALF)], (2,))
    with pytest.raises(ValueError, match="lattice weight"):
        LSPath([((1,), Fraction(1, 3)), ((-1,), Fraction(2, 3))], (1,))


def test_path_steps_and_denominator_are_ints():
    # True is the int 1: stored as 1, so the path is the one built from ints
    path = LSPath._make((((1,),), (True,), True, (1,), (1,)))
    assert path == LSPath([((1,), 1)], (1,))
    assert [type(v) for v in (*path.steps, path.den)] == [int, int]
    message = r"^path directions .*, steps .*, denominator .* and shape .* must have int coordinates$"
    with pytest.raises(ValueError, match=message):
        LSPath._make((((1,),), (1.0,), 1, (1,), (1,)))
    with pytest.raises(ValueError, match=message):
        path._replace(den=1.0)
    with pytest.raises(ValueError, match=message):
        path._replace(steps=("1",))


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_path_durations_are_rationals(bad):
    with pytest.raises(ValueError, match=f"^segment duration {re.escape(repr(bad))} is not a rational number$"):
        LSPath([((1,), bad), ((-1,), HALF)], (1,))
    assert LSPath([((1,), HALF), ((-1,), HALF)], (1,)).steps == (1, 1)


def test_path_refuses_a_shape_of_another_length():
    message = r"^every direction must have the length 1 of the shape \(1,\)$"
    with pytest.raises(ValueError, match=message):
        LSPath([((1, 0), 1)], (1,))
    with pytest.raises(ValueError, match=message):
        LSPath([((1,), HALF), ((-1, 1), HALF)], (1,))
    path = LSPath([((1, 0), 1)], (1, 0))
    with pytest.raises(ValueError, match=message):
        path._replace(shape=(1,))
    # a direction of the right length outside the shape's orbit is built, and refused by the orbit's readers
    outside = LSPath([((1, 0), 1)], (5, 5))
    with pytest.raises(ValueError, match=r"^direction \(1, 0\) is not in the orbit of \(5, 5\)$"):
        root_lower(group_of("A2").rs, 1, outside)


@pytest.mark.parametrize(
    "segments, shape",
    [([((1.0, 0), 1)], (1.0, 0)), ([((1, 0), 1)], (1.0, 0)), ([((1, 0), HALF), ((-1.0, 1), HALF)], (1, 0))],
    ids=["both", "shape", "direction"],
)
def test_path_refuses_a_coordinate_that_is_not_an_int(segments, shape):
    # (1.0, 0) equals and hashes as (1, 0): a warm coset table would answer for it, so no such path is built at all
    g = WeylGroup(from_name("A2"))  # fresh: no coset table of (1, 0) yet
    message = r"^path directions .* and shape .* must have int coordinates$"
    with pytest.raises(ValueError, match=message):
        LSPath(segments, shape)
    assert initial_direction(g, LSPath([((1, 0), 1)], (1, 0))) is g.identity  # warms the table of (1, 0)
    assert (1, 0) in g.memo["_coset_table"]
    with pytest.raises(ValueError, match=message):
        LSPath(segments, shape)
    path = LSPath([((1, 0), 1)], (1, 0))
    with pytest.raises(ValueError, match=message):
        path._replace(shape=shape, dirs=tuple(d for d, _ in segments))


MODEL_SHAPES = [("G2", (2, 1)), ("B3", (1, 0, 1)), ("C3", (0, 2, 1)), ("F4", (0, 0, 0, 1)), ("B4", (1, 0, 0, 1))]


@pytest.mark.parametrize("name, lam", MODEL_SHAPES)
def test_model_is_closure_under_public_lowering(name, lam):
    # the chains against a plain breadth-first search on LSPath objects
    rs = group_of(name).rs
    start = LSPath([(lam, 1)], lam)
    seen = {start}
    frontier = [start]
    while frontier:
        lowered = {root_lower(rs, i, p) for p in frontier for i in range(1, rs.rank + 1)} - {None}
        frontier = lowered - seen
        seen |= frontier
    model = generate_paths(rs, lam)
    assert len(model) == len(set(model))
    assert set(model) == seen


@pytest.mark.parametrize("name, lam", MODEL_SHAPES)
def test_model_shares_each_repeated_field(name, lam):
    # equal dirs, steps or end fields of one model are one object: as many objects as values, per field
    model = generate_paths(group_of(name).rs, lam)
    counts = {}
    for field in ("dirs", "steps", "end"):
        values = [getattr(p, field) for p in model]
        counts[field] = len({id(v) for v in values}), len(set(values))
    assert all(objects == values for objects, values in counts.values()), counts
    # sharing leaves the fields as _path makes them
    assert all(paths._path(p.dirs, p.steps, p.den, p.shape) == p for p in model)


def test_generate_paths_builds_each_path_once(monkeypatch):
    rs = from_name("B3")  # a fresh root system, so no memoized model is reused

    def refused(*args):
        raise AssertionError("generate_paths rebuilt a path through the checker")

    # the chains build each path by tuple.__new__, which has no Python hook: no checker call, no duplicate
    monkeypatch.setattr(paths, "_path", refused)
    model = generate_paths(rs, (1, 0, 1))
    assert len(set(model)) == len(model) == weyl_dim(rs, (1, 0, 1))


@pytest.mark.parametrize(
    "copier", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["copy", "deepcopy", "pickle"]
)
def test_paths_and_pairs_survive_copies(copier):
    for pair in generate_pairs(group_of("G2"), (1, 0))[::5]:
        for record in (pair.left, pair.right, pair):
            got = copier(record)
            assert got == record and hash(got) == hash(record) and type(got) is type(record)


def test_make_and_replace_check_a_path():
    path = next(p for p in generate_paths(group_of("A2").rs, (2, 1)) if p.den > 1 and any(p.end))
    assert LSPath._make(path) == path and path._replace() == path
    # durations over twice the denominator come back in lowest terms
    assert path._replace(steps=tuple(2 * s for s in path.steps), den=2 * path.den) == path
    with pytest.raises(ValueError, match="durations must sum to 1"):
        path._replace(den=path.den + 1)
    with pytest.raises(ValueError, match="durations must sum to 1"):
        LSPath._make((path.dirs, path.steps, 2 * path.den, path.shape, path.end))
    # the endpoint is checked against the other fields: a stale one is refused
    with pytest.raises(ValueError, match="is not the path's endpoint"):
        path._replace(end=tuple(x + 1 for x in path.end))
    with pytest.raises(ValueError, match="is not the path's endpoint"):
        path._replace(dirs=tuple(tuple(-c for c in d) for d in path.dirs))


@pytest.mark.parametrize("name, mu", [("A2", (1, 0)), ("B2", (1, 1)), ("G2", (0, 1)), ("A3", (1, 0, 1))])
def test_pair_mu_is_its_right_paths_shape(name, mu):
    g = group_of(name)
    pairs = generate_pairs(g, mu)
    assert PathPair._fields == ("left", "right")
    assert pairs and all(p.mu == p.right.shape == mu and p.left.shape == g.dual_weight(mu) for p in pairs)


def test_generate_pairs_names_the_callers_weight():
    g = group_of("A2")
    # checked before the dual is taken: the dual of (1, -1) is (-1, 1)
    with pytest.raises(ValueError, match=r"^weight \(1, -1\) is not dominant$"):
        generate_pairs(g, (1, -1))
    with pytest.raises(ValueError, match=r"^weight \(1,\) has length 1, not the rank 2$"):
        generate_pairs(g, (1,))


def test_generate_paths_refuses_an_endpoint_step_off_the_lattice(monkeypatch):
    # every cover admits every time, so A2 (1, 1) gets a chain whose endpoint moves by half a root at time 1/2
    rs = from_name("A2")  # a fresh root system, so no memoized model is reused
    real = paths._cover_table
    monkeypatch.setattr(paths, "_cover_table", lambda *args: [[(1, j) for _, j in row] for row in real(*args)])
    with pytest.raises(ValueError, match=r"not a lattice weight: entering \(-1, 2\) from \(-2, 1\) at time 1/2"):
        generate_paths(rs, (1, 1))


def weight_cover_table(rs, points, length, big):
    """The Bruhat covers of W/W_lam by weight arithmetic: covers[k] lists (q, j) for each cover of points[j] by points[k].

    The oracle for the permutation route of paths._cover_table: a cover is
    (s_beta mu, mu) with m = <mu, beta^vee> > 0 and length one more, the image
    s_beta mu found as a weight and looked up, and q = D_lam / gcd(D_lam, m).
    """
    index = {point: k for k, point in enumerate(points)}
    roots = [(norm_coroot(rs, beta), rootsys.root_combination(rs, beta)) for beta in rs.positive_roots]
    covers = [[] for _ in points]
    for j, mu in enumerate(points):
        for co, beta in roots:
            m = sum(map(mul, co, mu))
            if m > 0:
                k = index[tuple(x - m * b for x, b in zip(mu, beta))]
                if length[k] == length[j] + 1:
                    covers[k].append((big // gcd(big, m), j))
    return covers


# one regular weight of every supported type, then the field cases
COVER_CASES = [
    (name, (1,) * int(name[1]))
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]
] + FIELD_CASES


@pytest.mark.parametrize("name, lam", COVER_CASES)
def test_cover_table_matches_weight_arithmetic(name, lam):
    rs = group_of(name).rs
    table = rootsys.orbit_table(rs, lam)
    big = paths.shape_denominator(rs, lam)
    oracle = weight_cover_table(rs, list(table.points), [len(word) for word in table.words], big)
    covers = paths._cover_table(rs, table, big)
    assert list(map(set, covers)) == list(map(set, oracle))
    assert sum(map(len, covers)) == sum(map(len, oracle))


def test_generate_paths_leaves_no_reference_cycle():
    rs = from_name("C4")  # a fresh root system, so the model is built here
    gc.disable()
    try:
        gc.collect()
        generate_paths(rs, (0, 1, 0, 1))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_generate_paths_never_lowers(monkeypatch):
    rs = from_name("B3")  # a fresh root system, so no memoized model is reused

    def no_lowering(*args):
        raise AssertionError("generate_paths called _lower")

    monkeypatch.setattr(paths, "_lower", no_lowering)
    assert len(generate_paths(rs, (1, 1, 1))) == weyl_dim(rs, (1, 1, 1))


@pytest.mark.parametrize(
    "name, lam", [("A2", (2, 1)), ("G2", (2, 1)), ("A3", (1, 1, 1)), ("B3", (1, 0, 1)), ("F4", (0, 0, 0, 1))]
)
def test_model_comes_out_in_canonical_order(name, lam):
    # (direction, duration) pairs compared lexicographically, durations as numerators over D_lam
    rs = group_of(name).rs
    big = paths.shape_denominator(rs, lam)
    model = generate_paths(rs, lam)
    keys = [tuple(zip(p.dirs, (s * (big // p.den) for s in p.steps))) for p in model]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_path_refuses_no_segment():
    with pytest.raises(ValueError, match="^a path needs at least one segment$"):
        LSPath([], (1, 0))


@pytest.mark.parametrize("i", [0, 3])
def test_root_lower_refuses_an_index_out_of_range(i):
    rs = group_of("A2").rs
    with pytest.raises(ValueError, match=rf"^simple root index {i} out of range 1\.\.2$"):
        root_lower(rs, i, LSPath([((1, 0), 1)], (1, 0)))


def test_root_lower_names_direction_outside_orbit():
    rs = group_of("A2").rs
    # the orbit of (1, 0) is (1, 0), (-1, 1), (0, -1); the path still ends on a lattice weight
    path = LSPath([((-1, 1), HALF), ((3, -1), HALF)], (1, 0))
    with pytest.raises(ValueError, match=r"direction \(3, -1\) is not in the orbit of \(1, 0\)"):
        root_lower(rs, 1, path)


def test_orbit_table_reflects_and_pairs():
    rs = group_of("B2").rs
    table = rootsys.orbit_table(rs, (1, 1))
    assert table.points[0] == (1, 1) and len(table.points) == 8
    assert all(table.index[p] == k for k, p in enumerate(table.points))
    for c in range(rs.rank):
        alpha = rs.simple_root(c + 1)
        for k, p in enumerate(table.points):
            assert table.pair[c][k] == p[c]
            reflected = tuple(x - p[c] * a for x, a in zip(p, alpha))
            assert table.points[table.refl[c][k]] == reflected


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"])
def test_orbit_table_matches_the_stepwise_oracle(name):
    # the grid of coordinates <= 2 holds rho and every lam_J (0 on J, 1 elsewhere); a fresh root system
    # builds each table here
    rs = from_name(name)
    for lam in weight_grid(rs.rank, 2):
        table, oracle = rootsys.orbit_table(rs, lam), stepwise_orbit_table(rs, lam)
        for field in table._fields:
            assert getattr(table, field) == getattr(oracle, field), (lam, field)
        assert list(table.index) == list(oracle.index)


@pytest.mark.parametrize("name, shape", [("B2", (0, 1)), ("G2", (1, 0)), ("A3", (1, 0, 1)), ("C3", (0, 2, 0))])
def test_orbit_table_words_are_shortest(name, shape):
    g = group_of(name)
    table = rootsys.orbit_table(g.rs, shape)
    for point, word in zip(table.points, table.words):
        image = shape
        for letter in reversed(word):
            alpha = g.rs.simple_root(letter)
            image = tuple(x - image[letter - 1] * a for x, a in zip(image, alpha))
        assert image == point
        assert min(w.length for w in g.elements if w.act(shape) == point) == len(word)


def test_initial_direction_table_has_one_entry_per_coset():
    g = WeylGroup(from_name("F4"))
    shape = (0, 0, 0, 1)
    table = g._coset_table(shape)
    for path in generate_paths(g.rs, shape):
        assert initial_direction(g, path) is table[path.dirs[0]]
    # |W / W_lam| = 1152 / 48, the stabilizer of omega_4 being of type B3
    assert len(table) == 24
    assert set(table.values()) == set(descent_min_reps(g, {1, 2, 3}))


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_path_models_keep_their_bytes(monkeypatch):
    # sha256 over repr of every path's fields, for the 101 weights of the paths-rank4 benchmark in its query order
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks its module up there
    spec.loader.exec_module(workloads)
    digest, count = hashlib.sha256(), 0
    for name, lam in workloads.path_queries():
        for path in generate_paths(group_of(name).rs, lam):
            digest.update(repr(tuple(path)).encode())
            count += 1
    assert count == 20923
    assert digest.hexdigest() == "73d08e08fcd50be44f60c6b2b5072313d17c80c6a3c5673c3a6ff01c2b690c8c"


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_reach_matches_a_search_of_the_admitted_covers(name):
    rs = group_of(name).rs
    for lam in weight_grid(rs.rank, 2):
        graph = paths._chain_graph(rs, lam)
        assert list(graph.points) == sorted(rootsys.orbit_table(rs, lam).points)
        assert graph.den == paths.shape_denominator(rs, lam)
        reached = {}
        for s in range(1, graph.den):
            oracle = searched_reach(rs, lam, s)
            for k, tau in enumerate(graph.points):
                got = paths._reach(graph, reached, k, s)
                assert got == sorted(got) and {graph.points[j] for j in got} == oracle[tau], (lam, tau, s)
            # a time is admitted out of a point iff some cover out of it admits it
            assert [s in times for times in graph.admitted] == [any(s % q == 0 for q, _ in row) for row in graph.covers]


def test_generate_paths_reads_one_chain_graph_per_weight(monkeypatch):
    rs = from_name("B2")  # a fresh root system, so every graph and model is built here
    for lam in [(1, 0), (1, 1), (0, 2)]:
        before = paths._chain_graph.cache_info()
        model = generate_paths(rs, lam)
        mid = paths._chain_graph.cache_info()
        assert (mid.hits - before.hits, mid.misses - before.misses) == (0, 1)
        # the LS check of root_lower reads the same entry
        root_lower(rs, 1, model[0])
        after = paths._chain_graph.cache_info()
        assert (after.hits - mid.hits, after.misses - mid.misses) == (1, 0)
    # with the graph cached, the walk builds no covers of its own
    graph = paths._chain_graph(rs, (2, 1))

    def no_covers(*args):
        raise AssertionError("generate_paths built a cover table")

    monkeypatch.setattr(paths, "_cover_table", no_covers)
    assert len(generate_paths(rs, (2, 1))) == weyl_dim(rs, (2, 1))
    assert paths._chain_graph(rs, [2, 1]) is graph


def test_lowering_closure_reads_no_chain_graph(monkeypatch):
    # the root-operator route stays independent of the chains that path-count compares it with
    rs = from_name("G2")
    model = generate_paths(rs, (1, 1))

    def no_graph(*args):
        raise AssertionError("_lowering_closure read the chain graph")

    monkeypatch.setattr(paths, "_chain_graph", no_graph)
    assert paths._lowering_closure(rs, (1, 1)) == {(p.dirs, p.steps, p.den) for p in model}


@cache
def ls_rows() -> list[tuple[str, LSPath, str | None]]:
    """(group, path, refusal pattern or None): every path of every model up to max weight 2 on rank 2 and 1 on
    rank 3, accepted, then one A1 sequence that _path accepts though its directions rise from -4 to 4 at time 1/2."""
    rows = [
        (name, path, None)
        for name, bound in [("A2", 2), ("B2", 2), ("C2", 2), ("G2", 2), ("A3", 1), ("B3", 1), ("C3", 1)]
        for lam in weight_grid(int(name[1]), bound)
        for path in generate_paths(group_of(name).rs, lam)
    ]
    quarter = Fraction(1, 4)
    rise = LSPath([((-4,), quarter), ((4,), quarter), ((-4,), quarter), ((4,), quarter)], (4,))
    refusal = r"^not an LS path of shape \(4,\): no chain at its breakpoint 1/2 leads from \(4,\) to \(-4,\)$"
    return rows + [("A1", rise, refusal)]


def ls_verdicts() -> list[str | None]:
    """_is_ls on each row's path: None when accepted, else the refusal's message."""
    verdicts = []
    for name, path, _ in ls_rows():
        try:
            assert paths._is_ls(group_of(name).rs, path) is True
            verdicts.append(None)
        except ValueError as exc:
            verdicts.append(str(exc))
    return verdicts


def test_is_ls_accepts_every_model_path_and_refuses_a_rise():
    assert len(ls_rows()) == 3646
    for (name, path, refusal), verdict in zip(ls_rows(), ls_verdicts()):
        if refusal is None:
            assert verdict is None, (name, path)
        else:
            assert re.search(refusal, verdict), (name, path, verdict)
    # root_lower refuses the A1 sequence, which it used to lower to directions (-4, 4, -4) with steps (1, 1, 2)/4
    name, path, refusal = ls_rows()[-1]
    with pytest.raises(ValueError, match=refusal):
        root_lower(group_of(name).rs, 1, path)
    assert path not in generate_paths(group_of(name).rs, path.shape)


def test_is_ls_read_one_breakpoint_late_fails_a_row(monkeypatch):
    # the mutant checks tau_(k+1) against reach(tau_k, s_(k+1)): some row must tell it from the real check
    real = accumulate
    monkeypatch.setattr(paths, "accumulate", lambda *args: islice(real(*args), 1, None))
    wrong = [
        (name, path)
        for (name, path, refusal), verdict in zip(ls_rows(), ls_verdicts())
        if (verdict is None) != (refusal is None)
    ]
    assert wrong


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_lowering_leaves_no_equal_neighbours(name):
    # the census behind _lower's one merge, at max weight 2: where the reflected run ends, no lowering of an LS path
    # meets its next direction, so no result over any lowering closure has equal neighbours
    rs = group_of(name).rs
    for lam in weight_grid(rs.rank, 2):
        table = rootsys.orbit_table(rs, lam)
        big = paths.shape_denominator(rs, lam)
        seen = {((0,), (big,))}
        frontier = list(seen)
        while frontier:
            nxt = []
            for dirs, steps in frontier:
                for c in range(rs.rank):
                    low = paths._lower(table, c, dirs, steps, big)
                    if low is not None:
                        assert all(a != b for a, b in zip(low[0], low[0][1:])), (lam, dirs, steps, c)
                        if low not in seen:
                            seen.add(low)
                            nxt.append(low)
            frontier = nxt
        assert len(seen) == weyl_dim(rs, lam)
