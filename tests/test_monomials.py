from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain, groupby
from operator import is_

import pytest

from conftest import group_of, memo_contents, poset_of, scanned_basis, weight_grid

import wondermono
from wondermono import monomials, orbits, rootsys, verify
from wondermono.demazure import demazure_character, weyl_dim
from wondermono.monomials import (
    GradedTable,
    MonomialIndex,
    basis_indices,
    candidate_count,
    graded_counts,
    is_standard_on_closure,
    is_standard_on_components,
    nonstandard_components,
    nonstandard_orbits,
    pair_count,
    shape_classes,
    standard_rows,
    stratum_shapes,
)
from wondermono.orbits import OrbitLabel, build_poset, schubert_pairs
from wondermono.paths import (
    LSPath,
    PathPair,
    generate_pairs,
    generate_paths,
    initial_direction,
    pair_directions,
    path_directions,
    shape_denominator,
)
from wondermono.rootsys import (
    RootSystemError,
    dominance_diff,
    dominant_below,
    exponent_bounds,
    from_name,
    orbit_table,
    support,
)
from wondermono.weyl import WeylGroup


def lab(g, stratum, xword, wword):
    return OrbitLabel(frozenset(stratum), g.from_word(xword), g.from_word(wword))


def a1_pair(left_end, right_end):
    g = group_of("A1")
    for p in generate_pairs(g, (2,)):
        if p.left.endpoint() == left_end and p.right.endpoint() == right_end:
            return p
    raise AssertionError("no such pair")


def test_counts_a1():
    g = group_of("A1")
    lam = (2,)
    maximum = lab(g, (1,), (), (1,))
    boundary = lab(g, (), (), (1,))
    interior = lab(g, (1,), (), ())
    assert len(basis_indices(maximum, lam)) == 10
    assert len(basis_indices(boundary, lam)) == 9
    assert len(basis_indices(interior, lam)) == 6


def test_a1_index_listing():
    g = group_of("A1")
    z = lab(g, (1,), (), ())
    rows = [
        (idx.powers, idx.mu, idx.pair.left.endpoint(), idx.pair.right.endpoint())
        for idx in basis_indices(z, (2,))
    ]
    assert rows == [
        ((0,), (2,), (0,), (2,)),
        ((0,), (2,), (-2,), (2,)),
        ((0,), (2,), (2,), (0,)),
        ((0,), (2,), (2,), (-2,)),
        ((0,), (2,), (2,), (2,)),
        ((1,), (0,), (0,), (0,)),
    ]
    for idx in basis_indices(z, (2,)):
        assert idx.degree == sum(idx.powers)


def test_graded_counts_a1():
    g = group_of("A1")
    assert graded_counts(lab(g, (1,), (), ()), (2,)).rows == ((0, 5), (1, 1))
    assert graded_counts(lab(g, (), (), ()), (2,)).rows == ((0, 3),)
    table = graded_counts(lab(g, (1,), (), (1,)), (2,))
    assert table.total() == 10
    assert table.count(0) == 9
    assert table.count(5) == 0


def test_graded_zero_row():
    # degree 1 is admissible for the stratum but carries no dominant shape
    g = group_of("A2")
    top = poset_of("A2").maximum
    table = graded_counts(top, (1, 1))
    assert table.rows == ((0, 64), (1, 0), (2, 1))
    assert table.total() == 65
    assert len(basis_indices(top, (1, 1))) == 65


def test_graded_table_helpers():
    table = GradedTable(rows=((0, 2), (1, 0), (2, 7)))
    assert table.total() == 9
    assert table.count(2) == 7
    assert table.count(3) == 0


def test_rejects_non_dominant_weight():
    g = group_of("A1")
    with pytest.raises(ValueError):
        basis_indices(lab(g, (), (), ()), (-1,))


def test_empty_components_admit_nothing():
    g = group_of("A1")
    pair = a1_pair((2,), (2,))
    assert is_standard_on_components(g, pair, ()) is False


def scan_pairs(g, mu, cap=300):
    """Every pair of shape mu, or one pair per initial-direction class above cap.

    Both standardness routes read a pair only through its two initial
    directions, so one pair per class still reaches every entry of the table
    that the shape can.
    """
    pairs = generate_pairs(g, mu)
    if len(pairs) <= cap:
        return pairs
    seen = {}
    for p in pairs:
        seen.setdefault((initial_direction(g, p.left), initial_direction(g, p.right)), p)
    return tuple(seen.values())


def check_against_scan(g, labels, shapes):
    for mu in shapes:
        pairs = scan_pairs(g, mu)
        for z in labels:
            comps = schubert_pairs(z)
            for pair in pairs:
                assert is_standard_on_closure(pair, z) == is_standard_on_components(g, pair, comps)
            basis = basis_indices(z, mu)
            recount = Counter(idx.degree for idx in basis)
            table = graded_counts(z, mu)
            assert [d for d, _ in table.rows] == list(range(len(table.rows)))
            assert set(recount) <= set(range(len(table.rows)))
            assert dict(table.rows) == {d: recount[d] for d in range(len(table.rows))}


def test_standard_matches_component_scan():
    g = group_of("A1")
    check_against_scan(g, poset_of("A1").labels, [(0,), (1,), (2,)])


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_standard_matches_component_scan_rank2(name):
    g = group_of(name)
    check_against_scan(g, poset_of(name).labels, weight_grid(2, 1))


def test_standard_matches_component_scan_a3():
    g = group_of("A3")
    labels = poset_of("A3").labels
    check_against_scan(g, labels[::37], [(1, 0, 1)])


def test_nonstandard_locus_matches_component_scan_b2():
    g = group_of("B2")
    poset = poset_of("B2")
    for mu in weight_grid(2, 1):
        for pair in generate_pairs(g, mu):
            locus = [z for z in poset.labels if not is_standard_on_components(g, pair, schubert_pairs(z))]
            assert nonstandard_orbits(pair, poset) == locus
            mask = 0
            for z in locus:
                mask |= 1 << poset.index[z]
            assert nonstandard_components(pair, poset) == poset.maximal_of_mask(mask)


def test_dominant_below_runs_once_per_weight(monkeypatch):
    lam = (2, 1)
    words = [((1, 2), (), (1, 2, 1)), ((1,), (), (2,)), ((), (), ())]
    g = group_of("A2")
    expected = [(basis_indices(lab(g, *w), lam), graded_counts(lab(g, *w), lam)) for w in words]
    fresh = WeylGroup(from_name("A2"))  # a fresh root system too, which keeps dominant_below: nothing memoized yet
    calls = []
    # the search reads its box through rootsys' own binding, once per run of dominant_below's body
    real = rootsys.exponent_bounds
    monkeypatch.setattr(rootsys, "exponent_bounds", lambda rs, w: calls.append(w) or real(rs, w))
    misses = dominant_below.cache_info().misses
    for w, (basis, table) in zip(words, expected):
        z = lab(fresh, *w)
        assert basis_indices(z, list(lam)) == basis
        assert graded_counts(z, lam) == table
    assert dominant_below.cache_info().misses == misses + 1
    assert calls == [list(lam)]  # once, passed the first caller's own weight as a miss is
    with pytest.raises(ValueError):
        basis_indices(lab(fresh, *words[0]), (1, -1))


def test_library_accepts_list_and_set_inputs():
    g = group_of("A2")
    lam = (1, 1)
    expected = basis_indices(OrbitLabel(frozenset({1}), g.identity, g.longest), lam)
    for stratum in ({1}, [1], (1,)):
        assert basis_indices(OrbitLabel(stratum, g.identity, g.longest), lam) == expected
    assert dominant_below(g.rs, [1, 1]) is dominant_below(g.rs, (1, 1))


@pytest.mark.parametrize("name", ["A2", "A3", "G2"])
def test_pair_count_counts_the_generated_pairs(name):
    g = group_of(name)
    for mu in weight_grid(g.rank, 1):
        assert pair_count(g, mu) == len(generate_pairs(g, mu))


def test_candidate_count_matches_pairs():
    g = group_of("A2")
    lam = (1, 1)
    top = lab(g, (1, 2), (), (1, 2, 1))
    assert candidate_count(top, lam) == len(basis_indices(top, lam))
    for z in [top, lab(g, (2,), (), ()), lab(g, (), (1, 2, 1), ())]:
        expected = sum(
            len(generate_pairs(g, mu)) for mu, n in dominant_below(g.rs, lam) if support(n) <= z.stratum
        )
        assert candidate_count(z, lam) == expected


def test_nonstandard_loci_build_no_standard_table(monkeypatch):
    g = group_of("A2")
    poset = build_poset(g)  # fresh, so nothing is read from an earlier poset

    def refuse(z):
        raise AssertionError(f"a nonstandard locus built the standard table of {z}")

    monkeypatch.setattr(monomials, "standard_rows", refuse)
    for pair in generate_pairs(g, (1, 1)):
        locus = [z for z in poset.labels if not is_standard_on_components(g, pair, schubert_pairs(z))]
        assert nonstandard_orbits(pair, poset) == locus
        mask = 0
        for z in locus:
            mask |= 1 << poset.index[z]
        assert nonstandard_components(pair, poset) == poset.maximal_of_mask(mask)


def check_closed_orbit_identity(g, poset, labels):
    """(a, b) is standard on z exactly when the closed orbit [0, a w0, b] lies in z's closure."""
    rows = [standard_rows(z) for z in labels]
    down = [poset.down_mask(z) for z in labels]
    for a, el in enumerate(g.elements):
        x = g.multiply(el, g.longest)
        for b, w in enumerate(g.elements):
            c = poset.index[OrbitLabel(frozenset(), x, w)]
            assert [r[a] >> b & 1 for r in rows] == [d >> c & 1 for d in down], (el, w)


@pytest.mark.parametrize(
    "name, count", [("A1", 6), ("A2", 78), ("B2", 136), ("C2", 136), ("G2", 300), ("A3", 1800), ("B3", 7056)]
)
def test_standard_rows_are_the_union_over_schubert_pairs(name, count):
    # the table read off the lifts, on every label, against the reference route: down(L) x down(R) for each pair
    g = group_of(name)
    labels = all_labels(g)
    assert len(labels) == count
    for z in labels:
        rows = [0] * len(g)
        for c in schubert_pairs(z):
            left, right = g.down_mask(c.left), g.down_mask(c.right)
            for a in range(len(g)):
                if left >> a & 1:
                    rows[a] |= right
        assert standard_rows(z) == tuple(rows), z


def test_a_standard_table_builds_no_product_row_beyond_the_lifts():
    # on F4, 1,152 elements: the lifts read the rows of x and w, and the table itself reads none
    g = WeylGroup(from_name("F4"))
    z = lab(g, (1, 2), (), (3, 4))
    assert len(list(orbits._lifts(z, ()))) == 6
    g.memo.clear()
    standard_rows(z)
    assert set(g.memo["product_row"]) == {z.x.index, z.w.index}


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_standard_set_is_closed_stratum_slice(name):
    poset = poset_of(name)
    check_closed_orbit_identity(group_of(name), poset, poset.labels)


def test_standard_set_is_closed_stratum_slice_b3():
    g = group_of("B3")
    poset = build_poset(g, max_labels=7056)
    check_closed_orbit_identity(g, poset, poset.labels[::47])


def test_nonstandard_locus_a1():
    g = group_of("A1")
    poset = poset_of("A1")
    pair = a1_pair((2,), (0,))  # straight left, lowered right
    assert nonstandard_orbits(pair, poset) == [lab(g, (), (), ()), lab(g, (), (1,), ())]
    assert nonstandard_components(pair, poset) == [lab(g, (), (), ())]
    straight = a1_pair((2,), (2,))
    assert nonstandard_orbits(straight, poset) == []
    assert nonstandard_components(straight, poset) == []


def test_nonstandard_locus_downward_closed():
    g = group_of("B2")
    poset = poset_of("B2")
    for pair in generate_pairs(g, (1, 0)):
        bad = set(nonstandard_orbits(pair, poset))
        for z in bad:
            for below in poset.below(z):
                assert below in bad


def test_is_basis_index():
    g = group_of("A1")
    z = lab(g, (1,), (), ())
    lam = (2,)
    members = basis_indices(z, lam)
    # wrong exponents for the shape gap
    assert MonomialIndex((1,), members[0].mu, members[0].pair) not in members
    # shape of the pair must match the index shape
    assert MonomialIndex((1,), (0,), members[0].pair) not in members
    # nonstandard pairs are excluded
    assert MonomialIndex((0,), (2,), a1_pair((0,), (0,))) not in members
    # the boundary orbit's indices carry no boundary exponent
    assert all(idx.powers == (0,) for idx in basis_indices(lab(g, (), (), (1,)), lam))
    # paths of the wrong shapes, on the open orbit of A2: the left path must have shape -w0(mu), the right mu
    g = group_of("A2")
    top = lab(g, (1, 2), (), (1, 2, 1))
    lam = (1, 1)
    p = generate_paths(g.rs, (1, 0))[0]
    q = generate_paths(g.rs, lam)[0]
    for left, right in [(p, p), (q, p), (p, q)]:
        assert MonomialIndex((0, 0), lam, PathPair(left, right)) not in basis_indices(top, lam)
    # a path of the right shape that is not in the path model
    stray = LSPath([((1, 1), Fraction(1, 2)), ((-1, -1), Fraction(1, 2))], lam)
    assert MonomialIndex((0, 0), lam, PathPair(q, stray)) not in basis_indices(top, lam)


def test_stratum_restricts_exponents():
    g = group_of("A2")
    z = lab(g, (1,), (), (2,))
    for idx in basis_indices(z, (1, 1)):
        assert idx.powers[1] == 0


def test_basis_monotone_under_closure():
    g = group_of("A1")
    poset = poset_of("A1")
    lam = (2,)
    sets = {z: set(basis_indices(z, lam)) for z in poset.labels}
    for z2 in poset.labels:
        for z1 in poset.below(z2):
            assert sets[z1] <= sets[z2]


@pytest.mark.parametrize("name", ["B2", "G2"])
def test_pair_class_decides_both_standardness_routes(name):
    # verify scans one pair per class (a, b); this is what makes that sound
    g = group_of(name)
    poset = poset_of(name)
    label_comps = [schubert_pairs(z) for z in poset.labels]
    pairs = generate_pairs(g, (1, 1))
    by_class = {}  # what the class's first pair gave on both routes
    for pair in pairs:
        got = (
            nonstandard_components(pair, poset),
            [is_standard_on_components(g, pair, comps) for comps in label_comps],
        )
        assert by_class.setdefault((initial_direction(g, pair.left), initial_direction(g, pair.right)), got) == got
    assert len(by_class) < len(pairs)


def test_graded_counts_build_no_pair(monkeypatch):
    g = WeylGroup(group_of("A3").rs)  # fresh, so nothing is read from an earlier memo

    def refuse(group, mu):
        raise AssertionError(f"graded_counts built the pairs of shape {mu}")

    monkeypatch.setattr(monomials, "generate_pairs", refuse)
    lam = (1, 1, 1)
    assert graded_counts(lab(g, (1, 2, 3), (), g.longest.word), lam).rows == ((0, 4096), (1, 0), (2, 200), (3, 36))
    assert graded_counts(lab(g, (2,), (), (1, 3)), lam).rows == ((0, 697),)
    assert graded_counts(lab(g, (), (), (2, 1)), lam).rows == ((0, 320),)


def direct_filter(z, lam):
    """basis_indices as one Python test per candidate pair, building each index anew."""
    g = z.group
    rows = standard_rows(z)
    return tuple(
        MonomialIndex(nvec, mu, p)
        for mu, nvec in dominant_below(g.rs, lam)
        if support(nvec) <= z.stratum
        for p, (a, b) in zip(generate_pairs(g, mu), pair_directions(g, mu))
        if rows[a] >> b & 1
    )


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_selection_matches_direct_filter(name):
    # the grid includes the zero weight, where each side has a single path
    g = group_of(name)
    for lam in weight_grid(g.rank, 1):
        for z in poset_of(name).labels:
            assert basis_indices(z, lam) == direct_filter(z, lam), (z, lam)


def test_selection_matches_direct_filter_a3():
    # every label: many share a row value of their tables, which the selection reads once per shape
    g = group_of("A3")
    labels = [OrbitLabel(I, x, w) for I in g.subsets() for x in g.min_coset_reps(I) for w in g.elements]
    assert len(labels) == 1800
    for z in labels:
        assert basis_indices(z, (1, 1, 1)) == direct_filter(z, (1, 1, 1)), z


def budget_weights(g, bound: int = 2) -> list:
    """The grid weights up to bound whose open-orbit candidates fit verify's candidate budget."""
    top = OrbitLabel(frozenset(range(1, g.rank + 1)), g.identity, g.longest)
    return [lam for lam in weight_grid(g.rank, bound) if candidate_count(top, lam) <= verify.CANDIDATE_BUDGET]


def all_labels(g) -> list[OrbitLabel]:
    return [OrbitLabel(I, x, w) for I in g.subsets() for x in g.min_coset_reps(I) for w in g.elements]


def assert_same_objects(got, want, where) -> None:
    assert len(got) == len(want) and all(map(is_, got, want)), where


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_run_selection_matches_the_candidate_scan(name):
    # same indices, same order, the same shared objects, on every label at every grid weight within budget
    g = group_of(name)
    for lam in budget_weights(g):
        for z in all_labels(g):
            assert_same_objects(basis_indices(z, lam), scanned_basis(z, lam), (z, lam))


@pytest.mark.parametrize("name, count", [("A3", 1800), ("B3", 7056)])
def test_run_selection_matches_the_candidate_scan_rank3(name, count):
    g = group_of(name)
    labels = all_labels(g)
    assert len(labels) == count
    for lam in budget_weights(g):
        for z in labels[::60]:
            assert_same_objects(basis_indices(z, lam), scanned_basis(z, lam), (z, lam))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
def test_runs_are_the_distinct_left_directions(name):
    # generate_paths groups a shape's paths by initial direction, so a direction starts one run only
    g = group_of(name)
    top = OrbitLabel(frozenset(range(1, g.rank + 1)), g.identity, g.longest)
    for lam in weight_grid(g.rank, 2 if g.rank == 2 else 1):
        lefts = path_directions(g, g.dual_weight(lam))
        assert [a for a, _ in groupby(lefts)] == list(dict.fromkeys(lefts)), lam
    for lam in budget_weights(g):
        for mu, nvec, sc in stratum_shapes(top, lam):
            runs = sc.runs(nvec)
            assert sc is shape_classes(g, mu), mu
            assert sc.dirs == tuple(dict.fromkeys(path_directions(g, g.dual_weight(mu)))), mu
            # the runs carry every pair of the shape, in generate_pairs order, without a gap or an overlap
            chained = tuple(chain.from_iterable(p.run for p in runs))
            assert tuple(idx.pair for idx in chained) == generate_pairs(g, mu)
            assert all(idx.powers == nvec and idx.mu == mu for idx in chained)


def test_a_full_selection_is_the_run_itself_and_an_empty_one_is_empty():
    g = WeylGroup(group_of("B2").rs)  # fresh, so every row value below is read here
    for mu, nvec in dominant_below(g.rs, (1, 1)):
        for picks in shape_classes(g, mu).runs(nvec):
            assert picks[(1 << len(g)) - 1] is picks.run  # every bit set selects every right path
            assert picks[0] == ()
            assert list(picks) == [(1 << len(g)) - 1, 0]


def test_list_and_tuple_weights_agree():
    for z in poset_of("B2").labels[::7]:
        for lam in [(1, 1), (0, 2)]:
            assert basis_indices(z, list(lam)) == basis_indices(z, lam)
            assert graded_counts(z, list(lam)) == graded_counts(z, lam)
            assert candidate_count(z, list(lam)) == candidate_count(z, lam)
    # a list weight finds the tuple's memo entry, so the indices are the same objects
    top = poset_of("B2").maximum
    assert all(a is b for a, b in zip(basis_indices(top, [1, 1]), basis_indices(top, (1, 1))))


def test_non_dominant_weight_raises_on_every_call_before_any_memo_lookup():
    g = WeylGroup(group_of("A2").rs)  # fresh, so every memo table a call reaches would show up
    z = lab(g, (1, 2), (), (1, 2, 1))
    before = {name: dict(table) for name, table in g.memo.items()}
    for lam in [(1, -1), [1, -1]]:
        for call in (basis_indices, graded_counts, candidate_count):
            for _ in range(2):
                with pytest.raises(ValueError, match=f"^{re.escape(f'weight {lam} is not dominant')}$"):
                    call(z, lam)
    assert {name: dict(table) for name, table in g.memo.items()} == before


REFUSED_WEIGHTS = [
    ((1.0, 1), "has a coordinate that is not an integer"),
    ([1, Fraction(1)], "has a coordinate that is not an integer"),
    ((1,), "has length 1, not the rank 2"),
    ((1, 1, 5), "has length 3, not the rank 2"),
    ((1, -1), "is not dominant"),
]


@pytest.mark.parametrize("lam, words", [pytest.param(*case, id=f"lam{k}") for k, case in enumerate(REFUSED_WEIGHTS)])
def test_non_integer_weight_is_refused_cold_and_warm(lam, words):
    rs = from_name("A2")  # fresh: the first round finds no memo entry, the second finds those of (1, 1)
    g = WeylGroup(rs)
    z = lab(g, (1, 2), (), (1, 2, 1))
    dominant = [
        partial(weyl_dim, rs),
        partial(shape_denominator, rs),
        partial(dominant_below, rs),
        partial(exponent_bounds, rs),
        partial(orbit_table, rs),
        partial(generate_paths, rs),
        partial(generate_pairs, g),
        partial(pair_count, g),
        partial(shape_classes, g),
        partial(stratum_shapes, z),
        partial(basis_indices, z),
        partial(graded_counts, z),
        partial(candidate_count, z),
    ]
    any_sign = [
        partial(demazure_character, g, g.longest),
        g.dual_weight,
        partial(dominance_diff, rs, (1, 1)),
        lambda lam: dominance_diff(rs, lam, (0, 0)),
    ]
    refusing = dominant if words == "is not dominant" else dominant + any_sign
    message = f"^{re.escape(f'weight {lam} {words}')}$"
    for _ in ("cold", "warm"):
        for call in refusing:
            before = memo_contents(rs, g)
            with pytest.raises(RootSystemError, match=message):
                call(lam)
            assert memo_contents(rs, g) == before
        if words == "is not dominant":
            for call in any_sign:
                call(lam)  # these take a weight of either sign
        for call in refusing:
            call((1, 1))  # every memo now holds the key of (1, 1)


@pytest.mark.parametrize(
    "name", ["generate_paths", "generate_pairs", "basis_indices", "graded_counts", "dominant_below", "weyl_dim"]
)
def test_exported_weight_entry_points_refuse_a_float_weight_when_warm(name):
    # each checks its weight before any memo lookup, as every table keyed by rootsys.weight_key does
    rs = from_name("A2")
    g = WeylGroup(rs)
    top = OrbitLabel(frozenset({1, 2}), g.identity, g.longest)
    owner = {"generate_pairs": g, "basis_indices": top, "graded_counts": top}.get(name, rs)
    call = partial(getattr(wondermono, name), owner)
    call((1, 1))
    with pytest.raises(RootSystemError, match=re.escape("weight (1.0, 1) has a coordinate that is not an integer")):
        call((1.0, 1))


def test_labels_share_their_indices():
    g = group_of("B2")
    lam = (1, 1)
    top = poset_of("B2").maximum
    shared = {idx: idx for idx in basis_indices(top, lam)}
    for z in [lab(g, (1,), (), (1, 2)), lab(g, (), (1,), (2, 1)), lab(g, (2,), (), ())]:
        basis = basis_indices(z, lam)
        assert basis and all(shared[idx] is idx for idx in basis)
        assert all(a is b for a, b in zip(basis, basis_indices(z, lam)))


def test_second_query_builds_no_index(monkeypatch):
    lam = (1, 1)
    words = [((1, 2), (), (1, 2, 1)), ((1,), (), (2,)), ((), (1,), (2, 1)), ((2,), (), ())]
    expected = [basis_indices(lab(group_of("A2"), *w), lam) for w in words]
    fresh = WeylGroup(group_of("A2").rs)  # nothing memoized yet
    assert basis_indices(lab(fresh, *words[0]), lam) == expected[0]

    def refuse(*args):
        raise AssertionError("a query built a MonomialIndex")

    monkeypatch.setattr(monomials, "MonomialIndex", refuse)
    for w, basis in zip(words, expected):
        assert basis_indices(lab(fresh, *w), lam) == basis


def test_first_query_builds_only_admitted_blocks():
    # the closed orbit admits shape lam alone, so candidate_count bounds what it builds
    g = WeylGroup(group_of("A1").rs)  # nothing memoized yet
    z = lab(g, (), (), ())
    basis_indices(z, (4,))
    assert list(g.memo["shape_classes"]) == [(4,)]
    sc = g.memo["shape_classes"][(4,)]
    assert sc.runs.cache_info().currsize == 1  # one exponent vector, (0,)
    assert sum(len(picks.run) for picks in sc.runs((0,))) == candidate_count(z, (4,)) == 25


PER_LABEL_TABLES = {"standard_rows", "schubert_pairs", "_lift_rows", "down_mask", "down_indices", "product_row"}


def _shape_tables(g) -> list[dict]:
    """Every memo table of g and its root system that is kept per weight or per shape, not per label or element."""
    owners = memo_contents(g.rs, g)
    return [{name: table for name, table in owner.items() if name not in PER_LABEL_TABLES} for owner in owners]


@pytest.mark.parametrize("query", [basis_indices, graded_counts])
def test_a_second_label_of_a_stratum_reads_only_the_stratum_table(query):
    # once a stratum's first query has run, a query on another label of it reads stratum_shapes once, and
    # neither reads nor fills a table kept per shape
    g = WeylGroup(from_name("B2"))  # fresh, with a fresh root system
    lam = (1, 1)
    first, second = lab(g, (1, 2), (), (1, 2, 1, 2)), lab(g, (1, 2), (), (2, 1))
    query(first, lam)
    shapes = stratum_shapes(first, lam)

    def shape_state():
        return _shape_tables(g), shape_classes.cache_info(), [sc.runs.cache_info().misses for _, _, sc in shapes]

    before, table_info = shape_state(), stratum_shapes.cache_info()
    query(second, lam)
    assert standard_rows(second) != standard_rows(first)
    assert shape_state() == before
    after = stratum_shapes.cache_info()
    assert (after.hits, after.misses) == (table_info.hits + 1, table_info.misses)


def test_candidate_count_builds_no_class_or_path_model():
    g = WeylGroup(from_name("B2"))  # fresh, with a fresh root system
    top = OrbitLabel(frozenset({1, 2}), g.identity, g.longest)
    assert candidate_count(top, (1, 1)) == sum(pair_count(g, mu) for mu, _ in dominant_below(g.rs, (1, 1)))
    tables = {name for owner in (g, g.rs) for name, table in owner.memo.items() if table}
    assert tables.isdisjoint({"generate_paths", "generate_pairs", "path_directions", "shape_classes"})


def test_run_suite_releases_its_memo(monkeypatch):
    built = []

    def record(rs):
        built.append(WeylGroup(rs))
        return built[-1]

    monkeypatch.setattr(verify, "WeylGroup", record)
    assert all(r.ok for r in verify.run_suite("G", 2, 2))
    (group,) = built
    assert not group.memo and not group.rs.memo


@pytest.mark.parametrize("lam", [(1, 1, 5), (1,)])
def test_weights_of_the_wrong_length_are_refused(lam):
    g = group_of("A2")
    top = OrbitLabel(frozenset({1, 2}), g.identity, g.longest)
    message = f"^{re.escape(f'weight {lam} has length {len(lam)}, not the rank 2')}$"
    for call in (lambda: basis_indices(top, lam), lambda: graded_counts(top, lam), lambda: dominant_below(g.rs, lam)):
        with pytest.raises(RootSystemError, match=message):
            call()
