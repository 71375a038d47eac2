from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from conftest import group_of, poset_of, weight_grid

from wondermono import monomials, verify
from wondermono.demazure import demazure_character, weyl_dim
from wondermono.monomials import (
    GradedTable,
    MonomialIndex,
    basis_indices,
    candidate_count,
    correction_support,
    graded_counts,
    is_basis_index,
    is_standard_on_closure,
    is_standard_on_components,
    nonstandard_components,
    nonstandard_orbits,
    standard_rows,
)
from wondermono.orbits import OrbitLabel, build_poset, schubert_pairs
from wondermono.paths import (
    LSPath,
    PathPair,
    generate_pairs,
    generate_paths,
    initial_direction,
    pair_directions,
    pair_weight,
    straight_path,
)
from wondermono.rootsys import RootSystemError, dominant_below, from_name, support
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
    fresh = WeylGroup(g.rs)  # nothing memoized yet
    calls = []
    real = monomials.dominant_below
    monkeypatch.setattr(monomials, "dominant_below", lambda rs, w: calls.append(w) or real(rs, w))
    for w, (basis, table) in zip(words, expected):
        z = lab(fresh, *w)
        assert basis_indices(z, list(lam)) == basis
        assert graded_counts(z, lam) == table
    assert calls == [lam]
    with pytest.raises(ValueError):
        basis_indices(lab(fresh, *words[0]), (1, -1))


def test_library_accepts_list_and_set_inputs():
    g = group_of("A2")
    lam = (1, 1)
    expected = basis_indices(OrbitLabel(frozenset({1}), g.identity, g.longest), lam)
    for stratum in ({1}, [1], (1,)):
        assert basis_indices(OrbitLabel(stratum, g.identity, g.longest), lam) == expected
    assert monomials.shapes_below(g, [1, 1]) is monomials.shapes_below(g, (1, 1))


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


def test_correction_support_requires_nonstandard():
    g = group_of("A1")
    z = lab(g, (1,), (), ())
    with pytest.raises(ValueError):
        correction_support(a1_pair((2,), (2,)), z, (2,))


def test_correction_support_nonempty():
    g = group_of("A1")
    z = lab(g, (1,), (), ())
    pair = a1_pair((0,), (0,))
    assert not is_standard_on_closure(pair, z)
    support = correction_support(pair, z, (2,))
    assert len(support) == 1
    idx = support[0]
    assert idx.powers == (1,)
    assert idx.mu == (0,)
    assert pair_weight(idx.pair) == pair_weight(pair) == ((0,), (0,))


def test_correction_support_empty_when_weights_mismatch():
    g = group_of("A1")
    z = lab(g, (1,), (), ())
    pair = a1_pair((0,), (-2,))
    assert not is_standard_on_closure(pair, z)
    assert correction_support(pair, z, (2,)) == ()


def test_is_basis_index():
    g = group_of("A1")
    z = lab(g, (1,), (), ())
    lam = (2,)
    members = basis_indices(z, lam)
    for idx in members:
        assert is_basis_index(z, lam, idx)
    # wrong exponents for the shape gap
    broken = MonomialIndex((1,), members[0].mu, members[0].pair)
    assert not is_basis_index(z, lam, broken)
    # shape of the pair must match the index shape
    crossed = MonomialIndex((1,), (0,), members[0].pair)
    assert not is_basis_index(z, lam, crossed)
    # nonstandard pairs are excluded
    outside = MonomialIndex((0,), (2,), a1_pair((0,), (0,)))
    assert not is_basis_index(z, lam, outside)
    # every enumerated index of the boundary orbit is recognized there too
    boundary = lab(g, (), (), (1,))
    for idx in basis_indices(boundary, lam):
        assert is_basis_index(boundary, lam, idx)
        assert idx.powers == (0,)
    # paths of the wrong shapes, on the open orbit of A2: the left path must have shape -w0(mu), the right mu
    g = group_of("A2")
    top = lab(g, (1, 2), (), (1, 2, 1))
    lam = (1, 1)
    p = generate_paths(g.rs, (1, 0))[0]
    q = generate_paths(g.rs, lam)[0]
    for left, right in [(p, p), (q, p), (p, q)]:
        wrong = MonomialIndex((0, 0), lam, PathPair(left, right))
        assert wrong not in basis_indices(top, lam)
        assert not is_basis_index(top, lam, wrong)
    # a path of the right shape that is not in the path model
    stray = LSPath([((1, 1), Fraction(1, 2)), ((-1, -1), Fraction(1, 2))], lam)
    outside_model = MonomialIndex((0, 0), lam, PathPair(q, stray))
    assert outside_model not in basis_indices(top, lam)
    assert not is_basis_index(top, lam, outside_model)


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


@pytest.mark.parametrize("lam", [(1.0, 1), [1, Fraction(1)]])
def test_non_integer_weight_is_refused_cold_and_warm(lam):
    rs = from_name("A2")  # fresh: the first round finds no memo entry, the second finds those of (1, 1)
    g = WeylGroup(rs)
    z = lab(g, (1, 2), (), (1, 2, 1))
    idx = basis_indices(poset_of("A2").maximum, (1, 1))[0]  # from another group, so nothing of rs or g is built
    calls = [
        partial(weyl_dim, rs),
        partial(straight_path, rs),
        partial(dominant_below, rs),
        partial(generate_paths, rs),
        partial(generate_pairs, g),
        partial(demazure_character, g, g.longest),
        partial(basis_indices, z),
        partial(graded_counts, z),
        partial(candidate_count, z),
        lambda lam: is_basis_index(z, lam, idx),
    ]
    message = f"^{re.escape(f'weight {lam} has a coordinate that is not an integer')}$"
    for _ in ("cold", "warm"):
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call(lam)
        for call in calls:
            call((1, 1))  # lam equals (1, 1) and hashes as it, so every memo now holds lam's key


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
    assert list(g.memo["candidate_block"]) == [((4,), (0,))]
    assert len(g.memo["candidate_block"][(4,), (0,)]) == candidate_count(z, (4,)) == 25


def test_run_suite_releases_its_memo(monkeypatch):
    built = []

    def record(rs):
        built.append(WeylGroup(rs))
        return built[-1]

    monkeypatch.setattr(verify, "WeylGroup", record)
    assert verify.suite_passed(verify.run_suite("G", 2, 2))
    (group,) = built
    assert not group.memo and not group.rs.memo


@pytest.mark.parametrize("lam", [(1, 1, 5), (1,)])
def test_weights_of_the_wrong_length_are_refused(lam):
    g = group_of("A2")
    top = OrbitLabel(frozenset({1, 2}), g.identity, g.longest)
    for call in (lambda: basis_indices(top, lam), lambda: graded_counts(top, lam), lambda: dominant_below(g.rs, lam)):
        with pytest.raises(RootSystemError, match="weight length must equal the rank"):
            call()
