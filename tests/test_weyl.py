from __future__ import annotations

import re
from itertools import product

import pytest

from conftest import (
    all_reduced_words,
    brute_bruhat_down,
    descent_min_reps,
    generated_parabolic,
    group_of,
    left_descents,
    simple_root_negated,
    stripped_coset_rep,
    subword_down,
)

from wondermono.paths import generate_paths, initial_direction
from wondermono.weyl import WeylGroup
from wondermono.rootsys import from_name, orbit_table

SUPPORTED = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]


def test_orders():
    for name, order in [("A1", 2), ("A2", 6), ("A3", 24), ("B2", 8), ("C2", 8), ("G2", 12), ("B3", 48), ("D4", 192)]:
        assert len(group_of(name)) == order


def test_a2_element_listing():
    g = group_of("A2")
    assert [el.word_str for el in g.elements] == ["e", "s1", "s2", "s1 s2", "s2 s1", "s1 s2 s1"]


def test_identity_and_longest():
    for name in ["A2", "B2", "G2", "A3"]:
        g = group_of(name)
        assert g.identity.length == 0
        assert g.longest.length == len(g.rs.positive_roots)
        assert g.multiply(g.longest, g.longest) == g.identity
        # longest element is the unique one of maximal length
        assert sum(1 for el in g.elements if el.length == g.longest.length) == 1


def test_canonical_words():
    for name in ["A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4"]:
        g = group_of(name)
        for el in g.elements:
            assert len(el.word) == el.length
            assert g.from_word(el.word) == el
            assert el.word == min(all_reduced_words(g, el))


@pytest.mark.parametrize("name", SUPPORTED)
def test_elements_in_canonical_order(name):
    g = group_of(name)
    keys = [(el.length, el.word) for el in g.elements]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for k, el in enumerate(g.elements):
        assert el.index == k
        assert g.from_word(el.word) is el


def test_elements_compare_by_identity():
    g, h = WeylGroup(from_name("A2")), WeylGroup(from_name("A2"))
    for u, v in zip(g.elements, h.elements):
        assert u.word == v.word and u != v
    table = {el: "g" for el in g.elements} | {el: "h" for el in h.elements}
    assert len(table) == 2 * len(g)
    for u in g.elements:
        for v in g.elements:
            assert g.multiply(u, v) is g.from_word(u.word + v.word)


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_elements_are_the_orbit_of_rho(name):
    g = group_of(name)
    table = orbit_table(g.rs, g.rs.rho())
    assert [g.inverse(el).act(g.rs.rho()) for el in g.elements] == list(table.points)


def test_from_word_unreduced():
    g = group_of("A2")
    assert g.from_word((1, 1)) == g.identity
    assert g.from_word((1, 2, 1, 1)) == g.from_word((1, 2))
    with pytest.raises(ValueError):
        g.from_word((0,))
    with pytest.raises(ValueError):
        g.from_word((3,))


def test_simple_reflection_action():
    g = group_of("B2")
    s1 = g.simple(1)
    # s_i fixes the other fundamental weight and subtracts the root's column
    assert s1.act((1, 0)) == (-1, 2)
    assert s1.act((0, 1)) == (0, 1)


def test_multiply_matches_action():
    g = group_of("G2")
    probe = (1, 2)
    for u in g.elements:
        for v in g.elements:
            assert g.multiply(u, v).act(probe) == u.act(v.act(probe))


def test_inverse():
    for name in ["A2", "B2", "G2"]:
        g = group_of(name)
        for el in g.elements:
            assert g.multiply(el, g.inverse(el)) == g.identity
            assert g.inverse(el).length == el.length


def test_a_fresh_group_builds_its_inverses_on_first_read():
    g = WeylGroup(from_name("B3"))
    for p in generate_paths(g.rs, (1, 0, 1)):
        initial_direction(g, p)
    assert "_inverses" not in g.memo  # the path model never reads them
    inverses = g.inverses
    assert g.memo["_inverses"] == {None: inverses}
    assert g.inverses is inverses
    assert [g.multiply(el, g.elements[inverses[el.index]]) for el in g.elements] == [g.identity] * len(g)


def test_descents():
    g = group_of("A2")
    w0 = g.longest
    assert g.right_descents(w0) == (1, 2)
    assert left_descents(g, w0) == (1, 2)
    s1 = g.simple(1)
    assert g.right_descents(s1) == (1,)
    assert left_descents(g, g.from_word((1, 2))) == (1,)
    assert g.right_descents(g.from_word((1, 2))) == (2,)


def test_simple_root_negated_matches_descents():
    # the descents and the word text are kept on each element from their first read: a second read is the same object
    for name in SUPPORTED:
        g = group_of(name)
        for el in g.elements:
            negated = tuple(i for i in range(1, g.rank + 1) if simple_root_negated(g, el, i))
            assert negated == g.right_descents(el)
            assert g.right_descents(el) is g.right_descents(el)
            assert el.word_str == (" ".join(f"s{i}" for i in el.word) or "e")
            assert el.word_str is el.word_str


def test_bruhat_against_subword_oracle():
    for name in ["A2", "B2", "G2", "A3"]:
        g = group_of(name)
        for w in g.elements:
            expected = brute_bruhat_down(g, w)
            for u in g.elements:
                assert g.bruhat_leq(u, w) == (u in expected)


@pytest.mark.parametrize("name", ["B3", "C3", "D4", "F4"])
def test_down_mask_matches_subword_walk(name):
    # the intervals come from the lifting property; the subword walk is an independent route
    g = group_of(name)
    assert [g.down_mask(w) for w in g.elements] == [subword_down(g, w) for w in g.elements]


def test_bruhat_basics():
    g = group_of("B2")
    for u in g.elements:
        assert g.bruhat_leq(g.identity, u)
        assert g.bruhat_leq(u, g.longest)
        for w in g.elements:
            if g.bruhat_leq(u, w) and g.bruhat_leq(w, u):
                assert u == w
            if g.bruhat_leq(u, w) and u != w:
                assert u.length < w.length


def test_min_coset_rep():
    g = group_of("A2")
    w = g.from_word((1, 2, 1))
    assert g.min_coset_rep(w, {1}).word == (1, 2)
    assert g.min_coset_rep(w, {2}).word == (2, 1)
    assert g.min_coset_rep(w, {1, 2}) == g.identity
    assert g.min_coset_rep(g.identity, {1}) == g.identity


def test_coset_structure():
    for name in ["A2", "B2"]:
        g = group_of(name)
        for subset in g.subsets():
            para = g.parabolic_elements(subset)
            reps = g.min_coset_reps(subset)
            assert len(para) * len(reps) == len(g)
            for el in para:
                assert set(el.word) <= subset
            for w in g.elements:
                x, y = g.coset_decompose(w, subset)
                assert x in reps and y in para
                assert g.multiply(x, y) == w
                assert x.length + y.length == w.length
                assert g.min_coset_rep(w, subset) == x


def test_min_coset_reps_frozen():
    g = group_of("A2")
    assert [el.word_str for el in g.min_coset_reps(frozenset({1}))] == ["e", "s2", "s1 s2"]
    assert [el.word_str for el in g.min_coset_reps(frozenset({1, 2}))] == ["e"]


def test_parabolic_min_reps():
    g = group_of("A2")
    assert [el.word_str for el in g.parabolic_min_reps({1}, {1})] == ["e"]
    assert [el.word_str for el in g.parabolic_min_reps({1, 2}, {1})] == ["e", "s2", "s1 s2"]
    got = g.parabolic_min_reps({1, 2}, frozenset())
    assert got == g.elements
    for name in ["B2", "G2"]:
        h = group_of(name)
        for big in h.subsets():
            for small in h.subsets():
                if not small <= big:
                    continue
                sel = h.parabolic_min_reps(big, small)
                manual = [
                    el
                    for el in h.parabolic_elements(big)
                    if not set(h.right_descents(el)) & set(small)
                ]
                assert list(sel) == manual


ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_cosets_match_descent_oracles(name):
    g = group_of(name)
    parabolic = {I: generated_parabolic(g, I) for I in g.subsets()}
    for J in g.subsets():
        assert list(g.min_coset_reps(J)) == descent_min_reps(g, J)
        assert list(g.parabolic_elements(J)) == parabolic[J]
        for I in g.subsets():
            assert list(g.parabolic_min_reps(I, J)) == descent_min_reps(g, J, parabolic[I])
        for w in g.elements:
            assert g.min_coset_rep(w, J) is stripped_coset_rep(g, w, J)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_coset_entry_points_reject_a_subset_out_of_range(name):
    g = group_of(name)
    entry_points = [
        g.min_coset_reps,
        g.parabolic_elements,
        lambda J: g.parabolic_min_reps(J, ()),
        lambda J: g.parabolic_min_reps((), J),
        lambda J: g.min_coset_rep(g.longest, J),
        lambda J: g.coset_decompose(g.longest, J),
    ]
    for call in entry_points:
        call({1})  # a valid call first: a refusal must not depend on what is cached
        for bad in (0, g.rank + 1):
            with pytest.raises(ValueError, match=rf"subset \[{bad}\] is not contained in 1\.\.{g.rank}"):
                call({bad})
    negative, long = (-1,) + (0,) * (g.rank - 1), (1,) * (g.rank + 1)
    with pytest.raises(ValueError, match=f"^{re.escape(f'weight {negative} is not dominant')}$"):
        g._coset_table(negative)
    message = f"weight {long} has length {g.rank + 1}, not the rank {g.rank}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        g._coset_table(long)


@pytest.mark.parametrize("i", [0, 3])
def test_generators_refuse_an_index_out_of_range(i):
    g = group_of("A2")
    with pytest.raises(ValueError, match=rf"^simple reflection index {i} out of range 1\.\.2$"):
        g.simple(i)
    with pytest.raises(ValueError, match=rf"^generator index {i} out of range 1\.\.2$"):
        g.from_word((1, i))


def test_check_subset_returns_the_groups_own_subset_itself():
    g = WeylGroup(from_name("A2"))
    for I in g.subsets():
        assert g._check_subset(I) is I
    # an equal frozenset made elsewhere is still read member by member: {True} is {1}, and {1.0} is refused
    one = g.subsets()[1]
    assert g._check_subset(frozenset({True})) is one
    assert g._check_subset(frozenset({1})) is one
    with pytest.raises(ValueError, match=r"^subset \[1\.0\] is not contained in 1\.\.2$"):
        g._check_subset(frozenset({1.0}))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_times_longest_is_right_multiplication_by_w0(name):
    # the oracle reads a w0 off the orbit of rho: the point of a w0 is w0 applied to the point of a, and w0 sends
    # each fundamental weight omega_i to -omega_sigma(i), sigma being the diagram involution that -w0 induces, so
    # coordinate j of w0(p) is -p[sigma(j)]
    g = group_of(name)
    table = orbit_table(g.rs, g.rs.rho())
    sigma = [g.dual_weight(tuple(int(i == j) for j in range(g.rank))).index(1) for i in range(g.rank)]
    oracle = tuple(g.elements[table.index[tuple(-p[s] for s in sigma)]] for p in table.points)
    assert g._times_longest() == oracle


def test_coset_entry_points_read_a_subset_as_ints_cold_and_warm():
    g = group_of("A2")
    entry_points = [
        g.min_coset_reps,
        g.parabolic_elements,
        lambda J: g.parabolic_min_reps(J, ()),
        lambda J: g.parabolic_min_reps((), J),
        lambda J: g.min_coset_rep(g.longest, J),
        lambda J: g.coset_decompose(g.longest, J),
    ]
    for call in entry_points:
        # True is the int 1: the same answer as {1}
        assert call({True}) == call({1})
        # 1.0 and "1" are refused although {1} is now cached, and leave no entry of their own
        for bad, shown in ((1.0, "[1.0]"), ("1", "['1']")):
            with pytest.raises(ValueError, match=f"^subset {re.escape(shown)} is not contained in 1..2$"):
                call({bad})
    # every table is keyed by the checked subset, so each member of a key is an int, never the bool True
    tables = {"_subset_weight", "_min_coset_reps", "_parabolic_min_reps"}
    assert tables <= set(g.memo) and all(g.memo[name] for name in tables)
    subsets = [*g.memo["_subset_weight"], *g.memo["_min_coset_reps"]]
    subsets += [J for IJ in g.memo["_parabolic_min_reps"] for J in IJ]
    assert {1} in subsets and {type(i) for J in subsets for i in J} == {int}
    # and is the group's own object for that subset
    assert all(J is g._subsets()[J] for J in subsets)


# each table kept per subset reads the subset once, where its reader checks it: a one-shot iterator is neither read
# as empty by the table's body nor stored under the subset it named
def test_min_coset_reps_reads_a_one_shot_subset_once():
    g = WeylGroup(from_name("A2"))  # a fresh group, so the iterator meets no cached entry
    assert [el.word_str for el in g.min_coset_reps(iter([1]))] == ["e", "s2", "s1 s2"]
    assert [el.word_str for el in g.min_coset_reps([1])] == ["e", "s2", "s1 s2"]


def test_parabolic_min_reps_reads_one_shot_subsets_once():
    g = WeylGroup(from_name("A2"))
    assert [el.word_str for el in g.parabolic_min_reps(iter([1, 2]), iter([1]))] == ["e", "s2", "s1 s2"]
    assert [el.word_str for el in g.parabolic_min_reps([1, 2], [1])] == ["e", "s2", "s1 s2"]


def test_subset_weight_reads_a_one_shot_subset_once():
    g = WeylGroup(from_name("A2"))
    assert g.min_coset_rep(g.longest, iter([1])).word_str == "s1 s2"
    assert g._subset_weight(g._check_subset([1])) == (0, 1)
    assert len(g.min_coset_reps([1])) == 3


def test_dual_weight():
    assert group_of("A2").dual_weight((1, 0)) == (0, 1)
    assert group_of("A2").dual_weight((2, 1)) == (1, 2)
    assert group_of("B2").dual_weight((1, 2)) == (1, 2)
    assert group_of("G2").dual_weight((3, 1)) == (3, 1)
    assert group_of("A3").dual_weight((1, 2, 0)) == (0, 2, 1)
    assert group_of("D4").dual_weight((1, 2, 3, 4)) == (1, 2, 3, 4)


@pytest.mark.parametrize("weight", [(1, 0, 0), (1,)])
def test_action_refuses_a_weight_of_the_wrong_length(weight):
    # a long weight is not truncated, and a short one fails with the same message, not on an index
    g = group_of("A2")
    with pytest.raises(ValueError, match=f"has length {len(weight)}, not the rank 2"):
        g.dual_weight(weight)
    with pytest.raises(ValueError, match="not the rank 2"):
        g.simple(1).act(weight)


def test_subsets_order():
    g = group_of("A2")
    assert g.subsets() == [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]


def test_from_word_folds():
    # every word over {1, 2} of length at most 8, on A2, B2 and G2: 1,533 cases
    words = [word for n in range(9) for word in product((1, 2), repeat=n)]
    for name in ["A2", "B2", "G2"]:
        g = group_of(name)
        for word in words:
            el = g.from_word(word)
            assert el.length <= len(word)
            acc = g.identity
            for i in word:
                acc = g.multiply(acc, g.simple(i))
            assert acc == el


def test_product_inverse_property():
    # every pair (u, v) of A2 and of B2: 100 cases
    for name in ["A2", "B2"]:
        g = group_of(name)
        for u, v in product(g.elements, repeat=2):
            assert g.inverse(g.multiply(u, v)) == g.multiply(g.inverse(v), g.inverse(u))
