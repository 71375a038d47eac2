from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_reduced_words, brute_bruhat_down, group_of

from wondermono.weyl import WeylGroup
from wondermono.rootsys import from_name

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
        assert u.matrix == v.matrix and u != v
    table = {el: "g" for el in g.elements} | {el: "h" for el in h.elements}
    assert len(table) == 2 * len(g)
    for u in g.elements:
        for v in g.elements:
            assert g.multiply(u, v) is g.from_word(u.word + v.word)


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


def test_descents():
    g = group_of("A2")
    w0 = g.longest
    assert g.right_descents(w0) == (1, 2)
    assert g.left_descents(w0) == (1, 2)
    s1 = g.simple(1)
    assert g.right_descents(s1) == (1,)
    assert g.left_descents(g.from_word((1, 2))) == (1,)
    assert g.right_descents(g.from_word((1, 2))) == (2,)


def test_simple_root_negated_matches_descents():
    for name in ["A2", "B2", "G2"]:
        g = group_of(name)
        for el in g.elements:
            negated = tuple(i for i in range(1, g.rank + 1) if g.simple_root_negated(el, i))
            assert negated == g.right_descents(el)


def test_bruhat_against_subword_oracle():
    for name in ["A2", "B2", "G2", "A3"]:
        g = group_of(name)
        for w in g.elements:
            expected = brute_bruhat_down(g, w)
            for u in g.elements:
                assert g.bruhat_leq(u, w) == (u in expected)


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


def test_dual_weight():
    assert group_of("A2").dual_weight((1, 0)) == (0, 1)
    assert group_of("A2").dual_weight((2, 1)) == (1, 2)
    assert group_of("B2").dual_weight((1, 2)) == (1, 2)
    assert group_of("G2").dual_weight((3, 1)) == (3, 1)
    assert group_of("A3").dual_weight((1, 2, 0)) == (0, 2, 1)
    assert group_of("D4").dual_weight((1, 2, 3, 4)) == (1, 2, 3, 4)


def test_subsets_order():
    g = group_of("A2")
    assert g.subsets() == [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]


def test_max_order_guard():
    with pytest.raises(ValueError):
        WeylGroup(from_name("F4"), max_order=100)


@settings(deadline=None)
@given(st.sampled_from(["A2", "B2", "G2"]), st.lists(st.integers(1, 2), max_size=8))
def test_from_word_folds(name, letters):
    g = group_of(name)
    word = tuple(letters)
    el = g.from_word(word)
    assert el.length <= len(word)
    acc = g.identity
    for i in word:
        acc = g.multiply(acc, g.simple(i))
    assert acc == el


@settings(deadline=None)
@given(st.sampled_from(["A2", "B2"]), st.data())
def test_product_inverse_property(name, data):
    g = group_of(name)
    u = data.draw(st.sampled_from(g.elements))
    v = data.draw(st.sampled_from(g.elements))
    assert g.inverse(g.multiply(u, v)) == g.multiply(g.inverse(v), g.inverse(u))
