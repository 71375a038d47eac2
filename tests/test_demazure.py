from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_reduced_words, group_of, weight_grid

from wondermono.demazure import apply_demazure, char_dim, demazure_character, weyl_dim


def test_string_rule_a1():
    g = group_of("A1")
    assert apply_demazure(g.rs, 1, {(2,): 1}) == {(2,): 1, (0,): 1, (-2,): 1}
    assert apply_demazure(g.rs, 1, {(3,): 2}) == {(3,): 2, (1,): 2, (-1,): 2, (-3,): 2}
    # pairing -1 contributes nothing
    assert apply_demazure(g.rs, 1, {(-1,): 1}) == {}
    # pairing below -1 subtracts the reflected string
    assert apply_demazure(g.rs, 1, {(-2,): 1}) == {(0,): -1}
    assert apply_demazure(g.rs, 1, {(-4,): 1}) == {(-2,): -1, (0,): -1, (2,): -1}


def test_string_rule_cancellation():
    g = group_of("A1")
    # D_1 applied to a full s1-string is the identity on it
    full = {(2,): 1, (0,): 1, (-2,): 1}
    assert apply_demazure(g.rs, 1, full) == full
    # e^0 is kept and e^-2 subtracts e^0 back out: a coefficient that cancels is dropped, not kept as 0
    assert apply_demazure(g.rs, 1, {(0,): 1, (-2,): 1}) == {}


def test_demazure_character_refuses_a_word_that_is_not_reduced():
    with pytest.raises(ValueError, match=r"^word \(1, 1\) is not reduced$"):
        demazure_character(group_of("A2"), [1, 1], (1, 0))


def test_identity_word():
    g = group_of("A2")
    assert demazure_character(g, (), (1, 1)) == {(1, 1): 1}
    assert demazure_character(g, g.identity.word, (2, 0)) == {(2, 0): 1}


def test_word_applies_rightmost_first():
    g = group_of("A2")
    lam = (1, 0)
    by_word = demazure_character(g, (2, 1), lam)
    manual = apply_demazure(g.rs, 2, apply_demazure(g.rs, 1, {lam: 1}))
    assert by_word == manual
    assert char_dim(by_word) == 3


def test_reduced_word_independence():
    for name, lam in [("A2", (1, 1)), ("A2", (2, 1)), ("B2", (1, 1))]:
        g = group_of(name)
        for el in g.elements:
            expected = demazure_character(g, el.word, lam)
            for word in all_reduced_words(g, el):
                assert demazure_character(g, word, lam) == expected


def test_element_argument_matches_word():
    g = group_of("B2")
    for el in g.elements:
        assert demazure_character(g, el, (1, 0)) == demazure_character(g, el.word, (1, 0))


def test_full_character_weyl_invariance():
    for name, lam in [("A2", (1, 1)), ("B2", (2, 0)), ("G2", (0, 1))]:
        g = group_of(name)
        char = demazure_character(g, g.longest, lam)
        for w in g.elements:
            assert {w.act(nu): c for nu, c in char.items()} == char


def test_char_dim_monotone_in_bruhat():
    for name in ["A2", "B2"]:
        g = group_of(name)
        lam = (1, 1)
        dims = {el: char_dim(demazure_character(g, el, lam)) for el in g.elements}
        for u in g.elements:
            for w in g.elements:
                if g.bruhat_leq(u, w):
                    assert dims[u] <= dims[w]


def test_weyl_dim_table():
    table = [
        ("A1", (3,), 4),
        ("A2", (1, 1), 8),
        ("A2", (2, 2), 27),
        ("B2", (1, 0), 5),
        ("B2", (0, 1), 4),
        ("B2", (1, 1), 16),
        ("B2", (2, 2), 81),
        ("C2", (1, 0), 4),
        ("C2", (0, 1), 5),
        ("G2", (1, 0), 7),
        ("G2", (0, 1), 14),
        ("G2", (1, 1), 64),
        ("G2", (2, 0), 27),
        ("G2", (0, 2), 77),
        ("G2", (2, 2), 729),
        ("A3", (1, 0, 0), 4),
        ("A3", (0, 1, 0), 6),
        ("B3", (1, 0, 0), 7),
        ("B3", (0, 0, 1), 8),
        ("C3", (1, 0, 0), 6),
        ("C3", (0, 0, 1), 14),
        ("D4", (1, 0, 0, 0), 8),
        ("D4", (0, 1, 0, 0), 28),
        ("F4", (1, 0, 0, 0), 52),
        ("F4", (0, 0, 0, 1), 26),
        ("A4", (0, 1, 0, 0), 10),
    ]
    for name, lam, dim in table:
        from wondermono.rootsys import from_name

        assert weyl_dim(from_name(name), lam) == dim


def test_longest_word_matches_weyl_dim():
    for name in ["A2", "B2", "G2"]:
        g = group_of(name)
        for lam in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            char = demazure_character(g, g.longest, lam)
            assert char_dim(char) == weyl_dim(g.rs, lam)
            assert min(char.values()) > 0


@pytest.mark.parametrize("name, i", [("A2", 0), ("A2", 3), ("B3", 0), ("B3", 4)])
def test_operator_index_out_of_range_is_refused(name, i):
    rs = group_of(name).rs
    with pytest.raises(ValueError, match=rf"^simple root index {i} out of range 1\.\.{rs.rank}$"):
        apply_demazure(rs, i, {(0,) * rs.rank: 1})


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"])
def test_dual_weight_has_the_same_dimension(name):
    # V(mu*) is the dual of V(mu), so a shape's pairs number (dim mu) ** 2 (monomials.pair_count)
    g = group_of(name)
    for mu in weight_grid(g.rank, 2):
        assert weyl_dim(g.rs, g.dual_weight(mu)) == weyl_dim(g.rs, mu)


def test_zero_weight():
    g = group_of("G2")
    assert demazure_character(g, g.longest, (0, 0)) == {(0, 0): 1}
    assert weyl_dim(g.rs, (0, 0)) == 1


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["A2", "B2"]), st.integers(1, 2), st.data())
def test_idempotent(name, i, data):
    g = group_of(name)
    weights = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    char = data.draw(st.dictionaries(weights, st.integers(-2, 2).filter(bool), max_size=4))
    once = apply_demazure(g.rs, i, char)
    assert apply_demazure(g.rs, i, once) == once
