"""The verify suite bounds its own precomputation and fails where it should."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import reduce
from operator import or_
from pathlib import Path

import pytest

from conftest import weight_grid

from wondermono import cli, monomials, orbits, paths, rootsys, verify, weyl
from wondermono.orbits import build_poset
from wondermono.rootsys import exponent_bounds, from_name
from wondermono.verify import run_suite
from wondermono.weyl import WeylGroup, bits


def test_box_budget_skips_weights_before_enumerating(monkeypatch):
    monkeypatch.setattr(verify, "BOX_BUDGET", 3)
    rs = from_name("A2")
    grid = weight_grid(2, 2)
    over = {lam for lam in grid if math.prod(b + 1 for b in exponent_bounds(rs, lam)) > 3}
    assert 0 < len(over) < len(grid)
    calls = []
    real = monomials.dominant_below
    monkeypatch.setattr(monomials, "dominant_below", lambda rs, lam: calls.append(tuple(lam)) or real(rs, lam))
    results = run_suite("A", 2, 2)
    detail = {r.name: r.detail for r in results}
    note = f"{len(grid) - len(over)} weights, {len(over)} skipped over budget"
    assert detail["dominance-order"] == note
    assert detail["basis-counts"] == note
    # once per weight within budget, never on a skipped one
    assert sorted(calls) == sorted(set(grid) - over)
    assert all(r.ok for r in results)


def test_grid_budget_refuses_before_building_the_grid(capsys):
    with pytest.raises(ValueError, match="100000000 weights"):
        run_suite("F", 4, 99)
    assert cli.main(["verify", "--group", "F4", "--max-weight", "99"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "100000000 weights" in captured.err


@pytest.mark.parametrize("max_weight", [1.0, 1.5, "1", None])
def test_run_suite_refuses_a_max_weight_that_is_not_an_integer(max_weight):
    with pytest.raises(ValueError, match=f"^{re.escape(f'max weight must be an integer, got {max_weight!r}')}$"):
        run_suite("A", 2, max_weight)


def test_the_poset_is_built_once_inside_the_first_check_that_reads_it(monkeypatch):
    built = []
    real = verify.build_poset
    monkeypatch.setattr(verify, "build_poset", lambda group: built.append(group) or real(group))
    at_start = {}

    def counting(name, check):
        def wrapped(*args):
            at_start.setdefault(name, len(built))
            return check(*args)

        return wrapped

    # path-demazure is the last check before orbit-census, the first that reads the poset; a check's
    # inputs are read before its function is entered
    for name in ("check_path_demazure", "check_orbit_census", "check_poset_axioms"):
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    for runs in (1, 2):
        assert all(r.ok for r in run_suite("A", 2, 1))
        assert len(built) == runs
    assert at_start == {"check_path_demazure": 0, "check_orbit_census": 1, "check_poset_axioms": 1}


def test_a_refused_poset_skips_each_check_that_reads_it(monkeypatch):
    counted = []
    real = verify.build_poset

    def refused(group):
        counted.append(group)
        return real(group, max_labels=10)  # A2 has 78 labels: refused as they are counted, before any is built

    monkeypatch.setattr(verify, "build_poset", refused)
    results = run_suite("A", 2, 1)
    note = "orbit poset of A2 has 78 labels, beyond the supported envelope (10)"
    skipped = [r.name for r in results if r.status == "skip"]
    assert skipped == [
        "orbit-census", "poset-axioms", "poset-extremes", "closure-crosscheck", "stratum-slices",
        "graded-tables", "index-monotonicity", "nonstandard-locus", "standard-intersection",
    ]  # fmt: skip
    assert {r.detail for r in results if r.status == "skip"} == {note}
    assert len(counted) == len(skipped)  # a refusal is not kept: each read counts again
    assert all(r.status == "pass" for r in results if r.name not in skipped)


def test_path_demazure_reads_the_full_character_at_w0(monkeypatch):
    calls = []
    real = verify.demazure_character
    monkeypatch.setattr(verify, "demazure_character", lambda g, w, lam: calls.append((w, lam)) or real(g, w, lam))
    results = run_suite("A", 2, 2)
    assert all(r.ok for r in results)
    longest = [lam for w, lam in calls if w is w.group.longest]
    assert sorted(longest) == sorted(set(longest)) == weight_grid(2, 2)  # once per weight and run


def test_graded_tables_fails_on_index_under_no_component(monkeypatch):
    monkeypatch.setattr(verify, "schubert_pairs", lambda z: ())
    result = {r.name: r for r in run_suite("A", 1, 1)}["graded-tables"]
    assert result.status == "fail"
    assert result.detail == "a basis index of [{},e,e] at (0,) lies under no component"


def test_nonstandard_locus_fails_on_a_dropped_component(monkeypatch):
    real = verify.nonstandard_components
    monkeypatch.setattr(verify, "nonstandard_components", lambda pair, poset: real(pair, poset)[:-1])
    result = {r.name: r for r in run_suite("A", 2, 1)}["nonstandard-locus"]
    assert result.status == "fail"
    assert result.detail == "nonstandard locus at shape (1, 1) is not the union of its components"


def test_nonstandard_locus_fails_on_a_component_dropped_from_one_label(monkeypatch):
    # [{1},e,s1 s2] of A2 has two components; run_suite builds its own group, so the label is matched by its words
    real = verify.schubert_pairs
    key = (frozenset({1}), (), (1, 2))
    monkeypatch.setattr(
        verify, "schubert_pairs", lambda z: real(z)[:-1] if (z.stratum, z.x.word, z.w.word) == key else real(z)
    )
    target = next(z for z in build_poset(WeylGroup(from_name("A2"))).labels if (z.stratum, z.x.word, z.w.word) == key)
    assert len(real(target)) == 2
    result = {r.name: r for r in run_suite("A", 2, 1)}["nonstandard-locus"]
    assert result.status == "fail"
    assert result.detail == "nonstandard locus at shape (1, 1) is not the union of its components"


def test_component_route_names_the_label_whose_components_are_emptied(monkeypatch):
    # only [{1},e,s2 s1] of A2 loses its Schubert pairs; run_suite builds its own group, so the label is matched by
    # its words.  The library's table reads monomials' own schubert_pairs, so only the component route and the
    # slices see the change
    real = verify.schubert_pairs
    key = (frozenset({1}), (), (2, 1))
    monkeypatch.setattr(verify, "schubert_pairs", lambda z: () if (z.stratum, z.x.word, z.w.word) == key else real(z))
    failures = {r.name: r.detail for r in run_suite("A", 2, 1) if r.status == "fail"}
    assert failures == {
        "graded-tables": "a basis index of [{1},e,s2 s1] at (0, 0) lies under no component",
        "nonstandard-locus": "nonstandard locus at shape (1, 1) is not the union of its components",
        "stratum-slices": "Schubert pairs of [{1},e,s2 s1] disagree with the empty slice",
    }


@pytest.mark.parametrize("emptied", [False, True])
def test_graded_tables_reads_a_copied_pair_by_its_directions(monkeypatch, emptied):
    # graded-tables finds a candidate's class by the pair object's id; an equal pair that is another
    # object is read through its initial directions, with the same decision and the same witness
    real_basis = verify.basis_indices

    def copied(i):
        return i._replace(pair=paths.PathPair(i.pair.left, i.pair.right))

    monkeypatch.setattr(verify, "basis_indices", lambda z, lam: tuple(map(copied, real_basis(z, lam))))
    if emptied:
        real = verify.schubert_pairs

        def emptied_at_one_label(z):
            return () if (z.stratum, z.x.word, z.w.word) == (frozenset({1}), (), (2, 1)) else real(z)

        monkeypatch.setattr(verify, "schubert_pairs", emptied_at_one_label)
    result = {r.name: r for r in run_suite("A", 2, 1)}["graded-tables"]
    if emptied:
        assert result.status == "fail"
        assert result.detail == "a basis index of [{1},e,s2 s1] at (0, 0) lies under no component"
    else:
        assert result.status == "pass"


@pytest.mark.parametrize(
    "name, mutate, failures",
    [
        (
            "closure_leq",
            lambda real: lambda z1, z2: False if not z1.w.word else real(z1, z2),
            {"closure-crosscheck": "direct criterion and poset disagree on [{},e,e] <= [{},e,e]"},
        ),
        (
            "stratum_components",
            lambda real: lambda z, target: real(z, target)[:-1],
            {"stratum-slices": "slice of [{},e,e] to [] has wrong components"},
        ),
        (
            "basis_indices",
            lambda real: lambda z, lam: real(z, lam)[:-1] if sum(lam) == 2 else real(z, lam),
            {
                "basis-counts": "64 indices on the full space at (1, 1), expected 65",
                "graded-tables": "graded total differs from basis size on [{},e,e] at (1, 1)",
            },
        ),
    ],
    ids=["closure-leq-false-at-w-e", "slice-drops-last-component", "basis-drops-last-index-at-degree-2"],
)
def test_checks_fail_on_a_mutated_library_route(monkeypatch, name, mutate, failures):
    monkeypatch.setattr(verify, name, mutate(getattr(verify, name)))
    assert {r.name: r.detail for r in run_suite("A", 2, 1) if r.status == "fail"} == failures


@pytest.mark.parametrize("letter, max_weight, lam, shapes, dominant", [("A", 1, (1, 1), 1, 2), ("B", 2, (0, 2), 2, 3)])
def test_dominance_order_fails_when_dominant_below_drops_its_last_shape(
    monkeypatch, letter, max_weight, lam, shapes, dominant
):
    # basis-counts reads the shapes on both of its sides, so only the character route sees the loss
    real = monomials.dominant_below
    monkeypatch.setattr(
        monomials, "dominant_below", lambda rs, w: (lambda s: s[:-1] if len(s) > 1 else s)(real(rs, w))
    )
    assert {r.name: r.detail for r in run_suite(letter, 2, max_weight) if r.status == "fail"} == {
        "dominance-order": f"dominant_below({lam}) gives {shapes} shapes, its character {dominant} dominant weights"
    }


def _nonstandard_with_a_label_below(real):
    """nonstandard_components with the minimum appended to a nonempty list: the union is unchanged, no antichain."""
    return lambda pair, poset: (lambda comps: comps + [poset.minimum] if comps else comps)(real(pair, poset))


def _graded_with_an_index_moved_to_row_0(real):
    """graded_counts with one index moved from the last row to row 0: the total and the degrees are unchanged."""

    def moved(z, lam):
        table = real(z, lam)
        if len(table.rows) < 2:
            return table
        (d0, c0), *middle, (dn, cn) = table.rows
        return monomials.GradedTable(((d0, c0 + 1), *middle, (dn, cn - 1)))

    return moved


def _poset_with_the_middle_label_not_below_itself(real):
    def irreflexive(group):
        p = real(group)
        m = len(p) // 2
        p._down[m] &= ~(1 << m)
        return p

    return irreflexive


def _decomposition_with_the_parabolic_part_inverted(real):
    """coset_decompose returning (x, y^-1): the lengths still add and y^-1 stays in W_I, so only x y = w breaks."""
    return lambda self, w, I: (lambda x, y: (x, self.inverse(y)))(*real(self, w, I))


def _graded_with_every_degree_raised(real):
    """graded_counts with every row one degree up: the total and the per-row counts are unchanged."""
    return lambda z, lam: monomials.GradedTable(tuple((d + 1, c) for d, c in real(z, lam).rows))


@pytest.mark.parametrize(
    "module, name, mutate, letter, check, detail",
    [
        (
            rootsys,
            "_saturate_roots",
            lambda real: lambda c: real(c)[:-1],
            "A",
            "root-data",
            "2 positive roots, expected 3",
        ),
        (
            rootsys,
            "_symmetrizer",
            lambda real: lambda c: (1,) * len(c),
            "B",
            "root-data",
            "symmetrized Cartan matrix asymmetric at (0, 1)",
        ),
        # the group is enumerated as the orbit of a singular weight, so it comes out as a coset space
        (
            weyl,
            "orbit_table",
            lambda real: lambda rs, lam: real(rs, tuple(lam[:-1]) + (0,)),
            "A",
            "group-order",
            "group order 3, expected 6",
        ),
        (
            weyl.WeylGroup,
            "min_coset_reps",
            lambda real: lambda self, J: real(self, J)[:-1] if J else real(self, J),
            "A",
            "orbit-census",
            "60 labels, index formula gives 78",
        ),
        # the component (w0, w0) of the dense orbit [{1},e,w0] of a G x G-orbit closure, dropped in the library's
        # route: the lift (e, w0) to the closed stratum, whose left factor times w0 is w0
        (
            monomials,
            "_lifts",
            lambda real: lambda z, J: (
                lift for lift in real(z, J) if z.stratum != {1} or lift != (z.group.identity, z.group.longest)
            ),
            "A",
            "basis-counts",
            "0 indices on the closure of [{1},e,s1 s2 s1] at (0, 0), expected 1",
        ),
        # the exponents of every strict difference, one too high in the first coordinate
        (
            verify,
            "dominance_diff",
            lambda real: lambda rs, lam, mu: (lambda n: (n[0] + 1,) + n[1:] if n and any(n) else n)(real(rs, lam, mu)),
            "A",
            "dominance-order",
            "dominance_diff disagrees at (1, 1) -> (0, 0)",
        ),
        (
            verify,
            "nonstandard_components",
            _nonstandard_with_a_label_below,
            "A",
            "nonstandard-locus",
            "nonstandard components at shape (1, 1) are not an antichain",
        ),
        (
            verify,
            "graded_counts",
            _graded_with_an_index_moved_to_row_0,
            "A",
            "graded-tables",
            "graded row 0 of [{1,2},e,e] at (1, 1) miscounts",
        ),
        (
            verify,
            "build_poset",
            _poset_with_the_middle_label_not_below_itself,
            "A",
            "poset-axioms",
            "not reflexive at [{1},e,s1 s2]",
        ),
        # a product that drops the last letter of its right factor: w0 w0 is then a simple reflection
        (
            weyl.WeylGroup,
            "multiply",
            lambda real: lambda self, u, v: real(self, u, self.from_word(v.word[:-1])),
            "A",
            "group-order",
            "longest element is not an involution",
        ),
        # each simple reflection spelled with its letter three times: the order and w0 stay, lengths 1 become 3
        (
            weyl.WeylElement,
            "__init__",
            lambda real: lambda self, group, k, word: real(self, group, k, word * 3 if len(word) == 1 else word),
            "A",
            "group-order",
            "length distribution not palindromic at 0",
        ),
        # every coset's representative read as the identity: w = e w, whose parabolic part is w itself
        (
            weyl.WeylGroup,
            "min_coset_rep",
            lambda real: lambda self, w, J: self.identity,
            "A",
            "coset-structure",
            "parabolic part of s1 leaves I=[]",
        ),
        (
            weyl.WeylGroup,
            "coset_decompose",
            _decomposition_with_the_parabolic_part_inverted,
            "A",
            "coset-structure",
            "decomposition of s1 s2 at I=[1, 2] broken",
        ),
        # the dominance filter passes every weight, so dominant_below keeps the whole exponent box
        (
            rootsys,
            "is_dominant",
            lambda real: lambda lam: True,
            "A",
            "dominance-order",
            "dominant_below((1, 1)) produced non-dominant (2, -1)",
        ),
        # each shape's exponents one too high in the first coordinate, while the shape is kept
        (
            monomials,
            "dominant_below",
            lambda real: lambda rs, lam: [(mu, (n[0] + 1,) + n[1:]) for mu, n in real(rs, lam)],
            "A",
            "dominance-order",
            "exponents (1, 0) do not connect (0, 0) to (0, 0)",
        ),
        # the paths of the dual shape, reversed coordinates on A2: as many paths, of the wrong shape
        (
            verify,
            "generate_paths",
            lambda real: lambda rs, lam: real(rs, lam[::-1]),
            "A",
            "path-count",
            "path of shape (1, 0) generated for (0, 1)",
        ),
        (
            orbits.OrbitPoset,
            "maximum",
            lambda real: orbits.OrbitPoset.minimum,
            "A",
            "poset-extremes",
            "maximum is [{},s1 s2 s1,e], expected [{1,2},e,s1 s2 s1]",
        ),
        (
            orbits.OrbitPoset,
            "dim",
            lambda real: lambda self, z: real(self, z) + 1,
            "A",
            "poset-extremes",
            "maximum has the wrong dimension",
        ),
        (
            orbits.OrbitPoset,
            "minimum",
            lambda real: orbits.OrbitPoset.maximum,
            "A",
            "poset-extremes",
            "minimum is [{1,2},e,s1 s2 s1] of dimension 8",
        ),
        # the component (w0, w0) of every label of the empty stratum dropped, as its lift (e, w0): the closed
        # stratum loses its index
        (
            monomials,
            "_lifts",
            lambda real: lambda z, J: (
                lift for lift in real(z, J) if z.stratum or lift != (z.group.identity, z.group.longest)
            ),
            "A",
            "basis-counts",
            "0 indices on the closed stratum at (0, 0), expected 1",
        ),
        (
            verify,
            "graded_counts",
            _graded_with_every_degree_raised,
            "A",
            "graded-tables",
            "graded rows of [{},e,e] at (0, 0) are not contiguous from zero",
        ),
    ],
    ids=[
        "root-dropped",
        "symmetrizer-trivial",
        "group-as-singular-orbit",
        "coset-rep-dropped",
        "closure-pair-dropped",
        "dominance-diff-off-by-one",
        "nonstandard-component-below-another",
        "graded-index-moved-to-row-0",
        "poset-label-not-below-itself",
        "product-drops-last-letter",
        "simple-reflection-word-not-reduced",
        "coset-rep-is-identity",
        "parabolic-part-inverted",
        "dominance-filter-passes-all",
        "exponents-off-by-one",
        "paths-of-the-dual-shape",
        "maximum-is-the-minimum",
        "dimension-off-by-one",
        "minimum-is-the-maximum",
        "closed-stratum-pair-dropped",
        "graded-degrees-raised",
    ],
)
def test_structure_checks_fail_on_a_mutated_library_name(monkeypatch, module, name, mutate, letter, check, detail):
    # the mutation breaks more than one check; only the named one's detail is pinned
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    result = {r.name: r for r in run_suite(letter, 2, 1)}[check]
    assert (result.status, result.detail) == ("fail", detail)


def test_component_masks_read_only_schubert_pairs_and_down_masks():
    # the reference route shares no table with the library's standard tables
    g = WeylGroup(from_name("B2"))
    labels = build_poset(g).labels
    classes = [(a, b) for a in range(len(g)) for b in range(len(g))]
    verify.component_masks(g, labels, classes)
    assert {"schubert_pairs", "down_mask"} <= set(g.memo)
    assert not {"standard_rows", "down_indices", "_times_longest"} & set(g.memo)


def test_coset_structure_names_the_lengths_of_a_broken_decomposition(monkeypatch):
    # the group-as-singular-orbit mutation: elements of a coset space, so x y = w with lengths that do not add
    real = weyl.orbit_table
    monkeypatch.setattr(weyl, "orbit_table", lambda rs, lam: real(rs, tuple(lam[:-1]) + (0,)))
    result = {r.name: r for r in run_suite("A", 2, 1)}["coset-structure"]
    assert (result.status, result.detail) == (
        "fail",
        "unexpected ValueError: coset decomposition of s1 s2 at I=[] has lengths 1 + 0, not 2",
    )


def test_standard_intersection_fails_on_a_meet_component_not_below_both(monkeypatch):
    real = orbits.OrbitPoset.meet_components
    # z1 alone is returned for every meet whose second label it is not below: one component, so no antichain fault
    monkeypatch.setattr(
        orbits.OrbitPoset,
        "meet_components",
        lambda self, z1, z2: real(self, z1, z2) if self.leq(z1, z2) else [z1],
    )
    result = {r.name: r for r in run_suite("A", 2, 1)}["standard-intersection"]
    assert result.status == "fail"
    assert result.detail == "meet component [{},e,e] not below both [{},e,e] and [{},s1,e]"


@pytest.mark.parametrize(
    "extra, detail",
    [
        # the minimum lies below every label, so it is comparable to each component it joins
        (lambda p, z1, z2, comps: [p.minimum] if len(comps) > 1 else [], "[{},e,s1], [{1},e,e]"),
        # a label is comparable to itself, so a repeated component is no antichain either
        (lambda p, z1, z2, comps: comps[:1] if z1 != z2 else [], "[{},e,e], [{},e,s1]"),
    ],
    ids=["comparable", "repeated"],
)
def test_standard_intersection_fails_on_meet_components_not_an_antichain(monkeypatch, extra, detail):
    real = orbits.OrbitPoset.meet_components

    def with_extra(self, z1, z2):
        comps = real(self, z1, z2)
        return comps + extra(self, z1, z2, comps)

    monkeypatch.setattr(orbits.OrbitPoset, "meet_components", with_extra)
    result = {r.name: r for r in run_suite("A", 2, 1)}["standard-intersection"]
    assert result.status == "fail"
    assert result.detail == f"meet components of {detail} are not an antichain"


def test_standard_table_checks_fail_on_a_cleared_bit(monkeypatch):
    real = verify.standard_rows

    def open_orbit_without_identity_pair(z):
        rows = real(z)
        if z.stratum != frozenset({1, 2}) or z.w != z.group.longest:
            return rows
        return (rows[0] & ~1,) + rows[1:]

    monkeypatch.setattr(verify, "standard_rows", open_orbit_without_identity_pair)
    results = {r.name: r for r in run_suite("A", 2, 1)}
    assert results["index-monotonicity"].status == "fail"
    assert results["index-monotonicity"].detail == (
        "basis of [{},e,e] escapes the larger closure [{1,2},e,s1 s2 s1] at (0, 0)"
    )
    assert results["standard-intersection"].status == "fail"
    assert results["standard-intersection"].detail == (
        "pairs standard on both [{},e,e] and [{1,2},e,s1 s2 s1] differ from their intersection at shape (0, 0)"
    )


def test_coset_structure_fails_when_min_coset_rep_returns_its_input(monkeypatch):
    monkeypatch.setattr(weyl.WeylGroup, "min_coset_rep", lambda self, w, J: w)
    result = {r.name: r for r in run_suite("A", 2, 1)}["coset-structure"]
    assert result.status == "fail"
    assert result.detail == "minimal part of s1 has a descent in I=[1]"


def test_poset_axioms_fail_on_a_cleared_transitive_bit(monkeypatch):
    real = verify.build_poset

    def without_bottom_under_top(group):
        p = real(group)
        top, bottom = p.index[p.maximum], p.index[p.minimum]
        # bottom lies under every label under top, so the bit is implied by transitivity
        p._down[top] &= ~(1 << bottom)
        return p

    monkeypatch.setattr(verify, "build_poset", without_bottom_under_top)
    result = {r.name: r for r in run_suite("A", 2, 1)}["poset-axioms"]
    assert result.status == "fail"
    assert result.detail == "transitivity fails under [{1,2},e,s1 s2 s1] via [{},e,e]"


def test_poset_checks_called_alone_give_the_suite_detail(monkeypatch):
    # an A2 poset without the bottom under the top; each check sees it alone, then the suite sees it from build_poset
    real = verify.build_poset

    def without_bottom_under_top(group):
        p = real(group)
        p._down[p.index[p.maximum]] &= ~(1 << p.index[p.minimum])
        return p

    p = without_bottom_under_top(WeylGroup(from_name("A2")))
    strict = [d & ~(1 << i) for i, d in enumerate(p.down_masks())]
    beneath = [reduce(or_, (strict[j] for j in bits(s)), 0) for s in strict]
    alone = {}
    for name, check in [
        ("closure-crosscheck", lambda: verify.check_closure_crosscheck(p)),
        ("poset-axioms", lambda: verify.check_poset_axioms(p, strict, beneath)),
    ]:
        with pytest.raises(verify.CheckFailure) as failure:
            check()
        alone[name] = str(failure.value)
    assert alone == {
        "closure-crosscheck": "direct criterion and poset disagree on [{},s1 s2 s1,e] <= [{1,2},e,s1 s2 s1]",
        "poset-axioms": "transitivity fails under [{1,2},e,s1 s2 s1] via [{},e,e]",
    }
    monkeypatch.setattr(verify, "build_poset", without_bottom_under_top)
    assert {r.name: r.detail for r in run_suite("A", 2, 1) if r.name in alone} == alone


def test_poset_checks_fail_when_two_labels_lie_below_each_other(monkeypatch):
    real = verify.build_poset

    def with_a_cover_reversed(group):
        p = real(group)
        down = p._down
        i, j = next((i, j) for i, j in p.cover_pairs() if down[i] == down[j] | 1 << i)
        down[j] |= 1 << i
        return p

    monkeypatch.setattr(verify, "build_poset", with_a_cover_reversed)
    results = {r.name: r for r in run_suite("A", 2, 1)}
    assert results["poset-axioms"].status == "fail"
    assert results["poset-axioms"].detail == "antisymmetry fails between [{},s1 s2,e] and [{},s1 s2 s1,e]"
    assert results["poset-extremes"].status == "fail"
    assert results["poset-extremes"].detail == "unexpected ValueError: the closure order has 0 minimal labels, not one"
    # the relation is no longer an order, so monotonicity is read over every strict down-set, not the covers
    assert results["index-monotonicity"].status == "fail"
    assert results["index-monotonicity"].detail == (
        "basis of [{},s1 s2,e] escapes the larger closure [{},s1 s2 s1,e] at (1, 0)"
    )


def test_poset_extremes_fail_when_a_relation_keeps_its_dimension(monkeypatch):
    real = verify.dimension
    p = build_poset(WeylGroup(from_name("A2")))
    bottom = p.index[p.minimum]
    # a label whose only strict relation is to the bottom: dimension 0 keeps exactly that relation flat;
    # run_suite builds its own group, so the label is matched by its words
    flat = next(z for i, z in enumerate(p.labels) if p.down_mask(z) == 1 << i | 1 << bottom)
    key = (flat.stratum, flat.x.word, flat.w.word)
    monkeypatch.setattr(verify, "dimension", lambda z: 0 if (z.stratum, z.x.word, z.w.word) == key else real(z))
    result = {r.name: r for r in run_suite("A", 2, 1)}["poset-extremes"]
    assert result.status == "fail"
    assert result.detail == "dimension does not drop from [{},s1 s2,e] to [{},s1 s2 s1,e]"


def test_poset_extremes_fail_on_a_missing_cover_pair(monkeypatch):
    real = orbits.OrbitPoset.cover_pairs
    monkeypatch.setattr(orbits.OrbitPoset, "cover_pairs", lambda self: real(self)[:-1])
    result = {r.name: r for r in run_suite("A", 2, 1)}["poset-extremes"]
    assert result.status == "fail"
    assert result.detail == "cover pairs differ from the flat transitive reduction"


def test_path_count_fails_when_chains_skip_the_integrality_test(monkeypatch):
    # every cover admits every time: B2's (1, 0) gets chains that are no LS paths
    real = paths._cover_table
    monkeypatch.setattr(paths, "_cover_table", lambda *args: [[(1, j) for _, j in row] for row in real(*args)])
    result = {r.name: r for r in run_suite("B", 2, 1)}["path-count"]
    assert result.status == "fail"
    assert result.detail == "(1, 0): 10 paths, Weyl dimension 5"


def test_path_count_fails_on_a_path_swapped_for_one_with_its_endpoint_and_direction(monkeypatch):
    # the swapped-in path has the same count, endpoint and initial direction: only the lowering closure tells
    real = verify.generate_paths
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    kept = paths.LSPath([((-2,), half), ((2,), half)], (2,))
    swapped = paths.LSPath([((-2,), quarter), ((2,), half), ((-2,), quarter)], (2,))
    assert swapped.endpoint() == kept.endpoint() and swapped.dirs[0] == kept.dirs[0]
    monkeypatch.setattr(
        verify, "generate_paths", lambda rs, lam: tuple(swapped if p == kept else p for p in real(rs, lam))
    )
    results = {r.name: r for r in run_suite("A", 1, 2)}
    assert results["path-count"].status == "fail"
    assert results["path-count"].detail == "(2,): 1 paths outside the lowering closure, 1 closure paths not generated"
    assert results["path-endpoints"].status == results["path-demazure"].status == "pass"


def test_path_endpoints_fail_when_every_path_ends_at_its_shape(monkeypatch):
    monkeypatch.setattr(paths.LSPath, "endpoint", lambda self: self.shape)
    result = {r.name: r for r in run_suite("A", 2, 1)}["path-endpoints"]
    assert result.status == "fail"
    assert result.detail == "endpoint multiset differs from the full character at (0, 1)"


def test_path_demazure_fails_when_every_path_opens_at_the_identity(monkeypatch):
    monkeypatch.setattr(verify, "initial_direction", lambda group, p: group.identity)
    result = {r.name: r for r in run_suite("A", 2, 1)}["path-demazure"]
    assert result.status == "fail"
    assert result.detail == "3 paths open below e at (0, 1), character dimension 1"


def test_path_demazure_fails_when_two_paths_swap_their_initial_directions(monkeypatch):
    # A2 (1, 1)'s straight path opens at w0 and its lowest path at e: the multiset of directions, and so
    # every count below an element, is unchanged, and only the characters tell
    real = paths.initial_direction

    def swapped(group, p):
        got = real(group, p)
        if p.shape == (1, 1) and len(p.dirs) == 1 and got in (group.identity, group.longest):
            return group.longest if got is group.identity else group.identity
        return got

    for module in (paths, monomials, verify):
        monkeypatch.setattr(module, "initial_direction", swapped)
    results = {r.name: r for r in run_suite("A", 2, 2)}
    assert [name for name, r in results.items() if not r.ok] == ["path-demazure"]
    detail = "weight (-1, -1) ends 1 paths open below e at (1, 1), character multiplicity 0"
    assert results["path-demazure"].detail == detail


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_verify_output_matches_benchmark_reference(name, capsys):
    # read-only: the benchmark's recorded output of the same command
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text(encoding="utf-8"))["verify-rank2"][name]
    assert cli.main(["verify", "--group", name, "--max-weight", "2"]) == 0
    assert capsys.readouterr().out == expected
