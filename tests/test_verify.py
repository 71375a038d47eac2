"""The verify suite bounds its own precomputation and fails where it should."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import weight_grid

from wondermono import cli, monomials, orbits, paths, rootsys, verify, weyl
from wondermono.orbits import build_poset
from wondermono.rootsys import exponent_bounds, from_name
from wondermono.verify import run_suite, suite_passed
from wondermono.weyl import WeylGroup


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
    assert suite_passed(results)


def test_grid_budget_refuses_before_building_the_grid(capsys):
    with pytest.raises(ValueError, match="100000000 weights"):
        run_suite("F", 4, 99)
    assert cli.main(["verify", "--group", "F4", "--max-weight", "99"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "100000000 weights" in captured.err


def test_graded_tables_fails_on_index_under_no_component(monkeypatch):
    monkeypatch.setattr(verify, "schubert_pairs", lambda z: ())
    result = {r.name: r for r in run_suite("A", 1, 1)}["graded-tables"]
    assert result.status == "fail"
    assert "lies under no component" in result.detail


def test_nonstandard_locus_fails_on_a_dropped_component(monkeypatch):
    real = verify.nonstandard_components
    monkeypatch.setattr(verify, "nonstandard_components", lambda pair, poset: real(pair, poset)[:-1])
    result = {r.name: r for r in run_suite("A", 2, 1)}["nonstandard-locus"]
    assert result.status == "fail"
    assert "not the union of its components" in result.detail


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
    ],
    ids=["root-dropped", "symmetrizer-trivial", "group-as-singular-orbit", "coset-rep-dropped"],
)
def test_structure_checks_fail_on_a_mutated_library_name(monkeypatch, module, name, mutate, letter, check, detail):
    # the mutation breaks more than one check; only the named one's detail is pinned
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    result = {r.name: r for r in run_suite(letter, 2, 1)}[check]
    assert (result.status, result.detail) == ("fail", detail)


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
    assert "has a descent in I" in result.detail


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
    assert "transitivity fails under" in result.detail and " via " in result.detail


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
    assert "antisymmetry fails between" in results["poset-axioms"].detail
    assert results["poset-extremes"].status == "fail"
    assert "0 minimal labels" in results["poset-extremes"].detail
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
    assert "dimension does not drop" in result.detail


def test_poset_extremes_fail_on_a_missing_cover_pair(monkeypatch):
    real = orbits.OrbitPoset.cover_pairs
    monkeypatch.setattr(orbits.OrbitPoset, "cover_pairs", lambda self: real(self)[:-1])
    result = {r.name: r for r in run_suite("A", 2, 1)}["poset-extremes"]
    assert result.status == "fail"
    assert "cover pairs differ" in result.detail


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


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_verify_output_matches_benchmark_reference(name, capsys):
    # read-only: the benchmark's recorded output of the same command
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text(encoding="utf-8"))["verify-rank2"][name]
    assert cli.main(["verify", "--group", name, "--max-weight", "2"]) == 0
    assert capsys.readouterr().out == expected
