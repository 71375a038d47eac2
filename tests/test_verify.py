"""The verify suite bounds its own precomputation and fails where it should."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from conftest import weight_grid

from wondermono import cli, monomials, orbits, verify, weyl
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


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_verify_output_matches_benchmark_reference(name, capsys):
    # read-only: the benchmark's recorded output of the same command
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text(encoding="utf-8"))["verify-rank2"][name]
    assert cli.main(["verify", "--group", name, "--max-weight", "2"]) == 0
    assert capsys.readouterr().out == expected
