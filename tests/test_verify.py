"""The verify suite bounds its own precomputation and fails where it should."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from conftest import weight_grid

from wondermono import cli, monomials, verify
from wondermono.rootsys import exponent_bounds, from_name
from wondermono.verify import run_suite, suite_passed


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
    assert "escapes the larger closure" in results["index-monotonicity"].detail
    assert results["standard-intersection"].status == "fail"
    assert "differ from their intersection" in results["standard-intersection"].detail


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_verify_output_matches_benchmark_reference(name, capsys):
    # read-only: the benchmark's recorded output of the same command
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text(encoding="utf-8"))["verify-rank2"][name]
    assert cli.main(["verify", "--group", name, "--max-weight", "2"]) == 0
    assert capsys.readouterr().out == expected
