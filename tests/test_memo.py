"""Memoized results live on the root system or Weyl group they derive from.

No module of the package holds a cache, so a group and everything derived
from it are freed together.  Every memo table belongs to a function
rootsys.memoized made, which reports its hits and misses through cache_info,
and a group keeps no other table.
"""

from __future__ import annotations

import gc
import importlib
import pkgutil
import re
import sys
import weakref
from collections import defaultdict
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest

from conftest import memo_contents

import wondermono
from wondermono import monomials, orbits, paths, verify
from wondermono.demazure import weyl_dim
from wondermono.monomials import (
    basis_indices,
    graded_counts,
    nonstandard_components,
    shape_classes,
    standard_rows,
    stratum_shapes,
)
from wondermono.orbits import OrbitLabel, OrbitPoset, build_poset, closure_leq, schubert_pairs, stratum_components
from wondermono.paths import generate_pairs, generate_paths, initial_direction, path_directions
from wondermono.rootsys import RootSystemError, from_name, memoized, orbit_table
from wondermono.weyl import WeylGroup


def _exercise(name: str, lam) -> list[weakref.ref]:
    group = WeylGroup(from_name(name))
    top = OrbitLabel(frozenset(range(1, group.rank + 1)), group.identity, group.longest)
    pairs = generate_pairs(group, lam)
    initial_direction(group, pairs[0].left)
    schubert_pairs(top)
    basis_indices(top, lam)
    graded_counts(top, lam)
    nonstandard_components(pairs[-1], build_poset(group))
    return [weakref.ref(group), weakref.ref(group.rs)]


def test_groups_are_freed_with_their_memo():
    refs = []
    for _ in range(3):
        refs += _exercise("A2", (1, 1))
        refs += _exercise("A3", (1, 0, 1))
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_cache_info_counts_one_miss_then_one_hit():
    group = WeylGroup(from_name("B2"))
    z = OrbitLabel(frozenset({1}), group.identity, group.longest)
    poset = build_poset(WeylGroup(from_name("B2")))  # its own group: the build reads every row and interval
    for fn, args in [
        (WeylGroup.product_row, (group, 3)),
        (WeylGroup.down_mask, (group, group.identity)),  # any other element reads its prefix's interval too
        (WeylGroup._coset_table, (group, (1, 0))),
        (orbits._lift_rows, (z, frozenset())),
        (OrbitPoset._cover_rows, (poset,)),
        (OrbitPoset._up_sets, (poset,)),  # read after the covers, which it is closed from
        (paths._chain_graph, (group.rs, (1, 0))),
        (generate_pairs, (group, (1, 0))),
        (path_directions, (group, (1, 0))),
        (schubert_pairs, (z,)),
        (standard_rows, (z,)),
        (shape_classes, (group, (1, 0))),
        (stratum_shapes, (z, (1, 0))),
    ]:
        before = fn.cache_info()
        first = fn(*args)
        mid = fn.cache_info()
        assert (mid.hits - before.hits, mid.misses - before.misses) == (0, 1)
        assert fn(*args) is first
        after = fn.cache_info()
        assert (after.hits - mid.hits, after.misses - mid.misses) == (1, 0)


def test_every_memo_table_belongs_to_a_memoized_function():
    group = WeylGroup(from_name("B2"))
    lam = (1, 1)
    top = OrbitLabel(frozenset({1, 2}), group.identity, group.longest)
    low = OrbitLabel(frozenset({1}), group.identity, group.simple(2))
    basis_indices(top, lam)
    graded_counts(low, lam)
    closure_leq(low, top)
    stratum_components(top, {2})
    poset = build_poset(group)
    poset.cover_pairs()
    nonstandard_components(generate_pairs(group, lam)[0], poset)
    initial_direction(group, generate_paths(group.rs, (0, 1))[-1])
    # a memo table is named after its function: one of a module of the package, or a method of the group or poset
    owners = [mod for name, mod in sys.modules.items() if name.startswith("wondermono.")] + [WeylGroup, OrbitPoset]
    memoized_names = {key for owner in owners for key, value in vars(owner).items() if hasattr(value, "cache_info")}
    tables = [*group.memo, *group.rs.memo, *poset.memo]
    assert [name for name in tables if name not in memoized_names] == []
    assert {"product_row", "down_mask", "_coset_table", "_lift_rows", "orbit_table"} <= set(tables)
    assert set(poset.memo) == {"_cover_rows", "_up_sets"}


def test_the_memo_is_the_groups_only_table():
    group = WeylGroup(from_name("A3"))
    for w in group.elements:
        group.bruhat_leq(group.identity, w)
    assert [key for key, value in vars(group).items() if isinstance(value, dict)] == ["memo"]


def test_run_suite_leaves_no_interval_on_its_group(monkeypatch):
    built = []

    def record(rs):
        built.append(WeylGroup(rs))
        return built[-1]

    monkeypatch.setattr(verify, "WeylGroup", record)
    assert all(r.ok for r in verify.run_suite("A", 2, 1))
    (group,) = built
    assert [key for key, value in vars(group).items() if isinstance(value, dict) and value] == []


def test_a_cached_none_is_a_hit():
    calls = []

    @memoized(lambda owner, key: (owner, key))
    def nothing(owner, key):
        calls.append(key)

    owner = SimpleNamespace(memo=defaultdict(dict))
    assert nothing(owner, 1) is None and nothing(owner, 1) is None
    assert calls == [1]
    info = nothing.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_the_default_form_stores_a_key_as_given_and_refuses_an_unhashable_one():
    calls = []

    @memoized()
    def nothing(owner, key):
        calls.append(key)

    owner = SimpleNamespace(memo=defaultdict(dict))
    key = (1, 2)
    assert nothing(owner, key) is None and nothing(owner, (1, 2)) is None
    assert calls == [key] and calls[0] is key  # a miss passes the caller's own key
    assert list(owner.memo["nothing"]) == [key]
    with pytest.raises(TypeError, match="unhashable"):
        nothing(owner, [3, 4])
    assert calls == [key] and list(owner.memo["nothing"]) == [key]  # fn not run, nothing stored
    info = nothing.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_memo_does_not_change_root_system_identity():
    rs = from_name("G2")
    generate_paths(rs, (1, 0))
    assert rs == from_name("G2") and hash(rs) == hash(from_name("G2"))
    assert "generate_paths" not in from_name("G2").memo
    # == and hash read the six data fields, as a tuple of them would
    data = (rs.letter, rs.rank, rs.cartan, rs.inverse_cartan, rs.symmetrizer, rs.positive_roots)
    assert hash(rs) == hash(data) and rs != data and rs != from_name("A2")


def test_no_module_level_functools_cache():
    modules = [wondermono] + [
        importlib.import_module(f"wondermono.{info.name}")
        for info in pkgutil.iter_modules(wondermono.__path__)
        if info.name != "__main__"
    ]
    cached = [
        f"{mod.__name__}.{key}"
        for mod in modules
        for key, value in vars(mod).items()
        if hasattr(value, "cache_clear")
    ]
    assert cached == []


def test_a_refused_weight_leaves_no_table_behind():
    # (2.0, 1) equals and hashes as (2, 1): a table of float points stored under it is what a valid call
    # of shape (2, 1) reads, so the valid call runs before the refusals are asserted, to show that too
    rs = from_name("A2")
    group = WeylGroup(rs)
    before = memo_contents(rs, group)
    refusals = []
    for call in (group._coset_table, lambda lam: orbit_table(rs, lam)):
        try:
            call((2.0, 1))
        except RootSystemError as exc:
            refusals.append(str(exc))
    after = memo_contents(rs, group)
    model = generate_paths(rs, (2, 1))
    assert refusals == ["weight (2.0, 1) has a coordinate that is not an integer"] * 2
    assert after == before
    assert len(model) == weyl_dim(rs, (2, 1)) == 15
    coordinates = [x for path in model for point in (*path.dirs, path.end) for x in point]
    assert {type(x) for x in coordinates} == {int}


def test_weight_keyed_tables_refuse_a_warm_float():
    # (1.0, 1) and [1, Fraction(1)] equal and hash as (1, 1): a table keyed by a checked weight refuses them
    # even when (1, 1) is cached; the coset table, keyed unchecked, has no public reader that takes a weight
    rs = from_name("A2")
    group = WeylGroup(rs)
    top = OrbitLabel(frozenset({1, 2}), group.identity, group.longest)
    refusing = {
        "orbit_table": partial(orbit_table, rs),
        "shape_denominator": partial(paths.shape_denominator, rs),
        "_chain_graph": partial(paths._chain_graph, rs),
        "path_directions": partial(path_directions, group),
        "shapes_below": partial(monomials.shapes_below, group),
        "stratum_shapes": partial(stratum_shapes, top),
        "shape_classes": partial(shape_classes, group),
        "generate_paths": partial(generate_paths, rs),
        "generate_pairs": partial(generate_pairs, group),
    }
    for call in refusing.values():
        call((1, 1))
    assert {*refusing} <= {*rs.memo, *group.memo}
    for lam in [(1.0, 1), [1, Fraction(1)]]:
        message = re.escape(f"weight {lam} has a coordinate that is not an integer")
        for name, call in refusing.items():
            before = memo_contents(rs, group)
            with pytest.raises(RootSystemError, match=message):
                call(lam)
            assert memo_contents(rs, group) == before, name
    assert not hasattr(group, "coset_table")
