"""Acceptance gate: one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every grid below is exhaustive; nothing is sampled.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from conftest import group_of, poset_of, weight_grid

import wondermono
from wondermono.demazure import char_dim, demazure_character, weyl_dim
from wondermono.monomials import (
    basis_indices,
    graded_counts,
    is_standard_on_closure,
    nonstandard_components,
    nonstandard_orbits,
)
from wondermono.orbits import OrbitLabel, closure_leq, stratum_components
from wondermono.paths import generate_pairs, generate_paths, initial_direction
from wondermono.rootsys import dominant_below


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {desc}")
        raise
    print(f"[criterion {num}] PASS: {desc}")


def std_mask(poset, pairs):
    """Per-orbit bitmask over a pair list: bit k set when pair k is standard."""
    out = {}
    for z in poset.labels:
        mask = 0
        for k, pair in enumerate(pairs):
            if is_standard_on_closure(pair, z):
                mask |= 1 << k
        out[z] = mask
    return out


def test_criterion_1():
    with criterion(1, "orbit census matches the coset-count formula"):
        for name, total in [("A1", 6), ("A2", 78), ("B2", 136), ("G2", 300)]:
            g = group_of(name)
            poset = poset_of(name)
            assert len(poset) == total
            assert len(set(poset.labels)) == total
            assert total == sum(len(g.min_coset_reps(I)) * len(g) for I in g.subsets())


def test_criterion_2():
    with criterion(2, "closure order is a graded partial order matching the direct criterion"):
        for name in ["A1", "A2", "B2"]:
            poset = poset_of(name)
            labels = poset.labels
            masks = poset.down_masks()
            for i, z2 in enumerate(labels):
                assert masks[i] >> i & 1  # reflexive
                for j, z1 in enumerate(labels):
                    below = masks[i] >> j & 1
                    assert closure_leq(z1, z2) == bool(below)
                    if below:
                        assert masks[j] & ~masks[i] == 0  # transitive
                        if i != j:
                            assert not masks[j] >> i & 1  # antisymmetric
                            assert poset.dim(z1) < poset.dim(z2)


def test_criterion_3():
    with criterion(3, "boundary slices agree with the maximal orbits of the sliced closure"):
        for name in ["A1", "A2", "B2", "G2"]:
            poset = poset_of(name)
            for z in poset.labels:
                for J in z.group.subsets():
                    if not J <= z.stratum:
                        continue
                    comps = stratum_components(z, J)
                    mask = poset.down_mask(z) & poset.stratum_mask(J)
                    expected = sorted(poset.maximal_of_mask(mask), key=OrbitLabel.sort_key)
                    assert comps == expected
                    assert comps, (z, J)


def test_criterion_4():
    with criterion(4, "path families match Weyl dimensions, characters, and all Demazure truncations"):
        grids = [("A1", 3), ("A2", 2), ("B2", 2), ("G2", 2)]
        for name, bound in grids:
            g = group_of(name)
            for lam in weight_grid(g.rank, bound):
                paths = generate_paths(g.rs, lam)
                assert len(paths) == weyl_dim(g.rs, lam)
                full = demazure_character(g, g.longest, lam)
                assert Counter(p.endpoint() for p in paths) == Counter(full)
                initials = [initial_direction(g, p) for p in paths]
                for w in g.elements:
                    truncated = char_dim(demazure_character(g, w, lam))
                    below = sum(1 for a in initials if g.bruhat_leq(a, w))
                    assert below == truncated


def test_criterion_5():
    with criterion(5, "basis counts on the big cell closure and the closed slice match dimension sums"):
        for name, bound in [("A1", 3), ("A2", 2), ("B2", 2)]:
            g = group_of(name)
            rs = g.rs
            top = OrbitLabel(frozenset(range(1, g.rank + 1)), g.identity, g.longest)
            closed = OrbitLabel(frozenset(), g.identity, g.longest)
            for lam in weight_grid(g.rank, bound):
                expected = sum(
                    weyl_dim(rs, mu) * weyl_dim(rs, g.dual_weight(mu))
                    for mu, _ in dominant_below(rs, lam)
                )
                assert len(basis_indices(top, lam)) == expected
                assert len(basis_indices(closed, lam)) == weyl_dim(rs, lam) * weyl_dim(
                    rs, g.dual_weight(lam)
                )
        g = group_of("A1")
        lam = (2,)
        frozen = [
            (OrbitLabel(frozenset({1}), g.identity, g.longest), 10),
            (OrbitLabel(frozenset(), g.identity, g.longest), 9),
            (OrbitLabel(frozenset({1}), g.identity, g.identity), 6),
        ]
        for z, count in frozen:
            assert len(basis_indices(z, lam)) == count


def test_criterion_6():
    with criterion(6, "graded tables are contiguous histograms of the basis enumeration"):
        for name in ["A1", "A2"]:
            g = group_of(name)
            poset = poset_of(name)
            for lam in weight_grid(g.rank, 2):
                for z in poset.labels:
                    indices = basis_indices(z, lam)
                    table = graded_counts(z, lam)
                    degrees = [d for d, _ in table.rows]
                    assert degrees == list(range(len(degrees)))
                    hist = Counter(idx.degree for idx in indices)
                    assert table.total() == len(indices)
                    for d, count in table.rows:
                        assert count == hist.get(d, 0)
                    assert set(hist) <= set(degrees)


def test_criterion_7():
    with criterion(7, "basis index sets grow along the closure order and nonstandard loci are closed"):
        for name in ["A1", "A2"]:
            g = group_of(name)
            poset = poset_of(name)
            labels = poset.labels
            masks = poset.down_masks()
            for lam in weight_grid(g.rank, 2):
                position = {}
                for mu, nvec in dominant_below(g.rs, lam):
                    for pair in generate_pairs(g, mu):
                        position[(nvec, mu, pair)] = len(position)
                member = []
                for z in labels:
                    mask = 0
                    for idx in basis_indices(z, lam):
                        mask |= 1 << position[(idx.powers, idx.mu, idx.pair)]
                    member.append(mask)
                for i in range(len(labels)):
                    rest = masks[i]
                    while rest:
                        j = (rest & -rest).bit_length() - 1
                        rest &= rest - 1
                        assert member[j] & ~member[i] == 0
        g = group_of("A2")
        poset = poset_of("A2")
        for pair in generate_pairs(g, (1, 1)):
            bad = nonstandard_orbits(pair, poset)
            bad_set = set(bad)
            for z in bad:
                assert not is_standard_on_closure(pair, z)
                for below in poset.below(z):
                    assert below in bad_set
            comps = nonstandard_components(pair, poset)
            assert set(comps) <= bad_set
            for z in bad:
                assert any(poset.leq(z, c) for c in comps)


def test_criterion_8():
    with criterion(8, "standardness on two closures is standardness on a component of their meet"):
        grids = [
            ("A1", weight_grid(1, 3)),
            ("A2", weight_grid(2, 2)),
            ("B2", weight_grid(2, 1)),
            ("G2", [(1, 0), (0, 1)]),
        ]
        for name, shapes in grids:
            g = group_of(name)
            poset = poset_of(name)
            labels = poset.labels
            for mu in shapes:
                pairs = generate_pairs(g, mu)
                masks = std_mask(poset, pairs)
                meet_masks = {}
                for z1 in labels:
                    for z2 in labels:
                        key = (z1, z2) if z1.sort_key() <= z2.sort_key() else (z2, z1)
                        if key not in meet_masks:
                            acc = 0
                            for c in poset.meet_components(*key):
                                acc |= masks[c]
                            meet_masks[key] = acc
                        assert masks[z1] & masks[z2] == meet_masks[key]


def test_criterion_9():
    with criterion(9, "command line output is byte deterministic across runs"):
        commands = [
            ["poset", "--group", "A2"],
            ["poset", "--group", "A2", "--format", "dot"],
            ["poset", "--group", "B2", "--format", "csv"],
            ["paths", "--group", "G2", "--weight", "1 0"],
            ["monomials", "--group", "A2", "--weight", "1 1", "--orbit", "I=1,2;x=e;w=w0"],
            ["verify", "--group", "A1", "--max-weight", "2"],
        ]
        # the child imports the same copy of the package as this process
        src = str(Path(wondermono.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for argv in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "wondermono", *argv],
                    capture_output=True,
                    timeout=120,
                    env=env,
                )
                for _ in range(2)
            ]
            for r in runs:
                assert r.returncode == 0, (argv, r.stderr.decode())
                assert r.stdout
                assert r.stderr == b""
            assert runs[0].stdout == runs[1].stdout
