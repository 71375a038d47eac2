"""Standard monomials on orbit closures.

A basis index for an orbit closure and a dominant weight lam packs a boundary
exponent vector n, the dominant shape mu = lam - n.alpha, and a pair of paths
of shapes (-w0 mu, mu).  The pair is standard on a closure when some
irreducible component of the closure's slice to the doubled flag variety
admits both initial directions in its Bruhat intervals.

Standardness therefore depends only on the pair's initial directions (a, b).
Each orbit z gets one table of row masks, built once from its Schubert pairs
(L, R) and kept on the group: bit b of row a is set when a <= L and b <= R for
some component.  Every standardness test is then one bit lookup in that table.

Read through the closure order, the table is the closed-stratum slice of z's
closure: since right multiplication by w0 reverses the Bruhat order, (a, b)
is standard on z exactly when the closed orbit [0, a w0, b] lies in the
closure of z.  A pair's nonstandard locus is therefore the set of labels
whose closure misses one orbit, read from the poset without any table.

A pair's directions are its two paths' own, so with N_mu(b) the number of
paths of shape mu starting in direction b, the pairs of shape mu standard on z
number the sum of N_mu*(a) N_mu(b) over the set bits (a, b) of z's table.

The basis of every closure is a subset of one set of candidates, the basis of
the open orbit's closure, so a degree lam has one candidate table, kept on the
group and filled at the first query that admits a shape: per shape mu below
lam, a block holding every pair of shape mu as a MonomialIndex, left-major
like generate_pairs (candidate_block), and the shape's direction classes,
shared by every degree above mu (shape_classes).  A basis is a selection from
that table: row a of z's standard table, read at the right paths' directions,
selects the block of each left path starting in direction a, in one C-level
compress over the shape.  The indices are shared, immutable objects; a query
builds none, and a block is built only for a shape some queried orbit admits,
so candidate_count bounds what a first query builds.  Graded counts read only
the direction classes and their counts, and build no pair.

A row of a standard table takes few distinct values across labels, so a
shape's direction classes carry two readers cached by row value: select, the
row's bits at each right path's direction, and count, the sum of N_mu(b) over
the row's set bits b.  Each distinct row value is read once per shape, and the
readers' caches live in the shape's memo entry, freed with the group.  The
shapes a stratum admits below lam are kept per (stratum, lam), so a query
filters shapes_below only at the first label of its stratum.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from functools import cache
from itertools import compress, repeat
from typing import NamedTuple

from .demazure import weyl_dim
from .orbits import OrbitLabel, OrbitPoset, bit_reader, mask_bytes, schubert_pairs
from .paths import (
    PathPair,
    generate_pairs,
    generate_paths,
    initial_direction,
    pair_weight,
    path_directions,
)
from .rootsys import (
    RootVector,
    Weight,
    by_weight,
    dominance_diff,
    dominant_below,
    integral_weight,
    is_dominant,
    memoized,
    support,
)
from .weyl import WeylGroup


class MonomialIndex(NamedTuple):
    """One standard monomial: boundary exponents, shape, and path pair, as a plain tuple."""

    powers: RootVector
    mu: Weight
    pair: PathPair

    @property
    def degree(self) -> int:
        return sum(self.powers)


class GradedTable(NamedTuple):
    """Counts of basis indices by total boundary degree, zero rows included."""

    rows: tuple[tuple[int, int], ...]

    def total(self) -> int:
        return sum(count for _, count in self.rows)

    def count(self, degree: int) -> int:
        return dict(self.rows).get(degree, 0)


def is_standard_on_components(group: WeylGroup, pair: PathPair, components) -> bool:
    """True when some component pair dominates both initial directions.

    The direct scan over components, kept as the reference for the table.
    An empty component list admits nothing.
    """
    a = initial_direction(group, pair.left)
    b = initial_direction(group, pair.right)
    for comp in components:
        if group.bruhat_leq(a, comp.left) and group.bruhat_leq(b, comp.right):
            return True
    return False


@memoized(lambda z: (z.group, z))
def standard_rows(z: OrbitLabel) -> tuple[int, ...]:
    """The standard set of z's closure as one row mask per group element.

    Bit b of row a is set iff a <= L and b <= R for some Schubert pair (L, R)
    of z, i.e. the union of the products down(L) x down(R): down(R) is ORed
    into the rows at the set bits of down(L).
    """
    group = z.group
    rows = [0] * len(group)
    for c in schubert_pairs(z):
        right = group.down_mask(c.right)
        for a in OrbitPoset._bits(group.down_mask(c.left)):
            rows[a] |= right
    return tuple(rows)


def is_standard_on_closure(pair: PathPair, z: OrbitLabel) -> bool:
    """One lookup in z's table."""
    a = initial_direction(z.group, pair.left).index
    b = initial_direction(z.group, pair.right).index
    return bool(standard_rows(z)[a] >> b & 1)


@memoized(by_weight)
def shapes_below(group: WeylGroup, lam: Weight) -> tuple:
    """dominant_below(lam), run once per weight and kept on the group."""
    return tuple(dominant_below(group.rs, tuple(lam)))


class ShapeClasses(NamedTuple):
    """The paths of a shape mu (right) and of mu* (left), read by initial direction (element index)."""

    lefts: tuple[int, ...]  # direction of each path of shape mu*, aligned with generate_paths
    left_counts: tuple[tuple[int, int], ...]  # (a, N_mu*(a)) for each left direction a
    select: Callable[[int], bytes]  # row -> its bits at each right path's direction, cached by row
    count: Callable[[int], int]  # row -> sum of N_mu(b) over its set bits b, cached by row


@memoized(by_weight)
def shape_classes(group: WeylGroup, mu: Weight) -> ShapeClasses:
    """The direction classes of shape mu's pairs, shared by every degree above mu.

    Many labels share a row of their standard tables, and a shape's rows take
    few distinct values, so each reader reads a row value once and keeps it
    here, freed with the group's memo.
    """
    width = len(group)
    lefts = path_directions(group, group.dual_weight(mu))
    rights = path_directions(group, mu)
    right_counts = Counter(rights)
    counts = tuple(right_counts.values())
    read_classes, read_rights = bit_reader(tuple(right_counts)), bit_reader(rights)

    @cache
    def select(row: int) -> bytes:
        return bytes(read_rights(mask_bytes(row, width)))

    @cache
    def count(row: int) -> int:
        return sum(compress(counts, read_classes(mask_bytes(row, width))))

    return ShapeClasses(lefts, tuple(Counter(lefts).items()), select, count)


@memoized(lambda group, mu, nvec: (group, (tuple(mu), tuple(nvec))))
def candidate_block(group: WeylGroup, mu: Weight, nvec: RootVector) -> tuple[MonomialIndex, ...]:
    """Every pair of shape mu as a basis index with exponents nvec, aligned with generate_pairs."""
    mu, nvec = tuple(mu), tuple(nvec)
    # tuple.__new__ builds each index in C, without the named tuple's Python-level __new__
    fields = zip(repeat(nvec), repeat(mu), generate_pairs(group, mu))
    return tuple(map(tuple.__new__, repeat(MonomialIndex), fields))


def pair_count(group: WeylGroup, mu: Weight) -> int:
    """Number of path pairs of shape mu: dim mu * dim mu*."""
    return weyl_dim(group.rs, mu) * weyl_dim(group.rs, group.dual_weight(mu))


def _admissible_shapes(z: OrbitLabel, lam: Weight) -> tuple:
    """The (mu, n) of dominant_below(lam) whose exponents stay inside z's stratum."""
    integral_weight(lam)
    if not is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    return _stratum_shapes(z.group, z.stratum, lam)


@memoized(lambda group, stratum, lam: (group, (stratum, tuple(lam))))
def _stratum_shapes(group: WeylGroup, stratum: frozenset[int], lam: Weight) -> tuple:
    """_admissible_shapes once per (stratum, lam), shared by every label of the stratum."""
    return tuple((mu, nvec) for mu, nvec in shapes_below(group, lam) if support(nvec) <= stratum)


def candidate_count(z: OrbitLabel, lam: Weight) -> int:
    """Number of path pairs basis_indices(z, lam) tests."""
    return sum(pair_count(z.group, mu) for mu, _ in _admissible_shapes(z, lam))


def basis_indices(z: OrbitLabel, lam: Weight) -> tuple[MonomialIndex, ...]:
    """All basis indices for the closure of z in degree lam, selected from lam's candidate blocks.

    Ordered by exponent vector (lexicographic, ascending) and then by the
    enumeration order of the path pairs of each shape.
    """
    group = z.group
    shapes = _admissible_shapes(z, lam)  # checks lam before any table is read
    rows = standard_rows(z)
    out: list[MonomialIndex] = []
    for mu, nvec in shapes:
        sc = shape_classes(group, mu)
        # row a's bits at the right paths' directions select the block of each left path starting in direction a
        selector = b"".join(map(sc.select, map(rows.__getitem__, sc.lefts)))
        out.extend(compress(candidate_block(group, mu, nvec), selector))
    return tuple(out)


def is_basis_index(z: OrbitLabel, lam: Weight, idx: MonomialIndex) -> bool:
    """Membership test matching basis_indices without enumerating everything."""
    integral_weight(lam)
    rs = z.group.rs
    if not is_dominant(lam) or not is_dominant(idx.mu):
        return False
    if dominance_diff(rs, lam, idx.mu) != idx.powers:
        return False
    if not support(idx.powers) <= z.stratum:
        return False
    pair = idx.pair
    # membership in the path model implies the shape
    if pair.mu != idx.mu or pair.right not in generate_paths(rs, idx.mu):
        return False
    return pair.left in generate_paths(rs, z.group.dual_weight(idx.mu)) and is_standard_on_closure(pair, z)


def graded_counts(z: OrbitLabel, lam: Weight) -> GradedTable:
    """Basis counts by boundary degree, including degrees with no index.

    The degree range runs from 0 to the largest degree of any exponent vector
    admissible for z's stratum, so interior zero rows survive.  Each shape
    adds N_mu*(a) N_mu(b) over the direction classes (a, b) set in z's table,
    read from shape_classes' count of row a, one C-level pass per distinct row value.
    """
    group = z.group
    shapes = _admissible_shapes(z, lam)  # checks lam before any table is read
    rows = standard_rows(z)
    counts: Counter[int] = Counter()
    for mu, nvec in shapes:
        sc = shape_classes(group, mu)
        counts[sum(nvec)] += sum(n * sc.count(rows[a]) for a, n in sc.left_counts)
    return GradedTable(tuple((d, counts[d]) for d in range(max(counts) + 1)))


def _nonstandard_mask(pair: PathPair, poset: OrbitPoset) -> int:
    """Labels whose closure misses the closed orbit [0, a w0, b] of the pair's directions."""
    group = poset.group
    a = initial_direction(group, pair.left)
    b = initial_direction(group, pair.right)
    closed = OrbitLabel(frozenset(), group.multiply(a, group.longest), b)
    full = (1 << len(poset)) - 1
    return full & ~poset.up_mask(closed)


def nonstandard_orbits(pair: PathPair, poset: OrbitPoset) -> list[OrbitLabel]:
    """All orbits on whose closure the pair fails to be standard."""
    return poset._from_mask(_nonstandard_mask(pair, poset))


def nonstandard_components(pair: PathPair, poset: OrbitPoset) -> list[OrbitLabel]:
    """Maximal orbits of the nonstandard locus of a pair."""
    return poset.maximal_of_mask(_nonstandard_mask(pair, poset))


def correction_support(pair: PathPair, z: OrbitLabel, lam: Weight) -> tuple[MonomialIndex, ...]:
    """Basis indices that can carry straightening corrections for a pair.

    The pair must be nonstandard on z's closure.  Candidates are the basis
    indices of positive boundary degree whose pair weight matches.
    """
    if is_standard_on_closure(pair, z):
        raise ValueError("pair is standard on this orbit closure, nothing to correct")
    target = pair_weight(pair)
    return tuple(
        idx
        for idx in basis_indices(z, lam)
        if any(idx.powers) and pair_weight(idx.pair) == target
    )
