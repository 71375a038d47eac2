"""Standard monomials on orbit closures.

A basis index for an orbit closure and a dominant weight lam packs a boundary
exponent vector n, the dominant shape mu = lam - n.alpha, and a pair of paths
of shapes (-w0 mu, mu).  The pair is standard on a closure when some
irreducible component of the closure's slice to the doubled flag variety
admits both initial directions in its Bruhat intervals.

Standardness therefore depends only on the pair's initial directions (a, b).
Each orbit z gets one table of row masks, built once and kept on the group:
bit b of row a is set when a <= L and b <= R for some component (L, R).  The
table reads z's lifts (xv, wv) to the closed stratum straight off, each the
component (xv w0, wv), with xv w0 from the group's table of right products by
w0 and the lower interval of xv w0 as a tuple of element indices.
orbits.schubert_pairs, the same components sorted, is the reference route,
which is_standard_on_components and verify read.  Every standardness test is
then one bit lookup in that table.

Read through the closure order, the table is the closed-stratum slice of z's
closure: since right multiplication by w0 reverses the Bruhat order, (a, b)
is standard on z exactly when the closed orbit [0, a w0, b] lies in the
closure of z.  A pair's nonstandard locus is therefore the set of labels
whose closure misses one orbit, read from the poset without any table.

A pair's directions are its two paths' own, so with N_mu(b) the number of
paths of shape mu starting in direction b, the pairs of shape mu standard on z
number the sum of N_mu*(a) N_mu(b) over the set bits (a, b) of z's table.

The basis of every closure is a subset of one set of candidates, the basis
of the open orbit's closure, and monomials keeps that set in one table per
shape, kept on the group: shape_classes, the direction classes of shape mu's
pairs, shared by every degree above mu.  They hold each run of left paths
with one initial direction a (generate_paths emits a shape's paths grouped by
initial direction), its number of left paths, and a reader runs(n): every
pair of shape mu as a MonomialIndex with exponents n, left-major like
generate_pairs, cut into those runs, built at the first basis query that
admits (mu, n) and kept per n in the table's entry.  The indices are shared,
immutable objects; a query builds none, and runs are built only for a shape
some queried orbit admits, so candidate_count, which reads no table of a
shape, bounds what a first query builds.  Graded counts read only the
direction classes and their counts, and build no pair.

A basis is a selection from those runs.  Row a of z's standard table selects
the same right paths after every left path of the run of direction a.  A row
takes few distinct values across labels, so each run keeps its selection per
row value: the first lookup of a value compresses the run once, a full
selection is the run itself and an empty one is ().  A query then costs one
cached lookup per run, plus the indices it returns, and never scans the
candidates a row leaves out.

Two more readers are cached by row value: select, the row's bits at each
right path's direction, which a run's first lookup of a value reads, and
count, the sum of N_mu(b) over the row's set bits b, which the direction
classes carry.  The second table is kept per (stratum, degree lam):
stratum_shapes, each (mu, n) below lam whose exponents stay inside the
stratum, with mu's direction classes, so a query reads one table, checked on
lam, and filters shapes_below and reads shape_classes only at the first
label of its stratum.
Both tables are keyed by the checked weight, so (1.0, 1) is refused even when
(1, 1) is cached, as by every public table (see rootsys.memoized).  Every
cache lives in a memo entry on the group and is freed with it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from functools import cache
from itertools import accumulate, chain, compress, groupby, repeat
from operator import getitem, mul
from typing import NamedTuple

from .demazure import weyl_dim
from .orbits import OrbitLabel, OrbitPoset, _lifts, bit_reader, mask_bytes
from .paths import (
    PathPair,
    generate_pairs,
    initial_direction,
    path_directions,
)
from .rootsys import (
    RootVector,
    Weight,
    dominant_below,
    dominant_weight,
    memoized,
    support,
    weight_key,
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
    into the rows at the indices of down(L).  The pairs are read straight off
    z's lifts (xv, wv) to the closed stratum, as (L, R) = (xv w0, wv), with
    xv w0 read from the group's table of right products by w0.
    """
    group = z.group
    times_w0 = group._times_longest()
    rows = [0] * len(group)
    for xv, wv in _lifts(z, ()):
        right = group.down_mask(wv)
        for a in group.down_indices(times_w0[xv.index]):
            rows[a] |= right
    return tuple(rows)


def is_standard_on_closure(pair: PathPair, z: OrbitLabel) -> bool:
    """One lookup in z's table."""
    a = initial_direction(z.group, pair.left).index
    b = initial_direction(z.group, pair.right).index
    return bool(standard_rows(z)[a] >> b & 1)


@memoized(weight_key)
def shapes_below(group: WeylGroup, lam: Weight) -> tuple:
    """dominant_below(lam), run once per weight and kept on the group."""
    return tuple(dominant_below(group.rs, lam))


class ShapeClasses(NamedTuple):
    """The paths of a shape mu (right) and of mu* (left), read by initial direction (element index)."""

    dirs: tuple[int, ...]  # each run's left direction a, in generate_paths order: the row of a standard table it reads
    lefts: tuple[int, ...]  # N_mu*(a) for each a of dirs: the number of left paths in its run
    count: Callable[[int], int]  # row -> sum of N_mu(b) over its set bits b, cached by row
    runs: Callable[[RootVector], tuple[RunPicks, ...]]  # n -> the candidates with exponents n, one RunPicks per run


@memoized(weight_key)
def shape_classes(group: WeylGroup, mu: Weight) -> ShapeClasses:
    """The direction classes of shape mu's pairs, shared by every degree above mu.

    Many labels share a row of their standard tables, and a shape's rows take
    few distinct values, so each reader reads a row value once and keeps it
    here, freed with the group's memo.
    """
    mu, width = dominant_weight(group.rs, mu), len(group)
    left_runs = groupby(path_directions(group, group.dual_weight(mu)))
    dirs, lefts = zip(*((a, sum(1 for _ in run)) for a, run in left_runs))
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

    stops = tuple(accumulate(n * len(rights) for n in lefts))  # each run's end: len(rights) pairs per left path

    @cache
    def runs(nvec: RootVector) -> tuple[RunPicks, ...]:
        # tuple.__new__ builds each index in C, without the named tuple's Python-level __new__
        fields = zip(repeat(nvec), repeat(mu), generate_pairs(group, mu))
        pairs = tuple(map(tuple.__new__, repeat(MonomialIndex), fields))
        return tuple(RunPicks(pairs[a:b], select, n) for a, b, n in zip((0, *stops), stops, lefts))

    return ShapeClasses(dirs, lefts, count, runs)


class RunPicks(dict):
    """Row value -> the candidates of one run of left paths that a row with that value selects.

    Every left path of the run starts in the same direction a, so row a of a
    standard table selects the same right paths after each of them: select(row),
    repeated once per left path.  A row value is read at its first lookup
    (__missing__) and kept; a full selection is the run itself, an empty one ().
    """

    __slots__ = ("run", "select", "lefts")

    def __init__(self, run: tuple[MonomialIndex, ...], select: Callable[[int], bytes], lefts: int):
        super().__init__()
        self.run, self.select, self.lefts = run, select, lefts

    def __missing__(self, row: int) -> tuple[MonomialIndex, ...]:
        run = self.run
        picked = tuple(compress(run, self.select(row) * self.lefts))
        got = self[row] = run if len(picked) == len(run) else picked
        return got


def pair_count(group: WeylGroup, mu: Weight) -> int:
    """Number of path pairs of shape mu: dim mu * dim mu*."""
    return weyl_dim(group.rs, mu) * weyl_dim(group.rs, group.dual_weight(mu))


@memoized(lambda z, lam: (z.group, (z.stratum, dominant_weight(z.group.rs, lam))))
def stratum_shapes(z: OrbitLabel, lam: Weight) -> tuple[tuple[Weight, RootVector, ShapeClasses], ...]:
    """The (mu, n, shape_classes(mu)) of dominant_below(lam) whose exponents stay inside z's stratum.

    Shared by the stratum's labels: a query reads this one table, checked on lam.
    """
    group = z.group
    return tuple(
        (mu, nvec, shape_classes(group, mu)) for mu, nvec in shapes_below(group, lam) if support(nvec) <= z.stratum
    )


def candidate_count(z: OrbitLabel, lam: Weight) -> int:
    """Number of path pairs basis_indices(z, lam) tests; it builds no direction class or path model."""
    group = z.group
    return sum(pair_count(group, mu) for mu, nvec in shapes_below(group, lam) if support(nvec) <= z.stratum)


def basis_indices(z: OrbitLabel, lam: Weight) -> tuple[MonomialIndex, ...]:
    """All basis indices for the closure of z in degree lam, selected from the runs of lam's candidates.

    Ordered by exponent vector (lexicographic, ascending) and then by the
    enumeration order of the path pairs of each shape.
    """
    shapes = stratum_shapes(z, lam)  # checks lam before any table is read
    rows = standard_rows(z)
    out: list[MonomialIndex] = []
    for _, nvec, sc in shapes:
        # row a selects, in one cached lookup, the candidates of the run of left paths starting in direction a
        out.extend(chain.from_iterable(map(getitem, sc.runs(nvec), map(rows.__getitem__, sc.dirs))))
    return tuple(out)


def graded_counts(z: OrbitLabel, lam: Weight) -> GradedTable:
    """Basis counts by boundary degree, including degrees with no index.

    The degree range runs from 0 to the largest degree of any exponent vector
    admissible for z's stratum, so interior zero rows survive.  Each shape
    adds N_mu*(a) N_mu(b) over the direction classes (a, b) set in z's table:
    N_mu*(a) times shape_classes' count of row a, summed over the runs in one
    C-level pass, each count reading a distinct row value once.
    """
    shapes = stratum_shapes(z, lam)  # checks lam before any table is read
    rows = standard_rows(z)
    degrees = [sum(nvec) for _, nvec, _ in shapes]
    counts = [0] * (max(degrees) + 1)
    for d, (_, _, sc) in zip(degrees, shapes):
        counts[d] += sum(map(mul, sc.lefts, map(sc.count, map(rows.__getitem__, sc.dirs))))
    return GradedTable(tuple(enumerate(counts)))


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
