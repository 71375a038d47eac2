"""Piecewise-linear paths in the weight lattice and their root operators.

A path is a sequence of directions (integer weight vectors lying in one Weyl
orbit, adjacent ones distinct) with positive durations summing to 1.  Each
duration is stored as an integer numerator over one positive denominator,
the path's, in lowest terms, so equal paths have equal fields however they
were built, and all path arithmetic runs on ints.  ``segments`` rebuilds the
(direction, Fraction) pairs on demand, for output and for callers that build
paths from fractions.

For a path of shape lam every breakpoint lies in (1/<lam, beta^vee>)Z for some
positive root beta, so D_lam, the lcm of the nonzero |<lam, beta^vee>|, is a
common denominator of the whole path model (shape_denominator).  Numerators
scaled to D_lam compare exactly as the durations do, which gives the
canonical sort order.

The path model is generated as LS chains (Lakshmibai-Seshadri; Littelmann,
Invent. Math. 116, 1994): tau_1 > ... > tau_r in W/W_lam with times
0 < a_1 < ... < a_(r-1) < 1, each tau_k joined to tau_(k+1) by an a_k-chain of
Bruhat covers.  In orbit form a point of the shape's W-orbit stands for its
coset, a cover (s_beta mu, mu) has m = <mu, beta^vee> > 0 and length one more,
and it admits the time s / D_lam iff D_lam / gcd(D_lam, m) divides s.
generate_paths walks these chains depth first in canonical order, so each
path is built once and nothing is sorted.

The root operators are the cross-check.  Lowering runs in orbit form too: a
direction is its index in the shape's W-orbit (rootsys.orbit_table) and the
durations are numerators over D_lam.  The orbit table gives each point's
coordinate against every simple coroot and its image under every simple
reflection, so lowering reads tables and adds ints, and builds no weight.
One kernel (_lower) follows the usual path model recipe: locate the last
attainment of the minimal height, reflect up to the next unit rise,
translate the rest.  It raises when the cut point does not land on 1/D_lam;
it never rounds.  _lowering_closure closes the straight path under it, which
verify compares with the chains; root_lower converts one path to orbit form
and back around the same kernel.  A path's initial direction, tau_1, is read
from the shape's coset table (WeylGroup.coset_table), which gives each point
of the orbit the element of its word there.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, product
from math import gcd, lcm
from operator import mul

from .rootsys import (
    OrbitTable,
    RootSystem,
    Weight,
    by_weight,
    coroot,
    coroot_pairing,
    is_dominant,
    memoized,
    orbit_table,
    root_combination,
    sub_weights,
)
from .weyl import WeylElement, WeylGroup

Segment = tuple[Weight, Fraction]


@dataclass(frozen=True, slots=True, init=False)
class LSPath:
    """A path of some dominant shape: directions, and durations steps[k] / den in lowest terms.

    end, the final point, is derived from the other fields when they are set
    and takes no part in comparison, hashing or repr.
    """

    dirs: tuple[Weight, ...]
    steps: tuple[int, ...]
    den: int
    shape: Weight
    end: Weight = field(compare=False, repr=False)

    def __init__(self, segments, shape):
        """A path from (direction, duration) segments, durations being rationals."""
        segments = tuple(segments)
        durations = [Fraction(t) for _, t in segments]
        den = lcm(*(t.denominator for t in durations))
        steps = tuple(t.numerator * (den // t.denominator) for t in durations)
        _fill(self, tuple(tuple(d) for d, _ in segments), steps, den, tuple(shape))

    @property
    def segments(self) -> tuple[Segment, ...]:
        """(direction, duration) pairs with Fraction durations, built on each call."""
        den = self.den
        return tuple((d, Fraction(s, den)) for d, s in zip(self.dirs, self.steps))

    def endpoint(self) -> Weight:
        """The final point, always a lattice weight."""
        return self.end


def _fill(path: LSPath, dirs: tuple[Weight, ...], steps: tuple[int, ...], den: int, shape: Weight) -> None:
    """Set a path's fields in lowest terms and check them: the one way a path gets its fields."""
    if not steps:
        raise ValueError("a path needs at least one segment")
    if min(steps) <= 0:
        raise ValueError("segment durations must be positive")
    total = sum(steps)
    if total != den:
        raise ValueError(f"durations must sum to 1, got {Fraction(total, den)}")
    for d1, d2 in zip(dirs, dirs[1:]):
        if d1 == d2:
            raise ValueError("adjacent segments must have distinct directions")
    g = gcd(den, *steps)
    if g > 1:
        steps = tuple(s // g for s in steps)
        den //= g
    end = []
    for column in zip(*dirs):
        q, r = divmod(sum(map(mul, column, steps)), den)
        if r:
            raise ValueError("path endpoint is not a lattice weight")
        end.append(q)
    object.__setattr__(path, "dirs", dirs)
    object.__setattr__(path, "steps", steps)
    object.__setattr__(path, "den", den)
    object.__setattr__(path, "shape", shape)
    object.__setattr__(path, "end", tuple(end))


def _path(dirs: tuple[Weight, ...], steps: tuple[int, ...], den: int, shape: Weight) -> LSPath:
    """A path from integer numerators over den, with no Fraction on the way."""
    path = object.__new__(LSPath)
    _fill(path, dirs, steps, den, shape)
    return path


def _shape(rs: RootSystem, lam) -> Weight:
    """lam as a tuple, once it is checked to be a dominant weight of rs."""
    if len(lam) != rs.rank:
        raise ValueError("weight length must equal the rank")
    if not is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    return tuple(lam)


def straight_path(rs: RootSystem, lam: Weight) -> LSPath:
    """The straight-line path to a dominant weight (a single segment)."""
    lam = _shape(rs, lam)
    return _path((lam,), (1,), 1, lam)


@memoized(by_weight)
def shape_denominator(rs: RootSystem, lam: Weight) -> int:
    """D_lam: the lcm of the nonzero |<lam, beta^vee>| over the positive roots beta.

    Every breakpoint of a path of shape lam lies in (1/D_lam)Z.  The zero shape gives 1.
    """
    return lcm(*filter(None, (abs(coroot_pairing(rs, lam, beta)) for beta in rs.positive_roots)))


def _lower(
    table: OrbitTable, c: int, dirs: tuple[int, ...], steps: tuple[int, ...], den: int, big: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The lowering operator f_{c+1} in orbit form, or None when it is undefined.

    dirs are orbit indices into table and steps numerators over den; the
    result, merged, is over big = D_lam.  Heights are the pairings against the
    simple coroot, in units of 1/den.  With m the minimal height, the operator
    exists iff the final height exceeds m by at least 1; the path is reflected
    between the last minimum and the first subsequent rise to m + 1, and
    translated by -alpha afterwards, which leaves its directions unchanged.
    """
    rises = list(map(table.pair[c].__getitem__, dirs))
    h = list(accumulate(map(mul, rises, steps), initial=0))
    m = min(h)
    if h[-1] - m < den:
        return None
    j1 = len(h) - 1 - h[::-1].index(m)
    target = m + den
    j2 = j1 + 1
    while h[j2] < target:
        j2 += 1

    scale, rem = divmod(big, den)
    if rem:
        raise ValueError(f"path denominator {den} does not divide D = {big} of shape {table.points[0]}")
    cut, rem = divmod((target - h[j2 - 1]) * scale, rises[j2 - 1])
    if rem:
        raise ValueError(f"lowering cut point is not a multiple of 1/{big}")
    if scale > 1:
        steps = [s * scale for s in steps]

    refl = table.refl[c]
    new_dirs = [*dirs[:j1], *map(refl.__getitem__, dirs[j1:j2])]
    new_steps = [*steps[:j2]]
    # the last reflected segment runs only up to the cut; the rest keeps its direction
    new_steps[-1] = cut
    rest = steps[j2 - 1] - cut
    if rest:
        new_dirs.append(dirs[j2 - 1])
        new_steps.append(rest)
    new_dirs += dirs[j2:]
    new_steps += steps[j2:]
    # reflection keeps adjacent directions distinct, and a segment that rises is not fixed by it, so
    # equal neighbours can only meet where the reflected run starts, and where it ends if no rest is left
    if not rest and j2 < len(dirs) and new_dirs[j2 - 1] == new_dirs[j2]:
        del new_dirs[j2]
        new_steps[j2 - 1] += new_steps.pop(j2)
    if j1 and new_dirs[j1 - 1] == new_dirs[j1]:
        del new_dirs[j1]
        new_steps[j1 - 1] += new_steps.pop(j1)
    return tuple(new_dirs), tuple(new_steps)


def root_lower(rs: RootSystem, i: int, path: LSPath) -> LSPath | None:
    """Apply the i-th lowering operator, or return None when it is undefined.

    The path goes to orbit form and back around the lowering kernel; the
    result is built over D_lam, where the cut point must land.
    """
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple root index {i} out of range 1..{rs.rank}")
    table = orbit_table(rs, path.shape)
    try:
        dirs = tuple(table.index[d] for d in path.dirs)
    except KeyError as exc:
        raise ValueError(f"direction {exc.args[0]} is not in the orbit of {path.shape}") from None
    big = shape_denominator(rs, path.shape)
    low = _lower(table, i - 1, dirs, path.steps, path.den, big)
    if low is None:
        return None
    return _path(tuple(table.points[d] for d in low[0]), low[1], big, path.shape)


def _lowering_closure(rs: RootSystem, lam: Weight) -> set[tuple[tuple[Weight, ...], tuple[int, ...], int]]:
    """The closure of the straight path under every lowering operator, each member in LSPath's fields.

    The closure is walked in orbit form over D_lam, one _lower call per (path,
    simple root); each member is then returned as (dirs, steps, den), the
    directions as weights and the durations in lowest terms, as an LSPath
    holds them.  This is the root-operator route to the path model, against
    which verify checks the chains of generate_paths.
    """
    lam = _shape(rs, lam)
    table = orbit_table(rs, lam)
    big = shape_denominator(rs, lam)
    start = ((0,), (big,))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for dirs, steps in frontier:
            for c in range(rs.rank):
                q = _lower(table, c, dirs, steps, big, big)
                if q is not None and q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    points = table.points
    fields = set()
    for dirs, steps in seen:
        g = gcd(big, *steps)
        fields.add((tuple(map(points.__getitem__, dirs)), tuple(s // g for s in steps), big // g))
    return fields


def _cover_table(rs: RootSystem, points: list[Weight], length: list[int], big: int) -> list[list[tuple[int, int]]]:
    """The Bruhat covers of W/W_lam, downwards: covers[k] lists (q, j) for each cover of points[j] by points[k].

    A cover is (s_beta mu, mu) with m = <mu, beta^vee> > 0 and length one more;
    a step at time s / D_lam along it is admitted iff q = D_lam / gcd(D_lam, m) divides s.
    """
    index = {point: k for k, point in enumerate(points)}
    roots = [(coroot(rs, beta), root_combination(rs, beta)) for beta in rs.positive_roots]
    covers: list[list[tuple[int, int]]] = [[] for _ in points]
    for j, mu in enumerate(points):
        for co, beta in roots:
            m = sum(map(mul, co, mu))
            if m > 0:
                k = index[tuple(x - m * b for x, b in zip(mu, beta))]
                if length[k] == length[j] + 1:
                    covers[k].append((big // gcd(big, m), j))
    return covers


@memoized(by_weight)
def generate_paths(rs: RootSystem, lam: Weight) -> tuple[LSPath, ...]:
    """The LS paths of shape lam as chains in W/W_lam, in canonical order.

    A path runs along tau_1 > ... > tau_r, each tau_k for time a_k - a_(k-1),
    where tau_k reaches tau_(k+1) by an a_k-chain: a chain of covers that each
    admit the time a_k.  Points are taken in ascending weight order, so a
    depth-first search that tries the admitted times in ascending order and
    emits each path after those that continue it yields the canonical order,
    and builds each path once.
    """
    lam = _shape(rs, lam)
    table = orbit_table(rs, lam)
    big = shape_denominator(rs, lam)
    # renumber the orbit in ascending weight order, so ascending indices are the canonical order of directions
    order = sorted(range(len(table.points)), key=table.points.__getitem__)
    points = [table.points[k] for k in order]
    covers = _cover_table(rs, points, [len(table.words[k]) for k in order], big)
    # the times (numerators over D_lam) that some cover out of each point admits, ascending
    admitted = [sorted({s for q in {q for q, _ in row} for s in range(q, big, q)}) for row in covers]
    reached: dict[tuple[int, int], list[int]] = {}

    def reach(k: int, s: int) -> list[int]:
        """The points below points[k] along an s-chain of at least one cover, ascending."""
        got = reached.get((k, s))
        if got is None:
            found = set()
            for q, j in covers[k]:
                if not s % q:
                    found.add(j)
                    found.update(reach(j, s))
            got = reached[(k, s)] = sorted(found)
        return got

    model: list[LSPath] = []

    def walk(dirs: tuple[Weight, ...], steps: tuple[int, ...], k: int, t: int) -> None:
        """Emit every path that continues dirs along points[k] from time t / D_lam, then the one that ends there."""
        dirs += (points[k],)
        times = admitted[k]
        for s in times[bisect_right(times, t) :]:
            head = steps + (s - t,)
            for j in reach(k, s):
                walk(dirs, head, j, s)
        model.append(_path(dirs, steps + (big - t,), big, lam))

    for k in range(len(points)):
        walk((), (), k, 0)
    return tuple(model)


def initial_direction(group: WeylGroup, path: LSPath) -> WeylElement:
    """The minimal-length w with w(shape) equal to the first direction.

    This is the minimal representative of the coset of the shape stabilizer;
    the zero shape yields the identity.
    """
    target = path.dirs[0]
    got = group.coset_table(path.shape).get(target)
    if got is None:
        raise ValueError(f"direction {target} is not in the orbit of {path.shape}")
    return got


@dataclass(frozen=True, slots=True)
class PathPair:
    """A pair of paths indexing a section on the doubled flag variety.

    The left path has the dual shape -w0(mu), the right path has shape mu.
    """

    left: LSPath
    right: LSPath
    mu: Weight


@memoized(by_weight)
def generate_pairs(group: WeylGroup, mu: Weight) -> tuple[PathPair, ...]:
    """All path pairs of a dominant weight, in left-major product order."""
    mu = tuple(mu)
    lefts = generate_paths(group.rs, group.dual_weight(mu))
    rights = generate_paths(group.rs, mu)
    return tuple(PathPair(l, r, mu) for l in lefts for r in rights)


@memoized(by_weight)
def path_directions(group: WeylGroup, lam: Weight) -> tuple[int, ...]:
    """Element index of each path's initial direction, aligned with generate_paths."""
    return tuple(initial_direction(group, p).index for p in generate_paths(group.rs, lam))


def pair_directions(group: WeylGroup, mu: Weight) -> Iterator[tuple[int, int]]:
    """Direction indices (a, b) of each pair of shape mu, in generate_pairs order: both path tables' product."""
    return product(path_directions(group, group.dual_weight(mu)), path_directions(group, mu))


def pair_weight(pair: PathPair) -> tuple[Weight, Weight]:
    """The weight of the indexed section: negated endpoints of both paths."""
    zero = (0,) * len(pair.mu)
    return (sub_weights(zero, pair.left.endpoint()), sub_weights(zero, pair.right.endpoint()))
