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
and it admits the time s / D_lam iff D_lam / gcd(D_lam, m) divides s.  The
covers are read off index permutations of the orbit table: a simple
reflection's permutation and pairings are in the table, and a higher positive
root beta = s_c gamma has s_beta = s_c s_gamma s_c and
<mu, beta^vee> = <s_c mu, gamma^vee>, so no weight is built or looked up.

generate_paths walks these chains depth first in canonical order, so each
path is built once and nothing is sorted.  A path's fields are carried along
its chain rather than derived from it: the walk keeps the prefix's
directions, its steps over D_lam, their gcd with D_lam (one gcd per step gives
the lowest terms) and the endpoint of the path that would stop there.  By
end = tau_r(lam) + sum_k a_k (tau_k(lam) - tau_(k+1)(lam)), entering tau' from
tau at time s / D_lam moves that endpoint by (s - D_lam)(tau - tau') / D_lam.
This step is computed, and checked to be a lattice vector, once per (point,
time, target), when the point's successor row is built, so a path costs one
vector addition and no division for its endpoint.  The walk makes _path's
checks where they are cheapest: a duration is positive when its segment is
appended, a point differs from the one it is entered from and each endpoint
step is integral when its successor row is built, and the steps sum to D_lam
by the carried time.  Every other path is built from given fields through
_path, the one checker; both routes make the path in C by tuple.__new__.

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
from fractions import Fraction
from itertools import accumulate, product, repeat
from math import gcd, lcm
from operator import add, mul
from typing import NamedTuple

from .rootsys import (
    OrbitTable,
    RootSystem,
    Weight,
    by_weight,
    coroot_pairing,
    integral_weight,
    is_dominant,
    memoized,
    orbit_table,
    root_combination,
    sub_weights,
)
from .weyl import WeylElement, WeylGroup

Segment = tuple[Weight, Fraction]


class _PathFields(NamedTuple):
    dirs: tuple[Weight, ...]
    steps: tuple[int, ...]
    den: int
    shape: Weight
    end: Weight


class LSPath(_PathFields):
    """A path of some dominant shape: directions, and durations steps[k] / den in lowest terms.

    A named tuple, compared and hashed as its fields in C; end, the final point, is a function of the
    others.  _make and _replace build through the checker, _path; a copy or a pickle, from the segments.
    """

    __slots__ = ()

    def __new__(cls, segments, shape):
        """A path from (direction, duration) segments, durations being rationals."""
        segments = tuple(segments)
        durations = [Fraction(t) for _, t in segments]
        den = lcm(*(t.denominator for t in durations))
        steps = tuple(t.numerator * (den // t.denominator) for t in durations)
        return _path(tuple(tuple(d) for d, _ in segments), steps, den, tuple(shape))

    @classmethod
    def _make(cls, fields) -> "LSPath":
        dirs, steps, den, shape, end = fields
        path = _path(tuple(map(tuple, dirs)), tuple(steps), den, tuple(shape))
        if path.end != tuple(end):
            raise ValueError(f"endpoint {tuple(end)} is not the path's endpoint {path.end}")
        return path

    def __getnewargs__(self):
        return self.segments, self.shape

    @property
    def segments(self) -> tuple[Segment, ...]:
        """(direction, duration) pairs with Fraction durations, built on each call."""
        den = self.den
        return tuple((d, Fraction(s, den)) for d, s in zip(self.dirs, self.steps))

    def endpoint(self) -> Weight:
        """The final point, always a lattice weight."""
        return self.end


def _path(dirs: tuple[Weight, ...], steps: tuple[int, ...], den: int, shape: Weight) -> LSPath:
    """The path with these fields, checked and in lowest terms: the checker of every path built from given fields.

    generate_paths makes the same checks along its chains and builds its paths, as this does, by tuple.__new__.
    """
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
    return tuple.__new__(LSPath, (dirs, steps, den, shape, tuple(end)))


def _shape(rs: RootSystem, lam) -> Weight:
    """lam as a tuple, once it is checked to be an integral dominant weight of rs."""
    integral_weight(lam)
    if len(lam) != rs.rank:
        raise ValueError(f"weight {lam} has length {len(lam)}, not the rank {rs.rank}")
    if not is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    return tuple(lam)


def _by_shape(owner, lam):
    """Memo key of a public per-shape entry point: by_weight's, refusing a non-integer weight on a hit too."""
    return owner, integral_weight(lam)


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


def _cover_table(rs: RootSystem, table: OrbitTable, big: int) -> list[list[tuple[int, int]]]:
    """The Bruhat covers of W/W_lam, downwards: covers[k] lists (q, j) for each cover of point j by point k.

    Points are numbered as in the shape's orbit table.  A cover is
    (s_beta mu, mu) with m = <mu, beta^vee> > 0 and length one more; a step at
    time s / D_lam along it is admitted iff q = D_lam / gcd(D_lam, m) divides s.
    Each positive root's reflection is an index permutation of the orbit,
    built from a lower one: beta = s_c gamma, for a simple c with
    <beta, alpha_c^vee> > 0, gives s_beta = s_c s_gamma s_c and
    <mu, beta^vee> = <s_c mu, gamma^vee>.
    """
    length = list(map(len, table.words))
    # root -> (perm, pair): perm[k] is the index of s_beta(points[k]) and pair[k] = <points[k], beta^vee>
    by_root: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    covers: list[list[tuple[int, int]]] = [[] for _ in length]
    for beta in sorted(rs.positive_roots, key=sum):
        if sum(beta) == 1:
            c = beta.index(1)
            perm, pair = table.refl[c], table.pair[c]
        else:
            pairings = root_combination(rs, beta)  # <beta, alpha_c^vee> for each simple c
            c = next(c for c, n in enumerate(pairings) if n > 0)
            lower_perm, lower_pair = by_root[beta[:c] + (beta[c] - pairings[c],) + beta[c + 1 :]]
            refl = table.refl[c]
            perm = tuple(map(refl.__getitem__, map(lower_perm.__getitem__, refl)))
            pair = tuple(map(lower_pair.__getitem__, refl))
        by_root[beta] = perm, pair
        for j, (m, k) in enumerate(zip(pair, perm)):
            if m > 0 and length[k] == length[j] + 1:
                covers[k].append((big // gcd(big, m), j))
    return covers


@memoized(_by_shape)
def generate_paths(rs: RootSystem, lam: Weight) -> tuple[LSPath, ...]:
    """The LS paths of shape lam as chains in W/W_lam, in canonical order.

    A path runs along tau_1 > ... > tau_r, each tau_k for time a_k - a_(k-1),
    where tau_k reaches tau_(k+1) by an a_k-chain: a chain of covers that each
    admit the time a_k.  Points are taken in ascending weight order, so a
    depth-first search that tries the admitted times in ascending order and
    emits each path after those that continue it yields the canonical order,
    and builds each path once.  Each path's fields are carried along its
    chain and checked where they are made (see the module docstring).
    """
    lam = _shape(rs, lam)
    table = orbit_table(rs, lam)
    big = shape_denominator(rs, lam)
    # renumber the orbit in ascending weight order, so ascending indices are the canonical order of directions
    order = sorted(range(len(table.points)), key=table.points.__getitem__)
    renumber = [0] * len(order)
    for k, old in enumerate(order):
        renumber[old] = k
    points = [table.points[old] for old in order]
    by_table = _cover_table(rs, table, big)
    covers = [[(q, renumber[j]) for q, j in by_table[old]] for old in order]
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

    # successors[k][s] lists (j, points[j], shift) for each j in reach(k, s), built on first use
    successors: list[dict[int, list[tuple[int, Weight, Weight]]]] = [{} for _ in points]

    def successor_row(k: int, s: int) -> list[tuple[int, Weight, Weight]]:
        """The points an s-chain reaches from points[k], each with its endpoint shift (s - D_lam)(tau - tau') / D_lam."""
        tau = points[k]
        row = []
        for j in reach(k, s):
            point = points[j]
            if point == tau:
                raise ValueError("adjacent segments must have distinct directions")
            shift = []
            for x, y in zip(tau, point):
                q, r = divmod(s * (x - y), big)
                if r:
                    raise ValueError(
                        f"path endpoint is not a lattice weight: entering {point} from {tau} at time {s}/{big}"
                    )
                shift.append(q - x + y)
            row.append((j, point, tuple(shift)))
        successors[k][s] = row
        return row

    model: list[LSPath] = []

    def walk(dirs: tuple[Weight, ...], steps: tuple[int, ...], g: int, end: Weight, k: int, t: int) -> None:
        """Emit every path that continues dirs along points[k] from time t / D_lam, then the one that ends there.

        steps sum to t, g is gcd(D_lam, *steps), and end is the endpoint of
        the path that stays at points[k] until time 1.
        """
        times = admitted[k]
        row_at = successors[k]
        for s in times[bisect_right(times, t) :]:
            if s <= t:
                raise ValueError("segment durations must be positive")
            head = steps + (s - t,)
            h = gcd(g, s)
            row = row_at.get(s) or successor_row(k, s)
            for j, point, shift in row:
                walk(dirs + (point,), head, h, tuple(map(add, end, shift)), j, s)
        if t >= big:
            raise ValueError(f"durations must sum to 1, got {t}/{big} before the last segment")
        steps += (big - t,)
        if g > 1:
            steps = tuple(map(g.__rfloordiv__, steps))
        model.append(tuple.__new__(LSPath, (dirs, steps, big // g, lam, end)))

    for k, point in enumerate(points):
        walk((point,), (), big, point, k, 0)
    # walk and reach refer to themselves through their closure cells: break those cycles, so that
    # the search tables are freed on return rather than at the next full collection
    walk = reach = None
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


class PathPair(NamedTuple):
    """A pair of paths indexing a section on the doubled flag variety.

    The left path has the dual shape -w0(mu), the right path has shape mu.
    """

    left: LSPath
    right: LSPath

    @property
    def mu(self) -> Weight:
        return self.right.shape


@memoized(_by_shape)
def generate_pairs(group: WeylGroup, mu: Weight) -> tuple[PathPair, ...]:
    """All path pairs of a dominant weight, in left-major product order, each built in C."""
    mu = _shape(group.rs, mu)  # checked before its dual is taken, so an error names the caller's weight
    lefts = generate_paths(group.rs, group.dual_weight(mu))
    rights = generate_paths(group.rs, mu)
    return tuple(map(tuple.__new__, repeat(PathPair), product(lefts, rights)))


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
