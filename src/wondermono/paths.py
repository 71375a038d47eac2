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

A shape's chain graph (_chain_graph: the orbit's points in ascending weight
order, D_lam, the covers and each point's admitted times) is a memo table,
built once per shape and read by two callers: generate_paths walks it, and
_is_ls, root_lower's check, tests a given path against it.  Which points an
s-chain reaches (_reach) is not kept in the graph: each caller reads it into
a table of its own, dropped when the call returns, as are the walk's
successor rows.  The graph's memo, like every table kept per shape here, is
keyed by rootsys.weight_key (see rootsys.memoized).

generate_paths walks these chains depth first in canonical order, so each
path is built once and nothing is sorted.  A path's fields are carried along
its chain rather than derived from it: the walk keeps the prefix's
directions, its steps over D_lam, their gcd with D_lam (one gcd per step
gives the lowest terms) and the endpoint of the path that would stop there.
By
end = tau_r(lam) + sum_k a_k (tau_k(lam) - tau_(k+1)(lam)), entering tau' from
tau at time s / D_lam moves that endpoint by (s - D_lam)(tau - tau') / D_lam.
This step is computed, and checked to be a lattice vector, once per (point,
time, target), when the point's successor row is built, so a path costs one
vector addition and no division for its endpoint.  Of _path's checks the
walk keeps one, that each endpoint step is integral, made when a successor
row is built; the others hold by construction.  A duration is positive, as
each time s is taken above the current time t; the steps sum to D_lam, as
the current time is 0 or an admitted time, below D_lam, and the last
segment runs to D_lam; a point differs from the one it is entered from, as
an s-chain only walks down covers, to points with longer words; and the
directions and shape are int tuples, read off the checked weight's orbit
table.  Every other path is built from given fields through _path, the one
checker; both routes make the path in C by tuple.__new__.

A model repeats its fields: paths with one sequence of directions and
different times, with one time sequence and different directions, or with one
endpoint.  generate_paths keeps each distinct dirs, steps and end value it
meets once, in a table local to the call, and every path takes its fields
from that table, so equal fields of one model are one object: the B3 (3,3,3)
model's 262,144 paths hold 55,850 direction tuples, 17,704 step tuples and
2,728 endpoints, about half the memory of a copy per path.  Sharing is safe
because the fields are tuples of ints or of int tuples, which no reader can
change, and the table is freed on return with the reach table and the
successor rows, so nothing the walk builds outlives the call but the model.
The lowest-terms steps of the paths that enter a point at one time are made
once, by the walk's caller, for every point that time reaches.

The root operators are the cross-check.  Lowering runs in orbit form too: a
direction is its index in the shape's W-orbit (rootsys.orbit_table) and the
durations are numerators over D_lam.  The orbit table gives each point's
coordinate against every simple coroot and its image under every simple
reflection, so lowering reads tables and adds ints, and builds no weight.
One kernel (_lower) follows the usual path model recipe: locate the last
attainment of the minimal height, reflect up to the next unit rise,
translate the rest.  It reads steps over D_lam only, and raises when the
cut point does not land on 1/D_lam; it never rounds.  _lowering_closure
closes the straight path under it, which verify compares with the chains,
and reads no chain graph, so the two routes stay independent; root_lower
checks one path by _is_ls, which refuses a denominator that does not divide
D_lam, then scales its steps to D_lam and converts it to orbit form and back
around the same kernel, so every input of _lower is an LS path over D_lam.
A path's initial direction, tau_1, is read from the shape's coset table
(WeylGroup._coset_table), which gives each point of the orbit the element of
its word there.  The table is keyed by the shape unchecked, one dict lookup
per path, which is safe because every path's shape is an int tuple, checked
by _path or generate_paths when the path was made.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate, product, repeat
from math import gcd, lcm
from numbers import Rational
from operator import add, index, mul
from typing import NamedTuple

from .rootsys import (
    OrbitTable,
    RootSystem,
    Weight,
    coroot_pairing,
    dominant_weight,
    memoized,
    orbit_table,
    root_combination,
    weight_key,
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
        for _, t in segments:
            # Fraction would read a float or a string too, so a path could be built from 0.5 or "1/2"
            if not isinstance(t, Rational):
                raise ValueError(f"segment duration {t!r} is not a rational number")
        durations = [Fraction(t) for _, t in segments]
        den = lcm(*(t.denominator for t in durations))
        steps = tuple(t.numerator * (den // t.denominator) for t in durations)
        return _path(tuple(d for d, _ in segments), steps, den, shape)

    @classmethod
    def _make(cls, fields) -> "LSPath":
        dirs, steps, den, shape, end = fields
        path = _path(dirs, steps, den, shape)
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


def _path(dirs, steps, den, shape) -> LSPath:
    """The path with these fields, checked and in lowest terms: the checker of every path built from given fields.

    generate_paths builds its paths, as this does, by tuple.__new__, and its chains satisfy these checks (see
    the module docstring).  Directions and shape must be int vectors, read as rootsys.rank_weight reads a
    weight: (1.0, 0) equals and hashes as (1, 0), so a memo keyed by a float shape would answer from an int
    entry.  The steps and the denominator are read the same way, so True is stored as 1 and 1.0 is refused.
    Every direction must have the shape's length; whether it lies in the shape's W-orbit is left to the
    readers that need the orbit, root_lower and initial_direction, which refuse a direction outside it.
    """
    try:
        shape = tuple(map(index, shape))
        dirs = tuple(tuple(map(index, d)) for d in dirs)
        steps = tuple(map(index, steps))
        den = index(den)
    except TypeError:
        raise ValueError(
            f"path directions {dirs}, steps {steps}, denominator {den} and shape {shape} must have int coordinates"
        ) from None
    if not steps:
        raise ValueError("a path needs at least one segment")
    if set(map(len, dirs)) != {len(shape)}:
        raise ValueError(f"every direction must have the length {len(shape)} of the shape {shape}")
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


@memoized(weight_key)
def shape_denominator(rs: RootSystem, lam: Weight) -> int:
    """D_lam: the lcm of the nonzero |<lam, beta^vee>| over the positive roots beta.

    Every breakpoint of a path of shape lam lies in (1/D_lam)Z.  The zero shape gives 1.
    """
    return lcm(*filter(None, (abs(coroot_pairing(rs, lam, beta)) for beta in rs.positive_roots)))


def _lower(
    table: OrbitTable, c: int, dirs: tuple[int, ...], steps: tuple[int, ...], big: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The lowering operator f_{c+1} in orbit form, or None when it is undefined.

    dirs are orbit indices into table and steps numerators over big = D_lam,
    as is the result, merged.  Heights are the pairings against the simple
    coroot, in units of 1/D_lam.  With m the minimal height, the operator
    exists iff the final height exceeds m by at least 1; the path is reflected
    between the last minimum and the first subsequent rise to m + 1, and
    translated by -alpha afterwards, which leaves its directions unchanged.
    """
    rises = list(map(table.pair[c].__getitem__, dirs))
    h = list(accumulate(map(mul, rises, steps), initial=0))
    m = min(h)
    if h[-1] - m < big:
        return None
    j1 = len(h) - 1 - h[::-1].index(m)
    target = m + big
    j2 = j1 + 1
    while h[j2] < target:
        j2 += 1

    cut, rem = divmod(target - h[j2 - 1], rises[j2 - 1])
    if rem:
        raise ValueError(f"lowering cut point is not a multiple of 1/{big}")

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
    # equal neighbours can only meet where the reflected run starts, or where it ends if no rest is left.
    # They never meet at the end on an LS path, the only input (root_lower checks its path by _is_ls, and
    # _lowering_closure lowers LS paths only): there the height is m + 1, and a next direction equal to the
    # reflected one pairs negatively with alpha_c, so the height falls; as the final height is at least
    # m + 1, it turns back up at a local minimum strictly between m and m + 1 (j1 is the last global
    # minimum), while an LS path's local minima of <pi(t), alpha_c^vee> are integers.
    if j1 and new_dirs[j1 - 1] == new_dirs[j1]:
        del new_dirs[j1]
        new_steps[j1 - 1] += new_steps.pop(j1)
    return tuple(new_dirs), tuple(new_steps)


def root_lower(rs: RootSystem, i: int, path: LSPath) -> LSPath | None:
    """Apply the i-th lowering operator, or return None when it is undefined.

    The path must be an LS path of its shape (_is_ls), or a ValueError says
    what fails; its denominator then divides D_lam, and its steps go to the
    lowering kernel scaled to D_lam, in orbit form, and back.  The cut point
    must land on 1/D_lam.
    """
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple root index {i} out of range 1..{rs.rank}")
    _is_ls(rs, path)
    table = orbit_table(rs, path.shape)
    big = shape_denominator(rs, path.shape)
    steps = tuple(map((big // path.den).__mul__, path.steps))
    low = _lower(table, i - 1, tuple(map(table.index.__getitem__, path.dirs)), steps, big)
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
    table = orbit_table(rs, lam)
    big = shape_denominator(rs, lam)
    start = ((0,), (big,))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for dirs, steps in frontier:
            for c in range(rs.rank):
                q = _lower(table, c, dirs, steps, big)
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


class _ChainGraph(NamedTuple):
    points: tuple[Weight, ...]  # the shape's orbit in ascending weight order
    den: int  # D_lam
    covers: tuple[tuple[tuple[int, int], ...], ...]  # covers[k]: (q, j) for each cover of points[j] by points[k]
    admitted: tuple[tuple[int, ...], ...]  # admitted[k]: the times some cover out of points[k] admits, ascending


@memoized(weight_key)
def _chain_graph(rs: RootSystem, lam: Weight) -> _ChainGraph:
    """The chain graph of W/W_lam, which generate_paths walks and _is_ls checks a path against.

    Its points are the orbit's, renumbered in ascending weight order, so
    ascending indices are the canonical order of directions; its covers are
    _cover_table's, each (q, j) admitting the time s / D_lam iff q divides s;
    and each point's admitted times are the numerators in (0, D_lam) that some
    cover out of it admits.  Which points an s-chain reaches is not kept here:
    _reach reads it into a table of the caller's.
    """
    table = orbit_table(rs, lam)
    big = shape_denominator(rs, lam)
    # the orbit table's indices in ascending weight order, and the inverse: each index's place in that order
    order = sorted(range(len(table.points)), key=table.points.__getitem__)
    where = sorted(range(len(order)), key=order.__getitem__)
    covers = tuple(
        tuple([(q, where[j]) for q, j in row]) for row in map(_cover_table(rs, table, big).__getitem__, order)
    )
    admitted = [sorted({s for q in {q for q, _ in row} for s in range(q, big, q)}) for row in covers]
    return _ChainGraph(tuple(map(table.points.__getitem__, order)), big, covers, tuple(map(tuple, admitted)))


def _reach(graph: _ChainGraph, reached: dict[tuple[int, int], list[int]], k: int, s: int) -> list[int]:
    """The points below graph.points[k] along an s-chain of at least one cover, ascending.

    Each answer is kept in reached, the caller's table, which lives as long as
    the caller's walk or check: the graph's memo entry holds no reach table.
    """
    got = reached.get((k, s))
    if got is None:
        found = set()
        for q, j in graph.covers[k]:
            if not s % q:
                found.add(j)
                found.update(_reach(graph, reached, j, s))
        got = reached[k, s] = sorted(found)
    return got


def _is_ls(rs: RootSystem, path: LSPath) -> bool:
    """True for an LS path of its shape, else a ValueError naming the first direction or breakpoint that fails.

    The test generate_paths applies as it walks: each direction is a point of
    the shape's orbit, D_lam is a multiple of the path's denominator, and at
    each breakpoint, s_k as a numerator over D_lam, the next direction is in
    reach(tau_k, s_k): some s_k-chain leads down to it from tau_k.
    """
    graph = _chain_graph(rs, path.shape)
    points, big = graph.points, graph.den
    at = []
    for d in path.dirs:
        k = bisect_left(points, d)
        if k == len(points) or points[k] != d:
            raise ValueError(f"direction {d} is not in the orbit of {path.shape}")
        at.append(k)
    scale, rem = divmod(big, path.den)
    if rem:
        raise ValueError(f"path denominator {path.den} does not divide D = {big} of shape {path.shape}")
    reached: dict[tuple[int, int], list[int]] = {}
    for k, j, s in zip(at, at[1:], accumulate(map(scale.__mul__, path.steps))):
        if j not in _reach(graph, reached, k, s):
            raise ValueError(
                f"not an LS path of shape {path.shape}: no chain at its breakpoint {Fraction(s, big)}"
                f" leads from {points[k]} to {points[j]}"
            )
    return True


@memoized(weight_key)
def generate_paths(rs: RootSystem, lam: Weight) -> tuple[LSPath, ...]:
    """The LS paths of shape lam as chains in W/W_lam, in canonical order.

    A path runs along tau_1 > ... > tau_r, each tau_k for time a_k - a_(k-1),
    where tau_k reaches tau_(k+1) by an a_k-chain: a chain of covers that each
    admit the time a_k.  The walk reads the shape's chain graph (_chain_graph),
    whose points are in ascending weight order, so a depth-first search that
    tries the admitted times in ascending order and emits each path after
    those that continue it yields the canonical order, and builds each path
    once.  Each path's fields are carried along its chain, valid by
    construction but for the endpoint steps, checked when a successor row is
    built, and the model's paths share each distinct dirs, steps and end value
    as one object.  The reach answers, the successor rows and the sharing
    table are the call's own, dropped on return (see the module docstring).
    """
    lam = dominant_weight(rs, lam)
    points, big, _, admitted = graph = _chain_graph(rs, lam)
    reached: dict[tuple[int, int], list[int]] = {}
    # successors[k][s] lists (j, points[j], shift) for each j in reach(k, s), with the endpoint shift
    # (s - D_lam)(tau - tau') / D_lam of entering tau' = points[j] from tau = points[k]: built on first use
    successors: list[dict[int, list[tuple[int, Weight, Weight]]]] = [{} for _ in points]
    model: list[LSPath] = []
    # share(v, v) is the first object met in this model with v's value: its paths hold each dirs, steps and end once
    share = {}.setdefault

    def walk(
        dirs: tuple[Weight, ...], steps: tuple[int, ...], g: int, end: Weight, k: int, t: int, last: tuple[int, ...]
    ) -> None:
        """Emit every path that continues dirs along points[k] from time t / D_lam, then the one that ends there.

        steps sum to t, g is gcd(D_lam, *steps), end is the endpoint of the
        path that stays at points[k] until time 1, and last is that path's
        steps in lowest terms, made once by the caller for all the points
        one time reaches.
        """
        times = admitted[k]
        row_at = successors[k]
        for s in times[bisect_right(times, t) :]:
            head = steps + (s - t,)
            h = gcd(g, s)
            tail = head + (big - s,)
            if h > 1:
                tail = tuple(map(h.__rfloordiv__, tail))
            tail = share(tail, tail)
            if s not in row_at:
                row = row_at[s] = []
                for j in _reach(graph, reached, k, s):
                    point = points[j]
                    shift = []
                    for x, y in zip(dirs[-1], point):
                        q, r = divmod(s * (x - y), big)
                        if r:
                            raise ValueError(
                                "path endpoint is not a lattice weight:"
                                f" entering {point} from {dirs[-1]} at time {s}/{big}"
                            )
                        shift.append(q - x + y)
                    row.append((j, point, tuple(shift)))
            for j, point, shift in row_at[s]:
                walk(dirs + (point,), head, h, tuple(map(add, end, shift)), j, s, tail)
        model.append(tuple.__new__(LSPath, (share(dirs, dirs), last, big // g, lam, share(end, end))))

    for k, point in enumerate(points):
        walk((point,), (), big, point, k, 0, (1,))
    # walk refers to itself through its closure cell: break that cycle, so that the search tables
    # and the sharing table are freed on return rather than at the next full collection
    walk = None
    return tuple(model)


def initial_direction(group: WeylGroup, path: LSPath) -> WeylElement:
    """The minimal-length w with w(shape) equal to the first direction.

    This is the minimal representative of the coset of the shape stabilizer;
    the zero shape yields the identity.
    """
    target = path.dirs[0]
    got = group._coset_table(path.shape).get(target)
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


@memoized(weight_key)  # checked before its dual is taken
def generate_pairs(group: WeylGroup, mu: Weight) -> tuple[PathPair, ...]:
    """All path pairs of a dominant weight, in left-major product order, each built in C."""
    lefts = generate_paths(group.rs, group.dual_weight(mu))
    rights = generate_paths(group.rs, mu)
    return tuple(map(tuple.__new__, repeat(PathPair), product(lefts, rights)))


@memoized(weight_key)
def path_directions(group: WeylGroup, lam: Weight) -> tuple[int, ...]:
    """Element index of each path's initial direction, aligned with generate_paths."""
    return tuple(initial_direction(group, p).index for p in generate_paths(group.rs, lam))


def pair_directions(group: WeylGroup, mu: Weight) -> Iterator[tuple[int, int]]:
    """Direction indices (a, b) of each pair of shape mu, in generate_pairs order: both path tables' product."""
    return product(path_directions(group, group.dual_weight(mu)), path_directions(group, mu))
