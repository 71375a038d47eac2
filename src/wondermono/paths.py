"""Piecewise-linear paths in the weight lattice and their root operators.

A path is stored as (direction, duration) segments: directions are integer
weight vectors lying in one Weyl orbit, durations are positive rationals
summing to 1.  Adjacent segments never share a direction (canonical merged
form), so equal paths have equal segment tuples.  The lowering operator
follows the usual path model recipe: locate the last attainment of the
minimal height, reflect up to the next unit rise, translate the rest.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .rootsys import RootSystem, Weight, is_dominant, memoized, sub_weights
from .weyl import WeylElement, WeylGroup

Segment = tuple[Weight, Fraction]


def canonical_segments(segments) -> tuple[Segment, ...]:
    """Merge adjacent segments with equal directions and drop zero durations."""
    out: list[list] = []
    for direction, duration in segments:
        direction = tuple(direction)
        duration = Fraction(duration)
        if duration == 0:
            continue
        if duration < 0:
            raise ValueError("segment durations must be positive")
        if out and out[-1][0] == direction:
            out[-1][1] += duration
        else:
            out.append([direction, duration])
    return tuple((d, t) for d, t in out)


@dataclass(frozen=True)
class LSPath:
    """A path of some dominant shape, in canonical segment form."""

    segments: tuple[Segment, ...]
    shape: Weight

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a path needs at least one segment")
        total = sum(t for _, t in self.segments)
        if total != 1:
            raise ValueError(f"durations must sum to 1, got {total}")
        for (d1, _), (d2, _) in zip(self.segments, self.segments[1:]):
            if d1 == d2:
                raise ValueError("adjacent segments must have distinct directions")
        self.endpoint()  # integrality check

    def endpoint(self) -> Weight:
        """The final point, always a lattice weight."""
        acc = [Fraction(0)] * len(self.shape)
        for direction, duration in self.segments:
            for k, c in enumerate(direction):
                acc[k] += duration * c
        if any(x.denominator != 1 for x in acc):
            raise ValueError("path endpoint is not a lattice weight")
        return tuple(int(x) for x in acc)

    def first_direction(self) -> Weight:
        return self.segments[0][0]


def straight_path(rs: RootSystem, lam: Weight) -> LSPath:
    """The straight-line path to a dominant weight (a single segment)."""
    if len(lam) != rs.rank:
        raise ValueError("weight length must equal the rank")
    if not is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    return LSPath(((tuple(lam), Fraction(1)),), tuple(lam))


def _breakpoints(path: LSPath, coord: int) -> list[Fraction]:
    """Cumulative heights of one coordinate at the breakpoints."""
    heights = [Fraction(0)]
    for direction, duration in path.segments:
        heights.append(heights[-1] + duration * direction[coord])
    return heights


def root_lower(rs: RootSystem, i: int, path: LSPath) -> LSPath | None:
    """Apply the i-th lowering operator, or return None when it is undefined.

    Heights are the pairings against the i-th simple coroot, read off the
    fundamental-weight coordinate.  With m the minimal height, the operator
    exists iff the final height exceeds m by at least 1; the path is reflected
    between the last minimum and the first subsequent rise to m + 1, and
    translated by -alpha_i afterwards.
    """
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple root index {i} out of range 1..{rs.rank}")
    coord = i - 1
    h = _breakpoints(path, coord)
    m = min(h)
    if h[-1] - m < 1:
        return None
    j1 = max(j for j, x in enumerate(h) if x == m)
    target = m + 1
    j2 = next(j for j in range(j1 + 1, len(h)) if h[j] >= target)
    theta = (target - h[j2 - 1]) / (h[j2] - h[j2 - 1])

    alpha = rs.simple_root(i)

    def reflect(d: Weight) -> Weight:
        return tuple(x - d[coord] * a for x, a in zip(d, alpha))

    segs = list(path.segments[:j1])
    for k in range(j1, j2 - 1):
        d, t = path.segments[k]
        segs.append((reflect(d), t))
    d, t = path.segments[j2 - 1]
    segs.append((reflect(d), theta * t))
    if theta != 1:
        segs.append((d, (1 - theta) * t))
    segs.extend(path.segments[j2:])
    return LSPath(canonical_segments(segs), path.shape)


def _by_weight(owner, lam):
    """Memo key of a per-weight result: the weight as a tuple, so a list is accepted too."""
    return owner, tuple(lam)


@memoized(_by_weight)
def generate_paths(rs: RootSystem, lam: Weight) -> tuple[LSPath, ...]:
    """Close the straight path under all lowering operators, sorted canonically."""
    start = straight_path(rs, lam)
    seen = {start.segments: start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(1, rs.rank + 1):
                q = root_lower(rs, i, p)
                if q is not None and q.segments not in seen:
                    seen[q.segments] = q
                    nxt.append(q)
        frontier = nxt
    return tuple(sorted(seen.values(), key=lambda p: p.segments))


def initial_direction(group: WeylGroup, path: LSPath) -> WeylElement:
    """The minimal-length w with w(shape) equal to the first direction.

    This is the minimal representative of the coset of the shape stabilizer;
    the zero shape yields the identity.
    """
    # a plain lookup in the group's table, not memoized(): this is the hottest call
    tables = group.memo["initial_direction"]
    table = tables.get(path.shape)
    if table is None:
        # elements run by length, so each orbit point keeps its shortest element
        table = tables[path.shape] = {el.act(path.shape): el for el in reversed(group.elements)}
    target = path.first_direction()
    got = table.get(target)
    if got is None:
        raise ValueError(f"direction {target} is not in the orbit of {path.shape}")
    return got


@dataclass(frozen=True)
class PathPair:
    """A pair of paths indexing a section on the doubled flag variety.

    The left path has the dual shape -w0(mu), the right path has shape mu.
    """

    left: LSPath
    right: LSPath
    mu: Weight


@memoized(_by_weight)
def generate_pairs(group: WeylGroup, mu: Weight) -> tuple[PathPair, ...]:
    """All path pairs of a dominant weight, in left-major product order."""
    mu = tuple(mu)
    lefts = generate_paths(group.rs, group.dual_weight(mu))
    rights = generate_paths(group.rs, mu)
    return tuple(PathPair(l, r, mu) for l in lefts for r in rights)


@memoized(_by_weight)
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
