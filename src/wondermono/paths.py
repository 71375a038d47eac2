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
canonical sort order.  The lowering operator follows the usual path model
recipe: locate the last attainment of the minimal height, reflect up to the
next unit rise, translate the rest.  It builds its result over D_lam and
raises when the cut point does not land on it; it never rounds.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import gcd, lcm
from operator import mul

from .rootsys import RootSystem, Weight, by_weight, coroot_pairing, is_dominant, memoized, sub_weights
from .weyl import WeylElement, WeylGroup

Segment = tuple[Weight, Fraction]


@dataclass(frozen=True, slots=True, init=False)
class LSPath:
    """A path of some dominant shape: directions, and durations steps[k] / den in lowest terms."""

    dirs: tuple[Weight, ...]
    steps: tuple[int, ...]
    den: int
    shape: Weight

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
        out = []
        for column in zip(*self.dirs):
            q, r = divmod(sum(map(mul, column, self.steps)), self.den)
            if r:
                raise ValueError("path endpoint is not a lattice weight")
            out.append(q)
        return tuple(out)


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
    object.__setattr__(path, "dirs", dirs)
    object.__setattr__(path, "steps", steps)
    object.__setattr__(path, "den", den)
    object.__setattr__(path, "shape", shape)
    path.endpoint()  # integrality check


def _path(dirs: tuple[Weight, ...], steps: tuple[int, ...], den: int, shape: Weight) -> LSPath:
    """A path from integer numerators over den, with no Fraction on the way."""
    path = object.__new__(LSPath)
    _fill(path, dirs, steps, den, shape)
    return path


def straight_path(rs: RootSystem, lam: Weight) -> LSPath:
    """The straight-line path to a dominant weight (a single segment)."""
    if len(lam) != rs.rank:
        raise ValueError("weight length must equal the rank")
    if not is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    return _path((tuple(lam),), (1,), 1, tuple(lam))


@memoized(by_weight)
def shape_denominator(rs: RootSystem, lam: Weight) -> int:
    """D_lam: the lcm of the nonzero |<lam, beta^vee>| over the positive roots beta.

    Every breakpoint of a path of shape lam lies in (1/D_lam)Z.  The zero shape gives 1.
    """
    return lcm(*filter(None, (abs(coroot_pairing(rs, lam, beta)) for beta in rs.positive_roots)))


def root_lower(rs: RootSystem, i: int, path: LSPath) -> LSPath | None:
    """Apply the i-th lowering operator, or return None when it is undefined.

    Heights are the pairings against the i-th simple coroot, read off the
    fundamental-weight coordinate, in units of 1/path.den.  With m the minimal
    height, the operator exists iff the final height exceeds m by at least 1;
    the path is reflected between the last minimum and the first subsequent
    rise to m + 1, and translated by -alpha_i afterwards.  The result is built
    over D_lam, where the cut point must land.
    """
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple root index {i} out of range 1..{rs.rank}")
    coord = i - 1
    dirs, steps, den = path.dirs, path.steps, path.den
    rises = [d[coord] for d in dirs]
    h = list(accumulate(map(mul, rises, steps), initial=0))
    m = min(h)
    if h[-1] - m < den:
        return None
    j1 = len(h) - 1 - h[::-1].index(m)
    target = m + den
    j2 = next(j for j in range(j1 + 1, len(h)) if h[j] >= target)

    big = shape_denominator(rs, path.shape)
    scale, rem = divmod(big, den)
    if rem:
        raise ValueError(f"path denominator {den} does not divide D = {big} of shape {path.shape}")
    cut, rem = divmod((target - h[j2 - 1]) * scale, rises[j2 - 1])
    if rem:
        raise ValueError(f"lowering cut point is not a multiple of 1/{big}")

    alpha = [row[coord] for row in rs.cartan]  # rs.simple_root(i), without its range check
    new = [(d, s * scale) for d, s in zip(dirs[:j1], steps[:j1])]
    reflected = zip(dirs[j1:j2], rises[j1:j2], steps[j1:j2])
    new += [(tuple(x - c * a for x, a in zip(d, alpha)), s * scale) for d, c, s in reflected]
    # the last reflected segment runs only up to the cut; the rest keeps its direction
    new[-1] = (new[-1][0], cut)
    rest = steps[j2 - 1] * scale - cut
    if rest:
        new.append((dirs[j2 - 1], rest))
    new += [(d, s * scale) for d, s in zip(dirs[j2:], steps[j2:])]

    out_dirs: list[Weight] = []
    out_steps: list[int] = []
    for d, s in new:
        if out_dirs and out_dirs[-1] == d:
            out_steps[-1] += s
        else:
            out_dirs.append(d)
            out_steps.append(s)
    return _path(tuple(out_dirs), tuple(out_steps), big, path.shape)


@memoized(by_weight)
def generate_paths(rs: RootSystem, lam: Weight) -> tuple[LSPath, ...]:
    """Close the straight path under all lowering operators, sorted canonically."""
    start = straight_path(rs, lam)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(1, rs.rank + 1):
                q = root_lower(rs, i, p)
                if q is not None and q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    # canonical order: (direction, duration) pairs compared lexicographically, durations as numerators over D_lam
    big = shape_denominator(rs, start.shape)
    return tuple(sorted(seen, key=lambda p: tuple(zip(p.dirs, [s * (big // p.den) for s in p.steps]))))


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
    target = path.dirs[0]
    got = table.get(target)
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
