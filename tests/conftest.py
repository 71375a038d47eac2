"""Shared helpers: cached groups and independent combinatorial oracles.

The orbit walk that reflects every coordinate, the raising operator, the brute-force and subword Bruhat oracles, the
root-sign test for descents, the descent-based coset oracles and the closure
criterion through group methods live here, not in the package, so the tests
exercise the shipped orbit tables, lowering operator, Bruhat intervals, descent sets,
orbit-table cosets and index-form closure test against genuinely separate
implementations.  The scan of every candidate pair is the reference for
basis_indices' selection by runs of left paths, and a search of the admitted
covers the reference for the points an s-chain reaches.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, compress, product

from wondermono import paths
from wondermono.monomials import MonomialIndex, shape_classes, standard_rows
from wondermono.orbits import OrbitLabel, OrbitPoset, build_poset
from wondermono.paths import LSPath, Segment, pair_directions
from wondermono.rootsys import (
    OrbitTable,
    RootSystem,
    Weight,
    dominant_below,
    from_name,
    orbit_table,
    root_combination,
    support,
)
from wondermono.weyl import WeylElement, WeylGroup

_GROUPS: dict[str, WeylGroup] = {}
_POSETS: dict[str, OrbitPoset] = {}


def group_of(name: str) -> WeylGroup:
    if name not in _GROUPS:
        _GROUPS[name] = WeylGroup(from_name(name))
    return _GROUPS[name]


def poset_of(name: str) -> OrbitPoset:
    if name not in _POSETS:
        _POSETS[name] = build_poset(group_of(name))
    return _POSETS[name]


def memo_contents(*owners) -> list[dict]:
    """Every non-empty memo table of the owners, copied: a memoized call may leave an empty table behind."""
    return [{name: dict(table) for name, table in owner.memo.items() if table} for owner in owners]


def weight_grid(rank: int, bound: int) -> list[Weight]:
    return [tuple(t) for t in product(range(bound + 1), repeat=rank)]


def stepwise_orbit_table(rs: RootSystem, lam: Weight) -> OrbitTable:
    """The orbit table of a dominant lam, each reflection s_c(p) = p - p_c alpha_c applied to every coordinate.

    The same breadth-first walk as rootsys.orbit_table, with the simple roots
    read by simple_root and pair read point by point.
    """
    alphas = [rs.simple_root(c) for c in range(1, rs.rank + 1)]
    points = [lam]
    index = {lam: 0}
    words: list[tuple[int, ...]] = [()]
    refl: list[list[int]] = [[] for _ in alphas]
    for k, point in enumerate(points):
        for c, alpha in enumerate(alphas):
            n = point[c]
            image = k
            if n:
                moved = tuple(x - n * a for x, a in zip(point, alpha))
                image = index.get(moved)
                if image is None:
                    image = index[moved] = len(points)
                    points.append(moved)
                    words.append((c + 1,) + words[k])
            refl[c].append(image)
    pair = tuple(tuple(point[c] for point in points) for c in range(rs.rank))
    return OrbitTable(tuple(points), index, tuple(map(tuple, refl)), pair, tuple(words))


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


def root_raise(rs: RootSystem, i: int, path: LSPath) -> LSPath | None:
    """Raising operator, the time mirror of the shipped lowering operator.

    Reflects between the last descent through m + 1 and the first attainment
    of the minimal height m; defined iff the starting height exceeds m by at
    least 1.
    """
    coord = i - 1
    heights = [Fraction(0)]
    for direction, duration in path.segments:
        heights.append(heights[-1] + duration * direction[coord])
    m = min(heights)
    if heights[0] - m < 1:
        return None
    j1 = min(j for j, x in enumerate(heights) if x == m)
    target = m + 1
    j0 = max(j for j in range(j1) if heights[j] >= target)
    theta = (target - heights[j0]) / (heights[j0 + 1] - heights[j0])

    alpha = rs.simple_root(i)

    def reflect(d: Weight) -> Weight:
        return tuple(x - d[coord] * a for x, a in zip(d, alpha))

    segs = list(path.segments[:j0])
    d, t = path.segments[j0]
    if theta != 0:
        segs.append((d, theta * t))
    segs.append((reflect(d), (1 - theta) * t))
    for k in range(j0 + 1, j1):
        d, t = path.segments[k]
        segs.append((reflect(d), t))
    segs.extend(path.segments[j1:])
    return LSPath(canonical_segments(segs), path.shape)


def brute_bruhat_down(group: WeylGroup, w: WeylElement) -> set[WeylElement]:
    """Lower Bruhat interval of w via all subwords of its canonical word."""
    out = set()
    word = w.word
    for bits in range(1 << len(word)):
        sub = tuple(word[k] for k in range(len(word)) if bits >> k & 1)
        out.add(group.from_word(sub))
    return out


def subword_down(group: WeylGroup, w: WeylElement) -> int:
    """Bitmask of the lower Bruhat interval of w, by the subword property.

    Walking the canonical word of w left to right and extending only when the
    length grows enumerates exactly the reduced subwords, hence the interval.
    """
    cur = {0}
    for letter in w.word:
        p = letter - 1
        extra = set()
        for x in cur:
            y = group._rmult[x][p]
            if group.lengths[y] > group.lengths[x]:
                extra.add(y)
        cur |= extra
    mask = 0
    for x in cur:
        mask |= 1 << x
    return mask


def add_weights(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def left_descents(group: WeylGroup, u: WeylElement) -> tuple[int, ...]:
    return group.right_descents(group.inverse(u))


def all_reduced_words(group: WeylGroup, w: WeylElement) -> list[tuple[int, ...]]:
    if w.length == 0:
        return [()]
    out = []
    for i in left_descents(group, w):
        shorter = group.multiply(group.simple(i), w)
        out.extend((i,) + rest for rest in all_reduced_words(group, shorter))
    return sorted(out)


@cache
def _roots_by_weight(rs: RootSystem) -> dict[Weight, tuple[int, ...]]:
    """Every root, positive and negative, in simple-root coordinates, keyed by its weight coordinates."""
    roots = [r for root in rs.positive_roots for r in (root, tuple(-c for c in root))]
    return {root_combination(rs, root): root for root in roots}


def simple_root_negated(group: WeylGroup, u: WeylElement, i: int) -> bool:
    """True when u sends alpha_i to a negative root, read off the roots in weight coordinates."""
    rs = group.rs
    image = _roots_by_weight(rs)[u.act(rs.simple_root(i))]
    return any(c < 0 for c in image)


def generated_parabolic(group: WeylGroup, I) -> list[WeylElement]:
    """W_I closed from the identity under right multiplication by s_i, i in I, in enumeration order."""
    found = {group.identity}
    stack = [group.identity]
    while stack:
        u = stack.pop()
        for i in I:
            v = group.multiply(u, group.simple(i))
            if v not in found:
                found.add(v)
                stack.append(v)
    return sorted(found, key=lambda el: el.index)


def descent_min_reps(group: WeylGroup, J, among=None) -> list[WeylElement]:
    """The elements (of among, or of W) with no right descent in J: a descent scan."""
    return [el for el in (group.elements if among is None else among) if not set(group.right_descents(el)) & set(J)]


def stripped_coset_rep(group: WeylGroup, w: WeylElement, J) -> WeylElement:
    """The minimal representative of w W_J, found by stripping right descents in J until none is left."""
    while True:
        inside = [i for i in group.right_descents(w) if i in J]
        if not inside:
            return w
        w = group.multiply(w, group.simple(inside[0]))


def method_witnesses(z1: OrbitLabel, z2: OrbitLabel) -> list[tuple[WeylElement, WeylElement]]:
    """The witness pairs (u, v) of z1 <= z2 through group methods per (v, u): multiply, inverse, bruhat_leq.

    v runs over W_I2 minimal for W / W_I1 with l(w2 v) additive, u over W_I1,
    each in enumeration order; (u, v) works when x2 v u^-1 <= x1 and
    w1 u <= w2 v.
    """
    group = z1.group
    if group is not z2.group:
        raise ValueError("labels from different Weyl groups")
    if not z1.stratum <= z2.stratum:
        return []
    us = group.parabolic_elements(z1.stratum)
    out = []
    for v in group.parabolic_min_reps(z2.stratum, z1.stratum):
        wv = group.multiply(z2.w, v)
        if wv.length != z2.w.length + v.length:
            continue
        xv = group.multiply(z2.x, v)
        for u in us:
            xvu = group.multiply(xv, group.inverse(u))
            if group.bruhat_leq(xvu, z1.x) and group.bruhat_leq(group.multiply(z1.w, u), wv):
                out.append((u, v))
    return out


def scanned_basis(z: OrbitLabel, lam: Weight) -> tuple[MonomialIndex, ...]:
    """basis_indices as a scan of every candidate: one selector byte per pair, one compress per shape.

    Each pair of an admitted shape is kept when bit b of row a of z's standard
    table is set for its directions (a, b).  The candidates are the library's
    shared runs, chained, so the indices kept are the objects basis_indices returns.
    """
    group = z.group
    rows = standard_rows(z)
    out: list[MonomialIndex] = []
    for mu, nvec in dominant_below(group.rs, lam):
        if support(nvec) <= z.stratum:
            selector = bytes(rows[a] >> b & 1 for a, b in pair_directions(group, mu))
            candidates = chain.from_iterable(picks.run for picks in shape_classes(group, mu).runs(nvec))
            out.extend(compress(candidates, selector))
    return tuple(out)


def searched_reach(rs: RootSystem, lam: Weight, s: int) -> dict[Weight, set[Weight]]:
    """Each point of lam's orbit with the points below it along an s-chain of at least one cover.

    A depth-first search over paths._cover_table's covers, each admitted at time
    s / D_lam iff its q divides s: the reference for paths._reach, which reads
    the covers through the chain graph's renumbering and keeps its answers.
    """
    table = orbit_table(rs, lam)
    covers = paths._cover_table(rs, table, paths.shape_denominator(rs, lam))
    reached = {}
    for k, tau in enumerate(table.points):
        seen, stack = set(), [k]
        while stack:
            for q, j in covers[stack.pop()]:
                if s % q == 0 and j not in seen:
                    seen.add(j)
                    stack.append(j)
        reached[tau] = {table.points[j] for j in seen}
    return reached
