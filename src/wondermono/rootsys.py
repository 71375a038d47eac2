"""Exact root system and weight lattice arithmetic for simple types at rank <= 4.

Conventions used throughout the package:

* simple roots are numbered 1..l following Bourbaki,
* a weight is a tuple of integers in the fundamental-weight basis,
* a root is a tuple of integers in the simple-root basis,
* ``cartan[i][j]`` pairs the j-th simple root against the i-th simple coroot,
  so column j holds the fundamental-weight coordinates of alpha_j.

All arithmetic is exact (int and fractions.Fraction); floats never appear.
Every value is immutable, so sharing a RootSystem between computations is safe.

A memoized result lives in a ``memo`` table on the object it derives from,
never in a module-level cache, so it is freed with that object (see memoized).
RootSystem.memo holds what is derived from the root system alone: the orbit
tables of orbit_table (the package's one breadth-first walk of the W-orbit of
a weight, which gives the Weyl group as the orbit of rho and each path model
its points), each root's coroot, the path models of generate_paths (LS chains
through the Bruhat covers of a shape's orbit) and each shape's common
denominator; results computed per Weyl group live on the WeylGroup.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, wraps
from itertools import product
from math import lcm
from operator import index, mul
from types import SimpleNamespace
from typing import NamedTuple

Weight = tuple[int, ...]
RootVector = tuple[int, ...]  # nonnegative simple-root coordinates
Root = tuple[int, ...]  # simple-root coordinates, uniform sign

# rank envelope per letter; E needs rank 6 and is out of scope
_VALID_RANKS = {
    "A": (1, 2, 3, 4),
    "B": (2, 3, 4),
    "C": (2, 3, 4),
    "D": (4,),
    "F": (4,),
    "G": (2,),
}


class RootSystemError(ValueError):
    """Invalid type, rank, or weight data."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise RootSystemError(msg)


_MISSING = object()


def memoized(owner_key):
    """Keep fn's results in a table on the object they are derived from.

    owner_key(*args) returns (owner, key); fn(*args) is stored in
    owner.memo[fn.__name__][key], so it is freed together with its owner.
    cache_info() counts hits and misses over all owners, as functools does.
    A hit is one dict lookup; a sentinel tells a miss from a cached None.
    """

    def decorate(fn):
        info = SimpleNamespace(hits=0, misses=0)
        name = fn.__name__

        @wraps(fn)
        def wrapper(*args):
            owner, key = owner_key(*args)
            table = owner.memo[name]
            got = table.get(key, _MISSING)
            if got is _MISSING:
                info.misses += 1
                got = table[key] = fn(*args)
            else:
                info.hits += 1
            return got

        wrapper.cache_info = lambda: SimpleNamespace(hits=info.hits, misses=info.misses)
        return wrapper

    return decorate


def by_weight(owner, lam):
    """Memo key of a per-weight (or per-root) result: the vector as a tuple, so a list is accepted too."""
    return owner, tuple(lam)


def integral_weight(lam) -> Weight:
    """lam as a tuple of ints, checked before any memo is read: (1.0, 1) equals and hashes as (1, 1)."""
    try:
        return tuple(map(index, lam))
    except TypeError:
        raise ValueError(f"weight {lam} has a coordinate that is not an integer") from None


@dataclass(frozen=True)
class RootSystem:
    """A simple root system: Cartan data plus the saturated set of roots.

    A dataclass, not a named tuple, so that its memo takes no part in == and hash.
    """

    letter: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    inverse_cartan: tuple[tuple[Fraction, ...], ...]
    symmetrizer: tuple[int, ...]  # d_i with d_i * C[i][j] symmetric
    positive_roots: tuple[Root, ...]
    memo: defaultdict[str, dict] = field(
        default_factory=partial(defaultdict, dict), compare=False, hash=False, repr=False, init=False
    )

    @property
    def name(self) -> str:
        return f"{self.letter}{self.rank}"

    @property
    def roots(self) -> tuple[Root, ...]:
        negatives = tuple(tuple(-c for c in r) for r in self.positive_roots)
        return self.positive_roots + negatives

    def simple_root(self, i: int) -> Weight:
        """Fundamental-weight coordinates of alpha_i (column i of the Cartan matrix)."""
        _require(1 <= i <= self.rank, f"simple root index {i} out of range 1..{self.rank}")
        return tuple(row[i - 1] for row in self.cartan)

    def rho(self) -> Weight:
        return (1,) * self.rank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RootSystem({self.name})"


def _edges(letter: str, rank: int) -> list[tuple[int, int, int, int]]:
    """Dynkin edges as (i, j, a, b) meaning C[i][j] = -a and C[j][i] = -b, 1-based."""
    chain = [(i, i + 1, 1, 1) for i in range(1, rank)]
    if letter == "A":
        return chain
    if letter == "B":  # alpha_rank short
        chain[-1] = (rank - 1, rank, 1, 2)
        return chain
    if letter == "C":  # alpha_rank long
        chain[-1] = (rank - 1, rank, 2, 1)
        return chain
    if letter == "D":  # rank 4: node 2 is the branch point
        return [(1, 2, 1, 1), (2, 3, 1, 1), (2, 4, 1, 1)]
    if letter == "F":  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        return [(1, 2, 1, 1), (2, 3, 1, 2), (3, 4, 1, 1)]
    if letter == "G":  # alpha_1 short, alpha_2 long
        return [(1, 2, 3, 1)]
    raise RootSystemError(f"unknown type letter {letter!r}")


def _invert(mat: list[list[int]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _symmetrizer(cartan: list[list[int]]) -> tuple[int, ...]:
    """Positive integers d with d_i C[i][j] = d_j C[j][i]; requires a connected diagram."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j != i and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                stack.append(j)
    _require(all(x is not None for x in d), "Dynkin diagram is not connected")
    scale = lcm(*(x.denominator for x in d))
    out = tuple(int(x * scale) for x in d)
    _require(all(x > 0 for x in out), "symmetrizer must be positive")
    for i in range(n):
        for j in range(n):
            _require(out[i] * cartan[i][j] == out[j] * cartan[j][i], "Cartan matrix is not symmetrizable")
    return out


def _saturate_roots(cartan: list[list[int]]) -> tuple[Root, ...]:
    """Close the simple roots under all simple reflections, in root coordinates."""
    n = len(cartan)
    simple = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(n):
                # s_i sends coordinate i to c_i - sum_j C[i][j] c_j
                ci = c[i] - sum(cartan[i][j] * c[j] for j in range(n))
                image = c[:i] + (ci,) + c[i + 1 :]
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    positives = sorted(r for r in seen if all(x >= 0 for x in r))
    _require(2 * len(positives) == len(seen), "root saturation produced a sign-unbalanced set")
    return tuple(positives)


def build(letter: str, rank: int) -> RootSystem:
    """Construct the root system of the given simple type.

    Supported: A1..A4, B2..B4, C2..C4, D4, F4, G2.  Anything else raises
    RootSystemError, including the E series (rank beyond the envelope).
    """
    _require(isinstance(rank, int) and rank >= 1, f"rank must be a positive integer, got {rank!r}")
    if letter not in _VALID_RANKS:
        raise RootSystemError(f"unknown type letter {letter!r} (expected one of A B C D F G)")
    if rank not in _VALID_RANKS[letter]:
        raise RootSystemError(f"{letter}{rank} is not a supported simple type (rank envelope is 4)")
    c = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]
    for i, j, a, b in _edges(letter, rank):
        c[i - 1][j - 1] = -a
        c[j - 1][i - 1] = -b
    inv = _invert(c)
    # entrywise nonnegativity of the inverse is what makes the dominance
    # search box below finite; assert it rather than assume it
    for row in inv:
        for x in row:
            _require(x >= 0, "inverse Cartan matrix has a negative entry")
    ident = [[sum(c[i][k] * inv[k][j] for k in range(rank)) for j in range(rank)] for i in range(rank)]
    _require(all(ident[i][j] == int(i == j) for i in range(rank) for j in range(rank)), "Cartan inverse check failed")
    return RootSystem(
        letter=letter,
        rank=rank,
        cartan=tuple(tuple(row) for row in c),
        inverse_cartan=tuple(tuple(row) for row in inv),
        symmetrizer=_symmetrizer(c),
        positive_roots=_saturate_roots(c),
    )


def from_name(name: str) -> RootSystem:
    """Build from a compact name such as "A2" or "G2".

    >>> from_name("A2").cartan
    ((2, -1), (-1, 2))
    """
    name = name.strip()
    _require(len(name) >= 2 and name[1:].isdigit(), f"cannot parse group name {name!r} (expected e.g. A2, B3, G2)")
    return build(name[0].upper(), int(name[1:]))


def is_dominant(lam: Weight) -> bool:
    return all(x >= 0 for x in lam)


def sub_weights(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def root_combination(rs: RootSystem, nvec: RootVector) -> Weight:
    """Fundamental-weight coordinates of sum_j nvec_j alpha_j."""
    return tuple(sum(rs.cartan[i][j] * nvec[j] for j in range(rs.rank)) for i in range(rs.rank))


def support(nvec: RootVector) -> frozenset[int]:
    """The 1-based indices where an exponent vector is nonzero."""
    return frozenset(i + 1 for i, n in enumerate(nvec) if n)


def dominance_diff(rs: RootSystem, lam: Weight, mu: Weight) -> RootVector | None:
    """Exponents n with lam - mu = sum n_j alpha_j, or None when mu is not below lam.

    The linear system C n = lam - mu is solved exactly; only integral
    nonnegative solutions count as comparable.
    """
    _require(len(lam) == rs.rank and len(mu) == rs.rank, "weight length must equal the rank")
    diff = sub_weights(lam, mu)
    n = [sum(rs.inverse_cartan[i][j] * diff[j] for j in range(rs.rank)) for i in range(rs.rank)]
    if any(x.denominator != 1 or x < 0 for x in n):
        return None
    return tuple(int(x) for x in n)


def exponent_bounds(rs: RootSystem, lam: Weight) -> tuple[int, ...]:
    """The box n_i <= (C^-1 lam)_i of exponent vectors that dominant_below searches.

    The box is exact because the inverse Cartan matrix is entrywise nonnegative.
    """
    integral_weight(lam)
    _require(len(lam) == rs.rank, "weight length must equal the rank")
    _require(is_dominant(lam), f"weight {lam} is not dominant")
    bounds = []
    for i in range(rs.rank):
        b = sum(rs.inverse_cartan[i][j] * lam[j] for j in range(rs.rank))
        bounds.append(b.numerator // b.denominator)
    return tuple(bounds)


def dominant_below(rs: RootSystem, lam: Weight) -> list[tuple[Weight, RootVector]]:
    """All dominant mu <= lam with their exponent vectors, ordered lex on n."""
    out = []
    for n in product(*(range(b + 1) for b in exponent_bounds(rs, lam))):
        mu = sub_weights(lam, root_combination(rs, n))
        if is_dominant(mu):
            out.append((mu, n))
    return out


@memoized(by_weight)
def coroot(rs: RootSystem, root: Root) -> tuple[int, ...]:
    """The coroot of an arbitrary root over the simple coroots: integer coefficients.

    With (alpha_j, alpha_j) = 2 d_j, alpha_j^vee = alpha_j / d_j, so
    beta^vee = 2 beta / (beta, beta) has coefficient 2 d_j beta_j / (beta, beta) on alpha_j^vee.
    """
    d = rs.symmetrizer
    norm = sum(root[i] * root[j] * d[i] * rs.cartan[i][j] for i in range(rs.rank) for j in range(rs.rank))
    out = []
    for j, c in enumerate(root):
        q, rem = divmod(2 * d[j] * c, norm)
        if rem:
            raise RootSystemError(f"{root} has no integral coroot: it is not a root of {rs.name}")
        out.append(q)
    return tuple(out)


def coroot_pairing(rs: RootSystem, lam: Weight, root: Root) -> int:
    """Pair a weight against the coroot of an arbitrary root, exactly: a dot product with its coroot."""
    return sum(map(mul, coroot(rs, root), lam))


class OrbitTable(NamedTuple):
    """The W-orbit of a weight, walked breadth-first from it over the simple reflections.

    points lists the orbit from the start (points[0]) and index inverts it.
    For the simple root alpha_{c+1}, refl[c][k] is the index of
    s_{c+1}(points[k]) and pair[c][k] is points[k][c], the pairing of
    points[k] with that simple coroot.  words[k] is the word of the point
    points[k] was first reached from, with that reflection put in front: for
    a dominant start, the reduced word of the shortest element sending
    points[0] to points[k], whose length is the breadth-first distance.
    """

    points: tuple[Weight, ...]
    index: dict[Weight, int]
    refl: tuple[tuple[int, ...], ...]
    pair: tuple[tuple[int, ...], ...]
    words: tuple[tuple[int, ...], ...]


@memoized(by_weight)
def orbit_table(rs: RootSystem, lam: Weight) -> OrbitTable:
    """The orbit table of lam: |W/W_lam| points for a dominant lam, found by simple reflections."""
    lam = tuple(lam)
    alphas = [rs.simple_root(c) for c in range(1, rs.rank + 1)]
    points = [lam]
    index = {lam: 0}
    words: list[tuple[int, ...]] = [()]
    refl: list[list[int]] = [[] for _ in alphas]
    for k, point in enumerate(points):  # points grows while it is walked: a breadth-first queue
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
