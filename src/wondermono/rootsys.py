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
RootSystem.memo holds the path models of generate_paths, which depend on the
root system alone; results computed per Weyl group live on the WeylGroup.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, wraps
from itertools import product
from math import lcm
from types import SimpleNamespace

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


def memoized(owner_key):
    """Keep fn's results in a table on the object they are derived from.

    owner_key(*args) returns (owner, key); fn(*args) is stored in
    owner.memo[fn.__name__][key], so it is freed together with its owner.
    cache_info() counts hits and misses over all owners, as functools does.
    """

    def decorate(fn):
        info = SimpleNamespace(hits=0, misses=0)

        @wraps(fn)
        def wrapper(*args):
            owner, key = owner_key(*args)
            table = owner.memo[fn.__name__]
            if key in table:
                info.hits += 1
            else:
                info.misses += 1
                table[key] = fn(*args)
            return table[key]

        wrapper.cache_info = lambda: SimpleNamespace(hits=info.hits, misses=info.misses)
        return wrapper

    return decorate


def by_weight(owner, lam):
    """Memo key of a per-weight result: the weight as a tuple, so a list is accepted too."""
    return owner, tuple(lam)


@dataclass(frozen=True)
class RootSystem:
    """A simple root system: Cartan data plus the saturated set of roots."""

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


def add_weights(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


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


def coroot_pairing(rs: RootSystem, lam: Weight, root: Root) -> int:
    """Pair a weight against the coroot of an arbitrary root, exactly.

    With (alpha_j, alpha_j) = 2 d_j, <lam, beta^vee> = 2 (lam, beta) / (beta, beta),
    an integer for every integral weight.
    """
    d = rs.symmetrizer
    num = 2 * sum(c * d[j] * lam[j] for j, c in enumerate(root))
    norm = sum(root[i] * root[j] * d[i] * rs.cartan[i][j] for i in range(rs.rank) for j in range(rs.rank))
    out, rem = divmod(num, norm)
    if rem:
        raise RootSystemError(f"weight {lam} pairs non-integrally with the coroot of {root}")
    return out
