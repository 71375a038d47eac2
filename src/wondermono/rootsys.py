"""Exact root system and weight lattice arithmetic for simple types at rank <= 4.

Conventions used throughout the package:

* simple roots are numbered 1..l following Bourbaki, and every index of one
  that the library takes passes simple_index,
* a weight is a tuple of integers in the fundamental-weight basis; every
  library entry point passes the weights it takes through rank_weight or,
  where a weight must be dominant, dominant_weight, so no memo table is ever
  filled from a refused weight,
* a root is a tuple of integers in the simple-root basis, and a coroot one
  in the simple-coroot basis: RootSystem.coroots holds each positive root's,
  found with it by one walk,
* ``cartan[i][j]`` pairs the j-th simple root against the i-th simple coroot,
  so column j holds the fundamental-weight coordinates of alpha_j.

All arithmetic is exact and in ints: the Cartan inverse is kept as its
adjugate and determinant, and a reader divides once.  No float or Fraction
appears.  No value is changed once built, so sharing a RootSystem between
computations is safe.

Every derived table goes through one decorator, memoized, which keeps it in
a ``memo`` table on the object it derives from, never in a module-level
cache, so it is freed with that object.  RootSystem.memo holds what is
derived from the root system alone: the orbit tables of orbit_table (the
package's one breadth-first walk of the W-orbit of a weight, which gives the
Weyl group as the orbit of rho and each path model its points), each
shape's common denominator, its chain graph (_chain_graph: the orbit's points
in ascending order, the Bruhat covers between them and the times each admits,
which generate_paths walks and root_lower checks a path against) and its path
model (generate_paths), and the dominant weights below each weight
(dominant_below), which every count of the standardness layer reads; results
computed per Weyl group live on the WeylGroup, and an orbit poset's covers
and up-sets on the OrbitPoset.
"""

from __future__ import annotations

from collections import defaultdict
from functools import wraps
from itertools import product
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


def memoized(owner_key=None):
    """Keep fn's results in a table on the object they are derived from.

    The result of fn(*args) is stored in owner.memo[fn.__name__][key], so it
    is freed together with its owner: a RootSystem, a WeylGroup or an
    orbits.OrbitPoset, the three classes that hold a memo.  (owner, key) is
    owner_key(*args) when owner_key is given, and the call's two arguments
    otherwise; a table derived from its owner alone, such as the group's
    inverses or the poset's covers and up-sets, is keyed (owner, None).  A
    hit costs one lookup and a miss one store; a miss passes fn the caller's
    own arguments, so a refusal names them.  A key that cannot be hashed
    raises TypeError and stores nothing.  cache_info() counts hits and misses
    over all owners, as functools does; a stored None is a hit like any other
    value.

    One key rule: a public table keyed by a weight is keyed by weight_key, the
    checked tuple, so (1.0, 1), which equals and hashes as (1, 1), is refused
    whether or not (1, 1) is cached; a table kept per subset of the simple
    roots is keyed by WeylGroup._check_subset's frozenset of ints, so {1.0} is
    refused the same way.  A table keyed by the raw argument is private to
    readers that pass a checked value: WeylGroup._coset_table an int tuple,
    and the subset tables the frozenset their public reader checked, which is
    all their bodies read, so a one-shot iterator is read once.
    """

    def decorate(fn):
        hits = misses = 0  # cells, not attributes: a hit costs one increment
        name = fn.__name__

        @wraps(fn)
        def wrapper(*args):
            nonlocal hits, misses
            owner, key = args if owner_key is None else owner_key(*args)
            table = owner.memo[name]
            try:
                got = table[key]
                hits += 1
                return got
            except KeyError:
                pass
            # fn runs outside the handler, so its own exceptions carry no KeyError context
            misses += 1
            got = table[key] = fn(*args)
            return got

        wrapper.cache_info = lambda: SimpleNamespace(hits=hits, misses=misses)
        return wrapper

    return decorate


def rank_weight(rs: RootSystem, lam) -> Weight:
    """lam as a tuple of rs.rank ints, or a RootSystemError naming the caller's lam: the one weight check.

    (1.0, 1) equals and hashes as (1, 1), so it is refused here, before a memo could store or return it.
    """
    try:
        out = tuple(map(index, lam))
    except TypeError:
        raise RootSystemError(f"weight {lam} has a coordinate that is not an integer") from None
    if len(out) != rs.rank:
        raise RootSystemError(f"weight {lam} has length {len(out)}, not the rank {rs.rank}")
    return out


def simple_index(rs: RootSystem, i, noun: str = "simple root") -> int:
    """i as an int in 1..rs.rank, or a RootSystemError naming the caller's i: the one simple-root index check.

    Read by operator.index, as a weight coordinate is, so True is 1 and 1.0 and "1" are refused.
    """
    try:
        out = index(i)
    except TypeError:
        raise RootSystemError(f"{noun} index {i!r} is not an integer") from None
    _require(1 <= out <= rs.rank, f"{noun} index {i} out of range 1..{rs.rank}")
    return out


def dominant_weight(rs: RootSystem, lam) -> Weight:
    """rank_weight(rs, lam), refusing a weight with a negative coordinate too."""
    out = rank_weight(rs, lam)
    if not is_dominant(out):
        raise RootSystemError(f"weight {lam} is not dominant")
    return out


def weight_key(owner, lam) -> tuple[object, Weight]:
    """(owner, dominant_weight(lam)): the memo key of a table kept per dominant weight on a root system or a group."""
    return owner, dominant_weight(owner if owner.__class__ is RootSystem else owner.rs, lam)


class RootSystem:
    """A simple root system: Cartan data plus the saturated set of roots.

    The Cartan inverse is adjugate / det, kept in integers, and coroots[k] is
    the coroot of positive_roots[k] over the simple coroots.  A slotted class,
    not a named tuple: == and hash read the seven data fields and not the
    memo, and a root system can be weakly referenced, which a tuple cannot.
    """

    __slots__ = ("letter", "rank", "cartan", "adjugate", "det", "positive_roots", "coroots", "memo", "__weakref__")

    def __init__(
        self,
        letter: str,
        rank: int,
        cartan: tuple[tuple[int, ...], ...],
        adjugate: tuple[tuple[int, ...], ...],  # det times the inverse of cartan
        det: int,
        positive_roots: tuple[Root, ...],
        coroots: tuple[Root, ...],  # aligned with positive_roots
    ):
        self.letter = letter
        self.rank = rank
        self.cartan = cartan
        self.adjugate = adjugate
        self.det = det
        self.positive_roots = positive_roots
        self.coroots = coroots
        self.memo: defaultdict[str, dict] = defaultdict(dict)

    def _data(self) -> tuple:
        return (self.letter, self.rank, self.cartan, self.adjugate, self.det, self.positive_roots, self.coroots)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._data() == other._data()

    def __hash__(self) -> int:
        return hash(self._data())

    @property
    def name(self) -> str:
        return f"{self.letter}{self.rank}"

    def simple_root(self, i: int) -> Weight:
        """Fundamental-weight coordinates of alpha_i (column i of the Cartan matrix)."""
        i = simple_index(self, i)
        return tuple(row[i - 1] for row in self.cartan)

    def rho(self) -> Weight:
        return (1,) * self.rank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RootSystem({self.name})"


def _edges(letter: str, rank: int) -> list[tuple[int, int, int, int]]:
    """Dynkin edges as (i, j, a, b) meaning C[i][j] = -a and C[j][i] = -b, 1-based, for a letter build admits."""
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
    # G, the last letter build admits: alpha_1 short, alpha_2 long
    return [(1, 2, 3, 1)]


def _invert(mat: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(d, M) with mat M = d I, in integers: fraction-free Gauss-Jordan elimination.

    Each step scales a row by the pivot, subtracts, and divides exactly by the
    previous pivot (Bareiss), so every entry stays an integer and, at the end,
    every diagonal entry is the last pivot d: the determinant, up to the sign
    of the row swaps.  The inverse is M / d; a reader divides once, by d.
    """
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    prev = 1
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        pv = top[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(pv * x - f * y) // prev for x, y in zip(aug[r], top)]
        prev = pv
    return prev, [row[n:] for row in aug]


def _off_diagonal(rows) -> list[list[tuple[int, int]]]:
    """For each row i, its nonzero entries off the diagonal as (j, entry): i's Dynkin neighbours."""
    return [[(j, a) for j, a in enumerate(row) if a and j != i] for i, row in enumerate(rows)]


def _saturate_roots(cartan: list[list[int]]) -> tuple[tuple[Root, ...], tuple[Root, ...]]:
    """The positive roots in ascending order and their coroots, aligned: the simple roots and coroots closed together.

    s_i changes coordinate i only: of a root by row i of the Cartan matrix, to
    c_i - sum_j C[i][j] c_j = -c_i - sum over i's neighbours j of C[i][j] c_j,
    and of its coroot by column i, as <alpha_i, alpha_j^vee> = C[j][i].  The
    coroot of s_i beta is s_i beta^vee, so each root carries its own coroot.
    """
    n = len(cartan)
    simple = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    steps = list(zip(range(n), _off_diagonal(cartan), _off_diagonal(zip(*cartan))))

    def reflect(c: Root, i: int, neighbours) -> Root:
        ci = -c[i]
        for j, a in neighbours:
            ci -= a * c[j]
        return c[:i] + (ci,) + c[i + 1 :]

    coroot = dict(zip(simple, simple))
    frontier = simple
    while frontier:
        nxt = []
        for c in frontier:
            for i, row, column in steps:
                image = reflect(c, i, row)
                if image not in coroot:
                    coroot[image] = reflect(coroot[c], i, column)
                    nxt.append(image)
        frontier = nxt
    positives = sorted(r for r in coroot if all(x >= 0 for x in r))
    _require(2 * len(positives) == len(coroot), "root saturation produced a sign-unbalanced set")
    return tuple(positives), tuple(map(coroot.__getitem__, positives))


def build(letter: str, rank: int) -> RootSystem:
    """Construct the root system of the given simple type.

    Supported: A1..A4, B2..B4, C2..C4, D4, F4, G2.  Anything else raises
    RootSystemError, including the E series (rank beyond the envelope).
    """
    try:
        rank = index(rank)  # the check rank_weight makes of a coordinate: True is 1, 2.0 and "2" are refused
    except TypeError:
        raise RootSystemError(f"rank must be a positive integer, got {rank!r}") from None
    _require(rank >= 1, f"rank must be a positive integer, got {rank!r}")
    if letter not in _VALID_RANKS:
        raise RootSystemError(f"unknown type letter {letter!r} (expected one of A B C D F G)")
    if rank not in _VALID_RANKS[letter]:
        raise RootSystemError(f"{letter}{rank} is not a supported simple type (rank envelope is 4)")
    c = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]
    for i, j, a, b in _edges(letter, rank):
        c[i - 1][j - 1] = -a
        c[j - 1][i - 1] = -b
    det, adj = _invert(c)  # adj = det C^-1
    # entrywise nonnegativity of the inverse is what makes the dominance
    # search box below finite; assert it rather than assume it
    _require(all(x * det >= 0 for row in adj for x in row), "inverse Cartan matrix has a negative entry")
    ident = [[sum(c[i][k] * adj[k][j] for k in range(rank)) for j in range(rank)] for i in range(rank)]
    _require(ident == [[det * (i == j) for j in range(rank)] for i in range(rank)], "Cartan inverse check failed")
    return RootSystem(letter, rank, tuple(map(tuple, c)), tuple(map(tuple, adj)), det, *_saturate_roots(c))


def from_name(name: str) -> RootSystem:
    """Build from a compact name such as "A2" or "G2".

    >>> from_name("A2").cartan
    ((2, -1), (-1, 2))
    """
    name = name.strip()
    letter, rank = name[:1], name[1:]
    _require(rank.isascii() and rank.isdigit(), f"malformed group name {name!r}, expected letter plus rank like A2")
    # a letter whose upper case is no type letter ('x', or 'ß', which upper-cases to 'SS') is refused as passed
    upper = letter.upper()
    return build(upper if upper in _VALID_RANKS else letter, int(rank))


def is_dominant(lam: Weight) -> bool:
    return min(lam, default=0) >= 0


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

    The linear system C n = lam - mu is solved exactly, as adjugate (lam - mu)
    divided once by det; only integral nonnegative solutions count as comparable.
    """
    diff = sub_weights(rank_weight(rs, lam), rank_weight(rs, mu))
    out = []
    for row in rs.adjugate:
        q, r = divmod(sum(map(mul, row, diff)), rs.det)
        if r or q < 0:
            return None
        out.append(q)
    return tuple(out)


def exponent_bounds(rs: RootSystem, lam: Weight) -> tuple[int, ...]:
    """The box n_i <= (C^-1 lam)_i of exponent vectors that dominant_below searches.

    The box is exact because the inverse Cartan matrix is entrywise nonnegative.
    """
    lam = dominant_weight(rs, lam)
    return tuple(sum(map(mul, row, lam)) // rs.det for row in rs.adjugate)


@memoized(weight_key)
def dominant_below(rs: RootSystem, lam: Weight) -> tuple[tuple[Weight, RootVector], ...]:
    """All dominant mu <= lam with their exponent vectors, ordered lex on n: searched once per weight."""
    out = []
    for n in product(*(range(b + 1) for b in exponent_bounds(rs, lam))):
        mu = sub_weights(lam, root_combination(rs, n))
        if is_dominant(mu):
            out.append((mu, n))
    return tuple(out)


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


@memoized(weight_key)
def orbit_table(rs: RootSystem, lam: Weight) -> OrbitTable:
    """The orbit table of a dominant lam: |W/W_lam| points, found by simple reflections."""
    lam = dominant_weight(rs, lam)  # the int tuple, stored as points[0]
    # s_c subtracts n alpha_c, n = point[c], and alpha_c is column c of the Cartan matrix: coordinate c
    # becomes -n, each Dynkin neighbour j of c moves by -n C[j][c], and no other coordinate changes.
    # s_c is an involution, so one step from the end with n > 0 fills both entries of an edge, and n = 0 is
    # a fixed point.  From a point with n < 0, s_c leads one step nearer points[0] (l(s_c w) < l(w) for its
    # minimal coset representative w), to a point walked earlier whose step filled the entry; so no point is
    # first reached by such a step, and the discovery order, hence every field, is that of the full walk
    points = [lam]
    index = {lam: 0}
    words: list[tuple[int, ...]] = [()]
    refl: list[list[int | None]] = [[None] for _ in range(rs.rank)]  # one slot per point, filled by the walk
    steps = [(c, neighbours, refl[c]) for c, neighbours in enumerate(_off_diagonal(zip(*rs.cartan)))]
    for k, point in enumerate(points):  # points grows while it is walked: a breadth-first queue
        for c, neighbours, row in steps:
            n = point[c]
            if n > 0:
                moved = list(point)
                moved[c] = -n
                for j, a in neighbours:
                    moved[j] -= n * a
                moved = tuple(moved)
                image = index.get(moved)
                if image is None:
                    image = index[moved] = len(points)
                    points.append(moved)
                    words.append((c + 1,) + words[k])
                    for slots in refl:
                        slots.append(None)
                row[k] = image
                row[image] = k
            elif not n:
                row[k] = k
    return OrbitTable(tuple(points), index, tuple(map(tuple, refl)), tuple(zip(*points)), tuple(words))
