"""Finite Weyl groups: enumeration, Bruhat order, parabolic coset combinatorics.

An element is identified with its integer action matrix on fundamental-weight
coordinates.  Each element carries its canonical word, the lexicographically
smallest reduced word, and the elements are listed in (length, word) order, so
the identity comes first and the longest element last.

One breadth-first pass builds the group in that order.  Elements are processed
in index order and generators in order; the first parent u to reach a new
element v = u s_p gives it the next index and the word of u followed by p.
A prefix of a lexicographically smallest reduced word is itself one, so the
smallest word of v is the smallest word of some parent followed by one letter;
the parents are processed in (length, word) order, so the first one found
gives it, and the order of discovery is (length, word) order.

The group interns its elements: each is constructed once, and every public
operation returns one of them, so elements compare and hash by identity.

WeylGroup.memo (see rootsys.memoized) holds what other modules derive from the
group, so it is freed with the group: one orbit table per shape (each point of
the orbit with its shortest element, read by initial_direction), path pairs,
each path's initial direction, the Schubert pairs and the standard table of
each orbit label, and the dominant weights below a degree.  The group's own
tables (intervals, parabolics, coset representatives) stay private.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

from .rootsys import RootSystem, Root, Weight

Matrix = tuple[tuple[int, ...], ...]


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def _matvec(a: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


class WeylElement:
    """One interned group element: action matrix plus its canonical word and length."""

    __slots__ = ("group", "index", "matrix", "word", "length")

    def __init__(self, group: "WeylGroup", index: int, matrix: Matrix, word: tuple[int, ...]):
        self.group = group
        self.index = index
        self.matrix = matrix
        self.word = word
        self.length = len(word)

    def act(self, weight: Weight) -> Weight:
        return _matvec(self.matrix, weight)

    @property
    def word_str(self) -> str:
        return " ".join(f"s{i}" for i in self.word) if self.word else "e"

    def __repr__(self) -> str:
        return f"<{self.word_str}>"


class WeylGroup:
    """The Weyl group of a root system, fully enumerated at construction.

    >>> from . import rootsys
    >>> W = WeylGroup(rootsys.from_name("A2"))
    >>> [w.word_str for w in W.elements]
    ['e', 's1', 's2', 's1 s2', 's2 s1', 's1 s2 s1']
    """

    def __init__(self, rs: RootSystem, max_order: int = 1200):
        self.rs = rs
        self.rank = rs.rank
        gens = [self._reflection_matrix(i) for i in range(1, rs.rank + 1)]

        ident: Matrix = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
        mats: list[Matrix] = [ident]
        words: list[tuple[int, ...]] = [()]
        by_mat: dict[Matrix, int] = {ident: 0}
        self._rmult: list[list[int]] = []
        for k, mat in enumerate(mats):  # mats grows while it is walked: a breadth-first queue
            row = []
            for p, s in enumerate(gens):
                m2 = _matmul(mat, s)
                j = by_mat.get(m2)
                if j is None:
                    j = len(mats)
                    if j >= max_order:
                        raise ValueError(f"Weyl group of {rs.name} exceeds the supported order {max_order}")
                    mats.append(m2)
                    words.append(words[k] + (p + 1,))
                    by_mat[m2] = j
                row.append(j)
            self._rmult.append(row)

        self.elements: tuple[WeylElement, ...] = tuple(
            WeylElement(self, k, mat, word) for k, (mat, word) in enumerate(zip(mats, words))
        )
        self._lengths = [el.length for el in self.elements]
        self.identity = self.elements[0]
        self.longest = self.elements[-1]
        if len(self.elements) > 1 and self.elements[-2].length == self.longest.length:
            raise AssertionError("longest element is not unique")

        # inverse by folding the reversed word from the identity
        inv = []
        for el in self.elements:
            j = 0
            for letter in reversed(el.word):
                j = self._rmult[j][letter - 1]
            inv.append(j)
        self._inv = inv

        # weight coordinates of each root, for sign tests of root images
        cart = rs.cartan
        self._root_by_wc: dict[tuple[int, ...], Root] = {}
        for root in rs.roots:
            wc = tuple(sum(cart[i][j] * root[j] for j in range(rs.rank)) for i in range(rs.rank))
            self._root_by_wc[wc] = root

        self._down: dict[int, int] = {}
        self._parab: dict[frozenset[int], tuple[WeylElement, ...]] = {}
        self._minreps: dict[frozenset[int], tuple[WeylElement, ...]] = {}
        self._parmin: dict[tuple[frozenset[int], frozenset[int]], tuple[WeylElement, ...]] = {}
        self.memo: defaultdict[str, dict] = defaultdict(dict)

    def _reflection_matrix(self, i: int) -> Matrix:
        l = self.rs.rank
        col = self.rs.simple_root(i)
        return tuple(tuple(int(r == c) - (col[r] if c == i - 1 else 0) for c in range(l)) for r in range(l))

    # -- basic operations ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def simple(self, i: int) -> WeylElement:
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple reflection index {i} out of range 1..{self.rank}")
        return self.elements[self._rmult[0][i - 1]]

    def from_word(self, word: tuple[int, ...]) -> WeylElement:
        """Multiply out a word in the generators; the word need not be reduced."""
        j = 0
        for letter in word:
            if not 1 <= letter <= self.rank:
                raise ValueError(f"generator index {letter} out of range 1..{self.rank}")
            j = self._rmult[j][letter - 1]
        return self.elements[j]

    def multiply(self, u: WeylElement, v: WeylElement) -> WeylElement:
        j = u.index
        for letter in v.word:
            j = self._rmult[j][letter - 1]
        return self.elements[j]

    def inverse(self, u: WeylElement) -> WeylElement:
        return self.elements[self._inv[u.index]]

    def right_descents(self, u: WeylElement) -> tuple[int, ...]:
        return tuple(
            i for i in range(1, self.rank + 1) if self._lengths[self._rmult[u.index][i - 1]] < u.length
        )

    def left_descents(self, u: WeylElement) -> tuple[int, ...]:
        return self.right_descents(self.inverse(u))

    def simple_root_negated(self, u: WeylElement, i: int) -> bool:
        """True when u sends alpha_i to a negative root."""
        image = u.act(self.rs.simple_root(i))
        root = self._root_by_wc[image]
        return any(c < 0 for c in root)

    # -- Bruhat order -------------------------------------------------------

    def down_mask(self, w: WeylElement) -> int:
        """Bitmask of {u : u <= w}, computed from the subword property.

        Walking the canonical word of w left to right and extending only when
        the length grows enumerates exactly the reduced subwords, hence the
        lower Bruhat interval.  Memoized per element.
        """
        m = self._down.get(w.index)
        if m is None:
            cur = {0}
            for letter in w.word:
                p = letter - 1
                extra = set()
                for x in cur:
                    y = self._rmult[x][p]
                    if self._lengths[y] > self._lengths[x]:
                        extra.add(y)
                cur |= extra
            m = 0
            for x in cur:
                m |= 1 << x
            self._down[w.index] = m
        return m

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        if u.length > w.length:
            return False
        return bool(self.down_mask(w) >> u.index & 1)

    # -- parabolic and coset combinatorics ----------------------------------

    def _check_subset(self, I) -> frozenset[int]:
        I = frozenset(I)
        if not I <= set(range(1, self.rank + 1)):
            raise ValueError(f"subset {sorted(I)} is not contained in 1..{self.rank}")
        return I

    def min_coset_rep(self, w: WeylElement, I) -> WeylElement:
        """The minimal representative of the left coset w W_I (strip right descents in I)."""
        I = self._check_subset(I)
        cur = w.index
        stripped = True
        while stripped:
            stripped = False
            for i in sorted(I):
                j = self._rmult[cur][i - 1]
                if self._lengths[j] < self._lengths[cur]:
                    cur = j
                    stripped = True
                    break
        return self.elements[cur]

    def coset_decompose(self, w: WeylElement, I) -> tuple[WeylElement, WeylElement]:
        """Split w = x y with x minimal in w W_I and y in W_I; lengths add."""
        x = self.min_coset_rep(w, I)
        y = self.multiply(self.inverse(x), w)
        assert x.length + y.length == w.length
        return x, y

    def parabolic_elements(self, I) -> tuple[WeylElement, ...]:
        """All of W_I, in enumeration order."""
        I = self._check_subset(I)
        got = self._parab.get(I)
        if got is None:
            got = tuple(el for el in self.elements if set(el.word) <= I)
            self._parab[I] = got
        return got

    def min_coset_reps(self, I) -> tuple[WeylElement, ...]:
        """All minimal representatives for W / W_I (no right descent inside I)."""
        I = self._check_subset(I)
        got = self._minreps.get(I)
        if got is None:
            got = tuple(
                el
                for el in self.elements
                if all(self._lengths[self._rmult[el.index][i - 1]] > el.length for i in I)
            )
            self._minreps[I] = got
        return got

    def parabolic_min_reps(self, I, J) -> tuple[WeylElement, ...]:
        """Elements of W_I that are minimal representatives for W / W_J."""
        I = self._check_subset(I)
        J = self._check_subset(J)
        key = (I, J)
        got = self._parmin.get(key)
        if got is None:
            got = tuple(
                el
                for el in self.parabolic_elements(I)
                if all(self._lengths[self._rmult[el.index][j - 1]] > el.length for j in J)
            )
            self._parmin[key] = got
        return got

    def dual_weight(self, lam: Weight) -> Weight:
        """-w0(lam): dominant for dominant input, an involution on weights."""
        return tuple(-x for x in self.longest.act(lam))

    def subsets(self) -> list[frozenset[int]]:
        """All subsets of {1..rank} ordered by (size, sorted members)."""
        base = list(range(1, self.rank + 1))
        out = []
        for size in range(self.rank + 1):
            out.extend(_k_subsets(base, size))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeylGroup({self.rs.name}, order={len(self.elements)})"


def _k_subsets(base: list[int], size: int) -> list[frozenset[int]]:
    return [frozenset(c) for c in combinations(base, size)]
