"""Finite Weyl groups: enumeration, Bruhat order, parabolic coset combinatorics.

An element is identified by its canonical word, the lexicographically
smallest reduced word, and acts on weights through it, one simple reflection
per letter.  The elements are listed in (length, word) order, so the identity
comes first and the longest element last.

The group is the W-orbit of rho = (1, ..., 1), walked once by
rootsys.orbit_table.  rho is regular, so w -> w^-1(rho) is a bijection from W
onto its orbit, and s_p sends the point of w to the point of w s_p: the
orbit's reflection table is the right multiplication table, and the word that
first reaches the point of w, read backwards, is a word of w.  The walk takes
points in index order and generators in order, so the first parent u to reach
a new element v = u s_p gives it the next index and the word of u followed by
p.  A prefix of a lexicographically smallest reduced word is itself one, so
the smallest word of v is the smallest word of some parent followed by one
letter; the parents are processed in (length, word) order, so the first one
found gives it, and the order of discovery is (length, word) order.

The group interns its elements: each is constructed once, and every public
operation returns one of them, so elements compare and hash by identity.

Every minimal coset representative is read off one table per dominant
weight lam (_coset_table): each point of the W-orbit of lam with the element of
its word in rootsys.orbit_table, the shortest element sending lam there.  Its
values are W^lam, the minimal representatives for W / W_lam.  For a subset J,
lam_J (0 at the indices in J, 1 elsewhere) has stabilizer W_J, so the table
of lam_J gives W^J.  The elements of W^J spelled in letters of I are those
lying in W_I; with J empty, lam_J = rho and they are all of W_I.  The
representative of w W_J is the table's entry at w(lam_J), reached by walking
w's word right to left through the orbit's reflection table, on indices.
Descents decide no coset; only checks read them.  The table is keyed by lam
unchecked, one dict lookup per read, so it is private to readers that pass
an int tuple: lam_J here, and a path's shape, checked when the path was
made, in paths.initial_direction.  No public name takes a weight to it.

WeylGroup.memo (see rootsys.memoized) holds what is derived from the group, so
it is freed with the group.  The group's own entries are the product rows
read so far (product_row), the lower Bruhat intervals, each built from its
prefix's by the lifting property (down_mask), and each one's element indices
(down_indices), the right products a w0 of every a, by the group's own
product (_times_longest), the coset tables and the coset
lists read off them, each list in a private table keyed by the subset its
public reader checked (_check_subset: a frozenset of ints, so {1.0} is
refused and {True} is {1}) and built from that frozenset alone, so a one-shot
iterator is read once, the subsets of 1..rank themselves, one object each
(_subsets), which every checked subset and every orbit label's stratum is,
and the inverses (public, built on first read); the higher layers' memoized
functions keep theirs there too.  Elements point
back at their group, so a dropped group waits for the cycle collector;
verify.run_suite therefore clears its group's memo, and its root system's,
before it returns.  Built at construction, by element index: the lengths
(public) and the right multiplication by simple reflections.  Each element
keeps its word text and right descents from their first read.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from operator import attrgetter, index

from .rootsys import RootSystem, Weight, from_name, memoized, orbit_table, rank_weight, simple_index


def bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    # peel the top bit: bit_length is O(1), so each bit costs two whole-integer operations, not four
    out = []
    while mask:
        i = mask.bit_length() - 1
        mask ^= 1 << i
        out.append(i)
    out.reverse()
    return out


class WeylElement:
    """One interned group element: its canonical word and length.

    Its word text and right descents are kept in two private slots, each set
    on its first read, so building a group computes neither.
    """

    __slots__ = ("group", "index", "word", "length", "_word_str", "_right_descents")

    def __init__(self, group: "WeylGroup", index: int, word: tuple[int, ...]):
        self.group = group
        self.index = index
        self.word = word
        self.length = len(word)

    def act(self, weight: Weight) -> Weight:
        """Apply the word to a weight, one simple reflection per letter, right to left."""
        alphas = self.group._alphas
        weight = rank_weight(self.group.rs, weight)
        for letter in reversed(self.word):
            n = weight[letter - 1]
            if n:
                weight = tuple(x - n * a for x, a in zip(weight, alphas[letter - 1]))
        return weight

    @property
    def word_str(self) -> str:
        try:
            return self._word_str
        except AttributeError:
            self._word_str = text = " ".join(f"s{i}" for i in self.word) or "e"
            return text

    def __repr__(self) -> str:
        return f"<{self.word_str}>"


class WeylGroup:
    """The Weyl group of a root system, fully enumerated at construction.

    >>> from . import rootsys
    >>> W = WeylGroup(rootsys.from_name("A2"))
    >>> [w.word_str for w in W.elements]
    ['e', 's1', 's2', 's1 s2', 's2 s1', 's1 s2 s1']
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.rank = rs.rank
        self._alphas = [rs.simple_root(i) for i in range(1, rs.rank + 1)]
        # the point of w is w^-1(rho), and s_p sends it to the point of w s_p
        table = orbit_table(rs, rs.rho())
        self._rmult: list[tuple[int, ...]] = list(zip(*table.refl))
        self.elements: tuple[WeylElement, ...] = tuple(
            WeylElement(self, k, word[::-1]) for k, word in enumerate(table.words)
        )
        self.lengths: tuple[int, ...] = tuple(map(len, table.words))
        self.identity = self.elements[0]
        self.longest = self.elements[-1]
        if len(self.elements) > 1 and self.elements[-2].length == self.longest.length:
            raise AssertionError("longest element is not unique")

        # the last letter of each word but the identity's, less one: a column of _rmult
        self._last = [el.word[-1] - 1 for el in self.elements[1:]]

        self.memo: defaultdict[str, dict] = defaultdict(dict)

    # -- basic operations ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def simple(self, i: int) -> WeylElement:
        return self.elements[self._rmult[0][simple_index(self.rs, i, "simple reflection") - 1]]

    def from_word(self, word: tuple[int, ...]) -> WeylElement:
        """Multiply out a word in the generators; the word need not be reduced."""
        j, rank, rmult = 0, self.rank, self._rmult
        for letter in word:
            # an int in range costs two comparisons; anything else goes to the checker, which refuses it or reads True as 1
            if letter.__class__ is not int or not 0 < letter <= rank:
                letter = simple_index(self.rs, letter, "generator")
            j = rmult[j][letter - 1]
        return self.elements[j]

    def multiply(self, u: WeylElement, v: WeylElement) -> WeylElement:
        j = u.index
        for letter in v.word:
            j = self._rmult[j][letter - 1]
        return self.elements[j]

    @memoized()
    def product_row(self, a: int) -> tuple[int, ...]:
        """The products a b by element index, for every b: row a of the multiplication table.

        b is its prefix b s_p times s_p, p the last letter of its word, and the
        prefix comes earlier in the enumeration, so one pass in index order
        fills the row.  A group holds only the rows its callers read, never the
        full table.
        """
        rmult = self._rmult
        out = [a] * len(self.elements)
        for b, p in enumerate(self._last, 1):
            out[b] = rmult[out[rmult[b][p]]][p]
        return tuple(out)

    @property
    def inverses(self) -> tuple[int, ...]:
        """The index of each element's inverse, by element index: built on first read."""
        return self._inverses()

    @memoized(lambda group: (group, None))
    def _inverses(self) -> tuple[int, ...]:
        """Each inverse as the element of the reversed word."""
        return tuple(self.from_word(el.word[::-1]).index for el in self.elements)

    def inverse(self, u: WeylElement) -> WeylElement:
        return self.elements[self.inverses[u.index]]

    def right_descents(self, u: WeylElement) -> tuple[int, ...]:
        """The i with l(u s_i) < l(u), ascending: computed on the first read and kept on u."""
        try:
            return u._right_descents
        except AttributeError:
            lengths, row = self.lengths, self._rmult[u.index]
            u._right_descents = out = tuple(i for i in range(1, self.rank + 1) if lengths[row[i - 1]] < u.length)
            return out

    # -- Bruhat order -------------------------------------------------------

    @memoized()
    def down_mask(self, w: WeylElement) -> int:
        """Bitmask of {u : u <= w}, by the lifting property.

        With p the last letter of w's word, w s_p < w, and the lower interval
        of w is that of w s_p together with its right translate by s_p
        (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.2).
        """
        if not w.length:
            return 1
        p = w.word[-1] - 1
        rmult = self._rmult
        lower = self.down_mask(self.elements[rmult[w.index][p]])
        out = lower
        for u in bits(lower):
            out |= 1 << rmult[u][p]
        return out

    @memoized()
    def down_indices(self, w: WeylElement) -> tuple[int, ...]:
        """The element indices of {u : u <= w}, ascending: the set bits of down_mask(w), peeled once."""
        return tuple(bits(self.down_mask(w)))

    @memoized(lambda group: (group, None))
    def _times_longest(self) -> tuple[WeylElement, ...]:
        """a w0 for every a, by element index: the group's product by w0, so no product row is built."""
        return tuple(self.multiply(a, self.longest) for a in self.elements)

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        if u.length > w.length:
            return False
        return bool(self.down_mask(w) >> u.index & 1)

    # -- parabolic and coset combinatorics ----------------------------------

    @memoized()
    def _coset_table(self, lam: Weight) -> dict[Weight, WeylElement]:
        """Each point of the W-orbit of a dominant lam, with its minimal representative for W / W_lam.

        A point's representative is the element of its word in the orbit
        table, the shortest one sending lam there.  Keyed by lam unchecked,
        for one dict lookup per read, so private to readers that pass an int
        tuple: paths.initial_direction a path's checked shape, and
        min_coset_rep and min_coset_reps lam_J.
        """
        orbit = orbit_table(self.rs, lam)
        return {p: self.from_word(word) for p, word in zip(orbit.points, orbit.words)}

    def _check_subset(self, I, refusal: str = "subset {} is not contained in 1..{}") -> frozenset[int]:
        """I as the group's own frozenset of its members, each read by operator.index, all in 1..rank.

        True is 1, and 1.0 and "1" are refused, with refusal filled in with
        the members and the rank.  This is the memo key of every table kept
        per subset, so a subset that equals and hashes as an int one is
        refused whether or not that one is cached; OrbitLabel reads its
        stratum here too.  The group's own object, such as a label's
        stratum, is returned as it is, after one lookup; anything else, an
        equal frozenset included, is read member by member.
        """
        subsets = self._subsets()
        if I.__class__ is frozenset and subsets.get(I) is I:
            return I
        try:
            checked = frozenset(map(index, I))
        except TypeError:
            raise ValueError(refusal.format(sorted(I, key=repr), self.rank)) from None
        own = subsets.get(checked)
        if own is None:
            raise ValueError(refusal.format(sorted(checked), self.rank))
        return own

    @memoized()
    def _subset_weight(self, J: frozenset[int]) -> Weight:
        """lam_J, 0 at the indices in J and 1 elsewhere: its stabilizer is W_J.  J must be checked (_check_subset)."""
        return tuple(0 if i in J else 1 for i in range(1, self.rank + 1))

    def min_coset_rep(self, w: WeylElement, J) -> WeylElement:
        """The minimal representative of the left coset w W_J: the coset table of lam_J at w(lam_J)."""
        lam = self._subset_weight(self._check_subset(J))
        orbit = orbit_table(self.rs, lam)
        k = 0
        for letter in reversed(w.word):
            k = orbit.refl[letter - 1][k]
        return self._coset_table(lam)[orbit.points[k]]

    def coset_decompose(self, w: WeylElement, I) -> tuple[WeylElement, WeylElement]:
        """Split w = x y with x minimal in w W_I and y in W_I; lengths add."""
        x = self.min_coset_rep(w, I)
        y = self.multiply(self.inverse(x), w)
        if x.length + y.length != w.length:
            raise ValueError(
                f"coset decomposition of {w.word_str} at I={sorted(I)} has lengths {x.length} + {y.length},"
                f" not {w.length}"
            )
        return x, y

    def min_coset_reps(self, J) -> tuple[WeylElement, ...]:
        """W^J, the minimal representatives for W / W_J in enumeration order: the coset table of lam_J."""
        return self._min_coset_reps(self._check_subset(J))

    @memoized()
    def _min_coset_reps(self, J: frozenset[int]) -> tuple[WeylElement, ...]:
        return tuple(sorted(self._coset_table(self._subset_weight(J)).values(), key=attrgetter("index")))

    def parabolic_min_reps(self, I, J) -> tuple[WeylElement, ...]:
        """Elements of W_I that are minimal representatives for W / W_J: those of W^J spelled in I."""
        return self._parabolic_min_reps(self._check_subset(I), self._check_subset(J))

    @memoized(lambda group, I, J: (group, (I, J)))
    def _parabolic_min_reps(self, I: frozenset[int], J: frozenset[int]) -> tuple[WeylElement, ...]:
        return tuple(el for el in self._min_coset_reps(J) if I.issuperset(el.word))

    def parabolic_elements(self, I) -> tuple[WeylElement, ...]:
        """All of W_I, in enumeration order."""
        return self.parabolic_min_reps(I, ())

    def dual_weight(self, lam: Weight) -> Weight:
        """-w0(lam): dominant for dominant input, an involution on weights."""
        return tuple(-x for x in self.longest.act(lam))

    def subsets(self) -> list[frozenset[int]]:
        """All subsets of {1..rank} ordered by (size, sorted members), as the group's own objects."""
        return list(self._subsets())

    @memoized(lambda group: (group, None))
    def _subsets(self) -> dict[frozenset[int], frozenset[int]]:
        """Each subset of {1..rank} mapped to itself, in subsets() order.

        Every checked subset and every label's stratum is one of these
        objects, so the labels of one stratum share it and a memo key that
        holds it compares by identity.
        """
        base = range(1, self.rank + 1)
        return {I: I for size in range(self.rank + 1) for I in map(frozenset, combinations(base, size))}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeylGroup({self.rs.name}, order={len(self.elements)})"


def weyl_group(name: str) -> WeylGroup:
    """Weyl group of the named root system."""
    return WeylGroup(from_name(name))
