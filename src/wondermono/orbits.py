"""The double-coset orbit poset of a wonderful group compactification.

Orbits of the Borel-pair action are labeled [I, x, w] with I a subset of the
simple roots, x a minimal coset representative for W / W_I and w arbitrary.
The closure order is decided by an exhaustive search over the witness pairs
(u, v) of the closure criterion; the poset object materializes the full
relation as per-orbit bitmasks, and the standalone predicate closure_leq is
the direct transcription of that criterion, kept around so the two routes can
be checked against each other.

Labels of one stratum I are laid out as one block of |W| bits per x' in W^I.
For a label z and a witness (u, v) the x' that work are those above one
element y = x v u^-1, and the w' that work form one |W|-bit mask, so the
witness contributes the product of a selector (bit xpos * |W| for each such
x') and that mask: the product has no carries and places one copy of the
mask in each selected block.

Taking a closure strictly lowers orbit dimension, so maximal elements of any
set of labels are found layer by layer in dimension, highest first: a label
is maximal exactly when no maximal label of a higher layer lies above it.
The walk starts at the highest dimension the set can reach: one below the
label for its covers (the maximal elements of its strict down-set), the
lower of the two labels' dimensions for a meet.  The one assumption is that
every strict relation lowers dimension, which the verify suite checks for
every relation bit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import itemgetter

from .rootsys import memoized
from .weyl import WeylElement, WeylGroup


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")
_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")


def mask_bytes(mask: int, width: int) -> bytes:
    """Byte k is bit k of mask (0 or 1), for k < width: a bitmask in the form compress and itemgetter read in C."""
    return bin(mask | 1 << width)[:2:-1].encode().translate(_BIT_VALUES)


def mask_from_bytes(bits: bytes | Sequence[int]) -> int:
    """The inverse of mask_bytes: bit k is byte k of bits, each 0 or 1, packed in one C-level parse."""
    return int(b"0" + bytes(bits)[::-1].translate(_BIT_CHARS), 2)


def bit_reader(positions: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """Read the items at positions (bytes of a mask, rows of a table) in one C call, always as a sequence.

    A one-argument itemgetter returns a scalar, so a single position reads a
    one-item slice instead.
    """
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


@dataclass(frozen=True)
class OrbitLabel:
    """One orbit: stratum subset I, minimal representative x, and w."""

    stratum: frozenset[int]
    x: WeylElement
    w: WeylElement

    def __post_init__(self):
        # any iterable of indices is accepted; stored as a frozenset, so every form equals and hashes alike
        object.__setattr__(self, "stratum", frozenset(self.stratum))
        group = self.x.group
        if group is not self.w.group:
            raise ValueError("x and w must come from the same Weyl group")
        if not self.stratum <= set(range(1, group.rank + 1)):
            raise ValueError(f"stratum {sorted(self.stratum)} is not a subset of 1..{group.rank}")
        bad = set(group.right_descents(self.x)) & self.stratum
        if bad:
            raise ValueError(
                f"x={self.x.word_str} is not a minimal coset representative for I={sorted(self.stratum)}"
            )

    @classmethod
    def _unchecked(cls, stratum: frozenset[int], x: WeylElement, w: WeylElement) -> "OrbitLabel":
        """A label whose x is minimal for stratum by construction: the fields are set, not validated."""
        z = object.__new__(cls)
        object.__setattr__(z, "stratum", stratum)
        object.__setattr__(z, "x", x)
        object.__setattr__(z, "w", w)
        return z

    @property
    def group(self) -> WeylGroup:
        return self.x.group

    def sort_key(self):
        return (len(self.stratum), tuple(sorted(self.stratum)), self.x.index, self.w.index)

    def __repr__(self) -> str:
        inner = ",".join(str(i) for i in sorted(self.stratum))
        return f"[{{{inner}}},{self.x.word_str},{self.w.word_str}]"


@dataclass(frozen=True)
class SchubertPair:
    """An irreducible component of an orbit closure sliced to the doubled flag variety."""

    left: WeylElement
    right: WeylElement


def dimension(z: OrbitLabel) -> int:
    """Orbit dimension: l(w0) - l(x) + l(w) + |I|."""
    return z.group.longest.length - z.x.length + z.w.length + len(z.stratum)


def _lifts(z: OrbitLabel, J):
    """(v, xv, wv) for each v in W_I minimal for W / W_J with l(wv) = l(w) + l(v), I being z's stratum."""
    group = z.group
    for v in group.parabolic_min_reps(z.stratum, J):
        wv = group.multiply(z.w, v)
        if wv.length == z.w.length + v.length:
            yield v, group.multiply(z.x, v), wv


def _witnesses(z1: OrbitLabel, z2: OrbitLabel):
    group = z1.group
    if group is not z2.group:
        raise ValueError("labels from different Weyl groups")
    if not z1.stratum <= z2.stratum:
        return
    for v, xv, wv in _lifts(z2, z1.stratum):
        for u in group.parabolic_elements(z1.stratum):
            xvu = group.multiply(xv, group.inverse(u))
            if group.bruhat_leq(xvu, z1.x) and group.bruhat_leq(group.multiply(z1.w, u), wv):
                yield u, v


def closure_witnesses(z1: OrbitLabel, z2: OrbitLabel) -> list[tuple[WeylElement, WeylElement]]:
    """All witness pairs (u, v) certifying that z1 lies in the closure of z2.

    u runs over the parabolic of z1's stratum, v over the elements of z2's
    parabolic minimal for z1's stratum with l(wv) additive; the pair works
    when x' >= x v u^-1 and w' u <= w v.
    """
    return list(_witnesses(z1, z2))


def closure_leq(z1: OrbitLabel, z2: OrbitLabel) -> bool:
    """True when the orbit of z1 lies in the closure of the orbit of z2."""
    return any(True for _ in _witnesses(z1, z2))


def stratum_components(z: OrbitLabel, J) -> list[OrbitLabel]:
    """Irreducible components of the closure of z sliced to the stratum of J.

    J must be contained in z's stratum.  Each admissible v (in the parabolic
    of z's stratum, minimal for W / W_J, with l(wv) additive) contributes the
    orbit [J, xv, wv]; the product xv is checked to be minimal already, and
    the operation refuses to project silently if that ever failed.
    """
    group = z.group
    J = frozenset(J)
    if not J <= z.stratum:
        raise ValueError(f"target stratum {sorted(J)} is not contained in {sorted(z.stratum)}")
    out = []
    for _, xv, wv in _lifts(z, J):
        xmin, rest = group.coset_decompose(xv, J)
        if rest.length != 0:
            raise RuntimeError(f"component representative {xv.word_str} is not minimal for {sorted(J)}")
        out.append(OrbitLabel(J, xmin, wv))
    return sorted(out, key=OrbitLabel.sort_key)


@memoized(lambda z: (z.group, z))
def schubert_pairs(z: OrbitLabel) -> tuple[SchubertPair, ...]:
    """Components of the closure of z inside the doubled flag variety.

    Each stratum component [0, xv, wv] becomes the product of an opposite
    Schubert variety for xv w0 and an ordinary one for wv.
    """
    group = z.group
    w0 = group.longest
    pairs = [
        SchubertPair(group.multiply(c.x, w0), c.w) for c in stratum_components(z, frozenset())
    ]
    return tuple(sorted(pairs, key=lambda p: (p.left.index, p.right.index)))


class OrbitPoset:
    """All orbit labels of one group with the full closure order as bitmasks."""

    MAX_LABELS = 7056

    def __init__(self, group: WeylGroup, labels, down, base, dims):
        self.group = group
        self.labels: tuple[OrbitLabel, ...] = labels
        self.index: dict[OrbitLabel, int] = {z: k for k, z in enumerate(labels)}
        self._down = down
        self._base = base
        self._dims = dims
        self._covers: list[tuple[int, ...]] | None = None
        self._layers: list[int] | None = None
        self._neg_dims: list[int] = []

    @classmethod
    def build(cls, group: WeylGroup, max_labels: int | None = None) -> "OrbitPoset":
        limit = cls.MAX_LABELS if max_labels is None else max_labels
        subsets = group.subsets()
        n_w = len(group)
        total = sum(len(group.min_coset_reps(I)) for I in subsets) * n_w
        if total > limit:
            raise ValueError(
                f"orbit poset of {group.rs.name} has {total} labels, beyond the supported envelope ({limit})"
            )

        labels: list[OrbitLabel] = []
        base: dict[frozenset[int], int] = {}
        for I in subsets:
            base[I] = len(labels)
            # x runs over W^I, so every label is valid by construction
            for x in group.min_coset_reps(I):
                for w in group.elements:
                    labels.append(OrbitLabel._unchecked(I, x, w))

        elems = group.elements
        eldown = [group.down_mask(el) for el in elems]
        elup = [0] * n_w
        for x in range(n_w):
            for y in cls._bits(eldown[x]):
                elup[y] |= 1 << x
        lengths = [el.length for el in elems]
        inv = [group.inverse(el).index for el in elems]
        mult = [[group.multiply(a, b).index for b in elems] for a in elems]
        # per u, the reader of byte w'u for every w': a lower interval read through right multiplication by u
        times_u = [bit_reader([row[u] for row in mult]) for u in range(n_w)]

        minrep_idx = {I: [el.index for el in group.min_coset_reps(I)] for I in subsets}
        parab_idx = {I: [el.index for el in group.parabolic_elements(I)] for I in subsets}
        # for each stratum J, its subsets I with the elements of W_J minimal for W / W_I
        parmin_idx = {
            J: [(I, [v.index for v in group.parabolic_min_reps(J, I)]) for I in subsets if I <= J] for J in subsets
        }

        wmask_cache: dict[tuple[int, int], int] = {}
        block_cache: dict[tuple[frozenset[int], int], int] = {}

        def admitted_w(u_i: int, wv_i: int) -> int:
            # bits of w' with w' u inside the lower interval of wv
            key = (u_i, wv_i)
            got = wmask_cache.get(key)
            if got is None:
                got = wmask_cache[key] = mask_from_bytes(times_u[u_i](mask_bytes(eldown[wv_i], n_w)))
            return got

        def blocks(I: frozenset[int], y_i: int) -> int:
            # bit xpos * n_w for each x' at position xpos of W^I with y <= x': one slot per W-block of stratum I
            key = (I, y_i)
            got = block_cache.get(key)
            if got is None:
                up = elup[y_i]
                got = 0
                for xpos, xp in enumerate(minrep_idx[I]):
                    if up >> xp & 1:
                        got |= 1 << (xpos * n_w)
                block_cache[key] = got
            return got

        down = []
        for z2 in labels:
            x_i = z2.x.index
            w_i = z2.w.index
            acc = 0
            for I, min_reps in parmin_idx[z2.stratum]:
                offset = base[I]
                for v_i in min_reps:
                    wv = mult[w_i][v_i]
                    if lengths[wv] != lengths[w_i] + lengths[v_i]:
                        continue
                    xv = mult[x_i][v_i]
                    for u_i in parab_idx[I]:
                        # admitted_w < 2**n_w, so the product has no carries: one copy of it per selected block
                        acc |= (blocks(I, mult[xv][inv[u_i]]) * admitted_w(u_i, wv)) << offset
            down.append(acc)

        dims = [dimension(z) for z in labels]
        return cls(group, tuple(labels), down, base, dims)

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    def dim(self, z: OrbitLabel) -> int:
        return self._dims[self.index[z]]

    def leq(self, z1: OrbitLabel, z2: OrbitLabel) -> bool:
        return bool(self._down[self.index[z2]] >> self.index[z1] & 1)

    def down_mask(self, z: OrbitLabel) -> int:
        return self._down[self.index[z]]

    def down_masks(self) -> list[int]:
        """Down-set bitmasks indexed like labels."""
        return list(self._down)

    def up_mask(self, z: OrbitLabel) -> int:
        """Bitmask of the labels whose closure contains z.

        One C-level pass ANDs z's bit into every down-set; an AND costs the
        bits below z's index, so the closed-stratum labels, which come first
        and are the ones `nonstandard_components` asks about, are the
        cheapest. For the highest labels this is slower than shifting each
        down-set down to bit 0.
        """
        bit = 1 << self.index[z]
        return mask_from_bytes(bytes(map(bool, map(bit.__and__, self._down))))

    def below(self, z: OrbitLabel) -> list[OrbitLabel]:
        return self._from_mask(self._down[self.index[z]])

    def stratum_mask(self, J) -> int:
        """Bitmask of all labels whose stratum is exactly J (a contiguous block)."""
        J = frozenset(J)
        start = self._base[J]
        size = len(self.group.min_coset_reps(J)) * len(self.group)
        return ((1 << size) - 1) << start

    def _from_mask(self, mask: int) -> list[OrbitLabel]:
        return [self.labels[i] for i in self._bits(mask)]

    def _dim_layers(self) -> list[int]:
        """One label bitmask per orbit dimension, highest dimension first."""
        if self._layers is None:
            by_dim: dict[int, int] = {}
            for k, d in enumerate(self._dims):
                by_dim[d] = by_dim.get(d, 0) | 1 << k
            dims = sorted(by_dim, reverse=True)
            self._layers = [by_dim[d] for d in dims]
            self._neg_dims = [-d for d in dims]
        return self._layers

    def _maximal_bits(self, mask: int, start: int | None = None) -> int:
        """Bitmask of the maximal labels of mask, found layer by layer in dimension.

        A strict relation lowers dimension, so labels of one layer are pairwise
        incomparable and anything above a label sits in a higher layer.  Going
        down the layers, the labels of mask not below a maximal label already
        found are maximal; the walk stops once their down-sets cover mask.
        A caller that knows mask holds no label above dimension start passes
        it, and the walk skips the layers above.
        """
        layers = self._dim_layers()
        if start is not None:
            # the first layer of dimension at most start; no dimension is assumed present
            layers = layers[bisect_left(self._neg_dims, -start) :]
        down = self._down
        top = 0
        covered = 0
        for layer in layers:
            if not mask & ~covered:
                break
            fresh = mask & layer & ~covered
            if fresh:
                top |= fresh
                for j in self._bits(fresh):
                    covered |= down[j]
        return top

    def maximal_of_mask(self, mask: int) -> list[OrbitLabel]:
        """Maximal elements of an arbitrary set of labels given as a bitmask.

        Walks the dimension layers from the top (see _maximal_bits), so each
        maximal label costs one OR of its down-set; labels below them cost
        nothing.
        """
        return self._from_mask(self._maximal_bits(mask))

    def meet_components(self, z1: OrbitLabel, z2: OrbitLabel) -> list[OrbitLabel]:
        """Maximal orbits lying in both closures (the components of the intersection)."""
        i1, i2 = self.index[z1], self.index[z2]
        start = min(self._dims[i1], self._dims[i2])
        return self._from_mask(self._maximal_bits(self._down[i1] & self._down[i2], start))

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Transitive reduction as (upper index, lower index) pairs.

        The covers of a label are the maximal elements of its strict down-set,
        found by the same layer walk as maximal_of_mask started one dimension
        below the label; it relies on every strict relation lowering dimension.
        """
        if self._covers is None:
            dims = self._dims
            self._covers = [
                tuple(self._bits(self._maximal_bits(d & ~(1 << i), dims[i] - 1))) for i, d in enumerate(self._down)
            ]
        return [(i, j) for i, js in enumerate(self._covers) for j in js]

    @staticmethod
    def _bits(mask: int) -> list[int]:
        """Positions of the set bits of mask, ascending."""
        # peel the top bit: bit_length is O(1), so each bit costs two whole-integer operations, not four
        out = []
        while mask:
            i = mask.bit_length() - 1
            mask ^= 1 << i
            out.append(i)
        out.reverse()
        return out

    @property
    def maximum(self) -> OrbitLabel:
        tops = self.maximal_of_mask((1 << len(self.labels)) - 1)
        if len(tops) != 1:
            raise ValueError(f"the closure order has {len(tops)} maximal labels, not one")
        return tops[0]

    @property
    def minimum(self) -> OrbitLabel:
        bottoms = [i for i, d in enumerate(self._down) if d == 1 << i]
        if len(bottoms) != 1:
            raise ValueError(f"the closure order has {len(bottoms)} minimal labels, not one")
        return self.labels[bottoms[0]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrbitPoset({self.group.rs.name}, {len(self.labels)} orbits)"


def build_poset(group: WeylGroup, max_labels: int | None = None) -> OrbitPoset:
    return OrbitPoset.build(group, max_labels)
