"""The double-coset orbit poset of a wonderful group compactification.

Orbits of the Borel-pair action are labeled [I, x, w] with I a subset of the
simple roots, x a minimal coset representative for W / W_I and w arbitrary.
The closure order has two routes, which verify checks against each other:
closure_leq decides one relation by searching the witness pairs (u, v) of the
closure criterion, and the poset materializes the full relation as per-orbit
bitmasks.

Both routes read the criterion on element indices, through the group's index
tables: product rows (a b for every b, one row per element, built on first
use and kept in the group's memo), inverses, lengths and down-masks.  No
group method runs per (u, v).  closure_leq keeps each label z2's lifts to a
stratum J in the memo as (x v u^-1 for each u in W_J, the down-mask of wv),
so every label of stratum J tested against z2 reads them once; a pair then
costs two bit tests per (u, v), and the search stops at the first witness.

Labels of one stratum I are laid out as one block of |W| bits per x' in W^I.
For a label z and a witness (u, v) the x' that work are those above one
element y = x v u^-1, and the w' that work form one |W|-bit mask, so the
witness contributes the product of a selector (bit xpos * |W| for each such
x') and that mask: the product has no carries and places one copy of the
mask in each selected block.

Taking a closure strictly lowers orbit dimension, so maximal elements of any
set of labels are found layer by layer in dimension, highest first: a label
is maximal exactly when no maximal label of a higher layer lies above it.
The poset keeps each label's layer index, set when it is built, and the
walk starts at the first layer the set can reach: the layer after the
label's own for its covers (the maximal elements of its strict down-set),
the later of the two labels' layers for a meet.  The up-sets are closed
from the covers in the same order, highest layer first.  The one assumption
is that every strict relation lowers dimension, which the verify suite
checks for every relation bit.

The covers and the up-sets are derived tables, kept in the poset's own memo
(see rootsys.memoized) and built on first read, as the CSV and --count-only
outputs read neither.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Sequence
from functools import cache
from itertools import product, repeat
from operator import itemgetter
from typing import NamedTuple

from .rootsys import memoized
from .weyl import WeylElement, WeylGroup, bits


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


class _LabelFields(NamedTuple):
    stratum: frozenset[int]
    x: WeylElement
    w: WeylElement


class OrbitLabel(_LabelFields):
    """One orbit: stratum subset I, minimal representative x, and w.

    A named tuple: it compares and hashes as (stratum, x, w), in C.  The
    constructor, and so _make and _replace, checks the label;
    build_poset makes its labels, valid by construction, by tuple.__new__.
    """

    __slots__ = ()

    def __new__(cls, stratum, x: WeylElement, w: WeylElement):
        if x.__class__ is not WeylElement or w.__class__ is not WeylElement:
            raise ValueError(f"x={x!r} and w={w!r} must be Weyl group elements")
        group = x.group
        if group is not w.group:
            raise ValueError("x and w must come from the same Weyl group")
        # any iterable of indices is accepted, each read by operator.index as a weight coordinate is: True is 1,
        # and 1.0, which equals and hashes as 1, is refused, so no label reads the memo entries of its int twin;
        # the stratum kept is the group's own object for the subset, shared by every label of the stratum
        stratum = group._check_subset(stratum, "stratum {} is not a subset of 1..{}")
        if not stratum.isdisjoint(group.right_descents(x)):
            raise ValueError(f"x={x.word_str} is not a minimal coset representative for I={sorted(stratum)}")
        return tuple.__new__(cls, (stratum, x, w))

    @classmethod
    def _make(cls, fields) -> "OrbitLabel":
        return cls(*fields)

    @property
    def group(self) -> WeylGroup:
        return self.x.group

    def sort_key(self):
        return (len(self.stratum), tuple(sorted(self.stratum)), self.x.index, self.w.index)

    def __repr__(self) -> str:
        inner = ",".join(str(i) for i in sorted(self.stratum))
        return f"[{{{inner}}},{self.x.word_str},{self.w.word_str}]"


class SchubertPair(NamedTuple):
    """An irreducible component of an orbit closure sliced to the doubled flag variety."""

    left: WeylElement
    right: WeylElement


def dimension(z: OrbitLabel) -> int:
    """Orbit dimension: l(w0) - l(x) + l(w) + |I|."""
    return z.group.longest.length - z.x.length + z.w.length + len(z.stratum)


def _lifts(z: OrbitLabel, J):
    """(xv, wv) for each v in W_I minimal for W / W_J with l(wv) = l(w) + l(v), I being z's stratum.

    xv and wv are read off the product rows of x and w, the only rows read.
    """
    group = z.group
    elements = group.elements
    x_row, w_row = group.product_row(z.x.index), group.product_row(z.w.index)
    top = z.w.length
    for v in group.parabolic_min_reps(z.stratum, J):
        wv = elements[w_row[v.index]]
        if wv.length == top + v.length:
            yield elements[x_row[v.index]], wv


@memoized(lambda z, J: (z.x.group, (z, J)))
def _lift_rows(z: OrbitLabel, J: frozenset[int]) -> tuple:
    """Label z's lifts to stratum J, as the closure criterion reads them, kept on z's group under (z, J).

    Each lift (xv, wv) gives (the pairs (x v u^-1, u) by element index for
    each u in W_J in enumeration order, read off the product row of xv, the
    down-mask of wv).  Every label of stratum J tested against z reads
    them, so a lift is computed once.  A label hashes in C, as its fields.
    """
    group = z.group
    inverses = group.inverses
    us = [u.index for u in group.parabolic_elements(J)]
    rows = []
    for xv, wv in _lifts(z, J):
        xv_row = group.product_row(xv.index)
        rows.append((tuple((xv_row[inverses[u]], u) for u in us), group.down_mask(wv)))
    return tuple(rows)


def closure_leq(z1: OrbitLabel, z2: OrbitLabel) -> bool:
    """True when the orbit of z1 lies in the closure of the orbit of z2.

    With z1 = [I', x', w'] and z2 = [I, x, w], a witness is a pair (u, v) with
    u in W_I', v in W_I minimal for W / W_I' with l(wv) = l(w) + l(v), such
    that x v u^-1 <= x' and w' u <= wv.  z2's lifts to I' (_lift_rows) give
    y = x v u^-1 for each u and the down-mask of wv, so a pair costs two bit
    tests: bit y of the down-mask of x', and bit w' u of the down-mask of wv,
    with w' u read off the product row of w'.  The loop stops at the first
    witness.
    """
    x1 = z1.x
    group = x1.group
    if group is not z2.x.group:
        raise ValueError("labels from different Weyl groups")
    J = z1.stratum
    if not J <= z2.stratum:
        return False
    x_down, w_row = group.down_mask(x1), group.product_row(z1.w.index)
    for pairs, wv_down in _lift_rows(z2, J):
        for y, u in pairs:
            if x_down >> y & 1 and wv_down >> w_row[u] & 1:
                return True
    return False


def stratum_components(z: OrbitLabel, J) -> list[OrbitLabel]:
    """Irreducible components of the closure of z sliced to the stratum of J.

    J must be contained in z's stratum, its members read as a label's are.
    Each admissible v (in the parabolic of z's stratum, minimal for W / W_J,
    with l(wv) additive) contributes the orbit [J, xv, wv].  xv is minimal
    for W / W_J, as x is for W / W_I and v lies in W_I; the label checks it,
    so a lift that broke this would raise.
    """
    J = z.group._check_subset(J)
    if not J <= z.stratum:
        raise ValueError(f"target stratum {sorted(J)} is not contained in {sorted(z.stratum)}")
    return sorted((OrbitLabel(J, xv, wv) for xv, wv in _lifts(z, J)), key=OrbitLabel.sort_key)


@memoized(lambda z: (z.group, z))
def schubert_pairs(z: OrbitLabel) -> tuple[SchubertPair, ...]:
    """Components of the closure of z inside the doubled flag variety, sorted by element indices.

    Each lift (xv, wv) to the empty stratum, the component [0, xv, wv] of
    stratum_components, becomes the product of an opposite Schubert variety
    for xv w0 and an ordinary one for wv.
    """
    group = z.group
    w0 = group.longest
    pairs = [SchubertPair(group.multiply(xv, w0), wv) for xv, wv in _lifts(z, ())]
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
        self.memo: defaultdict[str, dict] = defaultdict(dict)
        # each label's layer, the index of its dimension among those present, highest first, and one label
        # bitmask per layer
        top_down = sorted(set(dims), reverse=True)
        self._layer_of = list(map({d: n for n, d in enumerate(top_down)}.__getitem__, dims))
        self._layers = layers = [0] * len(top_down)
        for k, n in enumerate(self._layer_of):
            layers[n] |= 1 << k

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
        """Bitmask of the labels whose closure contains z, read off the up-set table (_up_sets)."""
        return self._up_sets()[self.index[z]]

    @memoized(lambda poset: (poset, None))
    def _up_sets(self) -> tuple[int, ...]:
        """Each label's up-set bitmask, by label index, closed from the covers.

        The labels are taken layer by layer in dimension, highest first: a
        label's up-set is its own bit and the up-sets of the labels covering
        it, all in higher layers and so complete by then.  That is the
        transitive closure of the covers, the closure order itself as every
        strict relation lowers dimension.
        """
        covers = self._cover_rows()
        up = [1 << k for k in range(len(self.labels))]
        for layer in self._layers:
            for i in bits(layer):
                above = up[i]
                for j in covers[i]:
                    up[j] |= above
        return tuple(up)

    def below(self, z: OrbitLabel) -> list[OrbitLabel]:
        return self._from_mask(self._down[self.index[z]])

    def stratum_mask(self, J) -> int:
        """Bitmask of all labels whose stratum is exactly J (a contiguous block)."""
        # min_coset_reps validates J, so a subset outside 1..rank is a ValueError, not a missing block
        size = len(self.group.min_coset_reps(J)) * len(self.group)
        start = self._base[frozenset(J)]
        return ((1 << size) - 1) << start

    def _from_mask(self, mask: int) -> list[OrbitLabel]:
        return [self.labels[i] for i in bits(mask)]

    def _maximal_bits(self, mask: int, first: int = 0) -> list[int]:
        """Positions of the maximal labels of mask, ascending, found layer by layer in dimension.

        A strict relation lowers dimension, so labels of one layer are pairwise
        incomparable and anything above a label sits in a higher layer.  Going
        down the layers, the labels of mask still uncovered are maximal, and
        their down-sets are taken out of what is left; the walk stops once
        nothing is.  A caller that knows mask holds no label of a layer before
        first, by layer index, passes it, and the walk skips those layers.
        """
        down = self._down
        top: list[int] = []
        rest = mask
        for layer in self._layers[first:]:
            if not rest:
                break
            fresh = rest & layer
            if fresh:
                found = bits(fresh)
                top += found
                covered = 0
                for j in found:
                    covered |= down[j]
                rest &= ~covered
        top.sort()
        return top

    def maximal_of_mask(self, mask: int) -> list[OrbitLabel]:
        """Maximal elements of an arbitrary set of labels given as a bitmask.

        Walks the dimension layers from the top (see _maximal_bits), so each
        maximal label costs one OR of its down-set; labels below them cost
        nothing.
        """
        return list(map(self.labels.__getitem__, self._maximal_bits(mask)))

    def meet_components(self, z1: OrbitLabel, z2: OrbitLabel) -> list[OrbitLabel]:
        """Maximal orbits lying in both closures (the components of the intersection)."""
        i1, i2 = self.index[z1], self.index[z2]
        # the meet holds no label of a higher dimension than either, so nothing before the later layer
        first = max(self._layer_of[i1], self._layer_of[i2])
        return list(map(self.labels.__getitem__, self._maximal_bits(self._down[i1] & self._down[i2], first)))

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Transitive reduction as (upper index, lower index) pairs, ascending.

        The covers of a label are the maximal elements of its strict down-set,
        found by the same layer walk as maximal_of_mask started at the layer
        after the label's own; it relies on every strict relation lowering
        dimension.
        """
        return [(i, j) for i, js in enumerate(self._cover_rows()) for j in js]

    @memoized(lambda poset: (poset, None))
    def _cover_rows(self) -> tuple[tuple[int, ...], ...]:
        """The labels each label covers, by label index, ascending."""
        return tuple(
            tuple(self._maximal_bits(d & ~(1 << i), layer + 1))
            for i, (d, layer) in enumerate(zip(self._down, self._layer_of))
        )

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


def build_poset(group: WeylGroup, max_labels: int = OrbitPoset.MAX_LABELS) -> OrbitPoset:
    """Every orbit label of group with its down-set bitmask, refused past max_labels."""
    subsets = group.subsets()
    n_w = len(group)
    total = sum(len(group.min_coset_reps(I)) for I in subsets) * n_w
    if total > max_labels:
        raise ValueError(
            f"orbit poset of {group.rs.name} has {total} labels, beyond the supported envelope ({max_labels})"
        )

    labels: list[OrbitLabel] = []
    base: dict[frozenset[int], int] = {}
    for I in subsets:
        base[I] = len(labels)
        # x runs over W^I, so every label is valid by construction and is made in C, unchecked
        fields = product((I,), group.min_coset_reps(I), group.elements)
        labels.extend(map(tuple.__new__, repeat(OrbitLabel), fields))

    # the group's own index tables; the build reads every product row
    eldown = [group.down_mask(el) for el in group.elements]
    lengths, inv = group.lengths, group.inverses
    mult = [group.product_row(a) for a in range(n_w)]
    # per u, the reader of byte w'u for every w': a lower interval read through right multiplication by u
    times_u = [bit_reader([row[u] for row in mult]) for u in range(n_w)]

    parab_idx = {I: [el.index for el in group.parabolic_elements(I)] for I in subsets}
    # for each stratum J, its subsets I with the elements of W_J minimal for W / W_I
    parmin_idx = {
        J: [(I, [v.index for v in group.parabolic_min_reps(J, I)]) for I in subsets if I <= J] for J in subsets
    }

    @cache
    def admitted_w(u_i: int, wv_i: int) -> int:
        # bits of w' with w' u inside the lower interval of wv
        return mask_from_bytes(times_u[u_i](mask_bytes(eldown[wv_i], n_w)))

    @cache
    def blocks(I: frozenset[int], y_i: int) -> int:
        # bit xpos * n_w for each x' at position xpos of W^I with y <= x': one slot per W-block of stratum I
        reps = group.min_coset_reps(I)
        return sum(1 << (xpos * n_w) for xpos, xp in enumerate(reps) if eldown[xp.index] >> y_i & 1)

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
    return OrbitPoset(group, tuple(labels), down, base, dims)
