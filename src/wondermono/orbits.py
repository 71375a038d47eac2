"""The double-coset orbit poset of a wonderful group compactification.

Orbits of the Borel-pair action are labeled [I, x, w] with I a subset of the
simple roots, x a minimal coset representative for W / W_I and w arbitrary.
The closure order is decided by an exhaustive search over the witness pairs
(u, v) of the closure criterion; the poset object materializes the full
relation as per-orbit bitmasks, and the standalone predicate closure_leq is
the direct transcription of that criterion, kept around so the two routes can
be checked against each other.

Taking a closure strictly lowers orbit dimension, so maximal elements of any
set of labels are found layer by layer in dimension, highest first: a label
is maximal exactly when no maximal label of a higher layer lies above it.
Covers are the maximal elements of each strict down-set.  The one assumption
is that every strict relation lowers dimension, which the verify suite checks
for every relation bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootsys import memoized
from .weyl import WeylElement, WeylGroup


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


def _witnesses(z1: OrbitLabel, z2: OrbitLabel):
    group = z1.group
    if group is not z2.group:
        raise ValueError("labels from different Weyl groups")
    if not z1.stratum <= z2.stratum:
        return
    for v in group.parabolic_min_reps(z2.stratum, z1.stratum):
        wv = group.multiply(z2.w, v)
        if wv.length != z2.w.length + v.length:
            continue
        xv = group.multiply(z2.x, v)
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
    for v in group.parabolic_min_reps(z.stratum, J):
        wv = group.multiply(z.w, v)
        if wv.length != z.w.length + v.length:
            continue
        xv = group.multiply(z.x, v)
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

    MAX_LABELS = 2000

    def __init__(self, group: WeylGroup, labels, down, base, dims):
        self.group = group
        self.labels: tuple[OrbitLabel, ...] = labels
        self.index: dict[OrbitLabel, int] = {z: k for k, z in enumerate(labels)}
        self._down = down
        self._base = base
        self._dims = dims
        self._covers: list[tuple[int, ...]] | None = None
        self._layers: list[int] | None = None

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
            for x in group.min_coset_reps(I):
                for w in group.elements:
                    labels.append(OrbitLabel(I, x, w))

        elems = group.elements
        eldown = [group.down_mask(el) for el in elems]
        elup = [0] * n_w
        for x in range(n_w):
            for y in cls._bits(eldown[x]):
                elup[y] |= 1 << x
        lengths = [el.length for el in elems]
        inv = [group.inverse(el).index for el in elems]
        mult = [[group.multiply(a, b).index for b in elems] for a in elems]

        minrep_idx = {I: [el.index for el in group.min_coset_reps(I)] for I in subsets}
        parab_idx = {I: [el.index for el in group.parabolic_elements(I)] for I in subsets}

        wmask_cache: dict[tuple[int, int], int] = {}

        def admitted_w(u_i: int, wv_i: int) -> int:
            # bits of w' with w' u inside the lower interval of wv
            key = (u_i, wv_i)
            got = wmask_cache.get(key)
            if got is None:
                allowed = eldown[wv_i]
                got = 0
                for wp in range(n_w):
                    if allowed >> mult[wp][u_i] & 1:
                        got |= 1 << wp
                wmask_cache[key] = got
            return got

        down = []
        for z2 in labels:
            big_j = z2.stratum
            x_i = z2.x.index
            w_i = z2.w.index
            acc = 0
            for I in subsets:
                if not I <= big_j:
                    continue
                reps = minrep_idx[I]
                offset = base[I]
                for v in group.parabolic_min_reps(big_j, I):
                    v_i = v.index
                    wv = mult[w_i][v_i]
                    if lengths[wv] != lengths[w_i] + lengths[v_i]:
                        continue
                    xv = mult[x_i][v_i]
                    for u_i in parab_idx[I]:
                        y_up = elup[mult[xv][inv[u_i]]]
                        wmask = admitted_w(u_i, wv)
                        for xpos, xp in enumerate(reps):
                            if y_up >> xp & 1:
                                acc |= wmask << (offset + xpos * n_w)
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
        """Bitmask of the labels whose closure contains z."""
        i = self.index[z]
        mask = 0
        for k, d in enumerate(self._down):
            if d >> i & 1:
                mask |= 1 << k
        return mask

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
            self._layers = [by_dim[d] for d in sorted(by_dim, reverse=True)]
        return self._layers

    def _maximal_bits(self, mask: int) -> int:
        """Bitmask of the maximal labels of mask, found layer by layer in dimension.

        A strict relation lowers dimension, so labels of one layer are pairwise
        incomparable and anything above a label sits in a higher layer.  Going
        down the layers, the labels of mask not below a maximal label already
        found are maximal; the walk stops once their down-sets cover mask.
        """
        down = self._down
        top = 0
        covered = 0
        for layer in self._dim_layers():
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
        return self.maximal_of_mask(self.down_mask(z1) & self.down_mask(z2))

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Transitive reduction as (upper index, lower index) pairs.

        The covers of a label are the maximal elements of its strict down-set,
        found by the same layer walk as maximal_of_mask; it relies on every
        strict relation lowering dimension.
        """
        if self._covers is None:
            self._covers = [
                tuple(self._bits(self._maximal_bits(d & ~(1 << i)))) for i, d in enumerate(self._down)
            ]
        return [(i, j) for i, js in enumerate(self._covers) for j in js]

    @staticmethod
    def _bits(mask: int) -> list[int]:
        out = []
        while mask:
            i = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            out.append(i)
        return out

    @property
    def maximum(self) -> OrbitLabel:
        full = (1 << len(self.labels)) - 1
        tops = self.maximal_of_mask(full)
        assert len(tops) == 1
        return tops[0]

    @property
    def minimum(self) -> OrbitLabel:
        candidates = [i for i in range(len(self.labels)) if self._down[i] == 1 << i]
        assert len(candidates) == 1
        return self.labels[candidates[0]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrbitPoset({self.group.rs.name}, {len(self.labels)} orbits)"


def build_poset(group: WeylGroup, max_labels: int | None = None) -> OrbitPoset:
    return OrbitPoset.build(group, max_labels)
