from __future__ import annotations

import hashlib
import random
import re

import pytest

from conftest import group_of, method_witnesses, poset_of

from wondermono import orbits
from wondermono.rootsys import from_name
from wondermono.weyl import WeylGroup, bits
from wondermono.orbits import (
    OrbitLabel,
    OrbitPoset,
    build_poset,
    closure_leq,
    dimension,
    mask_bytes,
    mask_from_bytes,
    schubert_pairs,
    stratum_components,
)


def lab(g, stratum, xword, wword):
    return OrbitLabel(frozenset(stratum), g.from_word(xword), g.from_word(wword))


def a1_labels():
    g = group_of("A1")
    ee = lab(g, (), (), ())
    es = lab(g, (), (), (1,))
    se = lab(g, (), (1,), ())
    ss = lab(g, (), (1,), (1,))
    de = lab(g, (1,), (), ())
    ds = lab(g, (1,), (), (1,))
    return ee, es, se, ss, de, ds


def test_label_validation():
    g = group_of("A2")
    with pytest.raises(ValueError):
        lab(g, (1,), (1,), ())  # x has 1 as a right descent
    with pytest.raises(ValueError):
        lab(g, (3,), (), ())
    h = group_of("A1")
    with pytest.raises(ValueError):
        OrbitLabel(frozenset(), g.identity, h.identity)
    # valid labels are hashable and printable
    z = lab(g, (1, 2), (), (1, 2))
    assert repr(z) == "[{1,2},e,s1 s2]"
    assert hash(z) == hash(lab(g, (1, 2), (), (1, 2)))


def test_label_hash_is_computed_once_from_the_normalised_stratum():
    g = group_of("B2")
    x, w = g.from_word((2,)), g.from_word((1, 2))
    checked = OrbitLabel([1], x, w)
    # the poset's route: the fields, already valid, made into a label in C
    unchecked = tuple.__new__(OrbitLabel, (frozenset({1}), x, w))
    assert checked == unchecked and hash(checked) == hash(unchecked)
    assert hash(checked) == hash((frozenset({1}), x, w))
    assert {checked: 1}[unchecked] == 1
    # the hash is the fields' own: equality, repr and the fields are unchanged
    assert OrbitLabel._fields == ("stratum", "x", "w")
    assert repr(unchecked) == "[{1},s2,s1 s2]"


def test_make_and_replace_check_a_label():
    g = group_of("B2")
    z = lab(g, (1,), (2,), (1, 2))
    assert OrbitLabel._make([[1], z.x, z.w]) == z and z._replace() == z
    assert type(z._replace(stratum=[1]).stratum) is frozenset
    s1 = g.from_word((1,))  # its right descent 1 lies in I = {1}, so it is not minimal for W / W_I
    with pytest.raises(ValueError, match="x=s1 is not a minimal coset representative for I=\\[1\\]"):
        z._replace(x=s1)
    with pytest.raises(ValueError, match="x=s1 is not a minimal coset representative for I=\\[1\\]"):
        OrbitLabel._make((frozenset({1}), s1, z.w))
    with pytest.raises(ValueError, match="^stratum \\[0, 3\\] is not a subset of 1..2$"):
        z._replace(stratum=[3, 0])
    with pytest.raises(ValueError, match="^x and w must come from the same Weyl group$"):
        z._replace(w=WeylGroup(from_name("B2")).identity)
    with pytest.raises(ValueError, match="^x='e' and w=<s1 s2> must be Weyl group elements$"):
        z._replace(x="e")
    with pytest.raises(ValueError, match="^x=<e> and w=3 must be Weyl group elements$"):
        OrbitLabel(frozenset({1}), g.identity, 3)


def test_a_stratum_is_read_as_ints_cold_and_warm():
    g = group_of("A2")
    e, w0 = g.identity, g.longest
    # True is the int 1, stored and printed as 1
    z = OrbitLabel({True}, e, w0)
    assert z == OrbitLabel({1}, e, w0) and repr(z) == "[{1},e,s1 s2 s1]"
    assert [type(i) for i in z.stratum] == [int]
    top = OrbitLabel({1, 2}, e, w0)
    assert repr(stratum_components(top, [True])) == "[[{1},e,s1 s2 s1]]"
    # 1.0 and "1" equal or stand for 1, and are refused whether or not the label of {1} is cached
    schubert_pairs(z)
    for bad, shown in ((1.0, "[1.0]"), ("1", "['1']")):
        with pytest.raises(ValueError, match=f"^stratum {re.escape(shown)} is not a subset of 1..2$"):
            OrbitLabel({bad}, e, w0)
        with pytest.raises(ValueError, match=f"^subset {re.escape(shown)} is not contained in 1..2$"):
            stratum_components(top, [bad])


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3"])
def test_poset_labels_equal_checked_labels(name):
    # build_poset sets label fields without validation; the public constructor checks and normalizes them
    labels = poset_of(name).labels
    checked = [OrbitLabel(set(z.stratum), z.x, z.w) for z in labels]
    assert list(labels) == checked
    assert [hash(z) for z in labels] == [hash(z) for z in checked]
    assert all(type(z.stratum) is frozenset for z in labels)


def test_census():
    for name, total in [("A1", 6), ("A2", 78), ("B2", 136), ("G2", 300)]:
        g = group_of(name)
        poset = poset_of(name)
        assert len(poset) == total
        formula = sum(len(g.min_coset_reps(I)) * len(g) for I in g.subsets())
        assert total == formula
        assert len(set(poset.labels)) == total


def test_a1_dimensions():
    ee, es, se, ss, de, ds = a1_labels()
    expected = {ee: 1, es: 2, se: 0, ss: 1, de: 2, ds: 3}
    poset = poset_of("A1")
    for z, d in expected.items():
        assert dimension(z) == d
        assert poset.dim(z) == d


def test_a1_full_closure_relation():
    ee, es, se, ss, de, ds = a1_labels()
    downsets = {
        ee: {ee, se},
        es: {ee, es, se, ss},
        se: {se},
        ss: {se, ss},
        de: {ee, se, ss, de},
        ds: {ee, es, se, ss, de, ds},
    }
    poset = poset_of("A1")
    for z2, down in downsets.items():
        for z1 in downsets:
            expected = z1 in down
            assert closure_leq(z1, z2) == expected
            assert poset.leq(z1, z2) == expected
            assert bool(method_witnesses(z1, z2)) == expected
        assert set(poset.below(z2)) == down


def test_a1_cover_pairs():
    ee, es, se, ss, de, ds = a1_labels()
    poset = poset_of("A1")
    labels = poset.labels
    covers = {(labels[i], labels[j]) for i, j in poset.cover_pairs()}
    assert covers == {
        (ee, se),
        (ss, se),
        (es, ee),
        (es, ss),
        (de, ee),
        (de, ss),
        (ds, es),
        (ds, de),
    }


def test_poset_matches_direct_criterion():
    for name in ["A1", "A2", "B2", "G2"]:
        poset = poset_of(name)
        for z2 in poset.labels:
            below = set(poset.below(z2))
            for z1 in poset.labels:
                assert closure_leq(z1, z2) == (z1 in below)


def test_witnesses_certify():
    g = group_of("B2")
    poset = poset_of("B2")
    labels = poset.labels
    for z2 in labels[::7]:
        for z1 in labels[::5]:
            pairs = method_witnesses(z1, z2)
            assert bool(pairs) == poset.leq(z1, z2)
            for u, v in pairs:
                assert set(u.word) <= z1.stratum
                assert set(v.word) <= z2.stratum
                wv = g.multiply(z2.w, v)
                assert wv.length == z2.w.length + v.length
                xvu = g.multiply(g.multiply(z2.x, v), g.inverse(u))
                assert g.bruhat_leq(xvu, z1.x)
                assert g.bruhat_leq(g.multiply(z1.w, u), wv)


# every label pair of the rank-2 groups; about 100 labels by stride at rank 3
@pytest.mark.parametrize(
    "name, stride", [("A1", 1), ("A2", 1), ("B2", 1), ("G2", 1), ("A3", 18), ("B3", 71), ("C3", 73)]
)
def test_closure_routes_match_the_method_oracle(name, stride):
    # closure_leq's index-form search against the same criterion through group methods
    labels = poset_of(name).labels[::stride]
    for z2 in labels:
        for z1 in labels:
            assert closure_leq(z1, z2) is bool(method_witnesses(z1, z2))


def test_closure_refuses_labels_of_two_groups():
    z1, z2 = poset_of("A2").maximum, poset_of("B2").maximum
    with pytest.raises(ValueError, match="different Weyl groups"):
        closure_leq(z1, z2)


def test_f4_closure_and_schubert_pairs_build_only_the_rows_they_read():
    # a fresh group: its memo holds only what these calls built, and F4 has 1152 elements per row
    g = WeylGroup(from_name("F4"))
    top = OrbitLabel(frozenset({1, 2, 3, 4}), g.identity, g.longest)
    assert [(p.left, p.right) for p in schubert_pairs(top)] == [(g.longest, g.longest)]
    assert set(g.memo["product_row"]) == {g.identity.index, g.longest.index}

    g = WeylGroup(from_name("F4"))
    z2 = OrbitLabel(frozenset({1, 2}), g.from_word((3,)), g.from_word((4, 3)))
    z1 = OrbitLabel(frozenset({1}), g.from_word((3, 2)), g.from_word((4,)))
    assert closure_leq(z1, z2)
    # the rows of x2 and w2 for the lifts, of each lift's xv, and of w1
    reps = g.parabolic_min_reps(z2.stratum, z1.stratum)
    lifts = [v for v in reps if g.multiply(z2.w, v).length == z2.w.length + v.length]
    read = {el.index for el in {z2.x, z2.w, z1.w} | {g.multiply(z2.x, v) for v in lifts}}
    assert set(g.memo["product_row"]) == read and len(read) < 10


def test_dimension_strictly_monotone():
    for name in ["A1", "A2"]:
        poset = poset_of(name)
        for z2 in poset.labels:
            for z1 in poset.below(z2):
                if z1 != z2:
                    assert poset.dim(z1) < poset.dim(z2)


def test_extremes():
    for name in ["A1", "A2", "B2"]:
        g = group_of(name)
        poset = poset_of(name)
        top = poset.maximum
        assert top.stratum == frozenset(range(1, g.rank + 1))
        assert top.x == g.identity and top.w == g.longest
        assert poset.dim(top) == 2 * g.longest.length + g.rank
        bottom = poset.minimum
        assert bottom.stratum == frozenset()
        assert bottom.x == g.longest and bottom.w == g.identity
        assert poset.dim(bottom) == 0


def test_stratum_mask_partition():
    g = group_of("B2")
    poset = poset_of("B2")
    total = 0
    for I in g.subsets():
        mask = poset.stratum_mask(I)
        members = bin(mask).count("1")
        assert members == len(g.min_coset_reps(I)) * len(g)
        total += members
    assert total == len(poset)


def test_stratum_mask_refuses_a_subset_outside_the_rank():
    with pytest.raises(ValueError, match=r"subset \[5\] is not contained in 1..2"):
        poset_of("A2").stratum_mask({5})


def test_stratum_components_a1():
    g = group_of("A1")
    ee, es, se, ss, de, ds = a1_labels()
    assert stratum_components(de, frozenset()) == [ee, ss]
    assert stratum_components(ds, frozenset()) == [es]
    assert stratum_components(ds, frozenset({1})) == [ds]
    with pytest.raises(ValueError):
        stratum_components(ee, frozenset({1}))


def test_stratum_components_maximum_a2():
    g = group_of("A2")
    poset = poset_of("A2")
    top = poset.maximum
    assert stratum_components(top, frozenset()) == [lab(g, (), (), (1, 2, 1))]


def test_stratum_components_match_poset():
    # components are exactly the maximal orbits of the closure sliced to the stratum
    for name in ["A2", "B2"]:
        poset = poset_of(name)
        for z in poset.labels:
            for J in z.group.subsets():
                if not J <= z.stratum:
                    continue
                comps = stratum_components(z, J)
                mask = poset.down_mask(z) & poset.stratum_mask(J)
                assert comps == sorted(poset.maximal_of_mask(mask), key=OrbitLabel.sort_key)


def test_schubert_pairs_a1():
    g = group_of("A1")
    ee, es, se, ss, de, ds = a1_labels()
    e, s1 = g.identity, g.longest
    assert [(p.left, p.right) for p in schubert_pairs(de)] == [(e, s1), (s1, e)]
    assert [(p.left, p.right) for p in schubert_pairs(ds)] == [(s1, s1)]
    assert [(p.left, p.right) for p in schubert_pairs(se)] == [(e, e)]


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_schubert_pairs_are_the_empty_slice(name):
    # schubert_pairs reads the lifts itself; the empty slice reaches them through checked labels
    g = group_of(name)
    w0 = g.longest
    for z in poset_of(name).labels:
        pairs = [(p.left, p.right) for p in schubert_pairs(z)]
        assert set(pairs) == {(g.multiply(c.x, w0), c.w) for c in stratum_components(z, ())}
        assert len(set(pairs)) == len(pairs)
        keys = [(a.index, b.index) for a, b in pairs]
        assert keys == sorted(keys)


def test_stratum_components_refuse_a_non_minimal_lift(monkeypatch):
    # s1 has the right descent 1, so it is no minimal representative for J = {1}
    g = group_of("A2")
    s1 = g.simple(1)
    monkeypatch.setattr(orbits, "_lifts", lambda z, J: [(s1, s1)])
    with pytest.raises(ValueError, match="not a minimal coset representative"):
        stratum_components(lab(g, (1, 2), (), ()), {1})


def test_meet_components_a1():
    ee, es, se, ss, de, ds = a1_labels()
    poset = poset_of("A1")
    assert poset.meet_components(ee, ss) == [se]
    assert poset.meet_components(ee, de) == [ee]
    assert poset.meet_components(es, de) == [ee, ss]


def test_meet_components_are_maximal():
    poset = poset_of("A2")
    labels = poset.labels
    for z1 in labels[::11]:
        for z2 in labels[::13]:
            comps = poset.meet_components(z1, z2)
            both = set(poset.below(z1)) & set(poset.below(z2))
            assert set(comps) <= both
            for z in both:
                assert any(poset.leq(z, c) for c in comps)
            for c in comps:
                for d in comps:
                    if c != d:
                        assert not poset.leq(c, d)


def and_map_up_mask(poset, z) -> int:
    """The up-set of z by definition: z's bit ANDed into every down-set, in one C-level pass."""
    bit = 1 << poset.index[z]
    return mask_from_bytes(bytes(map(bool, map(bit.__and__, poset.down_masks()))))


def test_up_mask_matches_brute_force():
    # the poset closes its up-sets from the covers; the leq scan and the AND-map read the relation itself
    poset = poset_of("A2")
    for z in poset.labels:
        brute = 0
        for k, z2 in enumerate(poset.labels):
            if poset.leq(z, z2):
                brute |= 1 << k
        assert poset.up_mask(z) == brute == and_map_up_mask(poset, z)
    # the Eulerian test checks every label up to A3 against the relation's transpose; B3 is read here on a stride
    poset = poset_of("B3")
    for z in poset.labels[::37]:
        assert poset.up_mask(z) == and_map_up_mask(poset, z)


def test_envelope_guard():
    g = group_of("A4")
    with pytest.raises(ValueError, match="64920"):
        build_poset(g)
    # an explicit budget overrides the default envelope
    small = build_poset(group_of("A1"), max_labels=6)
    assert len(small) == 6
    with pytest.raises(ValueError):
        build_poset(group_of("A2"), max_labels=10)


@pytest.mark.parametrize("width", [1, 7056])
def test_mask_bytes_reads_bit_k_at_byte_k(width):
    rng = random.Random(width)
    for mask in [0, (1 << width) - 1, 1 << (width - 1), rng.getrandbits(width)]:
        got = mask_bytes(mask, width)
        assert len(got) == width
        assert list(got) == [mask >> k & 1 for k in range(width)]
        # mask_from_bytes inverts it, from bytes or from a sequence of 0/1 ints
        assert mask_from_bytes(got) == mask_from_bytes(list(got)) == mask
    assert mask_from_bytes(b"") == 0


def brute_maximal(poset, members) -> set[int]:
    """Labels of members with no other member strictly above them."""
    down = poset.down_masks()
    beneath = 0
    for j in members:
        beneath |= down[j] & ~(1 << j)
    return {i for i in members if not beneath >> i & 1}


def flat_covers(poset) -> set[tuple[int, int]]:
    """Transitive reduction without dimensions: j < i with no k strictly between."""
    strict = [m & ~(1 << i) for i, m in enumerate(poset.down_masks())]
    covers = set()
    for i, below in enumerate(strict):
        keep = below
        for k in bits(below):
            keep &= ~strict[k]
        covers.update((i, j) for j in bits(keep))
    return covers


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_cover_pairs_match_flat_reduction(name):
    poset = poset_of(name)
    covers = poset.cover_pairs()
    assert len(covers) == len(set(covers))
    assert set(covers) == flat_covers(poset)


def test_b3_covers_drop_dimension_by_one():
    poset = build_poset(group_of("B3"), max_labels=7056)
    covers = poset.cover_pairs()
    assert len(covers) == 47161
    dims = [poset.dim(z) for z in poset.labels]
    assert all(dims[i] - dims[j] == 1 for i, j in covers)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_maximal_of_mask_matches_brute_force(name):
    poset = poset_of(name)
    n = len(poset)
    labels = poset.labels
    rng = random.Random(20260)
    masks = [0, (1 << n) - 1]
    masks += [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(40)]
    for _ in range(40):
        z1, z2 = labels[rng.randrange(n)], labels[rng.randrange(n)]
        masks.append(poset.down_mask(z1) & poset.down_mask(z2))
    for mask in masks:
        got = poset.maximal_of_mask(mask)
        assert [poset.index[z] for z in got] == sorted(brute_maximal(poset, bits(mask)))


def test_maximal_of_empty_mask_is_empty():
    assert poset_of("B2").maximal_of_mask(0) == []


# sha256 of the down-set masks, each as (n + 7) // 8 little-endian bytes, and the count of relation bits
RELATION_DIGESTS = {
    "A3": (333247, "6bee7ee8dcdb8a69aa6dcd443995760a3c13629fd215a237c70d312ccb566e23"),
    "B3": (4573379, "611c34e1061142b68403922128e6468bfcc341e2581a9f457e9e12a207a3da22"),
    "C3": (4573379, "611c34e1061142b68403922128e6468bfcc341e2581a9f457e9e12a207a3da22"),
}


@pytest.mark.parametrize("name", sorted(RELATION_DIGESTS))
def test_relation_is_pinned(name):
    poset = poset_of(name)
    n = len(poset)
    masks = poset.down_masks()
    blob = b"".join(d.to_bytes((n + 7) // 8, "little") for d in masks)
    assert (sum(bin(d).count("1") for d in masks), hashlib.sha256(blob).hexdigest()) == RELATION_DIGESTS[name]


def walk_pairs(poset, count=300) -> list[tuple[OrbitLabel, OrbitLabel]]:
    """Random label pairs, plus pairs with the minimum, with the maximum and of equal dimension."""
    labels = poset.labels
    rng = random.Random(len(labels))
    pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(count)]
    ends = (poset.minimum, poset.maximum)
    for z in rng.sample(labels, 20) + list(ends):
        pairs += [(z, end) for end in ends] + [(end, z) for end in ends]
    by_dim: dict[int, list[OrbitLabel]] = {}
    for z in labels:
        by_dim.setdefault(poset.dim(z), []).append(z)
    for layer in by_dim.values():
        pairs += [(rng.choice(layer), rng.choice(layer)) for _ in range(5)] + [(layer[0], layer[0])]
    return pairs


def meet_mismatches(poset, pairs) -> list[tuple[OrbitLabel, OrbitLabel]]:
    """The pairs whose meet_components differ from the brute-force maximal labels of the intersection."""
    bad = []
    for z1, z2 in pairs:
        both = bits(poset.down_mask(z1) & poset.down_mask(z2))
        if [poset.index[c] for c in poset.meet_components(z1, z2)] != sorted(brute_maximal(poset, both)):
            bad.append((z1, z2))
    return bad


@pytest.mark.parametrize("name", ["B2", "G2", "A3"])
def test_meet_components_match_brute_force(name):
    poset = poset_of(name)
    assert meet_mismatches(poset, walk_pairs(poset)) == []


def test_a_walk_started_one_layer_too_low_is_caught(monkeypatch):
    real = OrbitPoset._maximal_bits

    def one_layer_low(self, mask, first=None):
        # a caller's first layer, one past the first its set can reach, skips that layer's maximal labels
        return real(self, mask) if first is None else real(self, mask, first + 1)

    monkeypatch.setattr(OrbitPoset, "_maximal_bits", one_layer_low)
    poset = build_poset(group_of("B2"))
    assert set(poset.cover_pairs()) != flat_covers(poset)
    assert meet_mismatches(poset, walk_pairs(poset))


def test_covers_are_built_once_for_the_pairs_and_every_up_set():
    poset = build_poset(group_of("B2"))
    before = OrbitPoset._cover_rows.cache_info()
    pairs = poset.cover_pairs()
    ups = [poset.up_mask(z) for z in poset.labels]
    after = OrbitPoset._cover_rows.cache_info()
    assert after.misses - before.misses == 1
    assert poset.cover_pairs() == pairs and [poset.up_mask(z) for z in poset.labels] == ups
    assert OrbitPoset._cover_rows.cache_info().misses == after.misses


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_every_interval_of_the_closure_order_is_eulerian(name):
    # as in Bruhat order, every strict interval [z1, z2] has as many labels of even dimension as of odd
    poset = poset_of(name)
    n = len(poset)
    down = poset.down_masks()
    rows = bytearray(n * n)  # row i marks the down-set of label i, so column j marks the up-set of label j
    for i, mask in enumerate(down):
        rows[i * n : (i + 1) * n] = mask_bytes(mask, n)
    up = [mask_from_bytes(rows[j::n]) for j in range(n)]
    assert [poset.up_mask(z) for z in poset.labels] == up  # the poset's own table, closed from its covers
    even = mask_from_bytes([dimension(z) % 2 == 0 for z in poset.labels])
    for j in range(n):
        for i in bits(up[j] & ~(1 << j)):
            interval = down[i] & up[j]
            assert (interval & even).bit_count() * 2 == interval.bit_count(), (poset.labels[j], poset.labels[i])
