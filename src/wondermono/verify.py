"""Cross-checking suite behind the command line verifier.

Every check recomputes one fact along two routes that share as little code
as possible and compares the outcomes.  The suite adapts to the requested
group and weight bound; work that would blow past the built-in budgets is
skipped and reported as skipped, never silently dropped.

Each check is a module-level check_<name> whose parameters are the inputs it
reads.  run_suite builds each input of a run at most once, at its first
read, and wires the checks by one table of thunks; a thunk reads its check's
inputs inside the check's timer and handler, so an input's build time counts
toward the first check that reads it, and an input that refuses (a poset
over the label cap, a grid with every weight over its budget) raises
SkipCheck at each read, and each check that reads it is reported as skipped
with the input's reason.

The closure-order checks read the relation one label at a time: a label's
strict down-set, as bytes, selects the values ORed together for it in one
C-level pass.  The union of the strict down-sets below each label decides
transitivity, antisymmetry and the flat covers at once; only a failure walks
single bits, to name the witness a bit-by-bit scan would meet first.

The standardness checks decide each direction class once, and read
standardness in two ways only, each compared with a route of its own.
The library's table: a class (support, a, b) is standard on a label when its
support lies in the label's stratum and bit b of row a of standard_rows is
set, whatever the shape; class_masks reads every class of a label from its
rows at the distinct left directions, joined as bytes, in one C-level pass.
- index-monotonicity compares those masks along the flat covers when the
  relation is a strict order, since every relation is then a chain of covers;
  a relation that is no order goes straight to the bit-by-bit scan.
- standard-intersection reads the union of its shapes' classes once and
  compares each meet once.  One AND each tests that a meet's components lie
  below both labels and below none of each other.
The definition: a class (a, b) is standard on a label when some Schubert pair
(L, R) of it has a <= L and b <= R.  component_masks reads it from
schubert_pairs and down_mask alone, never from standard_rows or the closure
order: the classes below each component element are ORed once, and a label's
mask is the union over its components.
- nonstandard-locus lays the masks out as a label-by-class table, whose
  column k is class k's standard labels, and compares each column with
  nonstandard_components, which reads the closure order.
- graded-tables numbers the classes of every candidate of its weights and
  takes the masks once; each candidate pair gets its class's bit once per
  shape, keyed by the pair object's id, and a label's basis is read in one
  C-level pass, id of each pair to its bit, whose OR must lie in the label's
  mask.  A pair that is no candidate object is read through its initial
  directions instead.
Here too only a failure scans one shape, meet, label or class at a time, to
name the witness such a scan would meet first.

dominance-order checks each shape dominant_below returns, and on the path
grid that none is missing: the dominant weights of V(lam), read from the
character of w0 at lam, are exactly the dominant mu <= lam.  The character is
built once per weight and run, and path-endpoints and path-demazure, at w0,
read the same one.

path-demazure compares, for each sampled w, the endpoints of the paths whose
initial direction lies below w with the Demazure character of w at lam.  The
paths are grouped by initial direction once per weight, so each w reads one
Bruhat test per direction class, not per path.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from functools import cache, reduce
from itertools import accumulate, chain, combinations, compress, product
from operator import attrgetter, index, mul, or_
from typing import NamedTuple

from .demazure import char_dim, demazure_character, weyl_dim
from .monomials import (
    basis_indices,
    candidate_count,
    graded_counts,
    nonstandard_components,
    pair_count,
    standard_rows,
)
from .orbits import (
    OrbitLabel,
    bit_reader,
    build_poset,
    closure_leq,
    dimension,
    mask_bytes,
    mask_from_bytes,
    schubert_pairs,
    stratum_components,
)
from .paths import (
    _lowering_closure,
    generate_pairs,
    generate_paths,
    initial_direction,
    pair_directions,
)
from .rootsys import (
    build,
    dominance_diff,
    dominant_below,
    exponent_bounds,
    is_dominant,
    root_combination,
    sub_weights,
    support,
)
from .weyl import WeylGroup, bits

# budgets keeping a verify run on any supported group under a minute
PATH_DIM_BUDGET = 4000
CANDIDATE_BUDGET = 3000
COUNT_BUDGET = 12000
SHAPE_PAIR_BUDGET = 1000
QUADRATIC_LIMIT = 150
ORBIT_SAMPLE = 60
MEET_SAMPLE = 120
WEYL_SAMPLE = 48
# exponent vectors one weight may make dominant_below enumerate; above F4's
# largest box at max-weight 1 (38,016), so every group runs in full there
BOX_BUDGET = 50_000
# weights in the (max_weight + 1) ** rank grid, sized before it is built;
# F4 at max-weight 4 has 625
GRID_BUDGET = 10_000


class CheckResult(NamedTuple):
    """One check's outcome, built once when the check ends; seconds takes part in == like every field."""

    name: str
    status: str
    detail: str = ""
    seconds: float = 0.0  # wall time of the check

    @property
    def ok(self) -> bool:
        return self.status != "fail"


class CheckFailure(Exception):
    pass


class SkipCheck(Exception):
    pass


def _stride(seq, cap: int) -> list:
    seq = list(seq)
    if len(seq) <= cap:
        return seq
    step = -(-len(seq) // cap)
    return seq[::step]


def _counted(kept, skipped: int) -> str:
    return f"{len(kept)} weights" + (f", {skipped} skipped over budget" if skipped else "")


def _labels_note(sample, poset) -> str:
    return "all labels" if len(sample) == len(poset) else f"{len(sample)} of {len(poset)} labels"


def class_masks(group: WeylGroup, labels, classes) -> list[int]:
    """Each label's bitmask over (support, a, b) classes: bit k when class k is standard there.

    A label's rows at the classes' distinct left directions are joined as bytes, one reader
    takes every class's bit from the join, and a per-stratum mask keeps the classes whose
    support lies in the label's stratum.
    """
    width = len(group)
    lefts = list(dict.fromkeys(a for _, a, _ in classes))
    offset = {a: k * width for k, a in enumerate(lefts)}
    read = bit_reader([offset[a] + b for _, a, b in classes])
    pick = bit_reader(lefts)
    row_bytes = cache(lambda row: mask_bytes(row, width))  # the rows take few distinct values
    # many labels share their rows at the left directions, so each distinct pick is read once
    of_rows = cache(lambda rows: mask_from_bytes(read(b"".join(map(row_bytes, rows)))))
    in_stratum = {}
    masks = []
    for z in labels:
        keep = in_stratum.get(z.stratum)
        if keep is None:
            keep = in_stratum[z.stratum] = mask_from_bytes([supp <= z.stratum for supp, _, _ in classes])
        masks.append(of_rows(pick(standard_rows(z))) & keep)
    return masks


def component_masks(group: WeylGroup, labels, classes) -> list[int]:
    """Each label's bitmask over (a, b) classes: bit k when a Schubert pair of the label admits class k.

    A pair (L, R) admits (a, b) when a <= L and b <= R.  The classes below each component element
    are ORed once, from its down_mask; a label's mask is the union over its Schubert pairs.
    """
    width = len(group)
    with_left, with_right = [0] * width, [0] * width  # the classes with each left, right direction
    for k, (a, b) in enumerate(classes):
        with_left[a] |= 1 << k
        with_right[b] |= 1 << k

    def under(side: list[int]):
        """el -> the classes whose direction on that side lies below el, memoized per element."""
        return cache(lambda el: reduce(or_, compress(side, mask_bytes(group.down_mask(el), width)), 0))

    left_under, right_under = under(with_left), under(with_right)
    return [reduce(or_, (left_under(c.left) & right_under(c.right) for c in schubert_pairs(z)), 0) for z in labels]


# -- root system and Weyl group ----------------------------------------


def check_root_data(rs) -> str:
    rank = rs.rank
    expected_pos = {
        "A": rank * (rank + 1) // 2,
        "B": rank * rank,
        "C": rank * rank,
        "D": rank * (rank - 1),
        "G": 6,
        "F": 24,
    }[rs.letter]
    if len(rs.positive_roots) != expected_pos:
        raise CheckFailure(f"{len(rs.positive_roots)} positive roots, expected {expected_pos}")
    for beta, co in zip(rs.positive_roots, rs.coroots, strict=True):
        pairing = sum(map(mul, root_combination(rs, beta), co))
        if pairing != 2:
            raise CheckFailure(f"positive root {beta} pairs to {pairing} with its coroot {co}, not 2")
    return f"{expected_pos} positive roots"


def check_group_order(rs, group: WeylGroup) -> str:
    rank = rs.rank
    expected = {
        "A": math.factorial(rank + 1),
        "B": 2**rank * math.factorial(rank),
        "C": 2**rank * math.factorial(rank),
        "D": 2 ** (rank - 1) * math.factorial(rank),
        "G": 12,
        "F": 1152,
    }[rs.letter]
    if len(group) != expected:
        raise CheckFailure(f"group order {len(group)}, expected {expected}")
    if group.longest.length != len(rs.positive_roots):
        raise CheckFailure("longest element length differs from the positive root count")
    if group.multiply(group.longest, group.longest) != group.identity:
        raise CheckFailure("longest element is not an involution")
    by_len = Counter(el.length for el in group.elements)
    top_len = group.longest.length
    for k in range(top_len + 1):
        if by_len[k] != by_len[top_len - k]:
            raise CheckFailure(f"length distribution not palindromic at {k}")
    return f"order {len(group)}"


def check_coset_structure(group: WeylGroup) -> str:
    checked = 0
    for subset in group.subsets():
        para = group.parabolic_elements(subset)
        reps = group.min_coset_reps(subset)
        if len(para) * len(reps) != len(group):
            raise CheckFailure(f"coset count broken for I={sorted(subset)}")
        for w in group.elements:
            # x is read off the orbit table of lam_I, so its descents are an independent route
            x, y = group.coset_decompose(w, subset)
            if set(y.word) - subset:
                raise CheckFailure(f"parabolic part of {w.word_str} leaves I={sorted(subset)}")
            if set(group.right_descents(x)) & subset:
                raise CheckFailure(f"minimal part of {w.word_str} has a descent in I={sorted(subset)}")
            if group.multiply(x, y) != w or x.length + y.length != w.length:
                raise CheckFailure(f"decomposition of {w.word_str} at I={sorted(subset)} broken")
            checked += 1
    return f"{checked} decompositions"


def check_dominance_order(rs, group: WeylGroup, grid, boxes, path_weights, full_character) -> str:
    for lam in grid:
        if group.dual_weight(group.dual_weight(lam)) != lam:
            raise CheckFailure(f"dual weight not involutive at {lam}")
    kept, skipped = boxes
    for lam in kept:
        shapes = dominant_below(rs, lam)
        for mu, nvec in shapes:
            if not is_dominant(mu):
                raise CheckFailure(f"dominant_below({lam}) produced non-dominant {mu}")
            if root_combination(rs, nvec) != sub_weights(lam, mu):
                raise CheckFailure(f"exponents {nvec} do not connect {lam} to {mu}")
            if dominance_diff(rs, lam, mu) != nvec:
                raise CheckFailure(f"dominance_diff disagrees at {lam} -> {mu}")
        # completeness: the dominant weights of V(lam) are exactly the dominant mu <= lam
        if lam in path_weights:
            dominant = {mu for mu in full_character(lam) if is_dominant(mu)}
            if {mu for mu, _ in shapes} != dominant:
                raise CheckFailure(
                    f"dominant_below({lam}) gives {len(shapes)} shapes,"
                    f" its character {len(dominant)} dominant weights"
                )
    return _counted(kept, skipped)


# -- paths against character oracles -----------------------------------


def check_path_count(rs, weights) -> str:
    kept, skipped = weights
    for lam in kept:
        expected = weyl_dim(rs, lam)
        ps = generate_paths(rs, lam)
        if len(ps) != expected:
            raise CheckFailure(f"{lam}: {len(ps)} paths, Weyl dimension {expected}")
        for p in ps:
            if p.shape != lam:
                raise CheckFailure(f"path of shape {p.shape} generated for {lam}")
        # the root-operator route: the closure of the straight path under lowering, in LSPath's fields
        closure = _lowering_closure(rs, lam)
        model = {(p.dirs, p.steps, p.den) for p in ps}
        if model != closure:
            raise CheckFailure(
                f"{lam}: {len(model - closure)} paths outside the lowering closure,"
                f" {len(closure - model)} closure paths not generated"
            )
    return _counted(kept, skipped)


def check_path_endpoints(rs, weights, full_character) -> str:
    kept, skipped = weights
    for lam in kept:
        seen = Counter(p.endpoint() for p in generate_paths(rs, lam))
        if seen != full_character(lam):
            raise CheckFailure(f"endpoint multiset differs from the full character at {lam}")
    return _counted(kept, skipped)


def check_path_demazure(rs, group: WeylGroup, weights, full_character) -> str:
    kept, skipped = weights
    wsample = _stride(group.elements, WEYL_SAMPLE)
    if group.longest not in wsample:
        wsample.append(group.longest)
    for lam in kept:
        # the endpoints of the paths with each initial direction, read once per weight
        ends = defaultdict(list)
        for p in generate_paths(rs, lam):
            ends[initial_direction(group, p)].append(p.endpoint())
        for w in wsample:
            lhs = Counter(chain.from_iterable(e for d, e in ends.items() if group.bruhat_leq(d, w)))
            rhs = full_character(lam) if w is group.longest else demazure_character(group, w, lam)
            if lhs != rhs:
                count, dim = lhs.total(), char_dim(rhs)
                if count != dim:
                    raise CheckFailure(f"{count} paths open below {w.word_str} at {lam}, character dimension {dim}")
                mu = min(mu for mu in lhs.keys() | rhs.keys() if lhs[mu] != rhs.get(mu, 0))
                raise CheckFailure(
                    f"weight {mu} ends {lhs[mu]} paths open below {w.word_str} at {lam},"
                    f" character multiplicity {rhs.get(mu, 0)}"
                )
    return _counted(kept, skipped) + f", {len(wsample)} group elements"


# -- orbit poset --------------------------------------------------------


def check_orbit_census(group: WeylGroup, p) -> str:
    expected = sum(
        (len(group) // len(group.parabolic_elements(subset))) * len(group)
        for subset in group.subsets()
    )
    if len(p) != expected:
        raise CheckFailure(f"{len(p)} labels, index formula gives {expected}")
    return f"{len(p)} orbit labels"


def check_poset_axioms(p, strict: list[int], beneath: list[int]) -> str:
    for i, (d, below) in enumerate(zip(p.down_masks(), beneath)):
        if not d >> i & 1:
            raise CheckFailure(f"not reflexive at {p.labels[i]}")
        if below & ~d or below >> i & 1:
            # name the first j whose down-set breaks transitivity or antisymmetry at i
            for j in bits(strict[i]):
                if strict[j] & ~d:
                    raise CheckFailure(f"transitivity fails under {p.labels[i]} via {p.labels[j]}")
                if strict[j] >> i & 1:
                    raise CheckFailure(f"antisymmetry fails between {p.labels[i]} and {p.labels[j]}")
    return f"axioms hold on {len(p)} labels"


def check_poset_extremes(group: WeylGroup, top: OrbitLabel, p, strict: list[int], covers) -> str:
    if p.maximum != top:
        raise CheckFailure(f"maximum is {p.maximum}, expected {top}")
    if p.dim(top) != 2 * group.longest.length + group.rank:
        raise CheckFailure("maximum has the wrong dimension")
    bottom = OrbitLabel(frozenset(), group.longest, group.identity)
    if p.minimum != bottom or p.dim(bottom) != 0:
        raise CheckFailure(f"minimum is {p.minimum} of dimension {p.dim(p.minimum)}")
    dims = [dimension(z) for z in p.labels]
    layers = dict.fromkeys(sorted(set(dims), reverse=True), 0)
    for k, d in enumerate(dims):
        layers[d] |= 1 << k
    at_least = dict(zip(layers, accumulate(layers.values(), or_)))  # labels of dimension >= d, per d
    for i, s in enumerate(strict):
        if s & at_least[dims[i]]:
            j = next(j for j in bits(s) if dims[j] >= dims[i])
            raise CheckFailure(f"dimension does not drop from {p.labels[i]} to {p.labels[j]}")
    # the layered covers rely on the dimension drop asserted just above; the flat ones use no dimension
    if covers != p.cover_pairs():
        raise CheckFailure("cover pairs differ from the flat transitive reduction")
    drops = Counter(dims[i] - dims[j] for i, j in covers)
    return f"extremes ok; cover drops {dict(sorted(drops.items()))}"


def check_closure_crosscheck(p) -> str:
    labels, down = p.labels, p.down_masks()
    sample = _stride(range(len(p)), QUADRATIC_LIMIT if len(p) <= QUADRATIC_LIMIT else 100)
    for i1 in sample:
        z1 = labels[i1]
        for i2 in sample:
            # the poset's bit of z1 in the down-set of z2, against the witness loop
            if closure_leq(z1, labels[i2]) != down[i2] >> i1 & 1:
                raise CheckFailure(f"direct criterion and poset disagree on {z1} <= {labels[i2]}")
    return f"{len(sample) ** 2} comparisons, {_labels_note(sample, p)}"


def check_stratum_slices(group: WeylGroup, p) -> str:
    zs = _stride(p.labels, ORBIT_SAMPLE * 5)
    slices = 0
    for z in zs:
        zmask = p.down_mask(z)
        for target in [J for J in group.subsets() if J <= z.stratum]:
            comps = stratum_components(z, target)
            brute = p.maximal_of_mask(zmask & p.stratum_mask(target))
            if set(comps) != set(brute):
                raise CheckFailure(f"slice of {z} to {sorted(target)} has wrong components")
            if not target:
                want = {(group.multiply(c.x, group.longest), c.w) for c in comps}
                if want != set(schubert_pairs(z)):
                    raise CheckFailure(f"Schubert pairs of {z} disagree with the empty slice")
            slices += 1
    return f"{slices} slices on {len(zs)} labels"


# -- standard monomials -------------------------------------------------


def check_basis_counts(group: WeylGroup, top: OrbitLabel, weights) -> str:
    flag_stratum = OrbitLabel(frozenset(), group.identity, group.longest)
    # the dense orbits of the other G x G-orbit closures: each one's standard table is full too
    between = [OrbitLabel(I, group.identity, group.longest) for I in group.subsets() if 0 < len(I) < group.rank]
    kept, skipped = weights
    for lam, expected in kept.items():
        got = len(basis_indices(top, lam))
        if got != expected:
            raise CheckFailure(f"{got} indices on the full space at {lam}, expected {expected}")
        closed_expected = pair_count(group, lam)
        closed_got = len(basis_indices(flag_stratum, lam))
        if closed_got != closed_expected:
            raise CheckFailure(f"{closed_got} indices on the closed stratum at {lam}, expected {closed_expected}")
        for z in between:
            got, want = len(basis_indices(z, lam)), candidate_count(z, lam)
            if got != want:
                raise CheckFailure(f"{got} indices on the closure of {z} at {lam}, expected {want}")
    return _counted(kept, skipped)


def check_graded_tables(group: WeylGroup, p, weights) -> str:
    zs = _stride(p.labels, ORBIT_SAMPLE)
    kept, skipped = weights
    # every basis index is a candidate of its weight, so the candidates' classes cover its class
    position: dict[tuple[int, int], int] = {}
    # id(pair) -> its class's bit, given once per candidate shape; every pair stays in generate_pairs' memo
    bit_of: dict[int, int] = {}
    for mu in dict.fromkeys(mu for lam in kept for mu, _ in dominant_below(group.rs, lam)):
        for pair, ab in zip(generate_pairs(group, mu), pair_directions(group, mu)):
            bit_of[id(pair)] = 1 << position.setdefault(ab, len(position))
    masks = component_masks(group, zs, position)

    def bit_of_class(pair) -> int:
        return 1 << position[initial_direction(group, pair.left).index, initial_direction(group, pair.right).index]

    def class_bits(basis) -> int:
        """The OR of the basis indices' class bits, read by id in one C-level pass per label."""
        pairs = list(map(attrgetter("pair"), basis))
        found = list(map(bit_of.get, map(id, pairs)))
        if None in found:
            # a pair equal to a candidate but not the same object is read through its initial directions
            found = [bit_of_class(pair) if bit is None else bit for bit, pair in zip(found, pairs)]
        return reduce(or_, found, 0)

    for lam in kept:
        for z, mask in zip(zs, masks):
            basis = basis_indices(z, lam)
            table = graded_counts(z, lam)
            if table.total() != len(basis):
                raise CheckFailure(f"graded total differs from basis size on {z} at {lam}")
            degrees = [d for d, _ in table.rows]
            if degrees != list(range(len(degrees))):
                raise CheckFailure(f"graded rows of {z} at {lam} are not contiguous from zero")
            recount = Counter()
            for powers, n in Counter(map(attrgetter("powers"), basis)).items():
                recount[sum(powers)] += n
            for d, count in table.rows:
                if recount.get(d, 0) != count:
                    raise CheckFailure(f"graded row {d} of {z} at {lam} miscounts")
            if class_bits(basis) & ~mask:
                raise CheckFailure(f"a basis index of {z} at {lam} lies under no component")
    return _counted(kept, skipped) + f" on {len(zs)} labels"


def check_index_monotonicity(group: WeylGroup, p, weights, strict: list[int], covers, order: bool) -> str:
    kept, skipped = weights
    # a candidate pair below lam is standard exactly when its class (support, a, b) is;
    # classes do not depend on lam, so the relation is walked once over their union
    classes: dict[tuple, int] = {}
    of_weight = {}  # each weight's classes as a bitmask, read only to name a failing weight
    for lam in kept:
        held = 0
        for mu, nvec in dominant_below(group.rs, lam):
            supp = support(nvec)
            for a, b in pair_directions(group, mu):
                held |= 1 << classes.setdefault((supp, a, b), len(classes))
        of_weight[lam] = held
    masks = class_masks(group, p.labels, classes)
    # in a strict order a chain of flat covers joins every related pair, so the covers decide every
    # relation bit; a relation that is no order goes straight to the bit-by-bit scan below
    if not order or any(masks[j] & ~masks[i] for i, j in covers):
        # name the first larger closure, and the first label below it, that a label-by-label scan meets
        for i2, s in enumerate(strict):
            outside = ~masks[i2]
            i1 = next((i1 for i1 in bits(s) if masks[i1] & outside), None)
            if i1 is not None:
                lam = next(lam for lam, held in of_weight.items() if held & masks[i1] & outside)
                raise CheckFailure(f"basis of {p.labels[i1]} escapes the larger closure {p.labels[i2]} at {lam}")
    return _counted(kept, skipped)


def check_nonstandard_locus(group: WeylGroup, p, shapes) -> str:
    full = (1 << len(p)) - 1
    # both routes read a pair only through (a, b), so one pair decides its class, whatever its shape
    reps = {}
    pairs_seen = 0
    for mu in shapes:
        pairs = generate_pairs(group, mu)
        reps.update(zip(pair_directions(group, mu), pairs))
        pairs_seen += len(pairs)
    # the reference route reads only components and lower intervals, nonstandard_components the
    # closure order; label-major rows of n bytes, so column k, every n-th byte, is class k's standard labels
    n = len(reps)
    table = b"".join(mask_bytes(m, n) for m in component_masks(group, p.labels, reps))
    for k, pair in enumerate(reps.values()):
        locus = full & ~mask_from_bytes(table[k::n])
        comps = nonstandard_components(pair, p)
        if reduce(or_, map(p.down_mask, comps), 0) != locus:
            raise CheckFailure(f"nonstandard locus at shape {pair.mu} is not the union of its components")
        for c1, c2 in combinations(comps, 2):
            if p.leq(c1, c2) or p.leq(c2, c1):
                raise CheckFailure(f"nonstandard components at shape {pair.mu} are not an antichain")
    return f"{pairs_seen} pairs over {len(shapes)} shapes"


def check_standard_intersection(group: WeylGroup, p, strict: list[int], shapes) -> str:
    labels, index, down = p.labels, p.index, p.down_masks()
    sample = _stride(range(len(p)), MEET_SAMPLE)
    meets = []  # (i1, i2, the components' indices)
    for a, i1 in enumerate(sample):
        for i2 in sample[a:]:
            z1, z2 = labels[i1], labels[i2]
            comps = p.meet_components(z1, z2)
            at = [index[c] for c in comps]
            mask = reduce(or_, map((1).__lshift__, at), 0)
            # below both, and no component strictly below another or repeated
            if (
                mask & ~(down[i1] & down[i2])
                or reduce(or_, map(strict.__getitem__, at), 0) & mask
                or mask.bit_count() != len(at)
            ):
                for c in comps:
                    if not (p.leq(c, z1) and p.leq(c, z2)):
                        raise CheckFailure(f"meet component {c} not below both {z1} and {z2}")
                for c1, c2 in combinations(comps, 2):
                    if p.leq(c1, c2) or p.leq(c2, c1):
                        raise CheckFailure(f"meet components of {z1}, {z2} are not an antichain")
            meets.append((i1, i2, at))
    # a class's standardness does not depend on the shape, so the shapes' classes are read as one union
    of_shape = [dict.fromkeys(pair_directions(group, mu)) for mu in shapes]
    position = {ab: k for k, ab in enumerate(dict.fromkeys(ab for classes in of_shape for ab in classes))}
    relevant = list(dict.fromkeys(sample + [i for _, _, at in meets for i in at]))
    masks = class_masks(group, [labels[i] for i in relevant], [(frozenset(), a, b) for a, b in position])
    std = dict(zip(relevant, masks))
    off = [std[i1] & std[i2] ^ reduce(or_, map(std.__getitem__, at), 0) for i1, i2, at in meets]
    if any(off):
        # name the first shape and meet of a shape-by-shape scan
        for mu, classes in zip(shapes, of_shape):
            shape_mask = reduce(or_, (1 << position[ab] for ab in classes))
            for (i1, i2, _), o in zip(meets, off):
                if o & shape_mask:
                    raise CheckFailure(
                        f"pairs standard on both {labels[i1]} and {labels[i2]} differ from their intersection"
                        f" at shape {mu}"
                    )
    return f"{len(meets)} meets ({_labels_note(sample, p)}), {len(shapes)} shapes"


def run_suite(letter: str, rank: int, max_weight: int = 1) -> list[CheckResult]:
    try:
        max_weight = index(max_weight)  # the check rootsys.rank_weight makes of a weight's coordinates
    except TypeError:
        raise ValueError(f"max weight must be an integer, got {max_weight!r}") from None
    if max_weight < 0:
        raise ValueError(f"max weight must be nonnegative, got {max_weight}")
    rs = build(letter, rank)
    grid_size = (max_weight + 1) ** rs.rank
    if grid_size > GRID_BUDGET:
        raise ValueError(
            f"the weight grid of {rs.name} at max weight {max_weight} has {grid_size} weights,"
            f" over the budget of {GRID_BUDGET}"
        )
    group = WeylGroup(rs)
    grid = [tuple(t) for t in product(range(max_weight + 1), repeat=rs.rank)]
    top = OrbitLabel(frozenset(range(1, rs.rank + 1)), group.identity, group.longest)

    @cache
    def poset():
        """The orbit poset, built at its first read; build_poset counts a refusal before it builds any label."""
        try:
            return build_poset(group)
        except ValueError as exc:
            raise SkipCheck(str(exc)) from None

    def box_size(lam) -> int:
        return math.prod(b + 1 for b in exponent_bounds(rs, lam))

    @cache
    def candidate_total(lam) -> float:
        # sizing the candidates runs dominant_below, so an over-budget box is over every budget;
        # two grids size the same weights, so each is sized once per run
        if box_size(lam) > BOX_BUDGET:
            return math.inf
        return candidate_count(top, lam)

    budgets = {
        "exponent box": (box_size, BOX_BUDGET),
        "path": (lambda lam: weyl_dim(rs, lam), PATH_DIM_BUDGET),
        "counting": (candidate_total, COUNT_BUDGET),
        "candidate": (candidate_total, CANDIDATE_BUDGET),
        "pair": (lambda mu: pair_count(group, mu), SHAPE_PAIR_BUDGET),
    }

    @cache
    def sized(what: str) -> tuple[dict, int]:
        """The grid weights within the named budget, with their sizes, and how many are skipped."""
        size, budget = budgets[what]
        kept = {}
        for lam in grid:
            n = size(lam)
            if n <= budget:
                kept[lam] = n
        if not kept:
            raise SkipCheck(f"all {len(grid)} weights beyond the {what} budget")
        return kept, len(grid) - len(kept)

    @cache
    def full_character(lam):
        """The character of V(lam), built once per run for the checks that read it."""
        return demazure_character(group, group.longest, lam)

    @cache
    def strict() -> list[int]:
        """Each label's down-set without the label itself."""
        return [d & ~(1 << i) for i, d in enumerate(poset().down_masks())]

    @cache
    def beneath() -> list[int]:
        """The labels strictly below some label strictly below each label, one C-level reduce per label."""
        down = strict()
        n = len(down)
        return [reduce(or_, compress(down, mask_bytes(s, n)), 0) for s in down]

    @cache
    def covers() -> list[tuple[int, int]]:
        """(upper, lower) index pairs of the transitive reduction, read off beneath(): no dimension is used."""
        return [(i, j) for i, (s, b) in enumerate(zip(strict(), beneath())) for j in bits(s & ~b)]

    def order() -> bool:
        """Whether the strict relation is transitive and acyclic, so every relation is a chain of flat covers."""
        return all(not b & ~s and not b >> i & 1 for i, (s, b) in enumerate(zip(strict(), beneath())))

    # each thunk reads its check's inputs inside the check's timer and handler, so a refused input is a SKIP
    checks = [
        ("root-data", lambda: check_root_data(rs)),
        ("group-order", lambda: check_group_order(rs, group)),
        ("coset-structure", lambda: check_coset_structure(group)),
        (
            "dominance-order",
            lambda: check_dominance_order(rs, group, grid, sized("exponent box"), sized("path")[0], full_character),
        ),
        ("path-count", lambda: check_path_count(rs, sized("path"))),
        ("path-endpoints", lambda: check_path_endpoints(rs, sized("path"), full_character)),
        ("path-demazure", lambda: check_path_demazure(rs, group, sized("path"), full_character)),
        ("orbit-census", lambda: check_orbit_census(group, poset())),
        ("poset-axioms", lambda: check_poset_axioms(poset(), strict(), beneath())),
        ("poset-extremes", lambda: check_poset_extremes(group, top, poset(), strict(), covers())),
        ("closure-crosscheck", lambda: check_closure_crosscheck(poset())),
        ("stratum-slices", lambda: check_stratum_slices(group, poset())),
        ("basis-counts", lambda: check_basis_counts(group, top, sized("counting"))),
        ("graded-tables", lambda: check_graded_tables(group, poset(), sized("candidate"))),
        (
            "index-monotonicity",
            lambda: check_index_monotonicity(group, poset(), sized("candidate"), strict(), covers(), order()),
        ),
        ("nonstandard-locus", lambda: check_nonstandard_locus(group, poset(), sized("pair")[0])),
        ("standard-intersection", lambda: check_standard_intersection(group, poset(), strict(), sized("pair")[0])),
    ]

    results = []
    for name, fn in checks:
        start = time.perf_counter()
        try:
            detail = fn()
        except CheckFailure as exc:
            status, detail = "fail", str(exc)
        except SkipCheck as exc:
            status, detail = "skip", str(exc)
        except Exception as exc:  # pragma: no cover - a check crashed outright
            status, detail = "fail", f"unexpected {type(exc).__name__}: {exc}"
        else:
            status, detail = "pass", detail or ""
        results.append(CheckResult(name, status, detail, time.perf_counter() - start))
    # each element points back at the group, so only the cycle collector frees it; its tables go now
    group.memo.clear()
    rs.memo.clear()
    return results
