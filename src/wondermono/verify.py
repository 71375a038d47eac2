"""Cross-checking suite behind the command line verifier.

Every check recomputes one fact along two routes that share as little code
as possible and compares the outcomes.  The suite adapts to the requested
group and weight bound; work that would blow past the built-in budgets is
skipped and reported as skipped, never silently dropped.

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
built once per weight and run, and path-endpoints reads the same one.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import accumulate, combinations, compress, product
from operator import attrgetter, itemgetter, or_

from .demazure import char_dim, demazure_character, weyl_dim
from .monomials import (
    basis_indices,
    candidate_count,
    graded_counts,
    nonstandard_components,
    pair_count,
    shapes_below,
    standard_rows,
)
from .orbits import (
    OrbitLabel,
    OrbitPoset,
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
    exponent_bounds,
    is_dominant,
    root_combination,
    sub_weights,
    support,
)
from .weyl import WeylGroup

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


@dataclass
class CheckResult:
    """One check's outcome.  A dataclass, not a named tuple: it is mutable, and seconds takes no part in ==."""

    name: str
    status: str
    detail: str = ""
    seconds: float = field(default=0.0, compare=False)  # wall time of the check

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def suite_passed(results) -> bool:
    return all(r.ok for r in results)


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


def run_suite(letter: str, rank: int, max_weight: int = 1) -> list[CheckResult]:
    if max_weight < 0:
        raise ValueError(f"max weight must be nonnegative, got {max_weight}")
    rs = build(letter, rank)
    grid_size = (max_weight + 1) ** rank
    if grid_size > GRID_BUDGET:
        raise ValueError(
            f"the weight grid of {rs.name} at max weight {max_weight} has {grid_size} weights,"
            f" over the budget of {GRID_BUDGET}"
        )
    group = WeylGroup(rs)
    grid = [tuple(t) for t in product(range(max_weight + 1), repeat=rank)]
    top = OrbitLabel(frozenset(range(1, rank + 1)), group.identity, group.longest)

    poset = None
    poset_note = ""
    try:
        poset = build_poset(group)
    except ValueError as exc:
        poset_note = str(exc)

    def need_poset():
        if poset is None:
            raise SkipCheck(poset_note)
        return poset

    def box_size(lam) -> int:
        return math.prod(b + 1 for b in exponent_bounds(rs, lam))

    @cache
    def candidate_total(lam) -> float:
        # sizing the candidates runs dominant_below, so an over-budget box is over every budget;
        # three checks size the same weights, so each is sized once per run
        if box_size(lam) > BOX_BUDGET:
            return math.inf
        return candidate_count(top, lam)

    def within_budget(size, budget: int, what: str) -> tuple[dict, int]:
        """The grid weights whose size is within budget, with their sizes, and how many are skipped."""
        kept = {}
        for lam in grid:
            n = size(lam)
            if n <= budget:
                kept[lam] = n
        if not kept:
            raise SkipCheck(f"all {len(grid)} weights beyond the {what} budget")
        return kept, len(grid) - len(kept)

    def path_grid():
        return within_budget(lambda lam: weyl_dim(rs, lam), PATH_DIM_BUDGET, "path")

    @cache
    def full_character(lam):
        """The character of V(lam), built once per run for the checks that read it."""
        return demazure_character(group, group.longest, lam)

    def class_masks(labels, classes) -> list[int]:
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

    def component_masks(labels, classes) -> list[int]:
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

    @cache
    def strict_down() -> list[int]:
        """Each label's down-set without the label itself."""
        return [d & ~(1 << i) for i, d in enumerate(need_poset().down_masks())]

    @cache
    def beneath() -> list[int]:
        """The labels strictly below some label strictly below each label, one C-level reduce per label."""
        strict = strict_down()
        n = len(strict)
        return [reduce(or_, compress(strict, mask_bytes(s, n)), 0) for s in strict]

    @cache
    def flat_covers() -> list[tuple[int, int]]:
        """(upper, lower) index pairs of the transitive reduction, read off beneath(): no dimension is used."""
        return [(i, j) for i, (s, b) in enumerate(zip(strict_down(), beneath())) for j in OrbitPoset._bits(s & ~b)]

    @cache
    def strict_order() -> bool:
        """Whether the strict relation is transitive and acyclic, so every relation is a chain of flat covers."""
        return all(not b & ~s and not b >> i & 1 for i, (s, b) in enumerate(zip(strict_down(), beneath())))

    def counted(label: str, done: int, skipped: int) -> str:
        note = f"{done} {label}"
        if skipped:
            note += f", {skipped} skipped over budget"
        return note

    # -- root system and Weyl group ----------------------------------------

    def check_root_data():
        expected_pos = {
            "A": rank * (rank + 1) // 2,
            "B": rank * rank,
            "C": rank * rank,
            "D": rank * (rank - 1),
            "G": 6,
            "F": 24,
        }[letter]
        if len(rs.positive_roots) != expected_pos:
            raise CheckFailure(f"{len(rs.positive_roots)} positive roots, expected {expected_pos}")
        for i in range(rank):
            for j in range(rank):
                if rs.symmetrizer[i] * rs.cartan[i][j] != rs.symmetrizer[j] * rs.cartan[j][i]:
                    raise CheckFailure(f"symmetrized Cartan matrix asymmetric at ({i}, {j})")
        return f"{expected_pos} positive roots"

    def check_group_order():
        expected = {
            "A": math.factorial(rank + 1),
            "B": 2**rank * math.factorial(rank),
            "C": 2**rank * math.factorial(rank),
            "D": 2 ** (rank - 1) * math.factorial(rank),
            "G": 12,
            "F": 1152,
        }[letter]
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

    def check_coset_structure():
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

    def check_dominance_order():
        for lam in grid:
            if group.dual_weight(group.dual_weight(lam)) != lam:
                raise CheckFailure(f"dual weight not involutive at {lam}")
        kept, skipped = within_budget(box_size, BOX_BUDGET, "exponent box")
        paths_kept, _ = path_grid()
        for lam in kept:
            shapes = shapes_below(group, lam)
            for mu, nvec in shapes:
                if not is_dominant(mu):
                    raise CheckFailure(f"dominant_below({lam}) produced non-dominant {mu}")
                if root_combination(rs, nvec) != sub_weights(lam, mu):
                    raise CheckFailure(f"exponents {nvec} do not connect {lam} to {mu}")
                if dominance_diff(rs, lam, mu) != nvec:
                    raise CheckFailure(f"dominance_diff disagrees at {lam} -> {mu}")
            # completeness: the dominant weights of V(lam) are exactly the dominant mu <= lam
            if lam in paths_kept:
                dominant = {mu for mu in full_character(lam) if is_dominant(mu)}
                if {mu for mu, _ in shapes} != dominant:
                    raise CheckFailure(
                        f"dominant_below({lam}) gives {len(shapes)} shapes,"
                        f" its character {len(dominant)} dominant weights"
                    )
        return counted("weights", len(kept), skipped)

    # -- paths against character oracles -----------------------------------

    def check_path_count():
        kept, skipped = path_grid()
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
        return counted("weights", len(kept), skipped)

    def check_path_endpoints():
        kept, skipped = path_grid()
        for lam in kept:
            seen = Counter(p.endpoint() for p in generate_paths(rs, lam))
            if seen != full_character(lam):
                raise CheckFailure(f"endpoint multiset differs from the full character at {lam}")
        return counted("weights", len(kept), skipped)

    def check_path_demazure():
        kept, skipped = path_grid()
        wsample = _stride(group.elements, WEYL_SAMPLE)
        if group.longest not in wsample:
            wsample.append(group.longest)
        for lam in kept:
            dirs = [initial_direction(group, p) for p in generate_paths(rs, lam)]
            for w in wsample:
                lhs = sum(1 for d in dirs if group.bruhat_leq(d, w))
                rhs = char_dim(demazure_character(group, w, lam))
                if lhs != rhs:
                    raise CheckFailure(
                        f"{lhs} paths open below {w.word_str} at {lam}, character dimension {rhs}"
                    )
        return counted("weights", len(kept), skipped) + f", {len(wsample)} group elements"

    # -- orbit poset --------------------------------------------------------

    def check_orbit_census():
        p = need_poset()
        expected = sum(
            (len(group) // len(group.parabolic_elements(subset))) * len(group)
            for subset in group.subsets()
        )
        if len(p) != expected:
            raise CheckFailure(f"{len(p)} labels, index formula gives {expected}")
        return f"{len(p)} orbit labels"

    def check_poset_axioms():
        p = need_poset()
        strict = strict_down()
        for i, (d, below) in enumerate(zip(p.down_masks(), beneath())):
            if not d >> i & 1:
                raise CheckFailure(f"not reflexive at {p.labels[i]}")
            if below & ~d or below >> i & 1:
                # name the first j whose down-set breaks transitivity or antisymmetry at i
                for j in OrbitPoset._bits(strict[i]):
                    if strict[j] & ~d:
                        raise CheckFailure(f"transitivity fails under {p.labels[i]} via {p.labels[j]}")
                    if strict[j] >> i & 1:
                        raise CheckFailure(f"antisymmetry fails between {p.labels[i]} and {p.labels[j]}")
        return f"axioms hold on {len(p)} labels"

    def check_poset_extremes():
        p = need_poset()
        if p.maximum != top:
            raise CheckFailure(f"maximum is {p.maximum}, expected {top}")
        if p.dim(top) != 2 * group.longest.length + rank:
            raise CheckFailure("maximum has the wrong dimension")
        bottom = OrbitLabel(frozenset(), group.longest, group.identity)
        if p.minimum != bottom or p.dim(bottom) != 0:
            raise CheckFailure(f"minimum is {p.minimum} of dimension {p.dim(p.minimum)}")
        strict = strict_down()
        dims = [dimension(z) for z in p.labels]
        layers = dict.fromkeys(sorted(set(dims), reverse=True), 0)
        for k, d in enumerate(dims):
            layers[d] |= 1 << k
        at_least = dict(zip(layers, accumulate(layers.values(), or_)))  # labels of dimension >= d, per d
        for i, s in enumerate(strict):
            if s & at_least[dims[i]]:
                j = next(j for j in OrbitPoset._bits(s) if dims[j] >= dims[i])
                raise CheckFailure(f"dimension does not drop from {p.labels[i]} to {p.labels[j]}")
        # the layered covers rely on the dimension drop asserted just above; the flat ones use no dimension
        covers = flat_covers()
        if covers != p.cover_pairs():
            raise CheckFailure("cover pairs differ from the flat transitive reduction")
        drops = Counter(dims[i] - dims[j] for i, j in covers)
        return f"extremes ok; cover drops {dict(sorted(drops.items()))}"

    def check_closure_crosscheck():
        p = need_poset()
        labels, down = p.labels, p.down_masks()
        sample = _stride(range(len(p)), QUADRATIC_LIMIT if len(p) <= QUADRATIC_LIMIT else 100)
        for i1 in sample:
            z1 = labels[i1]
            for i2 in sample:
                # the poset's bit of z1 in the down-set of z2, against the witness loop
                if closure_leq(z1, labels[i2]) != down[i2] >> i1 & 1:
                    raise CheckFailure(f"direct criterion and poset disagree on {z1} <= {labels[i2]}")
        note = "all labels" if len(sample) == len(p) else f"{len(sample)} of {len(p)} labels"
        return f"{len(sample) ** 2} comparisons, {note}"

    def check_stratum_slices():
        p = need_poset()
        zs = _stride(p.labels, ORBIT_SAMPLE * 5)
        slices = 0
        for z in zs:
            zmask = p.down_mask(z)
            for size in range(len(z.stratum) + 1):
                for sub in combinations(sorted(z.stratum), size):
                    target = frozenset(sub)
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

    def check_basis_counts():
        flag_stratum = OrbitLabel(frozenset(), group.identity, group.longest)
        kept, skipped = within_budget(candidate_total, COUNT_BUDGET, "counting")
        for lam, expected in kept.items():
            got = len(basis_indices(top, lam))
            if got != expected:
                raise CheckFailure(f"{got} indices on the full space at {lam}, expected {expected}")
            closed_expected = pair_count(group, lam)
            closed_got = len(basis_indices(flag_stratum, lam))
            if closed_got != closed_expected:
                raise CheckFailure(
                    f"{closed_got} indices on the closed stratum at {lam}, expected {closed_expected}"
                )
        return counted("weights", len(kept), skipped)

    def check_graded_tables():
        p = need_poset()
        zs = _stride(p.labels, ORBIT_SAMPLE)
        kept, skipped = within_budget(candidate_total, CANDIDATE_BUDGET, "candidate")
        # every basis index is a candidate of its weight, so the candidates' classes cover its class
        position: dict[tuple[int, int], int] = {}
        # id(pair) -> its class's bit, given once per candidate shape; every pair stays in generate_pairs' memo
        bit_of: dict[int, int] = {}
        for mu in dict.fromkeys(mu for lam in kept for mu, _ in shapes_below(group, lam)):
            for pair, ab in zip(generate_pairs(group, mu), pair_directions(group, mu)):
                bit_of[id(pair)] = 1 << position.setdefault(ab, len(position))
        masks = component_masks(zs, position)

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
        return counted("weights", len(kept), skipped) + f" on {len(zs)} labels"

    def check_index_monotonicity():
        p = need_poset()
        kept, skipped = within_budget(candidate_total, CANDIDATE_BUDGET, "candidate")
        # a candidate pair below lam is standard exactly when its class (support, a, b) is;
        # classes do not depend on lam, so the relation is walked once over their union
        classes: dict[tuple, int] = {}
        of_weight = {}  # each weight's classes as a bitmask, read only to name a failing weight
        for lam in kept:
            bits = 0
            for mu, nvec in shapes_below(group, lam):
                supp = support(nvec)
                for a, b in pair_directions(group, mu):
                    bits |= 1 << classes.setdefault((supp, a, b), len(classes))
            of_weight[lam] = bits
        masks = class_masks(p.labels, classes)
        # in a strict order a chain of flat covers joins every related pair, so the covers decide every
        # relation bit; a relation that is no order goes straight to the bit-by-bit scan below
        if not strict_order() or any(masks[j] & ~masks[i] for i, j in flat_covers()):
            # name the first larger closure, and the first label below it, that a label-by-label scan meets
            for i2, s in enumerate(strict_down()):
                outside = ~masks[i2]
                i1 = next((i1 for i1 in OrbitPoset._bits(s) if masks[i1] & outside), None)
                if i1 is not None:
                    lam = next(lam for lam, bits in of_weight.items() if bits & masks[i1] & outside)
                    raise CheckFailure(f"basis of {p.labels[i1]} escapes the larger closure {p.labels[i2]} at {lam}")
        return counted("weights", len(kept), skipped)

    def check_nonstandard_locus():
        p = need_poset()
        full = (1 << len(p)) - 1
        shapes, _ = within_budget(lambda mu: pair_count(group, mu), SHAPE_PAIR_BUDGET, "pair")
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
        table = b"".join(mask_bytes(m, n) for m in component_masks(p.labels, reps))
        for k, pair in enumerate(reps.values()):
            locus = full & ~mask_from_bytes(table[k::n])
            comps = nonstandard_components(pair, p)
            if reduce(or_, map(p.down_mask, comps), 0) != locus:
                raise CheckFailure(f"nonstandard locus at shape {pair.mu} is not the union of its components")
            for c1, c2 in combinations(comps, 2):
                if p.leq(c1, c2) or p.leq(c2, c1):
                    raise CheckFailure(f"nonstandard components at shape {pair.mu} are not an antichain")
        return f"{pairs_seen} pairs over {len(shapes)} shapes"

    def check_standard_intersection():
        p = need_poset()
        labels, index, down, strict = p.labels, p.index, p.down_masks(), strict_down()
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
        shapes, _ = within_budget(lambda mu: pair_count(group, mu), SHAPE_PAIR_BUDGET, "pair")
        # a class's standardness does not depend on the shape, so the shapes' classes are read as one union
        of_shape = [dict.fromkeys(pair_directions(group, mu)) for mu in shapes]
        position = {ab: k for k, ab in enumerate(dict.fromkeys(ab for classes in of_shape for ab in classes))}
        relevant = list(dict.fromkeys(sample + [i for _, _, at in meets for i in at]))
        masks = class_masks([labels[i] for i in relevant], [(frozenset(), a, b) for a, b in position])
        std = dict(zip(relevant, masks))
        off = [std[i1] & std[i2] ^ reduce(or_, map(std.__getitem__, at), 0) for i1, i2, at in meets]
        if any(off):
            # name the first shape and meet of a shape-by-shape scan
            for mu, classes in zip(shapes, of_shape):
                bits = reduce(or_, (1 << position[ab] for ab in classes))
                for (i1, i2, _), o in zip(meets, off):
                    if o & bits:
                        raise CheckFailure(
                            f"pairs standard on both {labels[i1]} and {labels[i2]} differ from their intersection"
                            f" at shape {mu}"
                        )
        note = "all labels" if len(sample) == len(p) else f"{len(sample)} of {len(p)} labels"
        return f"{len(meets)} meets ({note}), {len(shapes)} shapes"

    checks = [
        ("root-data", check_root_data),
        ("group-order", check_group_order),
        ("coset-structure", check_coset_structure),
        ("dominance-order", check_dominance_order),
        ("path-count", check_path_count),
        ("path-endpoints", check_path_endpoints),
        ("path-demazure", check_path_demazure),
        ("orbit-census", check_orbit_census),
        ("poset-axioms", check_poset_axioms),
        ("poset-extremes", check_poset_extremes),
        ("closure-crosscheck", check_closure_crosscheck),
        ("stratum-slices", check_stratum_slices),
        ("basis-counts", check_basis_counts),
        ("graded-tables", check_graded_tables),
        ("index-monotonicity", check_index_monotonicity),
        ("nonstandard-locus", check_nonstandard_locus),
        ("standard-intersection", check_standard_intersection),
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
