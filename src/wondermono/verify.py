"""Cross-checking suite behind the command line verifier.

Every check recomputes one fact along two routes that share as little code
as possible and compares the outcomes.  The suite adapts to the requested
group and weight bound; work that would blow past the built-in budgets is
skipped and reported as skipped, never silently dropped.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

from .demazure import char_dim, demazure_character, weyl_dim
from .monomials import (
    basis_indices,
    candidate_count,
    directions_standard_on_components,
    graded_counts,
    has_schubert_sections,
    nonstandard_components,
    pair_count,
    shapes_below,
    standard_rows,
)
from .orbits import (
    OrbitLabel,
    OrbitPoset,
    build_poset,
    closure_leq,
    dimension,
    schubert_pairs,
    stratum_components,
)
from .paths import generate_pairs, generate_paths, initial_direction, pair_directions
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


def _flat_covers(down: list[int]) -> list[tuple[int, int]]:
    """Transitive reduction by clearing every strict down-set below each label.

    The reference for OrbitPoset.cover_pairs: one AND-NOT per relation bit,
    with no use of orbit dimension.
    """
    covers = []
    for i, mask in enumerate(down):
        strict = mask & ~(1 << i)
        keep = strict
        for j in OrbitPoset._bits(strict):
            keep &= ~(down[j] & ~(1 << j))
        covers.extend((i, j) for j in OrbitPoset._bits(keep))
    return covers


@dataclass
class CheckResult:
    name: str
    status: str
    detail: str = ""

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

    def candidate_total(lam) -> float:
        # sizing the candidates runs dominant_below, so an over-budget box is over every budget
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

    def class_masks(labels, classes) -> list[int]:
        """Each label's bitmask over (support, a, b) classes: bit k when class k is standard there."""
        masks = []
        for z in labels:
            rows = standard_rows(z)
            m = 0
            for k, (supp, a, b) in enumerate(classes):
                if supp <= z.stratum and rows[a] >> b & 1:
                    m |= 1 << k
            masks.append(m)
        return masks

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
        for lam in kept:
            for mu, nvec in shapes_below(group, lam):
                if not is_dominant(mu):
                    raise CheckFailure(f"dominant_below({lam}) produced non-dominant {mu}")
                if root_combination(rs, nvec) != sub_weights(lam, mu):
                    raise CheckFailure(f"exponents {nvec} do not connect {lam} to {mu}")
                if dominance_diff(rs, lam, mu) != nvec:
                    raise CheckFailure(f"dominance_diff disagrees at {lam} -> {mu}")
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
        return counted("weights", len(kept), skipped)

    def check_path_endpoints():
        kept, skipped = path_grid()
        for lam in kept:
            seen = Counter(p.endpoint() for p in generate_paths(rs, lam))
            char = demazure_character(group, group.longest, lam)
            if seen != char:
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
        down = p.down_masks()
        for i in range(len(p)):
            if not down[i] >> i & 1:
                raise CheckFailure(f"not reflexive at {p.labels[i]}")
            for j in OrbitPoset._bits(down[i] & ~(1 << i)):
                if down[j] & ~down[i]:
                    raise CheckFailure(f"transitivity fails under {p.labels[i]} via {p.labels[j]}")
                if down[j] >> i & 1:
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
        down = p.down_masks()
        dims = [dimension(z) for z in p.labels]
        for i in range(len(p)):
            for j in OrbitPoset._bits(down[i] & ~(1 << i)):
                if dims[j] >= dims[i]:
                    raise CheckFailure(f"dimension does not drop from {p.labels[i]} to {p.labels[j]}")
        # the layered covers rely on the dimension drop asserted just above
        covers = _flat_covers(down)
        if covers != p.cover_pairs():
            raise CheckFailure("cover pairs differ from the flat transitive reduction")
        drops = Counter(dims[i] - dims[j] for i, j in covers)
        return f"extremes ok; cover drops {dict(sorted(drops.items()))}"

    def check_closure_crosscheck():
        p = need_poset()
        sample = _stride(p.labels, QUADRATIC_LIMIT if len(p) <= QUADRATIC_LIMIT else 100)
        for z1 in sample:
            for z2 in sample:
                if closure_leq(z1, z2) != p.leq(z1, z2):
                    raise CheckFailure(f"direct criterion and poset disagree on {z1} <= {z2}")
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
                        got = {(sp.left, sp.right) for sp in schubert_pairs(z)}
                        if want != got:
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
        admitted = {}  # (component, shape) of every admitting component, in the order found
        kept, skipped = within_budget(candidate_total, CANDIDATE_BUDGET, "candidate")
        for lam in kept:
            for z in zs:
                basis = basis_indices(z, lam)
                table = graded_counts(z, lam)
                if table.total() != len(basis):
                    raise CheckFailure(f"graded total differs from basis size on {z} at {lam}")
                degrees = [d for d, _ in table.rows]
                if degrees != list(range(len(degrees))):
                    raise CheckFailure(f"graded rows of {z} at {lam} are not contiguous from zero")
                recount = Counter(idx.degree for idx in basis)
                for d, count in table.rows:
                    if recount.get(d, 0) != count:
                        raise CheckFailure(f"graded row {d} of {z} at {lam} miscounts")
                # the component scan depends on an index only through its class (a, b, mu)
                comps = schubert_pairs(z)
                classes = dict.fromkeys(
                    (initial_direction(group, idx.pair.left), initial_direction(group, idx.pair.right), idx.mu)
                    for idx in basis
                )
                for a, b, mu in classes:
                    admitting = [c for c in comps if group.bruhat_leq(a, c.left) and group.bruhat_leq(b, c.right)]
                    if not admitting:
                        raise CheckFailure(f"a basis index of {z} at {lam} lies under no component")
                    admitted.update(dict.fromkeys((c, mu) for c in admitting))
        # the section tests depend only on (component, shape)
        for comp, mu in admitted:
            if not has_schubert_sections(comp.right, mu):
                raise CheckFailure(f"section test fails on {comp} at shape {mu}")
            if not has_schubert_sections(comp.left, group.dual_weight(mu)):
                raise CheckFailure(f"dual section test fails on {comp} at shape {mu}")
        return counted("weights", len(kept), skipped) + f" on {len(zs)} labels"

    def check_index_monotonicity():
        p = need_poset()
        down = p.down_masks()
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
        for i2 in range(len(p)):
            outside = ~masks[i2]
            for i1 in OrbitPoset._bits(down[i2] & ~(1 << i2)):
                if masks[i1] & outside:
                    lam = next(lam for lam, bits in of_weight.items() if bits & masks[i1] & outside)
                    raise CheckFailure(
                        f"basis of {p.labels[i1]} escapes the larger closure {p.labels[i2]} at {lam}"
                    )
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
        # the reference route scans components; nonstandard_components reads the closure order
        label_comps = [schubert_pairs(z) for z in p.labels]
        for (a, b), pair in reps.items():
            left, right = group.elements[a], group.elements[b]
            std = 0
            for k, comps in enumerate(label_comps):
                if directions_standard_on_components(group, left, right, comps):
                    std |= 1 << k
            locus = full & ~std
            comps = nonstandard_components(pair, p)
            union = 0
            for c in comps:
                union |= p.down_mask(c)
            if union != locus:
                raise CheckFailure(f"nonstandard locus at shape {pair.mu} is not the union of its components")
            for c1, c2 in combinations(comps, 2):
                if p.leq(c1, c2) or p.leq(c2, c1):
                    raise CheckFailure(f"nonstandard components at shape {pair.mu} are not an antichain")
        return f"{pairs_seen} pairs over {len(shapes)} shapes"

    def check_standard_intersection():
        p = need_poset()
        sample = _stride(p.labels, MEET_SAMPLE)
        meets = []
        for a, z1 in enumerate(sample):
            for z2 in sample[a:]:
                comps = p.meet_components(z1, z2)
                for c in comps:
                    if not (p.leq(c, z1) and p.leq(c, z2)):
                        raise CheckFailure(f"meet component {c} not below both {z1} and {z2}")
                for c1, c2 in combinations(comps, 2):
                    if p.leq(c1, c2) or p.leq(c2, c1):
                        raise CheckFailure(f"meet components of {z1}, {z2} are not an antichain")
                meets.append((z1, z2, comps))
        shapes, _ = within_budget(lambda mu: pair_count(group, mu), SHAPE_PAIR_BUDGET, "pair")
        relevant = list(dict.fromkeys(sample + [c for _, _, comps in meets for c in comps]))
        for mu in shapes:
            classes = [(frozenset(), a, b) for a, b in dict.fromkeys(pair_directions(group, mu))]
            std = dict(zip(relevant, class_masks(relevant, classes)))
            for z1, z2, comps in meets:
                lhs = std[z1] & std[z2]
                rhs = 0
                for c in comps:
                    rhs |= std[c]
                if lhs != rhs:
                    raise CheckFailure(
                        f"pairs standard on both {z1} and {z2} differ from their intersection at shape {mu}"
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
        try:
            detail = fn()
        except CheckFailure as exc:
            results.append(CheckResult(name, "fail", str(exc)))
        except SkipCheck as exc:
            results.append(CheckResult(name, "skip", str(exc)))
        except Exception as exc:  # pragma: no cover - a check crashed outright
            results.append(CheckResult(name, "fail", f"unexpected {type(exc).__name__}: {exc}"))
        else:
            results.append(CheckResult(name, "pass", detail or ""))
    return results
