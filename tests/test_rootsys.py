from __future__ import annotations

import ast
import re
from fractions import Fraction
from itertools import product
from operator import mul
from pathlib import Path

import pytest

from conftest import add_weights, group_of, norm_coroot, symmetrizer

from wondermono.demazure import apply_demazure, demazure_character
from wondermono.paths import LSPath, root_lower
from wondermono.rootsys import (
    RootSystemError,
    _invert,
    build,
    dominance_diff,
    dominant_below,
    from_name,
    is_dominant,
    root_combination,
    sub_weights,
    support,
)

VALID = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2),
]

INVALID = [("A", 0), ("A", 5), ("B", 1), ("C", 1), ("D", 2), ("D", 3), ("D", 5), ("E", 6), ("F", 3), ("G", 3), ("H", 2)]


def test_valid_ranks_build():
    for letter, rank in VALID:
        rs = build(letter, rank)
        assert rs.name == f"{letter}{rank}"
        assert len(rs.cartan) == rank
    # the rank is read as rank_weight reads a coordinate: True is 1, so it builds A1, not a system named ATrue
    rs = build("A", True)
    assert (rs.name, rs, type(rs.rank)) == ("A1", build("A", 1), int)


def test_invalid_ranks_rejected():
    for letter, rank in INVALID:
        with pytest.raises(RootSystemError):
            build(letter, rank)
    for rank in (2.0, "2", None, -1):
        with pytest.raises(RootSystemError, match=f"^{re.escape(f'rank must be a positive integer, got {rank!r}')}$"):
            build("A", rank)


def test_from_name():
    assert from_name("g2").name == "G2"
    with pytest.raises(RootSystemError):
        from_name("A")
    with pytest.raises(RootSystemError):
        from_name("2A")


@pytest.mark.parametrize(
    "name, letter", [("x2", "'x'"), ("\u00df2", "'\u00df'"), ("\ufb002", "'\ufb00'"), (" q3 ", "'q'")]
)
def test_from_name_reports_the_letter_as_passed(name, letter):
    # sharp s upper-cases to "SS" and the ligature ff to "FF": neither is the letter passed
    message = f"unknown type letter {letter} (expected one of A B C D F G)"
    with pytest.raises(RootSystemError, match=f"^{re.escape(message)}$"):
        from_name(name)


@pytest.mark.parametrize("name", ["A\u00b2", "A\u0662"])
def test_from_name_takes_ascii_digits_only(name):
    # superscript two passes str.isdigit but not int(); Arabic-Indic two passes both
    # worded as the command line reports it: from_name is its one group-name gate
    message = f"malformed group name {name!r}, expected letter plus rank like A2"
    with pytest.raises(RootSystemError, match=f"^{re.escape(message)}$"):
        from_name(name)


def test_cartan_matrices():
    assert build("A", 2).cartan == ((2, -1), (-1, 2))
    assert build("B", 2).cartan == ((2, -1), (-2, 2))
    assert build("C", 2).cartan == ((2, -2), (-1, 2))
    assert build("G", 2).cartan == ((2, -3), (-1, 2))
    assert build("B", 3).cartan == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert build("C", 3).cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert build("F", 4).cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    )
    assert build("D", 4).cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )


def test_symmetrizer():
    # the oracle's values, from which norm_coroot's (beta, beta) is read
    assert symmetrizer(build("A", 3).cartan) == (1, 1, 1)
    assert symmetrizer(build("B", 2).cartan) == (2, 1)
    assert symmetrizer(build("C", 2).cartan) == (1, 2)
    assert symmetrizer(build("G", 2).cartan) == (1, 3)
    assert symmetrizer(build("B", 3).cartan) == (2, 2, 1)
    assert symmetrizer(build("C", 3).cartan) == (1, 1, 2)


def test_symmetrizer_symmetrizes():
    for letter, rank in VALID:
        rs = build(letter, rank)
        d = symmetrizer(rs.cartan)
        assert min(d) > 0
        for i in range(rank):
            for j in range(rank):
                assert d[i] * rs.cartan[i][j] == d[j] * rs.cartan[j][i]


@pytest.mark.parametrize("letter, rank", VALID)
def test_coroots_match_the_norm_formula(letter, rank):
    # the walk's coroots are the norm formula's 2 beta / (beta, beta), and each pairs to 2 with its root
    rs = build(letter, rank)
    assert rs.coroots == tuple(norm_coroot(rs, beta) for beta in rs.positive_roots)
    for beta, co in zip(rs.positive_roots, rs.coroots):
        assert sum(map(mul, root_combination(rs, beta), co)) == 2


def test_positive_root_counts():
    expected = {
        ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
        ("B", 2): 4, ("B", 3): 9, ("B", 4): 16,
        ("C", 2): 4, ("C", 3): 9, ("C", 4): 16,
        ("D", 4): 12, ("F", 4): 24, ("G", 2): 6,
    }
    for key, count in expected.items():
        rs = build(*key)
        assert len(rs.positive_roots) == count


def test_highest_root_g2():
    rs = build("G", 2)
    assert rs.positive_roots == ((0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2))
    assert (2, 2) not in rs.positive_roots


def test_inverse_cartan():
    # C adjugate = det I, with det > 0 and the adjugate entrywise nonnegative, so the inverse is too
    for letter, rank in VALID:
        rs = build(letter, rank)
        assert rs.det > 0
        for i in range(rank):
            for j in range(rank):
                entry = sum(rs.cartan[i][k] * rs.adjugate[k][j] for k in range(rank))
                assert entry == (rs.det if i == j else 0)
                assert rs.adjugate[i][j] >= 0


def fraction_inverse(mat) -> list[list[Fraction]]:
    """The inverse by Gauss-Jordan elimination over Fraction: each pivot row divided by its pivot."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@pytest.mark.parametrize("letter, rank", VALID)
def test_invert_matches_the_fraction_oracle(letter, rank):
    rs = build(letter, rank)
    det, adj = _invert([list(row) for row in rs.cartan])
    oracle = fraction_inverse(rs.cartan)
    assert [[Fraction(x, det) for x in row] for row in adj] == oracle
    assert [[Fraction(x, rs.det) for x in row] for row in rs.adjugate] == oracle
    assert {type(x) for row in rs.adjugate for x in row} | {type(rs.det)} == {int}


def test_simple_roots_and_rho():
    rs = build("B", 2)
    assert rs.simple_root(1) == (2, -2)
    assert rs.simple_root(2) == (-1, 2)
    assert rs.rho() == (1, 1)
    with pytest.raises(ValueError):
        rs.simple_root(3)


def test_weight_arithmetic():
    assert add_weights((1, 2), (3, -1)) == (4, 1)
    assert sub_weights((1, 2), (3, -1)) == (-2, 3)
    assert is_dominant((0, 0))
    assert not is_dominant((1, -1))


def test_support():
    assert support((0, 2, 0)) == frozenset({2})
    assert support((1, 0, 3)) == frozenset({1, 3})
    assert support((0,)) == frozenset()


def test_root_combination():
    rs = build("A", 2)
    assert root_combination(rs, (1, 0)) == (2, -1)
    assert root_combination(rs, (1, 1)) == (1, 1)


def test_dominance_diff():
    rs = build("A", 2)
    assert dominance_diff(rs, (1, 1), (0, 0)) == (1, 1)
    assert dominance_diff(rs, (1, 1), (1, 1)) == (0, 0)
    assert dominance_diff(rs, (0, 0), (1, 1)) is None
    assert dominance_diff(rs, (1, 0), (0, 1)) is None


def test_dominant_below_frozen():
    rs = build("A", 1)
    assert dominant_below(rs, (2,)) == (((2,), (0,)), ((0,), (1,)))
    rs2 = build("A", 2)
    assert dominant_below(rs2, (1, 1)) == (((1, 1), (0, 0)), ((0, 0), (1, 1)))
    assert dominant_below(rs2, (1, 0)) == (((1, 0), (0, 0)),)


def test_dominant_below_ordering_and_consistency():
    for name, lam in [("B2", (2, 2)), ("G2", (1, 1)), ("A3", (1, 0, 1))]:
        rs = from_name(name)
        entries = dominant_below(rs, lam)
        vectors = [nvec for _, nvec in entries]
        assert vectors == sorted(vectors)
        assert len(set(vectors)) == len(vectors)
        for mu, nvec in entries:
            assert is_dominant(mu)
            assert sub_weights(lam, mu) == root_combination(rs, nvec)


def test_coroot_pairing():
    rs = build("G", 2)
    coroot = dict(zip(rs.positive_roots, rs.coroots))
    # pairing against a simple coroot reads off the fundamental coordinate
    for lam in [(1, 0), (0, 1), (2, 3)]:
        assert sum(map(mul, coroot[(1, 0)], lam)) == lam[0]
        assert sum(map(mul, coroot[(0, 1)], lam)) == lam[1]
    # highest root of G2 is long, its coroot is a short coroot combination
    assert sum(map(mul, coroot[(3, 2)], (1, 0))) == 1
    assert sum(map(mul, coroot[(3, 2)], (0, 1))) == 2


def test_coroot_table():
    rs = build("G", 2)
    coroot = dict(zip(rs.positive_roots, rs.coroots))
    # the long highest root of G2 has coroot alpha_1^vee + 2 alpha_2^vee
    assert coroot[(3, 2)] == (1, 2)
    # (1, 2) is no root of G2, so it has no coroot
    assert len(coroot) == 6 and (1, 2) not in coroot


def test_dominance_diff_roundtrip():
    # every nvec in {0..3}^r and mu in {0..2}^r, on A2, B2, C2, G2 and A3: 2,304 cases
    for name in ["A2", "B2", "C2", "G2", "A3"]:
        rs = from_name(name)
        for nvec, mu in product(product(range(4), repeat=rs.rank), product(range(3), repeat=rs.rank)):
            lam = add_weights(mu, root_combination(rs, nvec))
            assert dominance_diff(rs, lam, mu) == nvec


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wondermono"
REFUSAL_WORDS = ("has a coordinate that is not an integer", "not the rank", "is not dominant")


def refusal_sites(path: Path) -> list[str]:
    """The function (module.name) of each string literal holding a weight refusal's words; docstrings are skipped."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, documented) and node.body and isinstance(node.body[0], ast.Expr)
    }
    sites = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Constant) and isinstance(child.value, str) and id(child) not in docstrings:
                if any(words in child.value for words in REFUSAL_WORDS):
                    sites.append(where)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if named else where)

    visit(tree, path.stem)
    return sites


def test_weight_refusals_are_worded_only_by_the_checkers():
    # rootsys.rank_weight and dominant_weight are the one weight gate, the command line's included: cli._weight
    # only tokenizes before it.  A check copied anywhere else would bring its words.
    sites = [site for path in sorted(PACKAGE.glob("*.py")) for site in refusal_sites(path)]
    assert sorted(set(sites)) == ["rootsys.dominant_weight", "rootsys.rank_weight"]


def _index_calls():
    g = group_of("A2")
    path = LSPath([((1, 0), 1)], (1, 0))
    return {
        "root_lower": (lambda: root_lower(g.rs, 1.0, path), "simple root index 1.0"),
        "simple": (lambda: g.simple(1.0), "simple reflection index 1.0"),
        "from_word-float": (lambda: g.from_word((1.0,)), "generator index 1.0"),
        "from_word-str": (lambda: g.from_word(("1",)), "generator index '1'"),
        "simple_root": (lambda: g.rs.simple_root(1.0), "simple root index 1.0"),
        "apply_demazure": (lambda: apply_demazure(g.rs, 1.0, {(1, 0): 1}), "simple root index 1.0"),
        "demazure_character": (lambda: demazure_character(g, (1.0,), (1, 0)), "generator index 1.0"),
    }


@pytest.mark.parametrize("name", list(_index_calls()))
def test_simple_root_index_that_is_no_int_is_refused(name):
    # 1.0 equals 1 and "1" stands for it: each is read by operator.index, as a weight coordinate is, and refused
    call, shown = _index_calls()[name]
    with pytest.raises(ValueError, match=f"^{re.escape(shown)} is not an integer$"):
        call()


def test_simple_root_index_true_is_one():
    g = group_of("A2")
    assert g.simple(True) is g.simple(1)
    assert g.from_word((True, 2)) is g.from_word((1, 2))
    assert g.rs.simple_root(True) == g.rs.simple_root(1)
    path = LSPath([((1, 0), 1)], (1, 0))
    assert root_lower(g.rs, True, path) == root_lower(g.rs, 1, path)
