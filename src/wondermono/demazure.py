"""Demazure operators on characters and the Weyl dimension formula.

Characters are plain dicts from weight tuples to nonzero integer
multiplicities.  These are the independent oracles for counting path
families: dimensions come from the product formula over positive roots,
Demazure characters from the string-sum recursion, never from the paths.
"""

from __future__ import annotations

from operator import mul

from .rootsys import RootSystem, Weight, coroot, integral_weight
from .weyl import WeylElement, WeylGroup

Character = dict[Weight, int]


def apply_demazure(rs: RootSystem, i: int, char: Character) -> Character:
    """One Demazure operator, term by term.

    A term of pairing m >= 0 contributes its full string down to the
    reflection; m = -1 contributes nothing; m < -1 subtracts the interior
    string shifted one step up.
    """
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple root index {i} out of range 1..{rs.rank}")
    alpha = rs.simple_root(i)
    coord = i - 1
    out: Character = {}

    def bump(w: Weight, c: int) -> None:
        new = out.get(w, 0) + c
        if new:
            out[w] = new
        else:
            out.pop(w, None)

    for nu, c in char.items():
        m = nu[coord]
        if m >= 0:
            term = nu
            for _ in range(m + 1):
                bump(term, c)
                term = tuple(x - a for x, a in zip(term, alpha))
        elif m < -1:
            term = tuple(x + a for x, a in zip(nu, alpha))
            for _ in range(-m - 1):
                bump(term, -c)
                term = tuple(x + a for x, a in zip(term, alpha))
    return out


def demazure_character(group: WeylGroup, word, lam: Weight) -> Character:
    """Apply the operator string of a reduced word to e^lam, rightmost first.

    Accepts a WeylElement (its canonical word is used) or an explicit word,
    which must be reduced.
    """
    if isinstance(word, WeylElement):
        word = word.word
    else:
        word = tuple(word)
        if group.from_word(word).length != len(word):
            raise ValueError(f"word {word} is not reduced")
    lam = integral_weight(lam)
    if len(lam) != group.rank:
        raise ValueError("weight length must equal the rank")
    char: Character = {lam: 1}
    for i in reversed(word):
        char = apply_demazure(group.rs, i, char)
    return char


def char_dim(char: Character) -> int:
    """Total multiplicity of a character."""
    return sum(char.values())


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Dimension of the irreducible with highest weight lam, exactly."""
    integral_weight(lam)
    if len(lam) != rs.rank:
        raise ValueError("weight length must equal the rank")
    if any(x < 0 for x in lam):
        raise ValueError(f"weight {lam} is not dominant")
    shifted = tuple(x + 1 for x in lam)
    num = den = 1
    for beta in rs.positive_roots:
        co = coroot(rs, beta)
        num *= sum(map(mul, co, shifted))
        den *= sum(co)  # <rho, beta^vee>, rho being (1, ..., 1)
    dim, rem = divmod(num, den)
    if rem:
        raise ValueError(f"Weyl dimension formula gives {num}/{den} at {lam}, not an integer")
    return dim
