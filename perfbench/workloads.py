"""The four benchmark workloads: inputs drawn from a seed, timed steps, checks.

Each workload builds its inputs through the public API only, then exposes a
list of steps.  A step is one call sequence the measured process times on its
own; a "query" step also feeds the latency percentiles, a "phase" step (a
poset build, a CLI dump) is timed inside run_s but kept out of them.  After
the timed phase every step result is checked, against an independent oracle
where one exists and otherwise against the digests in reference.json, which
were computed once from the package as it stood when the benchmark was added
(see make_reference.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

REFERENCE = Path(__file__).resolve().parent / "reference.json"

BASIS_GROUP = "A3"
BASIS_WEIGHT = (1, 1, 1)
BASIS_QUERIES = 900

# {0,1}-weights of the rank 4 types and small weights of G2, B3 and C3, each
# with Weyl dimension at most 800 (101 weights, 13 to 21 per group).  The cap
# keeps one process near five seconds while F4 still contributes its
# 1152-element scans in initial_direction.
PATH_WEIGHTS = {
    "A4": "0001 0010 0011 0100 0101 0110 0111 1000 1001 1010 1011 1100 1101 1110",
    "B4": "0001 0010 0011 0100 0101 1000 1001 1010 1100",
    "C4": "0001 0010 0100 0101 0110 1000 1001 1010 1100",
    "D4": "0001 0010 0011 0100 0101 0110 1000 1001 1010 1011 1100",
    "F4": "0001 0010 1000",
    "G2": "01 02 03 04 10 11 12 20 21 22 30 31 40",
    "B3": "001 002 003 010 011 012 020 021 100 101 102 103 110 111 120 200 201 202 210 300 301",
    "C3": "001 002 003 010 011 012 020 021 030 100 101 102 110 111 120 200 201 210 300 301 310",
}

POSET_GROUP = "B3"
POSET_LABELS = 7056
POSET_COVERS = 47161
POSET_QUERIES = 6000
POSET_POOL = 12000
POSET_POOL_SEED = 20051
POSET_CLI = ["poset", "--group", "A3", "--full-order"]

VERIFY_GROUPS = ("A2", "B2", "G2")
VERIFY_SUMMARY = "17 checks: 17 passed, 0 failed, 0 skipped"


@dataclass
class Step:
    key: str
    query: bool
    run: Callable[[], Any]


def digest(lines) -> str:
    """A short hash of text lines; reference.json stores these."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:20]


def words(values) -> str:
    return " ".join(str(v) for v in values)


def label_key(z) -> str:
    """An orbit label in the command line syntax, from public attributes."""
    return f"I={','.join(str(i) for i in sorted(z.stratum))};x={z.x.word_str};w={z.w.word_str}"


def all_labels(wm, group) -> list:
    return [wm.OrbitLabel(I, x, w) for I in group.subsets() for x in group.min_coset_reps(I) for w in group.elements]


def run_cli(wm_cli, argv) -> tuple[int, str]:
    """Call the command line entry point in process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wm_cli.main(list(argv))
    return code, buf.getvalue()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


class BasisA3:
    """Orbit-major standardness: basis and graded counts of 900 A3 orbits at (1,1,1).

    The seed picks 898 labels from all 1800 and shuffles them with two fixed
    oracle orbits: the open orbit [{1,2,3},e,w0] (count = sum over dominant mu
    below lam of dim mu * dim mu*) and [{},e,w0], whose closure is the closed
    stratum (count = dim lam * dim lam*).
    """

    def __init__(self, wm, seed: int):
        self.wm = wm
        self.group = wm.weyl_group(BASIS_GROUP)
        g = self.group
        self.top = wm.OrbitLabel(frozenset(range(1, g.rank + 1)), g.identity, g.longest)
        self.closed = wm.OrbitLabel(frozenset(), g.identity, g.longest)
        others = [z for z in all_labels(wm, g) if z != self.top and z != self.closed]
        rng = random.Random(seed)
        chosen = rng.sample(others, BASIS_QUERIES - 2) + [self.top, self.closed]
        rng.shuffle(chosen)
        self.steps = [Step(label_key(z), True, self.query(z)) for z in chosen]
        self._path_text: dict[int, str] = {}

    def query(self, z):
        wm = self.wm
        return lambda: (wm.basis_indices(z, BASIS_WEIGHT), wm.graded_counts(z, BASIS_WEIGHT))

    def begin_checks(self, reference) -> None:
        wm, g = self.wm, self.group
        rs = g.rs
        self.ref = reference["basis-a3"]
        self.expected = {
            label_key(self.top): sum(
                wm.weyl_dim(rs, mu) * wm.weyl_dim(rs, g.dual_weight(mu))
                for mu, _ in wm.dominant_below(rs, BASIS_WEIGHT)
            ),
            label_key(self.closed): wm.weyl_dim(rs, BASIS_WEIGHT) * wm.weyl_dim(rs, g.dual_weight(BASIS_WEIGHT)),
        }

    def _path(self, p) -> str:
        got = self._path_text.get(id(p))
        if got is None:
            got = f"{self.wm.initial_direction(self.group, p).word_str}/{words(p.endpoint())}"
            self._path_text[id(p)] = got
        return got

    def check(self, step: Step, result) -> str | None:
        basis, table = result
        if table.total() != len(basis):
            return f"graded total {table.total()} != {len(basis)} indices"
        want = self.expected.get(step.key)
        if want is not None and len(basis) != want:
            return f"{len(basis)} indices, oracle gives {want}"
        return None if self.digest_of(result) == self.ref[step.key] else "basis digest differs from reference"

    def digest_of(self, result) -> str:
        basis, table = result
        lines = [f"{d}:{c}" for d, c in table.rows]
        head = {}  # one line prefix per (exponents, shape), shared by many indices
        for i in basis:
            key = (i.powers, i.mu)
            if key not in head:
                head[key] = f"{words(i.powers)}|{words(i.mu)}|"
            lines.append(head[key] + self._path(i.pair.left) + "|" + self._path(i.pair.right))
        return digest(lines)


def path_queries() -> list[tuple[str, tuple[int, ...]]]:
    return [(name, tuple(int(c) for c in w)) for name, ws in PATH_WEIGHTS.items() for w in ws.split()]


def path_key(name: str, lam) -> str:
    return f"{name} {words(lam)}"


class PathsRank4:
    """Path models of 101 weights, in seed order, as the `paths` command builds them."""

    def __init__(self, wm, seed: int):
        self.wm = wm
        self.groups = {name: wm.weyl_group(name) for name in PATH_WEIGHTS}
        queries = path_queries()
        random.Random(seed).shuffle(queries)
        self.steps = [Step(path_key(name, lam), True, self._query(self.groups[name], lam)) for name, lam in queries]

    def _query(self, group, lam):
        wm = self.wm

        def run():
            paths = wm.generate_paths(group.rs, lam)
            return paths, [wm.initial_direction(group, p) for p in paths], [p.endpoint() for p in paths]

        return run

    def begin_checks(self, reference) -> None:
        self.ref = reference["paths-rank4"]

    def check(self, step: Step, result) -> str | None:
        paths, dirs, ends = result
        name, *coords = step.key.split()
        lam = tuple(int(c) for c in coords)
        dim = self.wm.weyl_dim(self.groups[name].rs, lam)
        if len(paths) != dim:
            return f"{len(paths)} paths, Weyl dimension {dim}"
        return None if self.digest_of(result) == self.ref[step.key] else "path digest differs from reference"

    @staticmethod
    def digest_of(result) -> str:
        _, dirs, ends = result
        return digest(f"{d.word_str}/{words(e)}" for d, e in zip(dirs, ends))


def poset_pool(n_labels: int) -> list[tuple[int, int]]:
    """The fixed pool of label index pairs that point queries are drawn from."""
    rng = random.Random(POSET_POOL_SEED)
    return [(rng.randrange(n_labels), rng.randrange(n_labels)) for _ in range(POSET_POOL)]


def meet_digest(components, leq: bool) -> str:
    return digest([str(leq)] + sorted(label_key(c) for c in components))


def cover_digest(pairs) -> str:
    return digest(f"{i} {j}" for i, j in sorted(pairs))


class PosetB3:
    """The B3 orbit poset: build and covers, 6000 point queries, then an A3 full-order dump.

    The build passes max_labels itself so the work stays fixed when the
    default envelope moves.  Queries draw label pairs from a fixed pool; each
    asks meet_components and leq of the same pair.
    """

    def __init__(self, wm, seed: int):
        import wondermono.cli as wm_cli

        self.wm, self.cli = wm, wm_cli
        self.group = wm.weyl_group(POSET_GROUP)
        pool = list(enumerate(poset_pool(POSET_LABELS)))
        picked = random.Random(seed).sample(pool, POSET_QUERIES)
        self.poset = None
        self.steps = [Step("build", False, self.build), Step("covers", False, lambda: self.poset.cover_pairs())]
        self.steps += [Step(f"pair {k}", True, self.query(i, j)) for k, (i, j) in picked]
        self.steps.append(Step("cli", False, lambda: run_cli(self.cli, POSET_CLI)))

    def build(self):
        self.poset = self.wm.build_poset(self.group, max_labels=POSET_LABELS)
        return self.poset

    def query(self, i, j):
        def run():
            z1, z2 = self.poset.labels[i], self.poset.labels[j]
            return self.poset.meet_components(z1, z2), self.poset.leq(z1, z2)

        return run

    def begin_checks(self, reference) -> None:
        self.ref = reference["poset-b3"]

    def check(self, step: Step, result) -> str | None:
        ref = self.ref
        if step.key == "build":
            return None if len(result) == POSET_LABELS else f"{len(result)} labels, expected {POSET_LABELS}"
        if step.key == "covers":
            if len(result) != POSET_COVERS:
                return f"{len(result)} covers, expected {POSET_COVERS}"
            return None if cover_digest(result) == ref["covers"] else "cover digest differs"
        if step.key == "cli":
            code, text = result
            if code != 0:
                return f"exit code {code}"
            return None if digest([text]) == ref["cli"] else "poset JSON differs from reference"
        k = int(step.key.split()[1])
        return None if meet_digest(*result) == ref["pairs"][k] else "meet/leq differs from reference"


class VerifyRank2:
    """`verify --max-weight 2` on A2, B2 and G2, in seed order."""

    def __init__(self, wm, seed: int):
        import wondermono.cli as wm_cli

        self.cli = wm_cli
        groups = list(VERIFY_GROUPS)
        random.Random(seed).shuffle(groups)
        self.steps = [Step(g, True, self._query(g)) for g in groups]

    def _query(self, g):
        return lambda: run_cli(self.cli, ["verify", "--group", g, "--max-weight", "2"])

    def begin_checks(self, reference) -> None:
        self.ref = reference["verify-rank2"]

    def check(self, step: Step, result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        if text.rstrip("\n").rsplit("\n", 1)[-1] != VERIFY_SUMMARY:
            return f"summary is not {VERIFY_SUMMARY!r}"
        return None if text == self.ref[step.key] else "check lines differ from reference"


WORKLOADS = {
    "basis-a3": BasisA3,
    "paths-rank4": PathsRank4,
    "poset-b3": PosetB3,
    "verify-rank2": VerifyRank2,
}
