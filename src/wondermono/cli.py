"""Command line interface.

Four subcommands: poset, paths, monomials, verify.  Output is deterministic
byte for byte, weights are always fundamental-weight coordinate arrays, and
group elements appear as canonical reduced words like "s1 s2".  Exit codes:
0 success, 1 bad input or unsupported request, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import cache, partial
from itertools import compress, groupby
from operator import itemgetter

from .demazure import weyl_dim
from .monomials import basis_indices, candidate_count, pair_count
from .orbits import OrbitLabel, OrbitPoset, build_poset, mask_bytes
from .paths import generate_paths, initial_direction
from .rootsys import RootSystem, RootSystemError, from_name, is_dominant, orbit_table
from .verify import run_suite
from .weyl import WeylElement, WeylGroup

CONVENTIONS = {
    "numbering": "bourbaki",
    "weight_coordinates": "fundamental",
    "words": "space separated simple reflections s1..sl, e for the identity",
}

# requests are sized before anything is enumerated.  Measured in process
# (Python 3.11, one core of a shared 2-CPU Xeon): paths on B4 (2,1,0,1), 9,504
# paths, takes 0.36-0.50 s as JSON, 0.41-0.61 s as CSV and 0.29-0.42 s with
# --count-only; monomials on the open orbit of B3 at (0,2,0), 77,415 candidate
# pairs, takes 0.17-0.19 s as JSON, 0.19-0.20 s as CSV and 0.08-0.10 s with
# --count-only.  Either budget is under a second of work.
PATH_BUDGET = 10_000
PAIR_BUDGET = 100_000


class CLIError(Exception):
    pass


def _check_budget(what: str, size: int, budget: int) -> None:
    if size > budget:
        raise CLIError(f"{what} {size}, beyond the supported envelope ({budget})")


class _Parser(argparse.ArgumentParser):
    # argparse reserves status 2 for usage errors; route them to status 1
    def error(self, message):
        raise CLIError(message)


def _parse_group_name(name: str) -> tuple[str, int]:
    name = name.strip().upper()
    if len(name) < 2 or not name[1:].isdigit():
        raise CLIError(f"malformed group name {name!r}, expected letter plus rank like A2")
    return name[0], int(name[1:])


def _group(name: str) -> WeylGroup:
    letter, rank = _parse_group_name(name)
    try:
        return WeylGroup(from_name(f"{letter}{rank}"))
    except RootSystemError as exc:
        raise CLIError(str(exc)) from exc


def _weight(text: str, rs: RootSystem) -> tuple[int, ...]:
    toks = text.replace(",", " ").split()
    try:
        lam = tuple(int(t) for t in toks)
    except ValueError as exc:
        raise CLIError(f"malformed weight {text!r}") from exc
    if len(lam) != rs.rank:
        raise CLIError(f"weight {text!r} has {len(lam)} coordinates, rank is {rs.rank}")
    if not is_dominant(lam):
        raise CLIError(f"weight {lam} is not dominant")
    return lam


def _word(text: str, group: WeylGroup) -> WeylElement:
    text = text.strip()
    if text in ("", "e"):
        return group.identity
    if text == "w0":
        return group.longest
    letters = []
    for tok in text.replace(",", " ").split():
        if not (tok.startswith("s") and tok[1:].isdigit()):
            raise CLIError(f"malformed word token {tok!r}, expected s1..s{group.rank}")
        letters.append(int(tok[1:]))
    try:
        return group.from_word(tuple(letters))
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _orbit(text: str, group: WeylGroup) -> OrbitLabel:
    fields = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep:
            raise CLIError(f"malformed orbit field {chunk!r}, expected key=value")
        fields[key.strip()] = value.strip()
    missing = {"I", "x", "w"} - set(fields)
    if missing:
        raise CLIError(f"orbit spec is missing {sorted(missing)}, expected I=..;x=..;w=..")
    try:
        stratum = frozenset(int(t) for t in fields["I"].replace(",", " ").split())
    except ValueError as exc:
        raise CLIError(f"malformed stratum {fields['I']!r}") from exc
    x = _word(fields["x"], group)
    w = _word(fields["w"], group)
    try:
        return OrbitLabel(stratum, x, w)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _write(out: str | None, chunks) -> None:
    """Write the text chunks in order to the file out, or to stdout when out is None."""
    with nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


def _json_doc(group_name: str, fields: dict):
    """The indent-2 JSON document of fields, headed by the group and conventions, as chunks for _write.

    Each field's value is given as chunks already rendered at depth 1, as
    _json_list gives them, and is never held whole; only the small head goes
    through json.dumps, whose indent runs the pure-Python encoder.
    """
    head = json.dumps({"group": group_name, "generator_conventions": CONVENTIONS}, indent=2)
    yield head.removesuffix("\n}")
    for key, chunks in fields.items():
        yield f",\n  {json.dumps(key)}: "
        yield from chunks
    yield "\n}\n"


def _json_list(items):
    """A list at depth 1 as json.dumps(indent=2) writes it, in chunks: items are its entries rendered at depth 2."""
    sep = "[\n"
    for item in items:
        yield sep + item
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


def _json_value(value, depth: int) -> str:
    """value as json.dumps(indent=2) writes it nested depth levels deep: a leaf rendered once and reused."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _json_words(group: WeylGroup) -> list[str]:
    """The JSON string of each element's word, by element index."""
    return [json.dumps(el.word_str) for el in group.elements]


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _ints(values) -> str:
    return " ".join(str(v) for v in values)


# -- poset ------------------------------------------------------------------


def _orbit_entries(poset: OrbitPoset):
    """Each label's JSON object at depth 2; each stratum and word is rendered once."""
    strata = {I: _json_value(sorted(I), 3) for I in poset.group.subsets()}
    words = _json_words(poset.group)
    for z in poset.labels:
        yield (
            f'    {{\n      "I": {strata[z.stratum]},\n      "x": {words[z.x.index]},\n'
            f'      "w": {words[z.w.index]},\n      "dim": {poset.dim(z)}\n    }}'
        )


def _pair_parts(n: int) -> tuple[list[str], list[str]]:
    """heads[a] + tails[b] is the JSON pair [a, b] at depth 2, for a and b below n."""
    return [f"    [\n      {a},\n" for a in range(n)], [f"      {b}\n    ]" for b in range(n)]


def _poset_dot(poset: OrbitPoset) -> str:
    lines = ["digraph orbits {", "  rankdir=BT;"]
    for k, z in enumerate(poset.labels):
        lines.append(f'  z{k} [label="{z} dim {poset.dim(z)}"];')
    for upper, lower in poset.cover_pairs():
        lines.append(f"  z{lower} -> z{upper};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _relation_columns(poset: OrbitPoset, heads: list[str], tails: list[str]):
    """The sorted [j, i] pairs (j below i) of the strict order at depth 2, one chunk of pairs per column j.

    Row i of an n-by-n 0/1 byte matrix is the strict down-set of label i, so
    column j, read as rows[j::n], marks the labels above j in ascending order
    and the pairs come out sorted without a sort.  A column's pairs are one
    chunk, so the text (166 MB at the 7,056-label cap) is never held whole;
    the matrix takes n^2 bytes, about 50 MB at the cap.
    """
    n = len(poset)
    rows = bytearray(n * n)  # filled in place: a join would hold every row twice
    for i, mask in enumerate(poset.down_masks()):
        rows[i * n : (i + 1) * n] = mask_bytes(mask & ~(1 << i), n)
    for j in range(n):
        pairs = (",\n" + heads[j]).join(compress(tails, rows[j::n]))
        if pairs:
            yield heads[j] + pairs


def cmd_poset(args) -> int:
    group = _group(args.group)
    try:
        poset = build_poset(group)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    if args.count_only:
        _write(args.out, [f"{len(poset)}\n"])
        return 0
    if args.format == "json":
        heads, tails = _pair_parts(len(poset))
        fields = {
            "orbits": _json_list(_orbit_entries(poset)),
            "covers": _json_list(heads[upper] + tails[lower] for upper, lower in poset.cover_pairs()),
        }
        if args.full_order:
            fields["relation"] = _json_list(_relation_columns(poset, heads, tails))
        _write(args.out, _json_doc(group.rs.name, fields))
    elif args.format == "csv":
        rows = [
            [_ints(sorted(z.stratum)), z.x.word_str, z.w.word_str, poset.dim(z)]
            for z in poset.labels
        ]
        _write(args.out, [_csv_text(["I", "x", "w", "dim"], rows)])
    elif args.format == "dot":
        _write(args.out, [_poset_dot(poset)])
    return 0


# -- paths ------------------------------------------------------------------


def cmd_paths(args) -> int:
    group = _group(args.group)
    rs = group.rs
    lam = _weight(args.weight, rs)
    count = weyl_dim(rs, lam)
    _check_budget(f"the number of paths of {lam} on {rs.name} is", count, PATH_BUDGET)
    if args.count_only:
        # the path model has one path per weight of V(lam), counted with multiplicity: none is built
        _write(args.out, [f"{count}\n"])
        return 0
    paths = generate_paths(rs, lam)
    # a duration, steps[k] / den, is rendered once per distinct pair of ints
    duration = cache(lambda s, den: str(Fraction(s, den)))
    if args.format == "json":
        # each orbit point (direction), endpoint and word is rendered once
        directions = {d: _json_value(d, 5) for d in orbit_table(rs, lam).points}
        ends = {e: _json_value(e, 3) for e in {p.endpoint() for p in paths}}
        words = _json_words(group)

        def entry(p):
            segments = ",\n".join(
                f'        {{\n          "direction": {directions[d]},\n'
                f'          "duration": "{duration(s, p.den)}"\n        }}'
                for d, s in zip(p.dirs, p.steps)
            )
            return (
                f'    {{\n      "segments": [\n{segments}\n      ],\n      "endpoint": {ends[p.endpoint()]},\n'
                f'      "initial": {words[initial_direction(group, p).index]}\n    }}'
            )

        _write(args.out, _json_doc(rs.name, {"paths": _json_list(map(entry, paths))}))
    elif args.format == "csv":
        rows = [
            [
                initial_direction(group, p).word_str,
                _ints(p.endpoint()),
                ";".join(f"{_ints(d)}:{duration(s, p.den)}" for d, s in zip(p.dirs, p.steps)),
            ]
            for p in paths
        ]
        _write(args.out, [_csv_text(["initial", "endpoint", "segments"], rows)])
    return 0


# -- monomials --------------------------------------------------------------


def cmd_monomials(args) -> int:
    group = _group(args.group)
    rs = group.rs
    lam = _weight(args.weight, rs)
    z = _orbit(args.orbit, group)
    # the pairs of shape lam alone bound the search over the shapes below it
    # before that search runs, so a huge weight is refused at once
    what = f"the number of candidate pairs of {lam} on {rs.name} is"
    top = pair_count(group, lam)
    _check_budget(f"{what} at least", top, PAIR_BUDGET)
    _check_budget(what, candidate_count(z, lam), PAIR_BUDGET)
    indices = basis_indices(z, lam)
    if args.count_only:
        _write(args.out, [f"{len(indices)}\n"])
        return 0
    # a path lies in many indices and an (n, mu) heads a block of them: each is rendered once.
    # Indices share their path objects, so a path is keyed by identity
    paths = {id(p): p for idx in indices for p in (idx.pair.left, idx.pair.right)}
    if args.format == "json":
        words, weight = _json_words(group), partial(_json_value, depth=3)
    else:
        words, weight = [el.word_str for el in group.elements], _ints
    read = {
        k: (words[initial_direction(group, p).index], weight([-c for c in p.endpoint()])) for k, p in paths.items()
    }

    def rows():
        for (n, mu), block in groupby(indices, itemgetter(0, 1)):
            n_text, mu_text = weight(n), weight(mu)
            for idx in block:
                (a, wl), (b, wr) = read[id(idx.pair.left)], read[id(idx.pair.right)]
                yield n_text, mu_text, a, b, wl, wr

    if args.format == "json":
        entries = (
            f'    {{\n      "n": {n},\n      "mu": {mu},\n      "left": {a},\n      "right": {b},\n'
            f'      "weight_left": {wl},\n      "weight_right": {wr}\n    }}'
            for n, mu, a, b, wl, wr in rows()
        )
        _write(args.out, _json_doc(rs.name, {"monomials": _json_list(entries)}))
    elif args.format == "csv":
        keys = ("n", "mu", "left", "right", "weight_left", "weight_right")
        _write(args.out, [_csv_text(keys, rows())])
    return 0


# -- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    letter, rank = _parse_group_name(args.group)
    try:
        results = run_suite(letter, rank, args.max_weight)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    lines = []
    for r in results:
        tag = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[r.status]
        line = f"[{tag}] {r.name}"
        if r.detail:
            line += f": {r.detail}"
        lines.append(line)
    counts = {s: sum(1 for r in results if r.status == s) for s in ("pass", "fail", "skip")}
    lines.append(
        f"{len(results)} checks: {counts['pass']} passed, {counts['fail']} failed, {counts['skip']} skipped"
    )
    _write(args.out, ["\n".join(lines) + "\n"])
    if args.timings:
        sys.stderr.write("".join(f"{r.name} {r.seconds:.3f}\n" for r in results))
    return 2 if counts["fail"] else 0


# -- entry point ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wondermono", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats):
        p.add_argument("--group", required=True, help="group name, e.g. A2 or G2")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
        p.add_argument("--count-only", action="store_true", help="print only the count")

    p_poset = sub.add_parser("poset", help="orbit labels and their closure order")
    common(p_poset, ["json", "csv", "dot"])
    p_poset.add_argument(
        "--full-order", action="store_true", help="include the full order relation, not just covers"
    )
    p_poset.set_defaults(func=cmd_poset)

    p_paths = sub.add_parser("paths", help="the path model of one representation")
    common(p_paths, ["json", "csv"])
    p_paths.add_argument("--weight", required=True, help="dominant weight, e.g. '1 0'")
    p_paths.set_defaults(func=cmd_paths)

    p_mono = sub.add_parser("monomials", help="standard monomial basis on one orbit closure")
    common(p_mono, ["json", "csv"])
    p_mono.add_argument("--weight", required=True, help="dominant weight, e.g. '1 0'")
    p_mono.add_argument(
        "--orbit", required=True, help="orbit label, e.g. 'I=1,2;x=e;w=s1 s2' (x minimal, w0 allowed)"
    )
    p_mono.set_defaults(func=cmd_monomials)

    p_verify = sub.add_parser("verify", help="run the internal consistency suite")
    p_verify.add_argument("--group", required=True, help="group name, e.g. A2")
    p_verify.add_argument("--max-weight", type=int, default=1, help="bound on weight coordinates")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument(
        "--timings", action="store_true", help="write each check's wall time in seconds to stderr"
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
