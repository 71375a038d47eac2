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
from itertools import chain, compress

from .demazure import weyl_dim
from .monomials import basis_indices, candidate_count, pair_count
from .orbits import OrbitLabel, OrbitPoset, build_poset, mask_bytes
from .paths import generate_paths, initial_direction, pair_weight
from .rootsys import RootSystem, RootSystemError, from_name, is_dominant
from .verify import run_suite
from .weyl import WeylElement, WeylGroup

CONVENTIONS = {
    "numbering": "bourbaki",
    "weight_coordinates": "fundamental",
    "words": "space separated simple reflections s1..sl, e for the identity",
}

# requests are sized before anything is enumerated.  Measured in process
# (Python 3.11, one core of a shared 2-CPU Xeon): paths on B4 (2,1,0,1), 9,504
# paths, takes 1.4-1.5 s as JSON and 0.47-0.48 s with --count-only; monomials on
# the open orbit of B3 at (0,2,0), 77,415 candidate pairs, takes 4.3-4.7 s as
# JSON and 0.3 s with --count-only.  Either budget is a few seconds of work.
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


def _json_doc(group_name: str, key: str, payload) -> str:
    doc = {"group": group_name, "generator_conventions": CONVENTIONS, key: payload}
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _ints(values) -> str:
    return " ".join(str(v) for v in values)


# -- poset ------------------------------------------------------------------


def _orbit_entry(poset: OrbitPoset, z: OrbitLabel) -> dict:
    return {
        "I": sorted(z.stratum),
        "x": z.x.word_str,
        "w": z.w.word_str,
        "dim": poset.dim(z),
    }


def _poset_dot(poset: OrbitPoset) -> str:
    lines = ["digraph orbits {", "  rankdir=BT;"]
    for k, z in enumerate(poset.labels):
        lines.append(f'  z{k} [label="{z} dim {poset.dim(z)}"];')
    for upper, lower in sorted(poset.cover_pairs()):
        lines.append(f"  z{lower} -> z{upper};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _relation_json(poset: OrbitPoset):
    """The strict order as json.dumps(indent=2) writes the sorted [j, i] pairs (j below i) at depth 1, in chunks.

    Row i of an n-by-n 0/1 byte matrix is the strict down-set of label i, so
    column j, read as rows[j::n], marks the labels above j in ascending order
    and the pairs come out sorted without a sort.  One chunk is yielded per
    column with pairs, then the closing bracket, so the text (166 MB at the
    7,056-label cap) is never held whole; the matrix takes n^2 bytes, about
    50 MB at the cap.
    """
    n = len(poset)
    rows = bytearray(n * n)  # filled in place: a join would hold every row twice
    for i, mask in enumerate(poset.down_masks()):
        rows[i * n : (i + 1) * n] = mask_bytes(mask & ~(1 << i), n)
    tails = [f"      {i}\n    ]" for i in range(n)]
    sep = "[\n"
    for j in range(n):
        above = list(compress(tails, rows[j::n]))
        if above:
            head = f"    [\n      {j},\n"
            yield sep + head + (",\n" + head).join(above)
            sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


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
        payload = {
            "orbits": [_orbit_entry(poset, z) for z in poset.labels],
            "covers": [[upper, lower] for upper, lower in sorted(poset.cover_pairs())],
        }
        doc = {"group": group.rs.name, "generator_conventions": CONVENTIONS}
        doc.update(payload)
        text = json.dumps(doc, indent=2)
        if args.full_order:
            # the relation is the last key, streamed directly: json.dumps of about 1M pairs is most of the time
            _write(args.out, chain([text[: -len("\n}")] + ',\n  "relation": '], _relation_json(poset), ["\n}\n"]))
        else:
            _write(args.out, [text + "\n"])
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
    _check_budget(f"the number of paths of {lam} on {rs.name} is", weyl_dim(rs, lam), PATH_BUDGET)
    paths = generate_paths(rs, lam)
    if args.count_only:
        _write(args.out, [f"{len(paths)}\n"])
        return 0
    if args.format == "json":
        payload = [
            {
                "segments": [
                    {"direction": list(d), "duration": str(t)} for d, t in p.segments
                ],
                "endpoint": list(p.endpoint()),
                "initial": initial_direction(group, p).word_str,
            }
            for p in paths
        ]
        _write(args.out, [_json_doc(rs.name, "paths", payload)])
    elif args.format == "csv":
        rows = [
            [
                initial_direction(group, p).word_str,
                _ints(p.endpoint()),
                ";".join(f"{_ints(d)}:{t}" for d, t in p.segments),
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
    entries = []
    for idx in indices:
        wl, wr = pair_weight(idx.pair)
        entries.append(
            {
                "n": list(idx.powers),
                "mu": list(idx.mu),
                "left": initial_direction(group, idx.pair.left).word_str,
                "right": initial_direction(group, idx.pair.right).word_str,
                "weight_left": list(wl),
                "weight_right": list(wr),
            }
        )
    if args.format == "json":
        _write(args.out, [_json_doc(rs.name, "monomials", entries)])
    elif args.format == "csv":
        rows = [
            [
                _ints(e["n"]),
                _ints(e["mu"]),
                e["left"],
                e["right"],
                _ints(e["weight_left"]),
                _ints(e["weight_right"]),
            ]
            for e in entries
        ]
        _write(
            args.out,
            [_csv_text(["n", "mu", "left", "right", "weight_left", "weight_right"], rows)],
        )
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
