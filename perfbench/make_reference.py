"""Recompute reference.json, the digests the benchmark checks results against.

    python3 perfbench/make_reference.py

It runs every input any seed can draw: all 1800 A3 orbits, all 101 path
weights, the whole B3 query pool, the A3 full-order dump and the three verify
transcripts (about a minute).  The stored file was made once from the package
as it stood when the benchmark was added; regenerate it only for a change
that is meant to alter results, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from workloads import (
    POSET_CLI,
    REFERENCE,
    BasisA3,
    PathsRank4,
    PosetB3,
    VerifyRank2,
    all_labels,
    cover_digest,
    digest,
    label_key,
    meet_digest,
    poset_pool,
    run_cli,
)


def main() -> int:
    from child import SRC

    sys.path.insert(0, str(SRC))
    import wondermono as wm
    import wondermono.cli as wm_cli

    ref = {}
    basis = BasisA3(wm, 0)
    ref["basis-a3"] = {label_key(z): basis.digest_of(basis.query(z)()) for z in all_labels(wm, basis.group)}
    paths = PathsRank4(wm, 0)
    ref["paths-rank4"] = {s.key: paths.digest_of(s.run()) for s in paths.steps}
    poset = PosetB3(wm, 0).build()
    pairs = [(poset.labels[i], poset.labels[j]) for i, j in poset_pool(len(poset))]
    ref["poset-b3"] = {
        "covers": cover_digest(poset.cover_pairs()),
        "pairs": [meet_digest(poset.meet_components(a, b), poset.leq(a, b)) for a, b in pairs],
        "cli": digest([run_cli(wm_cli, POSET_CLI)[1]]),
    }
    ref["verify-rank2"] = {s.key: s.run()[1] for s in VerifyRank2(wm, 0).steps}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
