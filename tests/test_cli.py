from __future__ import annotations

import errno
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import group_of, poset_of

from wondermono import cli, monomials
from wondermono.cli import main
from wondermono.monomials import basis_indices
from wondermono.orbits import OrbitLabel, build_poset
from wondermono.paths import generate_paths, initial_direction
from wondermono.rootsys import dominant_weight, from_name
from wondermono.verify import run_suite


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_poset_json(capsys):
    rc, out, err = run(capsys, "poset", "--group", "A1")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["group"] == "A1"
    assert doc["generator_conventions"]["numbering"] == "bourbaki"
    assert set(doc["generator_conventions"]) == {"numbering", "weight_coordinates", "words"}
    assert len(doc["orbits"]) == 6
    assert doc["orbits"][0] == {"I": [], "x": "e", "w": "e", "dim": 1}
    assert doc["orbits"][-1] == {"I": [1], "x": "e", "w": "s1", "dim": 3}
    assert len(doc["covers"]) == 8
    dims = [entry["dim"] for entry in doc["orbits"]]
    for upper, lower in doc["covers"]:
        assert dims[upper] == dims[lower] + 1


def test_poset_full_order(capsys):
    rc, out, _ = run(capsys, "poset", "--group", "A1", "--full-order")
    assert rc == 0
    doc = json.loads(out)
    relation = [tuple(pair) for pair in doc["relation"]]
    assert len(relation) == 13
    assert len(set(relation)) == 13
    covers = {(lower, upper) for upper, lower in doc["covers"]}
    assert covers <= set(relation)
    # strict order: transitive and irreflexive
    rel = set(relation)
    for a, b in rel:
        assert a != b
        for c, d in rel:
            if b == c:
                assert (a, d) in rel


def test_poset_full_order_a2_bytes_frozen(capsys):
    rc, out, err = run(capsys, "poset", "--group", "A2", "--full-order")
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == "5be4058159396133015931a1a170dd93d324bc903a3295d424d01be621929f17"


def test_poset_full_order_a3_matches_benchmark_reference(capsys):
    # read-only: the benchmark's digest of the same command, the first 20 hex digits of its sha256
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text(encoding="utf-8"))["poset-b3"]["cli"]
    rc, out, err = run(capsys, "poset", "--group", "A3", "--full-order")
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest()[:20] == expected


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (("--group", "B2"), "390949ed6406ab0ade9436b69be9177cfe94d92cc7c13fcd89083a0625ef7220"),
        (("--group", "G2", "--full-order"), "a9e1de56663073107ca3e40433dc1bd02bb624ce6cf82a5270df48ffec694c20"),
    ],
)
def test_poset_json_bytes_frozen(capsys, argv, sha256):
    rc, out, err = run(capsys, "poset", *argv)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_poset_json_covers_ascending(capsys):
    # covers are written in cover_pairs' own order, which is already ascending: upper index, then lower
    pairs = poset_of("B2").cover_pairs()
    assert pairs == sorted(set(pairs))
    rc, out, _ = run(capsys, "poset", "--group", "B2")
    assert rc == 0
    assert [tuple(pair) for pair in json.loads(out)["covers"]] == pairs


def test_poset_csv(capsys):
    rc, out, _ = run(capsys, "poset", "--group", "A1", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "I,x,w,dim"
    assert len(lines) == 7
    assert ",s1,e,0" in lines
    assert "1,e,s1,3" in lines


def test_poset_dot(capsys):
    rc, out, _ = run(capsys, "poset", "--group", "A1", "--format", "dot")
    assert rc == 0
    assert out.startswith("digraph orbits {")
    assert "rankdir=BT;" in out
    assert out.count("->") == 8
    assert '[label="[{},s1,e] dim 0"]' in out


def test_poset_count_only(capsys):
    rc, out, _ = run(capsys, "poset", "--group", "B2", "--count-only")
    assert rc == 0
    assert out == "136\n"


def test_poset_envelope_rejection(capsys):
    rc, out, err = run(capsys, "poset", "--group", "A4")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert "64920" in err and "7056" in err


def test_paths_json(capsys):
    rc, out, _ = run(capsys, "paths", "--group", "A1", "--weight", "2")
    assert rc == 0
    doc = json.loads(out)
    assert [p["endpoint"] for p in doc["paths"]] == [[0], [-2], [2]]
    assert [p["initial"] for p in doc["paths"]] == ["s1", "s1", "e"]
    halved = doc["paths"][0]["segments"]
    assert halved == [
        {"direction": [-2], "duration": "1/2"},
        {"direction": [2], "duration": "1/2"},
    ]


def test_paths_csv_and_count(capsys):
    rc, out, _ = run(capsys, "paths", "--group", "A1", "--weight", "2", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "initial,endpoint,segments"
    assert len(lines) == 4
    rc, out, _ = run(capsys, "paths", "--group", "G2", "--weight", "1 0", "--count-only")
    assert rc == 0
    assert out == "7\n"


@pytest.mark.parametrize(
    "fmt, sha256",
    [
        ("json", "1dc789af153a39360a18d2a9a432c780a12a4db8df0c450af4f2f7e7c4851857"),
        ("csv", "34977740240431396b65cd98d9b0492d8acfe7072d49967d4d35bbd039084ae9"),
    ],
)
def test_paths_g2_bytes_frozen(capsys, fmt, sha256):
    # G2 (2,1) has durations 1/7, 3/28 and 3/20: the duration strings come from integer numerators
    rc, out, err = run(capsys, "paths", "--group", "G2", "--weight", "2 1", "--format", fmt)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_paths_b3_json_bytes_frozen(capsys):
    # rank 3: endpoints and directions are three-coordinate lists, nested two levels deeper than the document
    rc, out, err = run(capsys, "paths", "--group", "B3", "--weight", "1 0 1")
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == "d637faea9deaab7fad528f4f5f6ff759069079761a7160bf1f3f507056f1ad5c"


def test_monomials_csv_frozen(capsys):
    rc, out, _ = run(
        capsys,
        "monomials",
        "--group",
        "A1",
        "--weight",
        "2",
        "--orbit",
        "I=1;x=e;w=e",
        "--format",
        "csv",
    )
    assert rc == 0
    assert out.splitlines() == [
        "n,mu,left,right,weight_left,weight_right",
        "0,2,s1,e,0,-2",
        "0,2,s1,e,2,-2",
        "0,2,e,s1,-2,0",
        "0,2,e,s1,-2,2",
        "0,2,e,e,-2,-2",
        "1,0,e,e,0,0",
    ]


MONOMIAL_ORBITS = {
    "B2": ("2 1", "I=1;x=s2;w=s1 s2"),
    "A3": ("1 1 1", "I=1,3;x=s2;w=s1 s3 s2"),
}


@pytest.mark.parametrize(
    "group, fmt, sha256",
    [
        ("B2", "json", "b772315741b42ae52c68ac1c9d3f477b2c7625518f7a08ed04f8d05e211e86d5"),
        ("B2", "csv", "fbce47b253f6bb8e86a78361fbca9ef8964153dc8a223650ae84f1eb709cc02f"),
        ("A3", "json", "d3196e3b6529b306724b477f2937acdf7ef2184c72f468ae9e032b2a2286d7c6"),
        ("A3", "csv", "0753afc937f78aa97c64452e31a6d12e20d672ca88c1d27039578708635b00f6"),
    ],
)
def test_monomials_bytes_frozen(capsys, group, fmt, sha256):
    weight, orbit = MONOMIAL_ORBITS[group]
    rc, out, err = run(
        capsys, "monomials", "--group", group, "--weight", weight, "--orbit", orbit, "--format", fmt
    )
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_monomials_g2_open_orbit_json_bytes_frozen(capsys):
    rc, out, err = run(capsys, "monomials", "--group", "G2", "--weight", "1 1", "--orbit", "I=1,2;x=e;w=w0")
    assert rc == 0 and err == ""
    assert len(json.loads(out)["monomials"]) == 5071
    assert hashlib.sha256(out.encode()).hexdigest() == "a983a725a028d00cdec1d640cab2de06d1269f70e39929710b253b0799190a8d"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_monomials_reads_each_path_once(capsys, monkeypatch, fmt):
    # a path lies in many indices; its initial direction is computed once, not once per index
    seen = []

    def counting(group, path):
        seen.append(path)
        return initial_direction(group, path)

    monkeypatch.setattr(cli, "initial_direction", counting)
    weight, orbit = MONOMIAL_ORBITS["A3"]
    rc, out, _ = run(capsys, "monomials", "--group", "A3", "--weight", weight, "--orbit", orbit, "--format", fmt)
    assert rc == 0 and out
    assert seen and len(seen) == len(set(seen))


def test_monomials_json_count(capsys):
    rc, out, _ = run(
        capsys,
        "monomials",
        "--group",
        "A2",
        "--weight",
        "1 1",
        "--orbit",
        "I=1;x=s2;w=w0",
    )
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["monomials"]) == 40
    rc, out, _ = run(
        capsys,
        "monomials",
        "--group",
        "A1",
        "--weight",
        "2",
        "--orbit",
        "I=1;x=e;w=w0",
        "--count-only",
    )
    assert rc == 0
    assert out == "10\n"


def test_bad_inputs(capsys):
    cases = [
        ("poset", "--group", "D3"),
        ("poset", "--group", "E6"),
        ("paths", "--group", "A2", "--weight", "1 -1"),
        ("paths", "--group", "A2", "--weight", "1 2 3"),
        ("monomials", "--group", "A2", "--weight", "1 1", "--orbit", "I=1;x=s1;w=e"),
        ("monomials", "--group", "A2", "--weight", "1 1", "--orbit", "I=1;x=e"),
        ("monomials", "--group", "A2", "--weight", "1 1", "--orbit", "I=9;x=e;w=e"),
        ("poset",),
        ("poset", "--group", "A2", "--format", "yaml"),
    ]
    for argv in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 1, argv
        assert out == ""
        assert err.startswith("error:"), (argv, err)


# rootsys.from_name words every refusal, with the name as typed, not upper-cased.  Sharp s plus a digit
# is a letter and a rank, so it is refused as a type letter, which its upper case "SS" is not either
GROUP_NAME_REFUSALS = {
    name: f"malformed group name {name!r}, expected letter plus rank like A2"
    for name in ("A\u00b2", "A\u0662", "a\u00b2")
} | {"\u00df2": "unknown type letter '\u00df' (expected one of A B C D F G)"}


@pytest.mark.parametrize("name", list(GROUP_NAME_REFUSALS))
@pytest.mark.parametrize("argv", [("paths", "--weight", "1 0", "--count-only"), ("verify",)], ids=["paths", "verify"])
def test_group_name_takes_ascii_digits_only(capsys, argv, name):
    rc, out, err = run(capsys, argv[0], "--group", name, *argv[1:])
    assert (rc, out) == (1, "")
    assert err == f"error: {GROUP_NAME_REFUSALS[name]}\n"


# each kind of refusal, with the call whose ValueError words it: the library's own, or the CLI's envelope
@pytest.mark.parametrize(
    "argv, refuse",
    [
        (("paths", "--group", "Q2", "--weight", "1"), lambda: from_name("Q2")),
        (("paths", "--group", "A2", "--weight", "1 2 3"), lambda: dominant_weight(from_name("A2"), (1, 2, 3))),
        (("paths", "--group", "A2", "--weight", "1,-1"), lambda: dominant_weight(from_name("A2"), (1, -1))),
        (
            ("monomials", "--group", "A2", "--weight", "1 1", "--orbit", "I=;x=s3;w=e"),
            lambda: group_of("A2").from_word((3,)),
        ),
        (
            ("monomials", "--group", "A2", "--weight", "1 1", "--orbit", "I=1;x=s1;w=e"),
            lambda: OrbitLabel({1}, group_of("A2").from_word((1,)), group_of("A2").identity),
        ),
        (("poset", "--group", "F4", "--count-only"), lambda: build_poset(group_of("F4"))),
        # V(3 rho) has dimension 4 ** N, N = 16 positive roots of B4
        (
            ("paths", "--group", "B4", "--weight", "3 3 3 3"),
            lambda: cli._check_budget("the number of paths of (3, 3, 3, 3) on B4 is", 4**16, cli.PATH_BUDGET),
        ),
        (("verify", "--group", "F4", "--max-weight", "10"), lambda: run_suite("F", 4, 10)),
        (("verify", "--group", "A2", "--max-weight", "-1"), lambda: run_suite("A", 2, -1)),
    ],
    ids=[
        "group-name",
        "weight-length",
        "non-dominant-weight",
        "word",
        "orbit-label",
        "poset-cap",
        "paths-envelope",
        "grid-budget",
        "negative-max-weight",
    ],
)
def test_every_refusal_is_one_error_line(capsys, argv, refuse):
    with pytest.raises(ValueError) as refusal:
        refuse()
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (1, "", f"error: {refusal.value}\n")
    assert err.count("\n") == 1


MONOMIALS_A2 = ("monomials", "--group", "A2", "--weight", "1 1", "--orbit")


# the refusals the command line words itself, before the library sees an input; a row that is no refusal
# expects the bytes of an equal input: an empty orbit field is skipped, and a max weight's sign and blanks read
@pytest.mark.parametrize(
    "argv, expected",
    [
        (("paths", "--group", "A2", "--weight", "1 x"), "malformed weight '1 x'"),
        ((*MONOMIALS_A2, "I=1;x=t1;w=e"), "malformed word token 't1', expected s1..s2"),
        ((*MONOMIALS_A2, "I=1;x;w=e"), "malformed orbit field 'x', expected key=value"),
        ((*MONOMIALS_A2, "I=a;x=e;w=e"), "malformed stratum 'a'"),
        ((*MONOMIALS_A2, "I=1,2;;x=e;w=w0"), (*MONOMIALS_A2, "I=1,2;x=e;w=w0")),
        # a number is an optional sign and ASCII digits: int() alone also takes underscores and any Unicode digit
        (("paths", "--group", "A2", "--weight", "1_0 0"), "malformed weight '1_0 0'"),
        (("paths", "--group", "A2", "--weight", "\u0661 0"), "malformed weight '\u0661 0'"),
        ((*MONOMIALS_A2, "I=\u0661;x=e;w=e"), "malformed stratum '\u0661'"),
        ((*MONOMIALS_A2, "I=1;x=e;w=s\u0661"), "malformed word token 's\u0661', expected s1..s2"),
        ((*MONOMIALS_A2, "I=1;x=e;w=s\u00b2"), "malformed word token 's\u00b2', expected s1..s2"),
        (("verify", "--group", "A2", "--max-weight", "1_0"), "malformed max weight '1_0'"),
        (("verify", "--group", "A2", "--max-weight", "\u0661"), "malformed max weight '\u0661'"),
        (("verify", "--group", "A1", "--max-weight", " +1 "), ("verify", "--group", "A1", "--max-weight", "1")),
        # an orbit spec names each of I, x and w once
        ((*MONOMIALS_A2, "I=1;I=2;x=e;w=e"), "malformed orbit field 'I=2', expected each of I, x and w once"),
        ((*MONOMIALS_A2, "I=1,2;x=e;w=e;q=1"), "malformed orbit field 'q=1', expected each of I, x and w once"),
    ],
    ids=[
        "weight",
        "word-token",
        "orbit-field",
        "stratum",
        "empty-orbit-field",
        "weight-underscore",
        "weight-arabic-indic-digit",
        "stratum-arabic-indic-digit",
        "word-arabic-indic-digit",
        "word-superscript-digit",
        "max-weight-underscore",
        "max-weight-arabic-indic-digit",
        "max-weight-sign-and-blanks",
        "orbit-repeated-field",
        "orbit-unknown-field",
    ],
)
def test_the_command_lines_own_parse_refusals(capsys, argv, expected):
    got = run(capsys, *argv)
    if isinstance(expected, str):
        assert got == (1, "", f"error: {expected}\n")
    else:
        assert got == run(capsys, *expected) and got[0] == 0 and got[1]


def test_an_error_that_is_no_refusal_is_not_caught(monkeypatch):
    def broken(group):
        raise TypeError("a fault, not a refusal")

    monkeypatch.setattr(cli, "build_poset", broken)
    with pytest.raises(TypeError, match="a fault, not a refusal"):
        main(["poset", "--group", "A2"])


def test_paths_over_budget_rejected_before_enumeration(capsys):
    rc, out, err = run(capsys, "paths", "--group", "F4", "--weight", "2 2 2 2")
    assert rc == 1 and out == ""
    assert "282429536481" in err and "(10000)" in err


def test_paths_count_only_has_no_budget(capsys):
    # a count builds no path, so the path budget does not apply: F4 (1,1,1,1) has 2**24 paths
    rc, out, err = run(capsys, "paths", "--group", "F4", "--weight", "1 1 1 1", "--count-only")
    assert (rc, out, err) == (0, "16777216\n", "")


def test_paths_count_only_builds_no_path(capsys, monkeypatch):
    # the count is the Weyl dimension; the path model is never built
    def refuse(*args):
        raise AssertionError("generate_paths called for a count")

    monkeypatch.setattr(cli, "generate_paths", refuse)
    rc, out, err = run(capsys, "paths", "--group", "B4", "--weight", "2 1 0 1", "--count-only")
    assert (rc, out, err) == (0, "9504\n", "")


@pytest.mark.parametrize("name, weight", [("A2", "2 1"), ("B3", "1 0 1"), ("G2", "1 1")])
def test_paths_count_only_is_the_model_size(capsys, name, weight):
    rc, out, _ = run(capsys, "paths", "--group", name, "--weight", weight, "--count-only")
    assert rc == 0 and out == f"{len(generate_paths(from_name(name), tuple(map(int, weight.split()))))}\n"


def test_monomials_count_only_builds_no_index(capsys, monkeypatch):
    # the count is the graded table's total; the basis indices are never built
    def refuse(*args):
        raise AssertionError("basis_indices called for a count")

    monkeypatch.setattr(cli, "basis_indices", refuse)
    rc, out, err = run(capsys, "monomials", "--group", "A1", "--weight", "2", "--orbit", "I=1;x=e;w=w0", "--count-only")
    assert (rc, out, err) == (0, "10\n", "")


def test_monomials_count_only_answers_past_the_pair_budget(capsys):
    # 138,384 candidate pairs, over the pair budget, but 1,244 paths: a count builds paths and no pair
    orbit = "I=1,2,3;x=e;w=w0"
    rc, out, err = run(capsys, "monomials", "--group", "A3", "--weight", "2 1 2", "--orbit", orbit, "--count-only")
    assert (rc, out, err) == (0, "138384\n", "")
    assert len(basis_indices(cli._orbit(orbit, group_of("A3")), (2, 1, 2))) == 138384


def test_monomials_over_budget_rejected_before_enumeration(capsys, monkeypatch):
    # the shape lam alone is over budget: refused before the shapes below it are listed
    rc, out, err = run(capsys, "monomials", "--group", "B4", "--weight", "3 3 3 3", "--orbit", "I=;x=e;w=e")
    assert rc == 1 and out == ""
    assert "at least 18446744073709551616" in err and "(100000)" in err
    # a count is sized in paths: dim V(3 rho) = 4 ** 16 on B4, refused before dominant_below lists any shape
    with monkeypatch.context() as patched:
        patched.setattr(monomials, "dominant_below", lambda *args: pytest.fail("dominant_below called"))
        rc, out, err = run(
            capsys, "monomials", "--group", "B4", "--weight", "3 3 3 3", "--orbit", "I=;x=e;w=e", "--count-only"
        )
    assert (rc, out) == (1, "")
    assert err == (
        "error: the number of paths below (3, 3, 3, 3) on B4 is at least 4294967296, beyond the supported envelope"
        " (10000)\n"
    )
    # a count builds paths, not pairs: the shape lam alone is 825 paths, within the path budget, but the
    # sum over all admissible shapes and their duals is over it
    rc, out, err = run(
        capsys, "monomials", "--group", "A3", "--weight", "4 0 4", "--orbit", "I=1,2,3;x=e;w=w0", "--count-only"
    )
    assert (rc, out) == (1, "")
    assert err == "error: the number of paths below (4, 0, 4) on A3 is 10414, beyond the supported envelope (10000)\n"
    # the closed stratum admits only the shape lam itself, which fits
    rc, out, _ = run(
        capsys, "monomials", "--group", "A3", "--weight", "2 1 2", "--orbit", "I=;x=e;w=w0", "--count-only"
    )
    assert rc == 0 and int(out) > 0


def test_verify_clean(capsys):
    rc, out, err = run(capsys, "verify", "--group", "A1", "--max-weight", "2")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 18
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert lines[-1] == "17 checks: 17 passed, 0 failed, 0 skipped"


def test_verify_timings_go_to_stderr_only(capsys):
    rc, plain, err = run(capsys, "verify", "--group", "A2", "--max-weight", "1")
    assert (rc, err) == (0, "")
    rc, out, err = run(capsys, "verify", "--group", "A2", "--max-weight", "1", "--timings")
    assert rc == 0 and out == plain
    lines = err.splitlines()
    assert len(lines) == 17
    names = [line.split("] ")[1].split(":")[0] for line in plain.splitlines()[:-1]]
    assert [line.split(" ")[0] for line in lines] == names
    assert all(float(line.split(" ")[1]) >= 0 for line in lines)


def test_verify_rejects_negative_max_weight(capsys):
    rc, out, err = run(capsys, "verify", "--group", "A2", "--max-weight", "-1")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "-1" in err
    with pytest.raises(ValueError, match="-1"):
        run_suite("A", 2, -1)


def test_verify_skips_oversized_poset(capsys):
    rc, out, _ = run(capsys, "verify", "--group", "A4", "--max-weight", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "17 checks: 8 passed, 0 failed, 9 skipped"
    assert sum(1 for line in lines if line.startswith("[SKIP]")) == 9
    assert any("beyond the supported envelope" in line for line in lines)


def test_verify_runs_every_check_on_b3(capsys):
    rc, out, _ = run(capsys, "verify", "--group", "B3", "--max-weight", "1")
    assert rc == 0
    assert out.splitlines()[-1] == "17 checks: 17 passed, 0 failed, 0 skipped"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "poset.json"
    rc, out, _ = run(capsys, "poset", "--group", "A1", "--out", str(target))
    assert rc == 0
    assert out == ""
    rc, out, _ = run(capsys, "poset", "--group", "A1")
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize(
    "argv",
    [("poset", "--group", "A1"), ("paths", "--group", "A1", "--weight", "1"), ("verify", "--group", "A1")],
    ids=["poset", "paths", "verify"],
)
def test_out_path_that_cannot_be_opened_is_one_error_line(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x"
    rc, out, err = run(capsys, *argv, "--out", str(target))
    assert (rc, out, err) == (1, "", f"error: cannot write {target}: {os.strerror(errno.ENOENT)}\n")


@pytest.mark.parametrize("argv", [("poset", "--group", "A1"), ("verify", "--group", "B3")], ids=["poset", "verify"])
def test_an_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args):
        raise AssertionError("work done before --out was checked")

    monkeypatch.setattr(cli, "build_poset", no_work)
    monkeypatch.setattr(cli, "run_suite", no_work)
    target = tmp_path / "missing" / "x"
    rc, out, err = run(capsys, *argv, "--out", str(target))
    assert (rc, out, err) == (1, "", f"error: cannot write {target}: {os.strerror(errno.ENOENT)}\n")
    rc, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert (rc, out, err) == (1, "", f"error: cannot write {tmp_path}: {os.strerror(errno.EISDIR)}\n")


def test_a_refused_request_leaves_its_out_as_it_was(tmp_path, capsys):
    target = tmp_path / "x"
    rc, out, err = run(capsys, "paths", "--group", "A2", "--weight", "1 -1", "--out", str(target))
    assert (rc, out, err) == (1, "", "error: weight (1, -1) is not dominant\n")
    assert list(tmp_path.iterdir()) == []
    target.write_text("kept", encoding="utf-8")
    rc, _, _ = run(capsys, "paths", "--group", "A2", "--weight", "1 -1", "--out", str(target))
    assert rc == 1 and target.read_text(encoding="utf-8") == "kept"


def test_a_named_pipe_out_is_opened_once(tmp_path):
    # a probe that opened and closed the pipe would end the reader's input, and the real open would then wait forever
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "wondermono", "poset", "--group", "A1", "--count-only", "--out", str(fifo)]
    done = subprocess.run(argv, capture_output=True, timeout=60, env=env)
    reader.join(timeout=60)
    assert (done.returncode, done.stdout, done.stderr, got) == (0, b"", b"", [b"6\n"])


def test_a_closed_pipe_ends_with_exit_1_and_nothing_on_stderr():
    # the child imports the same copy of the package as this process; its stdout is far more than the 100 bytes read
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "wondermono", "poset", "--group", "A3", "--full-order"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        err = child.stderr.read()
        rc = child.wait(timeout=120)
    assert (rc, err) == (1, b"")


def test_full_order_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "relation.json"
    rc, out, err = run(capsys, "poset", "--group", "A2", "--full-order", "--out", str(target))
    assert (rc, out, err) == (0, "", "")
    rc, out, _ = run(capsys, "poset", "--group", "A2", "--full-order")
    assert rc == 0
    assert target.read_bytes() == out.encode()


def test_repeat_runs_identical(capsys):
    _, first, _ = run(capsys, "monomials", "--group", "A2", "--weight", "1 1", "--orbit", "I=1,2;x=e;w=w0")
    _, second, _ = run(capsys, "monomials", "--group", "A2", "--weight", "1 1", "--orbit", "I=1,2;x=e;w=w0")
    assert first == second
