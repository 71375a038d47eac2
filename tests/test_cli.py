from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from wondermono.cli import main
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


def test_paths_over_budget_rejected_before_enumeration(capsys):
    rc, out, err = run(capsys, "paths", "--group", "F4", "--weight", "2 2 2 2", "--count-only")
    assert rc == 1 and out == ""
    assert "282429536481" in err and "(10000)" in err


def test_monomials_over_budget_rejected_before_enumeration(capsys):
    # the shape lam alone is over budget: refused before the shapes below it are listed
    rc, out, err = run(capsys, "monomials", "--group", "B4", "--weight", "3 3 3 3", "--orbit", "I=;x=e;w=e")
    assert rc == 1 and out == ""
    assert "at least 18446744073709551616" in err and "(100000)" in err
    # the sum over all admissible shapes is over budget
    rc, out, err = run(
        capsys, "monomials", "--group", "A3", "--weight", "2 1 2", "--orbit", "I=1,2,3;x=e;w=w0", "--count-only"
    )
    assert rc == 1 and out == ""
    assert "is 138384" in err
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
