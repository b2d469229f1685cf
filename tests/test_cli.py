import hashlib
import io
import json
import tracemalloc
from pathlib import Path

import pytest

from deodhar import chevalley
from deodhar.cli import main
from deodhar.roots import RANK_BOUND
from deodhar.weyl import context, parse_word


GOLDEN = Path(__file__).parent / "golden"
B3_WORD = "3,2,1,2,3,2,1,2,1"
# (t_1 t_2 ... t_16)^16, a 256-letter reduced word of w0 in B_16
B16_W0 = ",".join(map(str, list(range(1, 17)) * 16))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_cells_example(capsys):
    code, out = run(
        capsys, "cells", "--family", "A", "--rank", "2", "--word", "1,2,1", "--end", "e"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mask=000 end=1,2,3 dim=3 affine=0 torus=3"
    assert lines[1] == "mask=101 end=1,2,3 dim=2 affine=1 torus=1"
    assert lines[2].startswith("point count:")


def test_cells_json(capsys):
    code, out = run(
        capsys,
        "cells", "--family", "A", "--rank", "2", "--word", "1,2,1", "--end", "e",
        "--json",
    )
    assert code == 0
    parsed = json.loads(out)
    assert [c["mask"] for c in parsed] == ["000", "101"]


def test_cells_json_digest_rank4(capsys):
    # regression anchor, not a derivation: SHA-256 of the --json output on
    # the rank-4 catalog word (1,253 masks), as the command wrote it when
    # cell() built each descriptor
    code, out = run(capsys, "cells", "--word", "4,3,2,1,2,3,4,3,2,1,2,3", "--json")
    assert code == 0
    assert len(json.loads(out)) == 1253
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "857fe88983bbed4a8d87be97f05f1c6bb7915674c26e253527f67eda93e58f17"
    )


def test_distinguished_example(capsys):
    code, out = run(capsys, "distinguished", "--word", "1,2,1", "--mask", "100")
    assert code == 0
    assert out.strip() == "false"
    code, out = run(capsys, "distinguished", "--word", "1,2,1", "--mask", "101")
    assert out.strip() == "true"


def test_phi_json_matches_text(capsys):
    args = ["phi", "--family", "B", "--rank", "3", "--word", B3_WORD, "--mask", "011001011"]
    code, text = run(capsys, *args)
    assert code == 0
    code, out = run(capsys, *args, "--json")
    assert code == 0
    entries = json.loads(out)
    assert [
        f"i={e['i']} root={','.join(map(str, e['root']))} free={str(e['free']).lower()}"
        for e in entries
    ] == text.splitlines()


def test_phi_output(capsys):
    code, out = run(
        capsys, "phi", "--family", "B", "--rank", "3",
        "--word", "3,2,1,2,3,2,1,2,1", "--mask", "011001011",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[3] == "i=7 root=-1,0,0 free=true"


def test_order_command(capsys):
    code, out = run(
        capsys, "order", "--family", "B", "--rank", "3",
        "--word", "3,2,1,2,3,2,1,2,1",
        "--mask", "011001011", "--mask2", "010101101",
    )
    assert code == 0 and out.strip() == "true"


def test_hasse_to_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, _ = run(
        capsys, "hasse", "--family", "A", "--rank", "2", "--word", "1,2,1",
        "--dot", str(target),
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph") and text.count("[label=") == 7


def test_count_csv(capsys):
    code, out = run(capsys, "count", "--q", "2")
    assert code == 0
    assert out.splitlines()[0] == "q,w,v,count"
    assert '2,"3,2,1","1,2,3",3' in out


def test_collect_roundtrip(tmp_path, capsys):
    payload = [
        {"root": [0, -1, 0], "coeff": [{"mono": {"x": 1}, "num": 1, "den": 1}]},
        {"root": [0, 0, -1], "coeff": [{"mono": {"y": 1}, "num": 1, "den": 1}]},
        {"root": [0, -1, 0], "coeff": [{"mono": {"x": 1}, "num": -1, "den": 1}]},
    ]
    source = tmp_path / "word.json"
    source.write_text(json.dumps(payload))
    code, out = run(capsys, "collect", "--input", str(source))
    assert code == 0
    collected = json.loads(out)
    assert [f["root"] for f in collected] == [[0, 0, -1], [0, -1, -1]]


def test_collect_reads_stdin(capsys, monkeypatch):
    source = GOLDEN / "word.json"
    monkeypatch.setattr("sys.stdin", io.StringIO(source.read_text()))
    code, out = run(capsys, "collect", "--input", "-")
    assert code == 0
    assert out.encode() == (GOLDEN / "collect.out").read_bytes()


def test_verify_closure(capsys):
    code, out = run(capsys, "verify", "closure", "--n", "3")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "[PASS] u_y support" in out


def test_verify_disjoint(capsys):
    code, out = run(capsys, "verify", "disjoint")
    assert code == 0
    assert "witness_index=7" in out
    code, out = run(capsys, "verify", "disjoint", "--n", "4")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("n", ["2", "0"])
def test_verify_disjoint_below_rank_3(capsys, n):
    # the rank-3 entry is the smallest: a smaller n names no catalog entry
    code = main(["verify", "disjoint", "--n", n])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: verify disjoint needs n >= 3\n"


def test_verify_failure_exit_codes(capsys, monkeypatch):
    from deodhar import chevalley as chev
    from deodhar import cli as cli_mod

    def broken(n):
        raise chev.VerificationError("forced failure", report=None)

    monkeypatch.setattr(cli_mod.chevalley, "verify_closure_witness", broken)
    code, out = run(capsys, "verify", "closure", "--n", "3")
    assert code == 1 and "FAIL" in out

    monkeypatch.setattr(
        cli_mod.search, "disjointness_certificate", lambda a, b: None
    )
    code, out = run(capsys, "verify", "disjoint")
    assert code == 1 and "FAIL" in out


def test_verify_closure_failure_prints_its_report(capsys, monkeypatch):
    passed = chevalley.verify_closure_witness(3)
    failed = passed._replace(checks=passed.checks + (chevalley.WitnessCheck("forced", False, "x"),))

    def failing(n):
        raise chevalley.VerificationError("forced failure", report=failed)

    monkeypatch.setattr(chevalley, "verify_closure_witness", failing)
    code, out = run(capsys, "verify", "closure", "--n", "3")
    assert code == 1
    assert out.splitlines() == failed.lines() + ["FAIL: forced failure"]
    assert "[FAIL] forced: x" in out


def test_parse_errors_report_positions(capsys):
    code = main(["distinguished", "--word", "1,2,1", "--mask", "1x0"])
    err = capsys.readouterr().err
    assert code == 2 and "position 2" in err
    code = main(["cells", "--family", "A", "--rank", "2", "--word", "1,a,1"])
    err = capsys.readouterr().err
    assert code == 2 and "position 2" in err
    code = main(["cells", "--word", "1,2", "--end", "x"])
    err = capsys.readouterr().err
    assert code == 2 and err == "error: window token 'x' at position 1 is not an integer\n"
    code = main(["cells", "--word", "1,2", "--end=-1,y"])
    err = capsys.readouterr().err
    assert code == 2 and "token 'y' at position 2" in err


def test_cells_end_with_negative_window(capsys):
    # a window that starts with a minus sign, given as the next argument
    expected = [
        "mask=001 end=-1,2,3 dim=2 affine=0 torus=2",
        "point count: 1 - 2*q + q^2",
    ]
    for end in (["--end", "-1,2,3"], ["--end=-1,2,3"]):
        code, out = run(
            capsys, "cells", "--family", "B", "--rank", "3", "--word", "1,2,1", *end
        )
        assert code == 0
        assert out.splitlines() == expected


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["cells"])  # missing --word
    assert err.value.code == 2


def test_invalid_word_exit_code(capsys):
    code = main(["cells", "--family", "B", "--rank", "3", "--word", "1,1"])
    assert code == 2


@pytest.mark.parametrize("family", ["A", "B"])
@pytest.mark.parametrize("word", ["0", "-3", "1,0"])
def test_letter_below_one_is_named(capsys, family, word):
    # without --rank the rank is at least 1, so the word check names the
    # letter instead of the rank check rejecting rank 0
    code = main(["cells", "--family", family, f"--word={word}"])
    out, err = capsys.readouterr()
    bad = next(t for t in word.split(",") if int(t) < 1)
    assert code == 2 and out == ""
    assert err == f"error: generator index {bad} out of range\n"


def test_b16_w0_word_is_reduced():
    ctx = context("B", 16)
    assert ctx.from_word(parse_word(ctx, B16_W0).letters) is ctx.longest_element()


def test_deterministic_output(capsys):
    args = ["cells", "--family", "B", "--rank", "3", "--word", "3,2,1,2,3,2,1,2,1", "--json"]
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def alternating_b2(m):
    """u[-1,0](x_k) u[0,-1](y_k) for k < m: few swaps, but coefficients whose
    terms grow with every factor (m = 80 took 13 s unbounded, m = 160 ran
    past 100 s at 459 MB)."""
    factors = []
    for k in range(m):
        factors.append({"root": [-1, 0], "coeff": [{"mono": {f"x{k}": 1}, "num": 1}]})
        factors.append({"root": [0, -1], "coeff": [{"mono": {f"y{k}": 1}, "num": 1}]})
    return {"family": "B", "rank": 2, "factors": factors}


@pytest.mark.parametrize(
    "argv,payload",
    [
        (["count", "--family", "B", "--q", "2"], None),
        (["collect", "--input", "PATH"], []),
        (["collect", "--input", "PATH"], [{"coeff": []}]),
        (["collect", "--input", "PATH"], {"factors": [{"root": [0, -1, 0], "coeff": []}, {"coeff": []}]}),
        (["collect", "--input", "PATH"], [{"root": [0, -1, 0], "coeff": [{"mono": {}, "num": 1, "den": 0}]}]),
        (["collect", "--input", "PATH"], {"factors": 5}),
        (["cells", "--family", "B", "--rank", str(RANK_BOUND + 1), "--word", "1"], None),
        (["verify", "disjoint", "--n", str(RANK_BOUND + 1)], None),
        (["verify", "closure", "--n", str(RANK_BOUND + 1)], None),
        (["collect", "--input", "PATH"], [{"root": [0, -1, 0], "coeff": [{"mono": {"x": 1.5}, "num": 1}]}]),
        (["collect", "--input", "PATH"], [{"root": [0, -1, 0], "coeff": [{"mono": {"x": 1}, "num": 2.5}]}]),
        (["collect", "--input", "PATH"], [{"root": [-1.9, 0, 0], "coeff": [{"mono": {}, "num": 1}]}]),
        (["collect", "--input", "PATH"], [{"root": [0, -1, 0], "coeff": [{"mono": {}, "num": "7"}]}]),
        (["collect", "--input", "PATH"], [{"root": [0, -1, False], "coeff": [{"mono": {}, "num": 1}]}]),
        (["hasse", "--family", "B", "--rank", "5", "--word", "5,4,3,2,1,2,3,4,5,4,3,2,1,2,3,4",
          "--dot", "-"], None),
        (["hasse", "--family", "B", "--rank", "16", "--word", "1,3,5,7,9,11,13,15,2,4,6,8",
          "--dot", "-"], None),
        (["cells", "--family", "B", "--rank", "16", "--word",
          "1,3,5,7,9,11,13,15,2,4,6,8,10,12,14,16,1,3,5,7,9,11,13,15"], None),
        (["cells", "--family", "B", "--rank", "16", "--word", B16_W0], None),
        (["phi", "--word", "1,2,1", "--mask", "100"], None),
        # a string payload is written as is: json.dumps cannot nest this deep
        pytest.param(["collect", "--input", "PATH"], "[" * 2000 + "]" * 2000,
                     id="collect-deep-nesting"),
        pytest.param(["collect", "--input", "PATH"], alternating_b2(160),
                     id="collect-work-bound"),
        pytest.param(["collect", "--input", "PATH"], {"family": "C", "rank": 3, "factors": []},
                     id="collect-unknown-family"),
        pytest.param(["collect", "--input", "PATH"], {"family": "B", "rank": "3", "factors": []},
                     id="collect-rank-not-int"),
        # past the rank bound before the catalog builds any letter
        pytest.param(["verify", "disjoint", "--n", str(10 ** 7)], None, id="verify-disjoint-1e7"),
        pytest.param(["verify", "closure", "--n", str(10 ** 7)], None, id="verify-closure-1e7"),
        pytest.param(["verify", "disjoint", "--n", str(10 ** 30)], None, id="verify-disjoint-1e30"),
        pytest.param(["verify", "closure", "--n", str(10 ** 30)], None, id="verify-closure-1e30"),
    ],
)
def test_input_errors_exit_2(tmp_path, capsys, argv, payload):
    source = tmp_path / "word.json"
    source.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code = main([str(source) if a == "PATH" else a for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("check", ["closure", "disjoint"])
def test_verify_past_rank_bound_builds_nothing(capsys, check):
    # the catalog checks the rank before it builds a word of about 4n letters
    tracemalloc.start()
    try:
        code = main(["verify", check, "--n", str(10 ** 7)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == f"error: rank {10 ** 7} exceeds {RANK_BOUND}\n"
    assert peak < 2 * 2 ** 20


# The README commands (test_readme_commands_are_golden checks that each one is
# here), plus a type B JSON listing and a collection with
# commutator terms; tests/golden/<name>.out holds the recorded stdout.
GOLDEN_COMMANDS = {
    "cells_end_e": ["cells", "--family", "A", "--rank", "2", "--word", "1,2,1", "--end", "e"],
    "distinguished": ["distinguished", "--word", "1,2,1", "--mask", "100"],
    "phi": ["phi", "--family", "B", "--rank", "3", "--word", B3_WORD, "--mask", "011001011"],
    "order": [
        "order", "--family", "B", "--rank", "3", "--word", B3_WORD,
        "--mask", "011001011", "--mask2", "010101101",
    ],
    "hasse": ["hasse", "--family", "A", "--rank", "2", "--word", "1,2,1", "--dot", "-"],
    # the covering relation of the 200 cells of B_3 w0
    "hasse_b3_w0": ["hasse", "--family", "B", "--rank", "3", "--word", B3_WORD, "--dot", "-"],
    "count_q7": ["count", "--q", "7"],
    "collect": ["collect", "--input", str(GOLDEN / "word.json")],
    "verify_closure_4": ["verify", "closure", "--n", "4"],
    # its sign lines read the B_16 structure-constant table
    "verify_closure_16": ["verify", "closure", "--n", "16"],
    "verify_disjoint_5": ["verify", "disjoint", "--n", "5"],
    "verify_disjoint_16": ["verify", "disjoint", "--n", "16"],
    "cells_b3_json": ["cells", "--family", "B", "--rank", "3", "--word", B3_WORD, "--json"],
    # 13 cells and the point count of one double cell of B_3 w0
    "cells_end_b3": [
        "cells", "--family", "B", "--rank", "3", "--word", B3_WORD, "--end", "2,1,3",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_stdout(capsys, name):
    code, out = run(capsys, *GOLDEN_COMMANDS[name])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_readme_commands_are_golden():
    # every `deodhar ...` line of README's Command line block is a golden
    # command, with the example's word.json read from tests/golden
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("deodhar ")]
    assert len(commands) == 9
    for argv in commands:
        argv = [str(GOLDEN / a) if a == "word.json" else a for a in argv]
        assert argv in GOLDEN_COMMANDS.values(), " ".join(argv)
