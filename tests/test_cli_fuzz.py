"""A seeded fuzz of the command-line grammar: random argv over every
subcommand, built from a pool of valid and malformed tokens, must end with
exit code 0, 1 or 2 and no exception other than ``SystemExit``."""

import io
import json
import random
import sys
import traceback

import pytest

from deodhar.cli import main

SEED = 20081016
CASES = 1000

WORDS = [
    "", " ", "1", "2", "1,2,1", "2,1,2", "1,2,1,2", "3,2,1,2,3,2,1,2,1", "1,2,3,1,2,1",
    "1,1", "0", "-1", "-3", "1,0", "17", "99999999999999999999999999999", "a", "1;2",
    "1,,2", "1, 2", ",1", "1,", "1.5", "x,y", "4,3,2,1,2,3,4", "1,2,3,4,5,6,7,8",
]
RANKS = [str(k) for k in range(-1, 18)] + ["123456789012345678901234567890", "x", ""]
MASKS = [
    "", "0", "1", "000", "100", "101", "111", "1011", "10x", "2", "-1", "1 0",
    "010101101", "011001011", "000000000", "111111111",
]
WINDOWS = ["e", "1,2,3", "2,1,3", "-1,2,3", "3,2,1", "1,2", "1,1,2", "-3,-2,-1", "x", ""]
QS = ["2", "3", "5", "7", "4", "1", "0", "-5", "65", "67", "x", "1.5",
      "99999999999999999999999999999"]
NS = [str(k) for k in range(-1, 18)] + [str(10 ** 7), str(10 ** 30), str(2 ** 63), "x", ""]
STRAY = ["--bogus", "--json", "--help", "-h", "--family", "C", "--rank", "--word", "--", "-"]
# collect inputs: file contents, written under the test's temporary folder
PAYLOADS = [
    [],
    [{"root": [0, -1, 0], "coeff": [{"mono": {"x": 1}, "num": 1}]}],
    [{"root": [-1, 0], "coeff": [{"mono": {"x": 1}, "num": 1}]},
     {"root": [0, -1], "coeff": [{"mono": {"y": 1}, "num": 2, "den": 3}]}],
    {"family": "B", "rank": 2, "factors": []},
    {"family": "A", "rank": 3, "factors": [{"root": [0, 0, -1], "coeff": []}]},
    {"family": "C", "rank": 3, "factors": []},
    {"family": "B", "rank": "3", "factors": []},
    {"family": "B", "rank": 10 ** 30, "factors": []},
    {"factors": 5},
    [{"root": [0, -1, 0], "coeff": [{"mono": {"x": 10 ** 40}, "num": 10 ** 40}]}],
    [{"root": [0, -1, 0], "coeff": [{"mono": {}, "num": 1, "den": 0}]}],
    [{"root": [0, -1, False], "coeff": [{"mono": {}, "num": 1}]}],
    [{"root": "abc", "coeff": None}],
    [{"coeff": []}],
    [1, "two", None],
    "a string",
    None,
    42,
]
RAW_PAYLOADS = ["", "{", "[" * 2000 + "]" * 2000, "not json", "[1, 2"]
# (family, rank, word, masks of the word's length), so that some cases pass
# every check and reach the computation
COHERENT = [
    ("A", "2", "1,2,1", ["000", "100", "101", "110", "111"]),
    ("B", "2", "1,2,1,2", ["0000", "1010", "0101", "1111"]),
    ("A", "3", "1,2,3,1,2,1", ["000000", "101101", "110100", "111111"]),
    ("B", "3", "3,2,1,2,3,2,1,2,1", ["010101101", "011001011", "000000000", "111111111"]),
]


def _choice_args(rng, flags, chance=0.75):
    """Random ``--flag value`` pairs, each drawn with probability ``chance``."""
    argv = []
    for flag, pool in flags:
        if rng.random() < chance:
            argv += [flag, rng.choice(pool)]
    return argv


def _argv(rng, paths):
    """One random argv: a subcommand with its own flags drawn from the pool,
    sometimes a stray token."""
    command = rng.choice(
        ["cells", "distinguished", "phi", "order", "hasse", "count", "collect", "verify"]
    )
    family, rank, word = ("--family", ["A", "B", "C", ""]), ("--rank", RANKS), ("--word", WORDS)
    masks, chance = MASKS, 0.75
    if command in ("cells", "distinguished", "phi", "order", "hasse") and rng.random() < 0.4:
        name, degree, letters, masks = rng.choice(COHERENT)
        family, rank, word = ("--family", [name]), ("--rank", [degree]), ("--word", [letters])
        chance = 0.95
    if command == "cells":
        argv = _choice_args(rng, [family, rank, word, ("--end", WINDOWS)], chance)
        if rng.random() < 0.5:
            argv.append("--json")
    elif command in ("distinguished", "phi"):
        argv = _choice_args(rng, [family, rank, word, ("--mask", masks)], chance)
        if command == "phi" and rng.random() < 0.5:
            argv.append("--json")
    elif command == "order":
        flags = [family, rank, word, ("--mask", masks), ("--mask2", masks)]
        argv = _choice_args(rng, flags, chance)
    elif command == "hasse":
        argv = _choice_args(rng, [family, rank, word, ("--dot", ["-", *paths["dot"]])], chance)
    elif command == "count":
        argv = _choice_args(rng, [("--q", QS)])
    elif command == "collect":
        argv = _choice_args(rng, [family, rank, ("--input", ["-", *paths["input"]])])
    else:
        argv = [rng.choice(["closure", "disjoint", "other", ""])]
        argv += _choice_args(rng, [("--n", NS)])
    argv = [command, *argv]
    if rng.random() < 0.1:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(STRAY))
    return argv


@pytest.fixture
def paths(tmp_path):
    """Collect inputs and hasse outputs under the temporary folder: every
    payload as a file, a missing file and a folder in place of a file."""
    inputs = []
    for k, payload in enumerate(PAYLOADS + RAW_PAYLOADS):
        path = tmp_path / f"input{k}.json"
        path.write_text(payload if k >= len(PAYLOADS) else json.dumps(payload))
        inputs.append(str(path))
    missing = str(tmp_path / "missing.json")
    return {
        "input": inputs + [missing, str(tmp_path)],
        "dot": [str(tmp_path / "out.dot"), str(tmp_path / "no" / "out.dot"), str(tmp_path)],
    }


def test_cli_grammar_fuzz(paths, capsys, monkeypatch):
    rng = random.Random(SEED)
    codes = set()
    for _ in range(CASES):
        argv = _argv(rng, paths)
        stdin = rng.choice(["[]", "{", json.dumps(rng.choice(PAYLOADS))])
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        except Exception:
            pytest.fail(f"argv {argv!r} raised:\n{traceback.format_exc()}")
        finally:
            capsys.readouterr()
        assert code in (0, 1, 2), f"argv {argv!r} exited with {code!r}"
        codes.add(code)
    # the pool reaches both successes and input errors
    assert {0, 2} <= codes
