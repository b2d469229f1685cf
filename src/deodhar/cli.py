"""Command-line front end.

Subcommands: cells, distinguished, phi, order, hasse, count, collect, verify.
Masks are written with the leftmost character as position 1, '1' meaning the
letter is taken.  Windows are comma-separated signed integers, words are
comma-separated generator indices, and "e" names the identity.  All output
is byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cells as cells_mod
from . import chevalley, matrixgrp, search
from .weyl import ReducedWord, context, parse_integers


def _add_context_flags(parser, default_family="B"):
    parser.add_argument("--family", choices=["A", "B"], default=default_family)
    parser.add_argument("--rank", type=int, default=None)


def _word(args) -> ReducedWord:
    """The reduced word ``--word`` of ``--family``; without ``--rank``, the
    rank is the largest letter, at least 1 (at least 2 in type B), so that a
    letter below 1 is reported by the word check."""
    letters = parse_integers(args.word, "word")
    rank = args.rank
    if rank is None:
        rank = max([2 if args.family == "B" else 1, *letters])
    return ReducedWord(context(args.family, rank), letters)


def _cmd_cells(args) -> int:
    word = _word(args)
    end = None if args.end is None else word.ctx.parse_element(args.end)
    # raises past CELLS_BOUND, so such an input prints nothing
    cells_mod.endpoint_counts(word)
    descriptors = (
        d
        for d in cells_mod.enumerate_subexpressions(word, cells_mod.CELLS_BOUND)
        if end is None or d.endpoint is end
    )
    if args.json:
        # the bytes of json.dumps(list, sort_keys=True), one item at a time
        write = sys.stdout.write
        write("[")
        for k, d in enumerate(descriptors):
            write((", " if k else "") + json.dumps(cells_mod.cell_to_obj(d), sort_keys=True))
        write("]\n")
    else:
        for d in descriptors:
            print(
                f"mask={d.mask_string} end={d.endpoint.serialize()} "
                f"dim={d.dimension} affine={d.affine_rank} torus={d.torus_rank}"
            )
        if end is not None:
            print(f"point count: {cells_mod.point_count_polynomial(word, end)}")
    return 0


def _cmd_distinguished(args) -> int:
    word = _word(args)
    sub = cells_mod.subexpression(word, args.mask)
    print("true" if cells_mod.is_distinguished(sub) else "false")
    return 0


def _cmd_phi(args) -> int:
    word = _word(args)
    sub = cells_mod.subexpression(word, args.mask)
    entries = cells_mod.cell(sub).phi
    if args.json:
        print(json.dumps([cells_mod.phi_entry_to_obj(e) for e in entries], sort_keys=True))
    else:
        for e in entries:
            print(f"i={e.index} root={e.root.serialize()} free={str(e.free).lower()}")
    return 0


def _cmd_order(args) -> int:
    word = _word(args)
    first = cells_mod.subexpression(word, args.mask)
    second = cells_mod.subexpression(word, args.mask2)
    print("true" if cells_mod.preceq(first, second) else "false")
    return 0


def _cmd_hasse(args) -> int:
    word = _word(args)
    text = cells_mod.hasse_dot(word)
    if args.dot == "-":
        sys.stdout.write(text)
    else:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _cmd_count(args) -> int:
    if args.family != "A" or (args.rank not in (None, 2)):
        raise ValueError("matrix counting is implemented for --family A --rank 2")
    sys.stdout.write(matrixgrp.count_cells_csv(args.q))
    return 0


def _cmd_collect(args) -> int:
    try:
        if args.input == "-":
            payload = json.load(sys.stdin)
        else:
            with open(args.input, encoding="utf-8") as handle:
                payload = json.load(handle)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None
    if isinstance(payload, dict):
        family = payload.get("family", args.family)
        rank = payload.get("rank", args.rank)
        factors = payload.get("factors")
    else:
        family = args.family
        rank = args.rank
        factors = payload
    if not isinstance(factors, list):
        raise ValueError('input must be a list of factors or an object with a "factors" list')
    if rank is None:
        first = factors[0] if factors else None
        if not isinstance(first, dict) or not isinstance(first.get("root"), list):
            raise ValueError('no --rank given and no first factor with a "root" list')
        rank = len(first["root"])
    if family not in ("A", "B"):
        raise ValueError(f"unknown family {family!r}")
    if type(rank) is not int:
        raise ValueError(f"rank {rank!r} is not an integer")
    ctx = context(family, rank)
    word = chevalley.UnipotentWord.from_obj(ctx, factors)
    print(json.dumps(chevalley.collect(word).to_obj(), sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    if args.check == "closure":
        try:
            report = chevalley.verify_closure_witness(args.n)
        except chevalley.VerificationError as err:
            if err.report is not None:
                for line in err.report.lines():
                    print(line)
            print(f"FAIL: {err}")
            return 1
        for line in report.lines():
            print(line)
        print("PASS")
        return 0
    if args.n < 3:
        raise ValueError("verify disjoint needs n >= 3")
    name = cells_mod.DISJOINTNESS if args.n == 3 else cells_mod.DISJOINTNESS_EXTENDED
    entry = cells_mod.catalog(name, args.n)
    first, second = cells_mod.cell(entry.first), cells_mod.cell(entry.second)
    certificate = search.disjointness_certificate(first, second)
    if certificate is None:
        print("FAIL: no disjointness certificate found")
        return 1
    print(f"catalog {entry.name} n={entry.n} dimension={first.dimension}")
    print(
        f"certificate root={certificate.root.serialize()} "
        f"witness_index={certificate.witness_index}"
    )
    print("PASS")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deodhar", description="Deodhar cell combinatorics toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cells", help="list distinguished cells of a reduced word")
    _add_context_flags(p)
    p.add_argument("--word", required=True)
    p.add_argument("--end", default=None, help="endpoint window or 'e'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cells)

    p = sub.add_parser("distinguished", help="test a mask for distinguishedness")
    _add_context_flags(p)
    p.add_argument("--word", required=True)
    p.add_argument("--mask", required=True)
    p.set_defaults(func=_cmd_distinguished)

    p = sub.add_parser("phi", help="coordinate root sequence of a mask")
    _add_context_flags(p)
    p.add_argument("--word", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("order", help="compare two masks in the closure order")
    _add_context_flags(p)
    p.add_argument("--word", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--mask2", required=True)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("hasse", help="DOT graph of the closure order")
    _add_context_flags(p)
    p.add_argument("--word", required=True)
    p.add_argument("--dot", required=True, help="output path or '-'")
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("count", help="finite-field double cell counts (CSV)")
    _add_context_flags(p, default_family="A")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("collect", help="collect a unipotent word (JSON in/out)")
    _add_context_flags(p)
    p.add_argument("--input", required=True, help="JSON file or '-'")
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("verify", help="run a machine verification")
    p.add_argument("check", choices=["closure", "disjoint"])
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a window such as -1,2,3 for an option: --end W as --end=W
    for k in range(len(argv) - 1, 0, -1):
        if argv[k - 1] == "--end" and argv[k][:1] == "-" and argv[k][1:2].isdigit():
            argv[k - 1 : k + 1] = [f"--end={argv[k]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
