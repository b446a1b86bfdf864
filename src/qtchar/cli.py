"""Command-line surface.

Subcommands::

    fundamental   compute a fundamental-module q,t-character
    standard      compute a standard-module q,t-character
    decode        annotate a character JSON with Jordan data
    check         run all validators on a character JSON
    dot           emit the character graph in DOT format
    fixtures      recompute every shipped fixture and diff exactly

Exit codes: 0 success, 2 usage or parse error, 3 computation error,
4 validation failure, 5 fixture mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fixtures as fixture_store
from . import jordan, serialize
from .charalg import HIGHEST, render_monomial
from .errors import (
    InconsistentExpansion,
    MixedHighestWeight,
    NegativeTwist,
    NodeOutOfRange,
    NonMinuscule,
    ParseError,
    QtCharError,
    UnsupportedType,
)
from .fm import fundamental_qt, string_edges
from .fusion import FactorSpec, standard_module_qt
from .rootdata import parse_type

USAGE_ERROR = 2
COMPUTE_ERROR = 3
VALIDATION_ERROR = 4
FIXTURE_MISMATCH = 5


def parse_factors(text: str) -> list[FactorSpec]:
    """Parse ``node:shift[@orbit]`` factors, comma separated."""
    specs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        orbit = "a"
        if "@" in chunk:
            chunk, orbit = chunk.split("@", 1)
            if not orbit.isalnum() or not orbit[0].isalpha():
                raise ParseError(f"bad orbit name {orbit!r}")
        try:
            node_text, shift_text = chunk.split(":")
            specs.append(FactorSpec(int(node_text), int(shift_text), orbit))
        except ValueError as err:
            raise ParseError(f"bad factor {chunk!r}; expected node:shift") \
                from err
    if not specs:
        raise ParseError("empty factor list")
    return specs


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise ParseError(f"cannot write {out}: {err}") from err
    else:
        sys.stdout.write(text)


def _read_doc(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ParseError(f"cannot read {path}: {err}") from err


def render_dot(chi) -> str:
    """DOT digraph: nodes are monomials labelled with their coefficient,
    edges are the lowering steps interior to the expansion strings,
    labelled by direction."""
    lines = ["digraph character {", "  rankdir=TB;", "  node [shape=box];"]
    texts = {}
    for m, y, coeff in chi.sorted_terms():
        texts[m] = text = render_monomial(y)
        label = text if coeff == 1 else f"({coeff}) {text}"
        lines.append(f'  "{text}" [label="{label}"];')
    for src, dst, i, _step in string_edges(chi):
        lines.append(f'  "{texts[src]}" -> "{texts[dst]}" [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_text(chi, annotations=None) -> str:
    """Tab-separated rows: monomial, coefficient, dimension[, blocks]."""
    rows = []
    for m, y, coeff in chi.sorted_terms():
        row = [render_monomial(y), str(coeff), str(coeff.mass())]
        if annotations is not None:
            row.append(",".join(str(b) for b in annotations[m].blocks))
        rows.append("\t".join(row))
    return "\n".join(rows) + "\n"


def _emit_character(chi, args) -> None:
    annotations = jordan.annotate_character(chi) if args.decode else None
    if args.format == "json":
        _write(serialize.dumps(serialize.character_to_doc(chi, annotations)),
               args.out)
    elif args.format == "dot":
        _write(render_dot(chi), args.out)
    else:
        _write(render_text(chi, annotations), args.out)


def cmd_fundamental(args) -> int:
    datum = parse_type(args.type)
    chi = fundamental_qt(datum, args.node, args.shift, args.orbit)
    _emit_character(chi, args)
    return 0


def cmd_standard(args) -> int:
    datum = parse_type(args.type)
    chi = standard_module_qt(datum, parse_factors(args.factors))
    _emit_character(chi, args)
    return 0


def cmd_decode(args) -> int:
    chi = serialize.character_from_doc(_read_doc(args.input))
    annotations = jordan.annotate_character(chi)
    _write(serialize.dumps(serialize.character_to_doc(chi, annotations)),
           args.out)
    return 0


def cmd_check(args) -> int:
    try:
        chi = serialize.character_from_doc(_read_doc(args.input))
        highest = chi.terms.get(HIGHEST)
        terms = [(render_monomial(y), coeff, False)
                 for _m, y, coeff in chi.sorted_terms()]
    except MixedHighestWeight as err:
        highest, terms = err.highest, err.terms
    problems = []
    if highest != 1:
        problems.append("highest monomial does not have coefficient 1")
    for text, coeff, differs in terms:
        if differs:
            problems.append(f"{text}: w differs from the highest monomial")
        report = jordan.validate_poincare(coeff)
        if not report:
            problems.append(
                f"{text}: coefficient {coeff} fails "
                f"{', '.join(report.violations)}")
    if problems:
        for line in problems:
            print(f"FAIL {line}")
        return VALIDATION_ERROR
    print(f"OK {len(chi.terms)} terms, total dimension {chi.mass_at_t1()}")
    return 0


def cmd_dot(args) -> int:
    chi = serialize.character_from_doc(_read_doc(args.input))
    _write(render_dot(chi), args.out)
    return 0


def cmd_fixtures(args) -> int:
    failed = False
    for name in fixture_store.fixture_names():
        doc = fixture_store.load_fixture(name)
        mismatches = fixture_store.verify_fixture(doc)
        if mismatches:
            failed = True
            print(f"FAIL {name}: {len(mismatches)} mismatches")
            for line in mismatches[:5]:
                print(f"  {line}")
        else:
            print(f"PASS {name} ({len(doc['terms'])} pinned terms)")
    return FIXTURE_MISMATCH if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtchar",
        description="q,t-characters of simply laced quantum affine algebras "
                    "and Jordan filtrations of their l-weight spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "dot", "text"),
                       default="json")

    p = sub.add_parser("fundamental", help="fundamental-module character")
    p.add_argument("--type", required=True, help="Dynkin type, e.g. D4")
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--orbit", default="a")
    p.add_argument("--decode", action="store_true",
                   help="attach Jordan annotations")
    add_output(p)
    p.set_defaults(func=cmd_fundamental)

    p = sub.add_parser("standard", help="standard-module character")
    p.add_argument("--type", required=True)
    p.add_argument("--factors", required=True,
                   help="comma-separated node:shift[@orbit] factors")
    p.add_argument("--decode", action="store_true")
    add_output(p)
    p.set_defaults(func=cmd_standard)

    p = sub.add_parser("decode", help="Jordan-annotate a character JSON")
    p.add_argument("input", help="character JSON path, or - for stdin")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("check", help="validate a character JSON")
    p.add_argument("input")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dot", help="emit the character graph as DOT")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("fixtures",
                       help="recompute shipped fixtures and diff exactly")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, NodeOutOfRange, UnsupportedType) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (InconsistentExpansion, NonMinuscule, NegativeTwist) as err:
        print(f"computation error: {err}", file=sys.stderr)
        return COMPUTE_ERROR
    except QtCharError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
