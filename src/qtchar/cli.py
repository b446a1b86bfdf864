"""Command-line surface.

Subcommands::

    fundamental   compute a fundamental-module q,t-character
    standard      compute a standard-module q,t-character
    decode        annotate a character JSON with Jordan data
    check         run all validators and the audit on a character JSON
    dot           emit the character graph in DOT format
    fixtures      recompute every shipped fixture and diff exactly

Exit codes: 0 success, 2 usage or parse error, 3 computation error,
4 validation failure, 5 fixture mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import partial
from operator import methodcaller

from . import jordan, serialize
from .charalg import HIGHEST
from .errors import (
    FailedAudit,
    InconsistentExpansion,
    NegativeTwist,
    NodeOutOfRange,
    NonMinuscule,
    ParseError,
    QtCharError,
    UnsupportedType,
)
from .fm import audit_expansion, fundamental_qt, string_edges
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
        try:
            node_text, shift_text = chunk.split(":")
            specs.append(FactorSpec(int(node_text), int(shift_text), orbit))
        except ValueError as err:
            raise ParseError(f"bad factor {chunk!r}; expected node:shift") \
                from err
    if not specs:
        raise ParseError("empty factor list")
    return specs


def _emit(out: str | None, write) -> None:
    """Call ``write`` with the file at the path ``out``, or with stdout.
    Any OSError while writing is a ParseError: ``error: cannot write``."""
    try:
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                write(fh)
        else:
            sys.stdout.flush()
            try:
                fd = sys.stdout.fileno()
            except (OSError, ValueError):  # no descriptor, as under capture
                write(sys.stdout)
                sys.stdout.flush()
            else:
                # a buffered writer retries a short write and raises on a
                # closed pipe; unbuffered stdout (PYTHONUNBUFFERED) takes a
                # short write as complete
                with open(fd, "w", encoding="utf-8", closefd=False) as fh:
                    write(fh)
    except OSError as err:
        if not out:
            _silence_stdout()
        raise ParseError(f"cannot write {out or 'stdout'}: {err}") from err


def _silence_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the text left
    in its buffer cannot fail again when the interpreter flushes it at
    exit (a closed pipe would print "Exception ignored")."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return  # stdout is not a file, so nothing flushes to a descriptor
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _read_doc(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        # ValueError covers UnicodeDecodeError, JSONDecodeError and an
        # integer past the interpreter's digit limit; RecursionError is
        # nesting past the decoder's recursion limit
        raise ParseError(f"cannot read {path}: {err}") from err


def render_dot(chi):
    """DOT digraph lines: nodes are monomials labelled with their
    coefficient, edges are the lowering steps interior to the expansion
    strings, labelled by direction.  The character is peeled for its
    edges before the first line comes, so a failing audit writes nothing."""
    terms = chi.sorted_terms()
    return _dot_lines(terms, string_edges(chi))


def _dot_lines(terms, edges):
    yield "digraph character {\n  rankdir=TB;\n  node [shape=box];\n"
    texts = {}
    for m, text, coeff in terms:
        texts[m] = text
        label = text if coeff == 1 else f"({coeff}) {text}"
        yield f'  "{text}" [label="{label}"];\n'
    for src, dst, i, _step in edges:
        yield f'  "{texts[src]}" -> "{texts[dst]}" [label="{i}"];\n'
    yield "}\n"


def render_text(chi, annotations=None):
    """Tab-separated lines: monomial, coefficient, dimension[, blocks]."""
    for _m, text, coeff in chi.sorted_terms():
        row = [text, str(coeff), str(coeff.mass())]
        if annotations is not None:
            row.append(",".join(str(b) for b in annotations[coeff].blocks))
        yield "\t".join(row) + "\n"


def _emit_character(chi, args) -> None:
    annotations = jordan.annotate_character(chi) if args.decode else None
    if args.format == "json":
        write = partial(serialize.write_character, chi, annotations)
    else:
        lines = (render_dot(chi) if args.format == "dot"
                 else render_text(chi, annotations))
        write = methodcaller("writelines", lines)
    _emit(args.out, write)


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
    with _audit_of_a_document():
        audit_expansion(chi)
    annotations = jordan.annotate_character(chi)
    _emit(args.out, partial(serialize.write_character, chi, annotations))
    return 0


def cmd_check(args) -> int:
    chi = serialize.character_from_doc(_read_doc(args.input))
    problems = []
    if chi.terms[HIGHEST] != 1:
        problems.append("highest monomial does not have coefficient 1")
    for _m, text, coeff in chi.sorted_terms():
        report = jordan.validate_poincare(coeff)
        if not report:
            problems.append(
                f"{text}: coefficient {coeff} fails "
                f"{', '.join(report.violations)}")
    try:
        audit_expansion(chi)
    except InconsistentExpansion as err:
        problems.append(f"audit: {err}")
    if problems:
        for line in problems:
            print(f"FAIL {line}")
        return VALIDATION_ERROR
    print(f"OK {len(chi.terms)} terms, total dimension {chi.mass_at_t1()}")
    return 0


@contextmanager
def _audit_of_a_document():
    """A peel failure of a character read from a document is a validation
    failure: the document is at fault, not the program."""
    try:
        yield
    except InconsistentExpansion as err:
        raise FailedAudit(str(err)) from err


def cmd_dot(args) -> int:
    chi = serialize.character_from_doc(_read_doc(args.input))
    with _audit_of_a_document():
        lines = render_dot(chi)
    _emit(args.out, methodcaller("writelines", lines))
    return 0


def cmd_fixtures(args) -> int:
    # imported here, so no other subcommand loads importlib.resources
    from . import fixtures as fixture_store

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
    if getattr(args, "decode", False) and args.format == "dot":
        # refused before anything is computed: DOT carries no annotations
        print("error: --decode cannot be combined with --format dot",
              file=sys.stderr)
        return USAGE_ERROR
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
