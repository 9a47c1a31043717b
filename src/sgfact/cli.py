"""Command-line front end.

One subcommand per invariant; a semigroup comes from inline generators
(``--gens``), a generators file, or an equations file describing a full
semigroup, the only kind ``tame`` accepts.  ``block-monoid`` and ``hilbert``
read their own input and reject these three flags.  Output is deterministic:
plain text or compact JSON with sorted keys, vectors as integer arrays, every
set sorted.

``--max-steps N`` runs the whole command under ``step_limit(N)``: every
counting loop it starts (each factorization search, one step per node and
one per factorization its closed-form two-atom tail emits, the semigroup's
construction included; the Graver queue pops, summed over every lift stage;
the Hilbert frontier search; the group elements a block monoid lists; each
Buchberger run; the catenary trees and the tame degree's shortest lengths,
settled one element at a time; the naive catenary degree, one step per pair
of factorizations) aborts after N steps of its own.

Exit codes: 0 success (``-h``/``--help`` included, with the usage as the
output), 2 parse/validation error (a negative ``--max-steps`` included), 3
semantic error (element outside the semigroup, non-full input where fullness
is required), 4 step budget exceeded or memory exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import catenary as _catenary
from . import delta as _delta
from . import presentation as _presentation
from . import tame as _tame
from .core import (
    AffineSemigroup,
    Vector,
    affine_semigroup,
    delta_of_lengths,
    factorizations,
    length_set,
)
from .errors import (
    NotFullError,
    NotInSemigroupError,
    ResourceLimitError,
    SgfactError,
    UnsupportedDimensionError,
    step_limit,
)
from .hilbert import Relation, diophantine_system, graver_basis, hilbert_basis, minimal_solutions

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SEMANTIC = 3
EXIT_BUDGET = 4


class _UsageError(SgfactError):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep control of the exit code and stream
        raise _UsageError(message)

    def print_help(self, file=None):  # -h: run returns the usage as its output
        raise _HelpRequested(self.format_help())


def _parse_vector(text: str) -> Vector:
    text = text.strip()
    if text.startswith("("):
        if not text.endswith(")"):
            raise _UsageError(f"malformed vector {text!r}")
        body = text[1:-1]
        try:
            return tuple(int(c) for c in body.replace(",", " ").split())
        except ValueError:
            raise _UsageError(f"malformed vector {text!r}") from None
    try:
        return (int(text),)
    except ValueError:
        raise _UsageError(f"malformed vector {text!r}") from None


def _parse_generators(text: str) -> list[Vector]:
    text = text.strip()
    if not text:
        raise _UsageError("empty generator list")
    if "(" in text:
        parts = [p for p in text.split(";") if p.strip()]
        return [_parse_vector(p) for p in parts]
    try:
        return [(int(tok),) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise _UsageError(f"malformed generator list {text!r}") from None


def _read_text(path: str | None) -> str:
    """The text of a UTF-8 file, or of stdin for None; unreadable or undecodable input is a usage error."""
    try:
        if path is None:
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path or 'stdin'}: {exc}") from None


def _load_json(path: str) -> dict:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise _UsageError(f"{path}: expected a JSON object")
    return data


def _semigroup_from_args(args) -> AffineSemigroup:
    sources = [s for s in (args.gens, args.gens_file, args.equations) if s]
    if len(sources) != 1:
        raise _UsageError("exactly one of --gens, --gens-file, --equations is required")
    if args.gens:
        text = _read_text(None) if args.gens == "-" else args.gens
        return affine_semigroup(_parse_generators(text))
    if args.gens_file:
        return affine_semigroup(_parse_generators(_read_text(args.gens_file)))
    data = _load_json(args.equations)
    if "matrix" not in data or "moduli" not in data:
        raise _UsageError(f"{args.equations}: need keys 'matrix' and 'moduli'")
    return _tame.full_semigroup(data["matrix"], data["moduli"])


def _scalarize(S: AffineSemigroup, vec: Vector):
    return vec[0] if S.dim == 1 else list(vec)


def _format_vector(vec: Vector, scalar: bool) -> str:
    if scalar:
        return str(vec[0])
    return "(" + ",".join(str(c) for c in vec) + ")"


def _emit(args, payload: dict, plain_lines: list[str]) -> str:
    if args.format == "json":
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return "\n".join(plain_lines)


def _add_common(parser: _Parser, source: bool) -> None:
    if source:  # the semigroup a command reads through _semigroup_from_args
        parser.add_argument("--gens", help="inline generators: '3 4 5' or '(1,0);(1,1)'; '-' reads stdin")
        parser.add_argument("--gens-file", help="file containing a generator list")
        parser.add_argument("--equations", help="JSON file {'matrix': [[..]], 'moduli': [..]} (full semigroup)")
    parser.add_argument("--format", choices=("plain", "json"), default="plain")
    parser.add_argument(
        "--max-steps",
        type=int,
        default=None,
        help="abort any counting loop after N steps: nodes of one factorization search "
        "plus the factorizations its two-atom tail emits, Graver queue pops summed over all "
        "lift stages, Hilbert frontier rows, group elements a block monoid lists, S-pairs that "
        "survive the pair criteria in one Buchberger run, elements whose catenary tree or "
        "shortest length is settled, or pairs of factorizations the naive catenary degree weighs",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="sgfact", description="factorization invariants of affine semigroups")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, source=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_common(p, source)
        return p

    p = command("factorizations", help="all factorizations of an element")
    p.add_argument("--element", required=True)
    p = command("length-set", help="factorization lengths of an element")
    p.add_argument("--element", required=True)
    p = command("delta-element", help="delta set of one element")
    p.add_argument("--element", required=True)
    p = command("delta-set", help="delta set of the whole semigroup")
    p.add_argument("--method", choices=("hilbert", "grobner"), default="grobner")
    command("min-presentation", help="a minimal presentation")
    command("betti", help="Betti elements")
    command("graver", help="Graver basis")
    p = command("catenary", help="catenary degree of an element")
    p.add_argument("--element", required=True)
    p.add_argument("--method", choices=("naive", "dynamic"), default="dynamic")
    p = command("catenary-range", help="catenary degrees of all elements up to a bound")
    p.add_argument("--bound", type=int, required=True)
    p = command("tame", help="tame degree of a full semigroup (needs --equations)")
    p.add_argument("--atom-index", type=int, default=None, help="0-based: report t_i only")
    p = command("block-monoid", source=False, help="atoms of a block monoid over Z_m1 x ... x Z_mr")
    p.add_argument("--moduli", required=True, help="e.g. '2 2 2'")
    p.add_argument("--subset", default=None, help="group elements '(0,1);(1,1)' (default: all nonzero)")
    p = command("hilbert", source=False, help="Hilbert basis / minimal solutions of a system file")
    p.add_argument("--system", required=True, help="JSON {'matrix': .., 'relation': 'eq'|'geq', 'rhs': .., 'moduli': ..}")
    return parser


_PARSER = _build_parser()


def _run_command(args) -> str:
    if args.command == "block-monoid":
        try:
            moduli = [int(tok) for tok in args.moduli.replace(",", " ").split()]
        except ValueError:
            raise _UsageError(f"malformed moduli {args.moduli!r}") from None
        subset = [_parse_vector(p) for p in args.subset.split(";")] if args.subset is not None else None
        atoms = _tame.block_monoid(moduli, subset).generators
        payload = {"atoms": [list(a) for a in atoms], "moduli": moduli}
        lines = [_format_vector(a, False) for a in atoms]
        return _emit(args, payload, lines)

    if args.command == "hilbert":
        data = _load_json(args.system)
        if "matrix" not in data:
            raise _UsageError(f"{args.system}: need key 'matrix'")
        try:
            relation = Relation(data.get("relation", "eq"))
        except ValueError:
            raise _UsageError(f"{args.system}: 'relation' must be 'eq' or 'geq'") from None
        system = diophantine_system(
            data["matrix"], relation, data.get("rhs"), data.get("moduli")
        )
        if system.homogeneous:
            vectors = hilbert_basis(system)
        else:
            vectors = minimal_solutions(system)
        payload = {"solutions": [list(v) for v in vectors]}
        return _emit(args, payload, [_format_vector(v, False) for v in vectors])

    S = _semigroup_from_args(args)
    scalar = S.dim == 1

    if args.command == "factorizations":
        element = _parse_vector(args.element)
        facts = factorizations(S, element)
        if not facts:
            raise NotInSemigroupError(f"{args.element} is not in the semigroup")
        payload = {"element": _scalarize(S, element), "factorizations": [list(z) for z in facts]}
        return _emit(args, payload, [_format_vector(z, False) for z in facts])

    if args.command in ("length-set", "delta-element"):
        element = _parse_vector(args.element)
        values = length_set(S, element)
        if not values:
            raise NotInSemigroupError(f"{args.element} is not in the semigroup")
        key = "length_set"
        if args.command == "delta-element":
            key, values = "delta", delta_of_lengths(values)
        payload = {"element": _scalarize(S, element), key: list(values)}
        return _emit(args, payload, [" ".join(str(v) for v in values)])

    if args.command == "delta-set":
        fn = _delta.delta_set_hilbert if args.method == "hilbert" else _delta.delta_set_grobner
        values = fn(S)
        payload = {"delta_set": list(values)}
        return _emit(args, payload, [" ".join(str(v) for v in values)])

    if args.command == "min-presentation":
        relations = _presentation.minimal_presentation(S)
        payload = {"relations": [[list(z), list(w)] for z, w in relations]}
        lines = [f"{_format_vector(z, False)} {_format_vector(w, False)}" for z, w in relations]
        return _emit(args, payload, lines)

    if args.command == "betti":
        values = _presentation.betti_elements(S)
        payload = {"betti_elements": [_scalarize(S, v) for v in values]}
        return _emit(args, payload, [_format_vector(v, scalar) for v in values])

    if args.command == "graver":
        pairs = graver_basis(S)
        payload = {"pairs": [[list(z), list(w)] for z, w in pairs]}
        lines = [f"{_format_vector(z, False)} {_format_vector(w, False)}" for z, w in pairs]
        return _emit(args, payload, lines)

    if args.command == "catenary":
        element = _parse_vector(args.element)
        fn = _catenary.catenary_naive if args.method == "naive" else _catenary.catenary_dynamic
        value = fn(S, element)
        payload = {"catenary": value, "element": _scalarize(S, element)}
        return _emit(args, payload, [str(value)])

    if args.command == "catenary-range":
        if args.bound < 0:
            raise _UsageError("--bound must be nonnegative")
        entries = _catenary.catenary_range(S, args.bound)
        payload = {"catenary_range": [[g, c] for g, c in entries]}
        return _emit(args, payload, [f"{g} {c}" for g, c in entries])

    if args.command == "tame":
        if args.atom_index is not None:
            value = _tame.tame_i_full(S, args.atom_index)
        else:
            value = _tame.tame_full(S)
        payload = {"tame": value}
        return _emit(args, payload, [str(value)])

    raise AssertionError(f"unhandled command {args.command}")


def run(argv: Sequence[str]) -> tuple[int, str]:
    """Execute a command line; returns (exit code, stdout text).

    Diagnostics go to stderr; on error the output text is empty, never partial.
    """
    try:
        args = _PARSER.parse_args(list(argv))
        with step_limit(args.max_steps):
            output = _run_command(args)
    except _HelpRequested as exc:
        return EXIT_OK, exc.args[0]
    except (NotInSemigroupError, NotFullError, UnsupportedDimensionError) as exc:
        print(f"sgfact: error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC, ""
    except (ResourceLimitError, MemoryError) as exc:
        print(f"sgfact: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET, ""
    except SgfactError as exc:
        print(f"sgfact: error: {exc}", file=sys.stderr)
        return EXIT_USAGE, ""
    return EXIT_OK, output + ("\n" if output else "")


def main(argv: Sequence[str] | None = None) -> int:
    code, output = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
