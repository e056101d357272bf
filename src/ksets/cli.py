"""Command-line surface.

Exit codes: 0 when the checked property holds or the construction succeeds,
1 when a checked property fails (e.g. the set is colorable), 2 on usage
errors, 3 on invalid input.  All reports are plain text, one fact per line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import catalog, construct
from .construct import reduce_critical, table_recipe
from .errors import KSError, SetSyntaxError
from .model import KSSet, symbol
from .setfile import parse, serialize
from .verify import Mode, export_cnf, find_assignment, is_critical, is_parity


def _load_set(ref: str) -> KSSet:
    """Resolve a catalog (or seed) name, else read a set file from disk."""
    if ref in catalog.NAMES or ref in catalog.SEED_NAMES:
        return catalog.seed_set(ref)
    path = Path(ref)
    if not path.exists():
        raise KSError(f"{ref!r} is neither a catalog name nor an existing file")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise SetSyntaxError(f"{ref!r} is not UTF-8 text: {exc.reason}") from None
    except OSError as exc:  # a directory, an unreadable file
        raise KSError(f"cannot read {ref!r}: {exc.strerror}") from None
    return parse(text, name=path.stem)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_verify(args) -> int:
    s = _load_set(args.set)
    mode = Mode(args.mode)
    print("valid: yes")
    print(f"symbol: {symbol(s).detailed}")
    print(f"mode: {mode.value}")
    witness = find_assignment(s, mode)
    uncolorable = witness is None
    print(f"KS: {_yesno(uncolorable)}")
    print(f"parity: {_yesno(is_parity(s))}")
    if not uncolorable:
        print("witness:")
        print(witness.lines())
        return 1
    if not args.no_critical:
        report = is_critical(s, mode)
        print(
            f"critical: {_yesno(report.overall)} "
            f"({report.n_colorable}/{len(report.removals)} removals colorable)"
        )
    return 0


def _cmd_symbol(args) -> int:
    s = _load_set(args.set)
    sym = symbol(s)
    print(f"compact: {sym.compact}")
    print(f"detailed: {sym.detailed}")
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name, dimension, compact in catalog.listing():
            print(f"{name} d={dimension} {compact}")
        return 0
    if not args.name:
        print("catalog show/export requires a name", file=sys.stderr)
        return 2
    entry = catalog.get(args.name)
    if args.action == "export":
        sys.stdout.write(serialize(entry.set))
        return 0
    print(f"name: {entry.name}")
    print(f"dimension: {entry.dimension}")
    print(f"compact: {entry.expected_compact}")
    print(f"symbol: {entry.expected_symbol}")
    print(f"projectors: {entry.set.n_projectors}")
    print(f"contexts: {entry.set.n_contexts}")
    print(f"KS: {_yesno(entry.expected_ks)}")
    print(f"parity: {_yesno(entry.expected_parity)}")
    print(f"critical: {_yesno(entry.expected_critical)} "
          f"({entry.critical_mode.value} mode)")
    print(f"provenance: {entry.provenance}")
    return 0


def _parse_pairing(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) - 1 for tok in text.split(","))
    except ValueError:
        raise ValueError(
            f"--pairing takes a comma list of integers, got {text!r}") from None


# The construction each method runs; construct.OPERANDS gives its operands.
_CONSTRUCT_METHODS = {
    "pz": "pz_improved",
    "pz-basic": "pz_basic",
    "scale": "rank_scale",
    "ceg": "ceg",
    "matsuno": "matsuno",
}


def _operand(kind: str, text: str):
    if kind == "SET":
        return _load_set(text)
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{kind} must be an integer, got {text!r}") from None


def _cmd_construct(args) -> int:
    name = _CONSTRUCT_METHODS[args.method]
    kinds = construct.OPERANDS[name]
    if len(args.args) != len(kinds):
        raise ValueError(
            f"construct {args.method} takes {' '.join(kinds)}, "
            f"got {len(args.args)} argument(s)")
    if args.pairing is not None and args.method != "pz":
        raise ValueError(f"--pairing applies to construct pz only, not {args.method}")
    operands = [_operand(kind, text) for kind, text in zip(kinds, args.args)]
    if args.pairing is not None:
        operands.append(_parse_pairing(args.pairing))
    # Looked up at call time, so that a rebound module attribute (the
    # benchmark's tracer rebinds them) sees the call.
    out = getattr(construct, name)(*operands)
    sys.stdout.write(serialize(out))
    return 0


def _cmd_reduce(args) -> int:
    out = reduce_critical(_load_set(args.set), Mode(args.mode))
    sys.stdout.write(serialize(out))
    return 0


def _cmd_table(args) -> int:
    for recipe in table_recipe(args.dimension):
        print(
            f"d={recipe.dimension} {recipe.row} "
            f"general={recipe.general_symbol or '-'} "
            f"rank1={recipe.rank1_symbol or '-'} "
            f"{'critical' if recipe.critical else 'noncritical'}"
        )
    return 0


def _cmd_export_cnf(args) -> int:
    s = _load_set(args.set)
    sys.stdout.write(export_cnf(s, Mode(args.mode)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksets",
        description="verify and construct Kochen-Specker sets with exact arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check KS property, parity and criticality")
    p.add_argument("set", help="catalog name or set file")
    p.add_argument("--mode", choices=["full", "context"], default="full")
    p.add_argument("--no-critical", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("symbol", help="print compact and detailed symbols")
    p.add_argument("set")
    p.set_defaults(func=_cmd_symbol)

    p = sub.add_parser("catalog", help="list, show or export stored sets")
    p.add_argument("action", choices=["list", "show", "export"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("construct", help="run a construction method")
    p.add_argument("method", choices=list(_CONSTRUCT_METHODS))
    p.add_argument("args", nargs="+", help="; ".join(
        f"{method}: {' '.join(construct.OPERANDS[name])}"
        for method, name in _CONSTRUCT_METHODS.items()))
    p.add_argument("--pairing", help="comma list: small-set context per large context (1-based)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("reduce", help="greedily remove contexts to a critical core")
    p.add_argument("set")
    p.add_argument("--mode", choices=["full", "context"], default="full")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("table", help="known-set recipes for a dimension")
    p.add_argument("dimension", type=int)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("export-cnf", help="DIMACS encoding of the coloring problem")
    p.add_argument("set")
    p.add_argument("--mode", choices=["full", "context"], default="full")
    p.set_defaults(func=_cmd_export_cnf)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:  # console entry point
    sys.exit(main())
