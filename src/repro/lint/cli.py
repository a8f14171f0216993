"""``repro lint`` — command-line entry point for the determinism linter.

Exit codes: 0 clean, 1 findings, 2 usage error (a malformed contract
included).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.lint.contract import DEFAULT_CONTRACT_PATH, load_contract
from repro.lint.engine import iter_rule_docs, lint_paths


_DESCRIPTION = (
    "Statically enforce the determinism contract: seeded RNG only "
    "(DET001), no wall-clock in simulation paths (DET002), no "
    "hash-order iteration (DET003), no float equality in simulator "
    "branches (SIM001), guarded metric emission (OBS001), no "
    "mutable default arguments (API001).  With --whole-program, "
    "also run the interprocedural rules (purity, seed lineage, "
    "checkpoint coverage, durability) declared in contract.json."
)


def add_subcommand(
    commands: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> None:
    """Add ``lint`` to ``repro``'s parser."""
    parser = commands.add_parser(
        "lint",
        help="AST-based determinism & correctness linter",
        description=_DESCRIPTION,
    )
    add_lint_arguments(parser)
    parser.set_defaults(func=run_lint)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["human", "json"],
        default="human",
        help="report format",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    parser.add_argument(
        "--whole-program",
        action="store_true",
        help=(
            "also run the interprocedural rules (PURE, SEED, CKPT, DUR) "
            "the contract's sections turn on"
        ),
    )
    parser.add_argument(
        "--contract",
        default=None,
        metavar="FILE",
        help=(
            "contract file for the whole-program rules; implies "
            f"--whole-program (default: {DEFAULT_CONTRACT_PATH} in the "
            "current directory)"
        ),
    )


def run_lint(args: argparse.Namespace) -> int:
    if args.rules:
        for line in iter_rule_docs():
            print(line)
        return 0
    select: Optional[List[str]] = None
    if args.select:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
    try:
        contract = (
            load_contract(args.contract or DEFAULT_CONTRACT_PATH)
            if args.whole_program or args.contract is not None
            else None
        )
        report = lint_paths(args.paths, select=select, contract=contract)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_human())
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint", description=_DESCRIPTION
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    return run_lint(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
