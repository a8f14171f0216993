"""Write-effect extraction for the durability rules (DUR001-DUR004).

A *write effect* is one durability-relevant filesystem operation a
function performs, classified from the AST: open-for-write / append /
update, ``pathlib`` write methods, ``os.replace``/``os.rename``,
``os.fsync`` (split into file syncs — the ``os.fsync(f.fileno())``
idiom — and everything else, which in this tree means directory fds),
``truncate``, the read-side counterparts, and calls into the blessed
atomic-write helpers of :mod:`repro.atomio`.

The durability rules in :mod:`repro.lint.rules_durability` interpret
these effects for every function reachable from the declared durable
roots; this module stays policy-free so the extraction is reusable and
separately testable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from repro.lint.base import dotted_name
from repro.lint.callgraph import FunctionInfo

#: Effect kinds.
OPEN_WRITE = "open-write"  # open(..., "w"/"a"/"x"): truncate/create/append
OPEN_UPDATE = "open-update"  # open(..., "r+"/"rb+"/...): in-place update
OPEN_READ = "open-read"
PATH_WRITE = "path-write"  # Path.write_text / Path.write_bytes
PATH_READ = "path-read"  # Path.read_text / Path.read_bytes
RENAME = "rename"  # os.replace / os.rename / os.renames / shutil.move
FSYNC_FILE = "fsync-file"  # os.fsync(handle.fileno())
FSYNC_OTHER = "fsync-other"  # os.fsync(fd) — a directory or raw fd
TRUNCATE = "truncate"  # handle.truncate(...)
HELPER = "helper"  # call into a blessed atomic-write helper

_OPEN_TARGETS = frozenset({"open", "builtins.open", "io.open"})
_RENAME_TARGETS = frozenset(
    {"os.replace", "os.rename", "os.renames", "shutil.move"}
)
_FSYNC_TARGETS = frozenset({"os.fsync", "os.fdatasync"})
_PATH_WRITE_METHODS = frozenset({"write_text", "write_bytes"})
_PATH_READ_METHODS = frozenset({"read_text", "read_bytes"})


@dataclass(frozen=True)
class WriteEffect:
    """One classified filesystem operation inside a function body."""

    kind: str
    line: int
    col: int
    detail: str
    """Mode string (opens), resolved target (renames/fsyncs/helpers) or
    method name (pathlib/truncate)."""

    target: str
    """Source text of the path/receiver expression (best effort; ``""``
    when unknown).  Used by DUR004 to pair a read with a raw rewrite of
    the same expression."""


@dataclass(frozen=True)
class CallSite:
    """One call expression, with enough naming to match commit-order
    pair declarations (DUR003)."""

    name: str
    """Last component of the call target (``save`` for ``manager.save``)."""

    dotted: Optional[str]
    """Textual dotted chain (``self._write_manifest``), when renderable."""

    resolved: Optional[str]
    """Import-resolved qualname; ``self.<method>`` calls resolve against
    the owning class."""

    line: int
    col: int


def _source_text(node: ast.AST) -> str:
    try:
        return ast.unparse(node).strip()
    except Exception:  # pragma: no cover - unparse is total on py>=3.9
        return ""


def _open_mode(node: ast.Call) -> str:
    """The literal mode argument of an ``open`` call (default ``"r"``)."""
    mode_node: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if isinstance(mode_node, ast.Constant) and isinstance(
        mode_node.value, str
    ):
        return mode_node.value
    return "r"


def _first_arg_text(node: ast.Call) -> str:
    if node.args:
        return _source_text(node.args[0])
    for keyword in node.keywords:
        if keyword.arg == "file":
            return _source_text(keyword.value)
    return ""


def _is_fileno_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "fileno"
    )


def function_effects(
    fn: FunctionInfo, atomic_helpers: FrozenSet[str]
) -> List[WriteEffect]:
    """Every write effect in *fn*'s body (nested defs included), in
    source order."""
    effects: List[WriteEffect] = []
    for node, resolved in fn.calls.items():
        line = int(node.lineno)
        col = int(node.col_offset)
        if resolved is not None and resolved in atomic_helpers:
            effects.append(
                WriteEffect(
                    HELPER, line, col, resolved, _first_arg_text(node)
                )
            )
            continue
        if resolved in _RENAME_TARGETS:
            destination = (
                _source_text(node.args[1]) if len(node.args) >= 2 else ""
            )
            effects.append(
                WriteEffect(RENAME, line, col, str(resolved), destination)
            )
            continue
        if resolved in _FSYNC_TARGETS:
            file_sync = bool(node.args) and _is_fileno_call(node.args[0])
            effects.append(
                WriteEffect(
                    FSYNC_FILE if file_sync else FSYNC_OTHER,
                    line,
                    col,
                    str(resolved),
                    _first_arg_text(node),
                )
            )
            continue
        if resolved in _OPEN_TARGETS:
            mode = _open_mode(node)
            if any(c in mode for c in "wax"):
                kind = OPEN_WRITE
            elif "+" in mode:
                kind = OPEN_UPDATE
            else:
                kind = OPEN_READ
            effects.append(
                WriteEffect(kind, line, col, mode, _first_arg_text(node))
            )
            continue
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            receiver = _source_text(node.func.value)
            if attr in _PATH_WRITE_METHODS:
                effects.append(
                    WriteEffect(PATH_WRITE, line, col, attr, receiver)
                )
            elif attr in _PATH_READ_METHODS:
                effects.append(
                    WriteEffect(PATH_READ, line, col, attr, receiver)
                )
            elif attr == "truncate":
                effects.append(
                    WriteEffect(TRUNCATE, line, col, attr, receiver)
                )
    effects.sort(key=lambda e: (e.line, e.col))
    return effects


def function_calls(fn: FunctionInfo) -> List[CallSite]:
    """Every call in *fn*'s body, named for commit-order matching."""
    sites: List[CallSite] = []
    for node, resolved in fn.calls.items():
        dotted = dotted_name(node.func)
        if (
            dotted is not None
            and dotted.startswith("self.")
            and dotted.count(".") == 1
            and fn.class_name is not None
        ):
            resolved = (
                f"{fn.module}.{fn.class_name}.{dotted.split('.', 1)[1]}"
            )
        if dotted is not None:
            name = dotted.rsplit(".", 1)[-1]
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        else:
            continue
        sites.append(
            CallSite(
                name=name,
                dotted=dotted,
                resolved=resolved,
                line=int(node.lineno),
                col=int(node.col_offset),
            )
        )
    sites.sort(key=lambda s: (s.line, s.col))
    return sites
