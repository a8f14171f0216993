"""Finding objects produced by lint rules.

A :class:`Finding` pins a rule violation to a ``file:line:col`` location and
carries everything the reporting layer needs: the human message, the source
line, and whether the finding was silenced by an inline suppression.

Fingerprints deliberately exclude the line *number*: they hash the rule id,
the file's path relative to the lint root, and the stripped source text of
the offending line, so a finding keeps its identity across edits elsewhere
in the file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    source_line: str = ""
    suppressed: bool = field(default=False, compare=False)
    suppression_reason: str = field(default="", compare=False)

    @property
    def content_hash(self) -> str:
        """Hash of the offending line's stripped text (line-number free)."""
        text = self.source_line.strip()
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def fingerprint(self) -> str:
        """Identity key: stable across pure line-number shifts."""
        return f"{self.rule}:{self.path}:{self.content_hash}"

    def format_human(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "source_line": self.source_line,
            "fingerprint": self.fingerprint(),
            "suppressed": self.suppressed,
            "suppression_reason": self.suppression_reason,
        }

    def sort_key(self) -> "tuple[str, int, int, str]":
        return (self.path, self.line, self.col, self.rule)
