"""Inline suppression comments.

Syntax::

    some_call()  # repro: allow-DET002(wall-clock throughput report)

A suppression silences findings of the named rule on its own physical line;
a comment that stands alone on a line silences the *next* non-blank,
non-comment line as well, so long call chains can carry the annotation
above them.  The parenthesized reason is mandatory — a suppression without
one is itself reported as ``LINT000`` so the waiver trail stays auditable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding

MALFORMED_RULE_ID = "LINT000"

_SUPPRESSION = re.compile(
    r"repro:\s*allow-(?P<rule>[A-Z]+[0-9]+)"
    r"(?:\((?P<reason>[^)]*)\))?"
)
_COMMENT_ONLY = re.compile(r"^\s*#")
_BLANK = re.compile(r"^\s*$")


@dataclass(frozen=True)
class Suppression:
    rule: str
    reason: str
    line: int
    """Physical line the comment sits on (1-based)."""


def parse_suppressions(
    lines: Sequence[str], path: str
) -> Tuple[Dict[int, List[Suppression]], List[Finding]]:
    """Map ``line -> suppressions effective there``; plus malformed findings.

    The map contains the comment's own line and, for standalone comment
    lines, the next non-blank non-comment line.
    """
    effective: Dict[int, List[Suppression]] = {}
    malformed: List[Finding] = []
    for index, raw in enumerate(lines):
        lineno = index + 1
        # Only look inside the comment portion of the line; several
        # suppressions may share one `#`:
        #   x()  # repro: allow-A(a) repro: allow-B(b)
        hash_index = raw.find("#")
        if hash_index < 0:
            continue
        comment = raw[hash_index:]
        for match in _SUPPRESSION.finditer(comment):
            reason = match.group("reason")
            if reason is None or not reason.strip():
                malformed.append(
                    Finding(
                        rule=MALFORMED_RULE_ID,
                        path=path,
                        line=lineno,
                        col=hash_index + match.start(),
                        message=(
                            f"suppression of {match.group('rule')} is "
                            "missing its reason — write "
                            f"`# repro: allow-{match.group('rule')}"
                            "(why this is safe)`"
                        ),
                        source_line=raw,
                    )
                )
                continue
            supp = Suppression(
                rule=match.group("rule"),
                reason=reason.strip(),
                line=lineno,
            )
            effective.setdefault(lineno, []).append(supp)
            if _COMMENT_ONLY.match(raw):
                target = _next_code_line(lines, index)
                if target is not None:
                    effective.setdefault(target, []).append(supp)
    return effective, malformed


def _next_code_line(lines: Sequence[str], comment_index: int) -> Optional[int]:
    for later in range(comment_index + 1, len(lines)):
        if _BLANK.match(lines[later]) or _COMMENT_ONLY.match(lines[later]):
            continue
        return later + 1
    return None


def apply_suppressions(
    findings: Sequence[Finding],
    effective: Dict[int, List[Suppression]],
) -> List[Finding]:
    """Return findings with matching ones marked ``suppressed``."""
    out: List[Finding] = []
    for finding in findings:
        reasons = [
            supp.reason
            for supp in effective.get(finding.line, [])
            if supp.rule == finding.rule
        ]
        out.append(
            replace(finding, suppressed=True, suppression_reason=reasons[0])
            if reasons
            else finding
        )
    return out
