"""The checked-in contract file and its one loader.

``contract.json`` at the repo root declares everything the whole-program
lint phase checks against, in one versioned file with three sections::

    {
      "version": 2,
      "purity": {
        "roots": ["repro.experiment.harness.run_session", ...],
        "method_roots": ["repro.abr.base.AbrAlgorithm.choose"],
        "quarantine": ["repro.obs", "repro.sanitizer"]
      },
      "fingerprint": {
        "classes": {
          "repro.fleet.runner.FleetConfig": {
            "fingerprint": ["repro.fleet.runner.FleetConfig.fingerprint"],
            "exclude": {"chunk_sessions": "any cadence reproduces the dump"}
          }
        }
      },
      "durability": {
        "roots": ["repro.fleet.checkpoint.CheckpointManager.save", ...],
        "atomic_helpers": ["repro.atomio.atomic_write_bytes", ...],
        "exempt": ["repro.atomio", "repro.crashpoints"],
        "commit_order": [
          {"first": "<data write>", "then": "<pointer write>",
           "reason": "why the pointer must land second"}
        ]
      }
    }

``purity`` is required (:class:`repro.lint.purity.PurityConfig`: the
PURE rules' region and the call graph's quarantine).  ``fingerprint``
(:class:`repro.lint.rules_ckpt.FingerprintExclusions`) turns on CKPT001
and ``durability`` (:class:`repro.lint.rules_durability.DurabilityConfig`)
the DUR rules: the sections present decide which rule families run.

The loader is strict.  An unknown key, a wrong type or a missing required
field raises :class:`ContractError` naming the file and the key path
(``durability.commit_order[0].first``): a typo must never silently shrink
a checked region.  Whether the declared names exist in the linted tree is
:func:`repro.lint.purity.resolve_contract`'s to check (PURE000 / CKPT000
/ DUR000).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.lint.purity import PurityConfig
from repro.lint.rules_ckpt import ClassCoverage, FingerprintExclusions
from repro.lint.rules_durability import CommitOrderPair, DurabilityConfig

CONTRACT_VERSION = 2
DEFAULT_CONTRACT_PATH = "contract.json"


class ContractError(ValueError):
    """A malformed contract; the message names the file and key path."""


@dataclass(frozen=True)
class Contract:
    """The parsed contract: one config per whole-program rule family."""

    purity: PurityConfig
    fingerprint: Optional[FingerprintExclusions] = None
    durability: Optional[DurabilityConfig] = None


def _wrong(key: str, expected: str, value: Any) -> ContractError:
    return ContractError(
        f"{key or 'top level'}: expected {expected}, got "
        f"{type(value).__name__}"
    )


def _object(value: Any, key: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise _wrong(key, "an object", value)
    return value


def _list(value: Any, key: str) -> List[Any]:
    if not isinstance(value, list):
        raise _wrong(key, "a list", value)
    return value


def _table(
    value: Any,
    key: str,
    required: Tuple[str, ...],
    optional: Tuple[str, ...] = (),
) -> Dict[str, Any]:
    table = _object(value, key)
    prefix = f"{key}." if key else ""
    for name in table:
        if name not in required and name not in optional:
            raise ContractError(f"{prefix}{name}: unknown key")
    for name in required:
        if name not in table:
            raise ContractError(f"{prefix}{name}: missing required key")
    return table


def _text(value: Any, key: str) -> str:
    if not isinstance(value, str):
        raise _wrong(key, "a string", value)
    return value


def _names(value: Any, key: str) -> Tuple[str, ...]:
    return tuple(
        _text(item, f"{key}[{i}]") for i, item in enumerate(_list(value, key))
    )


def _purity(data: Any, source: str) -> PurityConfig:
    section = _table(
        data, "purity", ("roots",), ("method_roots", "quarantine")
    )
    return PurityConfig(
        roots=_names(section["roots"], "purity.roots"),
        method_roots=_names(
            section.get("method_roots", []), "purity.method_roots"
        ),
        quarantine=_names(section.get("quarantine", []), "purity.quarantine"),
        source_path=source,
    )


def _fingerprint(data: Any, source: str) -> FingerprintExclusions:
    section = _table(data, "fingerprint", ("classes",))
    classes = _object(section["classes"], "fingerprint.classes")
    coverage: Dict[str, ClassCoverage] = {}
    for qualname, spec in classes.items():
        key = f'fingerprint.classes["{qualname}"]'
        spec = _table(spec, key, ("fingerprint",), ("exclude",))
        exclude = _object(spec.get("exclude", {}), f"{key}.exclude")
        coverage[qualname] = ClassCoverage(
            fingerprint=_names(spec["fingerprint"], f"{key}.fingerprint"),
            exclude={
                name: _text(reason, f"{key}.exclude.{name}")
                for name, reason in exclude.items()
            },
        )
    return FingerprintExclusions(classes=coverage, source_path=source)


def _durability(data: Any, source: str) -> DurabilityConfig:
    section = _table(
        data,
        "durability",
        ("roots",),
        ("atomic_helpers", "exempt", "commit_order"),
    )
    entries = _list(
        section.get("commit_order", []), "durability.commit_order"
    )
    pairs: List[CommitOrderPair] = []
    for i, entry in enumerate(entries):
        key = f"durability.commit_order[{i}]"
        entry = _table(entry, key, ("first", "then", "reason"))
        pairs.append(
            CommitOrderPair(
                first=_text(entry["first"], f"{key}.first"),
                then=_text(entry["then"], f"{key}.then"),
                reason=_text(entry["reason"], f"{key}.reason"),
            )
        )
    return DurabilityConfig(
        roots=_names(section["roots"], "durability.roots"),
        atomic_helpers=_names(
            section.get("atomic_helpers", []), "durability.atomic_helpers"
        ),
        exempt=_names(section.get("exempt", []), "durability.exempt"),
        commit_order=tuple(pairs),
        source_path=source,
    )


def load_contract(path: Union[str, Path]) -> Contract:
    """Read and validate *path*; raises :class:`ContractError`."""
    source = Path(path).as_posix()
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ContractError(
            f"{source}: cannot read: {exc.strerror or exc}"
        ) from None
    except ValueError as exc:
        raise ContractError(f"{source}: invalid JSON: {exc}") from None
    try:
        data = _table(
            data, "", ("version", "purity"), ("fingerprint", "durability")
        )
        version = data["version"]
        if type(version) is not int or version != CONTRACT_VERSION:
            raise ContractError(
                f"version: unsupported version {version!r} (expected "
                f"{CONTRACT_VERSION})"
            )
        return Contract(
            purity=_purity(data["purity"], source),
            fingerprint=(
                _fingerprint(data["fingerprint"], source)
                if "fingerprint" in data
                else None
            ),
            durability=(
                _durability(data["durability"], source)
                if "durability" in data
                else None
            ),
        )
    except ContractError as exc:
        raise ContractError(f"{source}: {exc}") from None
