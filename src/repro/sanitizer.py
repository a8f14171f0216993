"""Runtime determinism sanitizer — the dynamic half of the purity contract.

The static half (``repro lint --whole-program``, :mod:`repro.lint.purity`)
proves from source that nothing reachable from the purity roots reads the
wall clock, draws from a hidden global RNG, or mutates cross-session module
state.  Static analysis over-approximates; this module *under*-approximates
from the other side: with ``REPRO_SANITIZE=1`` the session path runs with
tripwires armed, and any impure act that actually executes raises
:class:`SanitizerViolation` at the exact call site.  A fixture that the
static pass flags must also trip here — ``tests/lint/test_purity_crosscheck``
holds the two halves together.

Tripwires (armed only *inside* a :func:`guard` scope, so pytest, hypothesis
and the import machinery are untouched):

* **wall clock** — ``time.time``/``perf_counter``/``monotonic``/
  ``process_time`` (and their ``_ns`` twins) are wrapped; a read inside the
  guard raises unless the calling line (or the line above it) carries a
  ``# repro: allow-...(reason)`` comment — the same inline allowances the
  static pass honours — or the caller lives in the quarantined
  :mod:`repro.obs` package.
* **hidden global RNGs** — module-level draws on :mod:`random` and
  ``numpy.random`` (the shared ``RandomState``) are wrapped the same way.
  Seeded ``random.Random`` / ``numpy`` ``Generator`` instances are
  untouched: per-session RNGs are the *contract*, not a violation.
* **seed registry** — every *materialized* seed (int or flat int tuple)
  passed to ``numpy.random.default_rng`` inside a guard is recorded with
  its call site; constructing a second generator from the **same** seed at
  a **different** site trips (two independent consumers drawing identical
  streams — the dynamic form of SEED002).  Same-site re-construction is
  exempt: rebuilding the same stream for replay is the reproducibility
  contract, not a bug.  The registry clears on entry to each outermost
  guard, so independent sessions never cross-talk.
* **process-boundary generators** — ``repro.experiment.parallel.fork_map``
  is wrapped: shipping a ``numpy`` ``Generator``/``RandomState`` across
  the fork boundary (directly, or inside a tuple/list/dict payload) trips
  inside a guard — the dynamic form of SEED004.  Only container structure
  is scanned, never object attributes: algorithm instances legitimately
  carry internal RNGs across the fork.
* **environment writes** — a :func:`sys.addaudithook` hook trips on
  ``os.putenv`` / ``os.unsetenv`` (which ``os.environ`` mutation routes
  through) and on files opened for writing inside the guard.  Audit hooks
  cannot be removed, so the hook consults module state and goes inert after
  :func:`uninstall`.
* **module-state mutation** — :func:`guard` digests the namespaces of the
  purity roots' host modules (:data:`SNAPSHOT_MODULES`) on entry and exit;
  a changed digest means the session leaked state into the process,
  exactly what PURE001 forbids statically.  The digest recurses
  simple values and in-module classes but reduces foreign instances to
  their type name — algorithm objects legitimately mutate *internal* state
  during a session.
* **hash-seed canary** — :func:`hash_canary` digests the iteration order of
  a fixed string set, which varies with ``PYTHONHASHSEED``.  It does not
  raise (simulation results are required to be hash-seed independent and
  the test suite proves it); runners log it so two runs can prove they
  shared a seed, and the cross-check test asserts it *differs* across
  subprocesses with different seeds.

``datetime.datetime.now`` and friends are static-only: wrapping methods of
C-implemented types is not supported, and DET002 already rejects them at
lint time.
"""

from __future__ import annotations

import hashlib
import linecache
import os
import sys
import types
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

ENV_FLAG = "REPRO_SANITIZE"

SNAPSHOT_MODULES = (
    "repro.experiment.harness",
    "repro.experiment.parallel",
    "repro.fleet.runner",
    "repro.fleet.retrain",
    "repro.streaming.fastpath",
    "repro.media.menus",
    "repro.edge.engine",
    "repro.edge.cells",
    "repro.edge.transport",
    "repro.edge.cache",
    "repro.edge.fairshare",
    "repro.edge.zipf",
)
"""Modules whose namespaces are digested around every guard scope.

The one definition: the self-arming :func:`guarded` path and
``repro sanitize-run`` both use it.  It must cover the host module of
every exact purity root in ``contract.json`` (a test holds the two
together); it stays a literal because the session path imports this
module and may not read files at import.
"""

_F = TypeVar("_F", bound=Callable[..., Any])


class SanitizerViolation(RuntimeError):
    """An impure act executed inside a sanitized session scope."""


# ---------------------------------------------------------------------------
# State.
# ---------------------------------------------------------------------------


@dataclass
class _SanitizerState:
    """Process-wide sanitizer bookkeeping (single-threaded by design)."""

    installed: bool = False
    depth: int = 0
    in_hook: bool = False
    snapshot_modules: Tuple[str, ...] = ()
    originals: Dict[str, Tuple[Any, str, Callable[..., Any]]] = field(
        default_factory=dict
    )
    seed_seen: Dict[Tuple[Any, ...], str] = field(default_factory=dict)
    """Normalized materialized seed -> first call site (cleared per guard)."""

    seed_log: List[Tuple[Tuple[Any, ...], str]] = field(default_factory=list)
    """Materialization order, for inspection by tests/tools."""


_STATE = _SanitizerState()
_AUDIT_HOOK_ADDED = False

# Wall-clock functions wrapped on the ``time`` module — mirrors the static
# DET002/PURE002 target list (minus datetime, see module docstring).
_TIME_FUNCTIONS = (
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
)

# Module-level draws on the stdlib's hidden global RNG (subset of the
# static ``_STDLIB_RANDOM_GLOBALS`` list that exists as module functions).
_RANDOM_FUNCTIONS = (
    "random",
    "uniform",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "seed",
    "getrandbits",
    "gauss",
    "normalvariate",
    "expovariate",
    "setstate",
)

# Module-level draws on numpy's shared legacy RandomState.
_NUMPY_RANDOM_FUNCTIONS = (
    "random",
    "rand",
    "randn",
    "randint",
    "random_sample",
    "uniform",
    "normal",
    "choice",
    "shuffle",
    "permutation",
    "seed",
)


def enabled() -> bool:
    """Is ``REPRO_SANITIZE`` requested in the environment?"""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def installed() -> bool:
    return _STATE.installed


def active() -> bool:
    """Are tripwires currently armed (installed *and* inside a guard)?"""
    return _STATE.installed and _STATE.depth > 0


# ---------------------------------------------------------------------------
# Allowance: the runtime honours the same inline comments as the linter.
# ---------------------------------------------------------------------------


def _frame_allowed(frame: types.FrameType) -> bool:
    """Does *frame*'s current line carry an inline lint allowance, or does
    the frame live in the quarantined observability package?"""
    filename = frame.f_code.co_filename
    normalized = filename.replace(os.sep, "/")
    if "/repro/obs/" in normalized or normalized.endswith("/repro/obs.py"):
        return True
    for lineno in (frame.f_lineno, frame.f_lineno - 1):
        if lineno <= 0:
            continue
        line = linecache.getline(filename, lineno)
        if "repro: allow-" in line:
            return True
    return False


def _trip(kind: str, name: str, frame: Optional[types.FrameType]) -> None:
    """Raise unless the calling site is allowed."""
    if frame is not None and _frame_allowed(frame):
        return
    location = "<unknown>"
    if frame is not None:
        location = f"{frame.f_code.co_filename}:{frame.f_lineno}"
    raise SanitizerViolation(
        f"{kind} via {name} inside a sanitized session scope at {location} "
        "— the purity contract (see EXPERIMENTS.md) forbids this on the "
        "session path; derive it from the session seed or add a reasoned "
        "'# repro: allow-...' comment"
    )


# ---------------------------------------------------------------------------
# Monkeypatch tripwires (wall clock + global RNGs).
# ---------------------------------------------------------------------------


def _wrap(
    module: Any, attr: str, kind: str, registry_key: str
) -> None:
    original = getattr(module, attr, None)
    if original is None or registry_key in _STATE.originals:
        return

    def tripwire(*args: Any, **kwargs: Any) -> Any:
        if _STATE.installed and _STATE.depth > 0:
            _trip(kind, registry_key, sys._getframe(1))
        return original(*args, **kwargs)

    tripwire.__name__ = getattr(original, "__name__", attr)
    tripwire.__qualname__ = tripwire.__name__
    tripwire.__doc__ = getattr(original, "__doc__", None)
    _STATE.originals[registry_key] = (module, attr, original)
    setattr(module, attr, tripwire)


def install(snapshot_modules: Sequence[str] = ()) -> None:
    """Arm the tripwires (idempotent).

    Patches stay benign outside :func:`guard` scopes: every wrapper defers
    straight to the original unless the guard depth is positive.
    """
    global _AUDIT_HOOK_ADDED
    if _STATE.installed:
        if snapshot_modules:
            _STATE.snapshot_modules = tuple(snapshot_modules)
        return
    import random as _random
    import time as _time

    for name in _TIME_FUNCTIONS:
        _wrap(_time, name, "wall-clock read", f"time.{name}")
    for name in _RANDOM_FUNCTIONS:
        _wrap(_random, name, "global-RNG draw", f"random.{name}")
    try:
        import numpy.random as _np_random
    except ImportError:  # pragma: no cover - numpy is a baked-in dep
        _np_random = None
    if _np_random is not None:
        for name in _NUMPY_RANDOM_FUNCTIONS:
            _wrap(
                _np_random, name, "global-RNG draw", f"numpy.random.{name}"
            )
        _wrap_unseeded_default_rng(_np_random)
    try:
        from repro.experiment import parallel as _parallel
    except ImportError:  # pragma: no cover - core package
        _parallel = None  # type: ignore[assignment]
    if _parallel is not None:
        _wrap_fork_map(_parallel)
    if not _AUDIT_HOOK_ADDED:
        sys.addaudithook(_audit_hook)
        _AUDIT_HOOK_ADDED = True
    _STATE.snapshot_modules = tuple(snapshot_modules)
    _STATE.installed = True


def _normalize_seed(seed: Any) -> Optional[Tuple[Any, ...]]:
    """Registry key for a materialized seed: ints and flat int tuples.

    Anything else (``None``, ``SeedSequence``, arrays, nested tuples) is
    not registered — the registry checks the repo's own seed idioms, not
    every value numpy happens to accept.
    """
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - numpy is a baked-in dep
        _np = None  # type: ignore[assignment]

    def as_int(value: Any) -> Optional[int]:
        if isinstance(value, bool):
            return None
        if isinstance(value, int):
            return int(value)
        if _np is not None and isinstance(value, _np.integer):
            return int(value)
        return None

    direct = as_int(seed)
    if direct is not None:
        return ("int", direct)
    if isinstance(seed, (tuple, list)):
        values: List[int] = []
        for item in seed:
            converted = as_int(item)
            if converted is None:
                return None
            values.append(converted)
        return ("tuple",) + tuple(values)
    return None


def _record_seed(seed: Any, frame: types.FrameType) -> None:
    """Register a materialized seed; trip on a duplicate at a new site."""
    key = _normalize_seed(seed)
    if key is None:
        return
    site = f"{frame.f_code.co_filename}:{frame.f_lineno}"
    prior = _STATE.seed_seen.get(key)
    if prior is None:
        _STATE.seed_seen[key] = site
        _STATE.seed_log.append((key, site))
    elif prior != site:
        _trip(
            "duplicate materialized seed",
            f"numpy.random.default_rng({seed!r}) "
            f"(first materialized at {prior})",
            frame,
        )


def seed_records() -> List[Tuple[Tuple[Any, ...], str]]:
    """Snapshot of the seed registry (normalized seed, first site)."""
    return list(_STATE.seed_log)


def _wrap_unseeded_default_rng(np_random: Any) -> None:
    """Trip *unseeded* ``numpy.random.default_rng()`` construction, and
    feed seeded constructions into the duplicate-seed registry.

    The dynamic counterpart of PURE003/DET001 (unseeded) and SEED002
    (duplicate): a seeded construction is the determinism contract, an
    entropy-seeded one silently breaks replay, and the *same* seed
    materialized at two distinct sites means two independent consumers
    draw identical streams.
    """
    registry_key = "numpy.random.default_rng"
    original = getattr(np_random, "default_rng", None)
    if original is None or registry_key in _STATE.originals:
        return

    def tripwire(seed: Any = None, *args: Any, **kwargs: Any) -> Any:
        if _STATE.installed and _STATE.depth > 0:
            if seed is None:
                _trip(
                    "unseeded RNG construction",
                    "numpy.random.default_rng()",
                    sys._getframe(1),
                )
            else:
                _record_seed(seed, sys._getframe(1))
        return original(seed, *args, **kwargs)

    tripwire.__name__ = "default_rng"
    tripwire.__qualname__ = "default_rng"
    tripwire.__doc__ = getattr(original, "__doc__", None)
    _STATE.originals[registry_key] = (np_random, "default_rng", original)
    np_random.default_rng = tripwire


def _contains_generator(value: Any, depth: int = 3) -> bool:
    """Is a ``Generator``/``RandomState`` visible in container structure?

    Deliberately shallow: tuples/lists/sets/dict-values only, never object
    attributes — fork payloads legitimately carry algorithm instances with
    internal RNGs, and those cross the boundary *inside* their owner.
    """
    try:
        import numpy.random as _np_random
    except ImportError:  # pragma: no cover - numpy is a baked-in dep
        return False
    if isinstance(value, (_np_random.Generator, _np_random.RandomState)):
        return True
    if depth <= 0:
        return False
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(_contains_generator(item, depth - 1) for item in value)
    if isinstance(value, dict):
        return any(
            _contains_generator(item, depth - 1) for item in value.values()
        )
    return False


def _wrap_fork_map(parallel: Any) -> None:
    """Trip when a numpy Generator crosses the fork boundary (SEED004's
    dynamic half).  The check precedes the call, so it fires even on the
    serial (``workers<=1``) fallback path."""
    registry_key = "repro.experiment.parallel.fork_map"
    original = getattr(parallel, "fork_map", None)
    if original is None or registry_key in _STATE.originals:
        return

    def tripwire(*args: Any, **kwargs: Any) -> Any:
        if _STATE.installed and _STATE.depth > 0:
            for value in list(args) + list(kwargs.values()):
                if _contains_generator(value):
                    _trip(
                        "generator crossed a process boundary",
                        "repro.experiment.parallel.fork_map(...)",
                        sys._getframe(1),
                    )
                    break
        return original(*args, **kwargs)

    tripwire.__name__ = "fork_map"
    tripwire.__qualname__ = "fork_map"
    tripwire.__doc__ = getattr(original, "__doc__", None)
    _STATE.originals[registry_key] = (parallel, "fork_map", original)
    parallel.fork_map = tripwire


def uninstall() -> None:
    """Restore every patched function; the audit hook goes inert."""
    for module, attr, original in _STATE.originals.values():
        setattr(module, attr, original)
    _STATE.originals.clear()
    _STATE.installed = False
    _STATE.depth = 0
    _STATE.seed_seen.clear()
    _STATE.seed_log.clear()


# ---------------------------------------------------------------------------
# Audit-hook tripwires (environment + filesystem writes).
# ---------------------------------------------------------------------------

_WRITE_MODE_CHARS = ("w", "a", "x", "+")


def _user_frame() -> Optional[types.FrameType]:
    """First caller frame outside this module and the import machinery."""
    frame: Optional[types.FrameType] = sys._getframe(1)
    here = __file__
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename != here and not filename.startswith("<frozen"):
            return frame
        frame = frame.f_back
    return None


def _audit_hook(event: str, args: Tuple[Any, ...]) -> None:
    if not _STATE.installed or _STATE.depth <= 0 or _STATE.in_hook:
        return
    _STATE.in_hook = True
    try:
        if event in ("os.putenv", "os.unsetenv"):
            _trip("environment write", event, _user_frame())
        elif event == "open":
            mode = args[1] if len(args) > 1 else "r"
            if isinstance(mode, str) and any(
                ch in mode for ch in _WRITE_MODE_CHARS
            ):
                _trip(
                    "file opened for writing",
                    f"open({args[0]!r}, {mode!r})",
                    _user_frame(),
                )
    finally:
        _STATE.in_hook = False


# ---------------------------------------------------------------------------
# Module-namespace snapshots (the dynamic PURE001 check).
# ---------------------------------------------------------------------------

_SNAPSHOT_DEPTH = 4


def _stable_repr(value: Any, module_name: str, depth: int = 0) -> str:
    """Digestible representation of a module-global value.

    Simple values and containers recurse; classes *defined in* the module
    being snapshotted expose their instance ``__dict__`` (that is where
    session-leaking caches live); foreign objects reduce to their type name
    so legitimate internal mutation (algorithm state, RNG state) does not
    fire the tripwire.
    """
    if depth > _SNAPSHOT_DEPTH:
        return "<depth>"
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        open_, close = ("[", "]") if isinstance(value, list) else ("(", ")")
        inner = ", ".join(
            _stable_repr(item, module_name, depth + 1) for item in value
        )
        return f"{open_}{inner}{close}"
    if isinstance(value, dict):
        items = sorted(
            (
                _stable_repr(k, module_name, depth + 1),
                _stable_repr(v, module_name, depth + 1),
            )
            for k, v in value.items()
        )
        inner = ", ".join(f"{k}: {v}" for k, v in items)
        return f"{{{inner}}}"
    if isinstance(value, (set, frozenset)):
        inner = ", ".join(
            sorted(_stable_repr(item, module_name, depth + 1) for item in value)
        )
        return f"set({inner})"
    if isinstance(value, type):
        head = f"<class {value.__module__}.{value.__qualname__}"
        if value.__module__ == module_name:
            attrs = []
            for name, item in sorted(vars(value).items()):
                if name.startswith("__") or callable(item):
                    continue
                if isinstance(item, (classmethod, staticmethod, property)):
                    continue
                attrs.append(
                    f"{name}={_stable_repr(item, module_name, depth + 1)}"
                )
            if attrs:
                return head + " " + ", ".join(attrs) + ">"
        return head + ">"
    if isinstance(value, types.ModuleType):
        return f"<module {value.__name__}>"
    if callable(value) and hasattr(value, "__qualname__"):
        return f"<callable {value.__module__}.{value.__qualname__}>"
    cls = type(value)
    if cls.__module__ == module_name and hasattr(value, "__dict__"):
        inner = ", ".join(
            f"{name}={_stable_repr(item, module_name, depth + 1)}"
            for name, item in sorted(vars(value).items())
        )
        return f"<{cls.__qualname__} {inner}>"
    return f"<{cls.__module__}.{cls.__qualname__}>"


def snapshot_digest(module_name: str) -> str:
    """Digest of one module's global namespace (imported modules only)."""
    module = sys.modules.get(module_name)
    if module is None:
        return "<unloaded>"
    digest = hashlib.sha256()
    for name in sorted(vars(module)):
        if name.startswith("__"):
            continue
        digest.update(name.encode("utf-8"))
        digest.update(b"=")
        digest.update(
            _stable_repr(vars(module)[name], module_name).encode(
                "utf-8", "backslashreplace"
            )
        )
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def snapshot_digests(module_names: Sequence[str]) -> Dict[str, str]:
    return {name: snapshot_digest(name) for name in module_names}


# ---------------------------------------------------------------------------
# Hash-seed canary.
# ---------------------------------------------------------------------------

_CANARY_TOKENS = frozenset(
    {
        "fugu",
        "bba",
        "bola",
        "mpc_hm",
        "robust_mpc",
        "pensieve",
        "rate_based",
        "oboe",
        "cs2p",
        "puffer",
        "emulator",
        "in_situ",
    }
)


def hash_canary() -> str:
    """Digest of a fixed string set's iteration order.

    Set iteration order over strings depends on ``PYTHONHASHSEED``; two
    processes that disagree on the canary cannot be expected to agree on
    any hash-ordered iteration.  The simulator is required to be hash-seed
    independent, so this is a *diagnostic*, not a tripwire.
    """
    digest = hashlib.sha256()
    for token in _CANARY_TOKENS:
        digest.update(token.encode("utf-8"))
        digest.update(b"|")
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Guard scope.
# ---------------------------------------------------------------------------


@contextmanager
def guard(label: str = "session") -> Iterator[None]:
    """Arm the tripwires for the duration of one pure-region call.

    No-op when :func:`install` has not run.  On exit the snapshot modules'
    namespace digests must match their entry values — a mismatch is the
    dynamic form of PURE001 (module state leaked out of the session).
    """
    if not _STATE.installed:
        yield
        return
    if _STATE.depth == 0:
        # Outermost guard: independent sessions must not see each other's
        # materialized seeds (replaying a session *is* the contract).
        _STATE.seed_seen.clear()
        _STATE.seed_log.clear()
    before = snapshot_digests(_STATE.snapshot_modules)
    _STATE.depth += 1
    try:
        yield
    finally:
        _STATE.depth -= 1
        after = snapshot_digests(_STATE.snapshot_modules)
        changed = sorted(
            name for name in before if before[name] != after.get(name)
        )
        if changed:
            raise SanitizerViolation(
                f"module state mutated during sanitized {label}: "
                f"{', '.join(changed)} — session code must not write "
                "module globals (dynamic PURE001)"
            )


def guarded(label: str) -> Callable[[_F], _F]:
    """Decorator form of :func:`guard` for pure entrypoints.

    The wrapper is free when the sanitizer is not installed (one attribute
    check), so production entrypoints carry it unconditionally.
    """

    def decorate(fn: _F) -> _F:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _STATE.installed:
                # Self-arming under REPRO_SANITIZE=1: a process (a pytest
                # run, a worker forked from an unarmed parent) reaches the
                # entrypoint without anyone having called install() in it.
                if not enabled():
                    return fn(*args, **kwargs)
                install(SNAPSHOT_MODULES)
            with guard(label):
                return fn(*args, **kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__module__ = fn.__module__
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate


def install_from_env(snapshot_modules: Sequence[str] = ()) -> bool:
    """Install iff ``REPRO_SANITIZE`` is set; returns whether installed."""
    if enabled():
        install(snapshot_modules)
        return True
    return False
