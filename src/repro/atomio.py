"""repro.atomio — the blessed crash-safe file-write helper.

One implementation of the full atomic-publish protocol — tmp file in
the same directory, write, flush, ``fsync`` the file, ``os.replace``
over the target, ``fsync`` the parent directory.  There is no
non-durable variant: every write fsyncs.

Every durable writer in the tree (fleet checkpoint, model registry
generation + manifest, metrics dump, archive day tables, trained-model
output) routes through here, and the whole-program linter enforces
exactly that: ``repro lint --whole-program`` flags any raw write
reachable from the durable roots declared in the ``durability`` section
of ``contract.json`` (rule DUR001), and this module's two public
functions are the only writers that section blesses.

Crash points: every write passes three numbered
:func:`repro.crashpoints.crashpoint` markers — ``begin`` (nothing
written), ``pre-rename`` (tmp durable, target untouched) and
``post-rename`` (new content durable) — so the ``repro crash-matrix``
harness can kill a fleet run inside every window of the protocol and
prove recovery is byte-identical.  Labels use the target's basename
only, keeping the point sequence deterministic across run directories.
"""

from __future__ import annotations

import os
from typing import Union

from repro.crashpoints import crashpoint

PathLike = Union[str, "os.PathLike[str]"]


def _fsync_directory(directory: str) -> None:
    """Make a just-completed rename durable (sync the directory entry)."""
    try:
        dir_fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - exotic filesystems
        pass
    finally:
        os.close(dir_fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Atomically publish *data* at *path*: readers see old or new, never torn.

    The new content also survives power loss the moment this returns: the
    tmp file is fsynced before the rename and the parent directory after
    it.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target)
    # Pid-suffixed tmp name: concurrent writers (pool workers) never
    # collide, and a crash-orphaned tmp never shadows the real artifact
    # globs (*.json, *.csv).
    tmp_path = f"{target}.tmp.{os.getpid()}"
    name = os.path.basename(target)
    crashpoint(f"atomio.begin:{name}")
    with open(tmp_path, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    crashpoint(f"atomio.pre-rename:{name}")
    os.replace(tmp_path, target)
    _fsync_directory(directory)
    crashpoint(f"atomio.post-rename:{name}")


def atomic_write_text(path: PathLike, text: str) -> None:
    """:func:`atomic_write_bytes` for UTF-8 text (no newline translation)."""
    atomic_write_bytes(path, text.encode("utf-8"))
