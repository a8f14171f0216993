"""repro.slotted — frozen slotted records built in one step.

The two records every chunk makes, :class:`repro.net.tcp.TcpInfo` and
:class:`repro.abr.base.ChunkRecord`, are frozen dataclasses that declare
their ``__slots__`` in the class body (``dataclass(slots=True)`` needs
Python 3.10).  A frozen dataclass's ``__init__`` sets each field through
``object.__setattr__``; :func:`builder` makes the positional constructor
that sets each slot through its member descriptor instead.  It makes the
instance ``__init__`` would make (equal, with the same hash and repr),
without a per-field attribute lookup and without an instance ``__dict__``.

A slotted frozen instance cannot be unpickled by the default protocol
(it restores slots with ``setattr``, which a frozen class refuses), so each
record takes :func:`reduce` as its ``__reduce__``: it is rebuilt by its
class's ``__init__``, which is how it crosses ``fork_map``'s pipes.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Callable, Dict, Tuple, Type, TypeVar

_R = TypeVar("_R")


def builder(cls: Type[_R]) -> Callable[..., _R]:
    """A function taking ``cls``'s fields in order (positionally or by
    name) and returning the instance, each slot set through its
    descriptor.  Generated the way ``dataclasses`` generates ``__init__``,
    so the call does no loop and no attribute lookup."""
    names = [f.name for f in fields(cls)]
    namespace: Dict[str, Any] = {"_new": object.__new__, "_cls": cls}
    namespace.update({f"_set_{n}": getattr(cls, n).__set__ for n in names})
    body = "".join(f"    _set_{n}(self, {n})\n" for n in names)
    source = (
        f"def build({', '.join(names)}):\n"
        f"    self = _new(_cls)\n{body}    return self\n"
    )
    exec(source, namespace)
    build: Callable[..., _R] = namespace["build"]
    return build


def reduce(record: Any) -> Tuple[type, tuple]:
    """``__reduce__`` for a frozen slotted record: its class and its field
    values, in order."""
    return type(record), tuple(getattr(record, f.name) for f in fields(record))
