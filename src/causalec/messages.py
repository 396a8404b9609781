"""Message vocabulary exchanged between clients and servers.

Tag vectors travel as tuples of K tags indexed by object-1.  Operation
identifiers are (issuer, counter) pairs: clients use their positive id,
servers issuing internal reads use the negative of their own id, so opids
are globally unique without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .field import Value
from .tags import Tag

OpId = Tuple[int, int]
TagVec = Tuple[Tag, ...]


@dataclass(frozen=True)
class Message:
    def describe(self) -> tuple:
        """The message as trace data: its type name, then each field in
        declaration order, with every tag (alone or in a tag vector) as
        ``Tag.render`` text."""
        name = type(self).__name__
        return (name,) + tuple(_render(getattr(self, f)) for f in self.__dataclass_fields__)


def _render(v):
    if isinstance(v, Tag):
        return v.render()
    if isinstance(v, tuple) and v and all(isinstance(e, Tag) for e in v):
        return tuple(t.render() for t in v)
    return v


@dataclass(frozen=True)
class Write(Message):
    opid: OpId
    obj: int
    value: Value


@dataclass(frozen=True)
class WriteReturnAck(Message):
    opid: OpId


@dataclass(frozen=True)
class Read(Message):
    opid: OpId
    obj: int


@dataclass(frozen=True)
class ReadReturn(Message):
    opid: OpId
    value: Value


@dataclass(frozen=True)
class App(Message):
    obj: int
    value: Value
    tag: Tag


@dataclass(frozen=True)
class Del(Message):
    obj: int
    tag: Tag


@dataclass(frozen=True)
class ValInq(Message):
    clientid: int
    opid: OpId
    obj: int
    wantedtagvec: TagVec


@dataclass(frozen=True)
class ValResp(Message):
    obj: int
    value: Value
    # absent under the eventually consistent variant, which strips the
    # addressing fields so a response answers every pending read on obj
    clientid: Optional[int] = None
    opid: Optional[OpId] = None
    requestedtags: Optional[TagVec] = None


@dataclass(frozen=True)
class ValRespEncoded(Message):
    symbol: Value
    tagvec: TagVec
    clientid: int
    opid: OpId
    obj: int
    requestedtags: TagVec
