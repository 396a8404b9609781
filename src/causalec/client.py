"""Client automaton: one outstanding operation, messages only to its home server.

The client holds only the id of the operation it waits on; what was invoked
and what a read returned are recorded by the simulator, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .field import Value
from .messages import Message, OpId, Read, ReadReturn, Write, WriteReturnAck
from .server import Send


class WellFormednessError(Exception):
    """A client invoked an operation while another was still pending."""


@dataclass
class Client:
    id: int
    home: int
    opcounter: int = 0
    pending: Optional[OpId] = None

    def __post_init__(self):
        if self.id < 1:
            raise ValueError("client ids start at 1; 0 is reserved for internal reads")

    def invoke(self, kind: str, obj: int, value: Optional[Value] = None) -> Tuple[OpId, Send]:
        """Start a "write" of value to obj, or a "read" of obj."""
        if self.pending is not None:
            raise WellFormednessError(
                f"client {self.id} invoked a {kind} while {self.pending} is pending")
        self.opcounter += 1
        opid = self.pending = (self.id, self.opcounter)
        msg = Write(opid, obj, value) if kind == "write" else Read(opid, obj)
        return opid, Send("server", self.home, msg)

    def on_server_message(self, msg: Message) -> Optional[OpId]:
        """Complete the pending operation and return its id, or return None
        for a response to an operation that is not pending."""
        if not isinstance(msg, (WriteReturnAck, ReadReturn)):
            raise TypeError(f"client cannot handle {type(msg).__name__}")
        if msg.opid != self.pending:
            return None
        self.pending = None
        return msg.opid
