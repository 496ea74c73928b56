"""Server-side bulk handles for socket transports.

In process, a :class:`~repro.rpc.bulk.BulkHandle` lets the daemon read or
write the client's memory directly.  Across a socket that trick is gone,
so the daemon gets a :class:`ServerBulkHandle` with the same ``pull`` /
``push`` surface and byte accounting:

* **pull** (the write path): the client's read-only exposure arrived
  behind the request body, ``recv_into`` one buffer; pulls are
  ``memoryview`` slices of it — no wire traffic, no copy.
* **push** (the read path): each push goes out at once as a ``PUSH``
  frame, the handler's buffer handed to ``sendmsg`` as it is.  The
  response follows on the same stream with the final pull/push totals,
  which the client mirrors onto its own handle.

Handlers therefore see bytes-like objects, not ``bytes``: storage backends
and checksums take any buffer, and whoever keeps the data beyond the
handler's return copies it (the memory backend, by slice assignment).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

__all__ = ["ServerBulkHandle"]

Buffer = Union[bytes, bytearray, memoryview]


class ServerBulkHandle:
    """The daemon-side view of a client's bulk exposure, over sockets.

    :param size: length of the client's exposed region.
    :param exposed: the received region for read-only exposures; ``None``
        for writable exposures (push-only — over a socket the server
        cannot read memory the client never sent).
    :param readonly: whether the client declared the exposure read-only.
    :param push_fn: ``push_fn(offset, data)`` — delivers one pushed
        segment to the client (one ``PUSH`` frame).
    """

    __slots__ = ("_size", "_exposed", "readonly", "_push_fn",
                 "bytes_pulled", "bytes_pushed")

    def __init__(self, size: int, exposed: Optional[Buffer], readonly: bool,
                 push_fn: Callable[[int, Buffer], None]):
        self._size = size
        self._exposed = None if exposed is None else memoryview(exposed)
        self.readonly = readonly
        self._push_fn = push_fn
        self.bytes_pulled = 0
        self.bytes_pushed = 0

    def __len__(self) -> int:
        return self._size

    def pull(self, offset: int = 0, length: int = -1) -> memoryview:
        """``length`` bytes at ``offset`` of the received exposure, as a view."""
        if self._exposed is None:
            raise ValueError("cannot pull from a writable bulk exposure over a socket "
                             "(the client only ships read-only regions)")
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if length < 0:
            length = self._size - offset
        end = offset + length
        if end > self._size:
            raise ValueError(
                f"pull of [{offset}, {end}) exceeds exposed region of {self._size} bytes"
            )
        self.bytes_pulled += length
        return self._exposed[offset:end]

    def push(self, data: Buffer, offset: int = 0) -> int:
        """Send ``data`` to land at ``offset`` in the client's buffer."""
        if self.readonly:
            raise ValueError("cannot push into a read-only bulk exposure")
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        length = len(data)
        end = offset + length
        if end > self._size:
            raise ValueError(
                f"push of [{offset}, {end}) exceeds exposed region of {self._size} bytes"
            )
        self._push_fn(offset, data)
        self.bytes_pushed += length
        return length

    @property
    def bytes_transferred(self) -> int:
        """Total out-of-band traffic through this handle."""
        return self.bytes_pulled + self.bytes_pushed
