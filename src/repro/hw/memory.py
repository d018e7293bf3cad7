"""Host memory: typed buffers backed by NumPy, and the memcpy engine.

Message payloads in the whole system are real bytes: sends snapshot the
source array, receives write into the destination array.  Only *time* is
simulated; data movement is executed eagerly so applications can verify
numerical results against sequential references.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Tuple, Union

import numpy as np

from ..sim.core import Event, Simulator, us
from ..sim.resources import BandwidthChannel

__all__ = ["HostBuffer", "MemcpyEngine", "as_bytes_view", "nbytes_of"]


def as_bytes_view(obj: Union[np.ndarray, "HostBuffer"]) -> np.ndarray:
    """A flat uint8 view of a buffer's storage (no copy)."""
    arr = obj.data if isinstance(obj, HostBuffer) else obj
    if not isinstance(arr, np.ndarray):
        raise TypeError(f"expected ndarray or HostBuffer, got {type(obj)}")
    if not arr.flags["C_CONTIGUOUS"]:
        raise ValueError("buffers must be C-contiguous")
    return arr.view(np.uint8).reshape(-1)


def nbytes_of(obj: Union[np.ndarray, "HostBuffer", int]) -> int:
    """Byte size of an array, buffer, or plain byte count."""
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, HostBuffer):
        return obj.nbytes
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    raise TypeError(f"cannot size {type(obj)}")


class HostBuffer:
    """A named, typed region of host memory on a particular node.

    Thin wrapper around an ndarray carrying provenance (node id) so that
    cross-node "pointer" mistakes are caught in tests.
    """

    __slots__ = ("data", "node_id", "name")

    def __init__(
        self,
        data: np.ndarray,
        node_id: int,
        name: str = "",
    ) -> None:
        if not isinstance(data, np.ndarray):
            raise TypeError("HostBuffer wraps an ndarray")
        if not data.flags["C_CONTIGUOUS"]:
            raise ValueError("HostBuffer requires C-contiguous storage")
        self.data = data
        self.node_id = node_id
        self.name = name or f"hostbuf@{node_id}"

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def copy_from(self, src: np.ndarray) -> None:
        """Copy payload bytes in (shapes/dtypes must be compatible)."""
        view = as_bytes_view(self.data)
        sview = as_bytes_view(src)
        if sview.size > view.size:
            raise ValueError(
                f"payload {sview.size} B exceeds buffer {view.size} B"
            )
        view[: sview.size] = sview

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<HostBuffer {self.name!r} node={self.node_id} "
            f"{self.data.dtype}x{self.data.size}>"
        )


class MemcpyEngine:
    """Per-node host-memory copy engine (latency + bandwidth, serialized).

    Used for DCGN's local-communication staging (paper §6.2: intra-node
    messages are handled with memcpy instead of MPI).
    """

    def __init__(
        self,
        sim: Simulator,
        lat_us: float,
        bw_GBps: float,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.channel = BandwidthChannel(
            sim,
            latency_s=us(lat_us),
            bandwidth_Bps=bw_GBps * 1e9,
            name=name or "memcpy",
        )

    def copy_time(self, nbytes: int) -> float:
        """Service time of a copy of ``nbytes``."""
        return self.channel.transfer_time(nbytes)

    def copy(
        self,
        dst: Optional[Union[np.ndarray, HostBuffer]],
        src: Optional[Union[np.ndarray, HostBuffer]],
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, int]:
        """``yield from`` a host-to-host copy; returns bytes moved.

        Either real arrays (data actually copied) or ``None`` endpoints
        with an explicit ``nbytes`` (time-only accounting).
        """
        if nbytes is None:
            if src is None:
                raise ValueError("need src or explicit nbytes")
            nbytes = nbytes_of(src)
        yield from self.channel.transfer(nbytes)
        if dst is not None and src is not None:
            dview = as_bytes_view(dst)
            sview = as_bytes_view(src)
            n = min(nbytes, sview.size, dview.size)
            dview[:n] = sview[:n]
        return nbytes
