"""Reduction operators and payload helpers for the simulated MPI."""

from __future__ import annotations

import enum
from typing import Optional, Union

import numpy as np

from ..hw.memory import HostBuffer

__all__ = ["HEADER_BYTES", "ReduceOp", "payload_array", "snapshot"]

Payload = Union[np.ndarray, HostBuffer, int, None]

#: Size of protocol headers on the wire (match/envelope data).
HEADER_BYTES = 64


class ReduceOp(enum.Enum):
    """MPI reduction operations (the subset the apps use).

    ``REPLACE`` exists for one-sided ``accumulate`` (MPI_REPLACE): it
    turns an accumulate into an element-wise overwrite that still
    honours the per-origin ordering guarantee.  Two-sided reductions
    must not use it (which rank's contribution "wins" would be
    schedule-dependent).
    """

    SUM = "sum"
    PROD = "prod"
    MAX = "max"
    MIN = "min"
    LAND = "land"
    LOR = "lor"
    BAND = "band"
    BOR = "bor"
    REPLACE = "replace"

    def combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise ``a OP b`` (never in place)."""
        if self is ReduceOp.REPLACE:
            return b.copy()
        if self is ReduceOp.SUM:
            return a + b
        if self is ReduceOp.PROD:
            return a * b
        if self is ReduceOp.MAX:
            return np.maximum(a, b)
        if self is ReduceOp.MIN:
            return np.minimum(a, b)
        if self is ReduceOp.LAND:
            return np.logical_and(a, b).astype(a.dtype)
        if self is ReduceOp.LOR:
            return np.logical_or(a, b).astype(a.dtype)
        if self is ReduceOp.BAND:
            return a & b
        if self is ReduceOp.BOR:
            return a | b
        raise NotImplementedError(self)  # pragma: no cover


def payload_array(obj: Payload) -> Optional[np.ndarray]:
    """The ndarray behind a payload, or None for timing-only payloads."""
    if isinstance(obj, np.ndarray):
        return obj
    if obj is None or isinstance(obj, (int, np.integer)):
        return None
    if isinstance(obj, HostBuffer):
        return obj.data
    raise TypeError(f"unsupported payload type {type(obj)}")


def snapshot(obj: Payload, copy: bool = True) -> Optional[np.ndarray]:
    """Copy payload contents at send time (MPI buffered semantics).

    ``copy=False`` elides the defensive copy and ships the array
    itself.  Only safe when the caller *proves* the buffer cannot be
    mutated between injection and delivery — schedule steps marked
    ``alias_ok`` (schedule scratch, rebound accumulators) qualify;
    user-owned buffers never do.
    """
    arr = payload_array(obj)
    if arr is None:
        return None
    return arr.copy() if copy else arr
