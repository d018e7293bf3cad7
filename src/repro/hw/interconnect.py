"""Cluster interconnect: a facade over the pluggable fabric topology.

The seed hardcoded the paper's testbed — one non-blocking IB switch —
directly in this class.  Transfers now route through a
:class:`~repro.hw.topology.Topology` (flat switch, oversubscribed fat
tree, multi-rail, 2-D torus; see :mod:`repro.hw.topology`), so the
channel path — and therefore where contention appears — is the
topology's decision.  The default remains the flat switch, bit-for-bit
identical to the seed model, which is what makes the paper's Figure-7
claim ("DCGN broadcast beats MVAPICH2 because the MPI call runs with
half as many ranks") measurable: intra-node transfers use a per-node
shared-memory channel with lower latency and higher bandwidth, as
MVAPICH2 does for ranks sharing a node.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple, Union

from ..sim.core import Event, Simulator
from .params import IbParams, TopologySpec

__all__ = ["Interconnect"]


class Interconnect:
    """Latency/bandwidth fabric among ``n`` nodes.

    ``topology`` is a :class:`TopologySpec` (declarative, built here via
    the registry) or an already-constructed
    :class:`~repro.hw.topology.Topology`; omitted, it defaults to the
    seed's flat non-blocking switch.
    """

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        params: IbParams,
        topology: Optional[Union[TopologySpec, "Topology"]] = None,
    ) -> None:
        from .topology import Topology, make_topology

        self.sim = sim
        self.params = params
        self.n_nodes = n_nodes
        self._wire_times: Dict[Tuple[int, int, int], float] = {}
        if topology is None:
            topology = TopologySpec()
        if isinstance(topology, TopologySpec):
            self.topology = make_topology(sim, n_nodes, params, topology)
        elif isinstance(topology, Topology):
            self.topology = topology
        else:
            raise TypeError(
                f"topology must be a TopologySpec or Topology, "
                f"got {type(topology).__name__}"
            )

    def wire_time(self, src: int, dst: int, nbytes: int) -> float:
        """Uncontended end-to-end transfer time.

        A pure function of the fabric, interned per ``(src, dst,
        nbytes)`` for the analytic pricers (collective plans, one-sided
        RMA); ``sim.stats.wire_cost_hits`` / ``wire_cost_misses`` count
        the lookups.
        """
        key = (src, dst, nbytes)
        cost = self._wire_times.get(key)
        if cost is None:
            self.sim.stats.wire_cost_misses += 1
            cost = self._wire_times[key] = self.topology.wire_time(
                src, dst, nbytes
            )
        else:
            self.sim.stats.wire_cost_hits += 1
        return cost

    def transfer(
        self, src: int, dst: int, nbytes: int
    ) -> Generator[Event, Any, float]:
        """Move ``nbytes`` from node ``src`` to node ``dst``.

        Returns the elapsed transfer time.  Intra-node transfers use the
        shared-memory channel; inter-node transfers follow the
        topology's routed channel path (for the flat switch: serialize
        on the sender's tx channel, then latency-only occupancy of the
        receiver's rx channel — store-and-forward for the latency half,
        cut-through for bandwidth).
        """
        t = yield from self.topology.transfer(src, dst, nbytes)
        return t

    def nic_utilization(self, node: int) -> float:
        """Busy-seconds of the node's injection path (for reports)."""
        return self.topology.nic_utilization(node)

    def channels(self):
        """All fabric channels (see :meth:`Topology.channels`)."""
        return self.topology.channels()

    @property
    def accounting(self) -> bool:
        """Whether analytic backends book priced transfers on channels."""
        return self.topology.accounting

    @accounting.setter
    def accounting(self, on: bool) -> None:
        self.topology.accounting = on

    def account(self, src: int, dst: int, nbytes: int) -> None:
        """Book one priced transfer (see :meth:`Topology.account`)."""
        self.topology.account(src, dst, nbytes)
