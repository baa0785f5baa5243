"""The replicated identifier generator over the network (Appendix I).

The appendix's footnote places generator-state representatives on log
server nodes, so NewID's quorum Read and Write travel over the same
connections as the log traffic.  :class:`NetworkEpochSource` names the
representative servers; :meth:`~NetworkEpochSource.new_id_net` runs
the shared NewID step (:func:`repro.core.recovery.new_id`) through a
:class:`~repro.client.SimLogClient`'s connections.

The source also supports the plain ``new_id()`` interface (raising) so
misconfiguration fails loudly rather than silently skipping the
network.
"""

from __future__ import annotations

from ..core import recovery
from ..core.errors import NotEnoughServers


class NetworkEpochSource:
    """NewID by quorum RPCs against representative-hosting servers."""

    def __init__(self, representative_server_ids: list[str]):
        if not representative_server_ids:
            raise NotEnoughServers("generator needs representatives")
        self.rep_ids = list(representative_server_ids)
        self.new_ids_issued = 0

    @property
    def n_reps(self) -> int:
        return len(self.rep_ids)

    def new_id(self) -> int:
        raise NotImplementedError(
            "NetworkEpochSource issues ids over the network; the client "
            "drives it via new_id_net()"
        )

    def new_id_net(self, client):
        """Perform one NewID through ``client``'s connections.

        ``yield from`` me inside a simulation process.  Raises
        :class:`NotEnoughServers` when either quorum cannot be reached.
        """
        value = yield from client._drive(
            recovery.new_id(client.client_id, self.rep_ids, self.n_reps))
        self.new_ids_issued += 1
        return value
