"""Real-transport execution: peers over sockets behind a chaos proxy.

The simulator (:mod:`repro.sim`) models communication; this package
*performs* it.  Each peer is an asyncio task (:mod:`repro.net.peers`)
sending length-prefixed JSON frames (:mod:`repro.net.wire`) over Unix
sockets to the source server and the peer inboxes
(:mod:`repro.net.server`); every endpoint is an asyncio protocol over
one sans-IO framer.  Under a sparse topology a peer message is routed
along the simulator's routes, and finished relays forward.  Every
frame crosses a seeded chaos proxy (:mod:`repro.net.proxy`,
:mod:`repro.net.chaos`) injecting latency, drops, duplicates,
reordering and disconnects; a proxy route multiplexes its clients onto
one upstream connection, routing each answer back by its request ID.

Robustness: idempotent request IDs, so retries never double-charge Q;
per-request timeouts and :class:`~repro.execution.RetryPolicy`
retries; a peer that crashes or runs out of retries fails the *run*
(:class:`~repro.net.driver.NetRunError`, a ``failed_runs`` record,
never a hung sweep); tasks are always cancelled, sockets removed.

Entry point: :func:`run_net_download`, wrapped by the ``"net"``
execution backend (:mod:`repro.experiments.backends.net`).
"""

from repro.net.chaos import ChaosPlan, parse_proxy_fault, parse_proxy_faults
from repro.net.client import NetClient, NetRequestError
from repro.net.driver import NetRunError, NetRunResult, run_net_download
from repro.net.server import PeerInbox, SourceServer
from repro.net.wire import (MAX_FRAME, FrameDecoder, WireError, decode_body,
                            encode_frame, frame_digest)

__all__ = [
    "ChaosPlan",
    "FrameDecoder",
    "MAX_FRAME",
    "NetClient",
    "NetRequestError",
    "NetRunError",
    "NetRunResult",
    "PeerInbox",
    "SourceServer",
    "WireError",
    "decode_body",
    "encode_frame",
    "frame_digest",
    "parse_proxy_fault",
    "parse_proxy_faults",
    "run_net_download",
]
