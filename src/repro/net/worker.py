"""Process-mode peer entry point: ``python -m repro.net.worker``.

The driver spawns one worker per peer, writes one JSON config object
to its stdin, and reads one JSON result object from its stdout; the
exit code is the health signal (anything non-zero, or garbage on
stdout, fails the run, and the driver reaps whatever is left).  The
worker builds the same :class:`~repro.net.peers.NetPeer` the task
mode builds, dials the same proxy addresses, and — when the protocol
has peer-to-peer traffic — serves its own inbox socket, which the
driver's proxy routes dial lazily.

Stdout is reserved for the result object, so peer code must never
print; diagnostics go to stderr, which the driver attaches to its
error report.
"""

from __future__ import annotations

import asyncio
import json
import sys

from repro.execution.retry import RetryPolicy
from repro.protocols.registry import get
from repro.util.rng import derive_seed

from repro.net.client import NetClient
from repro.net.peers import NetPeer
from repro.net.server import PeerInbox


async def _work(config: dict) -> dict:
    pid = int(config["pid"])
    retry = RetryPolicy(task_timeout=None, **config["retry"])
    seed = int(config["seed"])
    inbox = None
    if config.get("inbox_path"):
        inbox = PeerInbox(pid)
        await inbox.start(config["inbox_path"])

    def factory(path, proc):
        return NetClient(path, proc=proc, retry=retry,
                         timeout=float(config["request_timeout"]),
                         task_seed=derive_seed(seed, proc))

    peer = NetPeer(
        pid, get(config["protocol"]).peer_class,
        config.get("protocol_params", {}),
        n=int(config["n"]), ell=int(config["ell"]),
        sources=int(config["sources"]), client_factory=factory,
        source_path=config["source_path"],
        peer_paths={int(other): path for other, path
                    in config.get("peer_paths", {}).items()},
        inbox=inbox, neighbors=config.get("neighbors"))
    try:
        output = await peer.run()
    finally:
        peer.close()
        if inbox is not None:
            await inbox.close()
    return {
        "pid": pid,
        "bits": output.segment(0, len(output)),
        "messages": peer.messages,
        "retries": peer.retries,
    }


def main() -> int:
    try:
        config = json.loads(sys.stdin.read())
        result = asyncio.run(_work(config))
    except Exception as exc:  # noqa: BLE001 - exit code is the signal
        print(f"net worker failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
