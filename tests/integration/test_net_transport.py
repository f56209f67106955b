"""The net transport keeps its semantics on one upstream per route.

Every proxy route multiplexes its client connections onto one upstream
connection and routes each answer back by ``rid``.  Pinned here:

1. **Chaos decides the same frames.**  Fifteen seeded chaos runs give
   exactly the retries, served requests, proxy counts and Q recorded
   when every client connection still had an upstream of its own (on
   the bytes of today's frames, see ``CHAOS_TABLE``).
2. **One upstream per route.**  A fault-free run's servers accept one
   connection per route (17 at n=16), not one per client connection.
3. **No head-of-line blocking.**  A withheld answer holds only itself;
   an honest answer on the same route comes back at once.
4. **A refusal ends only its own request.**  A frame the server
   refuses is answered ``refused`` on the shared upstream, which stays
   up: the sender's client counts one failed attempt, and no other
   client on the route loses one.  A frame with no ``rid`` to route by
   never gets that far: the proxy closes only its sender.  If the
   upstream does drop, every client owed an answer on that route
   retries at once instead of waiting out its request timeout.
5. **Each answer goes to the connection that asked,** duplicates too,
   and the route's ledger of owed answers drains.
6. **A malformed field is refused quietly** — an ill-typed
   ``peer``/``source``/``src``/``mid``, a foreign frame type, or an
   index outside the array: no ERROR log, a ``refused`` answer, and the
   connection answers the next frame.  A missing or ill-typed ``rid``
   gets EOF instead (the test names predate the refusal; they are kept).
7. **Closing a server ends its accepted connections,** so a teardown
   never waits on an upstream only a later step would close.
"""

import asyncio
import logging
import tempfile
import time

import pytest

from repro.execution import RetryPolicy
from repro.net import (NetClient, NetRequestError, PeerInbox, SourceServer,
                       run_net_download)
from repro.net import server as net_server
from repro.net import wire
from repro.net.chaos import _REORDER_HOLD, PROXY_FAULT_KINDS, ChaosPlan
from repro.net.proxy import ChaosProxy
from repro.net.wire import (FrameDecoder, decode_body, encode_frame,
                            indices_to_wire, message_to_wire)
from repro.protocols import ShareMessage
from repro.util.bitarrays import BitArray, BitRun

FAST_RETRY = RetryPolicy(max_attempts=5, base_delay=0.01, backoff=2.0,
                         max_delay=0.1, jitter=0.5)

#: ``balanced`` n=8, ell=256 under default-rate proxy faults: (config,
#: seed) -> (retries, requests served, proxy counts, Q).  Recorded with
#: one upstream connection per client connection and re-recorded when
#: shares became ``msg`` frames: the plan hashes each frame's bytes, and
#: deciding every ``msg`` frame on the bytes of the ``share`` frame it
#: replaced gives the earlier table back row for row.
CHAOS_TABLE = {
    ("drop+dup", 1): (14, 8, {"drop": 14, "dup": 19}, 32),
    ("drop+dup", 2): (22, 8, {"drop": 23, "dup": 10}, 32),
    ("drop+dup", 3): (15, 8, {"drop": 19, "dup": 12}, 32),
    ("drop+dup", 4): (14, 8, {"drop": 15, "dup": 12}, 32),
    ("drop+dup", 5): (15, 8, {"drop": 16, "dup": 14}, 32),
    ("delay+reorder", 1): (0, 8, {"delay": 128}, 32),
    ("delay+reorder", 2): (0, 8, {"delay": 128}, 32),
    ("delay+reorder", 3): (0, 8, {"delay": 128}, 32),
    ("delay+reorder", 4): (0, 8, {"delay": 128}, 32),
    ("delay+reorder", 5): (0, 8, {"delay": 128}, 32),
    ("disconnect+drop", 1): (16, 8, {"drop": 13, "disconnect": 3}, 32),
    ("disconnect+drop", 2): (28, 8, {"drop": 24, "disconnect": 4}, 32),
    ("disconnect+drop", 3): (16, 8, {"drop": 15, "disconnect": 1}, 32),
    ("disconnect+drop", 4): (20, 8, {"drop": 16, "disconnect": 4}, 32),
    ("disconnect+drop", 5): (22, 8, {"drop": 16, "disconnect": 6}, 32),
}

#: The longest a ``delay+reorder`` plan holds one frame: the largest
#: delay plus the reorder hold, 0.05 s.
LONGEST_HOLD = PROXY_FAULT_KINDS["delay"] + _REORDER_HOLD
#: A row that drops nothing retries only when a request times out, so
#: it runs at twenty times the longest hold: its pinned 0 retries then
#: hold however slow the event loop is (asyncio's debug mode too).
NO_DROP_TIMEOUT = 20 * LONGEST_HOLD


@pytest.mark.parametrize("config, seed", list(CHAOS_TABLE),
                         ids=[f"{config}-{seed}"
                              for config, seed in CHAOS_TABLE])
def test_chaos_decides_the_same_frames(config, seed):
    timeout = 0.3 if "drop" in config else NO_DROP_TIMEOUT
    result = run_net_download(n=8, ell=256, protocol="balanced", seed=seed,
                              proxy_faults=tuple(config.split("+")),
                              request_timeout=timeout, retry=FAST_RETRY)
    retries, served, counts, q = CHAOS_TABLE[config, seed]
    assert result.download_correct
    assert (result.retries, result.requests_served,
            result.query_complexity) == (retries, served, q)
    assert result.proxy_counts == {"drop": 0, "dup": 0, "delay": 0,
                                   "disconnect": 0, **counts}


def test_a_route_opens_one_upstream_connection(monkeypatch):
    accepts = []
    made = net_server._Answering.connection_made

    def counting(self, transport):
        accepts.append(type(self.server).__name__)
        made(self, transport)

    monkeypatch.setattr(net_server._Answering, "connection_made", counting)
    result = run_net_download(n=16, ell=256, protocol="balanced", seed=5)
    assert result.download_correct and result.retries == 0
    # One source route and sixteen inbox routes; 16 query and 240 msg
    # connections of the peers' clients ride on them.
    assert sorted(accepts) == ["PeerInbox"] * 16 + ["SourceServer"]


# -- one route, driven by hand ----------------------------------------------

async def source_route(sockets, **server):
    """A :class:`SourceServer` of 8 bits behind a fault-free proxy."""
    source = SourceServer(BitArray.from_string("10110010"), **server)
    await source.start(f"{sockets}/src.sock")
    proxy = ChaosProxy()
    await proxy.add_route(f"{sockets}/route.sock", f"{sockets}/src.sock",
                          "src")
    return source, proxy


def query(pid, sid):
    return {"type": "query", "rid": f"p{pid}:1", "peer": pid,
            "source": sid, "indices": indices_to_wire(range(8))}


async def timed(request):
    started = time.monotonic()
    await request
    return time.monotonic() - started


def test_a_withheld_answer_holds_only_itself():
    async def go():
        with tempfile.TemporaryDirectory(prefix="rnet-") as sockets:
            source, proxy = await source_route(
                sockets, k=3, faults=("withhold",), withhold_delay=1.0)
            clients = [NetClient(f"{sockets}/route.sock", proc=f"c{sid}",
                                 retry=FAST_RETRY, timeout=5.0)
                       for sid in range(2)]
            try:
                withheld = asyncio.ensure_future(
                    timed(clients[0].request(query(0, 0))))
                await asyncio.sleep(0.05)  # endpoint 0 is asked first
                honest = await timed(clients[1].request(query(1, 1)))
                return honest, await withheld, source.requests_served
            finally:
                for client in clients:
                    client.close()
                await proxy.close()
                await source.close()

    honest, withheld, served = asyncio.run(go())
    assert served == 2
    assert withheld >= 1.0
    assert honest < 0.5, "the honest answer waited behind the withheld one"


async def read_frame(reader):
    """The next frame ``reader`` carries, or ``None`` at EOF."""
    decoder = FrameDecoder()
    while data := await reader.read(1 << 16):
        for body in decoder.feed(data):
            return decode_body(body)
    return None


def poison_the_route(poison, caplog):
    """Two clients wait on withheld answers; then ``poison(source,
    route)`` runs, ``route`` being the proxy's listening path.  Returns
    what it returns, the two requests' waits and retries, the route's
    ledger, and asyncio's ERROR logs."""
    async def go():
        with tempfile.TemporaryDirectory(prefix="rnet-") as sockets:
            source, proxy = await source_route(
                sockets, faults=("withhold",), withhold_delay=0.5)
            clients = [NetClient(f"{sockets}/route.sock", proc=f"c{pid}",
                                 retry=FAST_RETRY, timeout=10.0)
                       for pid in range(2)]
            try:
                asked = [asyncio.ensure_future(
                    timed(client.request(query(pid, 0))))
                    for pid, client in enumerate(clients)]
                await asyncio.sleep(0.1)  # both answers are withheld
                seen = await poison(source, f"{sockets}/route.sock")
                waits = await asyncio.gather(*asked)
                return (seen, waits, [client.retries for client in clients],
                        proxy._routes[0].owed)
            finally:
                for client in clients:
                    client.close()
                await proxy.close()
                await source.close()

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        seen, waits, retries, owed = asyncio.run(go())
    return seen, waits, retries, owed, caplog.records


def sending(frame):
    """A poison that writes ``frame`` on a connection of its own and
    returns the first frame read back (``None`` for EOF)."""
    async def poison(source, route):
        reader, writer = await asyncio.open_unix_connection(route)
        writer.write(encode_frame(frame))
        answer = await asyncio.wait_for(read_frame(reader), timeout=5)
        writer.close()
        return answer
    return poison


def test_a_dropped_upstream_makes_its_waiting_clients_retry_at_once(caplog):
    async def hang_up(source, route):
        for connection in source._connections:
            connection.transport.close()

    _, waits, retries, owed, errors = poison_the_route(hang_up, caplog)
    # Each request: 0.1 s until the hang-up, then its retry's withheld
    # answer 0.5 s later — nowhere near the 10 s timeout.
    assert retries == [1, 1]
    assert max(waits) < 3.0
    assert owed == {} and errors == []


def test_a_refused_frame_costs_the_other_clients_nothing(caplog):
    refusal, waits, retries, owed, errors = poison_the_route(
        sending({"type": "query", "rid": "poison", "peer": "x"}), caplog)
    assert (refusal["type"], refusal["rid"]) == ("refused", "poison")
    assert "'peer'" in refusal["error"]
    # The upstream stayed up: both withheld answers arrive on their
    # first attempt, 0.5 s after they were asked.
    assert retries == [0, 0]
    assert max(waits) < 3.0
    assert owed == {} and errors == []


def test_an_unroutable_frame_closes_only_its_sender(caplog):
    # No ``rid`` to route an answer by: the proxy closes the sender and
    # forwards nothing, so the shared upstream and its clients live on.
    eof, waits, retries, owed, errors = poison_the_route(
        sending({"type": "query", "peer": 9}), caplog)
    assert eof is None
    assert retries == [0, 0]
    assert max(waits) < 3.0
    assert owed == {} and errors == []


def share(pid, mid, values=None):
    """A ``msg`` frame carrying peer ``pid``'s :class:`ShareMessage`;
    ``values`` replaces its run's wire form."""
    message = message_to_wire(ShareMessage(
        sender=pid, values=BitRun(range(pid, 8, 4), b"\x01\x00")))
    if values is not None:
        message["fields"]["values"] = values
    return {"type": "msg", "rid": f"p{pid}:{mid}", "src": pid, "mid": mid,
            "dst": None, "message": message}


def test_malformed_msg_frames_cost_the_other_peers_no_retry(caplog):
    # Peer 3 writes only malformed messages on the route to peer 0's
    # inbox, interleaved with the messages of peers 1 and 2.
    async def go():
        with tempfile.TemporaryDirectory(prefix="rnet-") as sockets:
            inbox = PeerInbox(0)
            await inbox.start(f"{sockets}/p0.sock")
            proxy = ChaosProxy()
            await proxy.add_route(f"{sockets}/route.sock",
                                  f"{sockets}/p0.sock", "p0")
            clients = {pid: NetClient(f"{sockets}/route.sock",
                                      proc=f"c{pid}", retry=FAST_RETRY,
                                      timeout=10.0) for pid in (1, 2, 3)}

            async def honest(pid):
                for mid in range(1, 21):
                    await clients[pid].request(share(pid, mid))

            async def rogue():
                refused = 0
                for mid in range(1, 6):
                    try:
                        await clients[3].request(
                            share(3, mid, values={"at": [2, 1]}))
                    except NetRequestError:
                        refused += 1
                return refused

            try:
                *_, refused = await asyncio.gather(honest(1), honest(2),
                                                   rogue())
                return ({pid: client.retries
                         for pid, client in clients.items()},
                        refused, sorted(inbox.messages))
            finally:
                for client in clients.values():
                    client.close()
                await proxy.close()
                await inbox.close()

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        retries, refused, stored = asyncio.run(go())
    attempts = FAST_RETRY.max_attempts
    assert retries == {1: 0, 2: 0, 3: 5 * (attempts - 1)}
    assert refused == 5
    assert stored == [(pid, mid, None) for pid in (1, 2)
                      for mid in range(1, 21)]
    assert caplog.records == []


def test_a_duplicated_answer_is_decided_and_its_ledger_drains():
    async def go():
        with tempfile.TemporaryDirectory(prefix="rnet-") as sockets:
            source = SourceServer(BitArray.from_string("10110010"))
            await source.start(f"{sockets}/src.sock")
            proxy = ChaosProxy(ChaosPlan(("dup:1",), seed=1))
            await proxy.add_route(f"{sockets}/route.sock",
                                  f"{sockets}/src.sock", "src")
            client = NetClient(f"{sockets}/route.sock", proc="c0",
                               retry=FAST_RETRY, timeout=5.0)
            try:
                answer = await client.request(query(0, 0))
                await asyncio.sleep(0.05)  # the second copy's answer
                return answer, proxy.counts, proxy._routes[0].owed
            finally:
                client.close()
                await proxy.close()
                await source.close()

    answer, counts, owed = asyncio.run(go())
    assert answer["values"] == {"range": [0, 8, 1], "bits": "10110010"}
    # The request, then each of its two answers (resend 0 and 1): every
    # answer reaches the connection that asked and is decided there.
    assert counts["dup"] == 3
    assert owed == {}


def test_closing_a_server_ends_its_accepted_connections():
    # From Python 3.12 on ``wait_closed`` waits for them: a proxy
    # upstream left open would hang the run's teardown.
    async def go():
        with tempfile.TemporaryDirectory(prefix="rnet-") as sockets:
            server = PeerInbox(0)
            await server.start(f"{sockets}/server.sock")
            reader, writer = await asyncio.open_unix_connection(
                f"{sockets}/server.sock")
            await asyncio.sleep(0.01)  # accepted
            await asyncio.wait_for(server.close(), timeout=1)
            eof = await asyncio.wait_for(reader.read(), timeout=1)
            writer.close()
            return eof

    assert asyncio.run(go()) == b""


def test_an_upstream_that_never_listens_fails_its_clients_fast(monkeypatch):
    monkeypatch.setattr(wire, "_DIAL_WAIT", 0.05)

    async def go():
        with tempfile.TemporaryDirectory(prefix="rnet-") as sockets:
            proxy = ChaosProxy()
            await proxy.add_route(f"{sockets}/route.sock",
                                  f"{sockets}/absent.sock", "src")
            client = NetClient(f"{sockets}/route.sock", proc="c0",
                               retry=FAST_RETRY, timeout=10.0)
            try:
                with pytest.raises(NetRequestError):
                    await timed(client.request(query(0, 0)))
                return client.retries
            finally:
                client.close()
                await proxy.close()

    started = time.monotonic()
    # Every attempt ends when its dial gives up, not at the 10 s timeout.
    assert asyncio.run(go()) == FAST_RETRY.max_attempts - 1
    assert time.monotonic() - started < 5.0


# -- malformed fields -------------------------------------------------------

MSG = share(1, 1)
MALFORMED_FIELDS = {
    "query-without-rid": {"type": "query", "peer": 0, "source": 0,
                          "indices": {"range": [0, 8, 1]}},
    "query-rid-not-a-string": {"type": "query", "rid": 5, "peer": 0,
                               "source": 0, "indices": {"range": [0, 8, 1]}},
    "query-peer-a-string": {"type": "query", "rid": "r", "peer": "x",
                            "source": 0, "indices": {"range": [0, 8, 1]}},
    "query-peer-a-bool": {"type": "query", "rid": "r", "peer": True,
                          "source": 0, "indices": {"range": [0, 8, 1]}},
    "query-source-a-float": {"type": "query", "rid": "r", "peer": 0,
                             "source": 0.0, "indices": {"range": [0, 8, 1]}},
    "query-index-outside-the-array": {"type": "query", "rid": "r",
                                      "peer": 0, "source": 0,
                                      "indices": {"at": [3, 8]}},
    "share-without-src": {key: value for key, value in MSG.items()
                          if key != "src"},
    "share-src-a-bool": {**MSG, "src": False},
    "share-mid-a-string": {**MSG, "mid": "0"},
}
#: A well-formed frame of each type, sent after a refused one.
WELL_FORMED = {"query": query(0, 0), "msg": share(2, 1)}


@pytest.mark.parametrize("frame", list(MALFORMED_FIELDS.values()),
                         ids=list(MALFORMED_FIELDS))
def test_a_malformed_field_ends_the_connection_quietly(frame, caplog):
    async def go():
        server = (SourceServer(BitArray.from_string("10110010"))
                  if frame["type"] == "query" else PeerInbox(0))
        with tempfile.TemporaryDirectory(prefix="rnet-") as sockets:
            await server.start(f"{sockets}/server.sock")
            try:
                reader, writer = await asyncio.open_unix_connection(
                    f"{sockets}/server.sock")
                writer.write(encode_frame(frame))
                answers = [await asyncio.wait_for(read_frame(reader),
                                                  timeout=5)]
                if answers[0] is not None:  # refused: the next is served
                    writer.write(encode_frame(WELL_FORMED[frame["type"]]))
                    answers.append(await asyncio.wait_for(
                        read_frame(reader), timeout=5))
                writer.close()
                await asyncio.sleep(0.01)  # let a stray callback log
            finally:
                await server.close()
        return server, answers

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        server, answers = asyncio.run(go())
    assert caplog.records == []
    if type(frame.get("rid")) is not str:
        assert answers == [None]  # EOF, and no answer before it
        served = 0
    else:
        refused, answered = answers
        assert (refused["type"], refused["rid"]) == ("refused", frame["rid"])
        assert answered["type"] in ("bits", "ack")
        served = 1
    if isinstance(server, SourceServer):
        assert server.requests_served == served
    else:
        assert len(server.messages) == served
