"""Net backend battery: real sockets, chaos proxy, sim conformance.

Three contracts are pinned here:

1. **Conformance** — replaying a sim spec on ``backend="net"`` with a
   fault-free proxy yields the identical query complexity and decodes
   the identical array (``seed_for`` omits the backend name for both,
   so the input and every source view are bit-equal).
2. **Robustness** — under seeded proxy faults every run either decodes
   ``X`` correctly or fails *promptly and explicitly*
   (:class:`~repro.net.NetRunError` / ``failed_runs``); retry counts
   are deterministic in the seed; Q never double-charges a retry.
3. **Hygiene** — bad specs are rejected at validation time with the
   registry's historical exception types, and the wire layer refuses
   oversized or torn frames.
"""

import asyncio
import dataclasses
import time

import pytest

from repro.execution import RetryPolicy
from repro.experiments import ExperimentSpec
from repro.experiments.runner import execute_repeat
from repro.net import (
    MAX_FRAME,
    NetRunError,
    WireError,
    decode_body,
    encode_frame,
    parse_proxy_fault,
    parse_proxy_faults,
    read_frame,
    run_net_download,
)

#: Fast net settings for the battery: tiny arrays, short timeouts.
FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.02, backoff=2.0,
                         max_delay=0.2, jitter=0.5)


def run_fast(**kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("request_timeout", 0.5)
    kwargs.setdefault("run_timeout", 30.0)
    return run_net_download(**kwargs)


class TestWireFraming:
    def roundtrip(self, payload):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(payload))
            reader.feed_eof()
            return await read_frame(reader)
        return asyncio.run(go())

    def test_roundtrip_is_canonical_json(self):
        payload = {"type": "query", "rid": "p0:1", "indices": [3, 1]}
        assert self.roundtrip(payload) == payload
        # canonical encoding: key order never changes the bytes
        a = encode_frame({"b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1})
        assert a == b

    def test_clean_eof_returns_none(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await read_frame(reader)
        assert asyncio.run(go()) is None

    def test_torn_frame_raises(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"x": 1})[:-2])
            reader.feed_eof()
            return await read_frame(reader)
        with pytest.raises(WireError):
            asyncio.run(go())

    def test_oversized_frame_refused(self):
        import struct
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", MAX_FRAME + 1))
            reader.feed_eof()
            return await read_frame(reader)
        with pytest.raises(WireError, match="frame"):
            asyncio.run(go())

    def test_garbage_body_raises(self):
        with pytest.raises(WireError):
            decode_body(b"not json at all")


class TestProxyFaultGrammar:
    def test_defaults_and_params(self):
        kind, rate = parse_proxy_fault("drop")
        assert kind == "drop" and rate == 0.1
        assert parse_proxy_fault("delay:0.5") == ("delay", 0.5)
        assert parse_proxy_fault("disconnect:0.01") == ("disconnect",
                                                        0.01)

    def test_rejections(self):
        with pytest.raises(ValueError, match="unknown proxy fault"):
            parse_proxy_fault("explode")
        with pytest.raises(ValueError):
            parse_proxy_fault("drop:1.5")
        with pytest.raises(ValueError):
            parse_proxy_fault("delay:-1")
        with pytest.raises(ValueError, match="twice"):
            parse_proxy_faults(("drop:0.1", "drop:0.2"))


class TestValidation:
    def net_spec(self, **overrides):
        fields = dict(protocol="naive", n=2, ell=32, backend="net")
        fields.update(overrides)
        return ExperimentSpec(**fields)

    def test_unknown_protocol_is_keyerror(self):
        with pytest.raises(KeyError, match="net-backend"):
            self.net_spec(protocol="byz-committee")

    def test_fault_model_must_be_none(self):
        with pytest.raises(ValueError, match="fault_model"):
            self.net_spec(fault_model="byzantine", beta=0.3)

    def test_network_must_be_asynchronous(self):
        with pytest.raises(ValueError, match="asynchronous"):
            self.net_spec(network="synchronous")

    def test_source_fault_onset_rejected(self):
        with pytest.raises(ValueError, match="onset"):
            self.net_spec(sources=2, source_faults=("wrong-bits@5",))

    def test_proxy_fault_grammar_checked(self):
        with pytest.raises(ValueError, match="proxy fault"):
            self.net_spec(proxy_faults=("explode",))

    def test_escalate_feasibility(self):
        with pytest.raises(ValueError, match="2f"):
            self.net_spec(protocol="cross-validate-escalate",
                          protocol_params={"f": 1}, sources=2)

    def test_other_backends_reject_proxy_faults(self):
        for backend, extra in (("sim", {}),
                               ("sync", {"network": "synchronous"}),
                               ("lowerbound",
                                {"strategy": "deterministic"})):
            with pytest.raises(ValueError, match="proxy_faults"):
                ExperimentSpec(protocol="naive", n=2, ell=32,
                               backend=backend,
                               proxy_faults=("drop:0.1",), **extra)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_net_download(n=2, ell=16, protocol="naive",
                             mode="thread")

    def test_unknown_net_protocol_is_keyerror(self):
        with pytest.raises(KeyError):
            run_net_download(n=2, ell=16, protocol="byz-committee")


CONFORMANCE_SPECS = [
    ExperimentSpec(protocol="naive", n=2, ell=192),
    ExperimentSpec(protocol="balanced", n=3, ell=96),
    ExperimentSpec(protocol="cross-validate", n=3, ell=128,
                   protocol_params={"q": 3}, sources=3,
                   source_faults=("wrong-bits:1.0",)),
    ExperimentSpec(protocol="cross-validate-escalate", n=3, ell=128,
                   protocol_params={"f": 1}, sources=3,
                   source_faults=("wrong-bits",)),
]


class TestSimConformance:
    @pytest.mark.parametrize(
        "spec", CONFORMANCE_SPECS,
        ids=[spec.protocol for spec in CONFORMANCE_SPECS])
    def test_net_replays_sim_bit_for_bit(self, spec):
        net_spec = dataclasses.replace(spec, backend="net")
        assert net_spec.seed_for(0) == spec.seed_for(0)
        sim = execute_repeat(spec, 0)
        net = execute_repeat(net_spec, 0)
        assert net.correct and sim.correct
        assert net.queries == sim.queries
        assert net.messages == sim.messages

    def test_net_decodes_the_sim_input_array(self):
        # Deeper than the RepeatRecord: the actual downloaded bits
        # equal the simulator's input for the shared seed.
        from repro.sim import run_download
        from repro.protocols import get
        spec = CONFORMANCE_SPECS[0]
        sim = run_download(n=spec.n, ell=spec.ell,
                           peer_factory=get("naive").factory(),
                           seed=spec.seed_for(0))
        net = run_fast(n=spec.n, ell=spec.ell, protocol="naive",
                       seed=spec.seed_for(0))
        want = sim.data.segment(0, spec.ell)
        for output in net.outputs.values():
            assert output.segment(0, spec.ell) == want


class TestChaosArms:
    CHAOS = ("drop:0.15", "delay:0.01", "dup:0.1", "disconnect:0.03")

    def test_chaos_run_still_decodes_correctly(self):
        result = run_fast(n=3, ell=128, protocol="cross-validate",
                          protocol_params={"q": 3}, sources=3,
                          source_faults=("wrong-bits:1.0",),
                          proxy_faults=self.CHAOS, seed=7)
        assert result.download_correct
        assert sum(result.proxy_counts.values()) > 0

    def test_chaos_never_double_charges_q(self):
        clean = run_fast(n=3, ell=128, protocol="balanced", seed=9)
        noisy = run_fast(n=3, ell=128, protocol="balanced", seed=9,
                         proxy_faults=self.CHAOS)
        assert noisy.download_correct
        # Retries re-ask by the same request id; the server's dedupe
        # ledger answers from cache without charging again.
        assert noisy.query_complexity == clean.query_complexity
        assert noisy.total_query_bits == clean.total_query_bits

    def test_retry_counts_are_deterministic(self):
        runs = [run_fast(n=3, ell=96, protocol="naive", seed=21,
                         proxy_faults=("drop:0.25", "dup:0.1"))
                for _ in range(2)]
        assert runs[0].download_correct and runs[1].download_correct
        assert runs[0].retries == runs[1].retries
        assert runs[0].proxy_counts == runs[1].proxy_counts

    def test_blackout_fails_fast_never_hangs(self):
        started = time.monotonic()
        with pytest.raises(NetRunError):
            run_net_download(
                n=2, ell=32, protocol="naive",
                proxy_faults=("drop:1.0",), seed=3,
                retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                                  jitter=0.0),
                request_timeout=0.1, run_timeout=5.0)
        assert time.monotonic() - started < 5.0

    def test_run_deadline_trips(self):
        with pytest.raises(NetRunError, match="deadline"):
            run_net_download(
                n=2, ell=32, protocol="naive",
                proxy_faults=("drop:1.0",), seed=3,
                retry=RetryPolicy(max_attempts=50, base_delay=0.01,
                                  jitter=0.0),
                request_timeout=0.3, run_timeout=0.8)

    def test_failure_degrades_into_failed_runs(self, monkeypatch):
        # Spec layer: a blackout net run becomes a structured
        # failed_runs record, never a hung or crashed sweep.
        from repro.execution import NO_RETRY, ParallelRunner
        monkeypatch.setenv("REPRO_NET_TIMEOUT", "0.1")
        monkeypatch.setenv("REPRO_NET_RUN_TIMEOUT", "3")
        spec = ExperimentSpec(protocol="naive", n=2, ell=32,
                              backend="net", repeats=1,
                              proxy_faults=("drop:1.0",))
        (outcome,) = ParallelRunner(workers=1,
                                    policy=NO_RETRY).run_many([spec])
        assert outcome.failed_runs == 1
        (failure,) = outcome.failures
        assert failure.error_type == "NetRunError"


class TestSourceFaultLatency:
    def test_withholding_source_answers_after_delay(self):
        result = run_fast(n=2, ell=64, protocol="cross-validate",
                          protocol_params={"q": 2}, sources=2,
                          source_faults=("withhold",), seed=4,
                          withhold_delay=0.05)
        assert result.download_correct

    def test_slow_source_is_slow_but_truthful(self):
        result = run_fast(n=2, ell=64, protocol="cross-validate",
                          protocol_params={"q": 2}, sources=2,
                          source_faults=("slow:3",), seed=4,
                          base_delay=0.02)
        assert result.download_correct


class TestProcessMode:
    def test_process_mode_conforms_and_reaps(self):
        spec = CONFORMANCE_SPECS[0]
        task = run_fast(n=spec.n, ell=spec.ell, protocol="naive",
                        seed=spec.seed_for(0))
        proc = run_fast(n=spec.n, ell=spec.ell, protocol="naive",
                        seed=spec.seed_for(0), mode="process")
        assert proc.download_correct
        assert proc.query_complexity == task.query_complexity
        want = task.data.segment(0, spec.ell)
        for output in proc.outputs.values():
            assert output.segment(0, spec.ell) == want

    def test_process_mode_survives_chaos(self):
        result = run_fast(n=3, ell=64, protocol="balanced", seed=11,
                          mode="process",
                          proxy_faults=("drop:0.1", "delay:0.01"))
        assert result.download_correct


class TestSocketHost:
    """Hazards of driving the simulator's bodies over real sockets."""

    #: Two chunks, one withholding endpoint of three.  The shared body
    #: decodes eagerly, so two honest answers settle a chunk while the
    #: withheld third is outstanding — and chunk 1's query to that
    #: endpoint is issued while chunk 0's is still unanswered.
    TWO_CHUNKS = dict(n=1, ell=2 * 4096, sources=3,
                      source_faults=("withhold",), seed=13)

    @pytest.fixture(scope="class")
    def two_chunk_run(self):
        return run_fast(protocol="cross-validate", protocol_params={"q": 3},
                        withhold_delay=0.15, **self.TWO_CHUNKS)

    def test_every_issued_query_reaches_the_ledger(self, two_chunk_run):
        # The body ends with its last query not even sent (it queues
        # behind chunk 0's on that endpoint's connection).  The
        # simulator charged it at issue, so the peer must not hang up
        # before the server has seen it.
        from repro.protocols import get
        from repro.sim import run_download
        sim = run_download(peer_factory=get("cross-validate").factory(q=3),
                           **self.TWO_CHUNKS)
        assert two_chunk_run.download_correct
        assert two_chunk_run.query_bits == {0: 3 * 2 * 4096}
        assert two_chunk_run.queried_by_source == sim.queried_by_source

    def test_one_request_in_flight_per_client(self, two_chunk_run):
        # Sharing the connection, the two queries to the withholding
        # endpoint would discard each other's responses and time out
        # into retries.
        assert two_chunk_run.retries == 0

    def test_client_serializes_concurrent_requests(self):
        from repro.net import NetClient

        hung_up = asyncio.Event()

        async def echo(reader, writer):
            while (frame := await read_frame(reader)) is not None:
                await asyncio.sleep(0.02)
                writer.write(encode_frame({"rid": frame["rid"]}))
                await writer.drain()
            writer.close()
            await writer.wait_closed()
            hung_up.set()

        async def go():
            import tempfile
            with tempfile.TemporaryDirectory(prefix="rnet-") as sock_dir:
                server = await asyncio.start_unix_server(
                    echo, path=f"{sock_dir}/echo.sock")
                client = NetClient(f"{sock_dir}/echo.sock", proc="test",
                                   retry=FAST_RETRY, timeout=0.5)
                try:
                    answers = await asyncio.gather(*(
                        client.request({"type": "query", "rid": f"r{i}"})
                        for i in range(4)))
                finally:
                    client.close()
                    await asyncio.wait_for(hung_up.wait(), timeout=5)
                    server.close()
                    await server.wait_closed()
                return [answer["rid"] for answer in answers], client.retries

        assert asyncio.run(go()) == (["r0", "r1", "r2", "r3"], 0)

    def test_a_failed_run_leaves_no_task_behind(self, caplog):
        import gc
        import logging
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with pytest.raises(NetRunError, match="NetRequestError"):
                run_net_download(
                    n=3, ell=2 * 4096, protocol="cross-validate",
                    protocol_params={"q": 3}, sources=3,
                    proxy_faults=("drop:1.0",), seed=3,
                    retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                                      jitter=0.0),
                    request_timeout=0.1, run_timeout=5.0)
            gc.collect()
        assert [record.getMessage() for record in caplog.records] == []

    def host(self, protocol, inbox=None, client_factory=None):
        from repro.net.peers import NetPeer
        from repro.protocols import get
        return NetPeer(0, get(protocol).peer_class, {}, n=2, ell=8,
                       sources=1, client_factory=client_factory,
                       source_path="unused", inbox=inbox)

    def test_run_reraises_a_failed_task_and_owns_the_rest(self):
        from repro.net import NetRequestError

        class DeadClient:
            retries = 0

            async def request(self, payload, parse=None):
                await asyncio.sleep(0.01)
                raise NetRequestError("no route")

            def close(self):
                pass

        async def go():
            peer = self.host("naive",
                             client_factory=lambda path, proc: DeadClient())
            before = asyncio.all_tasks()
            with pytest.raises(NetRequestError, match="no route"):
                await peer.run()
            return peer._tasks, asyncio.all_tasks() - before

        assert asyncio.run(go()) == (set(), set())

    def test_a_cancelled_run_cancels_what_it_spawned(self):
        class SilentClient:
            retries = 0

            async def request(self, payload, parse=None):
                await asyncio.Event().wait()

            def close(self):
                pass

        async def go():
            peer = self.host("naive",
                             client_factory=lambda path, proc: SilentClient())
            before = asyncio.all_tasks()
            run = asyncio.ensure_future(peer.run())
            await asyncio.sleep(0.01)
            assert peer._tasks  # the query is out
            run.cancel()
            with pytest.raises(asyncio.CancelledError):
                await run
            return peer._tasks, asyncio.all_tasks() - before

        assert asyncio.run(go()) == (set(), set())

    def test_each_share_frame_is_parsed_once(self):
        # The body's ShareMessage carries the inbox's parsed dict
        # itself, not a second parse or a copy of it.
        from repro.net import PeerInbox
        from repro.protocols import ShareMessage

        async def go():
            inbox = PeerInbox(0)
            peer = self.host("balanced", inbox=inbox)
            pump = asyncio.ensure_future(peer._pump_shares())
            inbox.shares[(1, 0)] = {1: 0, 3: 1, 5: 1, 7: 0}
            inbox._changed.set()
            await asyncio.sleep(0.01)
            pump.cancel()
            (message,) = peer.peer.inbox.of_type(ShareMessage)
            return message.values is inbox.shares[(1, 0)]

        assert asyncio.run(go())

    def test_sparse_topology_floods_and_relays(self):
        result = run_fast(n=5, ell=64, protocol="balanced",
                          topology="ring", seed=3)
        assert result.download_correct
        # Every peer sends its own share and relays the four others',
        # to both ring neighbours.
        assert result.messages == 5 * (1 + 4) * 2
