"""The byte-column vote tally against the per-position loop it replaced.

``cross-validate`` and ``cross-validate-escalate`` tally a chunk's
answers as byte columns (one-votes summed as integers, a
``bytes.translate`` table per rule and number of answers in).  The
reference is the deleted code, kept here: one Python list of votes per
position, ``majority_decode`` / ``threshold_decode`` called on each.
Same seed, same endpoints, same arrival order ⇒ the two must learn the
same bits, charge the same queries and emit the same
``source_disagreement`` events (votes in arrival order) — on the
simulator under drawn answer latencies, and on the lockstep host where
a withholding endpoint's answer never comes.
"""

from unittest import mock

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.adversary.base import Adversary
from repro.obs.telemetry import RecordingTelemetry, using
from repro.protocols import multisource
from repro.protocols.decode import majority_decode, threshold_decode
from repro.protocols.multisource import (CrossValidateDownloadPeer,
                                         CrossValidateEscalateDownloadPeer)
from repro.sim import run_download
from repro.sync import hosted_factory, run_sync_download
from repro.sync.escalate import LockstepEscalatePeer

COMMON = dict(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

FAULTS = ["honest", "honest", "wrong-bits:1.0", "wrong-bits:0.5",
          "stale:0.5", "withhold", "slow:3"]


# -- the reference: the per-position tally, as it was ---------------------------

class PerPositionVotes:
    """Mixin restoring the deleted ``_resolve_chunk`` bodies."""

    def _note_votes(self, index, votes):
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.emit("source_disagreement", {
                "t": self.env.kernel.now, "peer": self.pid,
                "index": index, "votes": list(votes)})

    def _absorb_votes(self, pending, votes, fallback):
        for rid in [rid for rid in pending if self.response_ready(rid)]:
            sid = pending.pop(rid)
            for index, bit in self.take_response(rid).items():
                votes[index].append(bit)
                best = fallback.get(index)
                if best is None or sid < best[0]:
                    fallback[index] = (sid, bit)


class ReferenceCrossValidate(PerPositionVotes, CrossValidateDownloadPeer):
    def _resolve_chunk(self, lo, hi, chunk_no):
        pending = {self.start_query(range(lo, hi), source=sid): sid
                   for sid in self._chunk_sources(chunk_no)}
        votes = {index: [] for index in range(lo, hi)}
        fallback, decided = {}, {}
        while True:
            ready = [rid for rid in pending if self.response_ready(rid)]
            self._absorb_votes(pending, votes, fallback)
            if ready:
                for index in range(lo, hi):
                    if index in decided:
                        continue
                    bit = self._decode(votes[index])
                    if bit is not None:
                        decided[index] = bit
            if len(decided) == hi - lo or not pending:
                break
            yield self.wait_until(
                lambda: any(rid in self._source_responses
                            for rid in pending),
                f"votes for chunk [{lo}, {hi})")
        for index in range(lo, hi):
            if index in decided:
                continue
            self._note_votes(index, votes[index])
            decided[index] = fallback[index][1]
        for index, bit in decided.items():
            self.learn(index, bit)


class ReferenceEscalate(PerPositionVotes, CrossValidateEscalateDownloadPeer):
    def _resolve_chunk(self, lo, hi, chunk_no):
        first, extra = self._escalation_sources(chunk_no)
        pending = {self.start_query(range(lo, hi), source=sid): sid
                   for sid in first}
        votes = {index: [] for index in range(lo, hi)}
        fallback = {}

        def absorb():
            self._absorb_votes(pending, votes, fallback)
            return bool(fallback)

        yield from self._gather(
            pending, absorb, f"optimistic votes for chunk [{lo}, {hi})")
        disagreeing = [index for index in range(lo, hi)
                       if threshold_decode(votes[index],
                                           len(first)) is None]
        if disagreeing:
            for index in disagreeing:
                self._note_votes(index, votes[index])
            self._on_disagreement()
        elif not (yield from self._on_unanimous()):
            for index in range(lo, hi):
                self.learn(index, votes[index][0])
            return
        self.note_phase(f"escalate:[{lo},{hi})")
        yield from self._second_step()
        pending = {self.start_query(range(lo, hi), source=sid): sid
                   for sid in extra}
        yield from self._gather(
            pending, absorb, f"escalated votes for chunk [{lo}, {hi})")
        for index in range(lo, hi):
            bit = majority_decode(votes[index], self.q)
            if bit is None:
                self._note_votes(index, votes[index])
                bit = fallback[index][1]
            self.learn(index, bit)


class ReferenceLockstepEscalate(ReferenceEscalate, LockstepEscalatePeer):
    """The lockstep refinement's steps over the reference tally."""


# -- drawn runs -----------------------------------------------------------------

class DrawnLatency(Adversary):
    """Answers each query after the next of the drawn latencies, so the
    order (and batching) of a chunk's answers is Hypothesis's choice."""

    def __init__(self, latencies):
        super().__init__()
        self.latencies = latencies
        self.asked = 0

    def query_latency(self, pid, now):
        self.asked += 1
        return self.latencies[(self.asked - 1) % len(self.latencies)]


@st.composite
def source_sets(draw, max_k=5):
    k = draw(st.integers(1, max_k))
    faults = tuple(draw(st.lists(st.sampled_from(FAULTS), min_size=k,
                                 max_size=k)))
    return k, faults


@st.composite
def cross_validate_cases(draw):
    k, faults = draw(source_sets())
    q = draw(st.integers(1, k))
    params = {"q": q}
    if draw(st.booleans()):
        params.update(decode="threshold",
                      threshold=draw(st.integers(1, q)))
    return k, faults, params


@st.composite
def escalate_cases(draw):
    k, faults = draw(source_sets())
    return k, faults, {"f": draw(st.integers(0, (k - 1) // 2))}


shapes = st.tuples(st.integers(1, 3),                 # n
                   st.integers(1, 40),                # ell
                   st.integers(0, 2 ** 20),           # seed
                   st.lists(st.sampled_from([1.0, 1.0, 2.0, 3.5]),
                            min_size=1, max_size=7))  # latencies


def observe(run, **kwargs):
    """Everything the two tallies must agree on, for one run."""
    recording = RecordingTelemetry()
    with using(recording), mock.patch.object(multisource, "_CHUNK", 16):
        result = run(**kwargs)
    report = getattr(result, "report", result)
    return {
        "outputs": result.outputs,
        "queries": report.per_peer_query_bits,
        "disagreements": recording.events_of("source_disagreement"),
        "phases": recording.events_of("phase"),
        "asked": recording.events_of("query"),
    }


def on_sim(peer_class, params, k, faults, shape):
    n, ell, seed, latencies = shape
    return observe(run_download, n=n, ell=ell, seed=seed, sources=k,
                   source_faults=faults,
                   peer_factory=peer_class.factory(**params),
                   adversary=DrawnLatency(latencies))


def on_lockstep(peer_class, params, k, faults, shape):
    n, ell, seed, _ = shape
    return observe(run_sync_download, n=n, ell=ell, seed=seed, sources=k,
                   source_faults=faults,
                   peer_factory=hosted_factory(peer_class, **params))


# -- (b) the battery ------------------------------------------------------------

@settings(**COMMON)
@given(case=cross_validate_cases(), shape=shapes)
def test_cross_validate_columns_equal_the_per_position_votes(case, shape):
    k, faults, params = case
    new = on_sim(CrossValidateDownloadPeer, params, k, faults, shape)
    assert new == on_sim(ReferenceCrossValidate, params, k, faults, shape)
    assert all(output is not None for output in new["outputs"].values())


@settings(**COMMON)
@given(case=escalate_cases(), shape=shapes)
def test_escalate_columns_equal_the_per_position_votes(case, shape):
    k, faults, params = case
    new = on_sim(CrossValidateEscalateDownloadPeer, params, k, faults, shape)
    assert new == on_sim(ReferenceEscalate, params, k, faults, shape)
    assert all(output is not None for output in new["outputs"].values())


@settings(**COMMON)
@given(case=cross_validate_cases(), shape=shapes)
def test_withheld_lockstep_answers_are_missing_votes_in_both(case, shape):
    k, faults, params = case
    # Every peer's q endpoints include one that answers: a chunk with
    # no vote at all has no fallback in either tally.
    assume(faults.count("withhold") < params["q"])
    new = on_lockstep(CrossValidateDownloadPeer, params, k, faults, shape)
    assert new == on_lockstep(ReferenceCrossValidate, params, k, faults,
                              shape)


@settings(**COMMON)
@given(case=escalate_cases(), shape=shapes,
       alert=st.booleans())
def test_lockstep_escalate_columns_equal_the_per_position_votes(case, shape,
                                                                alert):
    k, faults, params = case
    assume(faults.count("withhold") <= params["f"])
    params = dict(params, alert=alert)
    new = on_lockstep(LockstepEscalatePeer, params, k, faults, shape)
    assert new == on_lockstep(ReferenceLockstepEscalate, params, k, faults,
                              shape)


# -- the named corners ----------------------------------------------------------

def test_a_second_value_reaching_the_threshold_keeps_the_first_decision():
    """threshold 2 of q 4, answers arriving two and two.  Where the
    first two agree the position decodes at once; the two full liars
    that answer next bring the other value to the threshold as well,
    which must neither reopen nor undo that decision.  (Rotation makes
    the first pair honest + half-liar in chunk 0 and other pairs in the
    chunks after it.)"""
    params = {"q": 4, "decode": "threshold", "threshold": 2}
    faults = ("honest", "wrong-bits:0.5", "wrong-bits:1.0", "wrong-bits:1.0")
    for seed in range(5):
        shape = (1, 40, seed, [1.0, 1.0, 2.0, 2.0])
        new = on_sim(CrossValidateDownloadPeer, params, 4, faults, shape)
        assert new == on_sim(ReferenceCrossValidate, params, 4, faults,
                             shape)
    # All answers at once (a lockstep round) is the ambiguous case
    # instead: both values reach the threshold together, nothing
    # decodes, and every position falls back to the lowest endpoint.
    params = {"q": 2, "decode": "threshold", "threshold": 1}
    faults = ("honest", "wrong-bits:1.0")
    shape = (1, 40, 11, [1.0])
    new = on_lockstep(CrossValidateDownloadPeer, params, 2, faults, shape)
    assert new == on_lockstep(ReferenceCrossValidate, params, 2, faults,
                              shape)
    assert len(new["disagreements"]) == 40


def test_the_all_answers_in_fallback_is_the_lowest_numbered_responder():
    """q = 2 with one certain liar splits every position 1-1: same
    learned bits, same event payloads, votes in arrival order."""
    for latencies in ([1.0, 2.0], [2.0, 1.0], [1.0]):
        shape = (2, 40, 7, latencies)
        faults = ("wrong-bits:1.0", "honest")
        new = on_sim(CrossValidateDownloadPeer, {"q": 2}, 2, faults, shape)
        assert new == on_sim(ReferenceCrossValidate, {"q": 2}, 2, faults,
                             shape)
        assert len(new["disagreements"]) == 2 * 40
        assert all(sorted(event["votes"]) == [0, 1]
                   for event in new["disagreements"])
