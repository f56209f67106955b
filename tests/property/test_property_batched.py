"""Property-based tests for the engine's batched kernels.

Each batched primitive (tier-mask vote tallies, the committee board
built on them, whole-run assignment maps, segment-packed BitArray
construction) must be *extensionally equal* to the per-peer,
per-message statement of the same rule — the golden battery pins whole
runs, these pin the kernels element for element on arbitrary inputs.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.assignment import (
    committee_for,
    committees_by_peer,
    committees_of_peer,
)
from repro.core.segments import Segmentation
from repro.protocols.board import CommitteeBoard, TierTally
from repro.util.bitarrays import BitArray

# A vote mask over a small peer universe; small enough that sequences
# of them explore saturation and re-voting quickly.
vote_masks = st.integers(min_value=0, max_value=(1 << 12) - 1)

segments = st.lists(
    st.text(alphabet="01", min_size=0, max_size=40), max_size=12)


class TestTierTally:
    @given(st.lists(vote_masks, max_size=30),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_peer_counters(self, masks, threshold):
        """Saturating counts and newly-at-threshold sets both equal a
        naive dict of per-peer integer counters."""
        tally = TierTally(threshold)
        counts: dict[int, int] = {}
        for mask in masks:
            expected_newly = 0
            for pid in range(12):
                if (mask >> pid) & 1:
                    before = counts.get(pid, 0)
                    counts[pid] = min(threshold, before + 1)
                    if before == threshold - 1:
                        expected_newly |= 1 << pid
            assert tally.add(mask) == expected_newly
        for pid in range(12):
            assert tally.count(pid) == counts.get(pid, 0)

    @given(st.lists(vote_masks, min_size=1, max_size=30),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_each_peer_reaches_threshold_at_most_once(self, masks,
                                                      threshold):
        tally = TierTally(threshold)
        seen = 0
        for mask in masks:
            newly = tally.add(mask)
            assert newly & seen == 0
            seen |= newly


class _RecordingKernel:
    """Stands in for the kernel: the board only reads ``now`` and
    calls ``notify``."""

    def __init__(self) -> None:
        self.now = 0.0
        self.notified: list[int] = []

    def notify(self, receiver) -> None:
        self.notified.append(receiver.pid)


class _ModelPeer:
    """Theorem 3.4's acceptance rule for ONE peer, as the paper states
    it: accept a block once ``t + 1`` distinct members of its committee
    reported the same string; the first acceptance wins."""

    def __init__(self, n, t, blocks):
        self.n, self.t, self.blocks = n, t, blocks
        self.accepted: dict[int, str] = {}
        self.support: dict[tuple[int, str], set[int]] = {}

    def report(self, sender, block, string):
        if block in self.accepted:
            return
        if not 0 <= block < self.blocks.num_segments:
            return
        if sender not in committee_for(block, 2 * self.t + 1, self.n):
            return
        if len(string) != self.blocks.length(block):
            return
        supporters = self.support.setdefault((block, string), set())
        supporters.add(sender)
        if len(supporters) >= self.t + 1:
            self.accepted[block] = string

    def self_accept(self, block, string):
        self.accepted.setdefault(block, string)

    @property
    def complete(self):
        return len(self.accepted) == self.blocks.num_segments


@st.composite
def board_scenarios(draw):
    """A board shape plus a random interleaving of deliveries: honest
    and forged reports, duplicates, non-members, out-of-range blocks
    and senders, wrong-width strings."""
    n = draw(st.integers(min_value=3, max_value=9))
    t = draw(st.integers(min_value=0, max_value=(n - 1) // 2))
    ell = draw(st.integers(min_value=1, max_value=9))
    blocks = Segmentation(ell, draw(st.integers(min_value=1,
                                                max_value=min(ell, 4))))
    num_blocks = blocks.num_segments
    any_block = st.integers(min_value=-1, max_value=num_blocks)
    any_sender = st.integers(min_value=-1, max_value=n)

    def report():
        block = draw(any_block)
        width = blocks.length(min(max(block, 0), num_blocks - 1))
        # Two candidate values per block (so equal strings recur and
        # reach t + 1), now and then one of the wrong width.
        string = draw(st.sampled_from(
            ["0" * width, "1" * width, "1" * (width + 1), ""]))
        return draw(any_sender), block, string

    # A small pool of reports, so the same one is delivered again and
    # again (to the same peer too: duplicates must count once).
    pool = st.sampled_from([report() for _ in range(
        draw(st.integers(min_value=1, max_value=6)))])
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        kind = draw(st.sampled_from(["single", "single", "span", "span",
                                     "self"]))
        if kind == "single":
            ops.append(("single", draw(st.integers(0, n - 1)), *draw(pool)))
        elif kind == "span":
            lo = draw(st.integers(0, n - 1))
            hi = draw(st.integers(lo + 1, n))
            ops.append(("span", lo, hi, *draw(pool)))
        else:
            block = draw(st.integers(0, num_blocks - 1))
            ops.append(("self", draw(st.integers(0, n - 1)), block,
                        draw(st.sampled_from("01")) * blocks.length(block)))
    return n, t, blocks, ops


class TestCommitteeBoardModel:
    @given(board_scenarios())
    @settings(max_examples=300, deadline=None)
    def test_board_equals_the_per_peer_rule(self, scenario):
        """After every delivery the board and ``n`` independent model
        peers agree, peer by peer, on which blocks are accepted; a span
        wakes exactly the peers it completed, in ascending order, and a
        single delivery wakes nobody (the peer's own ``deliver`` does);
        the final outputs show every accepted string is the model's."""
        n, t, blocks, ops = scenario
        num_blocks = blocks.num_segments
        kernel = _RecordingKernel()
        board = CommitteeBoard(kernel=kernel, n=n, t=t, blocks=blocks,
                               committee_size=2 * t + 1)
        for pid in range(n):
            board.register(SimpleNamespace(pid=pid, give_up_time=None))
        model = [_ModelPeer(n, t, blocks) for _ in range(n)]
        for op in ops:
            kernel.notified.clear()
            was_complete = [peer.complete for peer in model]
            if op[0] == "single":
                _, pid, sender, block, string = op
                board.on_single(pid, SimpleNamespace(
                    sender=sender, block=block, string=string))
                model[pid].report(sender, block, string)
                assert kernel.notified == []
            elif op[0] == "span":
                _, lo, hi, sender, block, string = op
                board.deliver_span(SimpleNamespace(
                    sender=sender, block=block, string=string), lo, hi)
                for pid in range(lo, hi):
                    model[pid].report(sender, block, string)
                assert kernel.notified == [
                    pid for pid in range(lo, hi)
                    if model[pid].complete and not was_complete[pid]]
            else:
                _, pid, block, string = op
                board.self_accept(pid, block, string)
                model[pid].self_accept(block, string)
            for pid in range(n):
                assert board.accepted_blocks(pid) == len(model[pid].accepted)
                assert board.unaccepted_blocks(pid) == [
                    block for block in range(num_blocks)
                    if block not in model[pid].accepted]
        # Settle what is left with a per-peer filler, then read every
        # accepted string back through the only read side peers have.
        for pid in range(n):
            filler = "01"[pid % 2]
            for block in board.unaccepted_blocks(pid):
                string = filler * blocks.length(block)
                board.self_accept(pid, block, string)
                model[pid].self_accept(block, string)
            output = board.output_for(pid)
            assert output.segment(0, len(output)) == "".join(
                model[pid].accepted[block] for block in range(num_blocks))

    @given(board_scenarios(), st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_past_the_deadline_a_span_notifies_every_peer_in_it(
            self, scenario, now):
        """``give_up_time`` waits are satisfied by the clock alone, so
        from the deadline on a span notifies its whole pid range (as
        per-message deliveries would); before it, only completions."""
        n, t, blocks, ops = scenario
        kernel = _RecordingKernel()
        kernel.now = now
        board = CommitteeBoard(kernel=kernel, n=n, t=t, blocks=blocks,
                               committee_size=2 * t + 1)
        for pid in range(n):
            board.register(SimpleNamespace(pid=pid, give_up_time=1.0))
        for op in ops:
            if op[0] != "span":
                continue
            _, lo, hi, sender, block, string = op
            kernel.notified.clear()
            board.deliver_span(SimpleNamespace(
                sender=sender, block=block, string=string), lo, hi)
            if now >= 1.0:
                assert kernel.notified == list(range(lo, hi))
            else:
                assert set(kernel.notified) <= set(range(lo, hi))


class TestCommitteesByPeer:
    @given(st.integers(min_value=0, max_value=40),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_peer_scan(self, blocks, committee_size, n):
        batched = committees_by_peer(blocks, committee_size, n)
        for pid in range(n):
            assert batched.get(pid, []) == committees_of_peer(
                pid, blocks, committee_size, n)

    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_total_membership_is_blocks_times_size(self, blocks,
                                                   committee_size, n):
        batched = committees_by_peer(blocks, committee_size, n)
        total = sum(len(block_ids) for block_ids in batched.values())
        assert total == blocks * min(committee_size, n)


class TestFromSegments:
    @given(segments)
    @settings(max_examples=200, deadline=None)
    def test_equals_from_string_of_concatenation(self, parts):
        joined = "".join(parts)
        packed = BitArray.from_segments(parts)
        reference = BitArray.from_string(joined)
        assert len(packed) == len(joined)
        assert packed.segment(0, len(packed)) == \
            reference.segment(0, len(reference))

    @given(segments)
    @settings(max_examples=100, deadline=None)
    def test_round_trips_each_segment(self, parts):
        packed = BitArray.from_segments(parts)
        offset = 0
        for part in parts:
            assert packed.segment(offset, offset + len(part)) == part
            offset += len(part)
