"""Download-based Oracle Data Collection (Theorem 4.2).

The paper's proposal: instead of every node reading every feed in
full, the oracle network runs one DR-model **Download** per feed — the
read cost of each feed is then *shared* across the ``n`` nodes instead
of being paid ``n`` times.  For an honest feed, the Download guarantee
gives every honest node the feed's exact vector; per-cell medians over
feeds and the quorum-median contract then deliver the ODD honest-range
guarantee exactly as in the baseline, at a per-node query cost of
roughly ``feeds * cells * value_bits / n`` (times the protocol's
fault-tolerance factor) instead of ``feeds * cells * value_bits``.

Byzantine *nodes* participate in each per-feed Download as Byzantine
peers (driven by the supplied strategy); Byzantine *feeds* — including
equivocating ones — corrupt only their own column, which the feed
median absorbs.

The default protocol is the deterministic committee download
(Theorem 3.4): with an honest node majority it is correct in every
execution, so the end-to-end ODD guarantee is unconditional.  Any
registered protocol can be swapped in via ``peer_factory``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.adversary.base import NullAdversary
from repro.adversary.byzantine import ByzantineAdversary, WrongBitsStrategy
from repro.adversary.compose import ComposedAdversary
from repro.adversary.latency import UniformRandomDelay
from repro.oracle.chain import AggregationContract, Chain
from repro.oracle.numeric import decode_values, max_value, median
from repro.oracle.odd import ODCOutcome, OracleSetup
from repro.protocols.byz_committee import ByzCommitteeDownloadPeer
from repro.sim.runner import Simulation
from repro.util.rng import derive_seed


def run_download_odc(setup: OracleSetup, *,
                     peer_factory: Optional[Callable] = None,
                     strategy_factory: Optional[Callable] = None,
                     asynchronous: bool = True,
                     seed: int = 0) -> ODCOutcome:
    """Execute the Download-based ODC pipeline end to end."""
    if peer_factory is None:
        # give_up_time: a Byzantine feed can equivocate, in which case
        # "t+1 identical reports" never materializes; nodes then read
        # the unresolved blocks themselves (see the protocol's docs).
        peer_factory = ByzCommitteeDownloadPeer.factory(
            block_size=setup.value_bits, give_up_time=50.0)
    if strategy_factory is None:
        strategy_factory = lambda pid: WrongBitsStrategy()  # noqa: E731

    chain = Chain()
    contract = AggregationContract(chain, cells=setup.cells,
                                   node_fault_bound=setup.node_fault_bound)
    ceiling = max_value(setup.value_bits)
    per_node_bits: dict[int, int] = {node: 0 for node in setup.honest_nodes}
    per_node_vectors: dict[int, list[list[int]]] = {
        node: [] for node in setup.honest_nodes}
    feed_runs = []

    for feed in setup.feeds:
        faults = ByzantineAdversary(corrupted=set(setup.byzantine_nodes),
                                    strategy_factory=strategy_factory) \
            if setup.byzantine_nodes else NullAdversary()
        latency = (UniformRandomDelay() if asynchronous
                   else NullAdversary())
        adversary = (ComposedAdversary(faults=faults, latency=latency)
                     if setup.byzantine_nodes else latency)
        run = Simulation(
            n=setup.nodes,
            data=feed.encoded_for(0),
            peer_factory=peer_factory,
            t=setup.node_fault_bound,
            adversary=adversary,
            seed=derive_seed(seed, f"feed-{feed.feed_id}"),
            source_faults=[feed.source_fault()],
        ).run()
        feed_runs.append((feed.feed_id, run))
        for node in setup.honest_nodes:
            per_node_bits[node] += run.report.per_peer_query_bits.get(node, 0)
            output = run.outputs.get(node)
            if output is None:
                # A failed download of this feed: the node treats the
                # feed as unavailable and skips its column.
                continue
            per_node_vectors[node].append(
                decode_values(output, setup.value_bits))

    # Byzantine node reports first (worst case for the contract).
    for node in sorted(setup.byzantine_nodes):
        contract.submit(node, [ceiling] * setup.cells)
    for node in setup.honest_nodes:
        vectors = per_node_vectors[node]
        report = [median([vector[cell] for vector in vectors])
                  for cell in range(setup.cells)]
        contract.submit(node, report)

    honest_bits = [per_node_bits[node] for node in setup.honest_nodes]
    return ODCOutcome(
        pipeline="download",
        finalized=contract.finalized,
        total_query_bits=sum(honest_bits),
        max_honest_node_query_bits=max(honest_bits, default=0),
        per_node_query_bits=per_node_bits,
        details={
            "quorum": contract.quorum,
            "reporters": len(contract.reports),
            "feed_downloads_correct": sum(
                1 for _, run in feed_runs if run.all_honest_terminated),
        },
    )
