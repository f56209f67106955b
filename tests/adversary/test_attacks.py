"""Unit tests for protocol-aware scripted attacks, named as a spec names
them: ``fault_model="byzantine"`` with the attack as ``strategy``."""

from repro.experiments import ExperimentSpec
from repro.sim import run_download


def attacked(protocol, n, ell, strategy, params, *, beta=0.3, seed):
    spec = ExperimentSpec(protocol, n, ell, fault_model="byzantine",
                          beta=beta, strategy=strategy,
                          protocol_params=params)
    return run_download(n=n, ell=ell, peer_factory=spec.peer_factory(),
                        adversary=spec.build_adversary(), seed=seed)


class TestCommitteeForge:
    def test_committee_protocol_survives_forged_reports(self):
        result = attacked("byz-committee", 10, 512, "committee-forge",
                          {"block_size": 16}, seed=3)
        assert result.download_correct

    def test_nonexistent_block_reports_ignored(self):
        # The attacker forges a report for a block beyond the range;
        # honest peers must not crash on it.
        result = attacked("byz-committee", 8, 128, "committee-forge",
                          {"block_size": 64}, seed=4)
        assert result.download_correct


class TestFrequencyAttacks:
    def run_two_cycle(self, strategy, seed=5):
        return attacked("byz-two-cycle", 40, 4096, strategy,
                        {"num_segments": 4, "tau": 3}, beta=0.15,
                        seed=seed)

    def test_spam_survives_but_costs_tree_queries(self):
        result = self.run_two_cycle("frequency-spam")
        assert result.download_correct
        assert result.report.query_complexity > 1024  # 4096/4 + extras

    def test_split_reports_filtered_for_free(self):
        result = self.run_two_cycle("split-report")
        assert result.download_correct
        assert result.report.query_complexity == 1024  # exactly one segment

    def test_spam_strictly_costlier_than_split(self):
        spam = self.run_two_cycle("frequency-spam")
        split = self.run_two_cycle("split-report")
        assert spam.report.query_complexity > split.report.query_complexity
