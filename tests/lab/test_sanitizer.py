"""Determinism sanitizer: phase-boundary state hashes prove bit-identity.

Two claims are tested here.  First, the positive one: with ``--sanitize``
plain, resilient and checkpointed runs of one seed produce *identical*
per-phase digests, so the hashes are evidence rather than noise.  Second,
the diagnostic one: when a divergence is injected, ``diff_traces``
localizes it to the first divergent (chip, phase) span instead of just
reporting that final results differ.
"""

import pytest

from repro.lab.campaign import run_table1_campaign
from repro.lab.fleet import FleetBench
from repro.lab.resilience import RetryPolicy
from repro.lab.sanitizer import NULL_SANITIZER
from repro.obs import Tracer
from repro.obs.query import TraceModel, diff_traces


@pytest.fixture(scope="module")
def sanitized_run():
    return run_table1_campaign(seed=123, n_chips=2, sanitize=True)


class TestPhaseHashes:
    def test_sequential_run_emits_phase_hashes(self, sanitized_run):
        hashes = sanitized_run.state_hashes
        assert len(hashes) == 5  # 2 baselines + 2 stress/recovery + re-stress
        for key, digest in hashes.items():
            chip_id, _, seq = key.partition("/")
            assert chip_id.startswith("chip-")
            assert len(seq) == 3 and seq.isdigit()
            assert len(digest) == 16
            int(digest, 16)  # hex

    def test_checkpointed_hashes_bit_identical(self, sanitized_run, tmp_path):
        checkpointed = run_table1_campaign(
            seed=123, n_chips=2, checkpoint=str(tmp_path / "ck"), sanitize=True
        )
        assert checkpointed.state_hashes == sanitized_run.state_hashes
        assert checkpointed.state_hashes

    def test_resilient_path_hashes_bit_identical(self, sanitized_run):
        resilient = run_table1_campaign(
            seed=123, n_chips=2, retry=RetryPolicy(), sanitize=True
        )
        assert resilient.state_hashes == sanitized_run.state_hashes

    def test_unsanitized_runs_carry_no_hashes(self):
        result = run_table1_campaign(seed=123, n_chips=2)
        assert result.state_hashes == {}

    def test_null_sanitizer_is_inert(self):
        assert NULL_SANITIZER.enabled is False
        assert NULL_SANITIZER.hashes == {}
        assert NULL_SANITIZER.record_phase(None, None, None, "c", "p", [], 0) == ""
        assert NULL_SANITIZER.hashes == {}

    def test_hashes_depend_on_seed(self, sanitized_run):
        other = run_table1_campaign(seed=124, n_chips=2, sanitize=True)
        assert other.state_hashes != sanitized_run.state_hashes
        assert other.state_hashes.keys() == sanitized_run.state_hashes.keys()


def _traced_run(monkeypatch=None, diverge=False) -> TraceModel:
    if diverge:
        original = FleetBench._delivered_voltage

        def skewed(self, index):
            value = original(self, index)
            # Strictly after the 2 h baseline: seq 0 still matches, the
            # first stress phase on chip-2 is where history forks.  Only
            # positive (stress) voltages are skewed — recovery biases
            # must stay non-positive to pass chip validation.
            if (
                value > 0.0
                and self.fleet.chip_ids[index] == "chip-2"
                and self.fleet.elapsed[index] > 7200.0
            ):
                value += 1e-6
            return value

        monkeypatch.setattr(FleetBench, "_delivered_voltage", skewed)
    tracer = Tracer()
    run_table1_campaign(seed=123, n_chips=2, tracer=tracer, sanitize=True)
    if monkeypatch is not None:
        monkeypatch.undo()
    return TraceModel.from_tracer(tracer)


class TestDivergenceLocalization:
    def test_identical_runs_have_no_divergent_rows(self):
        diff = diff_traces(_traced_run(), _traced_run())
        assert diff.hash_rows
        assert diff.hash_divergent() == []
        assert diff.first_divergence() is None

    def test_injected_divergence_is_localized(self, monkeypatch):
        clean = _traced_run()
        skewed = _traced_run(monkeypatch, diverge=True)
        diff = diff_traces(clean, skewed)

        first = diff.first_divergence()
        assert first is not None
        assert first.chip_id == "chip-2"
        assert first.seq == 1  # baseline (seq 0) matched; stress forked
        assert first.a != first.b

        # chip-1 never saw the skew: every one of its spans still matches.
        assert all(
            row.match for row in diff.hash_rows if row.chip_id == "chip-1"
        )
        # Divergence is causal: once chip-2 forks it never re-converges.
        chip2 = sorted(
            (r for r in diff.hash_rows if r.chip_id == "chip-2"),
            key=lambda r: r.seq,
        )
        assert [r.match for r in chip2] == [True, False, False]


class TestSanitizerUnit:
    def test_hash_keys_are_sequenced_per_chip(self):
        result = run_table1_campaign(seed=7, n_chips=1, sanitize=True)
        assert list(result.state_hashes) == ["chip-1/000", "chip-1/001"]
