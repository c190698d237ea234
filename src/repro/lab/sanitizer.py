"""Runtime determinism sanitizer: per-chip state hashes at phase ends.

With ``repro campaign --sanitize`` every chip carries a
:class:`_ChipHasher` that folds, at each phase boundary, the records the
phase appended, the chip's trap-occupancy state and the bench RNG state
into a rolling SHA-256.  The digests land both in
``CampaignResult.state_hashes`` (for direct equality asserts) and in
``state_hash`` spans on the trace, so two runs — a plain run vs a
checkpointed one, or today vs last week — can be compared span-by-span
and ``repro trace diff`` pinpoints the first phase where chip state
diverged.

Hashes depend only on per-chip simulated history, never on wall clock,
so two runs of the same seed must produce identical digests.  A
mismatch is a determinism bug by definition.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from itertools import islice

import numpy as np


class _ChipHasher:
    """Rolling digest of one chip's measurement/trap/RNG history."""

    def __init__(self, chip_id: str) -> None:
        self.chip_id = chip_id
        self.seq = 0
        self._rolling = hashlib.sha256(chip_id.encode())

    def feed_records(self, records) -> None:
        """Fold measurement records (this phase's slice) into the digest."""
        for record in records:
            payload = tuple(getattr(record, f.name) for f in fields(record))
            self._rolling.update(repr(payload).encode())

    def snapshot(self, bench) -> str:
        """Point-in-time digest: rolling history + trap + RNG state."""
        digest = self._rolling.copy()
        state = bench.chip.export_state()
        for key in sorted(state):
            value = state[key]
            digest.update(key.encode())
            if isinstance(value, np.ndarray):
                digest.update(value.tobytes())
            else:
                digest.update(repr(float(value)).encode())
        digest.update(
            json.dumps(bench.rng_state, sort_keys=True, default=repr).encode()
        )
        return digest.hexdigest()[:16]


class DeterminismSanitizer:
    """Collects per-chip phase-boundary digests for one campaign run."""

    enabled = True

    def __init__(self) -> None:
        self.hashes: dict[str, str] = {}
        self._hashers: dict[str, _ChipHasher] = {}

    def record_phase(self, tracer, bench, case_name, phase, log, start) -> str:
        """Hash one finished phase and emit its ``state_hash`` span.

        ``start`` is ``len(log)`` before the phase ran; the slice from
        there is exactly the records this phase appended.
        """
        chip_id = bench.chip.chip_id
        hasher = self._hashers.setdefault(chip_id, _ChipHasher(chip_id))
        hasher.feed_records(islice(log, start, None))
        state = hasher.snapshot(bench)
        seq = hasher.seq
        hasher.seq += 1
        self.hashes[f"{chip_id}/{seq:03d}"] = state
        with tracer.span(
            "state_hash",
            chip_id=chip_id,
            case=case_name,
            phase=phase.label,
            seq=seq,
            state=state,
        ):
            pass
        return state


class _NullSanitizer:
    """The do-nothing default: campaigns run unhashed."""

    enabled = False
    #: Always empty — record_phase never writes.
    hashes: dict[str, str] = {}

    def record_phase(self, tracer, bench, case_name, phase, log, start) -> str:
        """No-op; returns an empty digest."""
        return ""


#: Shared inert instance — the default wherever a sanitizer is accepted.
NULL_SANITIZER = _NullSanitizer()
