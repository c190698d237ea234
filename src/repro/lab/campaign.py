"""The paper's Table 1 campaign.

Five chips share one chamber and supply schedule — a lock-step lot — so
the campaign is the exact-fidelity run of the one campaign engine,
:mod:`repro.lab.fleet`: :func:`run_table1_campaign` keeps the paper's
entry point and its per-case progress lines.
"""

from __future__ import annotations

# Importable for the benchmark's traced run (perfbench/tracing.py
# replaces them by name); nothing in this module calls them.
from concurrent.futures import ThreadPoolExecutor, as_completed  # noqa: F401

from repro.guard import GuardConfig
from repro.lab.faults import FaultPlan
from repro.lab.fleet import CampaignResult, _run_campaign
from repro.lab.resilience import RetryPolicy
from repro.lab.schedule import CHIP_SEQUENCES, standard_case
from repro.obs import ProgressReporter
from repro.units import hours

__all__ = ["CampaignResult", "run_table1_campaign", "table1_horizon"]


def table1_horizon(n_chips: int = 5, include_baseline: bool = True) -> float:
    """Longest per-chip simulated schedule length in seconds.

    The natural horizon for :meth:`FaultPlan.generate`: fault times are
    drawn on each chip's own clock, which spans at most this long.
    """
    horizon = 0.0
    for chip_no, names in CHIP_SEQUENCES.items():
        if chip_no > n_chips:
            continue
        total = hours(2.0) if include_baseline else 0.0
        total += sum(standard_case(name, chip_no).total_duration for name in names)
        horizon = max(horizon, total)
    return horizon


def run_table1_campaign(
    seed: int | None = 0,
    n_chips: int = 5,
    include_baseline: bool = True,
    tracer=None,
    progress: ProgressReporter | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: "str | None" = None,
    resume: bool = False,
    guard: GuardConfig | None = None,
    sanitize: bool = False,
) -> CampaignResult:
    """Run the full Table 1 schedule and return the result.

    Each chip runs its stress case then its recovery case; chip 5 also
    re-stresses for 48 h and recovers for 12 h (``AR110N12``).  The
    chips are one exact-fidelity lot of
    :func:`~repro.lab.fleet.run_fleet_campaign`: the baseline burns every
    chip in together, then each chip runs its sequence; the merged log
    lists every baseline, then the case sequences, in chip order.
    ``tracer`` gets a ``campaign`` span (cases, phases and measurements
    nest under it) and the simulated-seconds-per-wall-second gauge;
    ``progress`` one line per completed case.

    ``faults`` installs a :class:`FaultPlan` (a chip it never names stays
    bit-identical to a fault-free run) and ``retry`` bounds the re-reads
    of a faulted readout.  ``guard`` gives every chip its own
    :class:`~repro.guard.Guard` of that config: in raise mode the first
    violation aborts the campaign with a replayable repro bundle.  A chip
    that drops out, exhausts its retries or (clamp mode) its violation
    budget is quarantined: the campaign completes on the survivors and
    reports it in ``CampaignResult.quarantined``.  ``checkpoint`` names a
    directory that receives each chip's snapshot after every case, and
    ``resume=True`` continues from it without replaying finished cases.
    ``sanitize`` hashes every chip's records, trap state and bench RNG at
    each phase end into ``CampaignResult.state_hashes`` (and
    ``state_hash`` spans that ``repro trace diff`` compares): two runs of
    one seed, checkpointed or not, give identical digests.
    """
    return _run_campaign(
        seed, n_chips, include_baseline, "exact", None, 1, sanitize, "records", 3.0,
        tracer, progress, faults, retry, checkpoint, resume, guard, case_progress=True,
    )
