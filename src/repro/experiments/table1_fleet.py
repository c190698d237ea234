"""TAB1F — the Table 1 campaign scaled to a wafer lot (fleet engine).

The paper measured five physical chips; this experiment tiles the same
five-row schedule across a virtual lot (default 1,000 chips, ``repro
campaign --fleet 10000`` for the full wafer-scale run) through the
batched struct-of-arrays engine and reports the population statistics
the five-chip run cannot show: the spread of stress degradation and
post-recovery residuals across process variation, and the outlier
chips beyond the 3-sigma fence of their schedule group.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.analysis.tables import Table
from repro.lab.fleet import CampaignResult, run_fleet_campaign

#: Default lot size: large enough for stable tail percentiles, small
#: enough that `repro run TAB1F` finishes in interactive time.
DEFAULT_CHIPS = 1000


@lru_cache(maxsize=2)
def campaign(seed: int = 0, n_chips: int = DEFAULT_CHIPS) -> CampaignResult:
    """The shared fleet campaign for ``seed`` (cached; treat read-only)."""
    return run_fleet_campaign(
        seed=seed, n_chips=n_chips, fidelity="auto", collect="summary"
    )


def distribution_table(result: CampaignResult) -> Table:
    """Population statistics per Table 1 schedule position."""
    table = Table(
        f"Fleet degradation distribution ({len(result.summaries):,} chips, "
        f"fidelity {result.fidelity})",
        ["Chip No.", "n", "stress mean %", "stress std %", "stress p99 %",
         "residual mean %", "residual p99 %"],
        fmt="{:.3f}",
    )
    by_no: dict[int, list] = {}
    for chip in result.summaries:
        by_no.setdefault(chip.chip_no, []).append(chip)
    for chip_no in sorted(by_no):
        stress = np.array([c.stress_degradation_pct for c in by_no[chip_no]])
        residual = np.array([c.residual_degradation_pct for c in by_no[chip_no]])
        table.add_row(
            chip_no,
            len(stress),
            float(stress.mean()),
            float(stress.std(ddof=1)) if len(stress) > 1 else 0.0,
            float(np.percentile(stress, 99.0)),
            float(residual.mean()),
            float(np.percentile(residual, 99.0)),
        )
    return table


def run(seed: int = 0, n_chips: int = DEFAULT_CHIPS) -> CampaignResult:
    """Execute (or fetch) the fleet campaign — the TAB1F runner."""
    return campaign(seed, n_chips)
