"""Human-facing progress lines for long campaign runs.

The five-chip Table-1 campaign simulates hundreds of hours of silicon
time and can take minutes of wall clock; the reporter prints one line per
completed unit of work so the operator can see chips/cases tick by::

    [   2.8s] chip-1  AS110AC24  done  (1/11 cases, 0/5 chips)
    [   5.5s] chip-1  AR110N6    done  (2/11 cases, 1/5 chips)

A disabled reporter (``enabled=False``) swallows everything, so callers
never need a null check.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, TextIO


class ProgressReporter:
    """Prints elapsed-stamped progress lines to a stream.

    Parameters
    ----------
    stream:
        Output stream; defaults to stderr so progress never pollutes
        piped CSV/JSON output on stdout.
    enabled:
        When false every method is a no-op.
    clock:
        Injectable monotonic clock (tests pass a fake).
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled
        self._clock = clock
        self._start = clock()
        self.n_lines = 0

    @property
    def elapsed(self) -> float:
        """Wall seconds since the reporter was created."""
        return self._clock() - self._start

    def line(self, message: str) -> None:
        """Print one ``[elapsed] message`` line."""
        if not self.enabled:
            return
        print(f"[{self.elapsed:7.1f}s] {message}", file=self.stream, flush=True)
        self.n_lines += 1

    @staticmethod
    def _resilience_suffix(retries: int, quarantined: int) -> str:
        """Live retry/quarantine tallies, shown only once either is nonzero."""
        if retries == 0 and quarantined == 0:
            return ""
        return f", {retries} retries, {quarantined} quarantined"

    def case_done(
        self,
        chip_id: str,
        case: str,
        cases_done: int,
        cases_total: int,
        chips_done: int,
        chips_total: int,
        retries: int = 0,
        quarantined: int = 0,
    ) -> None:
        """Report one completed test case with campaign-level progress.

        ``retries``/``quarantined`` are running campaign totals; they
        appear in the line as soon as either is nonzero, so the operator
        sees a flaky bench live instead of in the final result.
        """
        self.line(
            f"{chip_id:<8} {case:<10} done  "
            f"({cases_done}/{cases_total} cases, {chips_done}/{chips_total} chips"
            f"{self._resilience_suffix(retries, quarantined)})"
        )


#: A reporter that discards everything — the default for library calls.
NULL_PROGRESS = ProgressReporter(enabled=False)
