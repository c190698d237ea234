"""Progress reporter output and gating."""

import io

from repro.obs import NULL_PROGRESS, ProgressReporter


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestProgressReporter:
    def test_line_is_elapsed_stamped(self):
        buffer = io.StringIO()
        clock = FakeClock()
        reporter = ProgressReporter(stream=buffer, clock=clock)
        clock.now += 2.5
        reporter.line("hello")
        assert buffer.getvalue() == "[    2.5s] hello\n"
        assert reporter.n_lines == 1

    def test_case_done_format(self):
        buffer = io.StringIO()
        reporter = ProgressReporter(stream=buffer, clock=FakeClock())
        reporter.case_done("chip-1", "AS110DC24", 3, 11, 1, 5)
        out = buffer.getvalue()
        assert "chip-1" in out
        assert "AS110DC24" in out
        assert "(3/11 cases, 1/5 chips)" in out

    def test_disabled_reporter_is_silent(self):
        buffer = io.StringIO()
        reporter = ProgressReporter(stream=buffer, enabled=False)
        reporter.line("hidden")
        reporter.case_done("chip-1", "X", 1, 1, 1, 1)
        assert buffer.getvalue() == ""
        assert reporter.n_lines == 0

    def test_null_progress_is_disabled(self):
        assert NULL_PROGRESS.enabled is False
        NULL_PROGRESS.line("discarded")


class TestResilienceSuffix:
    def test_case_done_shows_retry_and_quarantine_tallies(self):
        buffer = io.StringIO()
        reporter = ProgressReporter(stream=buffer, clock=FakeClock())
        reporter.case_done("chip-1", "X", 1, 11, 0, 5, retries=2, quarantined=1)
        assert "(1/11 cases, 0/5 chips, 2 retries, 1 quarantined)" in buffer.getvalue()

    def test_suffix_hidden_while_zero(self):
        buffer = io.StringIO()
        reporter = ProgressReporter(stream=buffer, clock=FakeClock())
        reporter.case_done("chip-1", "X", 1, 11, 0, 5, retries=0, quarantined=0)
        assert "retries" not in buffer.getvalue()
