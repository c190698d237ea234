"""Byte pins for the ``repro trace`` readers, and per-case throughput.

``data/trace_a.jsonl`` and ``data/trace_b.jsonl`` are small synthetic
traces with fixed durations (a lock-step baseline case, two chip cases,
sanitizer hashes, a sample retry and a handful of metric records; B
adds one measurement, slows a phase and forks one digest).  What
``repro trace summary|top|tree|flame|diff`` print for them, and the
per-phase table of ``repro trace profile``, must match the files under
``data/expected/`` byte for byte.

The throughput table of ``repro trace profile`` counts one observation
per chip-case.  The literals below are the counts the 2-chip seed-7
Table-1 campaign recorded when the counts were folded into histograms at
run time; reading them back from the case spans must give the same.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.lab.campaign import run_table1_campaign
from repro.obs import JsonlExporter, Tracer, load_trace
from tests.lab.test_parallel_campaign import composed_campaign

DATA = Path(__file__).parent / "data"
TRACE_A = str(DATA / "trace_a.jsonl")
TRACE_B = str(DATA / "trace_b.jsonl")

#: expected file -> ``repro trace`` arguments
READERS = {
    "summary": ["summary", TRACE_A],
    "top": ["top", TRACE_A, "--by", "total", "--group", "path"],
    "tree": ["tree", TRACE_A],
    "flame": ["flame", TRACE_A],
    "diff": ["diff", TRACE_A, TRACE_B],
    "diff_all": ["diff", TRACE_A, TRACE_B, "--all"],
}

#: Chip-cases of ``run_table1_campaign(seed=7, n_chips=2)``: the two
#: chips' lock-step baseline plus chip 1's one case and chip 2's two.
SEED7_CASES = {
    "profile.case.meas_per_s": 5,
    "profile.case.trap_updates_per_s": 5,
}

THROUGHPUT_ROWS = [
    "profile.case.meas_per_s",
    "profile.case.trap_updates_per_s",
    "bti.rate_cache.hit_rate",
]


def _expected(name: str) -> str:
    return (DATA / "expected" / f"{name}.txt").read_text(encoding="utf-8")


def _profile_tables(path, capsys) -> tuple[str, str]:
    """The two tables ``repro trace profile`` prints, as text."""
    assert main(["trace", "profile", str(path)]) == 0
    phases, throughput, _ = capsys.readouterr().out.split("\n\n")
    return phases + "\n\n", throughput


def _rows(table: str) -> dict[str, list[str]]:
    """First cell -> remaining cells of each body row."""
    lines = table.splitlines()
    assert lines[1].split() == ["metric", "cases", "mean", "min", "max"]
    return {cells[0]: cells[1:] for cells in (line.split() for line in lines[3:])}


class TestReaderPins:
    @pytest.mark.parametrize("name", sorted(READERS))
    def test_reader_output_is_pinned(self, name, capsys):
        assert main(["trace", *READERS[name]]) == 0
        assert capsys.readouterr().out == _expected(name)

    def test_profile_phase_table_is_pinned(self, capsys):
        phases, _ = _profile_tables(TRACE_A, capsys)
        assert phases == _expected("profile_phases")

    def test_profile_throughput_rows_are_stable(self, capsys):
        _, throughput = _profile_tables(TRACE_A, capsys)
        assert throughput.splitlines()[0] == "Derived throughput (per case)"
        assert list(_rows(throughput)) == THROUGHPUT_ROWS


def _traced(tmp_path, name, run) -> Path:
    path = tmp_path / f"{name}.jsonl"
    tracer = Tracer(exporter=JsonlExporter(path))
    run(seed=7, n_chips=2, tracer=tracer)
    tracer.close()
    return path


class TestCaseThroughput:
    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("throughput")
        return {
            "runner": _traced(tmp_path, "runner", run_table1_campaign),
            "composed": _traced(tmp_path, "composed", composed_campaign),
        }

    @pytest.mark.parametrize("run", ["runner", "composed"])
    def test_case_counts_match_recorded(self, traces, run, capsys):
        _, throughput = _profile_tables(traces[run], capsys)
        rows = _rows(throughput)
        for name, cases in SEED7_CASES.items():
            assert int(rows[name][0]) == cases
            mean, low, high = (float(cell.replace(",", "")) for cell in rows[name][1:])
            assert 0.0 < low <= mean <= high

    def test_hit_rate_is_hits_over_lookups(self, traces, capsys):
        _, throughput = _profile_tables(traces["runner"], capsys)
        metrics = {
            record["name"]: record["value"]
            for record in load_trace(traces["runner"])
            if record["type"] == "metric"
        }
        hits = metrics["bti.rate_cache.hits"]
        rate = hits / (hits + metrics["bti.rate_cache.misses"])
        assert _rows(throughput)["bti.rate_cache.hit_rate"][1] == f"{100.0 * rate:,.1f}"
        # the memo is reused across the campaign despite temperature jitter
        assert rate > 0.3
