"""Checkpoint manifest atomicity: orphaned temp files never block resume.

Satellite of the dependability sweep: every manifest write goes through
``atomic_write_json`` (tmp + fsync + rename), and opening a
:class:`CheckpointStore` discards any ``*.tmp`` a killed writer left
behind — with a warning, never a crash, because the committed files the
writer was about to replace are still intact.
"""

import json

import pytest

from repro.lab.campaign import run_table1_campaign
from repro.lab.resilience import (
    CheckpointStore,
    atomic_write_json,
    discard_orphan_tmp,
)

SEED = 5
N_CHIPS = 2


class TestAtomicWriteJson:
    def test_writes_readable_json_and_no_tmp(self, tmp_path):
        target = tmp_path / "manifest.json"
        atomic_write_json(target, {"a": 1})
        assert json.loads(target.read_text()) == {"a": 1}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "manifest.json"
        atomic_write_json(target, {"generation": 1})
        atomic_write_json(target, {"generation": 2})
        assert json.loads(target.read_text()) == {"generation": 2}


class TestDiscardOrphanTmp:
    def test_removes_and_reports_orphans(self, tmp_path):
        orphan = tmp_path / "manifest.json.tmp"
        orphan.write_text('{"torn": ')
        keeper = tmp_path / "manifest.json"
        keeper.write_text("{}")
        with pytest.warns(RuntimeWarning, match="orphaned temp file"):
            removed = discard_orphan_tmp(tmp_path)
        assert removed == [orphan]
        assert not orphan.exists()
        assert keeper.exists()

    def test_clean_directory_is_silent(self, tmp_path):
        assert discard_orphan_tmp(tmp_path) == []


class TestCheckpointStoreResume:
    def test_orphan_manifest_tmp_ignored_on_resume(self, tmp_path):
        checkpoint = tmp_path / "ckpt"
        run_table1_campaign(seed=SEED, n_chips=N_CHIPS, checkpoint=str(checkpoint))
        # Simulate a writer killed mid-manifest-update: a truncated temp
        # file beside the last committed manifest.
        orphan = checkpoint / "manifest.json.tmp"
        orphan.write_text('{"completed": {"chip-1": ["case')

        with pytest.warns(RuntimeWarning, match="orphaned temp file"):
            resumed = run_table1_campaign(
                seed=SEED, n_chips=N_CHIPS, checkpoint=str(checkpoint), resume=True
            )
        assert not orphan.exists()
        reference = run_table1_campaign(seed=SEED, n_chips=N_CHIPS)
        assert resumed.complete
        assert list(resumed.log) == list(reference.log)

    def test_empty_tmp_also_discarded(self, tmp_path):
        checkpoint = tmp_path / "ckpt"
        run_table1_campaign(seed=SEED, n_chips=N_CHIPS, checkpoint=str(checkpoint))
        (checkpoint / "manifest.json.tmp").write_text("")

        with pytest.warns(RuntimeWarning, match="orphaned temp file"):
            store = CheckpointStore(checkpoint)
        manifest = store.read_manifest()
        progress = json.loads((checkpoint / "chip-1.json").read_text())
        assert manifest is not None and progress["completed"]

    def test_store_open_never_raises_on_orphans(self, tmp_path):
        directory = tmp_path / "fresh"
        directory.mkdir()
        (directory / "chip-1.0.rng.json.tmp").write_bytes(b"\x00\x01garbage")
        with pytest.warns(RuntimeWarning):
            CheckpointStore(directory)
        assert list(directory.glob("*.tmp")) == []
