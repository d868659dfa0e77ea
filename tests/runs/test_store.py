"""Run ledger store tests (ISSUE 9): manifests, resolution, artifacts."""

import json
import os
import subprocess

import pytest

from repro.runs import (MANIFEST_NAME, QUALITY_LOG_NAME, RunManifest,
                        RunStore, RunStoreError, git_revision,
                        package_versions, utc_iso)
from repro.runtime import validate_record


def _read_records(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestHelpers:
    def test_git_revision_of_repo_is_short_hash(self, tmp_path):
        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t",
                 "-c", "commit.gpgsign=false",
                 *args], cwd=tmp_path, check=True, capture_output=True,
                text=True).stdout.strip()

        git("init", "-q")
        (tmp_path / "a.txt").write_text("a\n")
        git("add", "a.txt")
        git("commit", "-q", "-m", "a")
        rev = git_revision(str(tmp_path))
        assert rev == git("rev-parse", "--short", "HEAD")
        assert 6 <= len(rev) <= 12

    def test_git_revision_outside_repo_is_unknown(self, tmp_path):
        assert git_revision(str(tmp_path)) == "unknown"

    def test_package_versions_cover_numeric_stack(self):
        versions = package_versions()
        assert "python" in versions
        assert "numpy" in versions

    def test_utc_iso_is_zulu(self):
        stamp = utc_iso(0.0)
        assert stamp == "1970-01-01T00:00:00Z"


class TestCreate:
    def test_create_writes_manifest(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        run = store.create("ilt", argv=["clip.glp", "--iterations", "5"],
                           seed=7, precision="f64", workers=1,
                           params={"clip": "clip-0000"})
        assert os.path.isfile(os.path.join(run.dir, MANIFEST_NAME))
        assert "-ilt-" in run.manifest.run_id
        assert run.manifest.status == "running"
        assert run.manifest.seed == 7
        assert run.manifest.params["clip"] == "clip-0000"
        assert run.manifest.packages["python"]

    def test_create_with_litho_records_hash_and_grid(self, tmp_path,
                                                     litho32):
        store = RunStore(str(tmp_path / "store"))
        run = store.create("table2", litho=litho32)
        assert run.manifest.config_hash
        assert run.manifest.grid == 32
        assert run.manifest.litho["grid"] == 32

    def test_manifest_round_trips(self, tmp_path, litho32):
        store = RunStore(str(tmp_path / "store"))
        run = store.create("flow", argv=["a.glp"], litho=litho32,
                           seed=3, precision="f32", workers=4,
                           params={"iterations": 10})
        reloaded = store.load(run.manifest.run_id)
        assert reloaded.manifest.to_dict() == run.manifest.to_dict()

    def test_config_fields_flatten_params_and_packages(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        run = store.create("train", seed=1, params={"phase": "gan"})
        fields = run.manifest.config_fields()
        assert fields["command"] == "train"
        assert fields["seed"] == 1
        assert fields["params.phase"] == "gan"
        assert any(key.startswith("packages.") for key in fields)

    def test_from_dict_rejects_non_manifest(self):
        with pytest.raises(RunStoreError, match="not a run manifest"):
            RunManifest.from_dict({"foo": 1})

    def test_from_dict_ignores_unknown_fields(self):
        manifest = RunManifest.from_dict(
            {"run_id": "x", "command": "ilt", "future_field": 42})
        assert manifest.run_id == "x"
        assert not hasattr(manifest, "future_field")


class TestLoggerAndFinish:
    def test_logger_writes_valid_quality_jsonl(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        run = store.create("ilt")
        run.log_manifest_record()
        run.logger.quality_sample(0, 1.5, l2=2.0, clip="c", method="ILT")
        run.finish()
        records = _read_records(run.quality_log_path)
        assert [r["event"] for r in records] == ["run_manifest",
                                                 "quality_sample"]
        for record in records:
            validate_record(record)
        assert records[0]["run_id"] == run.manifest.run_id
        assert run.manifest.artifacts["quality"] == QUALITY_LOG_NAME

    def test_finish_stamps_status_and_summary(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        run = store.create("train")
        run.finish(status="complete", summary={"final_l2": 3.25})
        reloaded = store.load(run.manifest.run_id)
        assert reloaded.manifest.status == "complete"
        assert reloaded.manifest.finished
        assert reloaded.manifest.summary["final_l2"] == 3.25

    def test_nonfinite_summary_survives_strict_json(self, tmp_path):
        # Commands drop raw floats into the summary; NaN must encode as
        # the telemetry string form, not crash the allow_nan=False dump.
        store = RunStore(str(tmp_path / "store"))
        run = store.create("train")
        run.finish(status="error", summary={"final_loss": float("nan")})
        reloaded = store.load(run.manifest.run_id)
        assert reloaded.manifest.summary["final_loss"] == "nan"


class TestArtifacts:
    def test_inside_paths_stored_relative(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        run = store.create("ilt")
        inside = os.path.join(run.dir, "mask.pgm")
        open(inside, "w").write("P2\n")
        assert run.add_artifact("mask", inside) == "mask.pgm"
        assert run.artifact_path("mask") == inside

    def test_outside_paths_stored_absolute(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        run = store.create("ilt")
        outside = tmp_path / "elsewhere.pgm"
        outside.write_text("P2\n")
        stored = run.add_artifact("mask", str(outside))
        assert os.path.isabs(stored)
        assert run.artifact_path("mask") == str(outside)

    def test_import_file_copies_into_run_dir(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        run = store.create("ilt")
        source = tmp_path / "clip.glp"
        source.write_text("BEGIN\nEND\n")
        run.import_file("clip", str(source))
        assert run.manifest.artifacts["clip"] == "clip.glp"
        assert open(run.artifact_path("clip")).read() == "BEGIN\nEND\n"

    def test_missing_artifact_is_none(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        run = store.create("ilt")
        assert run.artifact_path("nope") is None


class TestResolve:
    def _store_with_runs(self, tmp_path, commands):
        store = RunStore(str(tmp_path / "store"))
        ids = []
        for command in commands:
            run = store.create(command)
            run.finish()
            ids.append(run.manifest.run_id)
        return store, ids

    def test_empty_store_raises(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        assert store.run_ids() == []
        with pytest.raises(RunStoreError, match="is empty"):
            store.resolve("latest")

    def test_latest_is_last_chronological(self, tmp_path):
        store, ids = self._store_with_runs(tmp_path, ["ilt", "flow"])
        assert store.resolve("latest").manifest.run_id == sorted(ids)[-1]
        assert store.resolve("@").manifest.run_id == sorted(ids)[-1]

    def test_exact_prefix_and_substring(self, tmp_path):
        store, ids = self._store_with_runs(tmp_path, ["ilt", "flow"])
        (flow_id,) = [rid for rid in ids if "-flow-" in rid]
        assert store.resolve(flow_id).manifest.run_id == flow_id
        # unique prefix (timestamp + command distinguishes the runs)
        assert store.resolve(flow_id[:-4]).manifest.run_id == flow_id
        assert store.resolve("flow").manifest.run_id == flow_id

    def test_ambiguous_and_missing_tokens_raise(self, tmp_path):
        store, _ = self._store_with_runs(tmp_path, ["ilt", "ilt"])
        with pytest.raises(RunStoreError, match="ambiguous"):
            store.resolve("ilt")
        with pytest.raises(RunStoreError, match="no run matches"):
            store.resolve("zzz-not-a-run")

    def test_corrupt_manifest_raises(self, tmp_path):
        store, ids = self._store_with_runs(tmp_path, ["ilt"])
        path = os.path.join(store.root, ids[0], MANIFEST_NAME)
        open(path, "w").write("{not json")
        with pytest.raises(RunStoreError, match="corrupt manifest"):
            store.load(ids[0])

    def test_load_unknown_id_raises(self, tmp_path):
        store, _ = self._store_with_runs(tmp_path, ["ilt"])
        with pytest.raises(RunStoreError, match="no run"):
            store.load("20990101T000000-ilt-deadbeef")

    def test_runs_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "env-store"))
        assert RunStore().root == str(tmp_path / "env-store")
        assert RunStore(str(tmp_path / "explicit")).root == \
            str(tmp_path / "explicit")
