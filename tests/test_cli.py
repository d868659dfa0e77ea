"""Integration tests for the command-line interface."""

import os

import numpy as np
import pytest

from repro import nn
from repro.cli import main
from repro.core import GanOpcConfig, MaskGenerator
from repro.geometry import glp


@pytest.fixture()
def clip_file(tmp_path):
    """Synthesize one clip via the CLI and return its path."""
    prefix = str(tmp_path / "clip-")
    assert main(["synthesize", "--count", "1", "--seed", "3",
                 "--grid", "64", "--prefix", prefix]) == 0
    path = prefix + "0000.glp"
    assert os.path.exists(path)
    return path


class TestSynthesize:
    def test_writes_valid_glp(self, clip_file):
        layout = glp.load(clip_file)
        assert len(layout) >= 1
        layout.validate()

    def test_count(self, tmp_path, capsys):
        prefix = str(tmp_path / "c-")
        main(["synthesize", "--count", "3", "--grid", "64",
              "--prefix", prefix])
        assert all(os.path.exists(f"{prefix}{i:04d}.glp") for i in range(3))


class TestSimulate:
    def test_metrics_printed(self, clip_file, capsys):
        assert main(["simulate", clip_file, "--grid", "64"]) == 0
        out = capsys.readouterr().out
        assert "l2_nm2" in out and "pvband_nm2" in out

    def test_wafer_written(self, clip_file, tmp_path):
        out = str(tmp_path / "wafer.pgm")
        main(["simulate", clip_file, "--grid", "64", "--out", out])
        from repro.bench import read_pgm
        assert read_pgm(out).shape == (64, 64)

    def test_mask_shape_mismatch_fails(self, clip_file, tmp_path, capsys):
        from repro.bench import write_pgm
        bad = str(tmp_path / "bad.pgm")
        write_pgm(np.zeros((16, 16)), bad)
        assert main(["simulate", clip_file, "--grid", "64",
                     "--mask", bad]) == 2


class TestIlt:
    def test_optimizes_and_writes_mask(self, clip_file, tmp_path, capsys):
        out = str(tmp_path / "mask.pgm")
        assert main(["ilt", clip_file, "--grid", "64",
                     "--iterations", "20", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "iterations: " in stdout
        from repro.bench import read_pgm
        mask = read_pgm(out)
        assert set(np.unique(mask)) <= {0.0, 1.0}


class TestSraf:
    def test_inserts_bars(self, clip_file, tmp_path, capsys):
        out = str(tmp_path / "assisted.glp")
        assert main(["sraf", clip_file, "--out", out]) == 0
        assisted = glp.load(out)
        original = glp.load(clip_file)
        assert len(assisted) >= len(original)


class TestTrain:
    def _args(self, tmp_path, *extra):
        return ["train", "--phase", "pretrain", "--grid", "32",
                "--iterations", "2", "--dataset-size", "2",
                "--batch-size", "2", "--seed", "11",
                "--checkpoint-dir", str(tmp_path / "ckpts"),
                "--checkpoint-every", "1",
                "--telemetry-dir", str(tmp_path / "telemetry"),
                *extra]

    def test_pretrain_writes_checkpoints_and_telemetry(self, tmp_path,
                                                       capsys):
        out = str(tmp_path / "gen.npz")
        assert main(self._args(tmp_path, "--out", out)) == 0
        assert "pretrain: 2 iterations" in capsys.readouterr().out
        assert os.path.exists(out)
        assert os.listdir(str(tmp_path / "ckpts" / "pretrain"))

        import json

        from repro.runtime import validate_record
        telemetry = str(tmp_path / "telemetry" / "pretrain.jsonl")
        records = [json.loads(line) for line in open(telemetry)]
        for record in records:
            validate_record(record)
        assert [r["event"] for r in records].count("iteration") == 2

    def test_resume_flag(self, tmp_path, capsys):
        assert main(self._args(tmp_path)) == 0
        capsys.readouterr()
        args = self._args(tmp_path, "--resume")
        args[args.index("--iterations") + 1] = "4"
        assert main(args) == 0
        assert "pretrain: 4 iterations" in capsys.readouterr().out

        import json
        telemetry = str(tmp_path / "telemetry" / "pretrain.jsonl")
        events = [json.loads(line)["event"] for line in open(telemetry)]
        assert "resume" in events

    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["train", "--resume"]) == 2
        assert "requires --checkpoint-dir" in capsys.readouterr().err

    def test_pretrain_with_corner_stack(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "--corners", "dose")) == 0
        assert "pretrain: 2 iterations" in capsys.readouterr().out

    def _iteration_litho(self, tmp_path, phase, *extra):
        """``litho`` of every ``iteration`` record of a 2-iteration run
        with two masks per batch."""
        import json
        telemetry = str(tmp_path / "telemetry")
        assert main(["train", "--phase", phase, "--grid", "32",
                     "--iterations", "2", "--dataset-size", "4",
                     "--batch-size", "2", "--telemetry-dir", telemetry,
                     *extra]) == 0
        records = [json.loads(line) for line in
                   open(os.path.join(telemetry, f"{phase}.jsonl"))]
        return [record["litho"] for record in records
                if record["event"] == "iteration"]

    def test_pretrain_on_corners_counts_every_iteration(self, tmp_path,
                                                        capsys):
        """Algorithm 2 on a dose corner stack runs its adjoint on the
        corner engine; each iteration still reports it."""
        records = self._iteration_litho(tmp_path, "pretrain",
                                        "--corners", "dose")
        assert len(records) == 2
        for litho in records:
            assert litho["gradient_calls"] == 1
            assert litho["gradient_masks"] == 2

    def test_gan_litho_guidance_counts_every_iteration(self, tmp_path,
                                                       capsys):
        records = self._iteration_litho(tmp_path, "gan",
                                        "--litho-weight", "0.1")
        assert len(records) == 2
        for litho in records:
            assert litho["gradient_calls"] == 1
            assert litho["gradient_masks"] == 2

    def test_gan_with_litho_guidance(self, tmp_path, capsys):
        args = self._args(tmp_path, "--corners", "dose",
                          "--litho-weight", "0.1",
                          "--pw-objective", "worst")
        args[args.index("--phase") + 1] = "gan"
        assert main(args) == 0
        assert "gan: 2 iterations" in capsys.readouterr().out

    def test_f32_training_saves_float32_generator(self, tmp_path, capsys):
        """Both phases train end to end in f32, and no saved generator
        array is promoted back to double."""
        out = str(tmp_path / "generator-f32.npz")
        assert main(["train", "--phase", "both", "--grid", "32",
                     "--iterations", "2", "--dataset-size", "4",
                     "--batch-size", "2", "--precision", "f32",
                     "--no-run-record", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "pretrain: 2 iterations" in printed
        assert "gan: 2 iterations" in printed
        with np.load(out) as archive:
            assert archive.files
            for name in archive.files:
                assert archive[name].dtype == np.float32, name

    def test_bad_corners_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self._args(tmp_path, "--corners", "bogus"))
        assert excinfo.value.code == 2
        assert "--corners" in capsys.readouterr().err


class TestFlow:
    def test_runs_with_checkpoint(self, clip_file, tmp_path, capsys):
        config = GanOpcConfig.small(64)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(0))
        ckpt = str(tmp_path / "gen.npz")
        nn.save_state(generator, ckpt)
        out = str(tmp_path / "mask.pgm")
        assert main(["flow", clip_file, ckpt, "--grid", "64",
                     "--iterations", "10", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "generation: " in stdout
        assert os.path.exists(out)

    def test_corners_add_window_metrics(self, clip_file, tmp_path, capsys):
        import re

        from repro.runs import RunStore

        config = GanOpcConfig.small(64)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(0))
        ckpt = str(tmp_path / "gen.npz")
        nn.save_state(generator, ckpt)
        out = str(tmp_path / "mask.pgm")
        store = str(tmp_path / "store")
        assert main(["flow", clip_file, ckpt, "--grid", "64",
                     "--iterations", "5", "--out", out,
                     "--corners", "dose",
                     "--pw-objective", "weighted",
                     "--runs-dir", store]) == 0
        stdout = capsys.readouterr().out
        assert "window_pvband_nm2: " in stdout
        assert "worst_corner_l2_nm2: " in stdout
        assert "window_pvband_nm2: None" not in stdout
        # The refinement descends the corner engine: the manifest counts
        # its gradients too, one mask per refinement step.
        steps = int(re.search(r"\((\d+) steps\)", stdout).group(1))
        run_store = RunStore(store)
        (run_id,) = run_store.run_ids()
        litho = run_store.load(run_id).manifest.summary["litho"]
        assert steps > 0
        assert litho["gradient_masks"] == steps


class TestProfile:
    def test_profiles_flow_and_writes_traces(self, tmp_path, capsys):
        import json

        trace_dir = str(tmp_path / "prof")
        assert main(["profile", "--grid", "32", "--iterations", "5",
                     "--trace-dir", trace_dir]) == 0
        out = capsys.readouterr().out
        # Span table, op table and module table all render.
        assert "profile.flow" in out
        assert "conv2d" in out
        assert "Conv2d" in out
        assert "top-level spans cover" in out

        with open(os.path.join(trace_dir, "trace.json")) as fh:
            chrome = json.load(fh)
        assert chrome["displayTimeUnit"] == "ms"
        names = {event["name"] for event in chrome["traceEvents"]}
        assert {"profile.setup", "profile.flow", "flow.generate",
                "flow.refine"} <= names
        for event in chrome["traceEvents"]:
            assert event["ph"] == "X"

        with open(os.path.join(trace_dir, "spans.jsonl")) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert len(lines) == len(chrome["traceEvents"])

    def test_restores_global_observability_state(self, tmp_path, capsys):
        from repro.obs import profiler, trace
        assert main(["profile", "--grid", "32", "--iterations", "3",
                     "--trace-dir", str(tmp_path / "p")]) == 0
        capsys.readouterr()
        assert trace.active() is None
        assert profiler.ACTIVE is None

    def test_workers_reconcile_counters_with_spans(self, tmp_path, capsys):
        assert main(["profile", "--grid", "32", "--iterations", "10",
                     "--workers", "2",
                     "--trace-dir", str(tmp_path / "prof")]) == 0
        out = capsys.readouterr().out
        assert "engine/span reconciliation:" in out
        lines = [line for line in out.splitlines() if "stats" in line
                 and "spans" in line and "[" in line]
        assert len(lines) == 2
        assert all(line.endswith("[ok]") for line in lines), lines

    def test_counter_mismatch_exits_1(self, tmp_path, capsys, monkeypatch):
        from repro.litho.engine import EngineStats
        monkeypatch.setattr(EngineStats, "record_forward",
                            lambda self, masks, seconds: None)
        assert main(["profile", "--grid", "32", "--iterations", "3",
                     "--workers", "2",
                     "--trace-dir", str(tmp_path / "prof")]) == 1
        assert "[MISMATCH]" in capsys.readouterr().out

    def test_profile_with_clip_and_checkpoint(self, clip_file, tmp_path,
                                              capsys):
        config = GanOpcConfig.small(64)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(0))
        ckpt = str(tmp_path / "gen.npz")
        nn.save_state(generator, ckpt)
        assert main(["profile", "--clip", clip_file, "--checkpoint", ckpt,
                     "--grid", "64", "--iterations", "3",
                     "--trace-dir", str(tmp_path / "prof")]) == 0
        assert "flow: generation" in capsys.readouterr().out


class TestTraceDir:
    def test_train_trace_dir_writes_chrome_trace_and_span_summary(
            self, tmp_path, capsys):
        import json

        trace_dir = str(tmp_path / "traces")
        assert main(["train", "--phase", "pretrain", "--grid", "32",
                     "--iterations", "2", "--dataset-size", "2",
                     "--batch-size", "2", "--seed", "11",
                     "--telemetry-dir", str(tmp_path / "telemetry"),
                     "--trace-dir", trace_dir]) == 0
        capsys.readouterr()
        with open(os.path.join(trace_dir, "train-trace.json")) as fh:
            chrome = json.load(fh)
        names = {event["name"] for event in chrome["traceEvents"]}
        assert "pretrain.step" in names

        from repro.runtime import validate_record
        telemetry = str(tmp_path / "telemetry" / "pretrain.jsonl")
        records = [json.loads(line) for line in open(telemetry)]
        summaries = [r for r in records if r["event"] == "span_summary"]
        assert len(summaries) == 1
        validate_record(summaries[0])
        assert summaries[0]["spans"]["pretrain.step"]["count"] == 2

    def test_flow_trace_dir(self, clip_file, tmp_path, capsys):
        config = GanOpcConfig.small(64)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(0))
        ckpt = str(tmp_path / "gen.npz")
        nn.save_state(generator, ckpt)
        trace_dir = str(tmp_path / "traces")
        assert main(["flow", clip_file, ckpt, "--grid", "64",
                     "--iterations", "5",
                     "--out", str(tmp_path / "mask.pgm"),
                     "--trace-dir", trace_dir]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(trace_dir, "flow-trace.json"))
        assert os.path.exists(os.path.join(trace_dir, "flow-spans.jsonl"))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestChip:
    def test_writes_chip_layout(self, tmp_path, capsys):
        out = str(tmp_path / "chip.glp")
        assert main(["chip", "--cells", "2", "--cell-extent", "256",
                     "--fill", "1.0", "--seed", "1", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "2x2 cells" in stdout
        assert "512 nm" in stdout and "64px" in stdout
        chip = glp.load(out)
        chip.validate()
        assert chip.extent == 512.0
        assert len(chip) > 0


class TestTiled:
    @pytest.fixture()
    def chip_file(self, tmp_path):
        out = str(tmp_path / "chip.glp")
        assert main(["chip", "--cells", "2", "--cell-extent", "256",
                     "--fill", "1.0", "--seed", "1", "--out", out]) == 0
        return out

    def test_ilt_tiled(self, chip_file, tmp_path, capsys):
        out = str(tmp_path / "mask.pgm")
        assert main(["ilt", chip_file, "--tiled", "--tile-size", "32",
                     "--halo", "8", "--iterations", "4",
                     "--out", out]) == 0
        stdout = capsys.readouterr().out
        # 64 px chip, core 16 -> 4x4 tiles.
        assert "tiles: 16 (4x4, tile 32px, halo 8px, core 16px)" in stdout
        assert "chip grid: 64px" in stdout
        from repro.bench import read_pgm
        mask = read_pgm(out)
        assert mask.shape == (64, 64)
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_ilt_tiled_with_workers_prints_pool_stats(self, chip_file,
                                                      tmp_path, capsys):
        out = str(tmp_path / "mask.pgm")
        assert main(["ilt", chip_file, "--tiled", "--tile-size", "32",
                     "--halo", "8", "--iterations", "4", "--workers", "2",
                     "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "2 workers" in stdout
        assert os.path.exists(out)

    def test_flow_tiled(self, chip_file, tmp_path, capsys):
        config = GanOpcConfig.small(32)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(0))
        ckpt = str(tmp_path / "gen.npz")
        nn.save_state(generator, ckpt)
        out = str(tmp_path / "mask.pgm")
        assert main(["flow", chip_file, ckpt, "--tiled",
                     "--tile-size", "32", "--halo", "8",
                     "--iterations", "4", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "tiles: 16" in stdout
        assert os.path.exists(out)

    def test_flow_tiled_workers_merged_trace_and_telemetry(
            self, chip_file, tmp_path, capsys):
        """A 2-worker tiled flow is as observable as a serial one: one
        Perfetto-loadable trace with litho spans from every worker pid
        plus validated worker_span_summary telemetry (ISSUE 8)."""
        import json

        from repro.runtime import validate_record

        config = GanOpcConfig.small(32)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(0))
        ckpt = str(tmp_path / "gen.npz")
        nn.save_state(generator, ckpt)
        trace_dir = str(tmp_path / "traces")
        telemetry_dir = str(tmp_path / "telemetry")
        assert main(["flow", chip_file, ckpt, "--tiled",
                     "--tile-size", "32", "--halo", "8",
                     "--iterations", "4", "--workers", "2",
                     "--trace-dir", trace_dir,
                     "--telemetry-dir", telemetry_dir,
                     "--out", str(tmp_path / "mask.pgm")]) == 0
        capsys.readouterr()

        (trace_path,) = [os.path.join(trace_dir, name)
                         for name in os.listdir(trace_dir)
                         if name.endswith(".json")]
        chrome = json.load(open(trace_path, encoding="utf-8"))
        complete = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        worker_pids = {e["pid"] for e in complete} - {os.getpid()}
        assert len(worker_pids) == 2
        litho_pids = {e["pid"] for e in complete
                      if e["name"] == "litho.forward"}
        assert worker_pids <= litho_pids

        path = os.path.join(telemetry_dir, "flow.jsonl")
        records = [json.loads(line) for line in open(path, encoding="utf-8")
                   if line.strip()]
        summaries = [r for r in records
                     if r["event"] == "worker_span_summary"]
        assert {r["pid"] for r in summaries} == worker_pids
        for record in records:
            validate_record(record)
        for record in summaries:
            assert record["litho"]["forward_calls"] == \
                record["spans"]["litho.forward"]["count"]


class TestMonitor:
    @pytest.fixture()
    def chip_file(self, tmp_path):
        out = str(tmp_path / "chip.glp")
        assert main(["chip", "--cells", "2", "--cell-extent", "256",
                     "--fill", "1.0", "--seed", "1", "--out", out]) == 0
        return out

    def test_monitor_ilt_reports_progress_and_fleet(self, chip_file,
                                                    tmp_path, capsys):
        out = str(tmp_path / "mask.pgm")
        metrics = str(tmp_path / "metrics.txt")
        assert main(["monitor", chip_file, "--tile-size", "32",
                     "--halo", "8", "--iterations", "4", "--workers", "2",
                     "--update-every", "0", "--metrics-out", metrics,
                     "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "16/16" in stdout
        assert "eta" in stdout
        assert "worker pid" in stdout  # per-worker utilization table
        assert "fleet litho engine" in stdout
        assert os.path.exists(out)
        content = open(metrics, encoding="utf-8").read()
        assert content.endswith("# EOF\n")
        assert "repro_pool_tasks_done 16" in content

    def test_monitor_flow_with_checkpoint_telemetry(self, chip_file,
                                                    tmp_path, capsys):
        import json

        from repro.runtime import validate_record

        config = GanOpcConfig.small(32)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(0))
        ckpt = str(tmp_path / "gen.npz")
        nn.save_state(generator, ckpt)
        telemetry_dir = str(tmp_path / "telemetry")
        assert main(["monitor", chip_file, "--checkpoint", ckpt,
                     "--tile-size", "32", "--halo", "8",
                     "--iterations", "4", "--workers", "2",
                     "--update-every", "0",
                     "--telemetry-dir", telemetry_dir,
                     "--out", str(tmp_path / "mask.pgm")]) == 0
        capsys.readouterr()
        path = os.path.join(telemetry_dir, "monitor.jsonl")
        records = [json.loads(line) for line in open(path, encoding="utf-8")
                   if line.strip()]
        for record in records:
            validate_record(record)
        assert len([r for r in records
                    if r["event"] == "worker_span_summary"]) == 2


class TestRunsLedger:
    """Run recording + runs list/show/diff + report (ISSUE 9)."""

    def _record_run(self, clip_file, tmp_path, iterations="10"):
        store = str(tmp_path / "store")
        out = str(tmp_path / f"mask-{iterations}.pgm")
        assert main(["ilt", clip_file, "--grid", "64",
                     "--iterations", iterations, "--out", out,
                     "--runs-dir", store]) == 0
        return store

    def test_ilt_records_manifest_and_quality(self, clip_file, tmp_path,
                                              capsys):
        import json

        from repro.runs import RunStore
        from repro.runtime import validate_record

        store = self._record_run(clip_file, tmp_path)
        assert "run recorded: " in capsys.readouterr().out
        run_store = RunStore(store)
        (run_id,) = run_store.run_ids()
        run = run_store.load(run_id)
        assert run.manifest.command == "ilt"
        assert run.manifest.status == "complete"
        assert run.manifest.config_hash
        assert "litho" in run.manifest.summary
        assert os.path.isfile(run.artifact_path("mask"))
        assert os.path.isfile(run.artifact_path("clip"))
        records = [json.loads(line)
                   for line in open(run.quality_log_path, encoding="utf-8")
                   if line.strip()]
        for record in records:
            validate_record(record)
        events = {record["event"] for record in records}
        assert {"run_manifest", "quality_sample", "clip_result"} <= events

    def test_no_run_record_leaves_store_empty(self, clip_file, tmp_path):
        store = str(tmp_path / "store")
        assert main(["ilt", clip_file, "--grid", "64",
                     "--iterations", "5",
                     "--out", str(tmp_path / "m.pgm"),
                     "--runs-dir", store, "--no-run-record"]) == 0
        assert not os.path.isdir(store)

    def test_runs_list_show_and_diff(self, clip_file, tmp_path, capsys):
        store = self._record_run(clip_file, tmp_path, iterations="5")
        self._record_run(clip_file, tmp_path, iterations="10")
        capsys.readouterr()

        assert main(["runs", "list", "--runs-dir", store]) == 0
        listing = capsys.readouterr().out
        assert listing.count("-ilt-") >= 2

        assert main(["runs", "show", "latest", "--runs-dir", store]) == 0
        shown = capsys.readouterr().out
        assert "params.iterations" in shown
        assert "l2_nm2" in shown

        from repro.runs import RunStore
        first, second = RunStore(store).run_ids()
        assert main(["runs", "diff", first, second,
                     "--runs-dir", store]) == 0
        diffed = capsys.readouterr().out
        assert "config deltas:" in diffed
        assert "params.iterations" in diffed
        assert "aggregate quality" in diffed

    def test_manifest_records_resolved_precision(self, clip_file, tmp_path,
                                                 capsys):
        """A default run and an explicit ``--precision f64`` run record
        the same precision, so their diff has no precision line."""
        from repro.runs import RunStore

        store = str(tmp_path / "store")
        for extra in ([], ["--precision", "f64"]):
            assert main(["ilt", clip_file, "--grid", "64",
                         "--iterations", "3",
                         "--out", str(tmp_path / "m.pgm"),
                         "--runs-dir", store] + extra) == 0
        run_store = RunStore(store)
        first, second = run_store.run_ids()
        assert [run_store.load(run_id).manifest.precision
                for run_id in (first, second)] == ["f64", "f64"]
        capsys.readouterr()
        assert main(["runs", "diff", first, second,
                     "--runs-dir", store]) == 0
        assert "precision" not in capsys.readouterr().out

    def test_runs_unknown_token_fails(self, tmp_path, capsys):
        assert main(["runs", "show", "latest",
                     "--runs-dir", str(tmp_path / "empty")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_writes_self_contained_html(self, clip_file, tmp_path,
                                               capsys):
        store = self._record_run(clip_file, tmp_path)
        out = str(tmp_path / "report.html")
        assert main(["report", "latest", "--runs-dir", store,
                     "--out", out]) == 0
        document = open(out, encoding="utf-8").read()
        assert document.startswith("<!DOCTYPE html>")
        assert "<polyline" in document
        assert "http://" not in document and "https://" not in document
