"""Integration tests for the command-line interface."""

import os
import sys

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


def _run_records(store):
    """The one run recorded in ``store`` and the records of its stream
    (``quality.jsonl``), each checked against the telemetry schema."""
    import json

    from repro.runs import RunStore
    from repro.runtime import validate_record

    run_store = RunStore(store)
    (run_id,) = run_store.run_ids()
    run = run_store.load(run_id)
    with open(run.quality_log_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    for record in records:
        validate_record(record)
    return run, records


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

    def test_width_and_offset_place_the_bars(self, tmp_path, capsys):
        from repro.geometry import Layout, Rect
        square = Rect(400.0, 400.0, 600.0, 600.0)
        clip = str(tmp_path / "square.glp")
        glp.save(Layout(extent=1024.0, rects=[square]), clip)
        out = str(tmp_path / "assisted.glp")
        assert main(["sraf", clip, "--width", "16", "--offset", "60",
                     "--out", out]) == 0
        assert "inserted 4 assist bars" in capsys.readouterr().out
        bars = [rect for rect in glp.load(out) if rect != square]
        assert len(bars) == 4
        for bar in bars:
            assert min(bar.x1 - bar.x0, bar.y1 - bar.y0) == 16.0
            assert bar.gap(square) == 60.0


class TestTrain:
    def _args(self, tmp_path, *extra):
        return ["train", "--phase", "pretrain", "--grid", "32",
                "--iterations", "2", "--dataset-size", "2",
                "--batch-size", "2", "--seed", "11",
                "--checkpoint-dir", str(tmp_path / "ckpts"),
                "--checkpoint-every", "1",
                "--runs-dir", str(tmp_path / "runs"),
                *extra]

    def test_pretrain_writes_checkpoints_and_telemetry(self, tmp_path,
                                                       capsys):
        out = str(tmp_path / "gen.npz")
        assert main(self._args(tmp_path, "--out", out)) == 0
        assert "pretrain: 2 iterations" in capsys.readouterr().out
        assert os.path.exists(out)
        assert os.listdir(str(tmp_path / "ckpts" / "pretrain"))

        run, records = _run_records(str(tmp_path / "runs"))
        iterations = [r for r in records if r["event"] == "iteration"]
        assert [r["phase"] for r in iterations] == ["pretrain"] * 2
        assert sorted(os.listdir(run.dir)) == ["manifest.json",
                                               "quality.jsonl"]

    def test_resume_flag(self, tmp_path, capsys):
        assert main(self._args(tmp_path)) == 0
        capsys.readouterr()
        args = self._args(tmp_path, "--resume")
        args[args.index("--iterations") + 1] = "4"
        args[args.index("--runs-dir") + 1] = str(tmp_path / "resumed")
        assert main(args) == 0
        assert "pretrain: 4 iterations" in capsys.readouterr().out

        _, records = _run_records(str(tmp_path / "resumed"))
        events = [r["event"] for r in records]
        assert "resume" in events
        assert events.count("iteration") == 2

    def test_init_starts_from_the_given_weights(self, tmp_path, capsys):
        config = GanOpcConfig.small(32)
        start = str(tmp_path / "start.npz")
        nn.save_state(MaskGenerator(config.generator_channels,
                                    rng=np.random.default_rng(5)), start)
        outs = {}
        for name, extra in (("init", ["--init", start]), ("fresh", [])):
            outs[name] = str(tmp_path / f"{name}.npz")
            args = self._args(tmp_path, "--out", outs[name], *extra)
            args[args.index("--iterations") + 1] = "0"
            assert main(args) == 0
        weights = {name: np.load(path) for name, path in outs.items()}
        reference = np.load(start)
        assert all(np.array_equal(weights["init"][key], reference[key])
                   for key in reference.files)
        assert not all(np.array_equal(weights["fresh"][key], reference[key])
                       for key in reference.files)

    def test_keep_last_bounds_the_retained_checkpoints(self, tmp_path,
                                                       capsys):
        args = self._args(tmp_path, "--keep-last", "1")
        args[args.index("--iterations") + 1] = "3"
        assert main(args) == 0
        assert len(os.listdir(str(tmp_path / "ckpts" / "pretrain"))) == 1

    def test_verbose_prints_training_progress(self, tmp_path, capsys):
        args = self._args(tmp_path, "--verbose")
        args[args.index("--iterations") + 1] = "10"
        assert main(args) == 0
        assert "[pretrain 10/10] litho error" in capsys.readouterr().out

    def _poison_second_iteration(self, monkeypatch):
        """Make the pretrainer's litho errors NaN on its second call."""
        from repro.core import ILTGuidedPretrainer
        original = ILTGuidedPretrainer.batch_litho_gradient
        calls = {"n": 0}

        def poisoned(pretrainer, masks, targets):
            errors, gradients = original(pretrainer, masks, targets)
            calls["n"] += 1
            if calls["n"] == 2:
                errors = np.full_like(errors, np.nan)
            return errors, gradients

        monkeypatch.setattr(ILTGuidedPretrainer, "batch_litho_gradient",
                            poisoned)

    def _divergences(self, tmp_path):
        _, records = _run_records(str(tmp_path / "runs"))
        return [r for r in records if r["event"] == "anomaly"
                and r.get("kind") == "divergence"]

    def test_policy_skip_survives_a_nan_that_raise_stops(
            self, tmp_path, monkeypatch, capsys):
        from repro.runtime import DivergenceError
        self._poison_second_iteration(monkeypatch)
        with pytest.raises(DivergenceError):
            main(self._args(tmp_path / "raise"))
        self._poison_second_iteration(monkeypatch)
        assert main(self._args(tmp_path, "--policy", "skip")) == 0
        (divergence,) = self._divergences(tmp_path)
        assert divergence["action"] == "skip"

    def test_rollback_backs_off_by_lr_backoff(self, tmp_path, monkeypatch,
                                              capsys):
        self._poison_second_iteration(monkeypatch)
        assert main(self._args(tmp_path, "--policy", "rollback",
                               "--lr-backoff", "0.25")) == 0
        (divergence,) = self._divergences(tmp_path)
        assert divergence["action"] == "rollback"
        lr = GanOpcConfig.small(32).pretrain_learning_rate
        assert divergence["learning_rates"] == {"generator": 0.25 * lr}

    def test_max_grad_norm_shrinks_the_updates(self, tmp_path, capsys):
        config = GanOpcConfig.small(32)
        start = {name: param.data for name, param in MaskGenerator(
            config.generator_channels,
            rng=np.random.default_rng(11)).named_parameters()}
        moved = {}
        for name, extra in (("clipped", ["--max-grad-norm", "1e-9"]),
                            ("free", [])):
            out = str(tmp_path / f"{name}.npz")
            assert main(self._args(tmp_path / name, "--out", out,
                                   *extra)) == 0
            weights = np.load(out)
            # Parameters only: batch-norm statistics move without
            # gradients.
            moved[name] = max(float(np.abs(weights[key] - start[key]).max())
                              for key in start)
        assert 0.0 < moved["clipped"] < 0.1 * moved["free"]

    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["train", "--resume"]) == 2
        assert "requires --checkpoint-dir" in capsys.readouterr().err

    def test_pretrain_with_corner_stack(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "--corners", "dose")) == 0
        assert "pretrain: 2 iterations" in capsys.readouterr().out

    def _iteration_litho(self, tmp_path, phase, *extra):
        """``litho`` of every ``iteration`` record of a 2-iteration run
        with two masks per batch."""
        store = str(tmp_path / "runs")
        assert main(["train", "--phase", phase, "--grid", "32",
                     "--iterations", "2", "--dataset-size", "4",
                     "--batch-size", "2", "--runs-dir", store,
                     *extra]) == 0
        _, records = _run_records(store)
        return [record["litho"] for record in records
                if record["event"] == "iteration"
                and record["phase"] == phase]

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

    @pytest.mark.parametrize("command", [
        ["train"], ["flow", "clip.glp", "gen.npz"]])
    def test_telemetry_dir_is_rejected(self, command, tmp_path, capsys):
        """A command writes telemetry into its run record, so there is
        no separate telemetry directory to ask for."""
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--telemetry-dir", str(tmp_path / "t")])
        assert excinfo.value.code == 2
        assert "--telemetry-dir" in capsys.readouterr().err


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
        # profile is never recorded: the Chrome trace is all it writes.
        assert os.listdir(trace_dir) == ["trace.json"]

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
        store = str(tmp_path / "runs")
        assert main(["train", "--phase", "pretrain", "--grid", "32",
                     "--iterations", "2", "--dataset-size", "2",
                     "--batch-size", "2", "--seed", "11",
                     "--runs-dir", store, "--trace-dir", trace_dir]) == 0
        capsys.readouterr()
        trace_path = os.path.join(trace_dir, "train-trace.json")
        with open(trace_path) as fh:
            chrome = json.load(fh)
        names = {event["name"] for event in chrome["traceEvents"]}
        assert "pretrain.step" in names

        _, records = _run_records(store)
        summaries = [r for r in records if r["event"] == "span_summary"]
        assert len(summaries) == 1
        assert summaries[0]["spans"]["pretrain.step"]["count"] == 2
        assert summaries[0]["trace_file"] == trace_path
        spans = [r for r in records if r["event"] == "span"]
        assert len(spans) == len(chrome["traceEvents"])

    def test_train_both_phases_write_one_stream(self, tmp_path, capsys):
        """Both training phases, their spans and the one span summary
        of ``train --phase both`` go into the run's stream; the summary
        counts the 2 pretraining steps once."""
        from repro.runs import run_quality

        trace_dir = str(tmp_path / "T")
        store = str(tmp_path / "R")
        assert main(["train", "--phase", "both", "--grid", "32",
                     "--iterations", "2", "--dataset-size", "4",
                     "--trace-dir", trace_dir, "--runs-dir", store]) == 0
        capsys.readouterr()
        run, records = _run_records(store)
        assert run_quality(run.dir).spans["pretrain.step"]["count"] == 2
        assert [r["event"] for r in records].count("span_summary") == 1
        assert len([r for r in records if r["event"] == "span"
                    and r["name"] == "pretrain.step"]) == 2
        phases = [r["phase"] for r in records if r["event"] == "iteration"]
        assert phases == ["pretrain"] * 2 + ["gan"] * 2
        assert not {"pretrain.jsonl", "gan.jsonl"} & set(os.listdir(run.dir))
        assert os.listdir(trace_dir) == ["train-trace.json"]

    def test_flow_trace_dir(self, clip_file, tmp_path, capsys):
        config = GanOpcConfig.small(64)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(0))
        ckpt = str(tmp_path / "gen.npz")
        nn.save_state(generator, ckpt)
        trace_dir = str(tmp_path / "traces")
        store = str(tmp_path / "runs")
        assert main(["flow", clip_file, ckpt, "--grid", "64",
                     "--iterations", "5",
                     "--out", str(tmp_path / "mask.pgm"),
                     "--trace-dir", trace_dir, "--runs-dir", store]) == 0
        capsys.readouterr()
        assert os.listdir(trace_dir) == ["flow-trace.json"]
        _, records = _run_records(store)
        events = [r["event"] for r in records]
        assert {"flow", "span", "quality_sample", "clip_result"} <= \
            set(events)
        (summary,) = [r for r in records if r["event"] == "span_summary"]
        assert summary["trace_file"] == os.path.join(trace_dir,
                                                     "flow-trace.json")
        assert summary["spans"]["flow.refine"]["count"] == 1


class TestTable2:
    def test_verbose_prints_training_progress(self, capsys):
        assert main(["table2", "--scale", "quick", "--clips", "iccad13-01",
                     "--verbose", "--no-run-record"]) == 0
        out = capsys.readouterr().out
        # Quick scale: 10 pretraining steps, then 20 GAN iterations for
        # each of GAN-OPC and PGAN-OPC.
        assert out.count("[pretrain 10/10] litho error") == 1
        assert out.count("[gan 20/20] l_g") == 2


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
        assert "16/16" in stdout  # inline runs print the progress line too
        assert "workers 1" in stdout
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
        assert "16/16" in stdout
        assert "eta" in stdout
        assert "worker pid" in stdout  # per-worker utilization table
        assert "fleet litho engine" in stdout
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

        config = GanOpcConfig.small(32)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(0))
        ckpt = str(tmp_path / "gen.npz")
        nn.save_state(generator, ckpt)
        trace_dir = str(tmp_path / "traces")
        store = str(tmp_path / "runs")
        assert main(["flow", chip_file, ckpt, "--tiled",
                     "--tile-size", "32", "--halo", "8",
                     "--iterations", "4", "--workers", "2",
                     "--trace-dir", trace_dir, "--runs-dir", store,
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

        _, records = _run_records(store)
        summaries = [r for r in records
                     if r["event"] == "worker_span_summary"]
        assert sorted(r["pid"] for r in summaries) == sorted(worker_pids)
        for record in summaries:
            assert record["litho"]["forward_calls"] == \
                record["spans"]["litho.forward"]["count"]


class TestTileProgress:
    """The progress line of ``ilt --tiled`` / ``flow --tiled``."""

    def _run(self, workers):
        from repro.cli import _tile_progress
        progress = _tile_progress(workers)
        for done in range(1, 6):
            progress(done, 5, os.getpid(), 0.01)

    def test_not_a_terminal_prints_each_period_plus_the_final_line(
            self, capsys, monkeypatch):
        from repro import cli
        monkeypatch.setattr(cli, "PROGRESS_PERIOD", 3600.0)
        self._run(workers=2)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert "1/5" in lines[0] and "5/5" in lines[1]
        assert "eta" in lines[1] and "workers 2" in lines[1]
        assert "util" in lines[1]

    def test_terminal_rewrites_the_line_in_place(self, monkeypatch):
        import io

        class Terminal(io.StringIO):
            def isatty(self):
                return True

        terminal = Terminal()
        monkeypatch.setattr(sys, "stdout", terminal)
        self._run(workers=0)
        out = terminal.getvalue()
        assert out.count("\r") == 5
        assert out.endswith("\n") and out.count("\n") == 1
        assert "5/5" in out and "workers 1" in out


class TestMonitor:
    """Watching a 2-worker tiled run from its own stdout and telemetry.

    With :data:`repro.cli.PROGRESS_PERIOD` at 0 a non-terminal stdout
    gets one progress line per finished tile, as it arrives from the
    pool.
    """

    @pytest.fixture()
    def chip_file(self, tmp_path):
        out = str(tmp_path / "chip.glp")
        assert main(["chip", "--cells", "2", "--cell-extent", "256",
                     "--fill", "1.0", "--seed", "1", "--out", out]) == 0
        return out

    @staticmethod
    def _progress_counts(stdout):
        return [int(line.split()[1].split("/")[0])
                for line in stdout.splitlines() if line.startswith("tiles ")]

    def test_monitor_ilt_reports_progress_and_fleet(self, chip_file,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        from repro import cli
        monkeypatch.setattr(cli, "PROGRESS_PERIOD", 0.0)
        out = str(tmp_path / "mask.pgm")
        assert main(["ilt", chip_file, "--tiled", "--tile-size", "32",
                     "--halo", "8", "--iterations", "4", "--workers", "2",
                     "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert self._progress_counts(stdout) == list(range(1, 17))
        assert "16/16" in stdout
        assert "eta" in stdout
        assert "worker pid" in stdout  # per-worker utilization table
        assert "fleet litho engine" in stdout
        assert os.path.exists(out)

    def test_monitor_flow_with_checkpoint_telemetry(self, chip_file,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        from repro import cli

        monkeypatch.setattr(cli, "PROGRESS_PERIOD", 0.0)
        config = GanOpcConfig.small(32)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(0))
        ckpt = str(tmp_path / "gen.npz")
        nn.save_state(generator, ckpt)
        store = str(tmp_path / "runs")
        assert main(["flow", chip_file, ckpt, "--tiled",
                     "--tile-size", "32", "--halo", "8",
                     "--iterations", "4", "--workers", "2",
                     "--runs-dir", store,
                     "--out", str(tmp_path / "mask.pgm")]) == 0
        stdout = capsys.readouterr().out
        assert self._progress_counts(stdout) == list(range(1, 17))
        assert "workers 2" in stdout
        _, records = _run_records(store)
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

    def test_runs_diff_metrics_and_no_clips(self, clip_file, tmp_path,
                                            capsys):
        store = self._record_run(clip_file, tmp_path, iterations="5")
        self._record_run(clip_file, tmp_path, iterations="10")
        from repro.runs import RunStore
        first, second = RunStore(store).run_ids()
        capsys.readouterr()

        def diff(*extra):
            """The first word of each row of every section, by section."""
            assert main(["runs", "diff", first, second, "--runs-dir", store,
                         *extra]) == 0
            sections = {}
            for block in capsys.readouterr().out.split("\n\n")[1:]:
                header, *rows = block.splitlines()
                sections[header.split()[0]] = [row.split()[0] for row in rows
                                               if row.startswith("  ")]
            return sections

        full = diff()
        assert {"l2_nm2", "pvband_nm2"} <= set(full["aggregate"])
        assert full["per-clip"]
        narrowed = diff("--metrics", "l2_nm2,pvband_nm2", "--no-clips")
        assert narrowed["aggregate"] == ["l2_nm2", "pvband_nm2"]
        assert "per-clip" not in narrowed
        assert narrowed["litho"] == full["litho"]

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
