"""OpenMetrics text file of a finished worker-pool run."""

import os
import re

import pytest

from repro.obs.export import metric_name, render_openmetrics, write_openmetrics
from repro.obs.health import ResourceSampler, proc_available
from repro.parallel.pool import PoolStats


def _pool_stats():
    stats = PoolStats(workers=2)
    stats.record(123, 0.5)
    stats.record(456, 1.5)
    stats.wall_seconds = 2.0
    return stats


def _workers():
    return {123: {"rss_bytes": 2048.0, "cpu_seconds": 1.5, "threads": 3.0,
                  "cpu_utilization": 0.25},
            456: {"rss_bytes": 4096.0, "cpu_seconds": 2.0, "threads": 3.0}}


#: sample-name suffixes each OpenMetrics family type allows
ALLOWED_SUFFIXES = {"gauge": ("",), "summary": ("_count", "_sum", "")}


def _check_sample_names(text):
    """Every sample is named after the ``# TYPE`` line above it plus a
    suffix its type allows."""
    family = kind = None
    samples = 0
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split()
            continue
        if line == "# EOF":
            break
        name = re.match(r"[a-zA-Z_:][a-zA-Z0-9_:]*", line).group(0)
        assert family is not None, line
        assert name in {family + suffix
                        for suffix in ALLOWED_SUFFIXES[kind]}, (line, kind)
        samples += 1
    return samples


class TestNaming:
    def test_metric_name_sanitizes_and_prefixes(self):
        assert metric_name("litho.forward_calls") == \
            "repro_litho_forward_calls"
        assert metric_name("a b-c") == "repro_a_b_c"
        assert metric_name("ns:ok") == "repro_ns:ok"


class TestRender:
    def test_counter_gauge_histogram_families(self):
        text = render_openmetrics(_pool_stats(), _workers())
        assert text.endswith("# EOF\n")
        assert "# TYPE repro_pool_utilization gauge" in text
        assert "repro_pool_utilization 0.5" in text
        assert "repro_pool_tasks_total 2" in text
        assert "repro_pool_tasks_done 2" in text
        assert 'repro_pool_worker_rss_bytes{pid="123"} 2048' in text
        assert 'repro_pool_worker_cpu_utilization{pid="123"} 0.25' in text
        assert "# TYPE repro_pool_task_seconds summary" in text
        assert "repro_pool_task_seconds_count 2" in text
        assert "repro_pool_task_seconds_sum 2" in text
        assert "repro_pool_task_seconds_min 0.5" in text
        assert "repro_pool_task_seconds_max 1.5" in text
        assert _check_sample_names(text) == 14

    def test_type_line_precedes_samples_once(self):
        lines = render_openmetrics(_pool_stats(), _workers()).splitlines()
        type_lines = [line for line in lines if line.startswith("# TYPE")]
        assert len(type_lines) == len(set(type_lines))
        # families are emitted sorted by name
        names = [line.split()[2] for line in type_lines]
        assert names == sorted(names)

    def test_worker_readings_share_one_family(self):
        text = render_openmetrics(_pool_stats(), _workers())
        assert text.count("# TYPE repro_pool_worker_rss_bytes gauge") == 1
        assert 'repro_pool_worker_rss_bytes{pid="456"} 4096' in text
        # Only the worker with two readings has a utilization.
        assert 'cpu_utilization{pid="456"}' not in text

    @pytest.mark.skipif(not proc_available(), reason="no procfs")
    def test_sample_names_match_after_two_sampler_readings(self):
        sampler = ResourceSampler()
        sampler.sample([os.getpid()])
        sampler.sample([os.getpid()])
        text = render_openmetrics(_pool_stats(), sampler.latest)
        assert f'repro_pool_worker_cpu_utilization{{pid="{os.getpid()}"}}' \
            in text
        assert _check_sample_names(text) == 11

    def test_write_openmetrics(self, tmp_path):
        path = write_openmetrics(_pool_stats(), _workers(),
                                 str(tmp_path / "m.txt"))
        content = open(path, encoding="utf-8").read()
        assert content == render_openmetrics(_pool_stats(), _workers())
