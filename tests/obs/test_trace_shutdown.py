"""Span records survive an exit without ``trace.disable``.

A tracer with a logger writes every finished span into the run's stream
as it closes, and the logger flushes every record.  So a process that
leaves its tracer installed — even one that ends in ``os._exit``, which
runs no exit handler — keeps every finished span as a complete,
schema-valid ``span`` record.
"""

import json
import os
import subprocess
import sys

from repro.obs import trace
from repro.runtime import RunLogger, validate_record

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _run_script(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    return subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=60)


def _records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_os_exit_keeps_every_finished_span(tmp_path):
    result = _run_script(
        "import os\n"
        "from repro.obs import trace\n"
        "from repro.runtime import RunLogger\n"
        "trace.enable(logger=RunLogger('quality.jsonl', 'flow'))\n"
        "for i in range(3):\n"
        "    with trace.span('work', iteration=i):\n"
        "        pass\n"
        "with trace.span('unfinished'):\n"
        "    os._exit(0)\n",  # no disable, no close, no exit handlers
        tmp_path)
    assert result.returncode == 0
    records = _records(tmp_path / "quality.jsonl")
    for record in records:  # complete strict-JSON lines, not torn
        validate_record(record)
    assert [(r["event"], r["name"], r["args"]) for r in records] == \
        [("span", "work", {"iteration": i}) for i in range(3)]


def test_clean_disable_does_not_warn(tmp_path):
    result = _run_script(
        "from repro.obs import trace\n"
        "from repro.runtime import RunLogger\n"
        "trace.enable(logger=RunLogger('quality.jsonl', 'flow'))\n"
        "with trace.span('work'):\n"
        "    pass\n"
        "trace.disable()\n",
        tmp_path)
    assert result.returncode == 0
    assert result.stderr == ""
    assert len(_records(tmp_path / "quality.jsonl")) == 1


def test_reset_for_child_drops_without_closing(tmp_path):
    path = str(tmp_path / "quality.jsonl")
    with RunLogger(path, "flow") as logger:
        tracer = trace.enable(logger=logger)
        with trace.span("parent-span"):
            pass
        trace.reset_for_child()  # what _worker_init does after fork
        assert not trace.is_enabled()
        trace.enable(tracer)  # the parent's stream still works
        with trace.span("after"):
            pass
        trace.disable()
    assert [r["name"] for r in _records(path)] == ["parent-span", "after"]
