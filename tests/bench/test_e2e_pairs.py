"""The end-to-end pair runner (benchmarks/e2e_pairs.py): its summary
rules on canned benchmark reports, and the output-identity fingerprint
of a tree's pass (a subprocess at the 32 px scale, or a stub tree); no
git."""

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, os.pardir, "benchmarks", "e2e_pairs.py")

SPEC = [
    {"name": "item_a_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "l2_rel", "unit": "ratio", "better": "lower", "bound": 0.24},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("e2e_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(item_a, l2=0.05, rate=10.0, failed=0, attempted=12):
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {"item_a_s": {"value": item_a, "unit": "s"},
                        "l2_rel": {"value": l2, "unit": "ratio"},
                        "rate": {"value": rate, "unit": "1/s"}}}


class TestSpread:
    def test_quartiles_of_ten(self, pairs):
        s = pairs.spread([float(v) for v in range(1, 11)])
        assert s == {"q1": 3.25, "median": 5.5, "q3": 7.75}

    def test_single_value(self, pairs):
        assert pairs.spread([2.0]) == {"q1": 2.0, "median": 2.0, "q3": 2.0}


class TestSummarize:
    def test_clear_gain(self, pairs):
        canned = [(_report(0.30 + 0.01 * i), _report(0.20 + 0.01 * i))
                  for i in range(10)]
        m = pairs.summarize(canned, SPEC)["metrics"]["item_a_s"]
        assert (m["wins"], m["ties"], m["losses"]) == (10, 0, 0)
        assert m["gain"] and not m["worse"]
        assert m["ratio"] == pytest.approx(0.245 / 0.345)

    def test_identical_values_tie(self, pairs):
        canned = [(_report(0.3), _report(0.3)) for _ in range(4)]
        m = pairs.summarize(canned, SPEC)["metrics"]["l2_rel"]
        assert (m["wins"], m["ties"], m["losses"]) == (0, 4, 0)
        assert not m["gain"] and not m["worse"]

    def test_eight_of_ten_wins_is_no_gain(self, pairs):
        canned = [(_report(0.30), _report(0.20)) for _ in range(8)]
        canned += [(_report(0.30), _report(0.40)) for _ in range(2)]
        m = pairs.summarize(canned, SPEC)["metrics"]["item_a_s"]
        assert (m["wins"], m["losses"]) == (8, 2)
        assert not m["gain"]

    def test_gap_within_parent_iqr_is_no_gain(self, pairs):
        parent = [0.1, 0.1, 0.1, 0.5, 0.5, 0.5, 0.5, 0.9, 0.9, 0.9]
        canned = [(_report(p), _report(p - 0.01)) for p in parent]
        m = pairs.summarize(canned, SPEC)["metrics"]["item_a_s"]
        assert m["wins"] == 10
        assert not m["gain"]

    def test_worse_beyond_bound(self, pairs):
        canned = [(_report(0.20), _report(0.26)) for _ in range(3)]
        m = pairs.summarize(canned, SPEC)["metrics"]["item_a_s"]
        assert m["worse"] and m["losses"] == 3
        canned = [(_report(0.20), _report(0.24)) for _ in range(3)]
        assert not pairs.summarize(canned, SPEC)["metrics"]["item_a_s"][
            "worse"]

    def test_higher_is_better(self, pairs):
        canned = [(_report(0.2, rate=10.0), _report(0.2, rate=8.0))
                  for _ in range(3)]
        m = pairs.summarize(canned, SPEC)["metrics"]["rate"]
        assert m["losses"] == 3 and m["worse"] and not m["gain"]

    def test_failures_and_missing_reports(self, pairs):
        canned = [(_report(0.3, failed=1), _report(0.2)),
                  (_report(0.3), None),
                  (_report(0.3), _report(0.2, attempted=20))]
        summary = pairs.summarize(canned, SPEC)
        assert (summary["pairs"], summary["pairs_run"]) == (2, 3)
        assert summary["operations"] == {
            "parent": {"failed": 1, "attempted": 36, "missing_reports": 0},
            "change": {"failed": 0, "attempted": 32, "missing_reports": 1}}
        assert summary["metrics"]["item_a_s"]["parent_values"] == [0.3, 0.3]
        # The change won both complete pairs, but lost a report.
        assert summary["metrics"]["item_a_s"]["wins"] == 2
        assert not summary["metrics"]["item_a_s"]["gain"]

    def test_crashed_pairs_count_against_gain(self, pairs):
        wins = [(_report(0.30 + 0.01 * i), _report(0.20 + 0.01 * i))
                for i in range(7)]
        crashed = pairs.summarize(wins + [(_report(0.3), None)] * 3, SPEC)
        assert not crashed["metrics"]["item_a_s"]["gain"]
        # Pairs where neither side reported still count as run: 8 wins
        # of 10 is no gain even though both sides lost the same runs.
        wins += [(_report(0.31), _report(0.21))]
        lost = pairs.summarize(wins + [(None, None)] * 2, SPEC)
        assert lost["metrics"]["item_a_s"]["wins"] == 8
        assert not lost["metrics"]["item_a_s"]["gain"]
        wins += [(_report(0.32), _report(0.22))]
        assert pairs.summarize(wins + [(None, None)], SPEC)[
            "metrics"]["item_a_s"]["gain"]

    def test_more_failed_operations_is_no_gain(self, pairs):
        canned = [(_report(0.30 + 0.01 * i), _report(0.20 + 0.01 * i))
                  for i in range(10)]
        canned[0] = (_report(0.30), _report(0.20, failed=1))
        m = pairs.summarize(canned, SPEC)["metrics"]["item_a_s"]
        assert m["wins"] == 10 and not m["gain"]
        canned[1] = (_report(0.31, failed=1), _report(0.21))
        assert pairs.summarize(canned, SPEC)["metrics"]["item_a_s"]["gain"]

    def test_no_complete_pair_has_no_metrics(self, pairs):
        summary = pairs.summarize([(None, _report(0.2))], SPEC)
        assert summary["pairs"] == 0 and summary["metrics"] == {}
        assert "0 complete pairs" in pairs.format_summary("table2", summary)


class TestRecord:
    def test_first_seed_follows_the_record(self, pairs):
        assert pairs.first_seed({"entries": []}) == 1
        record = {"entries": [{"seeds": [101, 102]}, {"seeds": [5]}]}
        assert pairs.first_seed(record) == 103

    def test_summary_formats_every_metric(self, pairs):
        canned = [(_report(0.3), _report(0.2)) for _ in range(3)]
        text = pairs.format_summary("chip", pairs.summarize(canned, SPEC))
        for name in ("item_a_s", "l2_rel", "rate"):
            assert name in text

    def test_append_keeps_earlier_entries(self, pairs, tmp_path):
        path = str(tmp_path / "BENCH_e2e.json")
        pairs.append_record([{"workload": "table2"}], path)
        pairs.append_record([{"workload": "chip"}], path)
        record = json.load(open(path, encoding="utf-8"))
        assert record["schema"] == 1
        assert [e["workload"] for e in record["entries"]] == ["table2",
                                                              "chip"]


_STUB_WORKLOADS = '''
import types
SCALES = {"full": None}
def join_children():
    pass
class Stub:
    def setup(self, scale, seed, workdir):
        return seed
    def run_pass(self, seed):
        return types.SimpleNamespace(error=ERROR, fingerprint=f"pass-{seed}")
    def close(self, state):
        pass
WORKLOADS = {"stub": Stub()}
'''


class TestOutputIdentity:
    def test_fingerprint_of_a_tree_pass(self, pairs):
        """One set-up and one pass run with the tree's own benchmark."""
        first = pairs.fingerprint(pairs.ROOT, "train", 5, scale="tiny")
        assert first is not None and len(first) == 64
        int(first, 16)
        assert pairs.fingerprint(pairs.ROOT, "train", 5, "tiny") == first

    def test_failed_pass_has_no_fingerprint(self, pairs, tmp_path):
        for name, error in (("ok", None), ("broken", "'boom'")):
            bench = tmp_path / name / "perfbench"
            bench.mkdir(parents=True)
            (bench / "run.py").write_text("SRC = 'src'\n")
            (bench / "workloads.py").write_text(
                f"ERROR = {error}\n{_STUB_WORKLOADS}")
        assert pairs.fingerprint(str(tmp_path / "ok"), "stub", 3) == "pass-3"
        assert pairs.fingerprint(str(tmp_path / "broken"), "stub", 3) is None
