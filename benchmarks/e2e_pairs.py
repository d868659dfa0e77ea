"""Alternating parent/change pairs of the end-to-end benchmark.

Usage (from the repository root)::

    python3 benchmarks/e2e_pairs.py --parent HEAD~1 --workload table2

The change is the working tree; the parent is ``--parent REV``,
exported with ``git archive`` into a temporary directory.  The script
refuses to run when ``perfbench/`` differs between the two trees, since
both sides must be measured by the same benchmark code.  Each pair runs
``perfbench/run.py --trace 0`` once from each tree with the same seed,
and alternates which side runs first.

For every end-to-end metric in ``BENCHMARK.json`` it prints both sides'
median and quartiles, the change/parent ratio of the medians, and
wins, ties and losses by the metric's ``better``.  ``gain`` means the
change won at least 90% of all pairs run (ties, and pairs where either
side printed no report, count for neither), its median beats the
parent's by more than the parent's interquartile range, and it failed
no more operations and left no more runs without a report than the
parent.  ``worse`` means the change's median is worse than the
parent's by more than the metric's ``bound``, as a fraction of the
parent's median.  Failed operations are counted per side.

Before the pairs of a workload, each tree runs one set-up and one pass
at the first pair's seed, in a subprocess that imports that tree's own
``perfbench/workloads.py``, and the two ``PassResult.fingerprint``
digests are compared: the entry's ``outputs_identical`` says whether the
change left every output of the pass bit-identical.

Pair ``i`` runs seed ``s + i``, where ``s`` is one past the highest
seed already recorded in ``BENCH_e2e.json`` (1 for an empty record),
so every run measures seeds no earlier run has seen.  As each workload
finishes, one entry is appended to that file, keyed by
``git rev-parse HEAD`` (with ``-dirty`` when the working tree has
uncommitted changes) and the parent revision.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "BENCH_e2e.json")

#: share of all pairs the change must win for ``gain``
WIN_SHARE = 0.9

#: Run from a tree's root: one set-up and one pass of workload
#: ``argv[1]`` at seed ``argv[2]`` and scale ``argv[3]``, printing the
#: pass's fingerprint.  Importing ``perfbench/run.py`` applies the
#: benchmark's thread budget and environment before numpy loads.
_FINGERPRINT = """
import sys, tempfile
sys.path.insert(0, "perfbench")
import run
sys.path.insert(0, run.SRC)
import workloads
workload = workloads.WORKLOADS[sys.argv[1]]
with tempfile.TemporaryDirectory() as workdir:
    state = workload.setup(workloads.SCALES[sys.argv[3]], int(sys.argv[2]),
                           workdir)
    try:
        result = workload.run_pass(state)
    finally:
        workload.close(state)
        workloads.join_children()
if result.error:
    sys.exit(result.error)
print(result.fingerprint)
"""


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def change_rev() -> str:
    """``HEAD``, marked ``-dirty`` when tracked files have changes."""
    rev = _git("rev-parse", "HEAD")
    if _git("status", "--porcelain", "--untracked-files=no"):
        rev += "-dirty"
    return rev


def export_tree(rev: str, dest: str) -> None:
    """Extract the committed files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def _tree_files(root: str) -> Dict[str, bytes]:
    """Contents of the benchmark's files under ``root/perfbench``,
    skipping bytecode caches and run work directories."""
    base = os.path.join(root, "perfbench")
    files = {}
    for folder, dirs, names in os.walk(base):
        dirs[:] = [d for d in dirs
                   if d != "__pycache__" and not d.startswith(".work-")]
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, base)] = fh.read()
    return files


def run_once(tree: str, workload: str, seed: int,
             seconds: float) -> Optional[dict]:
    """One ``perfbench/run.py --trace 0`` run; its JSON report, or
    ``None`` when the run printed none."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        return None


def fingerprint(tree: str, workload: str, seed: int,
                scale: str = "full") -> Optional[str]:
    """Fingerprint of one set-up and one pass of ``workload`` run with
    ``tree``'s own benchmark and program; ``None`` when it failed."""
    proc = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT, workload, str(seed), scale],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if proc.returncode == 0 and lines else None


def spread(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (inclusive method, exact for n >= 1)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent: List[float], change: List[float], better: str,
            bound: float, runs: int) -> dict:
    """Pairwise verdict for one metric; ``parent[i]`` and ``change[i]``
    come from complete pair ``i`` of the ``runs`` pairs run."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    a, b = spread(parent), spread(change)
    gap = sign * (a["median"] - b["median"])
    return {
        "parent": a, "change": b,
        "ratio": b["median"] / a["median"] if a["median"] else None,
        "wins": wins, "ties": ties, "losses": len(parent) - wins - ties,
        "gain": wins >= WIN_SHARE * runs and gap > a["q3"] - a["q1"],
        "worse": -gap > bound * abs(a["median"]),
        "parent_values": parent, "change_values": change,
    }


def summarize(pairs: List[Tuple[Optional[dict], Optional[dict]]],
              spec: List[dict]) -> dict:
    """Per-metric verdicts and failure counts over ``(parent, change)``
    report pairs; a pair missing either report is left out of the
    metric values, counted under ``missing_reports`` and still counted
    in the pairs a gain must win."""
    sides = {}
    for index, side in enumerate(("parent", "change")):
        reports = [pair[index] for pair in pairs]
        done = [r for r in reports if r is not None]
        sides[side] = {
            "failed": sum(r["failed"] for r in done),
            "attempted": sum(r["attempted"] for r in done),
            "missing_reports": len(reports) - len(done)}
    healthy = all(sides["change"][key] <= sides["parent"][key]
                  for key in ("failed", "missing_reports"))
    complete = [(p, c) for p, c in pairs if p is not None and c is not None]
    metrics = {}
    for metric in (spec if complete else []):
        name = metric["name"]
        verdict = compare([p["metrics"][name]["value"] for p, _ in complete],
                          [c["metrics"][name]["value"] for _, c in complete],
                          metric["better"], metric["bound"], len(pairs))
        verdict["gain"] = verdict["gain"] and healthy
        metrics[name] = {"unit": metric["unit"], "better": metric["better"],
                         "bound": metric["bound"], **verdict}
    return {"pairs": len(complete), "pairs_run": len(pairs),
            "metrics": metrics, "operations": sides}


def format_summary(workload: str, summary: dict) -> str:
    lines = [f"{workload}: {summary['pairs']} complete pairs of "
             f"{summary['pairs_run']} run",
             f"{'metric':<12} {'unit':<6} {'parent median [q1, q3]':<30} "
             f"{'change median [q1, q3]':<30} {'ratio':>6}  {'W/T/L':<8} "
             f"gain  worse"]
    for name, m in summary["metrics"].items():
        sides = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                 for s in (m["parent"], m["change"])]
        ratio = "-" if m["ratio"] is None else f"{m['ratio']:.3f}"
        lines.append(
            f"{name:<12} {m['unit']:<6} {sides[0]:<30} {sides[1]:<30} "
            f"{ratio:>6}  {m['wins']}/{m['ties']}/{m['losses']:<4} "
            f"{'yes' if m['gain'] else 'no':<5} "
            f"{'YES' if m['worse'] else 'no'}")
    for side, ops in summary["operations"].items():
        lines.append(f"{side}: {ops['failed']} of {ops['attempted']} "
                     f"operations failed, {ops['missing_reports']} runs "
                     f"without a report")
    return "\n".join(lines)


def load_record(path: str = RECORD) -> dict:
    if not os.path.exists(path):
        return {"schema": 1, "entries": []}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def first_seed(record: dict) -> int:
    """One past the highest seed any recorded entry ran."""
    return 1 + max((seed for entry in record["entries"]
                    for seed in entry.get("seeds", [])), default=0)


def append_record(entries: List[dict], path: str = RECORD) -> None:
    """Append ``entries`` to the record, replacing it atomically."""
    record = load_record(path)
    record["entries"].extend(entries)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare the working tree to")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable (default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    parent_rev = _git("rev-parse", args.parent)
    rev = change_rev()
    start = first_seed(load_record())
    seeds = [start + i for i in range(args.pairs)]
    with tempfile.TemporaryDirectory(prefix="e2e-parent-") as parent_tree:
        export_tree(parent_rev, parent_tree)
        if _tree_files(parent_tree) != _tree_files(ROOT):
            print(f"error: perfbench/ differs between {args.parent} and "
                  f"the working tree", file=sys.stderr)
            return 2
        for workload in args.workload or names:
            digests = [fingerprint(tree, workload, seeds[0])
                       for tree in (parent_tree, ROOT)]
            identical = digests[0] is not None and digests[0] == digests[1]
            print(f"{workload} outputs at seed {seeds[0]}: "
                  f"{'identical' if identical else 'DIFFERENT'} "
                  f"(parent {digests[0]}, change {digests[1]})", flush=True)
            pairs = []
            for i, seed in enumerate(seeds):
                order = [("parent", parent_tree), ("change", ROOT)]
                if i % 2:
                    order.reverse()
                reports = {side: run_once(tree, workload, seed, args.seconds)
                           for side, tree in order}
                pairs.append((reports["parent"], reports["change"]))
                print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}, "
                      f"{order[0][0]} first) done", flush=True)
            summary = summarize(pairs, benchmark["end_to_end"])
            print(format_summary(workload, summary), flush=True)
            append_record([{
                "rev": rev, "parent": parent_rev, "workload": workload,
                "seconds": args.seconds, "seeds": seeds,
                "outputs_identical": identical,
                "nproc": os.cpu_count(),
                "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                               time.gmtime()),
                **summary}])
            print(f"appended the {workload} entry to {RECORD}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
