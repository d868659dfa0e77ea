"""Compare a freshly measured QUALITY_*.json against the committed baseline.

The quality twin of ``check_bench_regression.py``: CI reruns the small
deterministic Table 2 subset (``repro table2 --scale quick --clips ...
--quality-out``) on the runner and calls this script to fail the build
when any gated mask-quality metric got *worse* than the committed
``BASELINE_quality.json`` beyond tolerance.

All gated metrics (L2, PVB, EPE violations, window PVB, worst-corner
L2/EPE) are lower-is-better, so only increases can fail the gate.  Two
tolerances combine, and a value fails only when it exceeds **both**:

* ``--rel-tol`` — fractional increase over the baseline value
  (default 5%); the subset is serial float64 and deterministic per
  (numpy version, litho config), so this mostly absorbs cross-version
  numeric drift, not real regressions;
* ``--abs-tol`` — absolute slack (default 1.0), which keeps
  small-count metrics (EPE violations 0 -> 1) from tripping on
  off-by-one noise while a 0 -> 5 jump still fails.

Per-clip metrics and per-method aggregates are both gated.  For every
method the candidate ran, each baseline clip and the method mean must be
there: a metric that is numeric in the baseline but ``null`` (not
finite when measured) or missing in the candidate, with its clip or
mean or not, is a regression.  A method absent from the candidate is
only noted; ``--require`` guards against a method silently vanishing.

Usage::

    python benchmarks/check_quality_regression.py \
        --baseline benchmarks/BASELINE_quality.json \
        --candidate /tmp/QUALITY_ci.json --require ILT --require PGAN-OPC
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Tuple


def _load(path: str) -> dict:
    import os
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.runs.quality import QualityRecordError, load_quality_record
    try:
        return load_quality_record(path)
    except QualityRecordError as exc:
        raise SystemExit(f"error: {exc}")


def _worse(base: float, cand: float, rel_tol: float,
           abs_tol: float) -> bool:
    """True when a lower-is-better value regressed beyond tolerance."""
    return cand > base + abs_tol and cand > base * (1.0 + rel_tol)


def compare(baseline: dict, candidate: dict, rel_tol: float,
            abs_tol: float, skip: List[str]
            ) -> Tuple[List[str], List[str]]:
    """Return (report lines, regression labels) over clips + aggregates."""
    lines: List[str] = []
    regressions: List[str] = []

    def check(label: str, base_metrics: Dict[str, float],
              cand_metrics: Dict[str, float]) -> None:
        for metric in sorted(base_metrics):
            name = f"{label}.{metric}"
            if any(token in name for token in skip):
                continue
            base = base_metrics[metric]
            if not isinstance(base, (int, float)):
                continue
            cand = cand_metrics.get(metric)
            if not isinstance(cand, (int, float)):
                regressions.append(name)
                shown = "missing" if metric not in cand_metrics else "null"
                lines.append(f"  {name:55s} {base:12.1f} -> {shown:>12s}  "
                             f"REGRESSION")
                continue
            status = "ok"
            if _worse(float(base), float(cand), rel_tol, abs_tol):
                status = "REGRESSION"
                regressions.append(name)
            elif float(cand) < float(base):
                status = "improved"
            lines.append(f"  {name:55s} {base:12.1f} -> {cand:12.1f}  "
                         f"{status}")

    base_clips = baseline["clips"]
    cand_clips = candidate["clips"]
    for method in sorted(set(base_clips) & set(cand_clips)):
        for clip in sorted(base_clips[method]):
            check(f"{method}/{clip}", base_clips[method][clip],
                  cand_clips[method].get(clip, {}))
    base_agg = baseline.get("aggregates", {})
    cand_agg = candidate.get("aggregates", {})
    for method in sorted(set(base_agg) & set(cand_clips)):
        check(f"{method}/mean", base_agg[method], cand_agg.get(method, {}))

    for method in sorted(set(base_clips) - set(cand_clips)):
        lines.append(f"  {method:55s} (baseline only, skipped)")
    return lines, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BASELINE_quality.json")
    parser.add_argument("--candidate", required=True,
                        help="freshly measured QUALITY_*.json")
    parser.add_argument("--rel-tol", type=float, default=0.05,
                        help="maximum tolerated fractional increase of a "
                             "lower-is-better metric (default 0.05)")
    parser.add_argument("--abs-tol", type=float, default=1.0,
                        help="absolute slack added to the baseline before "
                             "the relative test applies (default 1.0; "
                             "absorbs off-by-one count noise)")
    parser.add_argument("--skip", action="append", default=[],
                        help="substring of entry names to ignore "
                             "(repeatable)")
    parser.add_argument("--require", action="append", default=[],
                        help="method name that must be present in both "
                             "records (repeatable); guards against a "
                             "column silently disappearing from the gate")
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)
    candidate = _load(args.candidate)
    if baseline.get("suite") != candidate.get("suite"):
        print(f"FAIL: suite mismatch: baseline "
              f"{baseline.get('suite')!r} vs candidate "
              f"{candidate.get('suite')!r} — the gate must compare the "
              f"same clip subset at the same scale")
        return 1
    missing = [
        f"{which}: method {method!r} absent"
        for method in args.require
        for which, record in (("baseline", baseline),
                              ("candidate", candidate))
        if method not in record["clips"]
    ]
    if missing:
        print("FAIL: required methods missing from the quality record:")
        for line in missing:
            print(f"  {line}")
        return 1

    lines, regressions = compare(baseline, candidate, args.rel_tol,
                                 args.abs_tol, args.skip)
    print(f"mask quality vs baseline (suite {candidate.get('suite')!r}, "
          f"tolerance: +{args.rel_tol:.0%} and +{args.abs_tol:g} abs):")
    for line in lines:
        print(line)
    if regressions:
        print(f"\nFAIL: {len(regressions)} metric"
              f"{'' if len(regressions) == 1 else 's'} regressed beyond "
              f"tolerance: {', '.join(regressions)}")
        return 1
    print("\nno quality regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
