"""Summarize benchmark result files: per workload and metric, the median,
quartiles and spread (interquartile range as a share of the median) over
runs, as the acceptance rule for BENCHMARK.json computes them.

    python3 perfbench/summarize.py perfbench/out/*-trace0.json [--out FILE]

With ``--out`` the summary is also written as JSON, together with the
environment of the first run and the tracing overhead when traced runs of
the same workload are given.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values)), "n": len(values)}


def summarize(records) -> dict:
    by_key: dict[tuple[str, int], list[dict]] = {}
    for r in records:
        by_key.setdefault((r["workload"], r["trace"]), []).append(r)
    out = {}
    for (workload, trace), runs in sorted(by_key.items()):
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "values": values}
            if len(values) >= 2 and statistics.median(values) != 0:
                metrics[name].update(spread(values))
        # per-method times and accuracy: each run's median
        per_op = {}
        for name in runs[0]["run"].get("per_op", {}):
            values = [r["run"]["per_op"][name]["median"] for r in runs]
            per_op[name] = {"values": values, "ops": [r["run"]["per_op"][name]["n"] for r in runs]}
            if len(values) >= 2:
                per_op[name].update(spread(values))
        out[f"{workload}/trace{trace}"] = {
            "seeds": [r["seed"] for r in runs],
            "per_op": per_op,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["run"]["failed"] for r in runs),
            "attempted": sum(r["run"]["attempted"] for r in runs),
            "metrics": metrics,
        }
    for workload in {w for w, _ in by_key}:
        plain, tracedruns = by_key.get((workload, 0)), by_key.get((workload, 1))
        if plain and tracedruns:
            out[f"{workload}/trace1"]["tracing_overhead"] = _overhead(workload, plain, tracedruns)
    return out


def _overhead(workload, plain, tracedruns) -> dict:
    """Traced span totals against the untraced medians of the same workload."""
    spans_fit = [r["run"]["metrics"]["pipeline.fit_s"] for r in tracedruns]
    result = {"traced_fit_s_median": statistics.median(spans_fit),
              "span_cost_overhead_pct_median": statistics.median(
                  r["run"]["metrics"]["trace.overhead_pct"] for r in tracedruns),
              "traced_classify_windows_per_s_median": statistics.median(
                  v for r in tracedruns for v in r["run"]["classify_windows_per_s"])}
    if workload == "protocol":
        ours = statistics.median(r["metrics"]["op_s"]["value"] for r in plain)
        # one `ours` experiment is RUNS fits plus ingest and evaluation
        runs = plain[0]["settings"]["runs"]
        result.update(untraced_ours_s_median=ours, traced_fit_x_runs_s=runs * result["traced_fit_s_median"])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="summarize benchmark result files")
    parser.add_argument("files", nargs="+")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    records = [json.loads(Path(f).read_text()) for f in args.files if not f.endswith(".spans.json")]
    summary = summarize(records)
    for key, s in summary.items():
        print(f"{key}: runs={len(s['seeds'])} correct={s['correct']} failed={s['failed']}/{s['attempted']}")
        for name, m in list(s["metrics"].items()) + list(s["per_op"].items()):
            if "spread" in m:
                print(f"  {name:36s} median {m['median']:.6g} {m.get('unit', '')}  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
                      f"  spread {m['spread']:.4f}")
        if "tracing_overhead" in s:
            print(f"  tracing overhead: {json.dumps(s['tracing_overhead'])}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        env = records[0]["environment"]
        Path(args.out).write_text(json.dumps({"environment": env, "settings": records[0]["settings"],
                                              "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
