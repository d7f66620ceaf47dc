"""Command-line entry points: run experiments, synthesize benchmark data,
and merge result files into a report table."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (
    ExperimentConfig,
    ExperimentResult,
    SyntheticDomainSpec,
    emit_report,
    run_experiment,
    synthesize_domains,
    write_dataset_csv,
)
from .serialize import from_json, to_json


def _cmd_run(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        config = from_json(ExperimentConfig, json.load(fh))
    if args.out is not None:
        config = replace(config, output=args.out)
    result = run_experiment(config)
    print(
        f"{result.pair} [{result.method}] accuracy={100 * result.pair_accuracy:.2f}% "
        f"({len(result.file_names)} target file(s), {result.elapsed_seconds:.1f}s)"
    )
    if config.output:
        print(f"wrote {config.output}")
    return 0


def _cmd_synth(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        spec = SyntheticDomainSpec.create(**json.load(fh))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    source, target = synthesize_domains(spec)
    write_dataset_csv(source, out / "source.csv")
    write_dataset_csv(target, out / "target.csv")
    with open(out / "spec.json", "w", encoding="utf-8") as fh:
        json.dump(to_json(spec), fh, indent=2)
    print(f"wrote {out / 'source.csv'} ({len(source)} frames) and {out / 'target.csv'} ({len(target)} frames)")
    return 0


def _cmd_report(args) -> int:
    in_dir = Path(args.in_dir)
    # a merged report (an earlier one, or beef_grid's) repeats its cells: count each (pair, method) once
    found: dict[tuple[str, str], tuple[ExperimentResult, Path]] = {}
    for f in sorted(in_dir.glob("*.json")):
        obj = json.loads(f.read_text(encoding="utf-8"))
        for entry in obj["results"] if "results" in obj else [obj]:
            r = from_json(ExperimentResult, entry)
            first, first_file = found.setdefault((r.pair, r.method), (r, f))
            if r != first:
                raise ValueError(f"{first_file} and {f} hold different results for {r.pair} [{r.method}]")
    if not found:
        raise FileNotFoundError(f"no result .json files in {in_dir}")
    json_path, table_path = emit_report([r for r, _ in found.values()], args.out)
    print(f"wrote {json_path} and {table_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noseda",
        description="Few-shot domain adaptation experiments for gas-sensor time series.",
    )
    parser.add_argument(
        "--log-level",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        default="WARNING",
        help="the least severe noseda log records printed to stderr (default WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="ExperimentConfig JSON file")
    p_run.add_argument("--out", default=None, help="override the result output path")
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="write a synthetic source/target CSV pair")
    p_synth.add_argument("--spec", required=True, help="SyntheticDomainSpec JSON file")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=_cmd_synth)

    p_rep = sub.add_parser("report", help="merge result JSONs into a table")
    p_rep.add_argument("--in", dest="in_dir", required=True, help="directory of result .json files")
    p_rep.add_argument("--out", required=True, help="output base path (writes .json and .md)")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("noseda").setLevel(args.log_level)
    try:
        return args.func(args)
    except Exception as exc:  # surface a one-line diagnostic, nonzero exit
        print(f"noseda: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
