"""Command-line interface.

Subcommands: list-sources, preprocess, generate, train, evaluate, plot.
Domain failures and file-system errors exit 1 with a single-line message;
bad flags exit 2 with usage text. CELLFORGE_WORKSPACE provides the default
workspace for train checkpoints.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import components as _components  # noqa: F401  (populates registries)
from .battery_data import load_cells, read_file, write_cell, yaml_document
from .errors import CellforgeError, ConfigError
from .ingestion import list_sources, preprocess_source
from .pipeline import run_evaluate, run_train
from .plots import PLOT_KINDS, make_plot
from .synthetic import SynthSpec, synthetic_cell


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellforge",
        description="Battery degradation data, features, and prediction models.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the generation seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-sources", help="show the known public data sources")

    p = sub.add_parser("preprocess", help="convert raw CSV files to cell records")
    p.add_argument("source")
    p.add_argument("raw_dir")
    p.add_argument("out_dir")
    p.add_argument("--column-map", default=None,
                   help="JSON column map overriding the packaged one")

    p = sub.add_parser("generate", help="write a synthetic cell corpus")
    p.add_argument("--spec", default=None,
                   help="YAML/JSON file of generator parameters")
    p.add_argument("--out", required=True, help="output directory for cell files")

    p = sub.add_parser("train", help="run a training pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--workspace", default=None,
                   help="checkpoint root (default: config value, then "
                        "CELLFORGE_WORKSPACE, then ./workspace)")

    p = sub.add_parser("evaluate", help="recompute a checkpoint's report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cells", default=None,
                   help="check that this cell directory holds the stored test cells")
    p.add_argument("--out", default=None, help="write the report JSON here")

    p = sub.add_parser("plot", help="export plot points (CSV) and a chart (SVG)")
    p.add_argument("--kind", required=True, choices=PLOT_KINDS)
    p.add_argument("--out", required=True, help="output path; .csv/.svg are derived")
    p.add_argument("--cells", default=None, help="cell directory (line plots)")
    p.add_argument("--cell-id", default=None,
                   help="cell to draw voltage curves for (default: first)")
    p.add_argument("--checkpoint", default=None, help="checkpoint (pred-vs-truth)")

    return parser


def _load_synth_spec(path, seed_override) -> SynthSpec:
    fields = {}
    if path is not None:
        fields = read_file(path, ConfigError, yaml_document)
        if fields is None:
            fields = {}
        if not isinstance(fields, dict):
            raise ConfigError(f"{path}: generator spec must be a mapping")
    if seed_override is not None:
        fields["seed"] = seed_override
    try:
        return SynthSpec(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad generator spec: {exc}") from exc


def _cmd_list_sources(args, say) -> int:
    rows = [
        (s.name, f"{s.cathode_material}/{s.anode_material}",
         f"{s.nominal_capacity_in_Ah:g}",
         f"{s.min_voltage_limit_in_V:g}-{s.max_voltage_limit_in_V:g}", str(s.cell_count),
         " ".join(s.urls))
        for s in list_sources()
    ]
    header = ("source", "chemistry", "capacity_Ah", "voltage_V", "cells", "url")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


def _cmd_preprocess(args, say) -> int:
    written = preprocess_source(args.source, args.raw_dir, args.out_dir,
                                column_map_path=args.column_map)
    say(f"wrote {len(written)} cell file(s) to {args.out_dir}")
    return 0


def _cmd_generate(args, say) -> int:
    spec = _load_synth_spec(args.spec, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index in range(spec.n_cells):  # one cell in memory at a time
        write_cell(synthetic_cell(spec, index), out_dir)
    say(f"wrote {spec.n_cells} synthetic cell(s) to {out_dir}")
    return 0


def _cmd_train(args, say) -> int:
    ckpt = run_train(args.config, workspace=args.workspace)
    report = ckpt.report
    say(f"checkpoint: {ckpt.directory}")
    say(f"test RMSE {report['mean_rmse']:.4f} +/- {report['sd_rmse']:.4f} "
        f"(MAE {report['mean_mae']:.4f}) over {len(report['per_seed'])} seed(s)")
    return 0


def _cmd_evaluate(args, say) -> int:
    cells = load_cells(args.cells) if args.cells else None
    report = run_evaluate(args.checkpoint, cells=cells)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        say(f"report written to {args.out}")
    say(f"test RMSE {report['mean_rmse']:.4f} +/- {report['sd_rmse']:.4f} "
        f"(MAE {report['mean_mae']:.4f})")
    return 0


def _cmd_plot(args, say) -> int:
    cells = load_cells(args.cells) if args.cells else None
    csv_path, svg_path = make_plot(args.kind, args.out, cells=cells,
                                   cell_id=args.cell_id, checkpoint=args.checkpoint)
    say(f"wrote {csv_path} and {svg_path}")
    return 0


_COMMANDS = {
    "list-sources": _cmd_list_sources,
    "preprocess": _cmd_preprocess,
    "generate": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)

    def say(message):
        if not args.quiet:
            print(message)

    try:
        return _COMMANDS[args.command](args, say)
    except CellforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a write the file system refused
        message = f"{exc.filename}: {exc.strerror}" if exc.filename is not None else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
