#!/usr/bin/env python3
"""Run the bundled model zoo on one corpus and print an RMSE table.

By default a synthetic corpus is generated on the fly and split at random;
point --cells at a directory of cell records (e.g. a preprocessed public
dataset) and --split-file at a JSON file {train, test, metadata} over its
cell IDs to benchmark on real data instead. Each model trains over the same
split and seeds; the table reports mean +/- sd of test RMSE across seeds.

Usage:
    python scripts/run_benchmark.py
    python scripts/run_benchmark.py --cells data/processed/MATR --split-file data/splits/matr1.json
    python scripts/run_benchmark.py --sweep-pls  # PLS component sweep instead
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cellforge.battery_data import load_cells  # noqa: E402
from cellforge.pipeline import run_train  # noqa: E402
from cellforge.synthetic import SynthSpec, generate_synthetic  # noqa: E402

MODELS = [
    {"name": "DummyRegressor"},
    {"name": "LinearRegressionRULPredictor"},
    {"name": "RidgeRegressor", "alpha": 0.1},
    {"name": "PCRRegressor", "n_components": 1},
    {"name": "PLSRegressor", "n_components": 1},
    {"name": "RandomForestRegressor", "n_trees": 50},
    {"name": "MLPRegressor", "hidden_dims": [16], "epochs": 300},
]


def base_config(split_file: str | None, seeds: list[int]) -> dict:
    return {
        "train_test_split": {"name": "RandomTrainTestSplitter", "test_fraction": 0.2, "seed": 0}
        if split_file is None
        else {"name": "FixedSplitTrainTestSplitter", "path": split_file},
        "feature": {
            "name": "VarianceModelFeatureExtractor",
            "interp_dims": 1000,
            "critical_cycles": [2, 9, 99],
        },
        "feature_transformation": {"name": "ZScoreDataTransformation"},
        "label": {"name": "RULLabelAnnotator"},
        "label_transformation": {
            "name": "SequentialDataTransformation",
            "transformations": [
                {"name": "LogScaleDataTransformation"},
                {"name": "ZScoreDataTransformation"},
            ],
        },
        "model": {"name": "DummyRegressor"},
        "seeds": seeds,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", default=None, help="cell directory; default synthetic")
    parser.add_argument("--split-file", default=None,
                        help="JSON split file over the cells' IDs; default a random split")
    parser.add_argument("--n-cells", type=int, default=100)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--workspace", default="workspace/benchmark")
    parser.add_argument("--sweep-pls", action="store_true",
                        help="sweep PLS component counts instead of the model zoo")
    args = parser.parse_args()

    if args.cells:
        cells = load_cells(args.cells)
        print(f"loaded {len(cells)} cells from {args.cells}")
    else:
        spec = SynthSpec(
            n_cells=args.n_cells, cycle_life_mean=400.0, cycle_life_std=60.0,
            points_per_cycle=16, seed=0,
        )
        cells = generate_synthetic(spec)
        print(f"generated {len(cells)} synthetic cells")

    config = base_config(args.split_file, args.seeds)
    if args.sweep_pls:
        # single-feature extractor caps PLS at one component; sweep over the
        # six-feature discharge extractor instead
        config["feature"] = {
            "name": "DischargeModelFeatureExtractor",
            "interp_dims": 1000,
            "critical_cycles": [2, 9, 99],
        }
        config["feature_transformation"] = {"name": "ColumnwiseZScoreDataTransformation"}
        runs = [{"name": "PLSRegressor", "n_components": k} for k in (1, 2, 3, 4, 5, 6)]
        label = lambda m: f"PLSRegressor(k={m['n_components']})"  # noqa: E731
    else:
        runs = MODELS
        label = lambda m: m["name"]  # noqa: E731

    print(f"{'model':<34} {'RMSE':>10} {'sd':>8} {'MAE':>10} {'time':>7}")
    for model in runs:
        run_cfg = dict(config)
        run_cfg["model"] = model
        t0 = time.time()
        report = run_train(run_cfg, workspace=args.workspace, cells=cells).report
        print(
            f"{label(model):<34} {report['mean_rmse']:>10.3f} {report['sd_rmse']:>8.3f} "
            f"{report['mean_mae']:>10.3f} {time.time() - t0:>6.1f}s"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
