"""Sweep accuracy targets and record the fitted cost slopes.

Runs the multilevel estimator across a ladder of accuracy targets for two
stock setups, a ridged quadratic and a flattened power potential, writes one
CSV per setup, and prints the fitted slope of log cost against log accuracy.
"""

import argparse
import json
import os
import sys

from mlgibbs.cli import main as mlgibbs_main

PRESETS = {
    "penalized": {
        "method": "penalized",
        "potential": {"name": "quadratic", "dim": 1},
        "sigma": 1.0,
        "f": "coord:0",
    },
    "weak_ii": {
        "method": "weak_ii",
        "potential": {"name": "power", "dim": 1, "p": 0.75},
        "sigma": 1.0,
        "f": "coord:0",
    },
}


def run_one(name, preset, args):
    """Write the config, invoke the sweep command, read back the slope."""
    config = dict(preset)
    config["epsilons"] = list(args.epsilons)
    config["replicates"] = args.replicates
    config["seed"] = args.seed
    config_path = os.path.join(args.out_dir, f"sweep_{name}.json")
    csv_path = os.path.join(args.out_dir, f"sweep_{name}.csv")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    code = mlgibbs_main(["sweep", "--config", config_path, "--out", csv_path])
    if code != 0:
        return code, None
    with open(csv_path) as fh:
        last = fh.read().strip().splitlines()[-1]
    prefix = "# fitted_cost_slope="
    slope = float(last[len(prefix):]) if last.startswith(prefix) else float("nan")
    return 0, slope


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results")
    parser.add_argument(
        "--epsilons", type=float, nargs="+", default=[0.4, 0.2, 0.1],
        help="accuracy ladder, at least three values",
    )
    parser.add_argument("--replicates", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--setups", nargs="+", choices=sorted(PRESETS), default=sorted(PRESETS),
    )
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)

    worst = 0
    for name in args.setups:
        code, slope = run_one(name, PRESETS[name], args)
        if code != 0:
            print(f"{name}: sweep failed with exit code {code}", file=sys.stderr)
            worst = max(worst, code)
        else:
            print(
                f"{name}: fitted cost slope {slope:+.3f} "
                f"(rows in {args.out_dir}/sweep_{name}.csv)"
            )
    return worst


if __name__ == "__main__":
    sys.exit(main())
