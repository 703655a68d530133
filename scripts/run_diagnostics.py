"""Run the empirical diagnostic suites and summarize pass/fail."""

import argparse
import os
import sys

from mlgibbs import diag_suites
from mlgibbs.cli import main as mlgibbs_main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out-dir",
        default=None,
        help="write each suite's report to OUT_DIR/<suite>.txt",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=sorted(diag_suites.SUITES),
        default=None,
        help="run a subset of the suites",
    )
    args = parser.parse_args(argv)

    os.environ["MLGIBBS_SEED"] = str(args.seed)
    names = args.only or sorted(diag_suites.SUITES)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    failures = []
    for name in names:
        argv_one = ["diag", name]
        if args.out_dir:
            argv_one += ["--out", os.path.join(args.out_dir, f"{name}.txt")]
        code = mlgibbs_main(argv_one)
        print(f"=> {name}: {'pass' if code == 0 else 'FAIL'}")
        if code != 0:
            failures.append(name)
    if failures:
        print("failing suites: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
