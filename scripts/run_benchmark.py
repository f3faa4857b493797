"""Headline comparison on the default synthetic benchmark.

Trains the baseline (classification + integrated triplets) and the full
model (baseline + both transfer losses) over several seeds and prints the
per-protocol retrieval quality of each, averaged over the seeds, plus the
image-to-video gap the transfer losses close.

Usage: python scripts/run_benchmark.py [--seeds 0 1 2]
"""

import argparse

import numpy as np

from i2vmatch.evaluation import PROTOCOLS
from i2vmatch.training import benchmark_config, sweep, sweep_table

PRESETS = ["baseline", "full"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args()

    print(f"training baseline and full model on seeds {args.seeds} ...")
    per_seed = [sweep("loss_set", PRESETS, benchmark_config(seed=s)) for s in args.seeds]
    means = [{"axis": "loss_set", "value": preset,
              **{p: {m: float(np.mean([rows[i][p][m] for rows in per_seed]))
                     for m in ("top1", "map")} for p in PROTOCOLS}}
             for i, preset in enumerate(PRESETS)]
    print()
    print(sweep_table(means))
    gap = means[1]["I2V"]["top1"] - means[0]["I2V"]["top1"]
    print(f"\nI2V top-1 gain from the transfer losses: {gap:+.4f}")


if __name__ == "__main__":
    main()
