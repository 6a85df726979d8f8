"""Monte Carlo check of split-plot effect-estimator variances.

Builds the 2^5 split-plot whose single stage holds A and B between batches
(sigma2 = 1, stage variance 4 by default), then compares the closed-form
variances against empirical ones over a growing number of simulated
replicates.  The whole-plot group <A,B> should settle near 1.03125 and the
remaining effects near 0.03125.
"""

import argparse
import sys

import numpy as np

from rdcss.geometry import parse_effect, span
from rdcss.randomization import Design, VarianceSpec, simulate, variance_groups


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sigma2", type=float, default=1.0)
    parser.add_argument("--stage-var", type=float, default=4.0)
    parser.add_argument(
        "--reps",
        type=int,
        nargs="+",
        default=[100, 1000, 10000],
        help="replicate counts to sweep",
    )
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    design = Design(
        p=5, stages=(span(tuple(parse_effect(w, 5) for w in "AB")),)
    )
    spec = VarianceSpec(
        sigma2=args.sigma2, stage_variances=(args.stage_var,)
    )
    report = variance_groups(design, spec)

    header = ["group", "size", "theoretical"] + [
        f"reps={r}" for r in args.reps
    ]
    rows = []
    sweeps = {}
    for reps in args.reps:
        # The substream seeding makes shorter sweeps prefixes of longer ones.
        sweeps[reps] = simulate(design, spec, reps=reps, seed=args.seed)
    for group in report.groups:
        cols = list(group.masks)
        row = [group.label, str(len(cols)), f"{group.variance:.6f}"]
        for reps in args.reps:
            emp = float(
                np.mean(np.var(sweeps[reps][:, cols], axis=0, ddof=1))
            )
            row.append(f"{emp:.6f}")
        rows.append(row)

    widths = [
        max(len(r[i]) for r in [header] + rows) for i in range(len(header))
    ]
    for r in [header] + rows:
        print("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    for note in report.notes:
        print(f"note: {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
