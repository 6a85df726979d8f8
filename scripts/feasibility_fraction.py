"""Exactly tally feasible relabeling candidates for a stage request.

Reproduces the reference number for the three-stage blocked split-lot request
on the (6,3) cyclic spread: 197568 of 432180 candidate assignments admit a
collineation, a fraction of about 0.457.  Other spreads and rank splits can be
swept via the command line, as long as the ranks sum to p, for example:

    python scripts/feasibility_fraction.py --p 8 --t 4 --stages A+B+C,D+E,F+G+H
    python scripts/feasibility_fraction.py --p 9 --t 3 --stages A+B+C,D+E+F,G+H+I

The first counts 5373849600 feasible of 14781585000 candidates, the second
1230716928 of 2666653500; each takes a few seconds at most.
"""

import argparse
import sys
import time

from rdcss.collineation import StageRequirement, count_feasible
from rdcss.geometry import parse_effect
from rdcss.spreads import cyclic_spread


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=6, help="factor count")
    parser.add_argument("--t", type=int, default=3, help="spread member dimension")
    parser.add_argument(
        "--stages",
        default="ABC+BDE+CEF,A+B,D",
        help=(
            "comma-separated stages, each a +-joined list of required effect "
            "words; stage ranks must sum to p"
        ),
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spread = cyclic_spread(args.p, args.t)
    requirements = []
    for text in args.stages.split(","):
        effects = tuple(parse_effect(w, args.p) for w in text.split("+"))
        requirements.append(StageRequirement(effects))

    start = time.monotonic()
    tally = count_feasible(spread, requirements)
    elapsed = time.monotonic() - start

    print(f"spread: ({args.p},{args.t}) cyclic, {len(spread.members)} members")
    print(f"stages: {args.stages}")
    print(f"candidates: {tally.total}")
    print(f"feasible:   {tally.feasible}")
    print(f"fraction:   {tally.fraction:.6f}")
    print(f"elapsed:    {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
