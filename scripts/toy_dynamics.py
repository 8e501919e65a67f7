#!/usr/bin/env python3
"""Write every closed-form dynamics and conjugate-transform demo as CSV.

Covers the 2D saddle schemes (forward/backward/alternating Euler), the
1D quadratic sigma sweeps, the perfectly preconditioned iteration, and
the numeric-vs-analytic conjugate tables.
"""

import argparse

from pdtomo.cli import DEMOS, demo


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("-o", "--outdir", default="results/toy")
    args = parser.parse_args(argv)
    for name in DEMOS:
        for path in demo(name, f"{args.outdir}/{name}"):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
