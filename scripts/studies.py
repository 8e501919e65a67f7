#!/usr/bin/env python3
"""Run one of the notes' studies, each a fixed list of runs, under -o.

  toy           every closed-form dynamics and conjugate-transform demo
  lsq           desk least squares: primal-dual vs GD vs CGLS
  precondition  rho = 0.1: scalar steps vs low-rank ranks K = 1, 5, 25
  tv            8 views: TV-constrained (radius: the phantom's TV) vs lsq

Each run, or each demo's CSVs, goes to a directory named by its label.
A run-based study also writes `summary.csv` as `pdtomo sweep` does: a
failed run is a status row, and if every config is invalid it exits 1
before writing anything.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from pdtomo import cli
from pdtomo.config import ConfigError, ExperimentConfig


def lsq(out: Path, k_max: int) -> list:
    base = ExperimentConfig(
        geometry="desk-oversampled", problem="lsq", rho=0.1, k_max=k_max, record_stride=10
    )
    gd = replace(base, solver="gd", alpha=1.0)
    return [("cppd", base), ("gd", gd), ("cgls", replace(base, solver="cgls"))]


def precondition(out: Path, k_max: int) -> list:
    # the lsq study's primal-dual run, with its eigcache under -o
    base = replace(dict(lsq(out, k_max))["cppd"], cache_dir=str(out / "eigcache"))
    lowrank = [(f"K_{k}", replace(base, plan="lowrank", k_eigs=k)) for k in (1, 5, 25)]
    return [("scalar", replace(base, plan="scalar"))] + lowrank


def tv(out: Path, k_max: int) -> list:
    base = ExperimentConfig(geometry="desk-sparse", k_max=k_max, record_stride=50)
    tvc = replace(base, problem="tvclsq", gamma="phantom-tv", rho=1.0, validate_prox=True)
    plain = replace(base, problem="lsq", rho=0.1, k_max=min(1000, k_max))
    return [("tvclsq", tvc), ("lsq", plain)]


# study -> (its (label, config) runs under an output directory, default k_max)
STUDIES = {"lsq": (lsq, 2000), "precondition": (precondition, 200), "tv": (tv, 4000)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("study", choices=["toy", *STUDIES])
    parser.add_argument("-o", "--outdir", required=True)
    parser.add_argument("--k-max", type=int, help="iterations per run (run-based studies)")
    args = parser.parse_args(argv)
    try:
        if not args.outdir:
            raise ConfigError("outdir must name a directory, got an empty value")
        out = Path(args.outdir)
        if args.study == "toy":
            for name in cli.DEMOS:
                for path in cli.demo(name, out / name):
                    print(f"wrote {path}")
            return 0
        study, k_max = STUDIES[args.study]
        runs = study(out, k_max if args.k_max is None else args.k_max)
        runs = [(label, replace(cfg, outdir=str(out / label))) for label, cfg in runs]
        print(f"{args.study} summary -> {cli.run_all(out, runs, f'{args.study} ')}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
