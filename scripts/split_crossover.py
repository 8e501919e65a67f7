#!/usr/bin/env python3
"""Split crossover: two-thread CSR products against one-piece ones.

Times each preset's X and X^T, and the gradient D and D^T at a few grid
sizes, once in one piece and once split in two row halves across the
calling thread and the helper thread, in alternated blocks.  Writes
`split_crossover.csv` with one row per matrix: its stored entries, the
median one-piece and split milliseconds per product, and the
split/one-piece ratio of every block.  Each row also records the CPUs
the process may use and the OpenBLAS thread setting, since both move
the ratios.  A ratio below 1 means the split pays; `ct.SPLIT_NNZ` sits
where the ratios cross 1.
"""

import argparse
import csv
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from pdtomo import ct

# the preset order runs from the largest X to the smallest at nx = 64
PRESETS = (
    "full",
    "limited",
    "sparse",
    "desk-oversampled",
    "desk-full",
    "desk-limited",
    "desk-sparse",
)
# each timed run of products lasts about this long
RUN_S = 0.05


def products(mat):
    """The one-piece and the split product of `mat`, as ct builds them."""
    floor = ct.SPLIT_NNZ
    try:
        ct.SPLIT_NNZ = mat.nnz + 1
        one_piece = ct._product(mat)
        ct.SPLIT_NNZ = 0
        split = ct._product(mat)
    finally:
        ct.SPLIT_NNZ = floor
    return one_piece, split


def ms_per_product(product, x, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        product(x)
    return 1e3 * (time.perf_counter() - start) / reps


def measure(mat, blocks: int, rng) -> dict:
    """Median ms per product in one piece and split, and the ratio of
    each block; blocks alternate which side runs first."""
    one_piece, split = products(mat)
    x = rng.standard_normal(mat.shape[1])
    for product in (one_piece, split):
        product(x)
    probe = ms_per_product(one_piece, x, 3)
    reps = int(min(2000, max(5, RUN_S / max(probe * 1e-3, 1e-9))))
    one_ms, split_ms = [], []
    for b in range(blocks):
        order = ((one_piece, one_ms), (split, split_ms))
        for product, times in order if b % 2 == 0 else order[::-1]:
            times.append(ms_per_product(product, x, reps))
    return {
        "one_piece_ms": statistics.median(one_ms),
        "split_ms": statistics.median(split_ms),
        "ratios": [s / o for s, o in zip(split_ms, one_ms)],
    }


def matrices(nx: int, gradient_nx: list[int]):
    """(name, CSR matrix) pairs; each preset's pair is built, uncached,
    only when it is reached, so one pair is held at a time."""
    grid = ct.ImageGrid(nx, nx, ct.FOV_CM)
    for preset in PRESETS:
        mat, mat_t = ct._system_matrices.__wrapped__(grid, ct.build_geometry(preset))
        yield f"{preset} X, nx = {nx}", mat
        yield f"{preset} X^T, nx = {nx}", mat_t
    for n in gradient_nx:
        mat, mat_t = ct._gradient_matrices.__wrapped__(n)
        yield f"D, nx = {n}", mat
        yield f"D^T, nx = {n}", mat_t


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("-o", "--outdir", default="results/crossover")
    parser.add_argument("--blocks", type=int, default=7)
    parser.add_argument("--nx", type=int, default=64, help="image grid of every X")
    parser.add_argument(
        "--gradient-nx", default="64,128,256", help="comma-separated grid sizes of D"
    )
    args = parser.parse_args(argv)
    if not args.outdir:  # Path("") would be the working directory
        print("config error: outdir must name a directory, got an empty value", file=sys.stderr)
        return 1
    gradient_nx = [int(v) for v in args.gradient_nx.split(",") if v]
    cpus = ct._allowed_cpus()
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    rng = np.random.default_rng(0)
    rows = []
    for name, mat in matrices(args.nx, gradient_nx):
        res = measure(mat, args.blocks, rng)
        rows.append(
            [name, mat.nnz, f"{res['one_piece_ms']:.4f}", f"{res['split_ms']:.4f}"]
            + [f"{r:.3f}" for r in res["ratios"]]
            + [cpus, blas]
        )
        ratios = " ".join(f"{r:.2f}" for r in res["ratios"])
        print(f"{name:28s} {mat.nnz:>9,d}  {res['one_piece_ms']:8.4f} ms  {ratios}")
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "split_crossover.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["matrix", "entries", "one_piece_ms", "split_ms"]
            + [f"ratio_{b + 1}" for b in range(args.blocks)]
            + ["cpus", "openblas_num_threads"]
        )
        writer.writerows(rows)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
