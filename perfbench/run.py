"""pdtomo benchmark: whole `pdtomo run` / `pdtomo sweep` invocations.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  A sample is one CLI invocation as a user
pays for it: a fresh child process (`sample.py`), so the projector cache
starts cold, and a fresh eigcache directory.  Samples run one at a time
until the next one, if as slow as the slowest so far, would overrun
`--seconds`.  The seed reaches the program only as the config `seed`
(phantom and power-method start vectors).

Every sample's outputs are checked: the `convergence.csv` header and
row count, the final image RMSE against a per-workload limit, byte
identity of `convergence.csv` and `final_image.raw` across the samples
of the run, and, on the low-rank sweep, one eigcache miss and three
hits.  A sample that crashes, exits non-zero or fails a check counts as
failed.

`--trace 0` reports the end-to-end metrics (medians over the samples).
`--trace 1` alternates untraced and traced samples, reports the
per-layer metrics of the traced ones and the tracing overhead, and
writes the spans.  The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with `--workload all` it
sums the workloads' `attempted` and `failed` and names each metric
`<workload>/<metric>`.  The lines before it give every metric with its
unit and sample count, and the machine record.
Full results and spans go to `.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Documented leading columns of convergence.csv (README, "Output files").
CSV_HEAD = ["iter", "r_sigma", "r_tau", "image_rmse", "data_rmse", "grad_mag", "cpd_gap", "beta"]

# A sample that would end past the deadline is not started; a stuck one
# is killed after this long, so a run of up to 60 s ends within 180 s.
SAMPLE_TIMEOUT_S = 90.0


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape; `settings` are `--set` config values."""

    name: str
    command: str  # "run" or "sweep"
    settings: dict
    rmse_limit: float  # largest final image RMSE a correct run reaches
    sweep: tuple[str, tuple[str, ...]] | None = None

    @property
    def n_runs(self) -> int:
        return 1 if self.sweep is None else len(self.sweep[1])

    def run_dirs(self, out: Path) -> list[Path]:
        """Directories holding one run's artifacts each."""
        if self.sweep is None:
            return [out]
        param, values = self.sweep
        return [out / f"{param}_{float(v)!r}" for v in values]


WORKLOADS = {
    # Precondition-study traffic: the deflated power run for 25
    # eigenpairs and sigma_for_T dominate; the first sweep value
    # computes and caches the eigenpairs, the other three read them.
    "lowrank-sweep": Workload(
        name="lowrank-sweep",
        command="sweep",
        settings={
            "geometry": "desk-oversampled",
            "problem": "lsq",
            "plan": "lowrank",
            "k_eigs": 25,
            "k_max": 300,
            "record_stride": 10,
            "workers": 1,
        },
        rmse_limit=2e-3,
        sweep=("rho", ("0.05", "0.1", "0.2", "1.0")),
    ),
    # README quick-start / TV-constrained study traffic: small vectors,
    # so the bisection l1 dual prox and per-call overheads dominate.
    "tv-sparse": Workload(
        name="tv-sparse",
        command="run",
        settings={
            "geometry": "desk-sparse",
            "problem": "tvclsq",
            "gamma": "phantom-tv",
            "rho": 1.0,
            "plan": "scalar",
            "k_max": 2000,
            "record_stride": 50,
        },
        rmse_limit=1e-4,
    ),
    # Full-scale least squares at the default record_stride=1: memory-bound
    # X / X^T applies, the large Siddon build, and grad_mag's extra X^T.
    # Not listed in BENCHMARK.json: two workloads fit 60 s runs in the
    # benchmark's time budget, three only 40 s ones, which were too
    # noisy.  Run it by name or with `--workload all`.
    "lsq-full": Workload(
        name="lsq-full",
        command="run",
        settings={
            "geometry": "full",
            "problem": "lsq",
            "rho": 0.1,
            "plan": "scalar",
            "k_max": 100,
            "record_stride": 1,
        },
        rmse_limit=1.2e-2,
    ),
}

# name -> unit, in the order printed
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "iters_per_s": "1/s",
    "peak_rss_mb": "MB",
    "operator_applies": "count",
}

PER_LAYER = {
    "ct.projector_s": "s",
    "ct.X.calls": "count",
    "ct.XT.calls": "count",
    "ct.X.ms_p50": "ms",
    "ct.X.ms_p99": "ms",
    "ct.XT.ms_p50": "ms",
    "ct.XT.ms_p99": "ms",
    "ct.D.calls": "count",
    "ct.DT.calls": "count",
    "ct.D.s": "s",
    "linop.stack.self_s": "s",
    "linop.T.calls": "count",
    "linop.T.s": "s",
    "spectral.eig_s": "s",
    "spectral.eig_applies": "count",
    "spectral.sigmaT_s": "s",
    "spectral.sigmaT_calls": "count",
    "spectral.norm_s": "s",
    "spectral.norm_calls": "count",
    "spectral.applies_share": "ratio",
    "prox.l1.calls": "count",
    "prox.l1.s": "s",
    "prox.l1.us_p50": "us",
    "prox.l1.us_p99": "us",
    "prox.l1.project_ratio": "ratio",
    "prox.lsq.s": "s",
    "solver.iter_ms": "ms",
    "solver.self_s": "s",
    "solver.XT_per_iter": "ratio",
    "solver.records": "count",
    "solver.final_rmse": "1/cm",
    "fileio.eigcache_hit_ratio": "ratio",
    "fileio.eigcache_s": "s",
    "fileio.write_s": "s",
    "phantom.generate_s": "s",
    "cli.data_s": "s",
    "cli.plan_s": "s",
    "trace.overhead": "ratio",
}


# --------------------------------------------------------------- samples


def sample_argv(wl: Workload, seed: int, sample_dir: Path) -> list[str]:
    argv = [wl.command]
    cfg = dict(wl.settings)
    cfg["seed"] = seed
    cfg["cache_dir"] = str(sample_dir / "eigcache")
    for key, value in cfg.items():
        argv += ["--set", f"{key}={value}"]
    argv += ["-o", str(sample_dir / "out")]
    if wl.sweep is not None:
        argv += ["--param", wl.sweep[0], "--values", ",".join(wl.sweep[1])]
    return argv


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


def run_sample(wl: Workload, seed: int, sample_id: int, trace: bool, sample_dir: Path) -> dict:
    """Run one invocation in a fresh process; returns its result record.

    A crash, timeout or non-zero exit gives a record with an `error`.
    The artifacts stay in `sample_dir` for the checks.
    """
    if sample_dir.exists():
        shutil.rmtree(sample_dir)
    sample_dir.mkdir(parents=True)
    spec = {
        "src": str(SRC),
        "argv": sample_argv(wl, seed, sample_dir),
        "sample": sample_id,
        "trace": int(trace),
    }
    spec_path = sample_dir / "spec.json"
    result_path = sample_dir / "result.json"
    spec_path.write_text(json.dumps(spec))
    cmd = [sys.executable, str(HERE / "sample.py"), str(spec_path), str(result_path)]
    with open(sample_dir / "stdout.log", "w") as out, open(sample_dir / "stderr.log", "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"sample": sample_id, "trace": int(trace),
                    "error": f"timed out after {SAMPLE_TIMEOUT_S} s"}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not result_path.exists():
        tail = (sample_dir / "stderr.log").read_text().strip().splitlines()[-3:]
        return {"sample": sample_id, "trace": int(trace),
                "error": f"exit code {code}: " + " | ".join(tail)}
    result = json.loads(result_path.read_text())
    if result["exit_code"] != 0:
        result["error"] = f"pdtomo exit code {result['exit_code']}"
    return result


def expected_rows(k_max: int, stride: int) -> int:
    return 1 + k_max // stride + (1 if k_max % stride else 0)


def check_outputs(wl: Workload, sample_dir: Path, result: dict) -> tuple[list[str], dict, float]:
    """Output checks of one sample.

    Returns the problems found, the artifact digests (for the
    byte-identity check across samples) and the final image RMSE (the
    largest over a sweep's values).
    """
    problems: list[str] = []
    digests: dict = {}
    rmses: list[float] = []
    cfg = wl.settings
    k_max = cfg["k_max"]
    stride = cfg["record_stride"]
    n_pixels = cfg.get("nx", 64) ** 2
    for run_dir in wl.run_dirs(sample_dir / "out"):
        csv_path = run_dir / "convergence.csv"
        raw_path = run_dir / "final_image.raw"
        if not csv_path.exists() or not raw_path.exists():
            problems.append(f"{run_dir.name}: missing artifacts")
            continue
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",") if lines else []
        if header[: len(CSV_HEAD)] != CSV_HEAD:
            problems.append(f"{run_dir.name}: bad convergence.csv header {header}")
            continue
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != expected_rows(k_max, stride):
            problems.append(
                f"{run_dir.name}: {len(rows)} rows, expected {expected_rows(k_max, stride)}"
            )
            continue
        if any(len(row) != len(header) for row in rows) or rows[-1][0] != str(k_max):
            problems.append(f"{run_dir.name}: malformed convergence.csv rows")
            continue
        try:
            rmse = float(rows[-1][CSV_HEAD.index("image_rmse")])
        except ValueError:
            problems.append(f"{run_dir.name}: unreadable final image_rmse")
            continue
        if not rmse <= wl.rmse_limit:
            problems.append(
                f"{run_dir.name}: final image RMSE {rmse:.3e} above {wl.rmse_limit:.1e}"
            )
        rmses.append(rmse)
        if raw_path.stat().st_size != 8 * n_pixels:
            problems.append(f"{run_dir.name}: final_image.raw has the wrong size")
        for path in (csv_path, raw_path):
            digests[f"{run_dir.name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    if cfg.get("plan") == "lowrank":
        counts = result.get("counts", {})
        misses = counts.get("fileio.eig_save", 0)
        hits = counts.get("fileio.eig_load", 0)
        files = list((sample_dir / "eigcache").glob("*"))
        want = wl.n_runs - 1
        if misses != 1 or hits != want or len(files) != 1:
            problems.append(
                f"eigcache: {misses} misses, {hits} hits, {len(files)} files; "
                f"expected 1, {want}, 1"
            )
    return problems, digests, max(rmses, default=float("nan"))


def assess(wl: Workload, sample_dir: Path, result: dict, reference: dict | None) -> dict | None:
    """Record a sample's `problems` (empty when it passed) and its derived
    readings; returns the run's reference artifact digests.

    The first passing sample of a run sets the reference; every later one
    must reproduce it byte for byte, since all share one seed.
    """
    if "error" in result:
        result["problems"] = [result.pop("error")]
        return reference
    problems, digests, final_rmse = check_outputs(wl, sample_dir, result)
    if not problems:
        if reference is None:
            reference = digests
        elif digests != reference:
            problems.append("artifacts differ from the run's first sample")
    result["problems"] = problems
    result["final_rmse"] = final_rmse
    result["iterations"] = wl.n_runs * wl.settings["k_max"]
    return reference


# --------------------------------------------------------------- metrics


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return float(ordered[rank - 1])


def end_to_end(sample: dict) -> dict:
    solve = sum(sample["solve_s"])
    iters = sample["iterations"]
    return {
        "wall_s": sample["wall_s"],
        "setup_s": sum(sample["setup_s"]),
        "solve_s": solve,
        "iters_per_s": iters / solve,
        "peak_rss_mb": sample["peak_rss_mb"],
        "operator_applies": sample["operator_applies"],
    }


def per_layer(sample: dict) -> dict:
    """Per-layer readings of one traced sample (per-call percentiles are
    pooled over samples separately)."""
    lay = sample["layers"]
    tot, own, counts = lay["total_s"], lay["self_s"], sample["counts"]
    iters = sample["iterations"]

    def t(name):
        return tot.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    lookups = c("fileio.eigcache")
    return {
        "ct.projector_s": t("ct.projector"),
        "ct.X.calls": c("ct.X"),
        "ct.XT.calls": c("ct.XT"),
        "ct.D.calls": c("ct.D"),
        "ct.DT.calls": c("ct.DT"),
        "ct.D.s": t("ct.D") + t("ct.DT"),
        "linop.stack.self_s": own.get("linop.stack", 0.0) + own.get("linop.stackT", 0.0),
        "linop.T.calls": c("linop.T"),
        "linop.T.s": t("linop.T"),
        "spectral.eig_s": t("spectral.eig"),
        "spectral.eig_applies": lay["applies_in_eig"],
        "spectral.sigmaT_s": t("spectral.sigmaT"),
        "spectral.sigmaT_calls": c("spectral.sigmaT"),
        "spectral.norm_s": t("spectral.norm"),
        "spectral.norm_calls": c("spectral.norm"),
        "spectral.applies_share": lay["applies_in_spectral"] / sample["operator_applies"],
        "prox.l1.calls": c("prox.l1"),
        "prox.l1.s": t("prox.l1"),
        "prox.l1.project_ratio": c("prox.l1.project") / c("prox.l1") if c("prox.l1") else 0.0,
        "prox.lsq.s": t("prox.lsq"),
        "solver.iter_ms": 1e3 * t("solver.run") / iters,
        "solver.self_s": own.get("solver.run", 0.0),
        "solver.XT_per_iter": lay["solver_XT"] / iters,
        "solver.records": c("solver.record"),
        "solver.final_rmse": sample["final_rmse"],
        "fileio.eigcache_hit_ratio": c("fileio.eig_load") / lookups if lookups else 0.0,
        "fileio.eigcache_s": t("fileio.eig_load") + t("fileio.eig_save"),
        "fileio.write_s": t("fileio.write"),
        "phantom.generate_s": t("phantom.generate"),
        "cli.data_s": own.get("cli.data", 0.0),
        "cli.plan_s": own.get("cli.plan", 0.0),
    }


def count_signature(sample: dict) -> dict:
    """The exact counts a traced sample must repeat."""
    keys = [k for k, unit in PER_LAYER.items() if unit == "count"]
    sig = {k: sample["per_layer"][k] for k in keys}
    sig["operator_applies"] = sample["operator_applies"]
    return sig


# ---------------------------------------------------------- environment


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment() -> dict:
    """Machine and software record; the host is shared, so load is kept."""
    import numpy
    import scipy

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.exists() else []:
        level = _read(str(idx / "level"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(str(idx / "size"))
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception as exc:  # the config layout differs across numpy versions
        blas = {"error": repr(exc)}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "loadavg_start": list(os.getloadavg()),
    }


# ------------------------------------------------------------------ runs


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Sample until the next sample, if as slow as the slowest so far,
    would overrun `seconds`.

    Returns the result record (printed as the last line) and the
    human-readable report lines.
    """
    env = environment()
    tag = f"{wl.name}_seed{seed}_trace{int(trace)}"
    run_dir = WORK / tag
    samples: list[dict] = []
    durations: list[float] = []
    reference: dict | None = None
    start = time.monotonic()
    while True:
        sample_id = len(samples)
        traced = trace and sample_id % 2 == 1
        began = time.monotonic()
        sample_dir = run_dir / f"sample{sample_id}"
        result = run_sample(wl, seed, sample_id, traced, sample_dir)
        durations.append(time.monotonic() - began)
        reference = assess(wl, sample_dir, result, reference)
        shutil.rmtree(sample_dir, ignore_errors=True)
        samples.append(result)
        enough = len(samples) >= 2
        if enough and time.monotonic() - start + max(durations) > seconds:
            break
    shutil.rmtree(run_dir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    good = [s for s in samples if not s["problems"]]
    failed = len(samples) - len(good)
    untraced = [s for s in good if not s["trace"]]
    traced = [s for s in good if s["trace"]]
    lines = [f"env {json.dumps(env)}"]
    for s in samples:
        for problem in s["problems"]:
            lines.append(f"FAILED {wl.name} sample {s['sample']}: {problem}")
    correct = failed == 0 and bool(untraced)
    if len({s["operator_applies"] for s in good}) > 1:
        correct = False
        lines.append(f"FAILED {wl.name}: operator_applies differ between samples of one seed")
    metrics: dict = {}
    report: dict = {}
    if not trace:
        rows = [end_to_end(s) for s in untraced]
        for name, unit in END_TO_END.items():
            vals = [r[name] for r in rows]
            value = median(vals)
            metrics[name] = {"value": int(value) if unit == "count" else value, "unit": unit}
            lines.append(_line(wl.name, name, vals, unit))
        lines.append(f"{wl.name} fail_ratio = {failed}/{len(samples)} (failed/attempted samples)")
    else:
        correct = correct and bool(traced)
        for s in traced:
            s["per_layer"] = per_layer(s)
        signatures = [count_signature(s) for s in traced]
        if any(sig != signatures[0] for sig in signatures):
            correct = False
            lines.append(f"FAILED {wl.name}: counts differ between samples of one seed")
        pooled = {name: [] for name in ("ct.X", "ct.XT", "prox.l1")}
        for s in traced:
            for name in pooled:
                pooled[name] += s["layers"]["per_call_s"].get(name, [])
        derived = {
            "ct.X.ms_p50": 1e3 * median(pooled["ct.X"]),
            "ct.X.ms_p99": 1e3 * percentile(pooled["ct.X"], 99),
            "ct.XT.ms_p50": 1e3 * median(pooled["ct.XT"]),
            "ct.XT.ms_p99": 1e3 * percentile(pooled["ct.XT"], 99),
            "prox.l1.us_p50": 1e6 * median(pooled["prox.l1"]),
            "prox.l1.us_p99": 1e6 * percentile(pooled["prox.l1"], 99),
        }
        derived["trace.overhead"] = 0.0
        if traced and untraced:
            derived["trace.overhead"] = median([s["wall_s"] for s in traced]) / median(
                [s["wall_s"] for s in untraced]
            )
        for name, unit in PER_LAYER.items():
            if name in derived:
                value = derived[name]
            else:
                value = median([s["per_layer"][name] for s in traced])
            if unit == "count":
                value = int(value)
            metrics[name] = {"value": value, "unit": unit}
            n = len(traced) + (len(untraced) if name == "trace.overhead" else 0)
            lines.append(f"{wl.name} {name} = {value:.6g} {unit} (n={n})")
        report = layer_table(traced)
        lines += [f"{wl.name} layer {row}" for row in report["lines"]]
        write_spans(WORK / "results" / f"{tag}.spans.jsonl", traced)
    record = {"correct": correct, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    full = dict(record, workload=wl.name, seed=seed, seconds=seconds, trace=int(trace),
                env=env, layer_table=report.get("rows", {}),
                samples=[{k: v for k, v in s.items() if k not in ("spans", "layers")}
                         for s in samples])
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(full, indent=1))
    return record, lines


def _line(workload: str, name: str, vals: list[float], unit: str) -> str:
    if not vals:
        return f"{workload} {name} = n/a {unit} (n=0)"
    return (f"{workload} {name} = {median(vals):.6g} {unit} "
            f"(median of n={len(vals)}; min {min(vals):.6g}, max {max(vals):.6g})")


def layer_table(traced: list[dict]) -> dict:
    """Median calls, total and self seconds per span name."""
    names = sorted({n for s in traced for n in s["layers"]["total_s"]})
    rows = {}
    lines = [f"{'span':<18} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
    for name in names:
        calls = median([s["counts"].get(name, 0) for s in traced])
        total = median([s["layers"]["total_s"].get(name, 0.0) for s in traced])
        own = median([s["layers"]["self_s"].get(name, 0.0) for s in traced])
        rows[name] = {"calls": calls, "total_s": total, "self_s": own}
        lines.append(f"{name:<18} {calls:>8.0f} {total:>10.4f} {own:>10.4f}")
    return {"rows": rows, "lines": lines}


def write_spans(path: Path, traced: list[dict]) -> None:
    """All spans of the run, one JSON array per line:
    [name, start_ns, end_ns, parent index, sample id]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in traced:
            for span in s.get("spans", []):
                fh.write(json.dumps(span) + "\n")


def combine(records: dict) -> dict:
    """The result line: one workload's record, or for several, their sums
    with each metric named `<workload>/<metric>`."""
    if len(records) == 1:
        return next(iter(records.values()))
    return {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {f"{name}/{metric}": m for name, r in records.items()
                    for metric, m in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # when terminated, still stop and reap the running sample process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "pdtomo" / "cli.py").is_file():
        print(f"error: no pdtomo source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    for name in names:
        records[name], lines = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                            bool(args.trace))
        print("\n".join(lines), flush=True)
    print(json.dumps(combine(records)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
