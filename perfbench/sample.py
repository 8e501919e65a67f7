"""One benchmark sample: a single `pdtomo run` or `pdtomo sweep` call.

Run by `run.py` as a fresh child process, so the projector's in-process
cache starts cold, exactly as it does for a user's invocation:

    python3 perfbench/sample.py <spec.json> <result.json>

The spec names the source tree, the CLI arguments, the sample id and
whether to trace.  Probes wrap public functions of the `pdtomo` modules
from outside; `src/` is not edited.  Untraced, only the two spans that
define `setup_s` and `solve_s` are timed and the operator applies and
eigcache lookups are counted.  Traced, every hook records a span (name,
start, end, parent) in memory; spans and their per-layer aggregates go
into the result file when the sample ends.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from collections import Counter, defaultdict

# Spans timed in every sample: they define setup_s and solve_s.
ALWAYS = "always"
# Counted in every sample, timed only when tracing.
COUNTED = "counted"
# Present only when tracing.
TRACED = "traced"

# (module, attribute, span name, kind).  Each call through the module
# attribute becomes one span.
FUNCTION_HOOKS = [
    ("pdtomo.cli", "run_experiment", "cli.run", ALWAYS),
    ("pdtomo.cli", "run_cppd", "solver.run", ALWAYS),
    ("pdtomo.cli", "generate", "phantom.generate", TRACED),
    ("pdtomo.cli", "assemble_problem", "cli.data", TRACED),
    ("pdtomo.cli", "build_plan", "cli.plan", TRACED),
    ("pdtomo.cli", "projector", "ct.projector", TRACED),
    ("pdtomo.cli", "spectral_norm", "spectral.norm", TRACED),
    ("pdtomo.cli", "cached_eigenpairs", "fileio.eigcache", COUNTED),
    ("pdtomo.cli", "leading_eigenpairs", "spectral.eig", COUNTED),
    ("pdtomo.cli", "load_eigenset", "fileio.eig_load", COUNTED),
    ("pdtomo.cli", "save_eigenset", "fileio.eig_save", COUNTED),
    ("pdtomo.cli", "save_raw", "fileio.write", TRACED),
    ("pdtomo.cli", "save_pgm", "fileio.write", TRACED),
    ("pdtomo.cli", "save_sinogram", "fileio.write", TRACED),
    ("pdtomo.spectral", "sigma_for_T", "spectral.sigmaT", TRACED),
    ("pdtomo.solver", "prox_tvc_conjugate", "prox.l1", TRACED),
    ("pdtomo.solver", "prox_lsq_conjugate", "prox.lsq", TRACED),
    ("pdtomo.prox", "project_l1_ball", "prox.l1.project", TRACED),
]

# Factories whose returned LinearMap gets its forward and adjoint
# wrapped: (module, attribute, forward span, adjoint span).
MAP_HOOKS = [
    ("pdtomo.cli", "projector", "ct.X", "ct.XT"),
    ("pdtomo.cli", "gradient", "ct.D", "ct.DT"),
    ("pdtomo.spectral", "build_lowrank_T", "linop.T", "linop.T"),
    ("pdtomo.solver", "stack", "linop.stack", "linop.stackT"),
]

# The operator applications `operator_applies` counts.
APPLY_SPANS = ("ct.X", "ct.XT", "ct.D", "ct.DT")

# Spans whose per-call durations are kept for percentiles.
PER_CALL = ("ct.X", "ct.XT", "prox.l1")


class Probe:
    """Spans and counts of one sample, kept in memory."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list = []  # (name, start_ns, end_ns, parent index)
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, kind: str):
        if kind == ALWAYS or self.trace:
            return self._span(name, fn)
        if kind == COUNTED:
            return self._count(name, fn)
        return fn

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, parent)

        return spanned

    def wrap_map(self, factory, fwd_name: str, adj_name: str):
        """Wrap a LinearMap factory so each returned map is probed."""

        def probed_factory(*args, **kwargs):
            map_ = factory(*args, **kwargs)
            map_._forward = self.wrap(fwd_name, map_._forward, COUNTED)
            map_._adjoint = self.wrap(adj_name, map_._adjoint, COUNTED)
            return map_

        return probed_factory

    def install(self) -> None:
        for module, attr, fwd, adj in MAP_HOOKS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap_map(getattr(mod, attr), fwd, adj))
        for module, attr, name, kind in FUNCTION_HOOKS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), kind))
        # metric emission and the CSV writer are methods, wrapped on the class
        cls = importlib.import_module("pdtomo.solver").ConvergenceRecord
        cls.append = self.wrap("solver.record", cls.append, TRACED)
        cls.to_csv = self.wrap("fileio.write", cls.to_csv, TRACED)

    def all_counts(self) -> Counter:
        """Call counts per name: counted calls plus recorded spans."""
        out = Counter(self.counts)
        out.update(span[0] for span in self.spans)
        return out

    def aggregate(self) -> dict:
        """Per-name totals, self times and per-call durations, in seconds."""
        total: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        per_call: dict = defaultdict(list)
        spectral_ancestor = [False] * len(self.spans)
        eig_ancestor = [False] * len(self.spans)
        solver_ancestor = [False] * len(self.spans)
        nested = Counter()
        for idx, (name, start, end, parent) in enumerate(self.spans):
            dur = (end - start) * 1e-9
            total[name] += dur
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
            if name in PER_CALL:
                per_call[name].append(dur)
            up = parent >= 0
            spectral_ancestor[idx] = name.startswith("spectral.") or (
                up and spectral_ancestor[parent]
            )
            eig_ancestor[idx] = name == "spectral.eig" or (up and eig_ancestor[parent])
            solver_ancestor[idx] = name == "solver.run" or (up and solver_ancestor[parent])
            if name in APPLY_SPANS:
                if spectral_ancestor[idx]:
                    nested["spectral"] += 1
                if eig_ancestor[idx]:
                    nested["eig"] += 1
                if name == "ct.XT" and solver_ancestor[idx]:
                    nested["solver_XT"] += 1
        return {
            "total_s": dict(total),
            "self_s": dict(self_s),
            "per_call_s": dict(per_call),
            "applies_in_spectral": nested["spectral"],
            "applies_in_eig": nested["eig"],
            "solver_XT": nested["solver_XT"],
        }


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from pdtomo import cli

    probe = Probe(bool(spec["trace"]))
    probe.install()
    start = time.perf_counter()
    code = cli.main(spec["argv"])
    wall_s = time.perf_counter() - start

    spans = probe.spans
    runs = [s for s in spans if s[0] == "cli.run"]
    solves = [s for s in spans if s[0] == "solver.run"]
    if len(runs) != len(solves):
        raise RuntimeError(f"{len(runs)} runs but {len(solves)} solver calls")
    counts = probe.all_counts()
    result = {
        "sample": spec["sample"],
        "trace": spec["trace"],
        "exit_code": code,
        "wall_s": wall_s,
        # config to ready step plan, per sweep value
        "setup_s": [(sol[1] - run[1]) * 1e-9 for run, sol in zip(runs, solves)],
        "solve_s": [(sol[2] - sol[1]) * 1e-9 for sol in solves],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": dict(counts),
        "operator_applies": sum(counts[name] for name in APPLY_SPANS),
    }
    if spec["trace"]:
        result["layers"] = probe.aggregate()
        result["spans"] = [
            [name, start, end, parent, spec["sample"]]
            for name, start, end, parent in spans
        ]
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
