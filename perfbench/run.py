"""elm-mimo benchmark: the paper's experiments timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of
the checkout this file sits in, and only the public API is called: one
experiment call (config to finished CSV) after another, closed loop, in
this process.  The seed becomes the config's ``master_seed``.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` makes a warm-up, one untraced and two traced
calls (plus a parallel call when the workload uses the process pool) and
reports the per-layer metrics.  Every call's CSV is checked; the last line printed is
one JSON object with the keys correct, attempted, failed and metrics.
Outputs, spans and results go to ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from csvcheck import check_csv, expected_rows
from envrecord import environment, numpy_blas_threads
from spans import Recorder, installed, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7

# Runs in a fresh interpreter: import the stack and build the config.
PROBE = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import numpy, scipy, elm_mimo
from workloads import WORKLOADS
cfg = WORKLOADS[{name!r}].config({seed!r})
print("ready", flush=True)
"""


def import_program():
    """Import elm_mimo from this checkout's sources, never from elsewhere."""
    package = SRC / "elm_mimo"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {package}")
    sys.path.insert(0, str(SRC))
    import elm_mimo
    if Path(elm_mimo.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: elm_mimo was imported from {elm_mimo.__file__}")


def setup_seconds(name, seed):
    """Interpreter start until numpy, scipy and elm_mimo are imported and
    the config is built, in a fresh process."""
    code = PROBE.format(src=str(SRC), here=str(HERE), name=name, seed=seed)
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def peak_rss_mb():
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "elm_mimo").rglob("*.py")) + sorted(
            HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Calls:
    """Runs experiment calls of one workload and checks every output."""

    def __init__(self, name, seed):
        from workloads import DEFAULT_SEED, WORKLOADS
        self.name, self.seed = name, seed
        self.workload = WORKLOADS[name]
        self.cfg = self.workload.config(seed)
        self.symbols = sum(
            expected_rows(self.workload.experiment, self.cfg).values())
        self.reference = None
        if seed == DEFAULT_SEED:
            refs = json.loads((HERE / "references.json").read_text())
            # a missing reference fails the check rather than skipping it
            self.reference = refs.get(name, "none recorded")
        self.out = OUT / f"{name}-seed{seed}.csv"
        self.attempted = self.failed = 0
        self.first = None

    def run(self, n_jobs=None, recorder=None, cfg=None):
        """One checked call; returns (wall seconds, CSV bytes or None).
        A `cfg` other than the workload's is checked for structure only."""
        from workloads import run_experiment
        main = cfg is None
        cfg = self.cfg if main else cfg
        self.attempted += 1
        self.out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            run_experiment(self.workload, cfg, self.out, n_jobs, recorder)
        except Exception:
            wall = time.perf_counter() - t0
            traceback.print_exc()
            self.failed += 1
            return wall, None
        wall = time.perf_counter() - t0
        data = self.out.read_bytes()
        problems = check_csv(data, self.workload.experiment, cfg,
                             self.reference if main else None)
        if main and self.first is None:
            self.first = data
        elif main and data != self.first:
            problems.append("CSV differs from this run's first call")
        self.fail_if(problems)
        return wall, data

    def fail_if(self, problems):
        for p in problems:
            print(f"perfbench: {self.name} seed {self.seed}: {p}",
                  file=sys.stderr)
        if problems:
            self.failed += 1


def end_to_end(calls, seconds):
    # Probes first: a child started later would inherit this process's
    # peak RSS at fork time and inflate peak_rss_mb.
    setup = [setup_seconds(calls.name, calls.seed)
             for _ in range(SETUP_PROBES)]
    # a small call of the same experiment first, so that one-time costs
    # (BLAS thread start-up, first-touch allocations) stay out of wall_s
    calls.run(cfg=calls.workload.warmup_config(calls.seed))
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(calls.run()[0])
    print(f"perfbench: walls {[round(w, 4) for w in walls]}",
          file=sys.stderr)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "symbols_per_s": (statistics.median(calls.symbols / w
                                            for w in walls), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(calls, env):
    from workloads import COUNTS, SELF_TIMES, trace_targets
    n_jobs = calls.workload.n_jobs
    calls.run(cfg=calls.workload.warmup_config(calls.seed))
    wall, data = calls.run()
    efficiency = 1.0
    if n_jobs > 1:
        serial, serial_data = calls.run(n_jobs=1)
        efficiency = serial / (n_jobs * wall)
        if data is not None and serial_data != data:
            calls.fail_if([f"CSV with n_jobs={n_jobs} differs from n_jobs=1"])
        wall = serial
    traced = []
    for i in range(2):
        rec = Recorder()
        with installed(rec, trace_targets()):
            calls.run(n_jobs=1, recorder=rec)
        rec.dump(OUT / f"spans-{calls.name}-seed{calls.seed}-{i}.json")
        selfs = self_times(rec.spans)
        root = next(s for s in rec.spans if s[0] == "harness")
        if abs(sum(selfs.values()) - (root[2] - root[1])) > 1e-6:
            calls.fail_if(["self times do not add up to the traced wall"])
        traced.append((root[2] - root[1], selfs, rec.counts))
    counts = {k: traced[0][2].get(k, 0) for k in COUNTS}
    if any(t[2] != traced[0][2] for t in traced):
        calls.fail_if(["layer counts differ between two traced calls"])
    record = OUT / f"counts-{calls.name}-seed{calls.seed}-{source_digest()}.json"
    if record.exists() and json.loads(record.read_text()) != traced[0][2]:
        calls.fail_if([f"layer counts differ from an earlier run ({record.name})"])
    record.write_text(json.dumps(traced[0][2], sort_keys=True))

    def mean(xs):
        return sum(xs) / len(xs)
    traced_wall = mean([t[0] for t in traced])
    metrics = {f"{n}.self_s": (mean([t[1].get(n, 0.0) for t in traced]), "s")
               for n in SELF_TIMES}
    metrics.update({k: (v, "count") for k, v in counts.items()})
    metrics.update({
        "harness.parallel_efficiency": (efficiency, "1"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - wall, "s"),
        "env.nproc": (env["nproc"], "count"),
        "env.blas_threads": (numpy_blas_threads(env), "count"),
    })
    return metrics


def print_table(name, result):
    for k, m in result["metrics"].items():
        print(f"{name:18s} {k:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{name:18s} {'failed_frac':40s} "
          f"{result['failed'] / result['attempted']:14.6g} 1")


def run_one(name, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    env = environment()
    calls = Calls(name, seed)
    if trace:
        metrics = per_layer(calls, env)
    else:
        metrics = end_to_end(calls, seconds)
    result = {
        "correct": calls.failed == 0,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"environment": env, "workload": name, "seed": seed,
                    "result": result}, indent=1))
    print(json.dumps({"environment": env}))
    print_table(name, result)
    print(json.dumps(result))


def run_all(names, seed, seconds, trace):
    """Each workload in its own process; prints one table."""
    print(json.dumps({"environment": environment()}))
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, result in results.items():
        print_table(name, result)
    print(json.dumps(results))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_program()
    from workloads import WORKLOADS
    names = tuple(WORKLOADS)
    if args.workload == "all":
        run_all(names, args.seed, args.seconds, args.trace)
    elif args.workload in names:
        run_one(args.workload, args.seed, args.seconds, args.trace)
    else:
        ap.error(f"unknown workload {args.workload!r}; one of {names} or all")


if __name__ == "__main__":
    main()
