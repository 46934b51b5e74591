"""Record the reference CSV sha256 of every workload at the default seed.

    python3 perfbench/record_references.py

Run from the repository root, only when a change is meant to alter the
CSV bytes; the benchmark fails any call at the default seed whose CSV
differs from the recorded hash.
"""
import json
import sys

import run
from csvcheck import check_csv, sha256


def main():
    run.import_program()
    from workloads import DEFAULT_SEED, WORKLOADS, run_experiment
    refs = {}
    run.OUT.mkdir(exist_ok=True)
    out = run.OUT / "reference.csv"
    for name, workload in WORKLOADS.items():
        cfg = workload.config(DEFAULT_SEED)
        run_experiment(workload, cfg, out)
        data = out.read_bytes()
        problems = check_csv(data, workload.experiment, cfg)
        if problems:
            sys.exit(f"{name}: {problems}")
        refs[name] = sha256(data)
        print(name, refs[name])
    (run.HERE / "references.json").write_text(
        json.dumps(refs, indent=2) + "\n")


if __name__ == "__main__":
    main()
