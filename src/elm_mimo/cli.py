"""Command-line entry point.

Subcommands: ser-sweep, bias-ablation, adaptive, selftest.  Results go
to a CSV file with the fixed header
experiment,receiver,snr_db,frame,symbols,errors,ser,seed.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import harness
from .core import real_composite, real_stack, ridge_solve, rls_init, rls_step
from .frontend import AdcConfig, quantize


# experiment subcommand -> (runner, help)
_EXPERIMENTS = {
    "ser-sweep": (harness.run_ser_sweep, "quasi-static SER-vs-SNR sweep"),
    "bias-ablation": (harness.run_bias_ablation,
                      "biasing/quantization ablation"),
    "adaptive": (harness.run_adaptive, "time-varying channel tracking"),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="elm-mimo",
        description="Monte Carlo SER experiments for ELM-style massive "
                    "MIMO receivers")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, doc) in _EXPERIMENTS.items():
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", help="JSON experiment config")
        sp.add_argument("--preset", choices=("desk", "paper"),
                        default="desk",
                        help="built-in config used when --config is absent")
        sp.add_argument("--seed", type=int, help="override master_seed")
        sp.add_argument("--out", required=True, help="output CSV path")
        sp.add_argument("--receivers",
                        help="comma-separated receiver subset")
        sp.add_argument("--parallel", type=int, default=1,
                        help="number of worker processes for trials")
    sub.add_parser("selftest", help="quick built-in consistency checks")
    return p


def _load(args) -> harness.ExperimentConfig:
    if args.config:
        cfg = harness.load_config(args.config)
    elif args.preset == "paper":
        cfg = harness.paper_config()
    else:
        cfg = harness.desk_config()
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.receivers:
        cfg = replace(cfg, receivers=tuple(args.receivers.split(",")))
    return cfg


def _selftest() -> int:
    checks = []

    rng = np.random.default_rng(0)
    Z = rng.standard_normal((30, 8))
    T = rng.standard_normal((30, 2))
    B = ridge_solve(Z, T, 0.01)
    oracle = np.linalg.solve(Z.T @ Z + 0.01 * np.eye(8), Z.T @ T)
    checks.append(("ridge normal equations",
                   np.allclose(B, oracle, rtol=1e-10, atol=1e-12)))

    H = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    checks.append(("real-composite homomorphism",
                   np.allclose(real_stack(H @ s),
                               real_composite(H) @ real_stack(s),
                               atol=1e-12)))

    state = rls_init(Z, T, 0.5, 1.0)
    for i in range(20):
        r = rng.standard_normal(8)
        t = rng.standard_normal(2)
        state = rls_step(state, r, t)
        Z = np.vstack([Z, r])
        T = np.vstack([T, t])
    batch = ridge_solve(Z, T, 0.5)
    checks.append(("RLS equals batch ridge at lambda=1",
                   np.allclose(state.beta, batch, rtol=1e-8)))

    adc = AdcConfig(bits=6, full_scale=2.0)
    grid = np.linspace(-3, 3, 10001)
    q = quantize(grid, adc)
    checks.append(("quantizer codomain and monotonicity",
                   np.isin(q, adc.levels).all() and (np.diff(q) >= 0).all()))

    cfg = replace(harness.desk_config(),
                  channel=replace(harness.desk_config().channel,
                                  n_antennas=16, n_users=2),
                  snr_db_list=(10.0,), training_len=200, payload_len=500,
                  preamble_len=100, borrowed_hidden=32, trials=2)
    recs1 = harness.run_ser_sweep(cfg)
    recs2 = harness.run_ser_sweep(cfg)
    checks.append(("deterministic sweep", recs1 == recs2))

    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        return _selftest()
    try:
        cfg = _load(args)
        if args.parallel < 1:
            raise ValueError(f"--parallel must be >= 1, got {args.parallel}")
        run = _EXPERIMENTS[args.command][0]
        harness.write_csv(run(cfg, n_jobs=args.parallel), args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
