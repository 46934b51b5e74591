"""Command-line entry point.

Subcommands: ser-sweep, bias-ablation, adaptive.  Results go to a CSV
file with the fixed header
experiment,receiver,snr_db,frame,symbols,errors,ser,seed.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import harness


# experiment subcommand -> (runner, help)
_EXPERIMENTS = {
    "ser-sweep": (harness.run_ser_sweep, "quasi-static SER-vs-SNR sweep"),
    "bias-ablation": (harness.run_bias_ablation,
                      "biasing/quantization ablation"),
    "adaptive": (harness.run_adaptive, "time-varying channel tracking"),
}
# --preset name -> built-in config
_PRESETS = {"desk": harness.desk_config, "paper": harness.paper_config}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="elm-mimo",
        description="Monte Carlo SER experiments for ELM-style massive "
                    "MIMO receivers")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, doc) in _EXPERIMENTS.items():
        sp = sub.add_parser(name, help=doc)
        source = sp.add_mutually_exclusive_group()
        source.add_argument("--config", help="JSON experiment config")
        source.add_argument("--preset", choices=tuple(_PRESETS),
                            help="built-in config (default: desk)")
        sp.add_argument("--seed", type=int, help="override master_seed")
        sp.add_argument("--out", required=True, help="output CSV path")
        sp.add_argument("--parallel", type=int, default=1,
                        help="number of threads that run trials")
        if name == "ser-sweep":   # the other experiments run fixed arms
            sp.add_argument("--receivers",
                            help="comma-separated receiver subset")
    return p


def _load(args) -> harness.ExperimentConfig:
    cfg = (harness.load_config(args.config) if args.config
           else _PRESETS[args.preset or "desk"]())
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if getattr(args, "receivers", None) is not None:
        cfg = replace(cfg, receivers=tuple(args.receivers.split(",")))
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = Path(args.out)
        if out.is_dir() or not out.parent.is_dir():
            raise ValueError("--out must name a file in an existing "
                             f"directory, got {args.out!r}")
        cfg = _load(args)
        if args.parallel < 1:
            raise ValueError(f"--parallel must be >= 1, got {args.parallel}")
        if args.command == "adaptive" and len(cfg.snr_db_list) > 1:
            print(f"note: adaptive runs at snr_db_list[0] = "
                  f"{cfg.snr_db_list[0]:g} dB only; the rest of "
                  "snr_db_list is unused", file=sys.stderr)
        run = _EXPERIMENTS[args.command][0]
        harness.write_csv(run(cfg, n_jobs=args.parallel), args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
