"""Checks an experiment CSV against what its config implies.

The expectations are written from the documented CSV contract, not taken
from the harness, so a harness that drifts from the contract fails here.
"""
from __future__ import annotations

import hashlib

HEADER = "experiment,receiver,snr_db,frame,symbols,errors,ser,seed"
ABLATION_SYSTEMS = ("trained-zf-unquantized", "trained-zf-unquantized-biased",
                    "trained-zf-quantized", "natural-elm")
ADAPTIVE_VARIANTS = ("oselm", "retrain-benchmark", "frozen")


def expected_rows(experiment, cfg):
    """Map (receiver, snr_db, frame) -> payload symbols for every row the
    config implies (per-user rows are not modelled)."""
    if cfg.per_user:
        raise ValueError("per_user configs are not modelled")
    K = cfg.channel.n_users
    if experiment == "ser-sweep":
        n = cfg.trials * cfg.payload_len * K
        return {(r, float(s), -1): n
                for r in cfg.receivers for s in cfg.snr_db_list}
    if experiment == "bias-ablation":
        n = cfg.trials * cfg.payload_len * K
        return {(r, float(s), -1): n
                for r in ABLATION_SYSTEMS for s in cfg.snr_db_list}
    if experiment == "adaptive":
        n = cfg.trials * cfg.adaptive.frame_data_len * K
        snr = float(cfg.snr_db_list[0])
        return {(r, snr, f): n
                for r in ADAPTIVE_VARIANTS for f in range(cfg.adaptive.n_frames)}
    raise ValueError(f"unknown experiment {experiment!r}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_csv(data: bytes, experiment, cfg, reference_sha=None):
    """Return a list of problems with the CSV bytes; empty means it passed."""
    problems = []
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        problems.append("last line is not LF-terminated")
    if lines[0] != HEADER:
        problems.append(f"wrong header {lines[0]!r}")
    seen = {}
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != 8:
            problems.append(f"malformed row {line!r}")
            continue
        exp, recv, snr, frame, sym, err, ser, seed = fields
        try:
            key = (recv, float(snr), int(frame))
            sym, err, ser, seed = int(sym), int(err), float(ser), int(seed)
        except ValueError:
            problems.append(f"unparsable row {line!r}")
            continue
        if key in seen:
            problems.append(f"duplicate row {key}")
        seen[key] = sym
        if exp != experiment:
            problems.append(f"row {key}: experiment {exp!r}")
        if seed != cfg.master_seed:
            problems.append(f"row {key}: seed {seed} != {cfg.master_seed}")
        if not 0 <= err <= sym:
            problems.append(f"row {key}: errors {err} outside [0, {sym}]")
        elif sym and abs(ser - err / sym) > 1e-7 * max(ser, 1e-300):
            problems.append(f"row {key}: ser {ser} != errors/symbols")
    expected = expected_rows(experiment, cfg)
    missing = sorted(set(expected) - set(seen), key=str)
    extra = sorted(set(seen) - set(expected), key=str)
    if missing or extra:
        problems.append(f"row set differs: missing {missing[:3]}, "
                        f"unexpected {extra[:3]}")
    for key in set(expected) & set(seen):
        if seen[key] != expected[key]:
            problems.append(f"row {key}: symbols {seen[key]} != "
                            f"{expected[key]}")
    if reference_sha is not None and sha256(data) != reference_sha:
        problems.append("sha256 differs from the recorded reference")
    return problems
