"""Experiment orchestration: configs, seeded Monte Carlo SER sweeps,
the bias/quantization ablation, the adaptive tracking experiment, and
CSV emission.

All runs are deterministic in (config, master_seed): each trial derives
its RNG streams from SeedSequence([master_seed, trial]), and results
are merged by summation, so the outcome is independent of the degree of
parallelism.
"""
from __future__ import annotations

import ctypes
import json
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from .channel import ChannelConfig, draw_process, realize
from .core import real_stack
from .frontend import (QAM16, AdcConfig, SalehParams, attach_biases,
                       bias_quantize, calibrate_adc, draw_biases, ideal_adc,
                       quantize_iq, signal_power, transmit)
from .receivers import (detect_linear, detect_natural_elm,
                        detect_borrowed_elm, mmse_weights, oselm_init,
                        oselm_update, oselm_weights, train_borrowed_elm,
                        train_natural_elm, train_zf_direct, zf_weights)

__all__ = [
    "AdaptiveConfig",
    "ExperimentConfig",
    "desk_config",
    "paper_config",
    "load_config",
    "config_from_dict",
    "config_to_dict",
    "SerRecord",
    "run_ser_sweep",
    "run_bias_ablation",
    "run_adaptive",
    "write_csv",
    "CSV_HEADER",
]

ALL_RECEIVERS = ("natural-elm", "borrowed-elm", "trained-zf", "zf", "mmse")

CSV_HEADER = "experiment,receiver,snr_db,frame,symbols,errors,ser,seed"


@dataclass(frozen=True)
class AdaptiveConfig:
    init_len: int = 3000
    frame_training_len: int = 300
    frame_data_len: int = 1700
    forgetting: float = 0.98
    n_frames: int = 10
    benchmark_training_len: int = 3000

    def __post_init__(self):
        for name in ("init_len", "frame_training_len", "frame_data_len",
                     "n_frames", "benchmark_training_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"adaptive.{name} must be >= 1")
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError("adaptive.forgetting must be in (0, 1]")


@dataclass(frozen=True)
class ExperimentConfig:
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    saleh: SalehParams | None = field(default_factory=SalehParams)
    adc_bits: int | None = 6
    adc_headroom: float = 3.0
    bias_scale: float = 0.1
    snr_db_list: tuple = (0.0, 5.0, 10.0, 15.0, 20.0)
    training_len: int = 3000
    payload_len: int = 20000
    preamble_len: int = 500
    receivers: tuple = ALL_RECEIVERS
    gamma: dict = field(default_factory=lambda: dict.fromkeys(
        ("natural-elm", "borrowed-elm", "trained-zf", "oselm"), 1.0))
    borrowed_hidden: int = 512
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    trials: int = 1
    master_seed: int = 0
    per_user: bool = False
    snr_reference: str = "post-pa"

    def __post_init__(self):
        if not self.snr_db_list:
            raise ValueError("snr_db_list must be non-empty")
        for name in ("training_len", "payload_len", "preamble_len",
                     "trials", "borrowed_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        bad = set(self.receivers) - set(ALL_RECEIVERS)
        if bad:
            raise ValueError(f"unknown receivers: {sorted(bad)}")
        if self.snr_reference not in ("post-pa", "pre-pa"):
            raise ValueError("snr_reference must be 'post-pa' or 'pre-pa'")

    def gamma_for(self, receiver: str) -> float:
        return self.gamma.get(receiver, 1.0)

    def signal_power(self) -> float:
        if self.snr_reference == "pre-pa":
            return 1.0
        return signal_power(self.saleh)


def desk_config() -> ExperimentConfig:
    """CI-scale default: N = 64 runs in seconds per SNR point."""
    return ExperimentConfig()


def paper_config() -> ExperimentConfig:
    """Full-scale channel dimensions (N = 256, K = 10)."""
    return ExperimentConfig(channel=ChannelConfig(n_antennas=256))


# ---------------------------------------------------------------------------
# Config (de)serialization.  The on-disk format is a strict JSON document:
# unknown keys are rejected with the offending key named.


def _check_keys(d: dict, allowed, where: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ValueError(
            f"unknown config key '{sorted(unknown)[0]}' in {where}")


_CHANNEL_KEYS = ("n_antennas", "n_users", "carrier_hz", "symbol_duration_s",
                 "angular_spread_deg", "n_rays", "velocity_mps",
                 "mean_aoa_range_rad")
_SALEH_KEYS = ("alpha_a", "eps_a", "alpha_phi", "eps_phi")
_ADC_KEYS = ("bits", "headroom", "bias_scale")
_ADAPTIVE_KEYS = ("init_len", "frame_training_len", "frame_data_len",
                  "forgetting", "n_frames", "benchmark_training_len")
_TOP_KEYS = ("channel", "saleh", "adc", "snr_db_list", "training_len",
             "payload_len", "preamble_len", "receivers", "gamma",
             "borrowed_hidden", "adaptive", "trials", "master_seed",
             "per_user", "snr_reference")


def config_from_dict(data: dict) -> ExperimentConfig:
    _check_keys(data, _TOP_KEYS, "top level")
    kwargs = {}
    if "channel" in data:
        ch = dict(data["channel"])
        _check_keys(ch, _CHANNEL_KEYS, "channel")
        if "mean_aoa_range_rad" in ch:
            ch["mean_aoa_range_rad"] = tuple(ch["mean_aoa_range_rad"])
        kwargs["channel"] = ChannelConfig(**ch)
    if "saleh" in data:
        sal = data["saleh"]
        if sal == "bypass":
            kwargs["saleh"] = None
        else:
            _check_keys(sal, _SALEH_KEYS, "saleh")
            kwargs["saleh"] = SalehParams(**sal)
    if "adc" in data:
        adc = data["adc"]
        if adc == "ideal":
            kwargs["adc_bits"] = None
        else:
            _check_keys(adc, _ADC_KEYS, "adc")
            kwargs["adc_bits"] = adc.get("bits", 6)
            kwargs["adc_headroom"] = adc.get("headroom", 3.0)
            kwargs["bias_scale"] = adc.get("bias_scale", 0.1)
    if "adaptive" in data:
        ad = data["adaptive"]
        _check_keys(ad, _ADAPTIVE_KEYS, "adaptive")
        kwargs["adaptive"] = AdaptiveConfig(**ad)
    if "gamma" in data:
        g = data["gamma"]
        if isinstance(g, dict):
            _check_keys(g, ("natural-elm", "borrowed-elm", "trained-zf",
                            "oselm"), "gamma")
            kwargs["gamma"] = dict(g)
        else:
            kwargs["gamma"] = dict.fromkeys(
                ("natural-elm", "borrowed-elm", "trained-zf", "oselm"),
                float(g))
    for key in ("snr_db_list", "receivers"):
        if key in data:
            kwargs[key] = tuple(data[key])
    for key in ("training_len", "payload_len", "preamble_len",
                "borrowed_hidden", "trials", "master_seed", "per_user",
                "snr_reference"):
        if key in data:
            kwargs[key] = data[key]
    return ExperimentConfig(**kwargs)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    ch = cfg.channel
    return {
        "channel": {
            "n_antennas": ch.n_antennas, "n_users": ch.n_users,
            "carrier_hz": ch.carrier_hz,
            "symbol_duration_s": ch.symbol_duration_s,
            "angular_spread_deg": ch.angular_spread_deg,
            "n_rays": ch.n_rays, "velocity_mps": ch.velocity_mps,
            "mean_aoa_range_rad": list(ch.mean_aoa_range_rad),
        },
        "saleh": "bypass" if cfg.saleh is None else {
            "alpha_a": cfg.saleh.alpha_a, "eps_a": cfg.saleh.eps_a,
            "alpha_phi": cfg.saleh.alpha_phi, "eps_phi": cfg.saleh.eps_phi,
        },
        "adc": "ideal" if cfg.adc_bits is None else {
            "bits": cfg.adc_bits, "headroom": cfg.adc_headroom,
            "bias_scale": cfg.bias_scale,
        },
        "snr_db_list": list(cfg.snr_db_list),
        "training_len": cfg.training_len,
        "payload_len": cfg.payload_len,
        "preamble_len": cfg.preamble_len,
        "receivers": list(cfg.receivers),
        "gamma": dict(cfg.gamma),
        "borrowed_hidden": cfg.borrowed_hidden,
        "adaptive": {
            "init_len": cfg.adaptive.init_len,
            "frame_training_len": cfg.adaptive.frame_training_len,
            "frame_data_len": cfg.adaptive.frame_data_len,
            "forgetting": cfg.adaptive.forgetting,
            "n_frames": cfg.adaptive.n_frames,
            "benchmark_training_len": cfg.adaptive.benchmark_training_len,
        },
        "trials": cfg.trials,
        "master_seed": cfg.master_seed,
        "per_user": cfg.per_user,
        "snr_reference": cfg.snr_reference,
    }


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Records and CSV output


@dataclass(frozen=True)
class SerRecord:
    experiment: str
    receiver: str
    snr_db: float
    frame: int          # -1 for non-framed experiments
    symbols: int
    errors: int
    seed: int

    @property
    def ser(self) -> float:
        return self.errors / self.symbols


def write_csv(records, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write("%s,%s,%g,%d,%d,%d,%.8e,%d\n" % (
                rec.experiment, rec.receiver, rec.snr_db, rec.frame,
                rec.symbols, rec.errors, rec.ser, rec.seed))


# ---------------------------------------------------------------------------
# Shared per-trial machinery


def _trial_streams(cfg: ExperimentConfig, trial: int):
    ss = np.random.SeedSequence([cfg.master_seed, trial])
    kids = ss.spawn(5)
    return (kids[0],
            np.random.default_rng(kids[1]),   # noise
            np.random.default_rng(kids[2]),   # symbols
            np.random.default_rng(kids[3]),   # biases
            np.random.default_rng(kids[4]))   # borrowed-ELM init


def _count_errors(counts, key, true_labels, det_labels, per_user):
    errs = det_labels != true_labels
    if per_user:
        recv, rest = key[0], key[1:]
        for k in range(true_labels.shape[1]):
            ukey = (f"{recv}/user{k}",) + rest
            sym, err = counts.get(ukey, (0, 0))
            counts[ukey] = (sym + true_labels.shape[0],
                            err + int(errs[:, k].sum()))
    else:
        sym, err = counts.get(key, (0, 0))
        counts[key] = (sym + true_labels.size, err + int(errs.sum()))


def _calibrated_adc(cfg: ExperimentConfig, H, sigma2, sym_rng, noise_rng,
                    bias_rng):
    """Calibrate the converter on a preamble and freeze the bias vectors."""
    N = cfg.channel.n_antennas
    b_re, b_im = draw_biases(N, cfg.bias_scale, bias_rng)
    if cfg.adc_bits is None:
        return ideal_adc(b_re, b_im)
    labels = QAM16.random_labels(sym_rng, (cfg.preamble_len,
                                           cfg.channel.n_users))
    y = transmit(H, QAM16.symbols(labels), sigma2, noise_rng, cfg.saleh)
    adc = calibrate_adc(real_stack(y), cfg.adc_bits, cfg.adc_headroom)
    return attach_biases(adc, b_re, b_im)


_PAYLOAD_CHUNK = 4096


# ---------------------------------------------------------------------------
# Experiment 1: quasi-static SER sweep over SNR (five receivers)


def _trial_ser_sweep(cfg: ExperimentConfig, trial: int) -> dict:
    chan_seed, noise_rng, sym_rng, bias_rng, borrow_rng = \
        _trial_streams(cfg, trial)
    static = replace(cfg.channel, velocity_mps=0.0)
    proc = draw_process(static, chan_seed)
    H = realize(proc, 0)
    K = static.n_users
    Ps = cfg.signal_power()
    counts = {}
    for snr_db in cfg.snr_db_list:
        snr = 10.0 ** (snr_db / 10.0)
        sigma2 = Ps / snr
        adc = _calibrated_adc(cfg, H, sigma2, sym_rng, noise_rng, bias_rng)

        tr_labels = QAM16.random_labels(sym_rng, (cfg.training_len, K))
        x_tr = QAM16.symbols(tr_labels)
        y_tr = transmit(H, x_tr, sigma2, noise_rng, cfg.saleh)

        trained = {}
        if "natural-elm" in cfg.receivers:
            trained["natural-elm"] = train_natural_elm(
                bias_quantize(y_tr, adc), x_tr, cfg.gamma_for("natural-elm"))
        if "trained-zf" in cfg.receivers or "borrowed-elm" in cfg.receivers:
            rq_tr = quantize_iq(y_tr, adc)
            if "trained-zf" in cfg.receivers:
                trained["trained-zf"] = train_zf_direct(
                    rq_tr, x_tr, cfg.gamma_for("trained-zf"))
            if "borrowed-elm" in cfg.receivers:
                trained["borrowed-elm"] = train_borrowed_elm(
                    real_stack(rq_tr), x_tr, cfg.gamma_for("borrowed-elm"),
                    cfg.borrowed_hidden, borrow_rng)
        if "zf" in cfg.receivers:
            trained["zf"] = zf_weights(H)
        if "mmse" in cfg.receivers:
            trained["mmse"] = mmse_weights(H, snr)

        done = 0
        while done < cfg.payload_len:
            n = min(_PAYLOAD_CHUNK, cfg.payload_len - done)
            labels = QAM16.random_labels(sym_rng, (n, K))
            y = transmit(H, QAM16.symbols(labels), sigma2, noise_rng,
                         cfg.saleh)
            rq = None
            for recv in cfg.receivers:
                if recv == "natural-elm":
                    det = detect_natural_elm(trained[recv],
                                             bias_quantize(y, adc))
                else:
                    if rq is None:
                        rq = quantize_iq(y, adc)
                    if recv == "trained-zf":
                        det = detect_natural_elm(trained[recv],
                                                 real_stack(rq))
                    elif recv == "borrowed-elm":
                        det = detect_borrowed_elm(trained[recv],
                                                  real_stack(rq))
                    else:
                        det = detect_linear(trained[recv], rq)
                _count_errors(counts, (recv, snr_db), labels, det,
                              cfg.per_user)
            done += n
    return counts


# ---------------------------------------------------------------------------
# Experiment 2: impact of biasing and quantization (four systems)

ABLATION_SYSTEMS = ("trained-zf-unquantized", "trained-zf-unquantized-biased",
                    "trained-zf-quantized", "natural-elm")


def _trial_bias_ablation(cfg: ExperimentConfig, trial: int) -> dict:
    chan_seed, noise_rng, sym_rng, bias_rng, _ = _trial_streams(cfg, trial)
    static = replace(cfg.channel, velocity_mps=0.0)
    proc = draw_process(static, chan_seed)
    H = realize(proc, 0)
    K = static.n_users
    Ps = cfg.signal_power()
    counts = {}
    for snr_db in cfg.snr_db_list:
        sigma2 = Ps / 10.0 ** (snr_db / 10.0)
        bits = cfg.adc_bits if cfg.adc_bits is not None else 6
        quant = _calibrated_adc(replace(cfg, adc_bits=bits), H, sigma2,
                                sym_rng, noise_rng, bias_rng)
        # "unquantized" keeps the converter's analog clipping range but
        # has infinite amplitude resolution
        clip = AdcConfig(bits=None, full_scale=quant.full_scale)
        clip_biased = attach_biases(clip, quant.bias_re, quant.bias_im)
        quant_nobias = AdcConfig(bits=bits, full_scale=quant.full_scale)
        front_ends = {
            "trained-zf-unquantized": clip,
            "trained-zf-unquantized-biased": clip_biased,
            "trained-zf-quantized": quant_nobias,
            "natural-elm": quant,
        }

        tr_labels = QAM16.random_labels(sym_rng, (cfg.training_len, K))
        x_tr = QAM16.symbols(tr_labels)
        y_tr = transmit(H, x_tr, sigma2, noise_rng, cfg.saleh)
        gamma = cfg.gamma_for("natural-elm")
        weights = {name: train_natural_elm(bias_quantize(y_tr, fe), x_tr,
                                           gamma)
                   for name, fe in front_ends.items()}

        done = 0
        while done < cfg.payload_len:
            n = min(_PAYLOAD_CHUNK, cfg.payload_len - done)
            labels = QAM16.random_labels(sym_rng, (n, K))
            y = transmit(H, QAM16.symbols(labels), sigma2, noise_rng,
                         cfg.saleh)
            for name, fe in front_ends.items():
                det = detect_natural_elm(weights[name], bias_quantize(y, fe))
                _count_errors(counts, (name, snr_db), labels, det,
                              cfg.per_user)
            done += n
    return counts


# ---------------------------------------------------------------------------
# Experiment 3: adaptive receiver over a time-varying channel

ADAPTIVE_VARIANTS = ("oselm", "retrain-benchmark", "frozen")


def _trial_adaptive(cfg: ExperimentConfig, trial: int) -> dict:
    chan_seed, noise_rng, sym_rng, bias_rng, _ = _trial_streams(cfg, trial)
    proc = draw_process(cfg.channel, chan_seed)
    K = cfg.channel.n_users
    ad = cfg.adaptive
    snr_db = cfg.snr_db_list[0]
    sigma2 = cfg.signal_power() / 10.0 ** (snr_db / 10.0)
    gamma = cfg.gamma_for("oselm")

    # The channel evolves across frames: H is sampled at each frame's
    # first symbol index and held for that frame (block fading), which
    # keeps the per-frame 3000-symbol benchmark well defined.
    labels0 = QAM16.random_labels(sym_rng, (ad.init_len, K))
    x0 = QAM16.symbols(labels0)
    y0 = transmit(realize(proc, 0), x0, sigma2, noise_rng, cfg.saleh)
    N = cfg.channel.n_antennas
    b_re, b_im = draw_biases(N, cfg.bias_scale, bias_rng)
    if cfg.adc_bits is None:
        adc = ideal_adc(b_re, b_im)
    else:
        adc = attach_biases(
            calibrate_adc(real_stack(y0), cfg.adc_bits, cfg.adc_headroom),
            b_re, b_im)
    recv = oselm_init(bias_quantize(y0, adc), x0, gamma, ad.forgetting)
    frozen_w = oselm_weights(recv)

    frame_len = ad.frame_training_len + ad.frame_data_len
    counts = {}
    for f in range(ad.n_frames):
        t0 = ad.init_len + f * frame_len
        Hf = realize(proc, t0)
        # adaptive update on the frame's training burst
        labels_t = QAM16.random_labels(sym_rng, (ad.frame_training_len, K))
        x_t = QAM16.symbols(labels_t)
        y_t = transmit(Hf, x_t, sigma2, noise_rng, cfg.saleh)
        recv = oselm_update(recv, bias_quantize(y_t, adc), x_t)
        # benchmark: batch retrain assuming a long training block is
        # available within the frame
        labels_b = QAM16.random_labels(sym_rng,
                                       (ad.benchmark_training_len, K))
        x_b = QAM16.symbols(labels_b)
        y_b = transmit(Hf, x_b, sigma2, noise_rng, cfg.saleh)
        bench_w = train_natural_elm(bias_quantize(y_b, adc), x_b, gamma)
        # frame payload
        labels_d = QAM16.random_labels(sym_rng, (ad.frame_data_len, K))
        y_d = transmit(Hf, QAM16.symbols(labels_d), sigma2, noise_rng,
                       cfg.saleh)
        r_d = bias_quantize(y_d, adc)
        for name, w in (("oselm", oselm_weights(recv)),
                        ("retrain-benchmark", bench_w),
                        ("frozen", frozen_w)):
            det = detect_natural_elm(w, r_d)
            _count_errors(counts, (name, snr_db, f), labels_d, det,
                          cfg.per_user)
    return counts


# ---------------------------------------------------------------------------
# Runners: parallel trial execution + order-independent merge


def _pool_shape(n_jobs: int, trials: int, nproc: int):
    """(worker processes, BLAS threads per worker) for `trials` trials
    over `n_jobs` requested workers on `nproc` cores."""
    workers = min(n_jobs, trials, nproc)
    return workers, max(1, nproc // workers)


def _cpu_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API outside Linux
        return os.cpu_count() or 1


# Thread-count setters of the OpenBLAS copies bundled in numpy.libs
# (64-bit integer interface) and scipy.libs.
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads")


def _loaded_openblas():
    """Handles of the OpenBLAS copies numpy and scipy bundle and have
    loaded into this process; none under MKL or a system BLAS."""
    libs = []
    for package in (np, scipy):
        libdir = (Path(package.__file__).parent.parent
                  / f"{package.__name__}.libs")
        for path in sorted(libdir.glob("*openblas*.so*")):
            try:
                libs.append(ctypes.CDLL(
                    str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY))
            except OSError:  # bundled but not loaded
                continue
    return libs


def _set_blas_threads(n: int):
    """Pool initializer: size this worker's BLAS thread pools to n, so the
    workers together use no more threads than there are cores."""
    for lib in _loaded_openblas():
        for name in _OPENBLAS_SETTERS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(n)


def _trial_pool(workers: int, blas_threads: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers,
                               initializer=_set_blas_threads,
                               initargs=(blas_threads,))


def _run_trials(worker, cfg: ExperimentConfig, n_jobs: int):
    if (isinstance(n_jobs, bool) or not isinstance(n_jobs, numbers.Integral)
            or n_jobs < 1):
        raise ValueError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")
    workers, blas_threads = _pool_shape(n_jobs, cfg.trials, _cpu_count())
    if workers > 1:
        with _trial_pool(workers, blas_threads) as pool:
            results = list(pool.map(worker, [cfg] * cfg.trials,
                                    range(cfg.trials)))
    else:
        results = [worker(cfg, t) for t in range(cfg.trials)]
    merged = {}
    for counts in results:
        for key, (sym, err) in counts.items():
            s0, e0 = merged.get(key, (0, 0))
            merged[key] = (s0 + sym, e0 + err)
    return merged


def _records(experiment, merged, cfg, framed=False):
    recs = []
    for key in sorted(merged, key=lambda k: (str(k[0]),) + tuple(k[1:])):
        sym, err = merged[key]
        frame = key[2] if framed else -1
        recs.append(SerRecord(experiment=experiment, receiver=key[0],
                              snr_db=key[1], frame=frame, symbols=sym,
                              errors=err, seed=cfg.master_seed))
    return recs


def run_ser_sweep(cfg: ExperimentConfig, n_jobs: int = 1):
    """Quasi-static SER-vs-SNR sweep over the configured receivers."""
    merged = _run_trials(_trial_ser_sweep, cfg, n_jobs)
    return _records("ser-sweep", merged, cfg)


def run_bias_ablation(cfg: ExperimentConfig, n_jobs: int = 1):
    """Four-system comparison isolating the effect of biasing and
    quantization (the unquantized arms keep the analog clipping range)."""
    merged = _run_trials(_trial_bias_ablation, cfg, n_jobs)
    return _records("bias-ablation", merged, cfg)


def run_adaptive(cfg: ExperimentConfig, n_jobs: int = 1):
    """Per-frame SER of the OSELM tracker, a per-frame batch-retrained
    benchmark, and a frozen receiver over a time-varying channel."""
    merged = _run_trials(_trial_adaptive, cfg, n_jobs)
    return _records("adaptive", merged, cfg, framed=True)
