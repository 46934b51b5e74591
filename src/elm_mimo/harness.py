"""Experiment orchestration: configs, seeded Monte Carlo trials of the
SER sweep, the bias/quantization ablation and the adaptive tracking
experiment, and CSV emission.

A config is a tree of frozen dataclasses that check themselves; its
JSON document is the same tree, written by `asdict` and loaded by one
`bounds.typed` call.

One trial engine walks three plans.  A plan is data: it lists an
experiment's blocks in draw order, each ending in its key: a count's
record key, or the config key that sized a fit.  The engine sends each
block through the channel as (labels, y), calibrates the trial's converter
on it if asked, then fits the named arms on it or scores them.  A fit sees
its whole block; a score, a sum over rows, sees it in tiles of `_TILE`
rows, each with its own converter outputs, so its working set does not
grow with the block.  Every arm is a `_RECEIVERS` row: the front end it
reads (whether the converter's biases and quantizer apply), the
`gamma.<key>` it fits under, and a readout (train, detect); a singular fit
names its arm and the keys that set it.  Arms are grouped by front end,
and each group shares one front-end call per block, made when an arm first
reads it.  The sweep runs the configured receivers; the ablation reads the
natural-ELM readout through four front ends, with and without the biases
and the quantizer; the adaptive experiment runs its three variants through
one.  Counts are keyed (receiver, snr_db, frame), frame -1 if unframed.

Runs are deterministic in (config, master_seed).  Each trial draws from
five streams spawned from SeedSequence([master_seed, trial]): channel,
noise, symbols, biases and borrowed-ELM weights; the channel process is
drawn when the trial opens.  The draw order within each stream is part
of the CSV contract: the biases at each calibration, and the blocks of
the plan (`_static_plan`, `_tracking_plan`).  Symbols and noise are
drawn up to two blocks ahead, in that order, on a thread of their own,
so the bytes do not depend on its timing.  Trials merge by summation, so
the outcome does not depend on the degree of parallelism.
"""
from __future__ import annotations

import ctypes
import json
import numbers
import os
from collections import deque, namedtuple
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, partial
from pathlib import Path

import numpy as np
import scipy

from .bounds import FLOOR, MIN_CALIBRATION, POSITIVE, bounded, check, typed
from .channel import ChannelConfig, draw_process, realize
from .core import real_stack
from .frontend import (BITS, QAM16, AdcConfig, SalehParams, bias_quantize,
                       calibrate_adc, ideal_adc, noise_planes, pa_distort,
                       quantize_iq, transmit)
from .receivers import (detect_linear, detect_natural_elm,
                        detect_borrowed_elm, mmse_weights, oselm_init,
                        oselm_update, oselm_weights, train_borrowed_elm,
                        train_natural_elm, zf_weights)

# the arms of each experiment, all rows of _RECEIVERS: the sweep's (a config
# runs some of them), the ablation's and the adaptive experiment's
ALL_RECEIVERS = ("natural-elm", "borrowed-elm", "trained-zf", "zf", "mmse")
ABLATION_SYSTEMS = ("trained-zf-unquantized", "trained-zf-unquantized-biased",
                    "trained-zf-quantized", "natural-elm")
ADAPTIVE_VARIANTS = ("oselm", "retrain-benchmark", "frozen")
# the receivers with a ridge regularization gamma
TRAINED = ("natural-elm", "borrowed-elm", "trained-zf", "oselm")

CSV_HEADER = "experiment,receiver,snr_db,frame,symbols,errors,ser,seed"
_CHUNK = 4096   # vectors per block of the quasi-static payload
_TILE = 512     # rows per scoring tile: 2 MB of a 512-node hidden layer


@dataclass(frozen=True)
class AdaptiveConfig:
    init_len: int = bounded(3000, 1)
    frame_training_len: int = bounded(300, 1)
    frame_data_len: int = bounded(1700, 1)
    forgetting: float = bounded(0.98, POSITIVE, 1.0)
    n_frames: int = bounded(10, 1)
    benchmark_training_len: int = bounded(3000, 1)

    def __post_init__(self):
        check(self, "adaptive.")


@dataclass(frozen=True)
class ConverterConfig:
    """The ADC array, the ELM's activation: bits (None: no quantizer), full
    scale headroom x the calibration RMS, biases within +-bias_scale."""
    bits: int | None = bounded(6, *BITS)
    headroom: float = bounded(3.0, FLOOR, 1e6)
    bias_scale: float = bounded(0.1, 0.0, 1e6)

    def __post_init__(self):
        check(self, "adc.")


@dataclass(frozen=True)
class ExperimentConfig:
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    saleh: SalehParams | None = field(default_factory=SalehParams)
    adc: ConverterConfig = field(default_factory=ConverterConfig)
    snr_db_list: tuple = bounded((0.0, 5.0, 10.0, 15.0, 20.0),
                                 -300.0, 300.0)
    training_len: int = bounded(3000, 1)
    payload_len: int = bounded(20000, 1)
    preamble_len: int = bounded(500, 1)
    receivers: tuple = ALL_RECEIVERS
    gamma: dict = bounded(dict.fromkeys(TRAINED, 1.0), 0.0)
    borrowed_hidden: int = bounded(512, 1)
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    trials: int = bounded(1, 1)
    master_seed: int = bounded(0, 0)
    per_user: bool = False
    snr_reference: str = "post-pa"

    def __post_init__(self):
        check(self)
        if not self.snr_db_list:
            raise ValueError("snr_db_list must be non-empty")
        if len({"%g" % v for v in self.snr_db_list}) < len(self.snr_db_list):
            raise ValueError("config key 'snr_db_list' must differ in every "
                             f"value as '%g' prints it: {self.snr_db_list}")
        if (not set(self.receivers) <= set(ALL_RECEIVERS)
                or not 0 < len(self.receivers) == len(set(self.receivers))):
            raise ValueError(f"receivers must name some of {ALL_RECEIVERS}"
                             f", each once, got {list(self.receivers)}")
        if self.snr_reference not in ("post-pa", "pre-pa"):
            raise ValueError("snr_reference must be 'post-pa' or 'pre-pa'")
        for key, n in (("preamble_len", self.preamble_len),
                       ("adaptive.init_len", self.adaptive.init_len)):
            if 2 * self.channel.n_antennas * n < MIN_CALIBRATION:
                raise ValueError(f"config key '{key}' must make 2 * channel."
                                 f"n_antennas * {key} >= {MIN_CALIBRATION}")


def desk_config() -> ExperimentConfig:
    """CI-scale default: N = 64 runs in seconds per SNR point."""
    return ExperimentConfig()


def paper_config() -> ExperimentConfig:
    """Full-scale channel dimensions (N = 256, K = 10)."""
    return ExperimentConfig(channel=ChannelConfig(n_antennas=256))


# ---------------------------------------------------------------------------
# Config (de)serialization: the JSON document is the dataclass tree, held
# to the type and range rule of `bounds`.


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    data = dict(data)
    if data.get("saleh") == "bypass":
        data["saleh"] = None
    if data.get("adc") == "ideal":   # the unquantized converter
        data["adc"] = {"bits": None}
    if not isinstance(data.get("gamma", {}), dict):   # one gamma for all
        gamma, = (f for f in fields(ExperimentConfig) if f.name == "gamma")
        data["gamma"] = dict.fromkeys(TRAINED, float(typed(
            data["gamma"], 1.0, "gamma", gamma.metadata["range"])))
    return typed(data, ExperimentConfig(), "")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"malformed config file {path}: {exc}") from exc
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(asdict(cfg), fh, indent=2)   # a tuple as a list
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
# Trials: one engine walks a plan of blocks


class _Trial:
    """One trial's channel process, RNG streams, current channel matrix,
    SNR and converter, the named arms grouped by the front end they read
    (in name order), their last models and counts per record key.  Its
    `with` block runs on one BLAS thread and a draw thread that draws the
    plan's blocks ahead."""

    def __init__(self, cfg: ExperimentConfig, trial: int, plan, names=()):
        kids = np.random.SeedSequence([cfg.master_seed, trial]).spawn(5)
        self.cfg, self.counts, self.groups, self.models = cfg, {}, {}, {}
        for name in names:
            front, *row = _RECEIVERS[name]
            self.groups.setdefault(front, []).append(_Arm(name, *row))
        self.channel = draw_process(cfg.channel, kids[0])
        self.sent = (QAM16.points if cfg.saleh is None   # f(c) per label
                     else pa_distort(QAM16.points, cfg.saleh))
        # E|f(c)|^2, and the power the SNR refers to
        self.signal = float(np.mean(np.abs(self.sent) ** 2))
        self.power = self.signal if cfg.snr_reference == "post-pa" else 1.0
        (self.noise, self.symbols, self.biases,
         self.borrowed_init) = (np.random.default_rng(k) for k in kids[1:])
        self.plan, self.ahead = deque(plan), deque()

    def __enter__(self):
        """One thread per bundled OpenBLAS (a second only spin-waits)."""
        self.blas = [(getattr(lib, put), getattr(lib, get)())
                     for lib in _loaded_openblas()
                     for get, put in _OPENBLAS_THREADS
                     if hasattr(lib, get) and hasattr(lib, put)]
        for put, _ in self.blas:
            put(1)
        self.drawer = ThreadPoolExecutor(1)
        self._draw_ahead()
        return self

    def __exit__(self, *exc):
        self.drawer.shutdown(cancel_futures=True)
        for put, n in self.blas:
            put(n)

    def _draw_ahead(self):
        """Keep the plan's next two blocks queued on the draw thread."""
        while self.plan and len(self.ahead) < 2:
            n, ch = self.plan.popleft(), self.cfg.channel
            self.ahead.append((n, self.drawer.submit(lambda n: (
                QAM16.random_labels(self.symbols, (n, ch.n_users)),
                noise_planes(self.noise, (n, ch.n_antennas))), n)))

    def send(self, snr_db: float, m: int):
        """Next block at snr_db through realize(channel, m): (labels, y)."""
        self.H, self.snr = realize(self.channel, m), 10.0 ** (snr_db / 10.0)
        labels, planes = self.ahead.popleft()[1].result()
        self._draw_ahead()
        return labels, transmit(self.H, self.sent[labels],
                                self.power / self.snr, None, noise=planes)

    def calibrate(self, y) -> AdcConfig:
        """Freeze the converter: full scale from the calibration samples y
        (unused by an ideal converter) and fresh per-antenna biases."""
        conv, n = self.cfg.adc, self.cfg.channel.n_antennas
        b_re, b_im = self.biases.uniform(-conv.bias_scale, conv.bias_scale,
                                         (2, n))
        adc = (ideal_adc() if conv.bits is None else
               calibrate_adc(real_stack(y), conv.bits, conv.headroom))
        return replace(adc, bias_re=b_re, bias_im=b_im)

    def fit(self, arm, R, X, sized):
        """arm.train(self, R, X, gamma) under its row's gamma key, on the rows
        config key `sized` sets; a singular solve names the keys behind it."""
        cfg, ch, key = self.cfg, self.cfg.channel, arm.gamma
        gamma = key and cfg.gamma[key]   # None for a genie combiner
        try:
            return arm.train(self, R, X, gamma)
        except np.linalg.LinAlgError as exc:   # a singular G, or H^H H
            if key is None:
                raise ValueError(
                    f"{exc}: widen config key 'channel.mean_aoa_range_rad' "
                    f"(now {ch.mean_aoa_range_rad!r}) or 'channel.angular_"
                    f"spread_deg' (now {ch.angular_spread_deg!r}), or raise "
                    f"'channel.n_rays' (now {ch.n_rays!r})") from exc
            fades = (f"'adaptive.forgetting' (now {cfg.adaptive.forgetting!r}"
                     "; each update fades the regularization) or "
                     if arm.name == "oselm" and "oselm" in self.models else "")
            # not an update: fewer rows than regressors leave G singular
            width = (cfg.borrowed_hidden if arm.name == "borrowed-elm"
                     else 2 * ch.n_antennas)
            short = ("" if fades or len(X) >= width else f"'{sized}' (now "
                     f"{len(X)}; the readout has {width} regressors) or ")
            # an ideal converter (bits None) has no step to lower
            step, what = (("", "") if cfg.adc.bits is None else (
                f"'adc.headroom' (now {cfg.adc.headroom!r}) or ", "step or "))
            raise ValueError(
                f"singular normal equations in the {arm.name} arm: raise "
                f"config key {fades}{short}'gamma.{key}' (now {gamma!r}), or "
                f"lower {step}'adc.bias_scale' (now {cfg.adc.bias_scale!r}) "
                f"if the converter's {what}bias dwarfs the signal") from exc

    def step(self, block, calibrate, names, key):
        """With calibrate, first calibrate the converter on the block.  Then
        fit each named arm (all if names is None) on it, key the config key
        that sized it, or score it: its counts go under (name, *key) =
        (receiver, snr_db, frame), or (name/user<k>, *key).  A front end's
        output is computed when an arm of its group first reads it, R()."""
        labels, y = block
        if calibrate:
            self.adc = self.calibrate(y)
        # the targets, for a fit
        X = QAM16.symbols(labels) if isinstance(key, str) else None
        for front, group in self.groups.items():
            # rebinding R frees the last group's output: one alive at a time
            R = cache(partial(front, y, self.adc))
            for arm in (a for a in group if names is None or a.name in names):
                if X is not None:
                    self.models[arm.name] = self.fit(arm, R, X, key)
                    continue
                errs = arm.detect(self.models[arm.name], R()) != labels
                per_user = self.cfg.per_user
                for k, e in enumerate(errs.T if per_user else [errs]):
                    ukey = (f"{arm.name}/user{k}" if per_user else arm.name,
                            *key)
                    sym, err = self.counts.get(ukey, (0, 0))
                    self.counts[ukey] = (sym + e.size, err + int(e.sum()))


def _trial(arms, plan, cfg: ExperimentConfig, trial: int) -> dict:
    """Walk the plan with the arms named in arms: each block (n, snr_db,
    m, calibrate, names, key) sends n vectors at snr_db through
    realize(channel, m), then steps through the arms with (calibrate,
    names, key): a fit once (key the config key that sized it), a count
    once per tile of _TILE rows."""
    with _Trial(cfg, trial, [n for n, *_ in plan], arms) as t:
        for _, snr_db, m, *step in plan:
            # the last block is held until the next is sent: a payload chunk
            # freed sooner gave its pages back to the OS, to fault them again
            block = t.send(snr_db, m)
            for tile in ([block] if isinstance(step[-1], str) else
                         (tuple(a[s:s + _TILE] for a in block)
                          for s in range(0, len(block[0]), _TILE))):
                t.step(tile, *step)
        return t.counts


_Arm = namedtuple("_Arm", "name gamma train detect")


def _oselm_train(t: _Trial, R, X, gamma):
    """OS-ELM (state, weights): oselm_init on its first block, then updates."""
    last = t.models.get("oselm")
    state = (oselm_init(R(), X, gamma, t.cfg.adaptive.forgetting)
             if last is None else oselm_update(last[0], R(), X))
    return state, oselm_weights(state, gamma)


# receiver -> (front(y, adc), key, train(trial, R, X, gamma), detect(model,
# R)): R() is front's output (a train calls R, a detect gets its value),
# gamma is gamma.<key> (None for a genie combiner, key None).  Every front
# end reads the trial's one calibrated converter and decides whether its
# biases and its quantizer apply.  Lambdas look functions up when called,
# so run-time replacements (tracing) apply.
_STACK = lambda y, adc: bias_quantize(y, adc)   # the biased quantized stack
_UNBIASED = lambda y, adc: bias_quantize(   # the same stack, biases left off
    y, replace(adc, bias_re=0.0, bias_im=0.0))
_IQ = lambda y, adc: quantize_iq(y, adc)   # the I/Q quantization, unbiased
# the stacks without the quantizer: clipped to the same full scale
_CLIP = lambda y, adc: _UNBIASED(y, replace(adc, bits=None))
_CLIP_BIASED = lambda y, adc: _STACK(y, replace(adc, bits=None))
_NATURAL = (lambda t, R, X, gamma: train_natural_elm(R(), X, gamma),
            lambda m, R: detect_natural_elm(m, R))
_RECEIVERS = {
    "natural-elm": (_STACK, "natural-elm", *_NATURAL),
    "trained-zf": (_UNBIASED, "trained-zf", *_NATURAL),
    "borrowed-elm": (_UNBIASED, "borrowed-elm",
                     lambda t, R, X, gamma: train_borrowed_elm(
                         R(), X, gamma, t.cfg.borrowed_hidden, t.borrowed_init),
                     lambda m, R: detect_borrowed_elm(m, R)),
    "zf": (_IQ, None, lambda t, R, X, gamma: zf_weights(t.H),
           lambda m, R: detect_linear(m, R)),
    # regularized with the block's noise-to-signal ratio sigma^2 / E|f(c)|^2
    "mmse": (_IQ, None, lambda t, R, X, gamma: mmse_weights(
        t.H, t.snr * (t.signal / t.power)), lambda m, R: detect_linear(m, R)),
    # the ablation's other systems: the natural-ELM readout, under
    # gamma.natural-elm, without the quantizer or the biases or both
    "trained-zf-unquantized": (_CLIP, "natural-elm", *_NATURAL),
    "trained-zf-unquantized-biased": (_CLIP_BIASED, "natural-elm", *_NATURAL),
    "trained-zf-quantized": (_UNBIASED, "natural-elm", *_NATURAL),
    # the adaptive variants: the natural-ELM readout under gamma.oselm
    "oselm": (_STACK, "oselm", _oselm_train,
              lambda m, R: detect_natural_elm(m[1], R)),
    "retrain-benchmark": (_STACK, "oselm", *_NATURAL),
    "frozen": (_STACK, "oselm", lambda t, R, X, gamma: t.models["oselm"][1],
               _NATURAL[1]),
}


def _static_plan(cfg: ExperimentConfig) -> list:
    """Per SNR point, on the channel at m = 0: the preamble (0 rows for
    an ideal converter), which calibrates the converter, the training
    block and the payload in chunks."""
    n = cfg.payload_len
    preamble = 0 if cfg.adc.bits is None else cfg.preamble_len
    return [block for snr_db in cfg.snr_db_list for block in [
        (preamble, snr_db, 0, True, (), "preamble_len"),
        (cfg.training_len, snr_db, 0, False, None, "training_len"),
        *((min(_CHUNK, n - done), snr_db, 0, False, None, (snr_db, -1))
          for done in range(0, n, _CHUNK))]]


# ---------------------------------------------------------------------------
# Adaptive receiver over a time-varying channel


def _tracking_plan(cfg: ExperimentConfig) -> list:
    """At snr_db_list[0] only (the rest of the list is unused): the initial
    block, which calibrates the converter and trains the oselm and frozen
    arms, then per frame the OS-ELM update's burst, the benchmark's batch
    retrain block (as if a long training block were available within the
    frame) and the whole payload (chunks would reorder the noise draws).
    H is sampled at each frame's first symbol index and held for the
    frame (block fading), which keeps the per-frame benchmark well defined."""
    ad, snr_db = cfg.adaptive, cfg.snr_db_list[0]
    plan = [(ad.init_len, snr_db, 0, True, ("oselm", "frozen"),
             "adaptive.init_len")]
    for f in range(ad.n_frames):
        m = ad.init_len + f * (ad.frame_training_len + ad.frame_data_len)
        plan += [(ad.frame_training_len, snr_db, m, False, ("oselm",),
                  "adaptive.frame_training_len"),
                 (ad.benchmark_training_len, snr_db, m, False,
                  ("retrain-benchmark",), "adaptive.benchmark_training_len"),
                 (ad.frame_data_len, snr_db, m, False, None, (snr_db, f))]
    return plan


# ---------------------------------------------------------------------------
# Runners: parallel trial execution + order-independent merge


def _cpu_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API outside Linux
        return os.cpu_count() or 1


# thread-count (getter, setter): numpy's OpenBLAS (64-bit ints), scipy's
_OPENBLAS_THREADS = (("scipy_openblas_get_num_threads64_",
                      "scipy_openblas_set_num_threads64_"),
                     ("scipy_openblas_get_num_threads",
                      "scipy_openblas_set_num_threads"))


@cache
def _loaded_openblas() -> tuple:
    """Handles of the OpenBLAS copies numpy and scipy bundle and have
    loaded into this process, found once; none under MKL or a system BLAS."""
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
    return tuple(libs)


def _run_trials(experiment, worker, cfg: ExperimentConfig, n_jobs: int):
    """Run every trial and merge their counts into sorted records."""
    if (isinstance(n_jobs, bool) or not isinstance(n_jobs, numbers.Integral)
            or n_jobs < 1):
        raise ValueError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")
    workers = min(n_jobs, cfg.trials, _cpu_count())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, [cfg] * cfg.trials,
                                    range(cfg.trials)))
    else:
        results = [worker(cfg, t) for t in range(cfg.trials)]
    merged = {}
    for counts in results:
        for key, (sym, err) in counts.items():
            s0, e0 = merged.get(key, (0, 0))
            merged[key] = (s0 + sym, e0 + err)
    return [SerRecord(experiment, *key, *merged[key], cfg.master_seed)
            for key in sorted(merged)]


def run_ser_sweep(cfg: ExperimentConfig, n_jobs: int = 1):
    """Quasi-static SER-vs-SNR sweep over the configured receivers."""
    return _run_trials("ser-sweep", partial(
        _trial, cfg.receivers, _static_plan(cfg)), cfg, n_jobs)


def run_bias_ablation(cfg: ExperimentConfig, n_jobs: int = 1):
    """Four-system comparison isolating the effect of biasing and
    quantization (the unquantized arms keep the analog clipping range).
    The ablation always quantizes: an ideal converter becomes 6 bits."""
    if cfg.adc.bits is None:
        cfg = replace(cfg, adc=replace(cfg.adc, bits=6))
    worker = partial(_trial, ABLATION_SYSTEMS, _static_plan(cfg))
    return _run_trials("bias-ablation", worker, cfg, n_jobs)


def run_adaptive(cfg: ExperimentConfig, n_jobs: int = 1):
    """Per-frame SER of the OSELM tracker, a per-frame batch-retrained
    benchmark, and a frozen receiver over a time-varying channel."""
    return _run_trials("adaptive", partial(
        _trial, ADAPTIVE_VARIANTS, _tracking_plan(cfg)), cfg, n_jobs)
