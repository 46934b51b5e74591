"""The benchmark's workloads and the layer boundaries it traces.

Why each workload exists is recorded in WORKLOADS.md next to this file.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

import elm_mimo
from elm_mimo import harness, receivers
from elm_mimo.frontend import Qam16

RUNNERS = {
    "ser-sweep": elm_mimo.run_ser_sweep,
    "bias-ablation": elm_mimo.run_bias_ablation,
    "adaptive": elm_mimo.run_adaptive,
}
PRESETS = {"desk": elm_mimo.desk_config, "paper": elm_mimo.paper_config}


@dataclass(frozen=True)
class Workload:
    experiment: str
    preset: str
    n_jobs: int = 1
    overrides: dict = field(default_factory=dict)

    def config(self, seed):
        return replace(PRESETS[self.preset](), **self.overrides,
                       master_seed=seed)

    def warmup_config(self, seed):
        """A call of about a second through the same code paths."""
        cfg = self.config(seed)
        return replace(cfg, snr_db_list=cfg.snr_db_list[:1], trials=1,
                       payload_len=4096,
                       adaptive=replace(cfg.adaptive, n_frames=1))


WORKLOADS = {
    "sweep-desk": Workload("ser-sweep", "desk"),
    "ablation-desk": Workload("bias-ablation", "desk"),
    "adaptive-paper": Workload("adaptive", "paper"),
    # One SNR point keeps a call near two seconds; the per-point work
    # does not depend on the SNR value.
    "sweep-desk-par2": Workload("ser-sweep", "desk", n_jobs=2,
                                overrides={"trials": 2,
                                           "snr_db_list": (10.0,)}),
}

DEFAULT_SEED = 0


def run_experiment(workload, cfg, out_path, n_jobs=None, recorder=None):
    """One experiment call, from config to finished CSV.  With a recorder
    the call is the root span ``harness`` and the CSV write its child."""
    runner = RUNNERS[workload.experiment]
    n_jobs = workload.n_jobs if n_jobs is None else n_jobs
    if recorder is None:
        elm_mimo.write_csv(runner(cfg, n_jobs=n_jobs), out_path)
        return
    with recorder.span("harness"):
        records = runner(cfg, n_jobs=n_jobs)
        with recorder.span("harness.write_csv"):
            elm_mimo.write_csv(records, out_path)


def _size_of(position, keyword):
    def count(args, kwargs):
        x = args[position] if len(args) > position else kwargs[keyword]
        return int(np.size(x))
    return count


def trace_targets():
    """(owner, attribute, layer name, symbol counter) for every traced
    function.  harness and receivers bind their imports by name, so each
    function is replaced where its caller looks it up."""
    h, r = harness, receivers
    return [
        (h, "transmit", "frontend.transmit", _size_of(1, "x")),
        (h, "bias_quantize", "frontend.bias_quantize", None),
        (h, "quantize_iq", "frontend.quantize_iq", None),
        (h, "calibrate_adc", "frontend.calibrate_adc", None),
        (Qam16, "demap", "frontend.demap", _size_of(1, "x")),
        (h, "draw_process", "channel.draw_process", None),
        (h, "realize", "channel.realize", None),
        (h, "train_borrowed_elm", "receivers.train_borrowed_elm", None),
        (h, "detect_borrowed_elm", "receivers.detect_borrowed_elm", None),
        (h, "detect_natural_elm", "receivers.detect_natural_elm", None),
        (h, "detect_linear", "receivers.detect_linear", None),
        (h, "zf_weights", "receivers.zf_weights", None),
        (h, "mmse_weights", "receivers.mmse_weights", None),
        (h, "oselm_update", "receivers.oselm_update", None),
        (r, "ridge_solve", "core.ridge_solve", None),
        (r, "rls_init", "core.rls_init", None),
        (r, "rls_step", "core.rls_step", None),
    ]


# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
SELF_TIMES = (
    "frontend.demap", "receivers.train_borrowed_elm",
    "receivers.detect_borrowed_elm", "core.rls_step",
    "receivers.oselm_update", "frontend.transmit", "frontend.bias_quantize",
    "frontend.quantize_iq", "core.ridge_solve", "core.rls_init",
    "receivers.detect_natural_elm", "receivers.detect_linear",
    "receivers.zf_weights", "receivers.mmse_weights",
    "frontend.calibrate_adc", "channel.draw_process", "channel.realize",
    "harness", "harness.write_csv",
)
COUNTS = ("frontend.demap.symbols", "frontend.transmit.symbols",
          "core.rls_step.calls", "core.ridge_solve.calls")
