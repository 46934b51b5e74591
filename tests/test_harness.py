"""Tests for experiment orchestration: configs, determinism, CSV output,
and sanity properties of the three experiment runners."""
import ctypes
import inspect
import json
import math
import numbers
import os
import re
import sys
import threading
import time
from dataclasses import MISSING, asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

from elm_mimo import cli, harness
from elm_mimo.channel import ChannelConfig
from elm_mimo.core import real_stack
from elm_mimo.frontend import (QAM16, AdcConfig, SalehParams, noise_planes,
                               pa_distort, quantize_iq)
from elm_mimo.harness import (ABLATION_SYSTEMS, ALL_RECEIVERS, CSV_HEADER,
                              AdaptiveConfig, ConverterConfig,
                              ExperimentConfig, config_from_dict,
                              desk_config, load_config, paper_config,
                              run_adaptive, run_bias_ablation, run_ser_sweep,
                              save_config, write_csv)


def config_to_dict(cfg):
    """cfg's JSON document as save_config writes it and json reads it."""
    return json.loads(json.dumps(asdict(cfg)))


def _small_config(**overrides):
    ch = ChannelConfig(n_antennas=16, n_users=2)
    base = dict(channel=ch, snr_db_list=(5.0, 15.0), training_len=300,
                payload_len=1000, preamble_len=200, borrowed_hidden=32,
                trials=2)
    base.update(overrides)
    return replace(desk_config(), **base)


# ---------------------------------------------------------------------------
# configs


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(snr_db_list=())
    with pytest.raises(ValueError):
        ExperimentConfig(receivers=("zf", "bogus"))
    with pytest.raises(ValueError, match="receivers"):
        ExperimentConfig(receivers=("zf", "zf"))
    with pytest.raises(ValueError, match="receivers"):
        ExperimentConfig(receivers=())
    with pytest.raises(ValueError):
        ExperimentConfig(training_len=0)
    with pytest.raises(ValueError):
        ExperimentConfig(snr_reference="mid-pa")
    with pytest.raises(ValueError):
        AdaptiveConfig(forgetting=1.5)


def test_config_rejects_bad_gamma_built_in_python():
    with pytest.raises(ValueError, match="gamma.natural_elm"):
        replace(desk_config(), gamma={"natural_elm": 1e-3})   # typo
    with pytest.raises(ValueError, match="gamma"):
        replace(desk_config(), gamma=0.5)
    # a partial dict leaves the other receivers at the default
    cfg = replace(desk_config(), gamma={"oselm": 1e-3})
    assert cfg.gamma["oselm"] == 1e-3
    assert cfg.gamma["natural-elm"] == 1.0


def test_a_config_built_in_python_holds_what_the_loader_gives():
    # a list where the schema holds a tuple is stored as the loader
    # stores it, so the config equals its own round trip
    cfg = replace(desk_config(), snr_db_list=[10.0])
    assert cfg.snr_db_list == (10.0,)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert (ChannelConfig(mean_aoa_range_rad=[0.0, 1.0])
            == ChannelConfig(mean_aoa_range_rad=(0.0, 1.0)))


def test_a_config_holds_its_own_copy_of_gamma():
    # the caller's dict, changed after the range check, changes nothing
    gamma = {"oselm": 1e-3}
    cfg = replace(desk_config(), gamma=gamma)
    gamma["oselm"] = -1.0
    assert cfg.gamma["oselm"] == 1e-3


def test_config_round_trip():
    cfg = paper_config()
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_config_file_round_trip(tmp_path):
    cfg = _small_config()
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_ideal_converter_config_file_keeps_bias_and_headroom(tmp_path):
    # the bias and the ablation's full scale apply without a quantizer too
    cfg = _small_config(adc=ConverterConfig(bits=None, headroom=2.0,
                                             bias_scale=0.0))
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_unknown_key_named(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"snr_db_list": [10], "volume": 11}))
    with pytest.raises(ValueError, match="volume"):
        load_config(path)


def test_config_unknown_nested_key_named():
    with pytest.raises(ValueError, match="spacing"):
        config_from_dict({"channel": {"n_antennas": 8, "spacing": 2}})


def test_a_bypassed_amplifier_is_saved_as_null(tmp_path):
    cfg = _small_config(saleh=None)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert '"saleh": null' in path.read_text(encoding="utf-8")
    assert load_config(path) == cfg


def test_a_partial_gamma_is_completed_from_the_defaults():
    built = replace(desk_config(), gamma={"oselm": 1e-3})
    loaded = config_from_dict({"gamma": {"oselm": 1e-3}})
    for cfg in (built, loaded):
        assert list(cfg.gamma) == list(harness.TRAINED)
        assert cfg.gamma == {"natural-elm": 1.0, "borrowed-elm": 1.0,
                             "trained-zf": 1.0, "oselm": 1e-3}
    assert built == loaded


def test_config_file_not_utf8_is_named(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"snr_db_list": [10, \xff]}')
    with pytest.raises(ValueError, match="malformed config file "
                       + re.escape(str(path)) + ": .*utf-8"):
        load_config(path)
    rc = cli.main(["ser-sweep", "--config", str(path),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert f"malformed config file {path}" in capsys.readouterr().err


def test_config_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_config(path)


def test_config_special_forms():
    cfg = config_from_dict({"saleh": "bypass", "adc": "ideal", "gamma": 0.5})
    assert cfg.saleh is None
    assert cfg.adc.bits is None
    assert cfg.gamma["natural-elm"] == 0.5
    assert cfg.gamma["oselm"] == 0.5
    ideal = config_from_dict({"adc": {"bits": None, "bias_scale": 0.0}})
    assert ideal.adc == ConverterConfig(bits=None, bias_scale=0.0)


def test_config_null_is_judged_by_the_field_type():
    # a JSON null is admitted where the field may be None, so a null
    # amplifier is the bypass, and refused with its key named elsewhere
    assert (config_from_dict({"saleh": None})
            == config_from_dict({"saleh": "bypass"}))


# ---------------------------------------------------------------------------
# records and CSV


def test_sweep_record_cardinality():
    cfg = _small_config(snr_db_list=(0.0, 5.0, 10.0, 15.0), trials=1,
                        payload_len=400)
    recs = run_ser_sweep(cfg)
    assert len(recs) == 4 * len(ALL_RECEIVERS)
    for rec in recs:
        assert rec.experiment == "ser-sweep"
        assert rec.frame == -1
        assert rec.symbols == 400 * 2  # payload x users, pooled
        assert 0 <= rec.errors <= rec.symbols
        assert rec.ser == rec.errors / rec.symbols


def test_csv_header_and_shape(tmp_path):
    cfg = _small_config(trials=1, payload_len=400)
    path = tmp_path / "out.csv"
    write_csv(run_ser_sweep(cfg), path)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "experiment,receiver,snr_db,frame,symbols,errors,ser,seed"
    assert text.endswith("\n") and "\r" not in text
    assert len(lines) == 1 + 2 * len(ALL_RECEIVERS) + 1


def test_csv_empty_records(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_determinism_identical_runs(tmp_path):
    cfg = _small_config()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(run_ser_sweep(cfg), a)
    write_csv(run_ser_sweep(cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_determinism_independent_of_parallelism(tmp_path):
    cfg = _small_config(trials=3, payload_len=400)
    serial = tmp_path / "serial.csv"
    par = tmp_path / "par.csv"
    write_csv(run_ser_sweep(cfg, n_jobs=1), serial)
    write_csv(run_ser_sweep(cfg, n_jobs=3), par)
    assert serial.read_bytes() == par.read_bytes()


def test_different_seed_changes_output():
    cfg = _small_config(payload_len=2000)
    recs_a = run_ser_sweep(cfg)
    recs_b = run_ser_sweep(replace(cfg, master_seed=99))
    assert any(a.errors != b.errors for a, b in zip(recs_a, recs_b))


@pytest.mark.parametrize("run", [run_ser_sweep, run_bias_ablation,
                                 run_adaptive])
def test_per_user_rows_sum_to_the_pooled_rows(run):
    cfg = _small_config(payload_len=500, adaptive=AdaptiveConfig(
        init_len=300, frame_training_len=20, frame_data_len=60,
        benchmark_training_len=300, n_frames=2))
    pooled = {(r.receiver, r.snr_db, r.frame): (r.symbols, r.errors)
              for r in run(cfg)}
    summed = {}
    for r in run(replace(cfg, per_user=True)):
        receiver, user = r.receiver.rsplit("/", 1)
        assert user in ("user0", "user1")
        key = (receiver, r.snr_db, r.frame)
        sym, err = summed.get(key, (0, 0))
        summed[key] = (sym + r.symbols, err + r.errors)
    assert summed == pooled
    assert any(err for _, err in pooled.values())


def test_per_user_records():
    cfg = _small_config(trials=1, payload_len=400, per_user=True,
                        receivers=("zf",), snr_db_list=(10.0,))
    recs = run_ser_sweep(cfg)
    assert sorted(r.receiver for r in recs) == ["zf/user0", "zf/user1"]
    assert all(r.symbols == 400 for r in recs)


# ---------------------------------------------------------------------------
# sweep physics sanity


def test_ideal_chain_zf_near_perfect():
    # PA bypass + ideal ADC at 30 dB: array gain makes errors vanishingly
    # rare for ZF with the true channel
    ch = ChannelConfig(n_antennas=64, n_users=8)
    cfg = replace(desk_config(), channel=ch, saleh=None,
                  adc=ConverterConfig(bits=None),
                  snr_db_list=(30.0,), training_len=300,
                  payload_len=125_000, receivers=("zf",), trials=1)
    recs = run_ser_sweep(cfg)
    assert recs[0].symbols == 1_000_000
    assert recs[0].ser < 1e-4


def test_sweep_ser_decreases_with_snr():
    cfg = _small_config(snr_db_list=(0.0, 12.0), payload_len=4000,
                        saleh=None, receivers=("natural-elm", "mmse"))
    recs = run_ser_sweep(cfg)
    by = {(r.receiver, r.snr_db): r.ser for r in recs}
    for recv in ("natural-elm", "mmse"):
        assert by[(recv, 12.0)] < by[(recv, 0.0)]


@pytest.mark.parametrize("reference", ["post-pa", "pre-pa"])
def test_mmse_regularizes_with_the_noise_to_signal_ratio(monkeypatch,
                                                         reference):
    # the noise is sigma^2 = power / snr, the power being P = E|f(c)|^2
    # under post-pa and 1 under pre-pa, so MMSE's ridge term sigma^2 / P
    # is 1 / snr under post-pa and 1 / (snr P) under pre-pa
    snrs = []
    fit = harness.mmse_weights
    monkeypatch.setattr(harness, "mmse_weights",
                        lambda H, snr: snrs.append(snr) or fit(H, snr))
    run_ser_sweep(_small_config(snr_db_list=(10.0,), trials=1,
                                payload_len=100, receivers=("mmse",),
                                snr_reference=reference))
    P = float(np.mean(np.abs(pa_distort(QAM16.points, SalehParams())) ** 2))
    assert 0.8 < P < 0.9
    if reference == "post-pa":
        assert snrs == [10.0]
    else:
        assert snrs == [pytest.approx(10.0 * P, rel=1e-12)]


def test_trials_spread_the_pooled_ser_wider_than_binomial():
    """Symbols within one trial share its channel, training block and
    readout, so they are not independent draws: the between-trial standard
    error of the pooled SER exceeds the binomial one.  Their ratio, at
    20 dB, N = 16, K = 2, 8 trials of 10^4 payload symbols, measured
    2.26 at seed 0 and 1.9-3.1 over seeds 0-7 for trained-zf, and 5.29 at
    seed 0 and 2.6-6.5 over seeds 0-7 for genie zf."""
    cfg = replace(_small_config(snr_db_list=(20.0,), training_len=1000,
                                payload_len=5000,
                                receivers=("trained-zf", "zf")),
                  gamma={"trained-zf": 1e-3})
    plan = harness._static_plan(cfg)
    runs = [harness._trial(cfg.receivers, plan, cfg, t) for t in range(8)]
    for name in cfg.receivers:
        sym, err = np.array([r[name, 20.0, -1] for r in runs]).T
        p = err.sum() / sym.sum()
        between = np.std(err / sym, ddof=1) / math.sqrt(len(runs))
        assert between > 1.5 * math.sqrt(p * (1 - p) / sym.sum()), name


# ---------------------------------------------------------------------------
# bias/quantization ablation


def test_ablation_labels_and_cardinality():
    cfg = _small_config(snr_db_list=(5.0, 10.0), trials=1, payload_len=400)
    recs = run_bias_ablation(cfg)
    assert len(recs) == 2 * len(ABLATION_SYSTEMS)
    for snr in (5.0, 10.0):
        labels = sorted(r.receiver for r in recs if r.snr_db == snr)
        assert labels == sorted(ABLATION_SYSTEMS)


def test_ablation_bias_immaterial_without_pa():
    # on a purely linear chain the learned affine fit absorbs the bias:
    # biased and unbiased unquantized arms agree within Monte Carlo noise
    cfg = _small_config(saleh=None, snr_db_list=(10.0,), payload_len=10_000,
                        trials=2)
    recs = run_bias_ablation(cfg)
    by = {r.receiver: r for r in recs}
    a = by["trained-zf-unquantized"]
    b = by["trained-zf-unquantized-biased"]
    p = (a.errors + b.errors) / (a.symbols + b.symbols)
    se = math.sqrt(max(p * (1 - p), 1e-12) / a.symbols)
    assert abs(a.ser - b.ser) <= 2 * se + 1e-9


@pytest.mark.parametrize("bits", [6, 2])
def test_the_front_ends_agree_behind_an_unbiased_quantizer(bits):
    # both experiments walk the same draws into the same calibrated
    # converter, and both read its zero-bias bias_quantize(y) through
    # _UNBIASED.  So under the default gammas, equal for natural-elm and
    # trained-zf, the sweep's natural-elm and trained-zf rows are the
    # ablation's natural-elm and trained-zf-quantized rows.  An ideal
    # converter is left out: the ablation makes it 6 bits.
    cfg = _small_config(adc=ConverterConfig(bits=bits))
    assert cfg.gamma["natural-elm"] == cfg.gamma["trained-zf"]
    sweep, ablation = ({(r.receiver, r.snr_db): (r.symbols, r.errors)
                        for r in run(cfg)}
                       for run in (run_ser_sweep, run_bias_ablation))
    for snr_db in cfg.snr_db_list:
        assert sweep["natural-elm", snr_db] == ablation["natural-elm", snr_db]
        assert (sweep["trained-zf", snr_db]
                == ablation["trained-zf-quantized", snr_db])


@pytest.mark.parametrize("bits, full_scale", [
    (1, 3.0), (2, 3.0), (6, 3.0), (12, 3.0), (None, 2.0), (None, math.inf)])
def test_the_unbiased_front_end_leaves_the_biases_off(bits, full_scale):
    # the converter holds nonzero biases; _UNBIASED reads it as the
    # unbiased I/Q quantization, stacked, and so differs from _STACK.
    # Quantized, the zero-bias sum is bitwise the same; unquantized, only
    # an exact zero could change sign, and y holds none
    rng = np.random.default_rng(3)
    y = rng.standard_normal((500, 8)) + 1j * rng.standard_normal((500, 8))
    adc = AdcConfig(bits, full_scale, *rng.uniform(-0.5, 0.5, (2, 8)))
    unbiased, old = harness._UNBIASED(y, adc), real_stack(quantize_iq(y, adc))
    assert np.array_equal(unbiased, old)
    if bits is not None:
        assert unbiased.tobytes() == old.tobytes()
    assert not np.array_equal(unbiased, harness._STACK(y, adc))
    # _CLIP and _CLIP_BIASED leave the quantizer off at any bit width: the
    # full scale clips the stack (y reaches past 3), without and with the
    # biases
    F, stack = adc.full_scale, real_stack(y)
    assert (harness._CLIP(y, adc).tobytes()
            == np.clip(stack, -F, F).tobytes())
    assert (harness._CLIP_BIASED(y, adc).tobytes() == np.clip(
        stack + np.concatenate([adc.bias_re, adc.bias_im]), -F, F).tobytes())


# ---------------------------------------------------------------------------
# adaptive experiment


def _adaptive_config(**overrides):
    ch = ChannelConfig(n_antennas=8, n_users=2, velocity_mps=100 / 3.6)
    base = dict(channel=ch, saleh=None, snr_db_list=(8.0,), trials=2,
                gamma={"oselm": 1e-3},
                adaptive=AdaptiveConfig(n_frames=6))
    base.update(overrides)
    return replace(desk_config(), **base)


def test_adaptive_record_structure():
    cfg = _adaptive_config()
    recs = run_adaptive(cfg)
    assert len(recs) == 6 * 3  # frames x (oselm, retrain-benchmark, frozen)
    names = {r.receiver for r in recs}
    assert names == {"oselm", "retrain-benchmark", "frozen"}
    frames = sorted(r.frame for r in recs if r.receiver == "oselm")
    assert frames == list(range(6))


def test_adaptive_static_channel_flat_and_tracking_pointless():
    # v = 0: the frozen receiver never degrades, so per-frame SER of all
    # variants stays statistically flat
    ch = ChannelConfig(n_antennas=8, n_users=2, velocity_mps=0.0)
    cfg = _adaptive_config(channel=ch, trials=2)
    recs = run_adaptive(cfg)
    frozen = sorted((r.frame, r.ser) for r in recs if r.receiver == "frozen")
    sers = np.array([s for _, s in frozen])
    pooled = np.mean(sers)
    se = math.sqrt(max(pooled * (1 - pooled), 1e-9) /
                   (cfg.adaptive.frame_data_len * 2 * cfg.trials))
    assert np.abs(sers - pooled).max() <= 4 * se + 1e-9


def test_adaptive_lambda_one_static_converges_to_batch():
    # lambda = 1 on a static channel: the tracked weights approach the
    # batch solution on all data seen so far
    from elm_mimo.channel import draw_process, realize
    from elm_mimo.frontend import ideal_adc, bias_quantize, transmit
    from elm_mimo.receivers import (oselm_init, oselm_update, oselm_weights,
                                    train_natural_elm)
    rng = np.random.default_rng(0)
    H = realize(draw_process(ChannelConfig(n_antennas=8, n_users=2), 0), 0)
    adc = ideal_adc()

    def block(n):
        x = QAM16.symbols(QAM16.random_labels(rng, (n, 2)))
        return bias_quantize(transmit(H, x, 0.05, rng, None), adc), x

    R_all, X_all = block(300)
    state = oselm_init(R_all, X_all, 1e-3, 1.0)
    dists = []
    for _ in range(5):
        Rc, Xc = block(100)
        state = oselm_update(state, Rc, Xc)
        R_all = np.vstack([R_all, Rc])
        X_all = np.vstack([X_all, Xc])
        batch = train_natural_elm(R_all, X_all, 1e-3)
        w = oselm_weights(state, 1e-3)
        dists.append(np.linalg.norm(w.beta_re - batch.beta_re)
                     + np.linalg.norm(w.beta_im - batch.beta_im))
    assert max(dists) <= 1e-7


def test_adaptive_parallel_determinism():
    cfg = _adaptive_config(trials=3)
    assert run_adaptive(cfg, n_jobs=1) == run_adaptive(cfg, n_jobs=3)


def _fading_config():
    """Forgetting so fast that the OS-ELM's regularization fades out and
    its normal equations turn singular within the first frame."""
    return _small_config(adaptive=AdaptiveConfig(forgetting=0.1,
                                                 n_frames=1))


def test_adaptive_singular_solve_names_its_keys(tmp_path, capsys):
    with pytest.raises(ValueError, match="'adaptive.forgetting'.*"
                                         "'gamma.oselm'"):
        run_adaptive(_fading_config())
    cfg_path = tmp_path / "cfg.json"
    save_config(_fading_config(), cfg_path)
    out = tmp_path / "o.csv"
    rc = cli.main(["adaptive", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'adaptive.forgetting'" in err and "'gamma.oselm'" in err
    assert not out.exists()


@pytest.mark.parametrize("command, readout", [
    ("ser-sweep", "natural-elm"), ("bias-ablation", "natural-elm"),
    ("adaptive", "oselm")])
def test_singular_readout_names_the_converter_keys(tmp_path, capsys,
                                                   command, readout):
    # a converter step and bias far above the signal leave each column
    # of the biased stack constant: rank one, beyond what gamma = 1 lifts
    cfg_path = tmp_path / "cfg.json"
    save_config(_small_config(adc=ConverterConfig(headroom=1e6,
                                                  bias_scale=1e6)), cfg_path)
    out = tmp_path / "o.csv"
    assert cli.main([command, "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    for key in (f"gamma.{readout}", "adc.headroom", "adc.bias_scale"):
        assert f"'{key}'" in err
    # no update has run, so the forgetting factor is not to blame
    assert "adaptive.forgetting" not in err
    assert not out.exists()


# gamma = 0 on a 16-antenna, 2-user channel: a fit on fewer rows than its
# readout's regressors (2N = 32, or borrowed_hidden) is singular
_UNREGULARIZED = {"channel": {"n_antennas": 16, "n_users": 2}, "gamma": 0.0,
                  "snr_db_list": [10.0], "payload_len": 1000,
                  "preamble_len": 200}
_FRAME = {"frame_training_len": 10, "frame_data_len": 50, "n_frames": 1}


@pytest.mark.parametrize("run, data, named", [
    (run_ser_sweep, {"adc": "ideal", "training_len": 20,
                     "receivers": ["natural-elm"]}, "'training_len' (now 20"),
    (run_ser_sweep, {"training_len": 40, "borrowed_hidden": 64,
                     "receivers": ["borrowed-elm"]}, "'training_len' (now 40"),
    (run_bias_ablation, {"training_len": 20}, "'training_len' (now 20"),
    (run_adaptive, {"adaptive": {**_FRAME, "init_len": 20}},
     "'adaptive.init_len' (now 20"),
    (run_adaptive, {"adaptive": {**_FRAME, "init_len": 300,
                                 "benchmark_training_len": 20}},
     "'adaptive.benchmark_training_len' (now 20")])
def test_singular_fit_on_a_short_block_names_the_key_that_sized_it(
        run, data, named):
    with pytest.raises(ValueError, match="singular") as exc:
        run(config_from_dict({**_UNREGULARIZED, **data}))
    assert named in str(exc.value)


def test_singular_fit_names_no_block_key_when_rows_are_no_remedy():
    # 300 rows against 32 regressors; then an OS-ELM update on 10 rows,
    # which starts from a model and fails because the model faded
    with pytest.raises(ValueError, match="singular") as exc:
        run_ser_sweep(_small_config(adc=ConverterConfig(headroom=1e6,
                                                        bias_scale=1e6)))
    assert "training_len" not in str(exc.value)
    cfg = _fading_config()
    cfg = replace(cfg, adaptive=replace(cfg.adaptive, forgetting=1e-3,
                                        frame_training_len=10))
    with pytest.raises(ValueError, match="adaptive.forgetting") as exc:
        run_adaptive(cfg)
    assert "_len" not in str(exc.value)


def test_cli_names_the_key_that_sized_a_short_block(tmp_path, capsys):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg_path.write_text(json.dumps({**_UNREGULARIZED, "adc": "ideal",
                                    "training_len": 20,
                                    "receivers": ["natural-elm"]}))
    assert cli.main(["ser-sweep", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    assert "'training_len' (now 20" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("run, data, arm, readout", [
    (run_bias_ablation, {"training_len": 20}, "trained-zf-unquantized",
     "natural-elm"),
    (run_adaptive, {"adaptive": {**_FRAME, "init_len": 300,
                                 "benchmark_training_len": 20}},
     "retrain-benchmark", "oselm")])
def test_singular_fit_names_the_failing_arm(run, data, arm, readout):
    # the arm fits under another arm's gamma key, which alone would point
    # at that other arm
    with pytest.raises(ValueError, match=f"in the {arm} arm") as exc:
        run(config_from_dict({**_UNREGULARIZED, **data}))
    assert f"'gamma.{readout}'" in str(exc.value)


def test_rank_deficient_genie_channel_names_the_channel_keys(tmp_path,
                                                            capsys):
    # one ray of zero spread at one fixed angle gives both users the same
    # column of H: genie ZF has no full-rank H^H H to invert
    data = {"channel": {"n_antennas": 16, "n_users": 2, "n_rays": 1,
                        "angular_spread_deg": 1e-9,
                        "mean_aoa_range_rad": [0.3, 0.3]},
            "receivers": ["zf"], "training_len": 300, "payload_len": 1000,
            "snr_db_list": [10.0]}
    keys = ("'channel.mean_aoa_range_rad' (now (0.3, 0.3))",
            "'channel.angular_spread_deg' (now 1e-09)",
            "'channel.n_rays' (now 1)")
    with pytest.raises(ValueError, match="rank deficient") as exc:
        run_ser_sweep(config_from_dict(data))
    assert all(key in str(exc.value) for key in keys)
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg_path.write_text(json.dumps(data))
    assert cli.main(["ser-sweep", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(key in err for key in keys)
    assert not out.exists()


def test_singular_readout_on_an_ideal_converter_names_no_headroom(tmp_path,
                                                                  capsys):
    # 20 rows against 2N = 32 regressors at gamma = 0 leave G singular;
    # an ideal converter has no full scale, so its headroom is no remedy
    data = {"channel": {"n_antennas": 16, "n_users": 2}, "adc": "ideal",
            "gamma": 0.0, "training_len": 20, "receivers": ["natural-elm"]}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg_path.write_text(json.dumps(data))
    assert cli.main(["ser-sweep", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'gamma.natural-elm'" in err and "'adc.bias_scale'" in err
    assert "adc.headroom" not in err
    assert not out.exists()


@pytest.mark.parametrize("run", [run_ser_sweep, run_bias_ablation,
                                 run_adaptive])
@pytest.mark.parametrize("n_jobs", [0, -1, 1.5, "2", True])
def test_runners_reject_bad_n_jobs(run, n_jobs):
    with pytest.raises(ValueError, match="n_jobs"):
        run(_small_config(), n_jobs=n_jobs)


_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads")


def _blas_threads():
    """Thread count of each loaded bundled OpenBLAS, read through the
    library's own getter."""
    counts = []
    for lib in harness._loaded_openblas():
        name = next(n for n in _OPENBLAS_GETTERS if hasattr(lib, n))
        getter = getattr(lib, name)
        getter.argtypes = []
        getter.restype = ctypes.c_int
        counts.append(getter())
    return counts


def _trial_blas_threads(cfg, trial):
    """A trial that reports its process and the BLAS thread counts it
    runs under, as a record key."""
    with harness._Trial(cfg, trial, []):
        return {(os.getpid(), tuple(_blas_threads()), -1): (1, 0)}


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its worker count and
    runs the first trial in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def map(self, worker, cfgs, trials):
        return [worker(cfgs[0], trials[0])]


@pytest.mark.parametrize("n_jobs, trials, nproc, shape", [
    (1, 8, 4, (1, 1)),
    (2, 8, 4, (2, 1)),
    (3, 8, 4, (3, 1)),
    (64, 8, 4, (4, 1)),     # capped by the cores
    (64, 2, 4, (2, 1)),     # capped by the trials
    (2, 1, 4, (1, 1)),      # one trial never needs a pool
    (4, 8, 1, (1, 1)),
    (10**6, 10**6, 2, (2, 1)),
])
def test_pool_shape_caps_workers_and_pins_one_blas_thread(
        monkeypatch, n_jobs, trials, nproc, shape):
    # shape = (workers, BLAS threads per trial): _run_trials starts at
    # most n_jobs workers, one per trial and per core, and a _Trial runs
    # on one BLAS thread whatever the worker count
    sizes = []
    monkeypatch.setattr(harness, "_cpu_count", lambda: nproc)
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(sizes, max_workers))
    recs = harness._run_trials("blas", _trial_blas_threads,
                               _small_config(trials=trials), n_jobs)
    seen = {n for rec in recs for n in rec.snr_db}
    assert (max(sizes, default=1), max(seen, default=1)) == shape
    assert len(sizes) == (shape[0] > 1)


def _needs_openblas():
    if not _blas_threads():
        pytest.skip("numpy and scipy do not use their bundled OpenBLAS")


def _threads_in_trials(n_jobs):
    """{(pid, BLAS thread counts)} seen inside the trials of one run."""
    recs = harness._run_trials("blas", _trial_blas_threads,
                               _small_config(trials=4), n_jobs)
    return {(r.receiver, r.snr_db) for r in recs}


def test_serial_trials_run_on_one_blas_thread():
    _needs_openblas()
    before = _blas_threads()
    assert _threads_in_trials(1) == {(os.getpid(), (1,) * len(before))}
    assert _blas_threads() == before


def test_pool_workers_get_their_share_of_blas_threads():
    _needs_openblas()
    before = _blas_threads()
    seen = _threads_in_trials(2)
    assert {counts for _, counts in seen} == {(1,) * len(before)}
    if harness._cpu_count() > 1:
        assert os.getpid() not in {pid for pid, _ in seen}
    assert _blas_threads() == before


def test_loaded_openblas_finds_both_bundled_copies():
    # the pin would silently do nothing if the wheels renamed them
    for package in (np, scipy):
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas.get("name") != "scipy-openblas":
            continue
        libdir = f"{package.__name__}.libs"
        assert any(Path(lib._name).parent.name == libdir
                   for lib in harness._loaded_openblas()), libdir


@pytest.fixture(params=[1, 2])
def caller_blas_threads(request):
    """The caller's BLAS thread counts, set to 1 or 2 for the test."""
    _needs_openblas()
    original = _blas_threads()
    setters = [getattr(lib, n.replace("_get_", "_set_"))
               for lib in harness._loaded_openblas()
               for n in _OPENBLAS_GETTERS if hasattr(lib, n)]
    for put in setters:
        put(request.param)
    yield _blas_threads()
    for put, n in zip(setters, original):
        put(n)


@pytest.mark.parametrize("run", [run_ser_sweep, run_adaptive])
def test_runs_give_the_caller_its_blas_threads_back(caller_blas_threads,
                                                   run):
    cfg = _small_config(trials=1, snr_db_list=(10.0,), payload_len=200,
                        adaptive=AdaptiveConfig(n_frames=1))
    run(cfg)
    assert _blas_threads() == caller_blas_threads
    # also when the trial ends in the singular-readout error
    with pytest.raises(ValueError, match="singular"):
        run(replace(cfg, adc=ConverterConfig(headroom=1e6, bias_scale=1e6)))
    assert _blas_threads() == caller_blas_threads


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_failed_trial_gives_the_caller_its_blas_threads_back(
        caller_blas_threads, n_jobs):
    with pytest.raises(ValueError, match="adaptive.forgetting"):
        run_adaptive(_fading_config(), n_jobs=n_jobs)
    assert _blas_threads() == caller_blas_threads


# ---------------------------------------------------------------------------
# CLI


def test_cli_ser_sweep_and_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    save_config(_small_config(trials=1, payload_len=400), cfg_path)
    out = tmp_path / "out.csv"
    rc = cli.main(["ser-sweep", "--config", str(cfg_path),
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * len(ALL_RECEIVERS)


def test_cli_receiver_subset_and_seed(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    save_config(_small_config(trials=1, payload_len=400,
                              snr_db_list=(10.0,)), cfg_path)
    out = tmp_path / "out.csv"
    rc = cli.main(["ser-sweep", "--config", str(cfg_path), "--seed", "7",
                   "--receivers", "zf,mmse", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert sorted(r.split(",")[1] for r in rows) == ["mmse", "zf"]
    assert all(r.split(",")[-1] == "7" for r in rows)


def test_cli_rejects_bad_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"nonsense": 1}))
    rc = cli.main(["ser-sweep", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 2


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_rejects_parallel_below_one(tmp_path, capsys, value):
    out = tmp_path / "o.csv"
    rc = cli.main(["ser-sweep", "--out", str(out), "--parallel", value])
    assert rc == 2
    assert "--parallel" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_non_integer_parallel(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ser-sweep", "--out", str(tmp_path / "o.csv"),
                  "--parallel", "1.5"])
    assert exc.value.code == 2
    assert "--parallel" in capsys.readouterr().err


def test_cli_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "o.csv"
    rc = cli.main(["ser-sweep", "--seed", "-1", "--out", str(out)])
    assert rc == 2
    assert "master_seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bias-ablation", "adaptive"])
def test_cli_offers_receivers_to_the_sweep_alone(tmp_path, capsys,
                                                 monkeypatch, command):
    # the other experiments run fixed arms: the flag is refused, not
    # silently dropped, before anything runs
    runs = []
    monkeypatch.setitem(cli._EXPERIMENTS, command,
                        (lambda *a, **k: runs.append(a) or [], command))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--receivers", "zf",
                  "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert "--receivers" in capsys.readouterr().err
    assert runs == []


def test_cli_rejects_repeated_receiver(tmp_path, capsys):
    out = tmp_path / "o.csv"
    rc = cli.main(["ser-sweep", "--receivers", "zf,zf", "--out", str(out)])
    assert rc == 2
    assert "receivers" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_an_empty_receiver_list(tmp_path, capsys, monkeypatch):
    # an empty --receivers names no receiver: it is refused, not read as
    # "all five"
    runs = []
    monkeypatch.setitem(cli._EXPERIMENTS, "ser-sweep",
                        (lambda *a, **k: runs.append(a) or [], "sweep"))
    out = tmp_path / "o.csv"
    assert cli.main(["ser-sweep", "--receivers", "", "--out", str(out)]) == 2
    assert "receivers" in capsys.readouterr().err
    assert runs == [] and not out.exists()


@pytest.mark.parametrize("out", ["missing/o.csv", "."])
def test_cli_rejects_an_unwritable_out_before_running(tmp_path, capsys,
                                                       monkeypatch, out):
    # a missing directory or a directory in place of the file fails at
    # once, not after the whole experiment
    runs = []
    monkeypatch.setitem(cli._EXPERIMENTS, "ser-sweep",
                        (lambda *a, **k: runs.append(a), "sweep"))
    out = tmp_path / out
    assert cli.main(["ser-sweep", "--out", str(out)]) == 2
    assert "--out" in capsys.readouterr().err
    assert runs == [] and not (tmp_path / "missing").exists()


def test_cli_config_and_preset_exclude_each_other(tmp_path, capsys,
                                                 monkeypatch):
    # naming both is refused before anything runs; naming neither runs
    # the desk preset
    runs = []
    monkeypatch.setitem(cli._EXPERIMENTS, "ser-sweep",
                        (lambda cfg, **k: runs.append(cfg) or [], "sweep"))
    cfg_path, out = tmp_path / "cfg.json", str(tmp_path / "o.csv")
    save_config(_small_config(), cfg_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["ser-sweep", "--config", str(cfg_path), "--preset",
                  "paper", "--out", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--config" in err and "--preset" in err
    assert runs == []
    assert cli.main(["ser-sweep", "--out", out]) == 0
    assert runs == [desk_config()]


def test_cli_paper_preset_loads_the_paper_config():
    # parsed and loaded only: nothing runs
    args = cli._build_parser().parse_args(
        ["ser-sweep", "--preset", "paper", "--out", "x.csv"])
    assert cli._load(args) == paper_config()


def test_cli_adaptive_notes_the_snr_points_it_drops(tmp_path, capsys):
    # the adaptive experiment runs at snr_db_list[0] alone: a longer list
    # earns one note on stderr and leaves the exit code and the CSV as
    # they are
    outputs = []
    for snr_db_list in [(5.0, 15.0), (5.0,)]:
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        save_config(_small_config(
            trials=1, snr_db_list=snr_db_list, adaptive=AdaptiveConfig(
                init_len=300, frame_training_len=20, frame_data_len=50,
                benchmark_training_len=300, n_frames=1)), cfg_path)
        assert cli.main(["adaptive", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().err, out.read_bytes()))
    (noted, two), (silent, one) = outputs
    assert len(noted.splitlines()) == 1
    assert "snr_db_list[0] = 5 dB" in noted and silent == ""
    assert two == one


# ---------------------------------------------------------------------------
# config schema and types


# the on-disk schema of desk_config(), written out: saved configs in this
# form must keep loading, and the writer must keep producing it
DESK_DICT = {
    "channel": {"n_antennas": 64, "n_users": 10, "carrier_hz": 2e9,
                "symbol_duration_s": 1e-06, "angular_spread_deg": 10.0,
                "n_rays": 5, "velocity_mps": 0.0,
                "mean_aoa_range_rad": [-1.5707963267948966,
                                       1.5707963267948966]},
    "saleh": {"alpha_a": 1.96, "eps_a": 0.99, "alpha_phi": 2.53,
              "eps_phi": 2.82},
    "adc": {"bits": 6, "headroom": 3.0, "bias_scale": 0.1},
    "snr_db_list": [0.0, 5.0, 10.0, 15.0, 20.0],
    "training_len": 3000, "payload_len": 20000, "preamble_len": 500,
    "receivers": ["natural-elm", "borrowed-elm", "trained-zf", "zf", "mmse"],
    "gamma": {"natural-elm": 1.0, "borrowed-elm": 1.0, "trained-zf": 1.0,
              "oselm": 1.0},
    "borrowed_hidden": 512,
    "adaptive": {"init_len": 3000, "frame_training_len": 300,
                 "frame_data_len": 1700, "forgetting": 0.98, "n_frames": 10,
                 "benchmark_training_len": 3000},
    "trials": 1, "master_seed": 0, "per_user": False,
    "snr_reference": "post-pa",
}
PAPER_DICT = {**DESK_DICT, "channel": {**DESK_DICT["channel"],
                                       "n_antennas": 256}}


@pytest.mark.parametrize("make, expected", [(desk_config, DESK_DICT),
                                            (paper_config, PAPER_DICT)])
def test_config_schema_unchanged(tmp_path, make, expected):
    assert config_to_dict(make()) == expected
    # a file in the established format (json.dump, indent 2, final
    # newline, keys in schema order) loads and is written back unchanged
    text = json.dumps(expected, indent=2) + "\n"
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert load_config(path) == make()
    save_config(make(), path)
    assert path.read_text() == text


def test_public_names_unchanged():
    assert ALL_RECEIVERS == ("natural-elm", "borrowed-elm", "trained-zf",
                             "zf", "mmse")
    assert ABLATION_SYSTEMS == ("trained-zf-unquantized",
                                "trained-zf-unquantized-biased",
                                "trained-zf-quantized", "natural-elm")
    assert harness.ADAPTIVE_VARIANTS == ("oselm", "retrain-benchmark",
                                         "frozen")
    for run in (run_ser_sweep, run_bias_ablation, run_adaptive):
        params = inspect.signature(run).parameters
        assert list(params) == ["cfg", "n_jobs"]
        assert params["n_jobs"].default == 1


@pytest.mark.parametrize("data, key", [
    ({"trials": "3"}, "trials"),
    ({"trials": 3.0}, "trials"),
    ({"master_seed": True}, "master_seed"),
    ({"channel": [1]}, "channel"),
    ({"channel": {"n_antennas": 8.5}}, "channel.n_antennas"),
    ({"channel": {"mean_aoa_range_rad": 1.0}}, "channel.mean_aoa_range_rad"),
    ({"snr_db_list": 5}, "snr_db_list"),
    ({"snr_db_list": [10, "20"]}, "snr_db_list"),
    ({"receivers": "zf"}, "receivers"),
    ({"adaptive": 3}, "adaptive"),
    ({"adaptive": {"forgetting": "0.9"}}, "adaptive.forgetting"),
    ({"saleh": 1}, "saleh"),
    ({"saleh": {"alpha_a": None}}, "saleh.alpha_a"),
    ({"adc": 6}, "adc"),
    ({"adc": {"bits": "6"}}, "adc.bits"),
    ({"adc": {"headroom": [3]}}, "adc.headroom"),
    ({"per_user": "yes"}, "per_user"),
    ({"per_user": 1}, "per_user"),
    ({"snr_reference": 0}, "snr_reference"),
    ({"gamma": "x"}, "gamma"),
    ({"gamma": {"oselm": "x"}}, "gamma.oselm"),
    # a number replacing a float must be finite
    ({"channel": {"angular_spread_deg": math.inf}},
     "channel.angular_spread_deg"),
    ({"channel": {"angular_spread_deg": math.nan}},
     "channel.angular_spread_deg"),
    ({"channel": {"mean_aoa_range_rad": [0.0, math.nan]}},
     "channel.mean_aoa_range_rad"),
    ({"channel": {"symbol_duration_s": math.nan}},
     "channel.symbol_duration_s"),
    ({"channel": {"carrier_hz": math.nan}}, "channel.carrier_hz"),
    ({"saleh": {"alpha_a": math.nan}}, "saleh.alpha_a"),
    ({"adaptive": {"forgetting": math.nan}}, "adaptive.forgetting"),
    ({"adc": {"headroom": 10**400}}, "adc.headroom"),
    # a null where the field cannot be None
    ({"adc": None}, "adc"),
    ({"channel": None}, "channel"),
    ({"adaptive": None}, "adaptive"),
    ({"adc": {"headroom": None}}, "adc.headroom"),
])
def test_config_wrong_type_names_key(data, key):
    with pytest.raises(ValueError, match=f"'{re.escape(key)}'"):
        config_from_dict(data)


@pytest.mark.parametrize("overrides, key", [
    ({"trials": 1.5}, "trials"),
    ({"channel": {"n_antennas": 64}}, "channel"),
    ({"adaptive": 2.5}, "adaptive"),
    ({"training_len": "5"}, "training_len"),
    ({"snr_db_list": ("a",)}, "snr_db_list"),
    ({"gamma": {"oselm": "x"}}, "gamma.oselm"),
    ({"adc": {"headroom": 3.0}}, "adc"),
])
def test_config_built_in_python_wrong_type_names_key(overrides, key):
    with pytest.raises(ValueError, match=f"'{re.escape(key)}'"):
        replace(desk_config(), **overrides)


# a nested config checks itself when it is built, before any
# ExperimentConfig holds it
@pytest.mark.parametrize("cls, kwargs, key", [
    (ChannelConfig, {"n_antennas": 64.5}, "channel.n_antennas"),
    (AdaptiveConfig, {"n_frames": 2.5}, "adaptive.n_frames"),
    (ChannelConfig, {"n_rays": "5"}, "channel.n_rays"),
    (AdaptiveConfig, {"n_frames": "2"}, "adaptive.n_frames"),
    (SalehParams, {"eps_a": "x"}, "saleh.eps_a"),
    (ConverterConfig, {"headroom": math.inf}, "adc.headroom"),
])
def test_nested_config_constructor_wrong_type_names_key(cls, kwargs, key):
    with pytest.raises(ValueError, match=f"'{re.escape(key)}'"):
        cls(**kwargs)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_channel_config_rejects_non_finite_angular_spread(value):
    # an infinite spread would leave the truncated-Laplacian draw looping
    with pytest.raises(ValueError, match="channel.angular_spread_deg"):
        ChannelConfig(angular_spread_deg=value)


# one out-of-range value per range-checked key
OUT_OF_RANGE = [
    ({"adc": {"bits": 0}}, "adc.bits"),
    ({"adc": {"headroom": -1.0}}, "adc.headroom"),
    ({"adc": {"bias_scale": -0.1}}, "adc.bias_scale"),
    ({"channel": {"mean_aoa_range_rad": [0.0, 1.0, 2.0]}},
     "channel.mean_aoa_range_rad"),
    ({"receivers": ["zf", "zf"]}, "receivers"),
    ({"receivers": []}, "receivers"),
    ({"master_seed": -1}, "master_seed"),
    ({"gamma": {"natural-elm": -1.0}}, "gamma.natural-elm"),
    ({"gamma": {"oselm": math.nan}}, "gamma.oselm"),
    ({"gamma": -1.0}, "'gamma'"),   # the scalar's key, not gamma.<receiver>
    ({"snr_db_list": [-math.inf]}, "snr_db_list"),
    ({"snr_db_list": [5.0, math.nan]}, "snr_db_list"),
    ({"channel": {"n_rays": 0}}, "channel.n_rays"),
    ({"channel": {"n_antennas": 4}}, "channel.n_antennas"),
    ({"saleh": {"eps_a": 0.0}}, "saleh.eps_a"),
    ({"adc": {"bits": 1100}}, "adc.bits"),
    # finite values whose derived quantities overflow, or a draw that
    # never ends, without an upper bound
    ({"snr_db_list": [1e308]}, "snr_db_list"),
    ({"snr_db_list": [-1e308]}, "snr_db_list"),
    ({"adc": {"bias_scale": 1e308}}, "adc.bias_scale"),
    ({"channel": {"mean_aoa_range_rad": [1e308, -1e308]}},
     "channel.mean_aoa_range_rad"),
    ({"adc": {"headroom": 1e308}}, "adc.headroom"),
    ({"saleh": {"alpha_a": 1e308}}, "saleh.alpha_a"),
    ({"saleh": {"alpha_phi": 1e308}}, "saleh.alpha_phi"),
    ({"channel": {"velocity_mps": 1e308}}, "channel.velocity_mps"),
    ({"channel": {"angular_spread_deg": 1e308}},
     "channel.angular_spread_deg"),
    # too few calibration samples: 2 * 16 * 1 < 100
    ({"channel": {"n_antennas": 16}, "preamble_len": 1}, "preamble_len"),
    ({"channel": {"n_antennas": 16}, "adaptive": {"init_len": 1}},
     "adaptive.init_len"),
    ({"saleh": {"alpha_a": 0.0}}, "saleh.alpha_a"),
    ({"channel": {"carrier_hz": 0.0}}, "channel.carrier_hz"),
    # subnormal: the quantizer step, or the calibration samples, become 0
    ({"adc": {"headroom": 1e-320}}, "adc.headroom"),
    ({"saleh": {"alpha_a": 5e-324}}, "saleh.alpha_a"),
    # two points whose rows the CSV could not tell apart
    ({"snr_db_list": [10.0, 10.0]}, "snr_db_list"),
    ({"snr_db_list": [12.3456781, 12.3456789]}, "snr_db_list"),
    # a reversed range, which numpy's uniform draw does not refuse
    ({"channel": {"mean_aoa_range_rad": [1.0, -1.0]}},
     "channel.mean_aoa_range_rad"),
]


@pytest.mark.parametrize("data, key", OUT_OF_RANGE)
def test_out_of_range_config_names_key(tmp_path, capsys, data, key):
    with pytest.raises(ValueError, match=re.escape(key)):
        config_from_dict(data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    rc = cli.main(["ser-sweep", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_channels = st.integers(1, 8).flatmap(lambda k: st.builds(
    ChannelConfig, n_antennas=st.integers(k, 64), n_users=st.just(k),
    carrier_hz=_finite(1.0, 1e11), symbol_duration_s=_finite(1e-9, 1.0),
    angular_spread_deg=_finite(1e-3, 90.0), n_rays=st.integers(1, 16),
    velocity_mps=_finite(0.0, 1e3),
    mean_aoa_range_rad=st.tuples(_finite(-math.pi / 2, math.pi / 2),
                                 _finite(-math.pi / 2, math.pi / 2)).map(
        lambda v: tuple(sorted(v)))))

_configs = st.builds(
    ExperimentConfig,
    channel=_channels,
    saleh=st.none() | st.builds(SalehParams, alpha_a=_finite(1e-3, 10.0),
                                eps_a=_finite(1e-3, 10.0),
                                alpha_phi=_finite(0.0, 10.0),
                                eps_phi=_finite(1e-3, 10.0)),
    adc=st.builds(ConverterConfig, bits=st.none() | st.integers(1, 16),
                  headroom=_finite(1e-3, 100.0),
                  bias_scale=_finite(0.0, 10.0)),
    snr_db_list=st.lists(_finite(-30.0, 60.0), min_size=1, max_size=6,
                         unique_by=lambda v: "%g" % v).map(tuple),
    training_len=st.integers(1, 10**6),
    payload_len=st.integers(1, 10**6),
    preamble_len=st.integers(50, 10**6),
    receivers=st.permutations(ALL_RECEIVERS).flatmap(
        lambda names: st.integers(1, len(names)).map(
            lambda n: tuple(names[:n]))),
    gamma=st.dictionaries(
        st.sampled_from(("natural-elm", "borrowed-elm", "trained-zf",
                         "oselm")), _finite(0.0, 1e3)),
    borrowed_hidden=st.integers(1, 4096),
    adaptive=st.builds(AdaptiveConfig, init_len=st.integers(50, 10**5),
                       frame_training_len=st.integers(1, 10**5),
                       frame_data_len=st.integers(1, 10**5),
                       forgetting=_finite(1e-3, 1.0),
                       n_frames=st.integers(1, 100),
                       benchmark_training_len=st.integers(1, 10**5)),
    trials=st.integers(1, 100),
    master_seed=st.integers(0, 2**32 - 1),
    per_user=st.booleans(),
    snr_reference=st.sampled_from(("post-pa", "pre-pa")))


@settings(max_examples=200, deadline=None)
@given(_configs)
def test_config_round_trip_property(cfg):
    assert config_from_dict(config_to_dict(cfg)) == cfg
    # and through the JSON text a config file holds
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


# the upper bound of each bounded float key, as the README gives it
_UPPER = {"snr_db_list": 300.0, "adc.headroom": 1e6, "adc.bias_scale": 1e6,
          "saleh.alpha_a": 1e3, "saleh.eps_a": 1e3, "saleh.alpha_phi": 1e3,
          "saleh.eps_phi": 1e3, "channel.carrier_hz": 1e12,
          "channel.symbol_duration_s": 1.0, "channel.velocity_mps": 1e4,
          "channel.angular_spread_deg": 90.0,
          "channel.mean_aoa_range_rad": math.pi / 2,
          "adaptive.forgetting": 1.0}
# the lower bound of each key with a floor above 0, as the README gives it
_FLOOR = dict.fromkeys(("adc.headroom", "saleh.alpha_a", "saleh.eps_a",
                        "saleh.eps_phi"), 1e-6)
# the float keys that must be > 0
_POSITIVE = ("adc.headroom", "saleh.alpha_a", "saleh.eps_a", "saleh.eps_phi",
             "channel.carrier_hz", "channel.symbol_duration_s",
             "channel.angular_spread_deg", "adaptive.forgetting")


def _setting(key, v):
    """The JSON config that sets key to v, or a list key to hold v."""
    if key == "snr_db_list":
        return {key: [v]}
    section, name = key.split(".")
    return {section: {name: [0.0, v] if name == "mean_aoa_range_rad" else v}}


def _above(keys):
    """(key, a value above the key's upper bound), the key drawn from keys."""
    return st.sampled_from(keys).flatmap(lambda k: st.floats(
        _UPPER[k], 1e308, exclude_min=True).map(lambda v: (k, v)))


_bad_gamma = (st.floats(max_value=0.0, exclude_max=True)
              | st.sampled_from((math.inf, math.nan)))

_out_of_range = st.one_of(
    (st.integers(max_value=0) | st.integers(min_value=54)).map(
        lambda v: ({"adc": {"bits": v}}, "adc.bits")),
    (st.floats(max_value=0.0) | st.sampled_from((math.inf, math.nan))).map(
        lambda v: ({"adc": {"headroom": v}}, "adc.headroom")),
    (st.floats(max_value=0.0, exclude_max=True)
     | st.sampled_from((math.inf, math.nan))).map(
        lambda v: ({"adc": {"bias_scale": v}}, "adc.bias_scale")),
    st.lists(_finite(-4.0, 4.0)).filter(lambda v: len(v) != 2).map(
        lambda v: ({"channel": {"mean_aoa_range_rad": v}},
                   "channel.mean_aoa_range_rad")),
    st.lists(st.sampled_from(ALL_RECEIVERS)).filter(
        lambda v: not 0 < len(v) == len(set(v))).map(
        lambda v: ({"receivers": v}, "receivers")),
    st.integers(max_value=-1).map(
        lambda v: ({"master_seed": v}, "master_seed")),
    st.tuples(st.sampled_from(("natural-elm", "borrowed-elm", "trained-zf",
                               "oselm")), _bad_gamma).map(
        lambda kv: ({"gamma": {kv[0]: kv[1]}}, f"gamma.{kv[0]}")),
    _bad_gamma.map(lambda v: ({"gamma": v}, "gamma")),
    st.tuples(st.lists(_finite(-30.0, 60.0), max_size=3),
              st.sampled_from((math.inf, -math.inf, math.nan)),
              st.lists(_finite(-30.0, 60.0), max_size=3)).map(
        lambda p: ({"snr_db_list": p[0] + [p[1]] + p[2]}, "snr_db_list")),
    st.lists(_finite(-30.0, 60.0), min_size=1, max_size=3).map(
        lambda v: ({"snr_db_list": v + v[:1]}, "snr_db_list")),
    _above(sorted(_UPPER)).map(lambda kv: (_setting(*kv), kv[0])),
    # the two ranges symmetric about 0, past their lower bound
    _above(["snr_db_list", "channel.mean_aoa_range_rad"]).map(
        lambda kv: (_setting(kv[0], -kv[1]), kv[0])),
    st.sampled_from(_POSITIVE).flatmap(lambda k: st.floats(
        -1e308, 0.0).map(lambda v: (_setting(k, v), k))),
    st.sampled_from(sorted(_FLOOR)).flatmap(lambda k: st.floats(
        0.0, _FLOOR[k], exclude_max=True).map(lambda v: (_setting(k, v), k))))


@settings(max_examples=200, deadline=None)
@given(_out_of_range)
def test_config_out_of_range_property(case):
    data, key = case
    with pytest.raises(ValueError, match=re.escape(key)):
        config_from_dict(data)


def _numeric_leaf_keys(d, prefix=""):
    """The dotted keys of d's numeric leaves; list elements share their
    list's key."""
    keys = set()
    for k, v in d.items():
        if isinstance(v, dict):
            keys |= _numeric_leaf_keys(v, f"{prefix}{k}.")
        elif any(isinstance(x, numbers.Real) and not isinstance(x, bool)
                 for x in (v if isinstance(v, list) else [v])):
            keys.add(prefix + k)
    return keys


def _leaf_keys(d, prefix=""):
    """The dotted keys of d's leaves."""
    keys = set()
    for k, v in d.items():
        keys |= (_leaf_keys(v, f"{prefix}{k}.") if isinstance(v, dict)
                 else {prefix + k})
    return keys


def _field_paths(cls, prefix="", ranged=False):
    """The dotted paths of config dataclass cls's fields, a nested
    config's fields and the default dict's keys under the field's own;
    with ranged, only those of the fields that declare a range."""
    paths = set()
    for f in fields(cls):
        default = f.default_factory() if f.default is MISSING else f.default
        if is_dataclass(default):
            paths |= _field_paths(type(default), f"{prefix}{f.name}.", ranged)
        elif ranged and "range" not in f.metadata:
            continue
        elif isinstance(default, dict):
            paths |= {f"{prefix}{f.name}.{k}" for k in default}
        else:
            paths.add(prefix + f.name)
    return paths


def test_config_keys_are_the_dataclass_field_paths():
    # the JSON schema is the dataclass tree: a field renamed or flattened
    # on the way to disk would show here
    assert (_leaf_keys(config_to_dict(desk_config()))
            == _field_paths(ExperimentConfig))


def test_every_numeric_config_key_is_a_field_with_a_range():
    # a numeric field declared without bounds.bounded would take any value
    # of its type and raise nothing; desk_config() sets every
    # gamma.<receiver>, and they share the gamma field's range
    assert (_numeric_leaf_keys(config_to_dict(desk_config()))
            == _field_paths(ExperimentConfig, ranged=True))


def test_config_root_must_be_object():
    with pytest.raises(ValueError, match="root"):
        config_from_dict([1])


def test_cli_rejects_wrong_typed_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": "3"}))
    out = tmp_path / "o.csv"
    rc = cli.main(["ser-sweep", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'trials'" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# receivers as data


def test_the_receiver_table_holds_exactly_the_experiments_arms():
    # every arm of every experiment is a row, and no row is left unrun
    assert set(harness._RECEIVERS) == (set(ALL_RECEIVERS)
                                       | set(ABLATION_SYSTEMS)
                                       | set(harness.ADAPTIVE_VARIANTS))
    # and each fits under a gamma key of the config, or none
    assert all(key is None or key in harness.TRAINED
               for _, key, *_ in harness._RECEIVERS.values())


def test_each_arm_fits_with_the_gamma_its_row_names(monkeypatch):
    # a distinct gamma per key: a row fitting under another key's gamma
    # changes the gammas some fit function receives
    gamma = {"natural-elm": 0.125, "borrowed-elm": 0.25, "trained-zf": 0.5,
             "oselm": 2.0}
    expected = {  # sweep (natural-elm, trained-zf), ablation, adaptive
        "train_natural_elm": [0.125] + [0.125] * 4 + [0.5] + [2.0],
        "train_borrowed_elm": [0.25], "oselm_init": [2.0],
        "oselm_weights": [2.0, 2.0]}   # after the init and one update
    seen = {name: [] for name in expected}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            seen[name].append(bound.arguments["gamma"])
            return fn(*args, **kwargs)
        return wrapper

    for name in expected:
        monkeypatch.setattr(harness, name,
                            recording(name, getattr(harness, name)))
    cfg = _small_config(trials=1, payload_len=400, snr_db_list=(10.0,),
                        gamma=gamma)
    run_ser_sweep(cfg)
    run_bias_ablation(cfg)
    run_adaptive(replace(cfg, adaptive=AdaptiveConfig(
        init_len=300, frame_training_len=20, frame_data_len=50,
        benchmark_training_len=300, n_frames=1)))
    assert {name: sorted(g) for name, g in seen.items()} == expected


def test_trial_code_calls_functions_replaced_at_run_time(monkeypatch):
    # the receiver table and the trial helpers look functions up in the
    # harness module when called, so a replacement installed there (as a
    # tracer does) sees every call; one quantizer call per block and
    # converter serves all receivers that read it, none is made where no
    # arm reads it (the genie fits read H only), and the frozen arm
    # reuses the OS-ELM's initial model (a refit would cost a second Gram)
    expected = {  # sweep + ablation + adaptive, one block each
        "transmit": 3 + 3 + 4, "bias_quantize": 4 + 8 + 4,
        "quantize_iq": 1, "calibrate_adc": 1 + 1 + 1,
        "train_natural_elm": 2 + 4 + 1,
        "train_borrowed_elm": 1, "detect_natural_elm": 2 + 4 + 3,
        "detect_borrowed_elm": 1, "detect_linear": 2, "zf_weights": 1,
        "mmse_weights": 1, "oselm_init": 1, "oselm_update": 1}
    calls = dict.fromkeys(expected, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in expected:
        monkeypatch.setattr(harness, name,
                            counting(name, getattr(harness, name)))
    cfg = _small_config(trials=1, payload_len=400, snr_db_list=(10.0,))
    run_ser_sweep(cfg)
    run_bias_ablation(cfg)
    run_adaptive(replace(cfg, adaptive=AdaptiveConfig(
        init_len=300, frame_training_len=20, frame_data_len=50,
        benchmark_training_len=300, n_frames=1)))
    assert calls == expected


# ---------------------------------------------------------------------------
# scoring tiles


def _tiled_runs():
    """A sweep and an ablation per user, whose 5000-row payload is a chunk
    and a remainder, and an adaptive run of two 1100-row frames; every fit
    block is longer than a tile."""
    cfg = _small_config(trials=1, training_len=1000, payload_len=5000,
                        snr_db_list=(10.0,), per_user=True)
    adaptive = replace(cfg, adaptive=AdaptiveConfig(
        init_len=1000, frame_training_len=600, frame_data_len=1100,
        benchmark_training_len=700, n_frames=2))
    return [(run_ser_sweep, cfg), (run_bias_ablation, cfg),
            (run_adaptive, adaptive)]


def test_payloads_are_scored_in_tiles_and_fits_see_whole_blocks(
        monkeypatch):
    # a count sums over rows, so no quantizer or detector call made while
    # scoring sees more than a tile; every fit still sees its whole block
    rows_arg = {  # the position of each call's row-indexed argument
        "bias_quantize": 0, "quantize_iq": 0, "detect_linear": 1,
        "detect_natural_elm": 1, "detect_borrowed_elm": 1,
        "train_natural_elm": 1, "train_borrowed_elm": 1, "oselm_init": 1,
        "oselm_update": 2}
    calls, key, step = [], [()], harness._Trial.step

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((isinstance(key[0], str), name,
                          len(args[rows_arg[name]])))
            return fn(*args, **kwargs)
        return wrapper

    def tagged_step(t, block, calibrate, names, key_):
        key[0] = key_
        return step(t, block, calibrate, names, key_)

    for name in rows_arg:
        monkeypatch.setattr(harness, name,
                            recording(name, getattr(harness, name)))
    monkeypatch.setattr(harness._Trial, "step", tagged_step)
    for run, cfg in _tiled_runs():
        run(cfg)
    assert max(n for fit, _, n in calls if not fit) == harness._TILE
    # sweep: 5 receivers, ablation: 4 systems, adaptive: 3 variants x 2
    assert sum(n for fit, name, n in calls if not fit and name.startswith(
        "detect_")) == 5 * 5000 + 4 * 5000 + 3 * 2 * 1100
    assert sorted((fit, n) for fit, name, n in calls
                  if name.startswith(("train_", "oselm_"))) == (
        [(True, 600)] * 2 + [(True, 700)] * 2 + [(True, 1000)] * 8)


@pytest.mark.parametrize("tile", [7, harness._CHUNK])
def test_counts_do_not_depend_on_the_tile(monkeypatch, tile):
    # scoring is row-separable, ragged last tiles included
    runs = _tiled_runs()
    records = [run(cfg) for run, cfg in runs]
    monkeypatch.setattr(harness, "_TILE", tile)
    assert [run(cfg) for run, cfg in runs] == records


# ---------------------------------------------------------------------------
# the draw plan and the draw thread


def _plan_runs():
    """A sweep over three payload chunks, with a preamble and with an ideal
    converter's empty one, an ablation and an adaptive run of two frames."""
    cfg = _small_config(trials=1, payload_len=9000, snr_db_list=(10.0,))
    adaptive = replace(cfg, adaptive=AdaptiveConfig(
        init_len=300, frame_training_len=20, frame_data_len=50,
        benchmark_training_len=300, n_frames=2))
    return [(run_ser_sweep, cfg),
            (run_ser_sweep, replace(cfg, adc=ConverterConfig(bits=None))),
            (run_bias_ablation, cfg), (run_adaptive, adaptive)]


def test_every_trial_uses_up_its_draw_plan(monkeypatch):
    left = []
    exit_ = harness._Trial.__exit__

    def recording_exit(t, *exc):
        left.append((list(t.ahead), list(t.plan)))
        return exit_(t, *exc)

    monkeypatch.setattr(harness._Trial, "__exit__", recording_exit)
    runs = _plan_runs()
    for run, cfg in runs:
        run(cfg)
    assert left == [([], [])] * len(runs)


CHUNK = harness._CHUNK


@pytest.mark.parametrize("plan, in_flight", [
    ([500, 3000, CHUNK, CHUNK + 1, 10, 20],
     [[500, 3000], [3000, CHUNK], [CHUNK, CHUNK + 1], [CHUNK + 1, 10],
      [10, 20], [20], []]),
    ([3000, 300, 3000, 1700, 300, 3000, 1700],     # adaptive-shaped
     [[3000, 300], [300, 3000], [3000, 1700], [1700, 300], [300, 3000],
      [3000, 1700], [1700], []])])
def test_the_next_two_blocks_are_in_flight(plan, in_flight):
    # the block after the one taken is already drawing, so a preamble or
    # a training burst never leaves the trial waiting for the long block
    # after it, and no more than two blocks are ever held
    cfg = _small_config()
    with harness._Trial(cfg, 0, plan) as t:
        seen = [[n for n, _ in t.ahead]]
        for _ in plan:
            t.send(10.0, 0)
            seen.append([n for n, _ in t.ahead])
    assert seen == in_flight


def test_an_empty_block_draws_nothing():
    # an ideal converter's preamble is a 0-row block: it must leave both
    # streams where they were, so the training block draws what it would
    # draw without it
    symbols, noise = np.random.default_rng(3), np.random.default_rng(4)
    before = (symbols.bit_generator.state, noise.bit_generator.state)
    assert QAM16.random_labels(symbols, (0, 8)).shape == (0, 8)
    assert noise_planes(noise, (0, 16)).shape == (2, 0, 16)
    assert (symbols.bit_generator.state, noise.bit_generator.state) == before


@pytest.mark.parametrize("run, readout", [
    (run_ser_sweep, "natural-elm"), (run_bias_ablation, "natural-elm"),
    (run_adaptive, "oselm")])
def test_no_draw_thread_outlives_a_run(run, readout):
    before = set(threading.enumerate())
    run(_small_config(trials=1, payload_len=400,
                      adaptive=AdaptiveConfig(n_frames=1)))
    assert set(threading.enumerate()) == before
    # a run that ends in the singular-readout error joins its thread too
    with pytest.raises(ValueError, match=f"gamma.{readout}"):
        run(_small_config(adc=ConverterConfig(headroom=1e6, bias_scale=1e6)))
    assert set(threading.enumerate()) == before


def test_csv_bytes_do_not_depend_on_draw_timing(tmp_path, monkeypatch):
    # a draw thread that lags the receivers changes nothing in the output
    def csv_bytes(run, cfg):
        path = tmp_path / "out.csv"
        write_csv(run(cfg), path)
        return path.read_bytes()

    runs = _plan_runs()
    prompt = [csv_bytes(run, cfg) for run, cfg in runs]
    draws, planes = [], harness.noise_planes

    def late_planes(rng, shape):
        time.sleep(0.005)
        draws.append(threading.current_thread())
        return planes(rng, shape)

    monkeypatch.setattr(harness, "noise_planes", late_planes)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # and the two threads trade turns often
    try:
        assert [csv_bytes(run, cfg) for run, cfg in runs] == prompt
    finally:
        sys.setswitchinterval(interval)
    assert draws and threading.current_thread() not in draws
