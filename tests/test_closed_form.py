"""Closed-form reference checks: where theory gives the answer, the
trial engine must agree with it, not only with its own earlier bytes."""
import math
from dataclasses import replace

import numpy as np
import pytest

from elm_mimo import harness
from elm_mimo.channel import ChannelConfig, realize
from elm_mimo.frontend import QAM16, SalehParams, pa_distort
from elm_mimo.harness import ConverterConfig, desk_config, run_ser_sweep


def _q(x: float) -> float:
    """The Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _assert_zf_errors_match(cfg, error_probability):
    """Run cfg's sweep of the zf receiver alone and compare each SNR
    point's errors, summed over users and trials, with their expectation:
    user k errs with probability error_probability(s), s^2 being its
    per-axis noise variance sigma2 [(H^H H)^-1]_kk / 2 for the trial's H
    and sigma2 the transmitted power over the SNR.  |z| <= 4."""
    inverse_diagonals = [
        np.diag(np.linalg.inv(H.conj().T @ H)).real
        for H in (realize(harness._Trial(cfg, t, ()).channel, 0)
                  for t in range(cfg.trials))]
    sent = (QAM16.points if cfg.saleh is None
            else pa_distort(QAM16.points, cfg.saleh))
    power = float(np.mean(np.abs(sent) ** 2))
    records = run_ser_sweep(cfg)
    assert [r.snr_db for r in records] == list(cfg.snr_db_list)
    for rec in records:
        sigma2 = power * 10.0 ** (-rec.snr_db / 10.0)
        mean = var = 0.0
        for diagonal in inverse_diagonals:
            q = [error_probability(math.sqrt(sigma2 * v / 2.0))
                 for v in diagonal]
            mean += cfg.payload_len * sum(q)
            # ZF noise is correlated across users, so a vector's error
            # count is bounded by the fully correlated variance
            var += cfg.payload_len * sum(math.sqrt(x * (1.0 - x))
                                         for x in q) ** 2
        z = (rec.errors - mean) / math.sqrt(var)
        assert abs(z) <= 4.0, (rec.snr_db, rec.errors, mean, z)


@pytest.mark.parametrize("n_antennas, n_users", [(16, 8), (12, 10)])
def test_zf_on_an_ideal_linear_link_matches_its_closed_form(n_antennas,
                                                            n_users):
    # Given H, user k's ZF noise is circular Gaussian with variance
    # sigma2 [(H^H H)^-1]_kk.  A 16-QAM decision errs on one axis with
    # p = 1.5 Q(d / s), d = 1/sqrt(10) being half the point spacing and
    # s^2 half that variance, and on the symbol with q = 1 - (1 - p)^2.
    cfg = replace(desk_config(),
                  channel=ChannelConfig(n_antennas=n_antennas,
                                        n_users=n_users),
                  saleh=None, adc=ConverterConfig(bits=None),
                  receivers=("zf",), snr_db_list=(0.0, 5.0, 10.0, 15.0),
                  training_len=10, payload_len=5000, trials=4)
    _assert_zf_errors_match(cfg, lambda s: 1.0 - (
        1.0 - 1.5 * _q(math.sqrt(0.1) / s)) ** 2)


def test_genie_zf_behind_the_saleh_pa_matches_its_closed_form():
    # Genie ZF undoes H but not the amplifier: user k's output is f(c)
    # plus the noise above.  The nominal grid decides each axis on the
    # interval around c's level, so a decision is correct with the
    # product of two normal interval probabilities around f(c), and the
    # SER is 1 minus its mean over the 16 labels.  At the default drive
    # f(c) lies outside c's region, so the SER is worse than guessing.
    saleh = SalehParams()
    cfg = replace(desk_config(), saleh=saleh, adc=ConverterConfig(bits=None),
                  receivers=("zf",), snr_db_list=(10.0, 20.0),
                  training_len=10, payload_len=5000, trials=4)
    edges = np.array([-np.inf, -2.0, 0.0, 2.0, np.inf]) / math.sqrt(10.0)
    # per label and axis, the decision interval of its level around f(c)
    intervals = [(edges[i], edges[i + 1], mu) for c, fc in zip(
        QAM16.points, pa_distort(QAM16.points, saleh))
        for level, mu in ((c.real, fc.real), (c.imag, fc.imag))
        for i in [round((level * math.sqrt(10.0) + 3.0) / 2.0)]]

    def error_probability(s):
        axes = [_q((lo - mu) / s) - _q((hi - mu) / s)
                for lo, hi, mu in intervals]
        return 1.0 - float(np.mean(np.multiply(axes[0::2], axes[1::2])))

    _assert_zf_errors_match(cfg, error_probability)


def test_a_linear_readout_behind_the_saleh_pa_errs_on_the_inner_labels():
    # Regressing c on f(c) over the 16 labels gives one complex gain g.
    # With unlimited data and no noise a linear readout decides on
    # g f(c): at the default drive the four inner points land past a
    # boundary and the four corners just inside one, the floor that
    # every trained linear readout shares.
    c = QAM16.points
    f = pa_distort(c, SalehParams())
    g = np.mean(c * f.conj()) / np.mean(np.abs(f) ** 2)
    assert g == pytest.approx(0.829 - 0.647j, abs=1e-3)
    estimate = g * f
    wrong = np.flatnonzero(QAM16.demap(estimate) != np.arange(16))
    assert wrong.tolist() == [5, 7, 13, 15]
    edges = np.array([-2.0, 0.0, 2.0]) / math.sqrt(10.0)
    axes = np.stack([estimate.real, estimate.imag])
    margin = np.abs(axes[..., None] - edges).min(axis=(0, 2))
    assert margin[wrong] == pytest.approx(0.0615, abs=1e-4)
    assert np.flatnonzero(margin < 0.01).tolist() == [0, 2, 8, 10]
