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


# the decision boundaries of one axis of the nominal grid, outermost open
_EDGES = np.array([-np.inf, -2.0, 0.0, 2.0, np.inf]) / math.sqrt(10.0)


def _interval_error(centres, s: float) -> float:
    """The SER of estimates centred on centres[label] plus circular
    Gaussian noise of per-axis deviation s: a decision is correct with
    the product over both axes of the normal probability of the interval
    around the label's level, and the SER is 1 minus its mean over the
    16 labels."""
    correct = []
    for c, mu in zip(QAM16.points, centres):
        p = 1.0
        for level, m in ((c.real, mu.real), (c.imag, mu.imag)):
            i = round((level * math.sqrt(10.0) + 3.0) / 2.0)
            p *= _q((_EDGES[i] - m) / s) - _q((_EDGES[i + 1] - m) / s)
        correct.append(p)
    return 1.0 - float(np.mean(correct))


def _assert_errors_match(cfg, error_probabilities):
    """Run cfg's sweep of its one receiver and compare each SNR point's
    errors, summed over users and trials, with their expectation:
    error_probabilities(H, sigma2) lists each user's error probability
    for the trial's H, sigma2 being the transmitted power over the SNR.
    |z| <= 4."""
    channels = [realize(harness._Trial(cfg, t, ()).channel, 0)
                for t in range(cfg.trials)]
    sent = (QAM16.points if cfg.saleh is None
            else pa_distort(QAM16.points, cfg.saleh))
    power = float(np.mean(np.abs(sent) ** 2))
    records = run_ser_sweep(cfg)
    assert [r.snr_db for r in records] == list(cfg.snr_db_list)
    for rec in records:
        sigma2 = power * 10.0 ** (-rec.snr_db / 10.0)
        mean = var = 0.0
        for H in channels:
            q = error_probabilities(H, sigma2)
            mean += cfg.payload_len * sum(q)
            # the users' errors are correlated (ZF noise, interference,
            # one readout error), so a vector's error count is bounded by
            # the fully correlated variance
            var += cfg.payload_len * sum(math.sqrt(x * (1.0 - x))
                                         for x in q) ** 2
        z = (rec.errors - mean) / math.sqrt(var)
        assert abs(z) <= 4.0, (rec.snr_db, rec.errors, mean, z)


def _zf(error_probability):
    """Per-user error probabilities of genie ZF: error_probability(s), s^2
    being user k's per-axis noise variance sigma2 [(H^H H)^-1]_kk / 2."""
    return lambda H, sigma2: [
        error_probability(math.sqrt(sigma2 * v / 2.0))
        for v in np.diag(np.linalg.inv(H.conj().T @ H)).real]


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
    _assert_errors_match(cfg, _zf(lambda s: 1.0 - (
        1.0 - 1.5 * _q(math.sqrt(0.1) / s)) ** 2))


def test_genie_zf_behind_the_saleh_pa_matches_its_closed_form():
    # Genie ZF undoes H but not the amplifier: user k's output is f(c)
    # plus the noise above, decided on the nominal grid.  At the default
    # drive f(c) lies outside c's region, so the SER is worse than
    # guessing.
    saleh = SalehParams()
    cfg = replace(desk_config(), saleh=saleh, adc=ConverterConfig(bits=None),
                  receivers=("zf",), snr_db_list=(10.0, 20.0),
                  training_len=10, payload_len=5000, trials=4)
    sent = pa_distort(QAM16.points, saleh)
    _assert_errors_match(cfg, _zf(lambda s: _interval_error(sent, s)))


@pytest.mark.parametrize("training_len, snr_db_list, bits", [
    pytest.param(3000, (10.0, 30.0), None, id="M3000"),
    pytest.param(30_000, (20.0,), None, id="M30000"),
    pytest.param(3000, (10.0, 20.0, 30.0), 6, id="M3000-6bit"),
    pytest.param(3000, (10.0, 20.0, 30.0), 3, id="M3000-3bit")])
def test_trained_zf_behind_the_saleh_pa_matches_its_floor(training_len,
                                                          snr_db_list, bits):
    # With s = f(c) of power P and gain rho = E[c f(c)*] (the widely
    # linear terms vanish by the grid's symmetry), the LMMSE readout of c
    # from y = H s + n is W = rho (P H^H H + sigma2 I)^-1 H^H.  With
    # A = W H, user k's estimate is A_kk f(c) plus the interference
    # sum_j!=k A_kj f(c_j) and the noise w_k n.  Three approximations:
    # the interference is Gaussian; a readout fitted on M rows of 2N
    # regressors adds the misadjustment eps_k 2N / M to the squared
    # error, eps_k being the LMMSE readout's own; and a converter of
    # step D = 2 headroom RMS / 2^bits adds white quantization noise of
    # variance D^2 / 12 per real axis (Jacobsson et al., IEEE TWC 2017),
    # RMS being the per-axis deviation of y, so sigma2 becomes
    # sigma2 + D^2 / 6.  Without the misadjustment term the model misses
    # M = 3000 at 30 dB by z = 28.8; without the quantization term it
    # misses the 3-bit converter by z = -3.5, -5.3 and -5.9 at 10, 20
    # and 30 dB.
    cfg = replace(desk_config(), adc=ConverterConfig(bits=bits),
                  receivers=("trained-zf",), snr_db_list=snr_db_list,
                  training_len=training_len, payload_len=5000, trials=4)
    c = QAM16.points
    f = pa_distort(c, cfg.saleh)
    P, rho = np.mean(np.abs(f) ** 2), np.mean(c * f.conj())
    excess = 2 * cfg.channel.n_antennas / cfg.training_len

    def error_probabilities(H, sigma2):
        if bits is not None:
            rms2 = (P * np.mean(np.sum(np.abs(H) ** 2, axis=1)) + sigma2) / 2
            step = 2 * cfg.adc.headroom * math.sqrt(rms2) / 2 ** bits
            sigma2 += step ** 2 / 6
        W = rho * np.linalg.solve(P * H.conj().T @ H
                                  + sigma2 * np.eye(H.shape[1]), H.conj().T)
        A = W @ H
        q = []
        for k, a in enumerate(np.diag(A)):
            other = (P * (np.sum(np.abs(A[k]) ** 2) - abs(a) ** 2)
                     + sigma2 * np.sum(np.abs(W[k]) ** 2))
            eps = np.mean(np.abs(c - a * f) ** 2) + other
            q.append(_interval_error(a * f, math.sqrt(
                (other + eps * excess) / 2.0)))
        return q

    _assert_errors_match(cfg, error_probabilities)


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
    axes = np.stack([estimate.real, estimate.imag])
    margin = np.abs(axes[..., None] - _EDGES[1:-1]).min(axis=(0, 2))
    assert margin[wrong] == pytest.approx(0.0615, abs=1e-4)
    assert np.flatnonzero(margin < 0.01).tolist() == [0, 2, 8, 10]
