"""Tests for the sum-of-rays spatially correlated time-varying channel."""
import numpy as np
import pytest
from scipy.special import j0

from elm_mimo.channel import (ChannelConfig, draw_process, realize,
                              steering_vector)

KMH_100 = 100.0 / 3.6


def test_steering_broadside():
    assert np.allclose(steering_vector(0.0, 4), np.ones(4))


def test_steering_endfire():
    assert np.allclose(steering_vector(np.pi / 2, 2), [1.0, -1.0], atol=1e-12)


def test_steering_unit_modulus():
    for theta in (-1.2, -0.3, 0.7, 1.5):
        assert np.allclose(np.abs(steering_vector(theta, 32)), 1.0)


def test_steering_array_of_angles_stacks_scalar_calls():
    theta = np.random.default_rng(0).uniform(-np.pi / 2, np.pi / 2, (3, 4))
    a = steering_vector(theta, 8)
    assert a.shape == (8, 3, 4)
    for k, r in np.ndindex(theta.shape):
        assert np.allclose(a[:, k, r], steering_vector(theta[k, r], 8),
                           rtol=0, atol=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(n_antennas=4, n_users=8)
    with pytest.raises(ValueError):
        ChannelConfig(n_rays=0)
    with pytest.raises(ValueError):
        ChannelConfig(velocity_mps=-1.0)
    with pytest.raises(ValueError):
        ChannelConfig(symbol_duration_s=0.0)


def test_doppler_frequency_value():
    # 100 km/h at 2 GHz: f_d = v f_c / c ~ 185.3 Hz, f_d T_s ~ 1.853e-4
    cfg = ChannelConfig(velocity_mps=KMH_100)
    assert cfg.doppler_hz == pytest.approx(185.31, abs=0.2)
    assert cfg.doppler_hz * cfg.symbol_duration_s == pytest.approx(
        1.853e-4, rel=1e-3)


def test_zero_velocity_gives_zero_dopplers():
    proc = draw_process(ChannelConfig(n_antennas=8, n_users=2), 0)
    assert np.all(proc.dopplers == 0.0)


def test_ray_power_normalization():
    proc = draw_process(ChannelConfig(n_antennas=8, n_users=3, n_rays=5), 1)
    per_user = np.sum(np.abs(proc.gains) ** 2, axis=1)
    assert np.allclose(per_user, 1.0, atol=1e-12)


def test_draw_process_deterministic():
    cfg = ChannelConfig(n_antennas=16, n_users=4, velocity_mps=KMH_100)
    a = draw_process(cfg, 42)
    b = draw_process(cfg, 42)
    assert np.array_equal(a.aoas, b.aoas)
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.dopplers, b.dopplers)
    assert np.array_equal(realize(a, 123), realize(b, 123))


def test_aoa_offsets_truncated_laplacian():
    # Laplacian with scale AS/sqrt(2) has std = AS (in radians); the
    # truncation at pi/2 barely matters for a 10-degree spread.
    cfg = ChannelConfig(n_antennas=2, n_users=2, n_rays=5,
                        angular_spread_deg=10.0, mean_aoa_range_rad=(0.0, 0.0))
    offsets = []
    for seed in range(10_000):
        proc = draw_process(cfg, seed)
        offsets.append(proc.aoas - proc.mean_aoa[:, None])
    offsets = np.concatenate([o.ravel() for o in offsets])
    assert offsets.size == 100_000
    assert np.abs(offsets).max() <= np.pi / 2
    assert np.std(offsets) == pytest.approx(np.deg2rad(10.0), rel=0.15)


def test_static_channel_time_invariant():
    proc = draw_process(ChannelConfig(n_antennas=8, n_users=2), 3)
    H0 = realize(proc, 0)
    for m in (1_000, 1_000_000):
        assert np.array_equal(realize(proc, m), H0)


def test_entry_power_near_unity():
    cfg = ChannelConfig(n_antennas=4, n_users=2)
    acc = 0.0
    count = 0
    for seed in range(10_000):
        H = realize(draw_process(cfg, seed), 0)
        acc += np.sum(np.abs(H) ** 2)
        count += H.size
    assert 0.95 <= acc / count <= 1.05


def test_autocorrelation_non_increasing_at_short_lags():
    # |E[h(0) h*(tau)]| should decay monotonically out to
    # tau * f_d * T_s = 0.1 (a tenth of a Doppler cycle).
    cfg = ChannelConfig(n_antennas=1, n_users=1, velocity_mps=KMH_100)
    fd_ts = cfg.doppler_hz * cfg.symbol_duration_s
    lags = np.linspace(0.0, 0.1, 6) / fd_ts
    lags = lags.astype(int)
    acc = np.zeros(len(lags), dtype=complex)
    for seed in range(1000):
        proc = draw_process(cfg, seed)
        h0 = realize(proc, 0)[0, 0]
        for i, tau in enumerate(lags):
            acc[i] += h0 * np.conj(realize(proc, int(tau))[0, 0])
    rho = np.abs(acc) / 1000
    assert np.all(np.diff(rho) <= 1e-3)


def test_time_correlation_is_clarkes():
    # per-ray Dopplers f_D cos(psi), psi uniform, and independent uniform
    # ray phases make E[h(m) h*(0)] = J0(2 pi f_D m T) for every entry.
    # Each process averages its N K entries; the bound is set by the
    # spread of those averages over the processes, wide enough for the
    # 82 correlated comparisons.
    cfg = ChannelConfig(n_antennas=8, n_users=4, velocity_mps=KMH_100)
    lags = np.arange(0, 5001, 125)
    per_process = []
    for seed in range(300):
        proc = draw_process(cfg, seed)
        h0 = realize(proc, 0)
        per_process.append([np.mean(realize(proc, int(m)) * np.conj(h0))
                            for m in lags])
    per_process = np.array(per_process)
    mean = per_process.mean(axis=0)
    se = per_process.std(axis=0, ddof=1) / np.sqrt(len(per_process))
    clarke = j0(2 * np.pi * cfg.doppler_hz * lags * cfg.symbol_duration_s)
    assert np.all(np.abs(mean.real - clarke) <= 5 * se)
    assert np.all(np.abs(mean.imag) <= 5 * se)
