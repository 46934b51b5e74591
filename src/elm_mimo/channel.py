"""Spatially correlated, temporally varying massive-MIMO channel.

Sum-of-rays model for a uniform linear array with half-wavelength
spacing: per user a mean angle of arrival is drawn uniformly, per ray
the AOA is perturbed by a truncated Laplacian offset (power angular
spectrum), ray gains have modulus 1/sqrt(R) with uniform phases, and
mobility enters as a deterministic per-ray Doppler phase rotation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import POSITIVE, bounded, check

SPEED_OF_LIGHT = 299_792_458.0   # m/s, exact by the SI definition of the metre


@dataclass(frozen=True)
class ChannelConfig:
    n_antennas: int = bounded(64, 1)
    n_users: int = bounded(10, 1)
    carrier_hz: float = bounded(2e9, POSITIVE, 1e12)
    symbol_duration_s: float = bounded(1e-6, POSITIVE, 1.0)
    # the ray offsets are truncated at +-90 degrees
    angular_spread_deg: float = bounded(10.0, POSITIVE, 90.0)
    n_rays: int = bounded(5, 1)
    velocity_mps: float = bounded(0.0, 0.0, 1e4)
    # the visible region of the ULA
    mean_aoa_range_rad: tuple = bounded((-np.pi / 2, np.pi / 2),
                                        -np.pi / 2, np.pi / 2)

    def __post_init__(self):
        check(self, "channel.")
        if self.n_antennas < self.n_users:
            raise ValueError("need channel.n_antennas >= channel.n_users")
        aoa = list(self.mean_aoa_range_rad)   # uniform draws need low <= high
        if len(aoa) != 2 or aoa[0] > aoa[1]:
            raise ValueError("channel.mean_aoa_range_rad must hold two "
                             f"values, low <= high, got {aoa}")

    @property
    def doppler_hz(self) -> float:
        return self.velocity_mps * self.carrier_hz / SPEED_OF_LIGHT


def steering_vector(theta, n_antennas: int) -> np.ndarray:
    """ULA response at half-wavelength spacing: exp(-j pi n sin(theta)).

    theta is an angle or an array of angles; the antenna index n is the
    first axis of the result, shape (n_antennas, *theta.shape).
    """
    n = np.arange(n_antennas).reshape((-1,) + (1,) * np.ndim(theta))
    return np.exp(-1j * np.pi * n * np.sin(theta))


@dataclass(frozen=True)
class ChannelProcess:
    """Frozen ray geometry and Doppler state for all users.

    `gains` carry the initial ray phases (modulus 1/sqrt(R)); `steering`
    caches the per-ray array responses, shape (N, K, R).
    """

    config: ChannelConfig
    mean_aoa: np.ndarray       # (K,)
    aoas: np.ndarray           # (K, R)
    gains: np.ndarray          # (K, R) complex
    dopplers: np.ndarray       # (K, R) Hz
    steering: np.ndarray = field(repr=False)  # (N, K, R)


def _truncated_laplacian(rng: np.random.Generator, scale: float,
                         bound: float, size) -> np.ndarray:
    out = rng.laplace(0.0, scale, size)
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.laplace(0.0, scale, int(bad.sum()))
        bad = np.abs(out) > bound
    return out


def draw_process(cfg: ChannelConfig, rng_seed) -> ChannelProcess:
    """Draw a channel process; bitwise deterministic for a given seed."""
    rng = np.random.default_rng(rng_seed)
    K, R = cfg.n_users, cfg.n_rays
    lo, hi = cfg.mean_aoa_range_rad
    mean_aoa = rng.uniform(lo, hi, K)
    spread_rad = np.deg2rad(cfg.angular_spread_deg)
    delta = _truncated_laplacian(rng, spread_rad / np.sqrt(2.0),
                                 np.pi / 2, (K, R))
    aoas = mean_aoa[:, None] + delta
    gains = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (K, R))) / np.sqrt(R)
    psi = rng.uniform(0.0, 2 * np.pi, (K, R))
    dopplers = cfg.doppler_hz * np.cos(psi)
    return ChannelProcess(config=cfg, mean_aoa=mean_aoa, aoas=aoas,
                          gains=gains, dopplers=dopplers,
                          steering=steering_vector(aoas, cfg.n_antennas))


def realize(proc: ChannelProcess, m: int) -> np.ndarray:
    """Channel matrix H(m) at symbol index m, shape (N, K)."""
    t = m * proc.config.symbol_duration_s
    rot = proc.gains * np.exp(2j * np.pi * proc.dopplers * t)
    return np.einsum("nkr,kr->nk", proc.steering, rot)
