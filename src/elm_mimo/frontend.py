"""Transmit chain and impaired receive front end.

Gray-mapped 16-QAM, the Saleh power-amplifier nonlinearity, AWGN, and a
uniform mid-rise ADC with per-antenna bias injection.  The biased,
quantized real/imaginary stack of the received vector is the hidden
layer of the natural ELM receiver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import FLOOR, MIN_CALIBRATION, bounded, check
from .core import _real


# Per-dimension Gray code for 2 bits: adjacent amplitude levels differ
# in exactly one bit.  _GRAY_CODES lists the codes in level order.
_GRAY_LEVELS = {0b00: -3.0, 0b01: -1.0, 0b11: 1.0, 0b10: 3.0}
_GRAY_CODES = np.array(sorted(_GRAY_LEVELS, key=_GRAY_LEVELS.get))


def _slice_gray(a):
    """Gray code of the nearest level to each coordinate; on a boundary
    (-2, 0, 2 times 1/sqrt(10)) the smaller of the two codes wins."""
    v = a * np.sqrt(10.0)
    level = (v > -2).astype(np.uint8)
    level += v > 0
    level += v >= 2
    return _GRAY_CODES.take(level)


class Qam16:
    """Unit-average-power 16-QAM with a fixed Gray bit mapping.

    Symbol label = 4-bit integer; the two MSBs Gray-map the in-phase
    level, the two LSBs the quadrature level, both over {-3,-1,1,3} and
    scaled by 1/sqrt(10).  Demapping ties break toward the smallest
    label.
    """

    order = 16

    def __init__(self):
        pts = np.empty(16, dtype=complex)
        for label in range(16):
            i = _GRAY_LEVELS[(label >> 2) & 0b11]
            q = _GRAY_LEVELS[label & 0b11]
            pts[label] = (i + 1j * q) / np.sqrt(10.0)
        self.points = pts
        self.points.setflags(write=False)

    def symbols(self, labels) -> np.ndarray:
        return self.points[np.asarray(labels, dtype=int)]

    def demap(self, x) -> np.ndarray:
        """Nearest-point labels for x of any shape, sliced per axis;
        ties break toward the smallest label.  Non-finite x raises
        ValueError: it has no nearest point."""
        x = np.asarray(x)
        if not np.isfinite(x).all():
            raise ValueError("cannot demap non-finite symbol estimates")
        return _slice_gray(x.real) << 2 | _slice_gray(x.imag)

    def random_labels(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.integers(0, self.order, shape)


QAM16 = Qam16()


@dataclass(frozen=True)
class SalehParams:
    """AM-AM / AM-PM coefficients of the Saleh amplifier model, each
    O(1); a subnormal one zeroes the calibration samples."""

    alpha_a: float = bounded(1.96, FLOOR, 1e3)
    eps_a: float = bounded(0.99, FLOOR, 1e3)
    alpha_phi: float = bounded(2.53, 0.0, 1e3)
    eps_phi: float = bounded(2.82, FLOOR, 1e3)

    def __post_init__(self):
        check(self, "saleh.")


def pa_distort(x, p: SalehParams):
    """Apply the Saleh nonlinearity elementwise; pa_distort(0) = 0."""
    x = np.asarray(x)
    a = np.abs(x)
    a2 = a * a
    amp = p.alpha_a * a / (1.0 + p.eps_a * a2)
    phase = p.alpha_phi * a2 / (1.0 + p.eps_phi * a2)
    return amp * np.exp(1j * (np.angle(x) + phase))


def noise_planes(rng: np.random.Generator, shape) -> np.ndarray:
    """(2, *shape) standard normals: the real plane, then the imaginary."""
    planes = np.empty((2, *shape))
    rng.standard_normal(out=planes[0, ...])
    rng.standard_normal(out=planes[1, ...])
    return planes


def transmit(H: np.ndarray, x: np.ndarray, sigma2: float,
             rng: np.random.Generator,
             noise: np.ndarray | None = None) -> np.ndarray:
    """y = H x + n with circular complex Gaussian noise of variance sigma2.

    x is sent as given: an amplifier is applied beforehand, with
    pa_distort.  x may be a length-K vector or an (M, K) batch of symbol
    vectors; the result is (N,) or (M, N) accordingly.  n is
    sqrt(sigma2 / 2) times noise, the (2, *y.shape) planes, scaled in
    place; drawn if None.
    """
    if not 0 <= sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and nonnegative: {sigma2!r}")
    x = np.asarray(x)
    y = np.asarray(x @ H.T if x.ndim == 2 else H @ x, dtype=complex)
    if sigma2 > 0:
        n = noise_planes(rng, y.shape) if noise is None else noise
        n *= np.sqrt(sigma2 / 2.0)
        y.real += n[0]
        y.imag += n[1]
    return y


# the bit widths a converter may have: past the 53-bit significand of a
# float64 sample, finer levels cannot be told apart
BITS = (1, 53)


@dataclass(frozen=True)
class AdcConfig:
    """Mid-rise ADC with clipping, plus frozen per-antenna bias vectors.

    bits = None disables quantization: with finite full_scale the input
    is still clipped (an infinite-resolution, range-limited converter);
    with full_scale = inf the converter is a pure passthrough.  Biases
    default to scalar 0 and broadcast against any antenna count.
    """

    bits: int | None
    full_scale: float
    bias_re: np.ndarray | float = 0.0
    bias_im: np.ndarray | float = 0.0

    def __post_init__(self):
        if self.bits is not None and not BITS[0] <= self.bits <= BITS[1]:
            raise ValueError(f"bits must be in {list(BITS)}")
        if not (self.full_scale > 0 and (self.bits is None
                                         or np.isfinite(self.full_scale))):
            raise ValueError("full_scale must be > 0, and finite with bits")

    @property
    def step(self) -> float:
        if self.bits is None:
            raise ValueError("step undefined without a bit width")
        return 2.0 * self.full_scale / (2 ** self.bits)

    @property
    def levels(self) -> np.ndarray:
        d = self.step
        half = 2 ** (self.bits - 1)
        return d * (np.arange(-half, half) + 0.5)


def ideal_adc() -> AdcConfig:
    """Infinite-resolution, unclipped, unbiased converter."""
    return AdcConfig(bits=None, full_scale=np.inf)


def _quantize_in_place(c: np.ndarray, adc: AdcConfig) -> np.ndarray:
    """quantize() written into the float array c itself; returns c."""
    F = adc.full_scale
    if adc.bits is None:
        return np.clip(c, -F, F, out=c) if np.isfinite(F) else c
    d, half = adc.step, 2 ** (adc.bits - 1)
    np.floor(np.divide(c, d, out=c), out=c)
    np.clip(c, -half, half - 1, out=c)
    c += 0.5
    c *= d
    return c


def quantize(c, adc: AdcConfig):
    """Elementwise mid-rise quantization Q(c) = step (floor(c/step) + 0.5).

    Inputs beyond the full scale saturate to the extreme levels.  With
    bits = None the input is only clipped to [-F, F] (or passed through
    when F is infinite).  Each of the three quantizers returns a new array.
    """
    return _quantize_in_place(np.array(_real(c, "c")), adc)


def quantize_iq(y, adc: AdcConfig):
    """Quantize real and imaginary parts separately; no biasing."""
    out = np.array(y, dtype=complex, order="C")
    # one pass: a flat view of the C-order copy (view(float) refuses 0-d)
    _quantize_in_place(out.reshape(-1).view(float), adc)
    return out


def bias_quantize(y, adc: AdcConfig):
    """Biased quantized real stack of y: Q([Re y; Im y] + [b_re; b_im]).

    y has shape (..., N); the result has shape (..., 2N) and is the
    hidden-layer output of the natural ELM receiver.
    """
    y = np.asarray(y)
    n = y.shape[-1]
    out = np.empty(y.shape[:-1] + (2 * n,))
    np.add(y.real, adc.bias_re, out=out[..., :n])
    np.add(y.imag, adc.bias_im, out=out[..., n:])
    return _quantize_in_place(out, adc)


def calibrate_adc(samples, bits: int, headroom: float = 3.0) -> AdcConfig:
    """Set the full scale to headroom times the RMS of a real preamble."""
    samples = _real(samples, "samples").ravel()
    if samples.size < MIN_CALIBRATION:
        raise ValueError(f"need at least {MIN_CALIBRATION} samples")
    rms = float(np.sqrt(np.mean(samples ** 2)))
    if rms == 0.0:
        raise ValueError("calibration samples are all zero")
    return AdcConfig(bits=bits, full_scale=headroom * rms)

