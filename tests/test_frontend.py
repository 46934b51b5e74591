"""Tests for the transmit chain and the impaired receive front end:
16-QAM mapping, the Saleh amplifier, AWGN, and the biased mid-rise ADC."""
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from elm_mimo.core import real_stack
from elm_mimo import harness
from elm_mimo.frontend import (QAM16, AdcConfig, SalehParams, bias_quantize,
                               calibrate_adc, ideal_adc, noise_planes,
                               pa_distort, quantize, quantize_iq, transmit)


# ---------------------------------------------------------------------------
# 16-QAM


def test_constellation_unit_power():
    assert np.mean(np.abs(QAM16.points) ** 2) == pytest.approx(1.0, abs=1e-15)


def test_gray_mapping_adjacent_levels():
    # within each dimension, neighbouring amplitude levels differ in one bit
    scale = np.sqrt(10.0)
    level_bits = {}
    for label in range(16):
        p = QAM16.points[label]
        level_bits[round(p.real * scale)] = (label >> 2) & 0b11
    for a, b in ((-3, -1), (-1, 1), (1, 3)):
        assert bin(level_bits[a] ^ level_bits[b]).count("1") == 1


def test_demap_exact_points():
    labels = np.arange(16)
    assert np.array_equal(QAM16.demap(QAM16.points), labels)


def test_demap_robust_within_half_min_distance():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 16, 500)
    x = QAM16.symbols(labels)
    # half of the minimum distance 2/sqrt(10)
    r = 0.99 / np.sqrt(10.0) * rng.uniform(0, 1, 500)
    phi = rng.uniform(0, 2 * np.pi, 500)
    assert np.array_equal(QAM16.demap(x + r * np.exp(1j * phi)), labels)


def test_demap_tie_break_lowest_label():
    # 0 is equidistant from the four inner points; the smallest label wins
    d = np.abs(QAM16.points - 0.0)
    candidates = np.flatnonzero(d == d.min())
    assert QAM16.demap(np.array(0.0 + 0.0j)) == candidates.min()


def _argmin_demap(x):
    """Oracle: the 16-way nearest-point search, first index on ties."""
    x = np.asarray(x)
    return np.argmin(np.abs(x[..., None] - QAM16.points) ** 2, axis=-1)


SCALE = np.sqrt(10.0)
BOUNDARIES = (-2.0, 0.0, 2.0)   # decision boundaries in units of 1/sqrt(10)


def test_demap_exact_ties_take_smallest_label():
    # every mix of boundaries and levels on the two axes; the equidistant
    # points come from exact integer distances on the unscaled grid
    coords = (-3, -2, -1, 0, 1, 2, 3)
    grid = [(round(p.real * SCALE), round(p.imag * SCALE))
            for p in QAM16.points]
    for u in coords:
        for w in coords:
            assert (u / SCALE) * SCALE == u and (w / SCALE) * SCALE == w
            d = [(u - i) ** 2 + (w - q) ** 2 for i, q in grid]
            want = d.index(min(d))
            assert QAM16.demap(complex(u / SCALE, w / SCALE)) == want, (u, w)


def _clear_of_boundaries(a):
    return all(abs(a * SCALE - b) > 1e-9 for b in BOUNDARIES)


_coords = st.floats(-8.0, 8.0, allow_nan=False)
_clear = st.lists(st.tuples(_coords.filter(_clear_of_boundaries),
                            _coords.filter(_clear_of_boundaries)),
                  min_size=1, max_size=40)
# coordinates on or within a few ulps of a boundary, or anywhere
_near = st.builds(lambda b, e: b / SCALE + e, st.sampled_from(BOUNDARIES),
                  st.floats(-1e-12, 1e-12)) | _coords
_any = st.lists(st.tuples(_near, _near), min_size=1, max_size=40)


def _complex(pairs):
    return np.array([complex(i, q) for i, q in pairs])


@settings(max_examples=300, deadline=None)
@given(_clear)
def test_demap_equals_argmin_off_boundaries(pairs):
    x = _complex(pairs)
    assert np.array_equal(QAM16.demap(x), _argmin_demap(x))


@settings(max_examples=300, deadline=None)
@given(_any)
def test_demap_picks_a_nearest_point(pairs):
    # near a boundary the argmin's answer depends on how the other axis's
    # distance rounds, so only the distance itself is compared
    x = _complex(pairs)
    d = np.abs(x[:, None] - QAM16.points) ** 2
    chosen = d[np.arange(x.size), QAM16.demap(x)]
    assert np.all(chosen <= d.min(axis=1) + 1e-12)


@pytest.mark.parametrize("shape", [(), (7,), (5, 3)])
def test_demap_preserves_shape(shape):
    x = np.random.default_rng(2).standard_normal(shape + (2,)) @ [1, 1j]
    labels = QAM16.demap(x)
    assert np.shape(labels) == shape
    assert np.array_equal(labels, _argmin_demap(x))


@pytest.mark.parametrize("x", [complex(np.nan, 0.0), complex(np.nan, np.nan),
                               complex(0.3, np.nan), complex(np.inf, 0.0)])
def test_demap_rejects_non_finite_estimates(x):
    # a NaN or infinite estimate has no nearest point; deciding it anyway
    # would hide a broken readout behind ordinary symbol errors
    with pytest.raises(ValueError, match="non-finite"):
        QAM16.demap(np.array([0.1 + 0.1j, x]))


# ---------------------------------------------------------------------------
# Saleh amplifier


def test_pa_zero_in_zero_out():
    assert pa_distort(np.array(0.0 + 0.0j), SalehParams()) == 0.0


def test_pa_values_at_unit_amplitude():
    out = pa_distort(np.array(1.0 + 0.0j), SalehParams())
    assert abs(out) == pytest.approx(1.96 / 1.99, abs=1e-12)
    assert np.angle(out) == pytest.approx(2.53 / 3.82, abs=1e-12)


def test_pa_amplitude_peak():
    # A(a) = alpha a / (1 + eps a^2) peaks at a = 1/sqrt(eps) with value
    # alpha / (2 sqrt(eps)); beyond the peak the gain compresses.
    p = SalehParams()
    a_star = 1.0 / np.sqrt(p.eps_a)
    peak = p.alpha_a / (2.0 * np.sqrt(p.eps_a))
    assert a_star == pytest.approx(1.00504, abs=1e-5)
    assert peak == pytest.approx(0.98494, abs=1e-5)
    grid = np.linspace(1e-4, 4.0, 100_000)
    amps = np.abs(pa_distort(grid.astype(complex), p))
    i = np.argmax(amps)
    assert grid[i] == pytest.approx(a_star, abs=1e-3)
    assert amps[i] == pytest.approx(peak, abs=1e-9)
    assert np.all(np.diff(amps[i:]) < 0)


def test_pa_phase_preserved_for_rotations():
    p = SalehParams()
    base = pa_distort(np.array(0.5 + 0.0j), p)
    rot = pa_distort(np.array(0.5j), p)
    assert abs(rot) == pytest.approx(abs(base), abs=1e-12)
    assert np.angle(rot) - np.angle(base) == pytest.approx(np.pi / 2,
                                                           abs=1e-12)


def test_saleh_params_validation():
    with pytest.raises(ValueError):
        SalehParams(eps_a=0.0)


def test_signal_power_post_pa_below_unity():
    # the default amplifier compresses the unit-power constellation
    f = pa_distort(QAM16.points, SalehParams())
    assert 0.0 < np.mean(np.abs(f) ** 2) < 1.0


# ---------------------------------------------------------------------------
# transmit


def test_transmit_noise_free_unit_channel():
    H = np.ones((4, 1), dtype=complex)
    x = np.array([0.3 - 0.4j])
    s = pa_distort(x, SalehParams())
    y = transmit(H, s, 0.0, np.random.default_rng(0))
    assert np.allclose(y, s[0])


def test_transmit_bypass_is_linear():
    rng = np.random.default_rng(2)
    H = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.allclose(transmit(H, x, 0.0, rng, None), H @ x)


def test_transmit_noise_variance():
    H = np.zeros((1, 1), dtype=complex)
    rng = np.random.default_rng(3)
    sigma2 = 0.7
    y = transmit(H, np.zeros((100_000, 1), dtype=complex), sigma2, rng, None)
    assert np.mean(np.abs(y) ** 2) == pytest.approx(sigma2, rel=0.02)


@pytest.mark.parametrize("sigma2", [-1.0, np.nan, np.inf])
def test_transmit_rejects_a_bad_noise_variance(sigma2):
    # unchecked, a negative or NaN sigma2 reads as no noise and inf gives
    # infinite samples
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="sigma2"):
        transmit(np.eye(2) + 0j, np.ones(2) + 0j, sigma2, rng)


def test_transmit_batch_matches_loop():
    rng = np.random.default_rng(4)
    H = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    X = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    S = pa_distort(X, SalehParams())
    batch = transmit(H, S, 0.0, rng)
    rows = [transmit(H, S[i], 0.0, rng) for i in range(3)]
    assert np.allclose(batch, np.stack(rows))


# ---------------------------------------------------------------------------
# mid-rise quantizer


def test_quantizer_mid_rise_examples():
    adc = AdcConfig(bits=2, full_scale=1.0)  # step 0.5
    assert quantize(0.0, adc) == 0.25
    assert quantize(-0.1, adc) == -0.25
    assert quantize(5.0, adc) == 0.75       # saturates at the top level
    assert quantize(-5.0, adc) == -0.75
    assert np.allclose(adc.levels, [-0.75, -0.25, 0.25, 0.75])


@pytest.mark.parametrize("bits", range(1, 9))
def test_quantizer_law_suite(bits):
    adc = AdcConfig(bits=bits, full_scale=1.5)
    grid = np.linspace(-3.0, 3.0, 100_000)
    q = quantize(grid, adc)
    # codomain membership
    assert np.isin(q, adc.levels).all()
    # monotone non-decreasing
    assert np.all(np.diff(q) >= 0)
    # granular error bounded by step/2 inside the full-scale range
    inside = np.abs(grid) < adc.full_scale - 1e-9
    assert np.abs(q[inside] - grid[inside]).max() <= adc.step / 2 + 1e-12
    # clipping saturation at the extremes
    assert np.all(q[grid >= adc.full_scale] == adc.levels[-1])
    assert np.all(q[grid <= -adc.full_scale] == adc.levels[0])


_scaled_inputs = st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=64)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.floats(1e-3, 1e3), _scaled_inputs)
def test_quantizer_law_property(bits, full_scale, u):
    adc = AdcConfig(bits=bits, full_scale=full_scale)
    c = np.sort(np.array(u) * full_scale)
    q = quantize(c, adc)
    assert np.isin(q, adc.levels).all()
    assert np.all(np.diff(q) >= 0)
    # granular error: step/2 up to the rounding of c/step and of the level
    inside = np.abs(c) < full_scale
    tol = adc.step / 2 + 8 * np.finfo(float).eps * full_scale
    assert np.all(np.abs(q[inside] - c[inside]) <= tol)
    assert np.all(q[c >= full_scale] == adc.levels[-1])
    assert np.all(q[c <= -full_scale] == adc.levels[0])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.floats(1e-2, 1e2), st.integers(1, 8),
       st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_bias_quantize_is_quantized_biased_stack(bits, full_scale, n, m,
                                                 seed):
    rng = np.random.default_rng(seed)
    b_re, b_im = rng.uniform(-0.5 * full_scale, 0.5 * full_scale, (2, n))
    adc = AdcConfig(bits=bits, full_scale=full_scale, bias_re=b_re,
                    bias_im=b_im)
    y = full_scale * (rng.standard_normal((m, n))
                      + 1j * rng.standard_normal((m, n)))
    want = quantize(real_stack(y) + np.concatenate([b_re, b_im]), adc)
    assert np.array_equal(bias_quantize(y, adc), want)


def test_adc_config_validation():
    with pytest.raises(ValueError):
        AdcConfig(bits=0, full_scale=1.0)
    with pytest.raises(ValueError):
        AdcConfig(bits=54, full_scale=1.0)
    with pytest.raises(ValueError):
        AdcConfig(bits=4, full_scale=np.inf)
    with pytest.raises(ValueError):
        AdcConfig(bits=None, full_scale=1.0).step


@pytest.mark.parametrize("full_scale", [-1.0, 0.0, np.nan])
def test_adc_config_without_bits_needs_a_positive_full_scale(full_scale):
    # unchecked, these clip to -1, zero the input or let it pass unclipped
    with pytest.raises(ValueError, match="full_scale"):
        AdcConfig(bits=None, full_scale=full_scale)
    assert ideal_adc().full_scale == np.inf   # a passthrough stays legal


def test_clip_only_mode():
    adc = AdcConfig(bits=None, full_scale=2.0)
    x = np.array([-5.0, -1.0, 0.3, 7.0])
    assert np.array_equal(quantize(x, adc), [-2.0, -1.0, 0.3, 2.0])


def test_quantize_iq_componentwise():
    adc = AdcConfig(bits=3, full_scale=1.0)
    y = np.array([[0.1 - 0.6j, -0.2 + 0.9j, 1.5 + 0.0j],
                  [-0.7 + 0.3j, 0.05 - 2.0j, 0.4 + 0.4j]])
    # C order, Fortran order and a strided view
    for arg in (y, y.T, y[:, ::2]):
        out = quantize_iq(arg, adc)
        assert np.array_equal(out.real, quantize(arg.real, adc))
        assert np.array_equal(out.imag, quantize(arg.imag, adc))


# ---------------------------------------------------------------------------
# biased quantized stack


def test_bias_quantize_passthrough():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    out = bias_quantize(y, ideal_adc())
    assert np.array_equal(out, np.concatenate([y.real, y.imag], axis=-1))


def test_bias_quantize_codomain():
    rng = np.random.default_rng(6)
    adc = AdcConfig(bits=4, full_scale=2.0, bias_re=0.1, bias_im=-0.2)
    out = bias_quantize(rng.standard_normal((50, 8))
                        + 1j * rng.standard_normal((50, 8)), adc)
    assert out.shape == (50, 16)
    assert np.isin(out, adc.levels).all()


def test_bias_quantize_scalar_oracle():
    rng = np.random.default_rng(7)
    adc0 = AdcConfig(bits=5, full_scale=1.5)
    for _ in range(1000):
        y = complex(rng.standard_normal(), rng.standard_normal())
        b_re = rng.uniform(-0.3, 0.3)
        b_im = rng.uniform(-0.3, 0.3)
        adc = AdcConfig(bits=5, full_scale=1.5, bias_re=np.array([b_re]),
                        bias_im=np.array([b_im]))
        out = bias_quantize(np.array([y]), adc)
        assert out[0] == quantize(y.real + b_re, adc0)
        assert out[1] == quantize(y.imag + b_im, adc0)


def test_draw_biases_range_and_freeze():
    # a trial's converter carries one bias per antenna and part, each
    # within the bias scale, and the same seed freezes the same biases
    rng = np.random.default_rng(8)
    for bits in (None, 6):
        cfg = harness.ExperimentConfig(
            adc=harness.ConverterConfig(bits=bits, bias_scale=0.1))
        n = cfg.channel.n_antennas
        y = rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n))
        adc = harness._Trial(cfg, 0, ()).calibrate(y)
        assert adc.bits == bits
        for b in (adc.bias_re, adc.bias_im):
            assert b.shape == (n,) and np.abs(b).max() <= 0.1
        assert not np.array_equal(adc.bias_re, adc.bias_im)
        again = harness._Trial(cfg, 0, ()).calibrate(y)
        assert np.array_equal(again.bias_re, adc.bias_re)
        assert np.array_equal(again.bias_im, adc.bias_im)
        assert np.array_equal(bias_quantize(y, adc), bias_quantize(y, again))


# ---------------------------------------------------------------------------
# the one-buffer quantizers and transmit against the out-of-place bodies
# they replaced, kept here as the reference


def _reference_quantize(c, adc):
    c = np.asarray(c, dtype=float)
    F = adc.full_scale
    if adc.bits is None:
        return np.clip(c, -F, F) if np.isfinite(F) else c
    d = adc.step
    half = 2 ** (adc.bits - 1)
    idx = np.clip(np.floor(c / d), -half, half - 1)
    return d * (idx + 0.5)


def _reference_quantize_iq(y, adc):
    y = np.asarray(y)
    return _reference_quantize(y.real, adc) + 1j * _reference_quantize(
        y.imag, adc)


def _reference_bias_quantize(y, adc):
    y = np.asarray(y)
    stacked = np.concatenate(
        [y.real + adc.bias_re, y.imag + adc.bias_im], axis=-1)
    return _reference_quantize(stacked, adc)


def _reference_transmit(H, x, sigma2, rng):
    x = np.asarray(x)
    y = x @ H.T if x.ndim == 2 else H @ x
    if sigma2 > 0:
        scale = np.sqrt(sigma2 / 2.0)
        n = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        y = y + scale * n
    return y


@st.composite
def _converter_inputs(draw):
    """(real input, complex input, converter): bits 1-12 or None, finite
    or infinite full scale, scalar or per-antenna biases, and an input
    that is a scalar, (N,), (M, N) or a non-contiguous (M, N) view."""
    bits = draw(st.sampled_from((None, *range(1, 13))))
    finite = bits is not None or draw(st.booleans())
    F = draw(st.floats(1e-3, 1e3)) if finite else np.inf
    layout = draw(st.sampled_from(("scalar", "vector", "matrix", "strided")))
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = {"scalar": (), "vector": (n,), "matrix": (m, n),
             "strided": (m, 2 * n)}[layout]
    scale = F if finite else 1.0
    a, b = 2.0 * scale * rng.standard_normal((2,) + shape)
    if bits is not None and draw(st.booleans()):
        # land on the quantizer's thresholds
        step = 2.0 * F / 2 ** bits
        a, b = step * np.round(a / step), step * np.round(b / step)
    if layout == "strided":
        a, b = a[:, ::2], b[:, ::2]
    bias = rng.uniform(-0.5 * scale, 0.5 * scale,
                       (2, n) if draw(st.booleans()) else 2)
    adc = AdcConfig(bits=bits, full_scale=F, bias_re=bias[0],
                    bias_im=bias[1])
    return a, a + 1j * b, adc


def _same_and_input_kept(new, reference, arg, adc):
    before = np.copy(arg)
    got = new(arg, adc)
    assert np.array_equal(arg, before)
    want = reference(arg, adc)
    assert np.shape(got) == np.shape(want)
    assert np.result_type(got) == np.result_type(want)
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(_converter_inputs())
def test_quantize_matches_reference(case):
    c, _, adc = case
    _same_and_input_kept(quantize, _reference_quantize, c, adc)


@settings(max_examples=300, deadline=None)
@given(_converter_inputs())
def test_quantize_iq_matches_reference(case):
    _, y, adc = case
    _same_and_input_kept(quantize_iq, _reference_quantize_iq, y, adc)


@settings(max_examples=300, deadline=None)
@given(_converter_inputs())
def test_bias_quantize_matches_reference(case):
    _, y, adc = case
    assume(np.ndim(y) > 0)   # a stack needs an antenna axis
    _same_and_input_kept(bias_quantize, _reference_bias_quantize, y, adc)


_salehs = st.builds(SalehParams, **{
    f.name: st.floats(*f.metadata["range"]) for f in fields(SalehParams)})


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4),
       st.sampled_from(("vector", "matrix", "strided")), st.integers(1, 64),
       st.sampled_from((0.0, 1e-3, 0.5, 40.0)), st.none() | _salehs,
       st.integers(0, 2**32 - 1))
def test_transmit_matches_reference(n, k, layout, m, sigma2, saleh, seed):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    x = QAM16.symbols(QAM16.random_labels(rng, (m, 2 * k)))
    if saleh is not None:   # sent as the amplifier's output
        x = pa_distort(x, saleh)
    x = {"vector": x[0, :k], "matrix": x[:, :k].copy(),
         "strided": x[:, ::2]}[layout]
    before = x.copy()
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    got = transmit(H, x, sigma2, rngs[0])
    assert np.array_equal(x, before)
    want = _reference_transmit(H, x, sigma2, rngs[1])
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    # the same draws, in the same order
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 64), max_size=3), st.integers(0, 2**32 - 1))
def test_noise_planes_are_two_sequential_draws(shape, seed):
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    planes = noise_planes(rngs[0], tuple(shape))
    want = [rngs[1].standard_normal(tuple(shape)) for _ in range(2)]
    assert planes.shape == (2, *shape) and planes.dtype == np.float64
    assert np.array_equal(planes[0], want[0])
    assert np.array_equal(planes[1], want[1])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.sampled_from((None, 1, 40)),
       st.sampled_from((0.0, 1e-3, 0.5, 40.0)), st.none() | _salehs,
       st.integers(0, 2**32 - 1))
def test_transmit_with_drawn_planes_matches_own_draws(n, k, m, sigma2, saleh,
                                                      seed):
    # the trial engine draws the planes ahead and hands them in
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    x = QAM16.symbols(QAM16.random_labels(rng, (k,) if m is None else (m, k)))
    if saleh is not None:
        x = pa_distort(x, saleh)
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    planes = noise_planes(rngs[1], (n,) if m is None else (m, n))
    got = transmit(H, x, sigma2, rngs[1], noise=planes)
    want = transmit(H, x, sigma2, rngs[0])
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    if sigma2 > 0:   # else transmit draws nothing and the planes go unused
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_transmit_of_real_channel_and_symbols_is_complex():
    y = transmit(np.eye(2), np.ones(2), 0.5, np.random.default_rng(0))
    assert y.dtype == complex and np.all(y.imag != 0)


@settings(max_examples=100, deadline=None)
@given(_salehs, st.integers(1, 4096), st.integers(1, 10),
       st.integers(0, 2**32 - 1))
def test_distorted_constellation_by_label_is_distorted_symbols(p, m, k, seed):
    # the trial engine sends f(c) looked up by label
    labels = QAM16.random_labels(np.random.default_rng(seed), (m, k))
    assert np.array_equal(pa_distort(QAM16.points, p)[labels],
                          pa_distort(QAM16.symbols(labels), p))


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_formula():
    samples = np.concatenate([np.ones(50), -np.ones(50)])  # RMS exactly 1
    adc = calibrate_adc(samples, 6, headroom=3.0)
    assert adc.full_scale == pytest.approx(3.0)
    assert adc.step == pytest.approx(6.0 / 64.0)  # 0.09375


def test_calibrate_homogeneity():
    rng = np.random.default_rng(9)
    samples = rng.standard_normal(5000)
    a = calibrate_adc(samples, 4)
    b = calibrate_adc(2.0 * samples, 4)
    assert b.full_scale == pytest.approx(2.0 * a.full_scale)
    assert b.step == pytest.approx(2.0 * a.step)


def test_calibrate_clip_fraction_gaussian():
    rng = np.random.default_rng(10)
    samples = rng.standard_normal(200_000)
    adc = calibrate_adc(samples, 6, headroom=3.0)
    clipped = np.abs(samples) >= adc.full_scale
    assert clipped.mean() < 0.005  # 2 Phi(-3) ~ 0.27%


def test_calibrate_errors():
    with pytest.raises(ValueError):
        calibrate_adc(np.ones(10), 6)        # too few samples
    with pytest.raises(ValueError):
        calibrate_adc(np.zeros(500), 6)      # degenerate preamble
