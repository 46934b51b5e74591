"""Tests for the five receivers and the adaptive (RLS-tracked) variant."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import expit

from elm_mimo.channel import ChannelConfig, draw_process, realize
from elm_mimo.core import real_composite, real_stack
from elm_mimo.frontend import QAM16, AdcConfig, bias_quantize, ideal_adc, transmit
from elm_mimo.receivers import (_hidden, borrowed_estimate,
                                detect_borrowed_elm, detect_linear,
                                detect_natural_elm, elm_estimate,
                                mmse_weights, oselm_init, oselm_update,
                                oselm_weights, train_borrowed_elm,
                                train_natural_elm, train_zf_direct,
                                zf_weights, RealImagWeights)


def _toy_system(seed=0, N=8, K=2, M=64):
    """Noise-free unquantized linear chain with training symbols."""
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((N, K)) + 1j * rng.standard_normal((N, K))
    labels = QAM16.random_labels(rng, (M, K))
    X = QAM16.symbols(labels)
    Y = X @ H.T
    return H, labels, X, Y


# ---------------------------------------------------------------------------
# ridge-trained receivers (natural ELM / trained ZF)


def test_training_linearity_in_targets():
    rng = np.random.default_rng(1)
    R = rng.standard_normal((40, 10))
    X = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    w1 = train_natural_elm(R, X, 0.1)
    w2 = train_natural_elm(R, 2.5 * X, 0.1)
    assert np.allclose(w2.beta_re, 2.5 * w1.beta_re)
    assert np.allclose(w2.beta_im, 2.5 * w1.beta_im)


def test_ideal_chain_exact_recovery():
    # no impairment, M >= 2K, gamma -> 0: training symbols recovered exactly
    H, labels, X, Y = _toy_system()
    w = train_natural_elm(real_stack(Y), X, 1e-12)
    est = elm_estimate(w, real_stack(Y))
    assert np.allclose(est, X, atol=1e-8)
    assert np.array_equal(QAM16.demap(est), labels)


def test_zero_bias_equals_trained_zf():
    # with no biasing the two procedures are the same equations
    H, labels, X, Y = _toy_system(seed=2)
    adc = AdcConfig(bits=4, full_scale=3.0)
    r = bias_quantize(Y, adc)       # zero bias by default
    w_nat = train_natural_elm(r, X, 0.05)
    w_tzf = train_zf_direct(r, X, 0.05)
    assert np.allclose(w_nat.beta_re, w_tzf.beta_re, atol=1e-12)
    assert np.allclose(w_nat.beta_im, w_tzf.beta_im, atol=1e-12)


def test_train_zf_direct_is_the_natural_elm_fit_on_the_stack():
    # trained ZF is the natural-ELM fit on the real stack, bit for bit
    H, labels, X, Y = _toy_system(seed=3)
    want = train_natural_elm(real_stack(Y), X, 0.1)
    w = train_zf_direct(real_stack(Y), X, 0.1)
    assert np.array_equal(w.beta_re, want.beta_re)
    assert np.array_equal(w.beta_im, want.beta_im)


def test_train_zf_direct_refuses_complex_rows():
    # complex rows used to be fitted on their real parts alone
    H, labels, X, Y = _toy_system(seed=3)
    with pytest.raises(ValueError, match="must be real"):
        train_zf_direct(Y, X, 0.1)


def test_trained_zf_left_inverse_noise_free():
    # gamma -> 0 LS recovers a left inverse of the real-composite channel
    H, labels, X, Y = _toy_system(seed=4, M=200)
    # the observations live in a 2K-dimensional subspace, so a small
    # gamma keeps the normal equations factorizable without biasing the
    # left-inverse identity beyond 1e-8
    w = train_zf_direct(real_stack(Y), X, 1e-6)
    B = np.concatenate([w.beta_re, w.beta_im], axis=1)  # (2N, 2K)
    Hp = real_composite(H)
    assert np.allclose(B.T @ Hp, np.eye(2 * H.shape[1]), atol=1e-8)


def test_large_gamma_shrinks_weights():
    H, labels, X, Y = _toy_system(seed=5)
    R = real_stack(Y)
    scale = np.mean(R ** 2)
    w1 = train_natural_elm(R, X, 1e8 * scale)
    w2 = train_natural_elm(R, X, 2e8 * scale)
    n1 = np.linalg.norm(w1.beta_re)
    n2 = np.linalg.norm(w2.beta_re)
    assert n1 < 1e-4
    assert n2 == pytest.approx(n1 / 2, rel=0.01)  # norm ~ 1/gamma


def test_unit_vector_weights_pick_components():
    beta_re = np.zeros((4, 1))
    beta_im = np.zeros((4, 1))
    beta_re[0, 0] = 1.0
    beta_im[1, 0] = 1.0
    w = RealImagWeights(beta_re=beta_re, beta_im=beta_im, gamma=0.0)
    est = elm_estimate(w, np.array([0.3, -0.7, 9.0, 9.0]))
    assert est[0] == pytest.approx(0.3 - 0.7j)


def test_zero_weights_demap_to_tie_break():
    w = RealImagWeights(beta_re=np.zeros((4, 1)), beta_im=np.zeros((4, 1)),
                        gamma=0.0)
    det = detect_natural_elm(w, np.ones((3, 4)))
    assert np.array_equal(det, np.full((3, 1), QAM16.demap(np.array(0j))))


def _reference_elm_estimate(w, r):
    """The estimate assembled from the two target blocks: one matmul over
    [beta_re | beta_im], then Re + j Im."""
    K = w.beta_re.shape[1]
    est = r @ np.concatenate([w.beta_re, w.beta_im], axis=1)
    return est[..., :K] + 1j * est[..., K:]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 6),
       st.sampled_from([None, 1, 37]),
       st.sampled_from(["constructor", "natural-elm", "oselm", "borrowed"]))
def test_interleaved_readout_matches_two_block_estimate(seed, N, K, M, source):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((60, 2 * N))
    X = rng.standard_normal((60, K)) + 1j * rng.standard_normal((60, K))
    if source == "constructor":
        w = RealImagWeights(beta_re=rng.standard_normal((2 * N, K)),
                            beta_im=rng.standard_normal((2 * N, K)),
                            gamma=0.0)
    elif source == "natural-elm":
        w = train_natural_elm(R, X, 0.1)
    elif source == "oselm":
        state = oselm_update(oselm_init(R[:40], X[:40], 0.1, 0.95),
                             R[40:], X[40:])
        w = oselm_weights(state, 0.1)
    else:
        w = train_borrowed_elm(R, X, 0.1, 3 * N, rng).out
    L = w.beta_re.shape[0]
    assert w.B.shape == (L, 2 * K)
    assert np.array_equal(w.B[:, 0::2], w.beta_re)
    assert np.array_equal(w.B[:, 1::2], w.beta_im)
    r = rng.standard_normal((L,) if M is None else (M, L))
    got, want = elm_estimate(w, r), _reference_elm_estimate(w, r)
    assert got.shape == want.shape and got.dtype == want.dtype
    # the two layouts may sum a dot product in different orders
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())
    assert np.array_equal(QAM16.demap(got), QAM16.demap(want))


# ---------------------------------------------------------------------------
# ZF / MMSE combiners


def test_zf_orthonormal_columns():
    Q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((8, 3))
                        + 1j * np.random.default_rng(7).standard_normal((8, 3)))
    W = zf_weights(Q)
    assert np.allclose(W, Q.conj().T, atol=1e-10)
    assert np.allclose(W @ Q, np.eye(3), atol=1e-10)


def test_mmse_identity_channel():
    W = mmse_weights(np.eye(3, dtype=complex), 1.0)
    assert np.allclose(W, 0.5 * np.eye(3), atol=1e-12)


def test_mmse_approaches_zf_at_high_snr():
    rng = np.random.default_rng(8)
    H = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
    Wzf = zf_weights(H)
    Wmmse = mmse_weights(H, 1e8)
    assert np.linalg.norm(Wmmse - Wzf) <= 1e-6 * np.linalg.norm(Wzf)


def _reference_zf_weights(H):
    """The ZF combiner as written before core's shared normal equations."""
    H = np.asarray(H, dtype=complex)
    G = H.conj().T @ H
    try:
        c = cho_factor(G, lower=True)
    except LinAlgError as exc:
        raise ValueError("channel matrix is rank deficient") from exc
    if np.linalg.cond(G) > 1e14:
        raise ValueError("channel matrix is rank deficient")
    return cho_solve(c, H.conj().T)


def _reference_mmse_weights(H, snr):
    """The MMSE combiner as written before core's shared normal equations."""
    H = np.asarray(H, dtype=complex)
    G = H.conj().T @ H
    G[np.diag_indices_from(G)] += 1.0 / snr
    return cho_solve(cho_factor(G, lower=True), H.conj().T)


_entries = st.floats(-10.0, 10.0)
_channels = st.integers(1, 6).flatmap(lambda k: st.integers(k, 16).flatmap(
    lambda n: st.lists(st.tuples(_entries, _entries), min_size=n * k,
                       max_size=n * k).map(lambda v: np.array(
        [complex(a, b) for a, b in v]).reshape(n, k))))


@settings(max_examples=200, deadline=None)
@given(_channels, st.floats(-30.0, 60.0))
def test_combiners_match_reference_bitwise(H, snr_db):
    snr = 10.0 ** (snr_db / 10.0)
    assert np.array_equal(mmse_weights(H, snr),
                          _reference_mmse_weights(H, snr))
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            want = _reference_zf_weights(H)
        except ValueError:   # rank deficient: both refuse
            with pytest.raises(ValueError):
                zf_weights(H)
        else:
            assert np.array_equal(zf_weights(H), want)


def test_zf_rank_deficient_raises():
    H = np.ones((6, 2), dtype=complex)  # identical columns
    with pytest.raises(ValueError, match="rank"):
        zf_weights(H)


def test_mmse_rejects_nonpositive_snr():
    with pytest.raises(ValueError):
        mmse_weights(np.eye(2, dtype=complex), 0.0)
    with pytest.raises(ValueError, match="snr must be positive"):
        mmse_weights(np.eye(2, dtype=complex), np.nan)
    # an infinite SNR is gamma = 0: the ZF combiner
    assert np.array_equal(mmse_weights(np.eye(2, dtype=complex), np.inf),
                          np.eye(2))


def test_zf_perfect_separation_ideal_chain():
    rng = np.random.default_rng(9)
    cfg = ChannelConfig(n_antennas=16, n_users=4)
    H = realize(draw_process(cfg, 0), 0)
    labels = QAM16.random_labels(rng, (10_000, 4))
    Y = transmit(H, QAM16.symbols(labels), 0.0, rng, None)
    det = detect_linear(zf_weights(H), Y)
    assert np.array_equal(det, labels)


# ---------------------------------------------------------------------------
# borrowed (conventional sigmoid) ELM


def test_borrowed_hidden_range():
    rng = np.random.default_rng(10)
    R = rng.standard_normal((50, 8))
    X = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    m = train_borrowed_elm(R, X, 0.1, 16, rng)
    from elm_mimo.receivers import _hidden
    Z = _hidden(m.input_weights, m.biases, R)
    assert np.all((Z > 0) & (Z < 1))
    assert np.allclose(_hidden(np.zeros((4, 8)), np.zeros(4), R), 0.5)


class _ZeroDraws:
    """A generator stand-in whose uniform draws are all zero."""

    def uniform(self, low, high, size):
        return np.zeros(size)


def test_borrowed_degenerate_weights_do_not_crash():
    rng = np.random.default_rng(11)
    R = rng.standard_normal((30, 6))
    X = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
    m = train_borrowed_elm(R, X, 0.5, 8, _ZeroDraws())
    assert not m.input_weights.any() and not m.biases.any()
    est = borrowed_estimate(m, R)
    assert np.isfinite(est).all()


def test_borrowed_deterministic_given_seed():
    rng1 = np.random.default_rng(12)
    rng2 = np.random.default_rng(12)
    R = np.random.default_rng(13).standard_normal((40, 6))
    X = (np.random.default_rng(14).standard_normal((40, 2))
         + 1j * np.random.default_rng(15).standard_normal((40, 2)))
    m1 = train_borrowed_elm(R, X, 0.1, 32, rng1)
    m2 = train_borrowed_elm(R, X, 0.1, 32, rng2)
    assert np.array_equal(m1.input_weights, m2.input_weights)
    assert np.array_equal(detect_borrowed_elm(m1, R),
                          detect_borrowed_elm(m2, R))


@pytest.mark.parametrize("shape", [(6,), (25, 6)])
def test_borrowed_estimate_in_place_layer_aliases_nothing(shape):
    rng = np.random.default_rng(17)
    R = rng.standard_normal((40, 6))
    X = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
    m = train_borrowed_elm(R, X, 0.1, 16, rng)
    W, b = m.input_weights.copy(), m.biases.copy()
    r = rng.standard_normal(shape)
    r0 = r.copy()
    # the in-place layer computes the out-of-place formula, bit for bit
    want = elm_estimate(m.out, 1.0 / (1.0 + np.exp(-(r @ W.T + b))))
    assert np.array_equal(borrowed_estimate(m, r), want)
    assert np.array_equal(r, r0)
    assert np.array_equal(m.input_weights, W)
    assert np.array_equal(m.biases, b)
    # and agrees with scipy's logistic to rounding
    np.testing.assert_allclose(_hidden(W, b, r), expit(r @ W.T + b),
                               rtol=1e-15, atol=0.0)


def test_logistic_layer_is_exact_and_silent_at_extreme_inputs():
    # exp(745) overflows to inf; the layer must still give exactly 0
    # there, and 1 where exp(-z) underflows, without a warning
    z = np.array([[-1e4], [-745.0], [0.0], [745.0], [1e4]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _hidden(np.ones((1, 1)), np.zeros(1), z)
    assert np.array_equal(out, [[0.0], [0.0], [0.5], [1.0], [1.0]])


def test_borrowed_rejects_empty_hidden_layer():
    rng = np.random.default_rng(16)
    with pytest.raises(ValueError):
        train_borrowed_elm(np.ones((10, 2)), np.ones((10, 1)), 0.1, 0, rng)


# ---------------------------------------------------------------------------
# adaptive (OSELM) receiver


def test_oselm_lambda_one_matches_batch():
    rng = np.random.default_rng(17)
    R0 = rng.standard_normal((40, 8))
    X0 = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
    state = oselm_init(R0, X0, 0.3, 1.0)
    state = oselm_update(state, R0, X0)   # stream the same data again
    batch = train_natural_elm(np.vstack([R0, R0]),
                              np.vstack([X0, X0]), 0.3)
    w = oselm_weights(state, 0.3)
    assert np.allclose(w.beta_re, batch.beta_re, rtol=1e-8, atol=1e-10)
    assert np.allclose(w.beta_im, batch.beta_im, rtol=1e-8, atol=1e-10)


def test_oselm_init_is_the_batch_fit():
    # rls_init and ridge_solve factor the same normal equations
    rng = np.random.default_rng(21)
    R0 = rng.standard_normal((40, 8))
    X0 = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    w = oselm_weights(oselm_init(R0, X0, 0.3, 0.98), 0.3)
    batch = train_natural_elm(R0, X0, 0.3)
    assert np.array_equal(w.beta_re, batch.beta_re)
    assert np.array_equal(w.beta_im, batch.beta_im)


def test_oselm_weights_carry_configured_gamma():
    rng = np.random.default_rng(20)
    R0 = rng.standard_normal((20, 4))
    X0 = rng.standard_normal((20, 1)) + 1j * rng.standard_normal((20, 1))
    state = oselm_init(R0, X0, 0.25, 0.98)
    assert oselm_weights(state, 0.25).gamma == 0.25
    state = oselm_update(state, R0[:5], X0[:5])
    assert oselm_weights(state, 0.25).gamma == 0.25


def test_oselm_empty_chunk_is_identity():
    rng = np.random.default_rng(18)
    R0 = rng.standard_normal((20, 4))
    X0 = rng.standard_normal((20, 1)) + 1j * rng.standard_normal((20, 1))
    state = oselm_init(R0, X0, 0.1, 0.98)
    state2 = oselm_update(state, np.empty((0, 4)), np.empty((0, 1)))
    assert np.array_equal(state2.G, state.G)
    assert np.array_equal(state2.C, state.C)


def test_oselm_update_returns_the_chunk_folded():
    # the fold runs inside oselm_update, so a traced run times it there
    rng = np.random.default_rng(23)
    R0 = rng.standard_normal((20, 4))
    X0 = rng.standard_normal((20, 1)) + 1j * rng.standard_normal((20, 1))
    state = oselm_init(R0, X0, 0.1, 0.98)
    G, C = state.G.copy(), state.C.copy()
    state = oselm_update(state, R0[:6], X0[:6])
    assert state._queue == ()
    for r, t in zip(R0[:6], real_stack(X0[:6])):
        G, C = 0.98 * G + np.outer(r, r), 0.98 * C + np.outer(r, t)
    assert np.allclose(state.G, G, rtol=1e-12)
    assert np.allclose(state.C, C, rtol=1e-12)


def test_oselm_update_refuses_chunks_of_unequal_length():
    # zip would stop at the shorter chunk and drop the rest unnoticed
    rng = np.random.default_rng(22)
    R0 = rng.standard_normal((20, 4))
    X0 = rng.standard_normal((20, 1)) + 1j * rng.standard_normal((20, 1))
    state = oselm_init(R0, X0, 0.1, 0.98)
    with pytest.raises(ValueError, match="R_chunk has 5 rows but X_chunk "
                                         "has 3"):
        oselm_update(state, R0[:5], X0[:3])
    with pytest.raises(ValueError, match="R_chunk has 3 rows but X_chunk "
                                         "has 5"):
        oselm_update(state, R0[:3], X0[:5])


def test_oselm_static_channel_training_mse_non_increasing():
    # repeated training chunks on a fixed channel: the fit only improves
    rng = np.random.default_rng(19)
    cfg = ChannelConfig(n_antennas=32, n_users=4)
    H = realize(draw_process(cfg, 1), 0)
    adc = ideal_adc()
    sigma2 = 0.01

    def chunk(n):
        labels = QAM16.random_labels(rng, (n, 4))
        x = QAM16.symbols(labels)
        return bias_quantize(transmit(H, x, sigma2, rng, None), adc), x

    R0, X0 = chunk(200)
    state = oselm_init(R0, X0, 1e-3, 0.98)
    Rc, Xc = chunk(100)
    mses = []
    for _ in range(10):
        state = oselm_update(state, Rc, Xc)
        est = elm_estimate(oselm_weights(state, 1e-3), Rc)
        mses.append(np.mean(np.abs(est - Xc) ** 2))
    # non-increasing up to the tiny overshoot left from forgetting the
    # initialization block
    assert mses[-1] < mses[0]
    assert np.all(np.diff(mses) <= 0.02 * mses[0])
