"""Tests for the dense linear-algebra core: ridge solver, real-composite
embedding, and the forgetting-factor RLS engine."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import data, floats, integers

from elm_mimo.core import (RlsState, gram, real_composite, real_stack,
                           ridge_solve, rls_init, rls_step)
from elm_mimo.frontend import AdcConfig, calibrate_adc, quantize
from elm_mimo.receivers import oselm_init, oselm_update, train_borrowed_elm


# ---------------------------------------------------------------------------
# ridge_solve


def test_ridge_identity_case():
    # Z = I, gamma = 1: (I + I) B = T  =>  B = T / 2
    t = np.array([3.0, -1.0, 0.5])
    B = ridge_solve(np.eye(3), t[:, None], 1.0)
    assert np.allclose(B[:, 0], t / 2.0, atol=1e-14)


def test_ridge_exact_interpolation():
    rng = np.random.default_rng(1)
    Z = rng.standard_normal((6, 6)) + 3 * np.eye(6)
    T = rng.standard_normal((6, 2))
    B = ridge_solve(Z, T, 0.0)
    resid = np.linalg.norm(Z @ B - T) / np.linalg.norm(T)
    assert resid <= 1e-10


def test_ridge_matches_normal_equation_oracle():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((30, 8))
    T = rng.standard_normal((30, 2))
    B = ridge_solve(Z, T, 0.01)
    oracle = np.linalg.solve(Z.T @ Z + 0.01 * np.eye(8), Z.T @ T)
    assert np.allclose(B, oracle, rtol=1e-10, atol=1e-13)


def test_ridge_singular_without_regularization():
    Z = np.ones((5, 3))  # rank 1
    T = np.ones((5, 1))
    with pytest.raises(ValueError, match="singular"):
        ridge_solve(Z, T, 0.0)
    # the same system is fine once regularized
    ridge_solve(Z, T, 1e-3)


def test_ridge_rejects_negative_gamma_and_bad_shapes():
    with pytest.raises(ValueError):
        ridge_solve(np.eye(2), np.ones((2, 1)), -1.0)
    # a NaN gets past a gamma < 0 test, and scipy's own error for NaN or
    # inf names no argument
    for gamma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma must be .*nonnegative"):
            ridge_solve(np.eye(2), np.ones((2, 1)), gamma)
    with pytest.raises(ValueError, match="gamma must be .*nonnegative"):
        rls_init(np.eye(2), np.ones((2, 1)), np.nan)
    with pytest.raises(ValueError):
        ridge_solve(np.ones(4), np.ones((4, 1)), 1.0)


def _complex_block(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("complex_arg", ["Z", "T"])
def test_ridge_refuses_complex_input(complex_arg):
    # a cast to float would fit the real parts alone, with only a warning
    rng = np.random.default_rng(12)
    args = {"Z": rng.standard_normal((50, 4)),
            "T": rng.standard_normal((50, 2))}
    args[complex_arg] = _complex_block(rng, args[complex_arg].shape)
    with pytest.raises(ValueError, match=f"{complex_arg} must be real"):
        ridge_solve(args["Z"], args["T"], 1.0)


# ---------------------------------------------------------------------------
# real-composite embedding


def test_real_composite_single_entry():
    Hp = real_composite(np.array([[1j]]))
    assert np.array_equal(Hp, np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_real_stack_scalar_vector():
    assert np.array_equal(real_stack(np.array([1 + 2j])), [1.0, 2.0])


def test_real_composite_homomorphism():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lhs = real_stack(H @ s)
    rhs = real_composite(H) @ real_stack(s)
    assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_real_stack_batch_shape():
    rng = np.random.default_rng(4)
    Y = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    S = real_stack(Y)
    assert S.shape == (7, 10)
    assert np.array_equal(S[:, :5], Y.real)
    assert np.array_equal(S[:, 5:], Y.imag)


# ---------------------------------------------------------------------------
# RLS initialization


def test_rls_init_identity_prior():
    # R0 = I (2x2), gamma = 1: G = I + I
    st = rls_init(np.eye(2), np.zeros((2, 1)), 1.0)
    assert np.array_equal(st.G, 2.0 * np.eye(2))


def test_rls_init_zero_targets():
    rng = np.random.default_rng(5)
    st = rls_init(rng.standard_normal((10, 4)), np.zeros((10, 2)), 0.1)
    assert np.all(st.beta == 0.0)


def test_rls_init_multiply_back():
    rng = np.random.default_rng(6)
    R0 = rng.standard_normal((20, 6))
    T0 = rng.standard_normal((20, 2))
    st = rls_init(R0, T0, 0.3)
    assert np.array_equal(st.G, gram(R0, 0.3))
    assert np.array_equal(st.C, R0.T @ T0)
    assert np.allclose(st.G @ st.beta, st.C, atol=1e-9)


@pytest.mark.parametrize("complex_arg", ["R0", "T0"])
def test_rls_init_refuses_complex_input(complex_arg):
    rng = np.random.default_rng(13)
    args = {"R0": rng.standard_normal((20, 4)),
            "T0": rng.standard_normal((20, 2))}
    args[complex_arg] = _complex_block(rng, args[complex_arg].shape)
    with pytest.raises(ValueError, match=f"{complex_arg} must be real"):
        rls_init(args["R0"], args["T0"], 1.0)


def test_rls_state_validation():
    with pytest.raises(ValueError, match="forgetting"):
        RlsState(G=np.eye(2), C=np.zeros((2, 1)), lam=0.0)
    with pytest.raises(ValueError, match="square"):
        RlsState(G=np.ones((2, 3)), C=np.zeros((2, 1)), lam=1.0)
    with pytest.raises(ValueError, match="rows"):
        RlsState(G=np.eye(2), C=np.zeros((3, 1)), lam=1.0)
    with pytest.raises(ValueError, match="2-D"):
        RlsState(G=np.eye(2), C=np.zeros(2), lam=1.0)


@pytest.mark.parametrize("r_len, t_len", [(3, 2), (5, 2), (4, 1), (4, 3)])
def test_rls_step_refuses_wrong_lengths(r_len, t_len):
    # a queued sample of the wrong length would only fail at the fold
    st = rls_init(np.eye(4), np.zeros((4, 2)), 1.0)
    with pytest.raises(ValueError, match="length L"):
        rls_step(st, np.ones(r_len), np.ones(t_len))
    rls_step(st, np.ones(4), np.ones(2))


# ---------------------------------------------------------------------------
# RLS updates


def test_rls_step_zero_error_leaves_beta():
    rng = np.random.default_rng(7)
    R0 = rng.standard_normal((12, 4))
    beta_true = rng.standard_normal((4, 2))
    st = rls_init(R0, R0 @ beta_true, 0.0)
    r = rng.standard_normal(4)
    st2 = rls_step(st, r, beta_true.T @ r)
    assert np.allclose(st2.beta, st.beta, atol=1e-10)


@pytest.mark.parametrize("complex_arg", ["r", "t"])
def test_rls_step_refuses_complex_input(complex_arg):
    rng = np.random.default_rng(14)
    st = rls_init(rng.standard_normal((20, 4)), rng.standard_normal((20, 2)),
                  1.0)
    args = {"r": rng.standard_normal(4), "t": rng.standard_normal(2)}
    args[complex_arg] = _complex_block(rng, args[complex_arg].shape)
    with pytest.raises(ValueError, match=f"{complex_arg} must be real"):
        rls_step(st, args["r"], args["t"])


_SYMBOLS = np.ones((200, 2), complex)
# entry points outside the solvers that take real input, keyed by the
# argument that gets the complex block
_REAL_INPUTS = {
    "c": lambda z: quantize(z, AdcConfig(bits=4, full_scale=1.0)),
    "samples": lambda z: calibrate_adc(z, 4),
    "R": lambda z: train_borrowed_elm(z, _SYMBOLS, 1.0, 8,
                                      np.random.default_rng(0)),
    "R_chunk": lambda z: oselm_update(
        oselm_init(np.eye(4), _SYMBOLS[:4], 1.0, 0.9), z, _SYMBOLS),
    "G": lambda z: RlsState(G=z[:4], C=np.zeros((4, 1)), lam=1.0),
    "C": lambda z: RlsState(G=np.eye(4), C=z[:4], lam=1.0),
}


@pytest.mark.parametrize("arg", _REAL_INPUTS)
def test_real_input_entry_points_refuse_complex_input(arg):
    # a cast to float would keep the real parts alone, with only a warning
    z = _complex_block(np.random.default_rng(15), (200, 4))
    with pytest.raises(ValueError, match=f"^{arg} must be real"):
        _REAL_INPUTS[arg](z)
    _REAL_INPUTS[arg](z.real)   # the same block, real, goes through


def test_rls_lambda_one_equals_batch_ridge_each_step():
    rng = np.random.default_rng(8)
    gamma = 0.5
    Z = rng.standard_normal((10, 5))
    T = rng.standard_normal((10, 2))
    st = rls_init(Z, T, gamma, 1.0)
    for _ in range(200):
        r = rng.standard_normal(5)
        t = rng.standard_normal(2)
        st = rls_step(st, r, t)
        Z = np.vstack([Z, r])
        T = np.vstack([T, t])
        batch = ridge_solve(Z, T, gamma)
        assert np.allclose(st.beta, batch, rtol=1e-8, atol=1e-10)


def test_rls_forgetting_contracts_repeated_sample():
    # lambda = 0.98, same (r, t) twice: the second update moves beta less
    st = rls_init(np.array([[1.0], [1.0]]), np.array([[0.0], [0.0]]),
                  0.5, 0.98)
    r = np.array([1.0])
    t = np.array([2.0])
    st1 = rls_step(st, r, t)
    st2 = rls_step(st1, r, t)
    d1 = abs(st1.beta[0, 0] - st.beta[0, 0])
    d2 = abs(st2.beta[0, 0] - st1.beta[0, 0])
    assert d2 < d1


def test_rls_gram_stays_symmetric_positive_definite():
    rng = np.random.default_rng(9)
    for lam in (0.9, 0.95, 1.0):
        st = rls_init(rng.standard_normal((30, 6)),
                      rng.standard_normal((30, 2)), 0.1, lam)
        for _ in range(10_000):
            st = rls_step(st, rng.standard_normal(6), rng.standard_normal(2))
        assert np.allclose(st.G, st.G.T)
        assert np.linalg.eigvalsh(st.G).min() > 0


def test_rls_step_leaves_input_state_unmodified_and_matches_formula():
    rng = np.random.default_rng(10)
    st = rls_init(rng.standard_normal((40, 8)),
                  rng.standard_normal((40, 3)), 0.1, 0.98)
    for _ in range(50):
        G0, C0 = st.G.copy(), st.C.copy()
        r, t = rng.standard_normal(8), rng.standard_normal(3)
        new = rls_step(st, r, t)
        assert np.array_equal(st.G, G0) and np.array_equal(st.C, C0)
        # the docstring's update, written out with fresh temporaries
        assert np.array_equal(new.G, st.lam * st.G + np.outer(r, r))
        assert np.array_equal(new.C, st.lam * st.C + np.outer(r, t))
        st = new


def test_rls_blowup_raises():
    # a singular G (no regularization, too few samples) cannot be solved
    st = rls_init(np.ones((3, 2)), np.ones((3, 1)), 0.0)
    with pytest.raises(ValueError, match="singular") as info:
        st.beta
    assert "gamma" not in str(info.value)


def _reference_rls_step(P, beta, lam, r, t):
    """The covariance-form RLS update, P being the inverse of G:
    q = P r / (lam + r^T P r); beta += q (t - beta^T r)^T;
    P <- (P - q r^T P) / lam, re-symmetrized (Sherman-Morrison)."""
    Pr = P @ r
    denom = lam + r @ Pr
    q = Pr / denom
    e = t - beta.T @ r
    beta_new = beta + np.outer(q, e)
    X = np.outer(q, Pr)
    np.subtract(P, X, out=X)
    X /= lam
    P_new = X + X.T
    P_new *= 0.5
    return P_new, beta_new


@settings(max_examples=200, deadline=None)
@given(integers(1, 8), integers(1, 3), floats(0.9, 1.0), floats(1e-2, 1.0),
       integers(0, 100), integers(0, 2**32 - 1))
def test_rls_gram_form_matches_inverse_form_and_weighted_ridge(
        L, V, lam, gamma, n, seed):
    rng = np.random.default_rng(seed)
    R0, T0 = rng.standard_normal((2 * L, L)), rng.standard_normal((2 * L, V))
    state = rls_init(R0, T0, gamma, lam)
    P = np.linalg.inv(R0.T @ R0 + gamma * np.eye(L))
    beta = np.linalg.solve(R0.T @ R0 + gamma * np.eye(L), R0.T @ T0)
    G = lam ** n * (R0.T @ R0 + gamma * np.eye(L))
    C = lam ** n * (R0.T @ T0)
    for i in range(1, n + 1):
        r, t = rng.standard_normal(L), rng.standard_normal(V)
        state = rls_step(state, r, t)
        P, beta = _reference_rls_step(P, beta, lam, r, t)
        G += lam ** (n - i) * np.outer(r, r)
        C += lam ** (n - i) * np.outer(r, t)
    scale = np.abs(beta).max()
    assert np.allclose(state.beta, beta, rtol=1e-8, atol=1e-8 * scale)
    assert np.allclose(state.beta, np.linalg.solve(G, C), rtol=1e-8,
                       atol=1e-8 * scale)


def _close(a, b):
    return np.allclose(a, b, rtol=1e-8, atol=1e-8 * np.abs(b).max())


@settings(max_examples=200, deadline=None)
@given(integers(1, 8), integers(1, 3), floats(0.9, 1.0), data())
def test_rls_queued_steps_match_eager_formula_and_stay_independent(
        L, V, lam, draws):
    # up to 3L steps, so the queue is folded at L rows on the way
    n = draws.draw(integers(0, 3 * L), label="n")
    rng = np.random.default_rng(draws.draw(integers(0, 2**32 - 1),
                                           label="seed"))
    R0, T0 = rng.standard_normal((2 * L, L)), rng.standard_normal((2 * L, V))
    state = rls_init(R0, T0, 0.1, lam)
    G, C = state.G.copy(), state.C.copy()
    for _ in range(n):
        r, t = rng.standard_normal(L), rng.standard_normal(V)
        G, C = lam * G + np.outer(r, r), lam * C + np.outer(r, t)
        state = rls_step(state, r, t)
        r[:], t[:] = np.nan, np.nan   # the state keeps its own copies
        assert len(state._queue) <= L   # a queue never outgrows G

    # two children share the parent's queue, a third its folded base
    kids = [(rng.standard_normal(L), rng.standard_normal(V))
            for _ in range(2)]
    a, b = (rls_step(state, r, t) for r, t in kids)
    G_read, C_read = state.G.copy(), state.C.copy()
    c = rls_step(state, *kids[0])
    for child, (r, t) in zip((a, b, c), kids + kids[:1]):
        assert _close(child.G, lam * G + np.outer(r, r))
        assert _close(child.C, lam * C + np.outer(r, t))
    assert np.array_equal(state.G, G_read)
    assert np.array_equal(state.C, C_read)
    assert _close(state.G, G) and _close(state.C, C)
    assert _close(state.beta, np.linalg.solve(G, C))
    with pytest.raises(ValueError, match="read-only"):
        state.G[0, 0] = 0.0
