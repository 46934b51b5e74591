"""Receivers: natural ELM, ZF/MMSE, trained ZF, borrowed ELM, and the
adaptive (OSELM) variant.

The natural ELM and the trained ZF share one mechanism: a ridge fit
from real-stacked observations to the real/imaginary parts of the
transmitted symbols.  They differ only in whether the observations were
biased before quantization.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import expit

from .core import RlsState, real_stack, ridge_solve, rls_init, rls_step
from .frontend import QAM16

__all__ = [
    "RealImagWeights",
    "train_natural_elm",
    "train_zf_direct",
    "elm_estimate",
    "detect_natural_elm",
    "LinearCombinerWeights",
    "zf_weights",
    "mmse_weights",
    "detect_linear",
    "BorrowedElmModel",
    "train_borrowed_elm",
    "borrowed_estimate",
    "detect_borrowed_elm",
    "AdaptiveElmReceiver",
    "oselm_init",
    "oselm_update",
    "oselm_weights",
]


@dataclass(frozen=True)
class RealImagWeights:
    """Per-user output weights over a real regressor of length L.

    beta_re and beta_im are (L, K); user k's symbol estimate is
    beta_re[:, k] . r + j beta_im[:, k] . r.
    """

    beta_re: np.ndarray
    beta_im: np.ndarray
    gamma: float


def _train_separated(R: np.ndarray, X: np.ndarray, gamma: float) -> RealImagWeights:
    # one factorization of (R^T R + gamma I) serves both target blocks
    T = np.concatenate([X.real, X.imag], axis=1)
    B = ridge_solve(R, T, gamma)
    K = X.shape[1]
    return RealImagWeights(beta_re=B[:, :K], beta_im=B[:, K:], gamma=gamma)


def train_natural_elm(R_prime: np.ndarray, X_train: np.ndarray,
                      gamma: float) -> RealImagWeights:
    """Fit output weights from biased-quantized stacks R' (M x 2N) to the
    real and imaginary parts of the transmitted symbols X_train (M x K)."""
    return _train_separated(np.asarray(R_prime, dtype=float), X_train, gamma)


def train_zf_direct(R, X_train: np.ndarray, gamma: float) -> RealImagWeights:
    """Trained ZF: same ridge fit, but from unbiased quantized observations.

    R may be complex (M x N), in which case its real stack is used, or
    already real (M x 2N).
    """
    R = np.asarray(R)
    if np.iscomplexobj(R):
        R = real_stack(R)
    return _train_separated(R, X_train, gamma)


def elm_estimate(w: RealImagWeights, r: np.ndarray) -> np.ndarray:
    """Soft symbol estimates; r is (2N,) or (M, 2N)."""
    # one fused matmul over both target blocks
    K = w.beta_re.shape[1]
    est = r @ np.concatenate([w.beta_re, w.beta_im], axis=1)
    return est[..., :K] + 1j * est[..., K:]


def detect_natural_elm(w: RealImagWeights, r: np.ndarray) -> np.ndarray:
    return QAM16.demap(elm_estimate(w, r))


@dataclass(frozen=True)
class LinearCombinerWeights:
    """Complex combiner W (K x N); row k recovers user k."""

    W: np.ndarray


def zf_weights(H: np.ndarray) -> LinearCombinerWeights:
    """W = (H^H H)^-1 H^H; requires full column rank."""
    H = np.asarray(H, dtype=complex)
    G = H.conj().T @ H
    try:
        c = cho_factor(G, lower=True)
    except LinAlgError as exc:
        raise ValueError("channel matrix is rank deficient") from exc
    if np.linalg.cond(G) > 1e14:
        raise ValueError("channel matrix is rank deficient")
    return LinearCombinerWeights(W=cho_solve(c, H.conj().T))


def mmse_weights(H: np.ndarray, snr: float) -> LinearCombinerWeights:
    """W = (H^H H + I/SNR)^-1 H^H with SNR in linear units."""
    if snr <= 0:
        raise ValueError("snr must be positive")
    H = np.asarray(H, dtype=complex)
    G = H.conj().T @ H
    G[np.diag_indices_from(G)] += 1.0 / snr
    c = cho_factor(G, lower=True)
    return LinearCombinerWeights(W=cho_solve(c, H.conj().T))


def detect_linear(w: LinearCombinerWeights, r: np.ndarray) -> np.ndarray:
    """Apply the combiner to complex observations r ((N,) or (M, N))."""
    return QAM16.demap(r @ w.W.T)


@dataclass(frozen=True)
class BorrowedElmModel:
    """Conventional ELM over the quantized stack: random frozen input
    layer, sigmoid activation, ridge-trained output weights."""

    input_weights: np.ndarray   # (L, 2N)
    biases: np.ndarray          # (L,)
    out: RealImagWeights


def _hidden(model_w: np.ndarray, model_b: np.ndarray, r: np.ndarray) -> np.ndarray:
    z = r @ model_w.T
    z += model_b
    return expit(z, out=z)


def train_borrowed_elm(R: np.ndarray, X_train: np.ndarray, gamma: float,
                       hidden_size: int, rng: np.random.Generator,
                       weight_scale: float = 0.1) -> BorrowedElmModel:
    """Train on unbiased quantized stacks R (M x 2N); input weights and
    hidden biases are uniform on [-weight_scale, weight_scale]."""
    R = np.asarray(R, dtype=float)
    if hidden_size < 1:
        raise ValueError("hidden_size must be >= 1")
    W_in = rng.uniform(-weight_scale, weight_scale, (hidden_size, R.shape[1]))
    b = rng.uniform(-weight_scale, weight_scale, hidden_size)
    Z = _hidden(W_in, b, R)
    out = _train_separated(Z, X_train, gamma)
    return BorrowedElmModel(input_weights=W_in, biases=b, out=out)


def borrowed_estimate(model: BorrowedElmModel, r: np.ndarray) -> np.ndarray:
    return elm_estimate(model.out, _hidden(model.input_weights, model.biases, r))


def detect_borrowed_elm(model: BorrowedElmModel, r: np.ndarray) -> np.ndarray:
    return QAM16.demap(borrowed_estimate(model, r))


@dataclass
class AdaptiveElmReceiver:
    """OSELM receiver: RLS state over the 2N biased-quantized hidden
    outputs with 2K targets (real parts first, then imaginary)."""

    rls: RlsState
    n_users: int
    gamma: float


def oselm_init(R0: np.ndarray, X0: np.ndarray, gamma: float,
               lam: float) -> AdaptiveElmReceiver:
    T0 = np.concatenate([X0.real, X0.imag], axis=1)
    return AdaptiveElmReceiver(rls=rls_init(R0, T0, gamma, lam),
                               n_users=X0.shape[1], gamma=gamma)


def oselm_update(recv: AdaptiveElmReceiver, R_chunk: np.ndarray,
                 X_chunk: np.ndarray) -> AdaptiveElmReceiver:
    """Consume a chunk of (r', x) training pairs in arrival order."""
    R_chunk = np.atleast_2d(np.asarray(R_chunk, dtype=float))
    X_chunk = np.atleast_2d(np.asarray(X_chunk))
    T = np.concatenate([X_chunk.real, X_chunk.imag], axis=1)
    state = recv.rls
    for r, t in zip(R_chunk, T):
        state = rls_step(state, r, t)
    return replace(recv, rls=state)


def oselm_weights(recv: AdaptiveElmReceiver) -> RealImagWeights:
    K = recv.n_users
    beta = recv.rls.beta
    return RealImagWeights(beta_re=beta[:, :K].copy(),
                           beta_im=beta[:, K:].copy(), gamma=recv.gamma)
