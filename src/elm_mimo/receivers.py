"""Receivers: natural ELM, ZF/MMSE, trained ZF, borrowed ELM, and the
adaptive (OSELM) variant.

The natural ELM and the trained ZF share one mechanism: a ridge fit
from real-stacked observations to the real/imaginary parts of the
transmitted symbols.  They differ only in whether the observations were
biased before quantization.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .core import (RlsState, _real, factor, gram, real_stack, ridge_solve,
                   rls_init, rls_step)
from .frontend import QAM16


@dataclass(frozen=True)
class RealImagWeights:
    """Per-user output weights over a real regressor of length L.

    beta_re and beta_im are (L, K); user k's symbol estimate is
    beta_re[:, k] . r + j beta_im[:, k] . r.  B interleaves them as one
    (L, 2K) readout with columns Re_0, Im_0, Re_1, Im_1, ....
    """

    beta_re: np.ndarray
    beta_im: np.ndarray
    gamma: float
    B: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        B = np.empty((self.beta_re.shape[0], 2 * self.beta_re.shape[1]))
        B[:, 0::2], B[:, 1::2] = self.beta_re, self.beta_im
        object.__setattr__(self, "B", B)


def _split(B: np.ndarray, gamma: float) -> RealImagWeights:
    """Per-user weights from an (L, 2K) fit to [Re X | Im X]."""
    K = B.shape[1] // 2
    return RealImagWeights(beta_re=B[:, :K], beta_im=B[:, K:], gamma=gamma)


def train_natural_elm(R_prime: np.ndarray, X_train: np.ndarray,
                      gamma: float) -> RealImagWeights:
    """Fit output weights from biased-quantized stacks R' (M x 2N) to the
    real and imaginary parts of the transmitted symbols X_train (M x K);
    one factorization serves both target blocks."""
    return _split(ridge_solve(R_prime, real_stack(X_train), gamma), gamma)


def train_zf_direct(R, X_train: np.ndarray, gamma: float) -> RealImagWeights:
    """Trained ZF: the same ridge fit on unbiased quantized stacks R (M x 2N)."""
    return train_natural_elm(R, X_train, gamma)


def elm_estimate(w: RealImagWeights, r: np.ndarray) -> np.ndarray:
    """Soft symbol estimates r @ B viewed as complex; r is (2N,) or (M, 2N)."""
    return (r @ w.B).view(complex)


def detect_natural_elm(w: RealImagWeights, r: np.ndarray) -> np.ndarray:
    return QAM16.demap(elm_estimate(w, r))


def zf_weights(H: np.ndarray) -> np.ndarray:
    """Complex combiner W = (H^H H)^-1 H^H (K x N), row k recovering
    user k; a rank-deficient H raises LinAlgError (a ValueError)."""
    H = np.asarray(H, dtype=complex)
    G = gram(H, 0.0)
    if np.linalg.cond(G) > 1e14:
        raise np.linalg.LinAlgError("channel matrix is rank deficient")
    return cho_solve(factor(G, 0.0), H.conj().T)


def mmse_weights(H: np.ndarray, snr: float) -> np.ndarray:
    """Complex combiner W = (H^H H + I/SNR)^-1 H^H, SNR in linear units."""
    if not snr > 0:
        raise ValueError("snr must be positive")
    H, gamma = np.asarray(H, dtype=complex), 1.0 / snr
    return cho_solve(factor(gram(H, gamma), gamma), H.conj().T)


def detect_linear(W: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Apply the combiner to complex observations r ((N,) or (M, N))."""
    return QAM16.demap(r @ W.T)


@dataclass(frozen=True)
class BorrowedElmModel:
    """Conventional ELM over the quantized stack: random frozen input
    layer, sigmoid activation, ridge-trained output weights."""

    input_weights: np.ndarray   # (L, 2N)
    biases: np.ndarray          # (L,)
    out: RealImagWeights


def _hidden(model_w: np.ndarray, model_b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + exp(-z)) of z = r W^T + b, in z's buffer."""
    z = r @ model_w.T
    z += model_b
    with np.errstate(over="ignore"):   # exp(-z) = inf gives exactly 0
        np.exp(np.negative(z, out=z), out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def train_borrowed_elm(R: np.ndarray, X_train: np.ndarray, gamma: float,
                       hidden_size: int,
                       rng: np.random.Generator) -> BorrowedElmModel:
    """Train on unbiased quantized stacks R (M x 2N); input weights and
    hidden biases are uniform on [-0.1, 0.1]."""
    R = _real(R, "R")
    if hidden_size < 1:
        raise ValueError("hidden_size must be >= 1")
    W_in = rng.uniform(-0.1, 0.1, (hidden_size, R.shape[1]))
    b = rng.uniform(-0.1, 0.1, hidden_size)
    out = train_natural_elm(_hidden(W_in, b, R), X_train, gamma)
    return BorrowedElmModel(input_weights=W_in, biases=b, out=out)


def borrowed_estimate(model: BorrowedElmModel, r: np.ndarray) -> np.ndarray:
    return elm_estimate(model.out, _hidden(model.input_weights, model.biases, r))


def detect_borrowed_elm(model: BorrowedElmModel, r: np.ndarray) -> np.ndarray:
    return QAM16.demap(borrowed_estimate(model, r))


def oselm_init(R0: np.ndarray, X0: np.ndarray, gamma: float,
               lam: float) -> RlsState:
    """OS-ELM state over the 2N biased-quantized hidden outputs with 2K
    targets (real parts first, then imaginary)."""
    return rls_init(R0, real_stack(X0), gamma, lam)


def oselm_update(state: RlsState, R_chunk: np.ndarray,
                 X_chunk: np.ndarray) -> RlsState:
    """Consume a chunk of (r', x) training pairs in arrival order, one
    rls_step each; the state comes back with the chunk folded in."""
    R_chunk = np.atleast_2d(_real(R_chunk, "R_chunk"))
    X_chunk = np.atleast_2d(np.asarray(X_chunk))
    if len(R_chunk) != len(X_chunk):
        raise ValueError(f"R_chunk has {len(R_chunk)} rows but X_chunk has "
                         f"{len(X_chunk)}; each training pair needs both")
    for r, t in zip(R_chunk, real_stack(X_chunk)):
        state = rls_step(state, r, t)
    return state.fold()


def oselm_weights(state: RlsState, gamma: float) -> RealImagWeights:
    return _split(state.beta, gamma)
