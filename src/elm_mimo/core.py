"""Dense real linear algebra shared by the receivers.

Ridge-regularized least squares, the real-composite embedding of complex
linear systems, and a recursive least-squares engine with exponential
forgetting.  gram and factor are the package's one path to normal
equations: every trained readout and both genie combiners go through
them.  Everything operates on plain float64 / complex128 ndarrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

__all__ = [
    "gram",
    "factor",
    "ridge_solve",
    "real_composite",
    "real_stack",
    "RlsState",
    "rls_init",
    "rls_step",
]


def gram(Z: np.ndarray, gamma: float) -> np.ndarray:
    """Regularized Gram matrix Z^H Z + gamma I of real or complex Z."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    G = Z.conj().T @ Z
    if gamma:
        G[np.diag_indices_from(G)] += gamma
    return G


def factor(G: np.ndarray, gamma: float):
    """Lower Cholesky factor of the normal-equation matrix G = gram(Z,
    gamma), for cho_solve; a singular G raises ValueError instead of
    falling back to a pseudo-inverse."""
    try:
        return cho_factor(G, lower=True)
    except LinAlgError as exc:
        raise ValueError(
            "singular normal equations (gamma=%g); increase the "
            "regularization or provide more samples" % gamma
        ) from exc


def ridge_solve(Z: np.ndarray, T: np.ndarray, gamma: float) -> np.ndarray:
    """Minimize ||Z B - T||^2 + gamma ||B||^2 columnwise.

    Solves the normal equations (Z^T Z + gamma I) B = Z^T T through
    :func:`gram` and :func:`factor`.
    """
    Z = np.asarray(Z, dtype=float)
    T = np.asarray(T, dtype=float)
    if Z.ndim != 2:
        raise ValueError("Z must be a 2-D matrix")
    return cho_solve(factor(gram(Z, gamma), gamma), Z.T @ T)


def real_composite(H: np.ndarray) -> np.ndarray:
    """Embed a complex N x K matrix as [[Re, -Im], [Im, Re]] (2N x 2K)."""
    H = np.asarray(H)
    return np.block([[H.real, -H.imag], [H.imag, H.real]])


def real_stack(v: np.ndarray) -> np.ndarray:
    """Stack real over imaginary parts along the last axis.

    A length-N vector becomes length 2N; an M x N matrix of row samples
    becomes M x 2N.  Together with :func:`real_composite` this satisfies
    real_stack(H s) = real_composite(H) @ real_stack(s) exactly.
    """
    v = np.asarray(v)
    return np.concatenate([v.real, v.imag], axis=-1)


@dataclass
class RlsState:
    """State of an exponentially weighted recursive least-squares fit.

    P approximates the inverse (weighted) correlation matrix of the
    regressors, beta holds one output-weight column per target, and lam
    is the forgetting factor in (0, 1].
    """

    P: np.ndarray      # (L, L)
    beta: np.ndarray   # (L, V)
    lam: float

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        if not 0.0 < self.lam <= 1.0:
            raise ValueError("forgetting factor must be in (0, 1]")
        if self.P.shape[0] != self.P.shape[1]:
            raise ValueError("P must be square")
        if self.beta.shape[0] != self.P.shape[0]:
            raise ValueError("beta rows must match P")


def rls_init(R0: np.ndarray, T0: np.ndarray, gamma: float,
             lam: float = 1.0) -> RlsState:
    """Batch-initialize RLS from M0 regressor rows R0 and targets T0.

    P = (R0^T R0 + gamma I)^-1 and beta is the batch ridge solution, so
    subsequent lam = 1 updates stay exactly equal to batch ridge on the
    accumulated data.
    """
    R0 = np.asarray(R0, dtype=float)
    T0 = np.asarray(T0, dtype=float)
    if T0.ndim == 1:
        T0 = T0[:, None]
    c = factor(gram(R0, gamma), gamma)
    L = R0.shape[1]
    P = cho_solve(c, np.eye(L))
    P = 0.5 * (P + P.T)
    beta = cho_solve(c, R0.T @ T0)
    return RlsState(P=P, beta=beta, lam=lam)


def rls_step(state: RlsState, r: np.ndarray, t: np.ndarray) -> RlsState:
    """One RLS update with regressor r (length L) and target t (length V).

    q = P r / (lam + r^T P r); beta += q (t - beta^T r)^T;
    P <- (P - q r^T P) / lam, re-symmetrized.  Returns a new state.
    """
    r = np.asarray(r, dtype=float)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    P, beta, lam = state.P, state.beta, state.lam
    Pr = P @ r
    denom = lam + r @ Pr
    q = Pr / denom
    e = t - beta.T @ r
    beta_new = beta + np.outer(q, e)
    # one (L, L) buffer for (P - q Pr^T) / lam; P itself is never written
    X = np.outer(q, Pr)
    np.subtract(P, X, out=X)
    X /= lam
    P_new = X + X.T
    P_new *= 0.5
    if not (np.isfinite(P_new).all() and np.isfinite(beta_new).all()):
        raise FloatingPointError(
            "RLS update produced non-finite values; the forgetting factor "
            "is likely too small for the regressor dimension"
        )
    return RlsState(P=P_new, beta=beta_new, lam=lam)
