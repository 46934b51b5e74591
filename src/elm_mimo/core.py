"""Dense real linear algebra shared by the receivers.

Ridge-regularized least squares, the real-composite embedding of complex
linear systems, and a recursive least-squares engine with exponential
forgetting.  gram and factor are the package's one path to normal
equations: every readout, the recursive one included, goes through them.
Everything operates on plain float64 / complex128 ndarrays.
"""
from __future__ import annotations

from copy import copy

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve


def gram(Z: np.ndarray, gamma: float) -> np.ndarray:
    """Regularized Gram matrix Z^H Z + gamma I of real or complex Z."""
    if not 0 <= gamma < np.inf:
        raise ValueError(f"gamma must be finite and nonnegative: {gamma!r}")
    G = Z.conj().T @ Z
    if gamma:
        G[np.diag_indices_from(G)] += gamma
    return G


def factor(G: np.ndarray, gamma: float | None = None):
    """Lower Cholesky factor of a normal-equation matrix G, for
    cho_solve; a singular G raises LinAlgError (a ValueError), naming
    gamma if G is gram(Z, gamma), instead of falling back to a
    pseudo-inverse."""
    try:
        return cho_factor(G, lower=True)
    except LinAlgError as exc:
        where = "" if gamma is None else " (gamma=%g)" % gamma
        raise LinAlgError(
            "singular normal equations%s; increase the regularization or "
            "provide more samples" % where) from exc


def _real(a, name: str) -> np.ndarray:
    """a as float64; complex a raises rather than lose its imaginary part."""
    if np.iscomplexobj(a):
        raise ValueError(f"{name} must be real; real_stack complex samples")
    return np.asarray(a, dtype=float)


def ridge_solve(Z: np.ndarray, T: np.ndarray, gamma: float) -> np.ndarray:
    """Minimize ||Z B - T||^2 + gamma ||B||^2 columnwise.

    Solves the normal equations (Z^T Z + gamma I) B = Z^T T through
    :func:`gram` and :func:`factor`.
    """
    Z, T = _real(Z, "Z"), _real(T, "T")
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


class RlsState:
    """Exponentially weighted ridge fit as its normal equations G beta = C:
    after n samples (r_i, t_i) past a batch (R0, T0), G = lam^n (R0^T R0
    + gamma I) + sum_i lam^(n-i) r_i r_i^T, C likewise from R0^T T0 and
    r_i t_i^T.  lam is the forgetting factor in (0, 1].

    A state is a folded base (G0, C0) and the samples rls_step queued
    since, oldest first; states share their base arrays and never write
    them.  Reading G, C or beta folds the n queued rows R, T once, as one
    weighted rank-n product: G = lam^n G0 + (w R)^T R and C = lam^n C0
    + (w R)^T T with w_i = lam^(n-1-i).  G and C read back read-only.
    """

    def __init__(self, G: np.ndarray, C: np.ndarray, lam: float):
        self._G, self._C = _real(G, "G"), _real(C, "C")   # (L, L), (L, V)
        self.lam = lam
        self._queue = ()    # ((r, t), ...) not yet in G and C, oldest first
        if not 0.0 < self.lam <= 1.0:
            raise ValueError("forgetting factor must be in (0, 1]")
        if self._G.ndim != 2 or self._G.shape[0] != self._G.shape[1]:
            raise ValueError("G must be square")
        if self._C.ndim != 2:
            raise ValueError("C must be a 2-D (L, V) matrix")
        if self._C.shape[0] != self._G.shape[0]:
            raise ValueError("C rows must match G")

    def fold(self) -> RlsState:
        """Move the queued samples into G and C now; returns self."""
        if self._queue:
            R = np.array([r for r, _ in self._queue])
            T = np.array([t for _, t in self._queue])
            n = len(R)
            wR = R * (self.lam ** np.arange(n - 1, -1, -1.0))[:, None]
            G = self.lam ** n * self._G
            G += wR.T @ R
            C = self.lam ** n * self._C
            C += wR.T @ T
            self._G, self._C, self._queue = G, C, ()
        return self

    @property
    def G(self) -> np.ndarray:
        return _read_only(self.fold()._G)

    @property
    def C(self) -> np.ndarray:
        return _read_only(self.fold()._C)

    @property
    def beta(self) -> np.ndarray:
        """Output weights (L, V), the solution of G beta = C."""
        return cho_solve(factor(self.G), self.C)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def rls_init(R0: np.ndarray, T0: np.ndarray, gamma: float,
             lam: float = 1.0) -> RlsState:
    """Batch-initialize from M0 regressor rows R0 and targets T0: beta
    starts as their ridge fit, and lam = 1 updates stay the ridge fit of
    all data seen."""
    R0, T0 = _real(R0, "R0"), _real(T0, "T0")
    if T0.ndim == 1:
        T0 = T0[:, None]
    return RlsState(G=gram(R0, gamma), C=R0.T @ T0, lam=lam)


def rls_step(state: RlsState, r: np.ndarray, t: np.ndarray) -> RlsState:
    """Add one sample, regressor r (length L) and target t (length V):
    G <- lam G + r r^T, C <- lam C + r t^T.  Returns a new state.

    The new state queues copies of r and t behind the parent's queue, in
    O(L + V), and the fold applies them; a parent already queueing L
    rows is folded first, so no queue outgrows G."""
    r, t = _real(r, "r").copy(), np.atleast_1d(_real(t, "t")).copy()
    if (r.shape, t.shape) != ((len(state._G),), (state._C.shape[1],)):
        raise ValueError("r must have length L and t length V of the "
                         "state's (L, V) C")
    if len(state._queue) == len(state._G):
        state.fold()
    child = copy(state)
    child._queue = state._queue + ((r, t),)
    return child
