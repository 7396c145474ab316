"""Least-squares support vector machine (binary), from scratch.

The paper's SVM is the Matlab LS-SVMlab toolkit (its reference [13]); the
least-squares formulation replaces the hinge loss with a squared loss, so
training reduces to one symmetric linear system instead of a QP::

    [ 0      1^T        ] [ b     ]   [ 0 ]
    [ 1      K + I / C  ] [ alpha ] = [ y ]

with an RBF kernel ``K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2))``.  The
decision function is ``f(x) = sum_i alpha_i k(x_i, x) + b``.

Two extras matter for the experiments:

* :meth:`LSSVM.loo_decision_values` — exact leave-one-out decision values
  from a single factorisation, via the classic identity ``f_loo_i = f_i -
  alpha_i / (A^{-1})_ii``; this is what makes LOOCV over 2,500 loops cheap.
* multi-RHS training: the multi-class wrapper trains one binary machine per
  output-code bit, and all bits share the same system matrix, so one
  factorisation serves every bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


def _squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    sq_a = (A**2).sum(axis=1)[:, None]
    sq_b = (B**2).sum(axis=1)[None, :]
    d2 = sq_a + sq_b - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _gaussian(d2: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-d2 / (2.0 * sigma * sigma))


def rbf_kernel(A: np.ndarray, B: np.ndarray, sigma: float) -> np.ndarray:
    """The RBF (Gaussian) kernel matrix between row sets ``A`` and ``B``."""
    return _gaussian(_squared_distances(A, B), sigma)


def multiscale_rbf_kernel(
    A: np.ndarray,
    B: np.ndarray,
    sigma: float,
    scale_ratio: float = 30.0,
    mix: float = 0.5,
) -> np.ndarray:
    """A two-bandwidth RBF mixture: ``mix * K(sigma) + (1-mix) *
    K(sigma * scale_ratio)``.

    Unroll-factor boundaries are *crisp* (a register-file or code-size
    threshold flips the label at an exact body size), yet broad trends
    matter too (bigger bodies want smaller factors).  A single bandwidth
    must choose between the two; mixing a sharp and a smooth component
    captures both, and is what lifts the LS-SVM past the near-neighbor
    classifier on this problem.  (Sums of valid kernels are valid kernels.)
    """
    d2 = _squared_distances(A, B)
    return mix * _gaussian(d2, sigma) + (1.0 - mix) * _gaussian(d2, sigma * scale_ratio)


def kernel_matrix(
    A: np.ndarray,
    B: np.ndarray,
    kernel: str,
    sigma: float,
    scale_ratio: float = 30.0,
    mix: float = 0.5,
) -> np.ndarray:
    """The named kernel (``"rbf"`` or ``"multiscale"``) between row sets."""
    if kernel == "multiscale":
        return multiscale_rbf_kernel(A, B, sigma, scale_ratio, mix)
    return rbf_kernel(A, B, sigma)


#: Tuned hyperparameters used by the paper-reproduction experiments (found
#: by the LOOCV sweep recorded in EXPERIMENTS.md).
TUNED_SVM_PARAMS = {
    "C": 1000.0,
    "sigma": 0.012,
    "kernel": "multiscale",
    "scale_ratio": 30.0,
    "mix": 0.5,
}


@dataclass
class LSSVMSolution:
    """Dual solution of one (or several stacked) binary LS-SVM problems."""

    alpha: np.ndarray  # (n,) or (n, m) dual coefficients
    bias: np.ndarray  # scalar per problem, shape () or (m,)
    targets: np.ndarray  # the training targets Y
    lu_factors: tuple | None  # LU factorisation (None on a restored model)
    inv_diag: np.ndarray | None = None  # diag(A^{-1}) over the alpha block (lazy)


class LSSVM:
    """Binary (or multi-RHS) least-squares SVM with an RBF kernel.

    Args:
        C: regularisation weight (larger fits the training set harder).
        sigma: RBF bandwidth, in units of the (normalised) feature space.
        kernel: ``"rbf"`` or ``"multiscale"`` (see
            :func:`multiscale_rbf_kernel`).
        scale_ratio, mix: multiscale-kernel parameters (ignored for plain
            RBF).
    """

    def __init__(
        self,
        C: float = 10.0,
        sigma: float = 0.65,
        kernel: str = "rbf",
        scale_ratio: float = 30.0,
        mix: float = 0.5,
    ):
        if C <= 0 or sigma <= 0:
            raise ValueError("C and sigma must be positive")
        if kernel not in ("rbf", "multiscale"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self.C = C
        self.sigma = sigma
        self.kernel = kernel
        self.scale_ratio = scale_ratio
        self.mix = mix
        self._X: np.ndarray | None = None
        self._solution: LSSVMSolution | None = None

    def _kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return kernel_matrix(A, B, self.kernel, self.sigma, self.scale_ratio, self.mix)

    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "LSSVM":
        """Solve the LS-SVM system for targets ``Y`` (``(n,)`` with values
        in {-1, +1}, or ``(n, m)`` to train ``m`` machines sharing ``X``)."""
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        n = len(X)
        if n == 0 or Y.shape[0] != n:
            raise ValueError("X and Y must be non-empty and aligned")
        K = self._kernel(X, X)
        A = np.zeros((n + 1, n + 1))
        A[0, 1:] = 1.0
        A[1:, 0] = 1.0
        A[1:, 1:] = K + np.eye(n) / self.C

        rhs = np.zeros((n + 1,) + Y.shape[1:])
        rhs[1:] = Y
        # The system is symmetric indefinite; LU is robust and lets us
        # recover diag(A^{-1}) for the leave-one-out shortcut when asked.
        lu, piv = scipy.linalg.lu_factor(A)
        solution = scipy.linalg.lu_solve((lu, piv), rhs)
        self._X = X
        self._solution = LSSVMSolution(
            alpha=solution[1:],
            bias=solution[0],
            targets=Y,
            lu_factors=(lu, piv),
        )
        return self

    @property
    def is_fitted(self) -> bool:
        return self._solution is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("LS-SVM is not fitted")

    # ------------------------------------------------------------------
    # Persistence (consumed by repro.registry model artifacts).
    # ------------------------------------------------------------------

    def get_state(self) -> dict:
        """The dual solution and training rows, as plain arrays/scalars.

        The LU factorisation is deliberately excluded: it is only needed
        for the leave-one-out shortcut, which deployment never uses.
        """
        self._require_fitted()
        return {
            "C": float(self.C),
            "sigma": float(self.sigma),
            "kernel": self.kernel,
            "scale_ratio": float(self.scale_ratio),
            "mix": float(self.mix),
            "X": self._X,
            "alpha": np.asarray(self._solution.alpha, dtype=np.float64),
            "bias": np.asarray(self._solution.bias, dtype=np.float64),
            "targets": np.asarray(self._solution.targets, dtype=np.float64),
        }

    @classmethod
    def from_state(cls, state: dict) -> "LSSVM":
        """Rebuild a fitted machine with bit-identical decision values.

        The restored machine predicts exactly (same kernel inputs, same
        dual coefficients) but cannot compute leave-one-out values — that
        requires the training factorisation, which artifacts do not carry.
        """
        machine = cls(
            C=float(state["C"]),
            sigma=float(state["sigma"]),
            kernel=str(state["kernel"]),
            scale_ratio=float(state["scale_ratio"]),
            mix=float(state["mix"]),
        )
        bias = np.asarray(state["bias"], dtype=np.float64)
        machine._X = np.asarray(state["X"], dtype=np.float64)
        machine._solution = LSSVMSolution(
            alpha=np.asarray(state["alpha"], dtype=np.float64),
            bias=bias[()] if bias.ndim == 0 else bias,
            targets=np.asarray(state["targets"], dtype=np.float64),
            lu_factors=None,
        )
        return machine

    # ------------------------------------------------------------------

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        """``f(x)`` for query rows (one column per trained machine)."""
        self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        K = self._kernel(X, self._X)
        return K @ self._solution.alpha + self._solution.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Signs of the decision values."""
        return np.where(self.decision_values(X) >= 0.0, 1, -1)

    def training_decision_values(self) -> np.ndarray:
        """``f(x_i)`` on the training set (no kernel recomputation)."""
        self._require_fitted()
        K = self._kernel(self._X, self._X)
        return K @ self._solution.alpha + self._solution.bias

    def loo_decision_values(self) -> np.ndarray:
        """Exact leave-one-out decision values on the training set.

        The Cawley-Talbot identity gives the LOO *residual* in closed form:
        ``y_i - f_{-i}(x_i) = alpha_i / (A^{-1})_ii``, so the left-out
        decision value is ``y_i`` minus that — no retraining required.  The
        ``A^{-1}`` diagonal is computed lazily on the stored factorisation
        (plain fits for deployment never pay for it).
        """
        self._require_fitted()
        if self._solution.inv_diag is None:
            if self._solution.lu_factors is None:
                raise RuntimeError(
                    "leave-one-out values are unavailable on a model restored "
                    "from an artifact (no training factorisation)"
                )
            n = len(self._X)
            inverse = scipy.linalg.lu_solve(self._solution.lu_factors, np.eye(n + 1))
            self._solution.inv_diag = np.diag(inverse)[1:].copy()
        residual = (self._solution.alpha.T / self._solution.inv_diag).T
        return self._solution.targets - residual
