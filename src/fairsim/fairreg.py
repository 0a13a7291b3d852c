"""Covariance-projection fairness regularizer for linear ranking models.

The regularizer penalizes the component of the model that moves with the
protected attribute. It is built in two steps from a reference pool:

1. Fit an auxiliary direction ``w_a`` that predicts the protected attribute
   from the features by centered ridge regression,

       (Xh Xh^T + alpha_a * N * I) w_a = Xh Ah^T,

   where ``Xh`` is the column-centered m x N feature matrix, ``Ah`` the
   centered protected attributes, and ``alpha_a`` a small per-sample ridge
   that keeps the solve well posed when ``alpha_a > 0``.

2. Project through the feature covariance ``Sigma_x = Xh Xh^T / N`` to get
   the penalty direction ``w_reg = Sigma_x w_a``, which is proportional to
   the covariance between the features and the predicted protected attribute.

Training then discourages alignment with ``w_reg``. The online update is

    w <- w + eta * (y - yhat) * (1, x) - lambda * (w . w_reg~) * w_reg~,

with ``w_reg~`` the intercept-padded direction (0, w_reg); the penalty term
applies every round, including rounds without a mistake. The batch analogue
solves ``(X X^T + lambda * w_reg~ w_reg~^T) w = X Y^T`` exactly.
"""

from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .datagen import (
    FloatArray, Pool, Rate, _parse, check_fields, feature_matrix, protected_values, read_json_keys,
    write_json,
)
from .errors import ConfigError, DimensionMismatch, SingularSystemError
from .learner import LinearModel, perceptron_update

# Relative residual above which a direct solve is reported as unreliable.
RESIDUAL_TOLERANCE = 1e-8


@dataclass(frozen=True, eq=False)
class FairRegularizer:
    """Fitted penalty: auxiliary direction, feature covariance, and strength.

    Immutable after construction; use :meth:`with_strength` to change lambda.
    ``padded_direction`` is ``w_reg`` with a zero prepended so the intercept is
    never penalized, built once as a read-only array.
    """

    w_a: FloatArray
    sigma_x: FloatArray
    w_reg: FloatArray
    lam: Rate
    alpha_a: Rate
    padded_direction: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_fields(self)
        m = self.w_a.size
        if self.w_a.ndim != 1 or self.sigma_x.shape != (m, m) or self.w_reg.shape != (m,):
            raise DimensionMismatch("w_a, sigma_x, and w_reg must be m, (m, m), and m shaped")
        if not np.allclose(self.sigma_x, self.sigma_x.T, rtol=1e-9, atol=1e-12):
            raise ConfigError("sigma_x must be symmetric")
        if not np.allclose(self.w_reg, self.sigma_x @ self.w_a, rtol=1e-9, atol=1e-12):
            raise ConfigError("w_reg must equal sigma_x @ w_a")
        padded = np.concatenate(([0.0], self.w_reg))
        padded.setflags(write=False)
        object.__setattr__(self, "padded_direction", padded)

    def with_strength(self, lam: float) -> "FairRegularizer":
        """Same fitted directions with a different penalty strength."""
        return replace(self, lam=lam)

    def online_step(self) -> partial:
        """The online update: ``regularized_update`` bound to this penalty. Raises ConfigError
        past the stability limit ``lambda * |w_reg|^2 <= 2``; ``solve_exact`` has none."""
        norm2 = float(self.w_reg @ self.w_reg)
        if self.lam * norm2 > 2.0:
            raise ConfigError(f"lambda={self.lam!r} exceeds the online stability limit "
                              f"2 / |w_reg|^2 = {2.0 / norm2:.6g}")
        return partial(regularized_update, reg=self)  # read now, so a later wrapper is bound


def _solve_reported(A: np.ndarray, b: np.ndarray, context: str) -> np.ndarray:
    """Direct solve with a singularity report carrying a condition diagnostic. A
    non-finite ``A`` or ``b``, from arithmetic past the float range, is refused first."""
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise SingularSystemError(f"{context}: the system overflows the float range")
    try:
        w = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"{context}: singular system (cond={np.linalg.cond(A):.3e})"
        ) from exc
    scale = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(A @ w - b))
    relative = residual / scale if scale > 0.0 else residual
    if not np.all(np.isfinite(w)) or relative > RESIDUAL_TOLERANCE:
        raise SingularSystemError(
            f"{context}: unreliable solve, relative residual {relative:.3e} "
            f"(cond={np.linalg.cond(A):.3e})"
        )
    return w


def fit_auxiliary(pool: Pool, alpha_a: float = 1e-3) -> FairRegularizer:
    """Fit the auxiliary predictor of the protected attribute and its projection.

    Solves ``(Xh Xh^T + alpha_a * N * I) w_a = Xh Ah^T`` on centered data and
    returns the regularizer at strength 0 with ``sigma_x = Xh Xh^T / N`` and
    ``w_reg = sigma_x @ w_a``. With ``alpha_a = 0`` this is the plain
    least-squares normal system, which can be singular for degenerate data. A
    constant protected column raises ConfigError: its ``w_a`` would be zero.
    That check also rejects a one-row pool, whose only value is constant.
    """
    alpha_a = _parse(Rate, alpha_a, "alpha_a")
    features = feature_matrix(pool)
    attrs = protected_values(pool).astype(float)
    if attrs.min() == attrs.max():
        raise ConfigError(f"every protected value is {attrs[0]:g}; the fit needs both groups")
    n, m = features.shape
    centered = features - features.mean(axis=0)
    attrs_centered = attrs - attrs.mean()
    with np.errstate(over="ignore", invalid="ignore"):  # _solve_reported refuses an overflow
        gram = centered.T @ centered
        A, b = gram + alpha_a * n * np.eye(m), centered.T @ attrs_centered
    w_a = _solve_reported(A, b, "auxiliary fit")
    sigma_x = gram / n
    return FairRegularizer(w_a=w_a, sigma_x=sigma_x, w_reg=sigma_x @ w_a,
                           lam=0.0, alpha_a=alpha_a)


def solve_exact(design: np.ndarray, targets: np.ndarray, reg: FairRegularizer) -> LinearModel:
    """Solve the penalized least-squares system in closed form.

    ``design`` is the (m + 1, N) matrix whose columns are intercept-augmented
    feature vectors; ``targets`` is the length-N label vector. Solves

        (X X^T + lambda * w_reg~ w_reg~^T) w = X Y^T

    by a direct method and reports failure if the relative residual exceeds
    ``RESIDUAL_TOLERANCE``.
    """
    X, y = _parse(FloatArray, design, "design"), _parse(FloatArray, targets, "targets")
    if X.ndim != 2 or y.ndim != 1 or X.shape[1] != y.size:
        raise DimensionMismatch(f"design {X.shape} does not match {y.size} targets")
    padded = reg.padded_direction
    if padded.size != X.shape[0]:
        raise DimensionMismatch(
            f"design has {X.shape[0]} rows but the regularizer expects {padded.size}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # _solve_reported refuses an overflow
        A, b = X @ X.T + reg.lam * np.outer(padded, padded), X @ y
    w = _solve_reported(A, b, "exact solve")
    return LinearModel(w)


def regularized_update(w: np.ndarray, x, y: int, eta: float, reg: FairRegularizer) -> np.ndarray:
    """One online step with the fairness penalty, on raw weights (intercept first).

    Applies ``w + eta * (y - yhat) * (1, x) - lambda * (w . w_reg~) * w_reg~``
    where both terms read the pre-update weights. The penalty applies every
    call; the perceptron term only on a mistake. With ``lambda = 0`` this
    reproduces the plain perceptron step bit for bit. Returns ``w`` itself
    (same object) when nothing changes.
    """
    new = perceptron_update(w, x, y, eta)
    if reg.w_a.size != w.size - 1:
        raise DimensionMismatch("regularizer direction does not match model width")
    if reg.lam != 0.0:
        padded = reg.padded_direction
        aligned = float(w.dot(padded))
        if aligned != 0.0:
            new = new - (reg.lam * aligned) * padded
    return new


def save_regularizer(reg: FairRegularizer, path: str | Path) -> None:
    """Write a regularizer as JSON with keys w_a, sigma_x, w_reg, lambda, alpha_a."""
    write_json(path, {"w_a": reg.w_a.tolist(), "sigma_x": reg.sigma_x.tolist(),
                      "w_reg": reg.w_reg.tolist(), "lambda": reg.lam, "alpha_a": reg.alpha_a})


def load_regularizer(path: str | Path) -> FairRegularizer:
    """Read a regularizer written by :func:`save_regularizer`."""
    return read_json_keys(path, ["w_a", "sigma_x", "w_reg", "lambda", "alpha_a"], FairRegularizer)
