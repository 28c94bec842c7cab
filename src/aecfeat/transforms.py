"""Feature de-correlation and reduction: truncated orthonormal DCT-II and
PCA projection, both to 50 output dimensions by default."""

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, TooFewRows, ZeroVariance


def dct_basis(n_points):
    """Full orthonormal DCT-II matrix, rows are basis vectors.

    C[k, n] = s_k cos(pi (2n+1) k / (2N)), s_0 = sqrt(1/N), s_k = sqrt(2/N).
    """
    n = np.arange(n_points)
    k = n[:, None]
    basis = np.cos(np.pi * (2 * n[None, :] + 1) * k / (2.0 * n_points))
    scale = np.full(n_points, np.sqrt(2.0 / n_points))
    scale[0] = np.sqrt(1.0 / n_points)
    return scale[:, None] * basis


@dataclass
class DctSpec:
    n_points: int = 150
    n_keep: int = 50
    basis: np.ndarray = None  # (n_keep, n_points), rows orthonormal

    def __post_init__(self):
        if self.n_keep > self.n_points:
            raise ValueError("n_keep must not exceed n_points")
        if self.basis is None:
            self.basis = dct_basis(self.n_points)[: self.n_keep]


def dct_apply(spec, values):
    """Project each row onto the leading DCT-II basis vectors."""
    values = np.atleast_2d(values)
    if values.shape[1] != spec.n_points:
        raise DimMismatch(f"dims {values.shape[1]} != n_points {spec.n_points}")
    return values @ spec.basis.T


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (out_dim, n), orthonormal rows
    eigenvalues: np.ndarray  # non-increasing


def pca_fit(values, out_dim=50):
    """Top eigenvectors of the sample covariance (denominator rows-1).

    The sign of each component is fixed so its largest-magnitude entry is
    positive, making the fit deterministic.
    """
    values = np.atleast_2d(values)
    rows, dims = values.shape
    if rows < out_dim + 1:
        raise TooFewRows(f"need at least {out_dim + 1} rows, got {rows}")
    if dims < out_dim:
        raise DimMismatch(f"need at least {out_dim} dims, got {dims}")
    mean = values.mean(axis=0)
    centered = values - mean
    if not np.any(centered):
        raise ZeroVariance("all rows identical")
    cov = centered.T @ centered / (rows - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(eigvals)[::-1][:out_dim]
    eigvals = np.maximum(eigvals[order], 0.0)
    comps = eigvecs[:, order].T
    for i in range(comps.shape[0]):
        j = np.argmax(np.abs(comps[i]))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return PcaModel(mean=mean, components=comps, eigenvalues=eigvals)


def pca_apply(model, values):
    """y = components @ (x - mean), per row."""
    values = np.atleast_2d(values)
    if values.shape[1] != model.mean.shape[0]:
        raise DimMismatch(
            f"dims {values.shape[1]} != model dims {model.mean.shape[0]}"
        )
    return (values - model.mean) @ model.components.T
