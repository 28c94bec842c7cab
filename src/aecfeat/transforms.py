"""Feature de-correlation and reduction: truncated orthonormal DCT-II and
PCA projection, both to 50 output dimensions by default."""

from dataclasses import dataclass

import numpy as np

from .errors import AecError


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
            raise AecError("n_keep must not exceed n_points")
        if self.basis is None:
            self.basis = dct_basis(self.n_points)[: self.n_keep]


# rows per block of `_project`: 1.2 MB of float64 at 150 dims
PROJECT_ROWS = 1024


def _project(values, basis, mean=0.0):
    """(values - mean) @ basis.T in float64, a block of rows at a time
    into one preallocated output, so only one block of `values` is ever
    cast to float64. Blocks hold PROJECT_ROWS rows and the last one also
    takes the remainder: a BLAS may multiply a block of a few rows with
    another kernel, in another summation order, while blocks this large
    give the same bits as one product over the whole matrix."""
    out = np.empty((len(values), len(basis)))
    n_blocks = max(1, len(values) // PROJECT_ROWS)
    edges = [i * PROJECT_ROWS for i in range(n_blocks)] + [len(values)]
    for lo, hi in zip(edges, edges[1:]):
        block = np.subtract(values[lo:hi], mean, dtype=np.float64)
        np.matmul(block, basis.T, out=out[lo:hi])
    return out


def dct_apply(spec, values):
    """Project each row onto the leading DCT-II basis vectors."""
    values = np.atleast_2d(values)
    if values.shape[1] != spec.n_points:
        raise AecError(f"dims {values.shape[1]} != n_points {spec.n_points}")
    return _project(values, spec.basis)


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (out_dim, n), orthonormal rows
    eigenvalues: np.ndarray  # non-increasing


def pca_fit(values, out_dim=50):
    """Top eigenvectors of the sample covariance (denominator rows-1).

    The sign of each component is fixed so its largest-magnitude entry is
    positive, making the fit deterministic. The fit runs in float64 whatever
    the input dtype.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    rows, dims = values.shape
    if rows < out_dim + 1:
        raise AecError(f"need at least {out_dim + 1} rows, got {rows}")
    if dims < out_dim:
        raise AecError(f"need at least {out_dim} dims, got {dims}")
    mean = values.mean(axis=0)
    centered = values - mean
    if not np.any(centered):
        raise AecError("all rows identical")
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
        raise AecError(
            f"dims {values.shape[1]} != model dims {model.mean.shape[0]}"
        )
    return _project(values, model.components, model.mean)
