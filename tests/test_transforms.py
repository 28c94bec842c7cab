import numpy as np
import pytest

from aecfeat.errors import DimMismatch, TooFewRows, ZeroVariance
from aecfeat.transforms import DctSpec, dct_basis, dct_apply, pca_apply, pca_fit


class TestDct:
    def test_basis_orthonormal(self):
        c = dct_basis(150)
        assert np.max(np.abs(c @ c.T - np.eye(150))) <= 1e-10

    def test_constant_vector_is_dc_only(self):
        spec = DctSpec(n_points=150, n_keep=50)
        x = np.full((1, 150), 3.0)
        y = dct_apply(spec, x)
        assert y[0, 0] == pytest.approx(3.0 * np.sqrt(150.0))
        assert np.max(np.abs(y[0, 1:])) <= 1e-10

    def test_full_round_trip(self):
        spec = DctSpec(n_points=150, n_keep=150)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 150))
        recon = dct_apply(spec, x) @ spec.basis
        assert np.max(np.abs(recon - x)) <= 1e-9

    def test_zero_vector(self):
        spec = DctSpec()
        assert not dct_apply(spec, np.zeros((1, 150))).any()

    def test_linearity(self):
        spec = DctSpec()
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, 1, 150))
        a, b = 2.5, -1.25
        lhs = dct_apply(spec, a * x + b * y)
        rhs = a * dct_apply(spec, x) + b * dct_apply(spec, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_shape_and_metadata(self):
        out = dct_apply(DctSpec(), np.random.default_rng(2).standard_normal((92, 150)))
        assert out.shape == (92, 50)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            dct_apply(DctSpec(), np.zeros((2, 100)))


class TestPcaFit:
    def test_line_direction(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal(500)
        x = np.column_stack([t, 2 * t]) + 1e-3 * rng.standard_normal((500, 2))
        model = pca_fit(x, out_dim=2)
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert np.max(np.abs(model.components[0] - expected)) < 1e-3
        assert model.eigenvalues[0] >= model.eigenvalues[1]

    def test_isotropic_components_still_orthonormal(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2000, 6))
        model = pca_fit(x, out_dim=6)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-8
        # eigenvalues are approximately equal for isotropic data
        assert model.eigenvalues[0] / model.eigenvalues[-1] < 1.5

    def test_identical_rows(self):
        with pytest.raises(ZeroVariance):
            pca_fit(np.ones((10, 4)), out_dim=2)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            pca_fit(np.random.default_rng(5).standard_normal((10, 20)), out_dim=10)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((100, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.1])
        a = pca_fit(x, out_dim=3)
        b = pca_fit(x.copy(), out_dim=3)
        assert np.array_equal(a.components, b.components)
        for row in a.components:
            assert row[np.argmax(np.abs(row))] > 0


class TestPcaApply:
    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((100, 4))
        model = pca_fit(x, out_dim=3)
        out = pca_apply(model, model.mean[None, :])
        assert np.max(np.abs(out)) <= 1e-12

    def test_projected_variance_equals_eigenvalues(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((500, 6)) @ np.diag([3.0, 2.0, 1.5, 1.0, 0.5, 0.2])
        model = pca_fit(x, out_dim=4)
        proj = pca_apply(model, x)
        var = proj.var(axis=0, ddof=1)
        assert np.allclose(var, model.eigenvalues, rtol=1e-6)

    def test_full_dim_rotation_preserves_norms(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((200, 5))
        model = pca_fit(x, out_dim=5)
        proj = pca_apply(model, x)
        centered = x - model.mean
        assert np.allclose(np.sum(proj ** 2, axis=1),
                           np.sum(centered ** 2, axis=1), atol=1e-9)

    def test_uncorrelated_projections(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((400, 8)) @ rng.standard_normal((8, 8))
        model = pca_fit(x, out_dim=5)
        proj = pca_apply(model, x)
        cov = np.cov(proj, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-6 * model.eigenvalues[0]

    def test_linearity_on_centered_inputs(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((100, 4))
        model = pca_fit(x, out_dim=3)
        u, v = rng.standard_normal((2, 1, 4))
        a, b = 1.5, -0.5
        # linear on centered displacement vectors
        lhs = pca_apply(model, model.mean + a * u + b * v)
        rhs = (a * pca_apply(model, model.mean + u)
               + b * pca_apply(model, model.mean + v))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_dim_mismatch(self):
        model = pca_fit(np.random.default_rng(12).standard_normal((50, 4)), out_dim=2)
        with pytest.raises(DimMismatch):
            pca_apply(model, np.zeros((1, 6)))
