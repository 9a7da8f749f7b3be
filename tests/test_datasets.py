"""Dataset generators: exact covariances, standardization, determinism."""

import hashlib

import numpy as np
import pytest

from noiselab.datasets import (
    DATASET_KINDS,
    DatasetSpec,
    ar1_covariance,
    dataset_covariance,
    make_dataset,
    mixture2d_standardizer,
    upsample_covariance,
)

N_BIG = 20_000


class TestAr1Covariance:
    def test_hand_values(self):
        got = ar1_covariance(4, 0.5)
        want = np.array(
            [
                [1.0, 0.5, 0.25, 0.125],
                [0.5, 1.0, 0.5, 0.25],
                [0.25, 0.5, 1.0, 0.5],
                [0.125, 0.25, 0.5, 1.0],
            ]
        )
        np.testing.assert_array_equal(got, want)

    def test_rho_zero_is_identity(self):
        np.testing.assert_array_equal(ar1_covariance(5, 0.0), np.eye(5))

    @pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
    def test_rho_range(self, rho):
        with pytest.raises(ValueError):
            ar1_covariance(4, rho)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            ar1_covariance(0, 0.5)


class TestUpsampleCovariance:
    def test_hand_value(self):
        base = np.array([[1.0, 0.3], [0.3, 1.0]])
        got = upsample_covariance(base, 2)
        want = np.array(
            [
                [1.0, 1.0, 0.3, 0.3],
                [1.0, 1.0, 0.3, 0.3],
                [0.3, 0.3, 1.0, 1.0],
                [0.3, 0.3, 1.0, 1.0],
            ]
        )
        np.testing.assert_array_equal(got, want)

    def test_factor_one_identity(self):
        base = ar1_covariance(3, 0.4)
        np.testing.assert_array_equal(upsample_covariance(base, 1), base)

    def test_singular_for_factor_above_one(self):
        cov = upsample_covariance(ar1_covariance(3, 0.4), 2)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs[0] == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.matrix_rank(cov) == 3


class TestSpecValidation:
    def test_kinds_registry(self):
        assert DATASET_KINDS == ("gaussian_ar1", "mixture2d", "checkerboard", "toy_image")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="cifar", n_train=10, seed=0)

    def test_gaussian_needs_params(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="gaussian_ar1", n_train=10, seed=0, dim=8)
        with pytest.raises(ValueError):
            DatasetSpec(kind="gaussian_ar1", n_train=10, seed=0, dim=8, rho=1.0)

    def test_mixture_needs_params(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="mixture2d", n_train=10, seed=0, modes=0, radius=1.0, std=0.1)
        with pytest.raises(ValueError):
            DatasetSpec(kind="mixture2d", n_train=10, seed=0, modes=8, radius=0.0, std=0.1)
        with pytest.raises(ValueError):
            DatasetSpec(kind="mixture2d", n_train=10, seed=0, modes=8, radius=1.0, std=-1.0)

    def test_toy_image_upsample_whitelist(self):
        for u in (1, 2, 4):
            DatasetSpec(kind="toy_image", n_train=10, seed=0, base_res=2, rho=0.5, upsample=u)
        with pytest.raises(ValueError):
            DatasetSpec(kind="toy_image", n_train=10, seed=0, base_res=2, rho=0.5, upsample=3)

    @pytest.mark.parametrize("kind, own, foreign", [
        ("gaussian_ar1", dict(dim=4, rho=0.5), dict(upsample=4)),
        ("mixture2d", dict(modes=2, radius=1.0, std=0.2), dict(dim=7)),
        ("checkerboard", {}, dict(rho=0.5)),
        ("toy_image", dict(base_res=2, rho=0.5), dict(modes=3)),
    ])
    def test_field_of_another_kind_rejected(self, kind, own, foreign):
        # before, gaussian_ar1 with upsample = 4 built and then failed mid-run
        # in make_dataset with a TypeError
        (name,) = foreign
        with pytest.raises(ValueError, match=rf"^{name} does not apply to dataset kind {kind}$"):
            DatasetSpec(kind=kind, n_train=8, seed=0, **own, **foreign)
        make_dataset(DatasetSpec(kind=kind, n_train=8, seed=0, **own))

    def test_counts(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="checkerboard", n_train=0, seed=0)
        with pytest.raises(ValueError):
            DatasetSpec(kind="checkerboard", n_train=10, seed=-1)

    def test_data_dim(self):
        assert DatasetSpec(kind="gaussian_ar1", n_train=1, seed=0, dim=8, rho=0.0).data_dim == 8
        assert DatasetSpec(kind="checkerboard", n_train=1, seed=0).data_dim == 2
        assert (
            DatasetSpec(
                kind="toy_image", n_train=1, seed=0, base_res=3, rho=0.5, upsample=2
            ).data_dim
            == 36
        )

    def test_is_gaussian_flag(self):
        assert DatasetSpec(kind="gaussian_ar1", n_train=1, seed=0, dim=2, rho=0.0).is_gaussian
        assert DatasetSpec(
            kind="toy_image", n_train=1, seed=0, base_res=2, rho=0.0
        ).is_gaussian
        assert not DatasetSpec(kind="checkerboard", n_train=1, seed=0).is_gaussian
        assert not DatasetSpec(
            kind="mixture2d", n_train=1, seed=0, modes=8, radius=1.0, std=0.1
        ).is_gaussian


class TestDatasetCovariance:
    def test_gaussian_matches_ar1(self):
        spec = DatasetSpec(kind="gaussian_ar1", n_train=1, seed=0, dim=6, rho=0.7)
        np.testing.assert_array_equal(dataset_covariance(spec), ar1_covariance(6, 0.7))

    def test_toy_image_base_is_separable(self):
        spec = DatasetSpec(kind="toy_image", n_train=1, seed=0, base_res=3, rho=0.5)
        k = ar1_covariance(3, 0.5)
        np.testing.assert_array_equal(dataset_covariance(spec), np.kron(k, k))

    def test_toy_image_upsampled_replicates_2d_blocks(self):
        spec = DatasetSpec(kind="toy_image", n_train=1, seed=0, base_res=2, rho=0.5, upsample=2)
        cov = dataset_covariance(spec)
        assert cov.shape == (16, 16)
        np.testing.assert_array_equal(np.diag(cov), np.ones(16))
        # pixels (0,0) and (1,1) of the 4x4 grid share base pixel (0,0)
        assert cov[0, 4 * 1 + 1] == 1.0
        # pixels (0,0) and (0,2) come from base pixels (0,0) and (0,1)
        assert cov[0, 2] == 0.5

    def test_non_gaussian_kinds_have_no_covariance(self):
        with pytest.raises(ValueError):
            dataset_covariance(DatasetSpec(kind="checkerboard", n_train=1, seed=0))


class TestMakeDatasetCommon:
    def all_specs(self):
        return [
            DatasetSpec(kind="gaussian_ar1", n_train=50, seed=3, dim=8, rho=0.5),
            DatasetSpec(kind="mixture2d", n_train=50, seed=3, modes=8, radius=1.0, std=0.1),
            DatasetSpec(kind="checkerboard", n_train=50, seed=3),
            DatasetSpec(kind="toy_image", n_train=50, seed=3, base_res=2, rho=0.5, upsample=2),
        ]

    def test_shape_dtype_layout(self):
        for spec in self.all_specs():
            x = make_dataset(spec)
            assert x.shape == (spec.n_train, spec.data_dim)
            assert x.dtype == np.float64
            assert x.flags["C_CONTIGUOUS"]

    def test_deterministic_in_seed(self):
        for spec in self.all_specs():
            np.testing.assert_array_equal(make_dataset(spec), make_dataset(spec))

    def test_seed_changes_data(self):
        for spec in self.all_specs():
            other = DatasetSpec(**{**spec.__dict__, "seed": spec.seed + 1})
            assert np.max(np.abs(make_dataset(spec) - make_dataset(other))) > 1e-9


# sha256 of the bytes make_dataset returns for the two Gaussian kinds,
# recorded while each kind still had its own draw. A change here means a
# dataset moved by at least one bit.
GAUSSIAN_DIGESTS = {
    "ar1_dim16": (DatasetSpec(kind="gaussian_ar1", n_train=300, seed=4, dim=16, rho=0.9),
                  "8e2ba308dbbc374ee80a777ff4144e66e8f5f96b535162f7cd2b9f863b2b399e"),
    "ar1_dim1": (DatasetSpec(kind="gaussian_ar1", n_train=300, seed=4, dim=1, rho=0.0),
                 "3e3a9907b5eddac595941d55d11794046d4f3555b61f8415b5ab4f0183155ea4"),
    "toy_image_up1": (DatasetSpec(kind="toy_image", n_train=200, seed=5, base_res=3, rho=0.8),
                      "3d07d1781d5a80f65664d387e24efa889916643a6cc16a792c1d7193d3ed3ee1"),
    "toy_image_up2": (DatasetSpec(kind="toy_image", n_train=200, seed=5, base_res=3, rho=0.8,
                                  upsample=2),
                      "d8a57f7deed9913e1bf3b9e5506d7745d91abe514c80ff04304ddb5eb672cbff"),
    "toy_image_up4": (DatasetSpec(kind="toy_image", n_train=200, seed=5, base_res=4, rho=0.6,
                                  upsample=4),
                      "306dddaa1d06166ab9ba89b1e36304f6630e6c5fbd3f675a72a39ae92aefedc9"),
}


@pytest.mark.golden
@pytest.mark.parametrize("name", sorted(GAUSSIAN_DIGESTS))
def test_gaussian_dataset_digests(name):
    spec, digest = GAUSSIAN_DIGESTS[name]
    assert hashlib.sha256(make_dataset(spec).tobytes()).hexdigest() == digest


class TestGaussianAr1Data:
    def test_empirical_covariance(self):
        spec = DatasetSpec(kind="gaussian_ar1", n_train=100_000, seed=11, dim=8, rho=0.6)
        x = make_dataset(spec)
        np.testing.assert_allclose(np.cov(x.T), ar1_covariance(8, 0.6), atol=0.05)
        np.testing.assert_allclose(x.mean(axis=0), np.zeros(8), atol=0.02)

    def test_rho_zero_uncorrelated(self):
        spec = DatasetSpec(kind="gaussian_ar1", n_train=100_000, seed=12, dim=6, rho=0.0)
        x = make_dataset(spec)
        np.testing.assert_allclose(np.cov(x.T), np.eye(6), atol=0.05)


class TestMixture2dData:
    SPEC = DatasetSpec(kind="mixture2d", n_train=N_BIG, seed=21, modes=8, radius=1.0, std=0.1)

    def test_standardized(self):
        x = make_dataset(self.SPEC)
        np.testing.assert_allclose(x.mean(axis=0), np.zeros(2), atol=0.03)
        np.testing.assert_allclose(x.std(axis=0), np.ones(2), atol=0.03)

    def test_construction_bound(self):
        """Raw geometry: every sample within radius + 6 std of the origin."""
        x = make_dataset(self.SPEC)
        mean, scale = mixture2d_standardizer(8, 1.0, 0.1)
        raw = x * scale + mean
        assert np.max(np.linalg.norm(raw, axis=1)) <= 1.0 + 6.0 * 0.1

    def test_all_modes_hit(self):
        x = make_dataset(self.SPEC)
        mean, scale = mixture2d_standardizer(8, 1.0, 0.1)
        raw = x * scale + mean
        ang = np.mod(np.arctan2(raw[:, 1], raw[:, 0]), 2.0 * np.pi)
        bins = np.round(ang / (2.0 * np.pi / 8)).astype(int) % 8
        assert len(np.unique(bins)) == 8

    def test_two_mode_standardization(self):
        """Degenerate ring (2 modes on a line) still comes out unit variance."""
        spec = DatasetSpec(kind="mixture2d", n_train=N_BIG, seed=22, modes=2, radius=2.0, std=0.3)
        x = make_dataset(spec)
        np.testing.assert_allclose(x.mean(axis=0), np.zeros(2), atol=0.05)
        np.testing.assert_allclose(x.std(axis=0), np.ones(2), atol=0.05)

    def test_standardizer_matches_ring_formula(self):
        mean, scale = mixture2d_standardizer(8, 1.5, 0.2)
        np.testing.assert_allclose(mean, np.zeros(2), atol=1e-12)
        np.testing.assert_allclose(scale, np.sqrt(1.5**2 / 2 + 0.2**2), atol=1e-12)


class TestCheckerboardData:
    SPEC = DatasetSpec(kind="checkerboard", n_train=N_BIG, seed=31)

    def test_standardized(self):
        x = make_dataset(self.SPEC)
        np.testing.assert_allclose(x.mean(axis=0), np.zeros(2), atol=0.03)
        np.testing.assert_allclose(x.std(axis=0), np.ones(2), atol=0.03)

    def test_support_bound(self):
        x = make_dataset(self.SPEC)
        assert np.max(np.abs(x)) <= 2.0 / np.sqrt(4.0 / 3.0)

    def test_checker_parity(self):
        """Occupied unit cells form the even-parity pattern of a 4x4 board."""
        x = make_dataset(self.SPEC) * np.sqrt(4.0 / 3.0) + 2.0  # back to [0, 4)^2
        cells = np.floor(x).astype(int)
        assert np.all((cells[:, 0] + cells[:, 1]) % 2 == 0)
        occupied = {(a, b) for a, b in cells}
        assert len(occupied) == 8


class TestToyImageData:
    def test_replicated_columns_exactly_equal(self):
        spec = DatasetSpec(kind="toy_image", n_train=200, seed=41, base_res=3, rho=0.5, upsample=2)
        x = make_dataset(spec)
        grids = x.reshape(200, 6, 6)
        np.testing.assert_array_equal(grids[:, 0, 0], grids[:, 0, 1])
        np.testing.assert_array_equal(grids[:, 0, 0], grids[:, 1, 0])
        np.testing.assert_array_equal(grids[:, 0, 0], grids[:, 1, 1])
        assert np.max(np.abs(grids[:, 0, 0] - grids[:, 0, 2])) > 1e-9

    def test_empirical_covariance_matches_exact(self):
        spec = DatasetSpec(kind="toy_image", n_train=50_000, seed=42, base_res=3, rho=0.6, upsample=2)
        x = make_dataset(spec)
        np.testing.assert_allclose(np.cov(x.T), dataset_covariance(spec), atol=0.06)

    def test_upsample_one_matches_base_field(self):
        spec = DatasetSpec(kind="toy_image", n_train=50_000, seed=43, base_res=3, rho=0.4)
        x = make_dataset(spec)
        np.testing.assert_allclose(np.cov(x.T), dataset_covariance(spec), atol=0.06)

    def test_upsample_preserves_base_values(self):
        """The u = 1 and u = 2 datasets share the same base draw."""
        base = make_dataset(
            DatasetSpec(kind="toy_image", n_train=20, seed=44, base_res=3, rho=0.5)
        )
        up = make_dataset(
            DatasetSpec(kind="toy_image", n_train=20, seed=44, base_res=3, rho=0.5, upsample=2)
        )
        np.testing.assert_array_equal(up.reshape(20, 6, 6)[:, ::2, ::2].reshape(20, 9), base)
