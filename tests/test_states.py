"""Tests for the density-matrix values and the Bloch-vector map."""

import numpy as np
import pytest

from zenosim import (
    BlochVector,
    InvalidStateError,
    NonphysicalStateError,
    bloch_from_density,
    density_from_bloch,
    validate_density,
)
from zenosim.states import (
    BLOCH_NORM_TOL,
    ROUND_TRIP_TOL,
    as_density,
    hermiticity_residue,
    min_eigenvalue,
)

GROUND = np.diag([1.0, 0.0]).astype(complex)
EXCITED = np.diag([0.0, 1.0]).astype(complex)
NON_FINITE_2X2 = {
    "inf-diagonal": np.diag([np.inf, 0.0]).astype(complex),
    "all-nan": np.full((2, 2), np.nan, dtype=complex),
    "nan-coherence": np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex),
    "inf-coherence": np.array([[0.5, np.inf], [np.inf, 0.5]], dtype=complex),
    "imaginary-inf-diagonal": np.diag([complex(0.5, np.inf), 0.5]),
}


def random_bloch(rng, norm_cap=1.0):
    v = rng.normal(size=3)
    v *= rng.uniform(0, norm_cap) / np.linalg.norm(v)
    return BlochVector(*v)


class TestBlochFromDensity:
    def test_ground_state(self):
        assert bloch_from_density(GROUND) == (0.0, 0.0, -1.0)

    def test_excited_state(self):
        assert bloch_from_density(EXCITED) == (0.0, 0.0, 1.0)

    def test_equal_superposition_real_coherence(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        assert bloch_from_density(rho) == (1.0, 0.0, 0.0)

    def test_r3_is_population_inversion(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        r = bloch_from_density(rho)
        assert r.r3 == pytest.approx(0.7 - 0.3, abs=0)

    def test_non_hermitian_rejected(self):
        rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError):
            bloch_from_density(rho)

    def test_three_level_rejected(self):
        with pytest.raises(InvalidStateError):
            bloch_from_density(np.eye(3, dtype=complex) / 3)

    @pytest.mark.parametrize("rho", NON_FINITE_2X2.values(), ids=NON_FINITE_2X2.keys())
    def test_non_finite_rejected(self, rho):
        with pytest.raises(InvalidStateError, match="not Hermitian"):
            bloch_from_density(rho)


class TestDensityFromBloch:
    def test_south_pole(self):
        np.testing.assert_array_equal(density_from_bloch(BlochVector(0, 0, -1)), GROUND)

    def test_center_is_maximally_mixed(self):
        rho = density_from_bloch(BlochVector(0, 0, 0))
        np.testing.assert_allclose(rho, np.diag([0.5, 0.5]), atol=0)

    def test_norm_above_one_rejected(self):
        with pytest.raises(NonphysicalStateError):
            density_from_bloch(BlochVector(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("r", [(np.nan, 0.0, 0.0), (0.0, np.nan, 0.0), (0.0, 0.0, np.nan)])
    def test_nan_component_rejected(self, r):
        with pytest.raises(NonphysicalStateError):
            density_from_bloch(BlochVector(*r))

    def test_norm_tolerance_edge_accepted(self):
        density_from_bloch(BlochVector(1.0 + BLOCH_NORM_TOL / 2, 0.0, 0.0))

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_identity(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            r = random_bloch(rng)
            back = bloch_from_density(density_from_bloch(r))
            assert max(abs(a - b) for a, b in zip(r, back)) < ROUND_TRIP_TOL

    def test_valid_vectors_give_valid_states(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            diag = validate_density(density_from_bloch(random_bloch(rng)))
            assert diag.hermiticity_residue < 1e-12
            assert diag.trace_residue < 1e-12
            assert diag.min_eigenvalue > -1e-12


class TestValidateDensity:
    def test_pure_state_clean(self):
        diag = validate_density(GROUND)
        assert diag == (0.0, 0.0, 0.0)

    def test_three_level_mixed_clean(self):
        diag = validate_density(np.diag([0.5, 0.5, 0.0]).astype(complex))
        assert diag.hermiticity_residue == 0.0
        assert diag.trace_residue == 0.0
        assert diag.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    def test_trace_residue_reported(self):
        diag = validate_density(np.diag([0.6, 0.6]).astype(complex))
        assert diag.trace_residue == pytest.approx(0.2, abs=1e-15)

    def test_hermiticity_residue_reported(self):
        rho = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)
        assert validate_density(rho).hermiticity_residue == pytest.approx(0.1, abs=1e-15)

    def test_negative_eigenvalue_reported(self):
        rho = np.diag([1.2, -0.2]).astype(complex)
        assert validate_density(rho).min_eigenvalue == pytest.approx(-0.2, abs=1e-15)

    @pytest.mark.parametrize(
        "rho",
        [np.diag([1.0, 0.0, np.nan]), np.diag([np.inf, 0.0, 0.0]), np.full((3, 3), np.nan)],
        ids=["nan-diagonal", "inf-diagonal", "all-nan"],
    )
    def test_non_finite_reports_nan(self, rho):
        # eigvalsh would raise here; a 0.0 would let an eigenvalue-only check pass.
        assert np.isnan(validate_density(rho).min_eigenvalue)


class TestHermiticityResidue:
    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(5, 4, 3, 3)) + 1j * rng.normal(size=(5, 4, 3, 3))
        got = hermiticity_residue(stack)
        assert got.shape == (5, 4)
        for index in np.ndindex(5, 4):
            rho = stack[index]
            assert got[index] == np.max(np.abs(rho - rho.conj().T))

    @pytest.mark.parametrize("rho", NON_FINITE_2X2.values(), ids=NON_FINITE_2X2.keys())
    def test_non_finite_fails_every_tolerance(self, rho):
        # inf - inf on the diagonal gives NaN, an infinite coherence inf.
        residue = hermiticity_residue(rho)
        assert not residue <= 1.0
        assert np.array_equal(validate_density(rho).hermiticity_residue, residue, equal_nan=True)


class TestAsDensity:
    def test_four_level_rejected(self):
        with pytest.raises(InvalidStateError, match=r"2x2 or 3x3, got shape \(4, 4\)"):
            as_density(np.eye(4) / 4)


class TestClosedFormEigenvalues:
    """The minimum eigenvalue must match a full eigensolver and be ~0 at rank deficiency."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_against_lapack(self, dim):
        rng = np.random.default_rng(42 + dim)
        for _ in range(300):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            herm = 0.5 * (a + a.conj().T)
            expected = np.linalg.eigvalsh(herm)[0]
            assert min_eigenvalue(herm) == pytest.approx(expected, abs=1e-10)

    def test_diagonal_three_level(self):
        assert min_eigenvalue(np.diag([0.2, 0.5, 0.3]).astype(complex)) == 0.2

    def test_degenerate_spectrum(self):
        assert min_eigenvalue(np.eye(3, dtype=complex) / 3) == pytest.approx(1 / 3, rel=1e-12)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_rank_deficient_states(self, rank):
        # U diag(p) U^dagger with 3 - rank zero weights has exact minimum 0.
        rng = np.random.default_rng(7 + rank)
        for _ in range(200):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            unitary, _ = np.linalg.qr(a)
            weights = np.zeros(3)
            weights[:rank] = rng.dirichlet(np.ones(rank))
            rho = (unitary * weights) @ unitary.conj().T
            assert abs(validate_density(rho).min_eigenvalue) < 1e-14
