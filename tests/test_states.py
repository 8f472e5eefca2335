"""Tests for the density-matrix values and the Bloch oracle's state kernels."""

import itertools
import math
import struct

import numpy as np
import pytest

from zenosim import (
    InvalidStateError,
    IonConfig,
    LindbladConfig,
    NonphysicalStateError,
    PulseSchedule,
    integrate_lindblad,
    validate_density,
)
from zenosim.ion import _bloch, _check_norm, _density, _project
from zenosim.states import (
    BLOCH_NORM_TOL,
    TRAJECTORY_HERMITICITY_TOL,
    Diagnostics,
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
    return tuple(v.tolist())


#: The Pauli matrices in the package's convention, r_k = tr(rho sigma_k): r3 = rho_22 - rho_11.
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[-1, 0], [0, 1]]])


#: Parts that a copy must carry bit for bit: zeros of both signs, NaNs of both signs and infinities.
EDGE_PARTS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 0.25, 5e-324)


def _array_bits(a):
    return type(a), a.dtype, a.shape, a.flags.writeable, a.tobytes()


class TestBlochFromDensity:
    """``ion._bloch``, the oracle's map from a 2x2 state's rows to its Bloch vector."""

    def test_ground_state(self):
        assert _bloch(GROUND.tolist()) == (0.0, 0.0, -1.0)

    def test_excited_state(self):
        assert _bloch(EXCITED.tolist()) == (0.0, 0.0, 1.0)

    def test_equal_superposition_real_coherence(self):
        assert _bloch([[0.5, 0.5], [0.5, 0.5]]) == (1.0, 0.0, 0.0)

    def test_r3_is_population_inversion(self):
        assert _bloch(np.diag([0.3, 0.7]).astype(complex).tolist())[2] == pytest.approx(0.7 - 0.3, abs=0)

    def test_fields_are_python_floats(self):
        assert [type(x) for x in _bloch(_density((0.6, -0.3, 0.2)))] == [float] * 3

    def test_pauli_formula(self):
        # r_k = tr(rho sigma_k) on Hermitian states with every coherence part nonzero
        rng = np.random.default_rng(36)
        for _ in range(200):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = (a @ a.conj().T) / np.trace(a @ a.conj().T)
            want = np.einsum("ij,kji->k", rho, PAULI).real
            np.testing.assert_allclose(_bloch(rho.tolist()), want, rtol=0, atol=1e-15)


class TestDensityFromBloch:
    """``ion._density``, the oracle's map from a Bloch vector to rows, and ``_check_norm`` before it."""

    def test_south_pole(self):
        np.testing.assert_array_equal(np.array(_density((0.0, 0.0, -1.0))), GROUND)

    def test_center_is_maximally_mixed(self):
        np.testing.assert_allclose(np.array(_density((0.0, 0.0, 0.0))), np.diag([0.5, 0.5]), atol=0)

    def test_pauli_formula(self):
        # rho = (1 + r . sigma)/2, with r2 nonzero so that the coherences' order shows
        rng = np.random.default_rng(36)
        for _ in range(200):
            r = random_bloch(rng)
            want = (np.eye(2) + np.einsum("k,kij->ij", r, PAULI)) / 2
            np.testing.assert_allclose(np.array(_density(r)), want, rtol=0, atol=1e-16)

    def test_norm_above_one_rejected(self):
        with pytest.raises(NonphysicalStateError):
            _check_norm((1.0, 1.0, 1.0))

    @pytest.mark.parametrize("r", [(np.nan, 0.0, 0.0), (0.0, np.nan, 0.0), (0.0, 0.0, np.nan)])
    def test_nan_component_rejected(self, r):
        with pytest.raises(NonphysicalStateError):
            _check_norm(r)

    @pytest.mark.parametrize("kind", [float, np.float64])
    @pytest.mark.parametrize(
        "r", [(1e200, 0.0, 0.0), (0.0, -1e300, 1e300), (1.7e308, 1.7e308, 1.7e308)]
    )
    def test_huge_components_rejected(self, kind, r):
        # math.hypot does not overflow before it must: an infinite norm, no OverflowError.
        with pytest.raises(NonphysicalStateError, match="exceeds 1"):
            _check_norm(tuple(map(kind, r)))

    def test_same_bytes_as_nested_rows(self):
        rng = np.random.default_rng(25)
        vectors = [random_bloch(rng) for _ in range(200)] + [(0.0, 0.0, -1.0), (1.0, 0.0, 0.0)]
        vectors += list(itertools.product([0.0, -0.0, 0.5, 5e-324], repeat=3))  # signed zeros, a subnormal
        for r1, r2, r3 in vectors:
            flat = (1.0 - r3) / 2.0, (r1 - 1j * r2) / 2.0, (r1 + 1j * r2) / 2.0, (1.0 + r3) / 2.0
            want = np.array([flat[:2], flat[2:]], dtype=complex)
            former = np.array(flat, dtype=complex).reshape(2, 2)
            got = np.array(_density((r1, r2, r3)), dtype=complex)
            assert _array_bits(got) == _array_bits(want) == _array_bits(former), (r1, r2, r3)

    def test_norm_tolerance_edge_accepted(self):
        r = 1.0 + BLOCH_NORM_TOL / 2, 0.0, 0.0
        assert _check_norm(r) is r

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_identity(self, seed):
        round_trip_tol = 1e-12  # per component
        rng = np.random.default_rng(seed)
        for _ in range(50):
            r = random_bloch(rng)
            back = _bloch(_density(r))
            assert max(abs(a - b) for a, b in zip(r, back)) < round_trip_tol

    def test_valid_vectors_give_valid_states(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            diag = validate_density(np.array(_density(random_bloch(rng))))
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

    def test_overflowing_antihermitian_coherence(self):
        # 1e308 - (-1e308) overflows: an inf residue, and no warning.
        diag = validate_density([[0.5, 1e308], [-1e308, 0.5]])
        assert (diag.hermiticity_residue, diag.trace_residue) == (np.inf, 0.0)

    def test_overflowing_trace(self):
        diag = validate_density(np.diag([1e308, 1e308, -1e308]))
        assert (diag.hermiticity_residue, diag.trace_residue) == (0.0, np.inf)
        assert np.isnan(diag.min_eigenvalue)

    def test_overflowing_trace_modulus(self):
        # tr - 1 has finite parts, but |tr - 1| exceeds the float range: inf, not OverflowError.
        diag = validate_density([[1.5e308 + 1.5e308j, 0], [0, 0]])
        assert diag.trace_residue == np.inf


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


# The state helpers' formulas written on numpy arrays and numpy scalars: the
# reference for their bits.
def _array_validate(rho):
    rho = as_density(rho)
    with np.errstate(invalid="ignore", over="ignore"):
        trace = abs(complex(rho.trace()) - 1.0)
        sym = 0.5 * (rho + rho.conj().T)
    return Diagnostics(float(hermiticity_residue(rho)), trace, min_eigenvalue(sym))


def _array_bloch(rho):
    """The Bloch vector's parts of a 2x2 state, whatever its entries."""
    rho = as_density(rho)
    with np.errstate(invalid="ignore", over="ignore"):
        r1 = rho[0, 1] + rho[1, 0]
        r2 = 1j * (rho[0, 1] - rho[1, 0])
        r3 = rho[1, 1] - rho[0, 0]
    return r1.real, r2.real, r3.real


def _array_projection(rho):
    return np.diag(np.diag(as_density(rho))).astype(complex)


def _same_bits(a, b):
    """Equal floats with the same sign of zero, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _bit_test_states():
    """Seeded 2x2 and 3x3 matrices, Hermitian and not, scaled 1e-300..1e307, and edge entries."""
    rng = np.random.default_rng(11)
    states = []
    for dim in (2, 3):
        for scale in np.logspace(-300, 307, 61):
            for _ in range(4):
                a, b = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
                herm = 0.5 * (a + a.conj().T)
                states += [scale * a, scale * herm, scale * (herm + 1e-14 * b)]
                states.append(scale * (herm + np.eye(dim)) / dim)
        tiny = np.array([0.0, -0.0, 5e-324, -5e-324])
        for _ in range(200):
            a = rng.choice(tiny, size=(dim, dim)) + 1j * rng.choice(tiny, size=(dim, dim))
            states += [a, np.triu(a) + np.triu(a, 1).conj().T]
    states += list(NON_FINITE_2X2.values())
    states += [np.diag([1.0, 0.0, np.nan]), np.diag([np.inf, 0.0, 0.0]), np.full((3, 3), np.nan)]
    states += [np.array([[0.5, 1e308], [-1e308, 0.5]]), np.diag([1e308, 1e308, -1e308])]
    # exactly Hermitian: r3 overflows; each of r1, r3 is finite but their sum is not
    states += [np.diag([-1e308, 1e308]), np.array([[-5e307, 5e307], [5e307, 5e307]])]
    return states + _exactly_hermitian_states() + _near_bound_states()


def _exactly_hermitian_states():
    """States equal entry by entry to their adjoint: each zero part of either sign, and near overflow.

    The seeded ones draw parts from {+-0, +-5e-324, +-0.25, +-1}, or normals with half the real
    parts zeroed; each zero part, diagonal imaginary parts included, gets a random sign.  The edge
    ones put one part, on or off the diagonal, at 2**1022, its predecessor, 8.98e307 (rho + rho^dagger
    still finite) or 1e308 (it overflows); the last one's coherence has an overflowing modulus.
    """
    rng = np.random.default_rng(25)
    states = []
    for dim in (2, 3):
        lower = np.tri(dim, k=-1, dtype=bool)
        for draw in range(1500):
            if draw % 10:
                re, im = rng.choice([0.0, -0.0, 5e-324, -5e-324, 0.25, -0.25, 1.0, -1.0], size=(2, dim, dim))
            else:
                re, im = rng.normal(size=(2, dim, dim))
                re[rng.random((dim, dim)) < 0.5] = -0.0
            re, im = np.where(lower, re.T, re), np.where(lower, -im.T, im)
            im[np.diag_indices(dim)] = 0.0
            signed_zeros = np.copysign(0.0, rng.normal(size=(2, dim, dim)))
            rho = np.where(re == 0, signed_zeros[0], re).astype(complex)
            rho.imag = np.where(im == 0, signed_zeros[1], im)
            states.append(rho)
        for part in (2.0**1022, math.nextafter(2.0**1022, 0.0), 8.98e307, 1e308):
            for big in (part, -part):
                for i, j, z in (dim - 1, dim - 1, complex(big)), (0, 1, complex(0.25, big)), (0, 1, complex(big, 0.25)):
                    rho = np.eye(dim, dtype=complex) / dim
                    rho[i, j], rho[j, i] = z, z.conjugate()
                    states.append(rho)
    return states + [np.array([[0.5, complex(1.7e308, 1.7e308)], [complex(1.7e308, -1.7e308), 0.5]])]


def _near_bound_states():
    """2x2 states whose numpy residue lies within 10 ulps of TRAJECTORY_HERMITICITY_TOL, either side.

    They pin ``validate_density``'s residue to ``hermiticity_residue``'s rounding near the bound
    that decides an integration's rho0.  Off the diagonal the residue is numpy's |a + ib| for
    a = R cos t, b = R sin t (halving and negating are exact); on it, |2 Im rho_ii| exactly.  The
    last three have equal residues on and off the diagonal, each below the bound, so the residue
    is the largest entry and not a norm over them: for two of them that norm is above it.
    """
    rng = np.random.default_rng(24)
    states = []
    for k in range(-8, 9):
        residue = TRAJECTORY_HERMITICITY_TOL + k * math.ulp(TRAJECTORY_HERMITICITY_TOL)
        for angle in rng.uniform(0.0, 2 * math.pi, 80):
            a, b = residue * math.cos(angle), residue * math.sin(angle)
            states.append(np.array([[0.75, complex(a / 2, b / 2)], [complex(-a / 2, b / 2), 0.25]]))
        states += [np.diag([complex(0.5, residue / 2), 0.5]), np.diag([0.5, complex(0.5, -residue / 2)])]
    for scale in (0.5, 0.7, 0.99):
        part = complex(0.5, scale * TRAJECTORY_HERMITICITY_TOL / 2)
        states.append(np.array([[part, scale * TRAJECTORY_HERMITICITY_TOL], [0.0, part]]))
    return states


def _trajectory_states():
    """The read-only 3x3 views that integrate_lindblad returns, as criterion 5 validates them."""
    ion = IonConfig(1.0, math.pi / 10, 4)
    cfg = LindbladConfig(ion, PulseSchedule.equispaced(ion, duration_fraction=0.05))
    states = [rho for _, rho in integrate_lindblad(cfg, np.diag([1.0, 0.0, 0.0]))]
    assert not any(rho.flags.writeable for rho in states)
    return states


class TestSameBitsAsArrayFormulas:
    """The helpers compute on Python scalars what the array formulas above compute on numpy ones."""

    STATES = _bit_test_states()

    def test_validate_density(self):
        for rho in self.STATES + _trajectory_states():
            got, want = validate_density(rho), _array_validate(rho)
            assert all(_same_bits(g, w) for g, w in zip(got, want)), (rho, got, want)

    def test_exactly_hermitian_states_include_one_eigvalsh_rounds_apart_from_its_hermitian_part(self):
        # forming the Hermitian part changes signs of zeros, and eigvalsh can read those
        states = _exactly_hermitian_states()
        assert all(rho.tolist() == rho.conj().T.tolist() for rho in states)
        with np.errstate(over="ignore", invalid="ignore"):
            assert any(np.isfinite(rho + rho.conj().T).all()
                       and np.linalg.eigvalsh(rho)[0] != np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]
                       for rho in states)

    def test_trajectory_states_skip_the_array_formulas(self, monkeypatch):
        states = _trajectory_states()

        def refuse(rho):
            raise AssertionError("array path taken")

        monkeypatch.setattr("zenosim.states.min_eigenvalue", refuse)
        for rho in states:
            validate_density(rho)

    def test_bloch_from_density(self):
        overflowed = 0
        states = [rho for rho in self.STATES if rho.shape == (2, 2)]
        for rho in states:
            got, want = _bloch(rho.tolist()), _array_bloch(rho)
            assert all(_same_bits(g, w) for g, w in zip(got, want)), (rho, got, want)
            overflowed += np.isfinite(rho).all() and not all(map(math.isfinite, got))
        assert len(states) > 1000 and overflowed > 0

    def test_near_bound_states_cover_both_decisions_and_both_roundings(self):
        near = _near_bound_states()
        residues = [float(hermiticity_residue(rho)) for rho in near]
        bound = TRAJECTORY_HERMITICITY_TOL
        assert {r <= bound for r in residues} == {True, False}
        assert all(abs(r - bound) <= 10 * math.ulp(bound) for r in residues[:-3])
        # some off-diagonal residues round differently under math.hypot than under numpy's complex
        # abs, so the decision is pinned to hermiticity_residue's rounding, not to a scalar formula's
        off_diagonal = [rho[0, 1] - rho[1, 0].conjugate() for rho in near]
        assert any(abs(z) != math.hypot(z.real, z.imag) for z in off_diagonal)

    def test_residue_computed_only_for_a_state_not_exactly_hermitian(self, monkeypatch):
        calls = []

        def counted(rho):
            calls.append(rho)
            return hermiticity_residue(rho)

        monkeypatch.setattr("zenosim.states.hermiticity_residue", counted)
        rng = np.random.default_rng(5)
        for p in rng.uniform(size=200):  # diagonal states, exactly Hermitian as integrated ones are
            validate_density(np.diag([1.0 - p, p]).astype(complex))
        assert calls == []
        near = np.array([[0.75, 0.25 + 1e-15], [0.25, 0.25]], dtype=complex)  # within tolerance
        assert validate_density(near).hermiticity_residue == pytest.approx(1e-15, rel=0.2)
        assert len(calls) == 1

    def test_apply_projection(self):
        for rho in [rho for rho in self.STATES if rho.shape == (2, 2)]:  # the oracle's states are 2x2
            got, want = np.array(_project(rho.tolist()), dtype=complex), _array_projection(rho)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _entry_bits(rows):
    """Each entry's type and the bytes of its real and imaginary parts: signs of zeros and NaNs count."""
    return [[(type(z), struct.pack("<dd", z.real, z.imag)) for z in row] for row in rows]


class TestApplyProjectionBits:
    """``ion._project`` keeps a 2x2 state's diagonal as it is and ``0j`` elsewhere, as ``np.diag`` does."""

    @pytest.mark.parametrize("read_only", [False, True], ids=["writeable", "read-only"])
    @pytest.mark.parametrize("dim", [2])
    def test_arrays(self, dim, read_only):
        # rows as lists, as ndarray.tolist gives them, or as tuples, as the oracle's _density does
        rng = np.random.default_rng(dim)
        for real, imag in rng.choice(EDGE_PARTS, size=(400, 2, dim, dim)):
            rho = np.empty((dim, dim), dtype=complex)
            rho.real, rho.imag = real, imag
            rows = rho.tolist()
            if read_only:
                rows = tuple(map(tuple, rows))
            before = _entry_bits(rows)
            got, want = _project(rows), np.diag(rho.diagonal()).tolist()
            assert _entry_bits(got) == _entry_bits(want), rho
            assert _entry_bits(rows) == before

    @pytest.mark.parametrize("rho", [[[-0.0, 1], [2, math.nan]],
                                     ((complex(-0.0, -0.0), 3j), (4j, complex(math.nan, -math.inf)))], ids=repr)
    def test_nested_sequences(self, rho):
        got = _project(rho)
        assert all(got[i][i] is row[i] for i, row in enumerate(rho))  # kept as given, int or float too
        as_complex = [[complex(z) for z in row] for row in got]
        assert _entry_bits(as_complex) == _entry_bits(np.diag(as_density(rho).diagonal()).tolist())
