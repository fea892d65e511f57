import numpy as np
import pytest

from locclab import (
    DensityOperator,
    KrausInstrument,
    hermitian_eig,
    partial_trace,
    partial_transpose,
    pure_state_density,
    validate_density,
)
from locclab.linalg import block_eigvalsh

from helpers import PHI_PLUS, bell, bell_vectors, random_bipartite_density, random_density, random_hermitian


class TestValidateDensity:
    def test_maximally_mixed_qubit(self):
        rho = validate_density(np.eye(2) / 2, 2, 1)
        assert rho.dim_a == 2 and rho.dim_b == 1
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2)

    def test_trace_deviation_rejected(self):
        with pytest.raises(ValueError, match="trace deviation"):
            validate_density(np.diag([0.25, 0.25]), 2, 1)

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="not Hermitian"):
            validate_density(bad, 2, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            validate_density(np.eye(4) / 4, 2, 3)

    def test_large_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            validate_density(np.diag([1.1, -0.1]), 2, 1)

    def test_rounding_negatives_accepted_as_given(self):
        eps = 1e-11
        given = np.diag([1.0 + eps, -eps]).astype(complex)
        rho = validate_density(given, 2, 1)
        assert rho.matrix.tobytes() == given.tobytes()

    def test_ci_bell16_state_is_checked_without_eigh(self, monkeypatch):
        # The mixed d = 16 Bell-diagonal state of the CI job, built densely
        # as (B * p) @ B^dagger from the Bell kets: it has rounding-level
        # negative eigenvalues, and is checked with ``eigvalsh`` alone.
        probs = np.random.default_rng(16).dirichlet(np.ones(256))
        probs[-16:] = 0.0
        basis = np.column_stack(bell_vectors(16))
        given = (basis * (probs / probs.sum())) @ basis.conj().T
        assert block_eigvalsh(given)[0] < 0.0
        calls = []
        original = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        rho = validate_density(given, 16, 16)
        assert calls == []
        assert rho.matrix.tobytes() == given.tobytes()

    def test_matrix_is_read_only(self):
        rho = validate_density(np.eye(2) / 2, 2, 1)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestPartialTrace:
    def test_bell_state_marginal_is_maximally_mixed(self):
        np.testing.assert_allclose(partial_trace(bell(PHI_PLUS).matrix, "A", (2, 2)), np.eye(2) / 2, atol=1e-12)

    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(3)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        rho = validate_density(np.kron(rho_a, rho_b), 2, 3)
        np.testing.assert_allclose(partial_trace(rho.matrix, "A", (2, 3)), rho_a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho.matrix, "B", (2, 3)), rho_b, atol=1e-12)

    def test_classical_correlation_marginal(self):
        rho = validate_density(np.diag([0.5, 0.0, 0.0, 0.5]), 2, 2)
        np.testing.assert_allclose(partial_trace(rho.matrix, "B", (2, 2)), np.eye(2) / 2, atol=1e-12)

    def test_unit_trace_preserved_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = random_bipartite_density(rng, 2, 3)
            for keep in ("A", "B"):
                assert abs(np.trace(partial_trace(rho.matrix, keep, (2, 3))) - 1.0) < 1e-9

    def test_bad_keep(self):
        with pytest.raises(ValueError, match="party must be 'A' or 'B'"):
            partial_trace(bell(PHI_PLUS).matrix, "C", (2, 2))

    @pytest.mark.parametrize("shape", [(6, 6), (2, 8)], ids=["size", "not_square"])
    def test_dimension_mismatch(self, shape):
        # (2, 8) holds 16 entries: it would reshape to (2, 2, 2, 2) unchecked.
        for reduce in (partial_trace, partial_transpose):
            with pytest.raises(ValueError, match=rf"^dimension mismatch: matrix \({shape[0]}, {shape[1]}\) vs dims \(2, 2\)$"):
                reduce(np.zeros(shape), "A", (2, 2))


class TestHermitianEig:
    def test_diagonal(self):
        spec = hermitian_eig(np.diag([0.9, 0.1]))
        np.testing.assert_allclose(spec.eigenvalues, [0.1, 0.9])

    def test_pauli_x(self):
        pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        spec = hermitian_eig(pauli_x)
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0])
        c = 2 ** -0.5
        np.testing.assert_allclose(np.abs(spec.eigenvectors[:, 0]), [c, c], atol=1e-12)
        # phase convention: first significant component real positive
        assert spec.eigenvectors[0, 0].real > 0
        assert abs(spec.eigenvectors[0, 0].imag) < 1e-12

    def test_degenerate_identity_gives_orthonormal_pair(self):
        spec = hermitian_eig(np.eye(2) / 2)
        np.testing.assert_allclose(spec.eigenvalues, [0.5, 0.5])
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_and_orthonormality_random(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            dim = int(rng.integers(2, 9))
            mat = random_hermitian(rng, dim)
            spec = hermitian_eig(mat)
            rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
            assert np.abs(rebuilt - mat).max() <= 1e-9
            gram = spec.eigenvectors.conj().T @ spec.eigenvectors
            assert np.abs(gram - np.eye(dim)).max() <= 1e-9

    def test_degenerate_cluster_reconstruction(self):
        # spectrum (0.3, 0.3, 0.4) hidden in a random basis
        rng = np.random.default_rng(9)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        mat = q @ np.diag([0.3, 0.3, 0.4]) @ q.conj().T
        spec = hermitian_eig(mat)
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.abs(rebuilt - mat).max() <= 1e-9

    def test_eigenvalues_of_density_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rho = random_bipartite_density(rng, 2, 2)
            assert abs(hermitian_eig(rho.matrix).eigenvalues.sum() - 1.0) < 1e-9


class TestPartialTranspose:
    def test_bell_state_has_negative_eigenvalue(self):
        # independent oracle: the expected matrix written out by hand
        expected = 0.5 * np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        pt = partial_transpose(bell(PHI_PLUS).matrix, "B", (2, 2))
        np.testing.assert_allclose(pt, expected, atol=1e-12)
        assert abs(np.linalg.eigvalsh(pt).min() + 0.5) < 1e-12

    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(5)
        rho = validate_density(np.kron(random_density(rng, 2), random_density(rng, 2)), 2, 2)
        assert np.linalg.eigvalsh(partial_transpose(rho.matrix, "B", (2, 2))).min() > -1e-12

    def test_diagonal_state_unchanged(self):
        rho = validate_density(np.diag([0.5, 0.0, 0.0, 0.5]), 2, 2)
        np.testing.assert_allclose(partial_transpose(rho.matrix, "B", (2, 2)), rho.matrix, atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            rho = random_bipartite_density(rng, 2, 3)
            for party in ("A", "B"):
                twice = partial_transpose(partial_transpose(rho.matrix, party, (2, 3)), party, (2, 3))
                assert np.abs(twice - rho.matrix).max() <= 1e-12

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(13)
        rho = random_bipartite_density(rng, 3, 2)
        pt = partial_transpose(rho.matrix, "A", (3, 2))
        assert np.abs(pt - pt.conj().T).max() < 1e-12


class TestPureStateDensity:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            pure_state_density([1.0, 1.0, 0.0, 0.0], 2, 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pure_state_density([1.0, 0.0], 2, 2)

    @pytest.mark.parametrize("entry", [1e300, 1e300j, -1e300 + 1e300j], ids=["real", "imag", "both"])
    def test_huge_finite_entry_has_a_finite_norm(self, entry):
        # Its sum of squares overflows; the norm, taken again at scale, does
        # not, and no warning is raised (RuntimeWarnings fail the suite).
        with pytest.raises(ValueError) as excinfo:
            pure_state_density([entry, 0.5, 0.0, 0.0], 2, 2)
        norm = float(str(excinfo.value).split()[3])
        assert norm == pytest.approx(abs(entry), rel=1e-12)

    def test_keeps_its_renormalized_ket_read_only(self):
        given = np.array([0.6, 0.0, 0.0, 0.8j]) * (1.0 + 5e-7)
        state = pure_state_density(given, 2, 2)
        np.testing.assert_array_equal(state.ket, given / np.linalg.norm(given))
        assert state.ket.dtype == complex and not state.ket.flags.writeable
        np.testing.assert_array_equal(state.matrix, np.outer(state.ket, state.ket.conj()))
        assert "ket" not in repr(state)
        with pytest.raises(TypeError):
            DensityOperator(2, 2, state.matrix, state.ket)

    def test_only_pure_state_density_sets_a_ket(self):
        matrix = np.outer(PHI_PLUS, PHI_PLUS.conj())
        assert validate_density(matrix, 2, 2).ket is None
        assert DensityOperator(2, 2, matrix).ket is None


def test_huge_finite_basis_entry_is_not_orthonormal():
    # Its overlap overflows to inf or NaN, which fails the orthonormality
    # test without a warning.
    with pytest.raises(ValueError, match="projective basis is not orthonormal"):
        KrausInstrument.projective("A", [[1e300, 0.0], [0.0, 1.0]])


NOT_HERMITIAN = np.array([[0.5, 1.0], [0.0, 0.5]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: validate_density(np.eye(2) / 2, 0, 2), "subsystem dimensions must be positive, got (0, 2)"),
        (lambda: validate_density(NOT_HERMITIAN, 2, 1), "not Hermitian: deviation 1.000e+00"),
        (lambda: validate_density(np.diag([1.1, -0.1]), 2, 1), "negative eigenvalue -1.000e-01"),
        (
            lambda: validate_density(np.diag([np.nan, 1.0]), 2, 1),
            "non-finite entry: the matrix holds a NaN or an infinity",
        ),
        (lambda: partial_transpose(np.eye(4) / 4, "C", (2, 2)), "party must be 'A' or 'B', got 'C'"),
        (lambda: hermitian_eig(np.zeros((2, 3))), "expected a square matrix, got shape (2, 3)"),
        (lambda: hermitian_eig(NOT_HERMITIAN), "not Hermitian: deviation 1.000e+00"),
    ],
    ids=[
        "dims_nonpositive", "not_hermitian", "negative_eigenvalue", "non_finite", "transpose_party", "eig_not_square",
        "eig_not_hermitian",
    ],
)
def test_rejection_message(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


def _with_entry(matrix, value):
    out = np.array(matrix, dtype=complex)
    out[0, 0] = value
    return out


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: KrausInstrument(party="A", outcomes=(("0", _with_entry(np.eye(2), v)),)),
        lambda v: KrausInstrument.projective("A", _with_entry(np.eye(2), v)),
        lambda v: pure_state_density([v, 0.0, 0.0, 0.0], 2, 2),
        lambda v: validate_density(_with_entry(np.eye(2) / 2, v), 2, 1),
        lambda v: hermitian_eig(_with_entry(np.eye(2) / 2, v)),
        lambda v: block_eigvalsh(_with_entry(np.eye(2) / 2, v)),
    ],
    ids=["kraus", "projective", "pure_state_density", "validate_density", "hermitian_eig", "block_eigvalsh"],
)
def test_non_finite_entry_gets_the_finite_rule(call, value):
    # One rule judges a NaN or an infinity in a state, a state vector and a
    # Kraus operator, and every constructor reports it with its message.
    with pytest.raises(ValueError) as excinfo:
        call(value)
    assert str(excinfo.value) == "non-finite entry: the matrix holds a NaN or an infinity"
