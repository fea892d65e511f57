"""Eigensolves split along the exact zero pattern of the matrix.

``validate_density``, ``hermitian_eig`` and ``is_ppt`` hand LAPACK the
blocks that the zero pattern leaves decoupled, one stack per block size.
These tests pin the blocks found for Bell-diagonal states and their partial
transposes, compare the split solves with dense ones on block-diagonal
matrices hidden by a permutation, check that a d = 16 report never makes a
256 x 256 solve, and check that NaN and inf are rejected before any solve.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_distillation as ref
from locclab import (
    BellDiagonalSpec,
    DensityOperator,
    SpectralEnsemble,
    bell_diagonal,
    cli,
    hermitian_eig,
    is_ppt,
    partial_transpose,
    validate_density,
)
from locclab.linalg import _blocks, block_eigvalsh, hermitize

from helpers import PHI_MINUS, PHI_PLUS

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
NON_FINITE = "non-finite entry"


def generic_bell(d: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return bell_diagonal(BellDiagonalSpec(d, tuple(rng.dirichlet(np.ones(d * d)).tolist())))


def as_sets(blocks) -> list[list[int]]:
    return [sorted(int(i) for i in rows) for rows in blocks]


class TestBlocks:
    def test_bell_diagonal_d3_splits_by_difference(self):
        # Bell vector (a, b) holds index (j, m) only where m = (j + b) mod 3,
        # so rho couples (j, m) to (j', m') only when m - j = m' - j' mod 3.
        herm = hermitize(generic_bell(3).matrix)
        expected = [[j * 3 + (j + b) % 3 for j in range(3)] for b in range(3)]
        assert as_sets(_blocks(herm)) == sorted(sorted(rows) for rows in expected)

    def test_bell_diagonal_d3_partial_transpose_splits_by_sum(self):
        # Transposing B swaps m and m', so (j, m') meets (j', m) when
        # m - j = m' - j', that is when j + m' = j' + m mod 3.
        herm = hermitize(partial_transpose(generic_bell(3).matrix, "B", (3, 3)))
        expected = [[j * 3 + m for j in range(3) for m in range(3) if (j + m) % 3 == c] for c in range(3)]
        assert as_sets(_blocks(herm)) == sorted(expected)

    def test_dense_matrix_is_one_block(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert as_sets(_blocks(hermitize(g))) == [list(range(5))]

    def test_diagonal_matrix_gives_singletons(self):
        assert as_sets(_blocks(np.diag([0.4, 0.0, 0.1, 0.5]).astype(complex))) == [[0], [1], [2], [3]]

    def test_chain_is_one_block(self):
        # A path 3 - 0 - 2 - 4 - 1 joins every index through other ones.
        herm = np.eye(5, dtype=complex)
        for i, k in [(3, 0), (0, 2), (2, 4), (4, 1)]:
            herm[i, k] = herm[k, i] = 0.1
        assert as_sets(_blocks(herm)) == [list(range(5))]


@st.composite
def hidden_blocks(draw):
    """A Hermitian matrix that is block diagonal under a hidden permutation.

    Eigenvalues come from the levels 0, 1/4 and 1/2, so the spectrum has
    ties, across blocks as well as inside one; each block is U diag U^dagger
    with a Haar U, so it does not split further.
    """
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    matrix = np.zeros((dim, dim), dtype=complex)
    start = 0
    for size in sizes:
        g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        unitary, _ = np.linalg.qr(g)
        levels = rng.integers(0, 3, size=size) / 4
        matrix[start : start + size, start : start + size] = (unitary * levels) @ unitary.conj().T
        start += size
    hidden = rng.permutation(dim)
    return matrix[np.ix_(hidden, hidden)]


@PROPERTY
@given(matrix=hidden_blocks())
def test_split_solves_match_dense_solves(matrix):
    np.testing.assert_allclose(block_eigvalsh(matrix), np.linalg.eigvalsh(hermitize(matrix)), rtol=0, atol=1e-12)
    new, old = hermitian_eig(matrix), ref.hermitian_eig(matrix)
    np.testing.assert_allclose(new.eigenvalues, old.eigenvalues, rtol=0, atol=1e-10)
    np.testing.assert_allclose(new.eigenvectors, old.eigenvectors, rtol=0, atol=1e-10)


STAR = np.array([[2, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]], dtype=complex)


def test_cluster_walk_skips_a_zero_column():
    """The star graph on 4 nodes: spectrum -1, 0, 0, 3.

    The eigenvalue 0 has the eigenspace {x_0 = 0, x_1 + x_2 + x_3 = 0}, so
    its projector has a zero column 0, which the walk skips. Column 1 is
    (0, 2, -1, -1)/3, normalised (0, 2, -1, -1)/sqrt(6); column 2 is
    (0, -1, 2, -1)/3, whose part orthogonal to the first is (0, 0, 1, -1)/2,
    normalised (0, 0, 1, -1)/sqrt(2). The rank 2 is then reached.
    """
    spectrum = hermitian_eig(STAR)
    np.testing.assert_allclose(spectrum.eigenvalues, [-1.0, 0.0, 0.0, 3.0], rtol=0, atol=1e-12)
    expected = np.array([[0, 2, -1, -1], [0, 0, 1, -1]]).T / np.sqrt([6.0, 2.0])
    np.testing.assert_allclose(spectrum.eigenvectors[:, 1:3], expected, rtol=0, atol=1e-12)


def test_cluster_walk_projects_the_chunk_after_a_skip():
    """One 4 x 4 block: 1/2 on span{a, b}, 0.1 on e and 0.3 on f, with
    a = (1, 1, 1, 0)/sqrt(3), b = (1, 1, -2, 3)/sqrt(15),
    e = (1, -1, 0, 0)/sqrt(2), f = (1, 1, -2, -2)/sqrt(10).

    The cluster projector P = aa^T + bb^T has P e_0 = P e_1 = (2, 2, 1, 1)/5
    (a and b are orthogonal to e), so column 0 gives q = (2, 2, 1, 1)/sqrt(10)
    and column 1 is skipped. The next chunk starts at column 2,
    P e_2 = (1, 1, 3, -2)/5, which is not orthogonal to q: its projection
    off q, (1, 1, 3, -2)/5 - (2, 2, 1, 1)/10 = (0, 0, 1, -1)/2, normalises to
    (0, 0, 1, -1)/sqrt(2). The rank 2 is then reached.
    """
    a = np.array([1, 1, 1, 0]) / np.sqrt(3)
    b = np.array([1, 1, -2, 3]) / np.sqrt(15)
    e = np.array([1, -1, 0, 0]) / np.sqrt(2)
    f = np.array([1, 1, -2, -2]) / np.sqrt(10)
    matrix = 0.5 * (np.outer(a, a) + np.outer(b, b)) + 0.1 * np.outer(e, e) + 0.3 * np.outer(f, f)
    assert len(_blocks(matrix)) == 1
    spectrum = hermitian_eig(matrix)
    np.testing.assert_allclose(spectrum.eigenvalues, [0.1, 0.3, 0.5, 0.5], rtol=0, atol=1e-12)
    expected = np.array([e, f, np.array([2, 2, 1, 1]) / np.sqrt(10), np.array([0, 0, 1, -1]) / np.sqrt(2)]).T
    np.testing.assert_allclose(spectrum.eigenvectors, expected, rtol=0, atol=1e-12)


def test_cluster_across_blocks_with_a_skip_matches_reference():
    # The star (one block, its cluster starting with a zero column), a
    # singleton 0 and a 2 x 2 block with eigenvalue 0, interleaved by a
    # permutation that keeps the star's centre first among its indices:
    # the cluster of 0 has rank 4 over three blocks.
    matrix = np.zeros((7, 7), dtype=complex)
    matrix[:4, :4] = STAR
    matrix[5:, 5:] = [[0.5, 0.5], [0.5, 0.5]]
    hidden = [4, 5, 0, 1, 6, 2, 3]
    matrix = matrix[np.ix_(hidden, hidden)]
    assert len(_blocks(matrix)) == 3
    new, old = hermitian_eig(matrix), ref.hermitian_eig(matrix)
    assert np.count_nonzero(np.abs(new.eigenvalues) < 1e-12) == 4
    np.testing.assert_allclose(new.eigenvalues, old.eigenvalues, rtol=0, atol=1e-12)
    np.testing.assert_allclose(new.eigenvectors, old.eigenvectors, rtol=0, atol=1e-12)


def test_large_dense_cluster_matches_reference():
    # One dense 40 x 40 block whose eigenvalue 1/2 has rank 36: the walk
    # orthogonalises 36 candidates in one QR.
    rng = np.random.default_rng(40)
    unitary, _ = np.linalg.qr(rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))
    levels = np.r_[[0.5] * 36, [0.1, 0.2, 0.3, 0.4]]
    matrix = (unitary * levels) @ unitary.conj().T
    new, old = hermitian_eig(matrix), ref.hermitian_eig(matrix)
    np.testing.assert_allclose(new.eigenvalues, old.eigenvalues, rtol=0, atol=1e-10)
    np.testing.assert_allclose(new.eigenvectors, old.eigenvectors, rtol=0, atol=1e-10)


def test_isotropic_two_qubit_members_are_hand_derived():
    """The d = 2 isotropic state with F > 1/2 has members Phi+, Phi-, |01>, |10>.

    rho = F |Phi+><Phi+| + (1 - F)/3 (I - |Phi+><Phi+|). Its largest weight
    F belongs to Phi+. The other three weights form one cluster, whose
    projector is P = I - |Phi+><Phi+|, with Phi+ = (|00> + |11>)/sqrt(2).
    Gram-Schmidt over P's columns in index order: column 0 is
    |00> - Phi+/sqrt(2) = (|00> - |11>)/2, which normalises to Phi-.
    Columns 1 and 2 are |01> and |10> (Phi+ has no weight there), both
    orthogonal to Phi-, and then the rank 3 is reached. The cluster has one
    weight, (1 - F)/3, so its members keep this order.
    """
    fidelity = 0.7
    rest = (1.0 - fidelity) / 3
    ensemble = SpectralEnsemble(bell_diagonal(BellDiagonalSpec(2, (fidelity, rest, rest, rest))))
    expected = [PHI_PLUS, PHI_MINUS, np.eye(4)[1], np.eye(4)[2]]
    assert len(ensemble.kets) == 4
    for vector, ket in zip(ensemble.kets, expected):
        np.testing.assert_allclose(vector, ket, rtol=0, atol=1e-12)
    weights = ensemble.weights.tolist()
    assert abs(weights[0] - fidelity) <= 1e-12
    assert weights[1] == weights[2] == weights[3]
    assert abs(weights[1] - rest) <= 1e-12


@pytest.mark.parametrize("kind", ["generic", "isotropic"])
def test_d16_report_never_solves_more_than_16x16(monkeypatch, tmp_path, kind):
    d = 16
    rng = np.random.default_rng(16)
    if kind == "generic":
        probs = rng.dirichlet(np.ones(d * d)).tolist()
    else:
        probs = [0.5] + [0.5 / (d * d - 1)] * (d * d - 1)
    path = tmp_path / "bell16.json"
    path.write_text(
        json.dumps(
            {"schema": "locclab/scenario-v1", "kind": "bell_diagonal", "name": "bell16", "bell": {"d": d, "probs": probs}}
        )
    )
    shapes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["distill-report", str(path), "--format", "json"]) == 0
    assert json.loads(out.getvalue())["command"] == "distill-report"
    assert shapes
    assert max(shape[-1] for shape in shapes) <= d


def bell_with(value, entries) -> np.ndarray:
    """The d = 2 Bell-diagonal state (blocks {0, 3} and {1, 2}) with ``value``
    written at each (i, k) of ``entries`` and at its mirror (k, i)."""
    matrix = np.array(generic_bell(2, seed=5).matrix)
    for i, k in entries:
        matrix[i, k] = matrix[k, i] = value
    return matrix


BAD_MATRICES = {
    f"{name}-{where}": bell_with(value, entries)
    for name, value in (("nan", np.nan), ("inf", np.inf))
    for where, entries in (("inside-one-block", [(0, 3)]), ("across-blocks", [(0, 1)]), ("diagonal", [(2, 2)]))
}


@pytest.mark.parametrize("key", sorted(BAD_MATRICES))
def test_non_finite_rejected_before_any_eigensolve(monkeypatch, key):
    matrix = BAD_MATRICES[key]

    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver reached")

    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=NON_FINITE):
            validate_density(matrix, 2, 2)
        with pytest.raises(ValueError, match=NON_FINITE):
            hermitian_eig(matrix)
        with pytest.raises(ValueError, match=NON_FINITE):
            is_ppt(DensityOperator(dim_a=2, dim_b=2, matrix=matrix))
