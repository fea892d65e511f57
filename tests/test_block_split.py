"""Eigensolves split along the exact zero pattern of the matrix.

``validate_density``, ``hermitian_eig`` and ``is_ppt`` hand LAPACK the
blocks that the matrix's own zero pattern, made symmetric, leaves
decoupled, one stack per block size, and check each block. These tests pin
the blocks found for Bell-diagonal states and their partial transposes,
compare the split solves with dense ones on block-diagonal matrices hidden
by a permutation, check that a d = 16 report never makes a 256 x 256 solve
and allocates no dense temporaries, that NaN and inf are rejected before
any solve in every block size, that a deviation message names the whole
matrix's largest deviation, and that rebuilt cluster vectors keep the
phase convention.
"""

import contextlib
import io
import json
import tracemalloc
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
    distillation_report,
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


def traced_peak(call) -> int:
    """The tracemalloc peak of ``call()`` above what was traced before it, in
    bytes; numpy traces its array data, so the count is deterministic."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["generic", "isotropic"])
def test_d16_build_and_report_allocate_no_dense_temporaries(kind):
    # A 256 x 256 complex matrix is 1,048,576 bytes. The build holds the
    # state and its d blocks; the report, above its input state, holds the
    # eigenvectors and the kets, then the kets, the member Grams and their
    # Hermitian part. The bounds are the peaks measured with numpy 2.4 plus
    # 10 %; the dense O(d^6) build peaked at 4.2 MB and the report at 4.35 MB.
    d = 16
    n = d * d
    if kind == "generic":
        probs = np.random.default_rng(16).dirichlet(np.ones(n))
    else:
        probs = np.r_[0.5, [0.5 / (n - 1)] * (n - 1)]
    spec = BellDiagonalSpec(d, tuple(probs.tolist()))
    assert traced_peak(lambda: bell_diagonal(spec)) <= 1.1 * 1_320_000
    rho = bell_diagonal(spec)
    assert traced_peak(lambda: distillation_report(rho, spec)) <= 1.1 * 3_561_000


def bell_with(value, entries) -> np.ndarray:
    """The d = 2 Bell-diagonal state (blocks {0, 3} and {1, 2}) with ``value``
    written at each (i, k) of ``entries`` and at its mirror (k, i)."""
    matrix = np.array(generic_bell(2, seed=5).matrix)
    for i, k in entries:
        matrix[i, k] = matrix[k, i] = value
    return matrix


def two_sizes(entries=(), value=0.0) -> np.ndarray:
    """A 2 x 3 state whose pattern has a block of 2, {0, 3}, and then one of
    4, {1, 2, 4, 5}, each U diag U^dagger with a Haar U, the sizes in that
    order; ``value`` is added at each (i, k) of ``entries``, not mirrored."""
    rng = np.random.default_rng(23)
    matrix = np.zeros((6, 6), dtype=complex)
    for rows, levels in (([0, 3], [0.1, 0.2]), ([1, 2, 4, 5], [0.05, 0.15, 0.2, 0.3])):
        g = rng.standard_normal((len(rows), len(rows))) + 1j * rng.standard_normal((len(rows), len(rows)))
        unitary, _ = np.linalg.qr(g)
        matrix[np.ix_(rows, rows)] = (unitary * levels) @ unitary.conj().T
    for i, k in entries:
        matrix[i, k] += value
    return matrix


BAD_MATRICES = {
    f"{name}-{where}": (bell_with(value, entries), (2, 2))
    for name, value in (("nan", np.nan), ("inf", np.inf))
    for where, entries in (("inside-one-block", [(0, 3)]), ("across-blocks", [(0, 1)]), ("diagonal", [(2, 2)]))
}
BAD_MATRICES.update(
    {
        f"{name}-second-block-size": (two_sizes([(2, 4), (4, 2)], value), (2, 3))
        for name, value in (("nan", np.nan), ("inf", np.inf))
    }
)


@pytest.mark.parametrize("key", sorted(BAD_MATRICES))
def test_non_finite_rejected_before_any_eigensolve(monkeypatch, key):
    matrix, dims = BAD_MATRICES[key]

    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver reached")

    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=NON_FINITE):
            validate_density(matrix, *dims)
        with pytest.raises(ValueError, match=NON_FINITE):
            hermitian_eig(matrix)
        with pytest.raises(ValueError, match=NON_FINITE):
            is_ppt(DensityOperator(*dims, matrix=matrix))


def test_two_block_sizes_are_found_in_order():
    assert as_sets(_blocks(two_sizes())) == [[0, 3], [1, 2, 4, 5]]


@pytest.mark.parametrize("entries", [[(0, 3), (2, 4)], [(2, 4)]], ids=["both-sizes", "second-size"])
def test_deviation_message_names_the_largest_over_all_blocks(entries):
    # Anti-Hermitian parts of 2e-9 at (0, 3) and 5e-9 at (2, 4): the message
    # names the whole matrix's largest |M - M^dagger|, as one check of the
    # whole matrix does, wherever its block lies.
    matrix = two_sizes()
    for (i, k), size in zip(entries, [2e-9, 5e-9][-len(entries) :]):
        matrix[i, k] += size
    expected = f"not Hermitian: deviation {np.abs(matrix - matrix.conj().T).max():.3e}"
    assert expected == "not Hermitian: deviation 5.000e-09"
    for solve in (hermitian_eig, lambda m: validate_density(m / np.trace(m).real, 2, 3)):
        with pytest.raises(ValueError) as excinfo:
            solve(matrix)
        assert str(excinfo.value) == expected
    # block_eigvalsh reads the Hermitian part, unchecked: is_ppt gives the
    # dense spectrum of the partial transpose's Hermitian part.
    _, lowest = is_ppt(DensityOperator(2, 3, matrix))
    dense = np.linalg.eigvalsh(hermitize(partial_transpose(matrix, "B", (2, 3))))
    assert abs(lowest - dense[0]) <= 1e-12


def test_anti_hermitian_pair_joins_blocks_and_keeps_the_spectrum():
    # M_13 = 3e-10 and M_31 = -3e-10: a deviation of 6e-10, inside the
    # tolerance, and a Hermitian part that is zero there. The matrix's own
    # pattern joins the two blocks, the Hermitian part's keeps them apart;
    # the spectrum is the split one, and so are the eigenvectors.
    matrix = two_sizes()
    matrix[1, 3], matrix[3, 1] = 3e-10, -3e-10
    assert as_sets(_blocks(matrix)) == [list(range(6))]
    assert len(_blocks(hermitize(matrix))) == 2
    split = np.sort(
        np.concatenate([np.linalg.eigvalsh(hermitize(matrix)[np.ix_(rows, rows)]) for rows in ([0, 3], [1, 2, 4, 5])])
    )
    np.testing.assert_allclose(block_eigvalsh(matrix), split, rtol=0, atol=1e-12)
    new, old = hermitian_eig(matrix), ref.hermitian_eig(matrix)
    np.testing.assert_allclose(new.eigenvalues, split, rtol=0, atol=1e-12)
    np.testing.assert_allclose(new.eigenvectors, old.eigenvectors, rtol=0, atol=1e-10)


def test_rebuilt_cluster_columns_are_phase_fixed():
    """0.5 on the complement of x and 0.1 on x, x = (1, a, b) normalised with
    |a|, |b| = 5e-8 and complex phases.

    The cluster projector is P = I - x x^dagger. Its column 0 has a residual
    of about 7e-8, at or below _GS_KEEP, so the walk skips it, and the
    vector from column 1 then holds -x_0 conj(x_1), of modulus 5e-8 above
    _PHASE_EPS, at row 0, with a complex phase. The convention makes that,
    its first significant component, real positive.
    """
    x = np.array([1.0, 5e-8 * np.exp(2.0j), 5e-8 * np.exp(-0.7j)])
    x /= np.linalg.norm(x)
    matrix = 0.5 * (np.eye(3) - np.outer(x, x.conj())) + 0.1 * np.outer(x, x.conj())
    spectrum = hermitian_eig(matrix)
    np.testing.assert_allclose(spectrum.eigenvalues, [0.1, 0.5, 0.5], rtol=0, atol=1e-12)
    for column in spectrum.eigenvectors.T:
        first = column[np.flatnonzero(np.abs(column) > 1e-8)[0]]
        assert first.real > 0.0 and abs(first.imag) <= 1e-12 * abs(first)
    assert abs(spectrum.eigenvectors[0, 1]) > 1e-8
    np.testing.assert_allclose(spectrum.eigenvectors.conj().T @ spectrum.eigenvectors, np.eye(3), rtol=0, atol=1e-12)
