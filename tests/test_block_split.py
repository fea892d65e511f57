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
phase convention. ``von_neumann_entropies`` splits a stack along the
union of its matrices' patterns (``hermitian_eigvalsh``): its spectra and
its fault messages are checked on stacks whose blocks are coupled only in
some members, and a degenerate cluster that fills a block is checked to be
that block's unit vectors.
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
from locclab import linalg
from locclab.entropy import von_neumann_entropies
from locclab.linalg import _blocks, block_eigvalsh, hermitian_eigvalsh, hermitize

from helpers import PHI_MINUS, PHI_PLUS

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
NON_FINITE = "non-finite entry"


def generic_bell(d: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return bell_diagonal(BellDiagonalSpec(d, tuple(rng.dirichlet(np.ones(d * d)).tolist())))


def as_sets(groups) -> list[list[int]]:
    """The blocks of ``_blocks``'s (k, s) groups as sorted index lists, in order."""
    return sorted(sorted(int(i) for i in rows) for group in groups for rows in group)


def block_count(groups) -> int:
    return sum(len(group) for group in groups)


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
    assert block_count(_blocks(matrix)) == 1
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
    assert block_count(_blocks(matrix)) == 3
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
    assert [group.tolist() for group in _blocks(two_sizes())] == [[[0, 3]], [[1, 2, 4, 5]]]
    # Groups come in ascending size, a group's blocks by their first index.
    matrix = np.diag([0.1, 0.2, 0.3, 0.1, 0.2, 0.1]).astype(complex)
    matrix[0, 3] = matrix[3, 0] = matrix[2, 5] = matrix[5, 2] = 0.01
    assert [group.tolist() for group in _blocks(matrix)] == [[[1], [4]], [[0, 3], [2, 5]]]


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
    assert block_count(_blocks(hermitize(matrix))) == 2
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


@st.composite
def hidden_block_stacks(draw):
    """A stack of 2 to 4 PSD unit-trace matrices, block diagonal along one
    hidden partition (block sizes 1 to 4) under a hidden permutation.

    Member 0 holds only a diagonal. Every other member fills each block of
    two or more, at random, with U diag U^dagger (a Haar U, levels from 0,
    1/4 and 1/2, so spectra tie), or leaves its diagonal alone: a block is
    coupled only in some members, so only the union of their patterns
    decouples the stack.
    """
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=5))
    members = draw(st.integers(min_value=2, max_value=4))
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    stack = np.zeros((members, dim, dim), dtype=complex)
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        for m in range(members):
            if size > 1 and m > 0 and rng.random() < 0.6:
                g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
                unitary, _ = np.linalg.qr(g)
                stack[m, block, block] = (unitary * (rng.integers(0, 3, size=size) / 4)) @ unitary.conj().T
            else:
                stack[m, block, block] = np.diag(rng.integers(0, 3, size=size) / 4)
        start += size
    for m in range(members):
        stack[m, 0, 0] += 0.25
        stack[m] /= np.trace(stack[m]).real
    hidden = rng.permutation(dim)
    return stack[:, hidden][:, :, hidden]


def dense_entropies(stack) -> np.ndarray:
    values = np.linalg.eigvalsh(hermitize(stack))
    values = np.where(values > 1e-12, values, 1.0)
    return -(values * np.log2(values)).sum(axis=-1)


@PROPERTY
@given(stack=hidden_block_stacks())
def test_stack_spectra_split_along_the_union_pattern(stack):
    np.testing.assert_allclose(hermitian_eigvalsh(stack), np.linalg.eigvalsh(hermitize(stack)), rtol=0, atol=1e-12)
    np.testing.assert_allclose(von_neumann_entropies(stack), dense_entropies(stack), rtol=0, atol=1e-12)
    # A leading axis of nodes splits along the same union.
    nodes = np.stack([stack, stack[::-1]])
    np.testing.assert_allclose(hermitian_eigvalsh(nodes), np.linalg.eigvalsh(hermitize(nodes)), rtol=0, atol=1e-12)


def test_member_and_average_marginals_of_a_bell_root_are_diagonal():
    # The kets of a Bell-diagonal state hold one entry per row of their
    # coefficient matrix, so every member marginal is diagonal and the
    # stack splits into 1 x 1 blocks, which are their own real parts.
    ensemble = SpectralEnsemble(generic_bell(4, seed=3))
    x = ensemble.kets.reshape(-1, 4, 4)
    grams = x @ x.conj().swapaxes(-1, -2)
    w = ensemble.weights
    averages = np.stack([np.einsum("m,mab,mcb->ac", w, x, x.conj()), np.einsum("m,mab,mac->bc", w, x, x.conj())])
    for stack in (grams, averages):
        assert as_sets(_blocks(stack)) == [[i] for i in range(4)]
        expected = np.sort(np.einsum("...ii->...i", stack).real, axis=-1)
        assert np.array_equal(hermitian_eigvalsh(stack), expected)


def stack_with(member: int, entry: tuple[int, int], value) -> np.ndarray:
    """Three unit-trace matrices made from the 2 x 3 state ``two_sizes``
    with index 5 decoupled, so that the union pattern has a block of each
    size: {0, 3}, {1, 2, 4} and {5}. Member 1 holds only the diagonal.
    ``value`` is added at ``entry`` of ``member``, not mirrored."""
    base = two_sizes()
    base[5, :5] = base[:5, 5] = 0.0
    stack = np.stack([base, np.diag(base.diagonal()), base.T])
    stack /= np.einsum("mii->m", stack).real[:, None, None]
    stack[(member, *entry)] += value
    return stack


STACK_FAULTS = {
    "nan-one-by-one-of-member-1": (1, (5, 5), np.nan),
    "inf-size-three-of-member-2": (2, (2, 4), np.inf),
    "nan-across-blocks-of-member-2": (2, (0, 1), np.nan),
    "deviation-size-three-of-member-1": (1, (2, 4), 5e-9),
    "deviation-one-by-one-of-member-2": (2, (5, 5), 3e-9j),
}


def test_fault_stacks_have_a_block_of_each_size():
    assert [group.tolist() for group in _blocks(stack_with(0, (0, 0), 0.0))] == [[[5]], [[0, 3]], [[1, 2, 4]]]


@pytest.mark.parametrize("key", sorted(STACK_FAULTS))
def test_stack_faults_keep_the_whole_stack_message(monkeypatch, key):
    stack = stack_with(*STACK_FAULTS[key])
    if np.isfinite(stack).all():
        # The deviation of the first matrix that fails, as one check of the
        # whole stack names it.
        deviation = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        expected = f"not Hermitian: deviation {deviation[deviation > 1e-9][0]:.3e}"
    else:
        expected = "non-finite entry: the matrix holds a NaN or an infinity"

    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver reached")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (hermitian_eigvalsh, von_neumann_entropies):
            with pytest.raises(ValueError) as excinfo:
                solve(stack)
            assert str(excinfo.value) == expected


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_cluster_that_fills_a_block_is_its_unit_vectors(monkeypatch, d):
    # An isotropic state's d - 1 blocks without the fidelity state hold only
    # cluster vectors: their projector is the identity, whose walk is the
    # block's unit vectors, exactly. Only the block that also holds the
    # fidelity state is walked.
    fidelity = 0.6
    rho = bell_diagonal(BellDiagonalSpec(d, (fidelity, *[(1 - fidelity) / (d * d - 1)] * (d * d - 1))))
    walked = []
    walk = linalg._gram_schmidt
    monkeypatch.setattr(linalg, "_gram_schmidt", lambda projector, rank: walked.append(rank) or walk(projector, rank))
    spectrum = hermitian_eig(rho.matrix)
    assert walked == [d - 1]
    vectors = spectrum.eigenvectors
    units = [k for k in range(d * d) if np.count_nonzero(vectors[:, k]) == 1]
    assert len(units) == d * (d - 1)
    assert all(vectors[np.flatnonzero(vectors[:, k])[0], k] == 1.0 for k in units)
    residual = rho.matrix @ vectors - vectors * spectrum.eigenvalues
    assert np.abs(residual).max() <= 1e-12
    np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(d * d), rtol=0, atol=1e-12)
