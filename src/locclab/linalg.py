"""Validated dense complex linear algebra on small bipartite systems.

States live on a tensor product H_A (x) H_B with Alice's index slow
(row-major A(x)B ordering). Everything here is a pure function over
immutable values; returned arrays are marked read-only.
``validate_density`` checks and never rewrites: a state keeps the matrix
it was given, eigenvalues down to -DEFAULT_TOL counted as zeros downstream.

The state rule (finite, Hermitian within DEFAULT_TOL, no eigenvalue below
-DEFAULT_TOL) lives in ``_require_hermitian`` and ``_require_no_negative``,
the dimension rule in ``_require_dims`` and the party rule in
``_require_party``; the entropy, protocol and scenario layers call them too.
The finite rule, ``_require_finite``, gives a NaN or an infinity in a
state, a state vector or a Kraus operator one message.

Every eigensolve of a whole state (``validate_density``,
``hermitian_eig``, ``block_eigvalsh``) first splits the Hermitian matrix
into the blocks its exact zero pattern leaves decoupled, and hands LAPACK
one stack of blocks per block size. A Bell-diagonal state on d x d splits
into d blocks of d, and so does its partial transpose, so no d^2 x d^2
solve is made for it. A matrix with a NaN or an infinite entry is rejected
before any eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A total that must be one (a trace, a weight sum, sum K^dagger K) is one within this: the state rule's slack.
DEFAULT_TOL = 1e-9
# Two eigenvalues of one matrix closer than this are one degenerate cluster.
DEGENERATE_GAP = 1e-10
# A state vector's norm is one within this; the vector is then renormalized.
NORM_TOL = 1e-6
# A Gram-Schmidt residual at or below this is dependent (unit vectors in dim <= 64 leave one >= 1/8).
_GS_KEEP = 1e-7
# An eigenvector component above this in modulus can carry the column's phase.
_PHASE_EPS = 1e-8

PARTIES = ("A", "B")


@dataclass(frozen=True)
class DensityOperator:
    """A bipartite density matrix with fixed subsystem dimensions.

    ``validate_density`` and ``pure_state_density`` are its checked
    constructors; a direct build runs no check of the matrix.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray


@dataclass(frozen=True)
class HermitianSpectrum:
    """Full eigensystem of a Hermitian matrix, eigenvalues ascending.

    ``eigenvectors[:, i]`` is the unit eigenvector paired with
    ``eigenvalues[i]``; the set is orthonormal and each vector's first
    significant component is made real positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dagger)/2, used to scrub rounding residue.

    Acts on the last two axes, so a stack (..., D, D) is hermitized
    matrix by matrix.
    """
    return (matrix + matrix.swapaxes(-1, -2).conj()) / 2


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


def _require_finite(mat: np.ndarray) -> None:
    if not np.isfinite(mat).all():
        raise ValueError("non-finite entry: the matrix holds a NaN or an infinity")


def _require_hermitian(mats: np.ndarray) -> None:
    """Each matrix of a stack (..., D, D) is finite and Hermitian within
    DEFAULT_TOL; a NaN or an inf fails the test, which then names it."""
    with np.errstate(invalid="ignore"):
        herm_dev = np.abs(mats - mats.swapaxes(-1, -2).conj())
    if not herm_dev.max(initial=0.0) <= DEFAULT_TOL:
        _require_finite(mats)
        worst = herm_dev.max(axis=(-2, -1))
        raise ValueError(f"not Hermitian: deviation {np.extract(~(worst <= DEFAULT_TOL), worst)[0]:.3e}")


def _require_no_negative(values: np.ndarray) -> None:
    """No eigenvalue of the ascending spectra (..., D) is below -DEFAULT_TOL."""
    if not values.min(initial=0.0) >= -DEFAULT_TOL:
        lowest = values[..., 0]
        raise ValueError(f"negative eigenvalue {np.extract(~(lowest >= -DEFAULT_TOL), lowest)[0]:.3e}")


def _require_state(state, name: str) -> None:
    if not isinstance(state, DensityOperator):
        raise ValueError(f"{name} must be a DensityOperator, got {type(state).__name__}")


def _require_integer(value, name: str) -> None:
    """``value`` is an integer, a bool not counted as one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_dims(dim_a: int, dim_b: int) -> None:
    """Both dims are integers (``_require_integer``) and positive."""
    _require_integer(dim_a, "dim_a")
    _require_integer(dim_b, "dim_b")
    if dim_a < 1 or dim_b < 1:
        raise ValueError(f"subsystem dimensions must be positive, got ({dim_a}, {dim_b})")


def _require_party(party: str) -> None:
    if party not in PARTIES:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")


def _blocks(herm: np.ndarray) -> list[np.ndarray]:
    """Index sets of the blocks that the exact zero pattern of ``herm`` decouples.

    They are the connected components of the graph with an edge wherever
    an entry is nonzero (the pattern of a Hermitian matrix is symmetric).
    Each is ascending, and they are ordered by their first index. Every
    node takes the smallest label among its neighbours and then its label's
    label, until nothing changes; labels only fall, and at the fixed point
    each component carries its smallest index.
    """
    dim = len(herm)
    linked = herm != 0
    np.fill_diagonal(linked, True)
    labels = linked.argmax(axis=1)
    while True:
        lowest = np.where(linked, labels, dim).min(axis=1)
        lowest = lowest[lowest]
        if (lowest == labels).all():
            break
        labels = lowest
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def _block_stacks(herm: np.ndarray, blocks: list[np.ndarray]):
    """Per distinct block size: the (k, s) row indices and the (k, s, s) stack of blocks."""
    by_size: dict[int, list[np.ndarray]] = {}
    for rows in blocks:
        by_size.setdefault(len(rows), []).append(rows)
    for group in by_size.values():
        rows = np.array(group)
        yield rows, herm[rows[:, :, None], rows[:, None, :]]


def _eigh_blocks(herm: np.ndarray, blocks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of a Hermitian matrix, one ``eigh`` per block size.

    Eigenvalues are ascending over the whole matrix (stable sort); each
    eigenvector is a full-length column with exact zeros outside its block.
    """
    dim = len(herm)
    values = np.empty(dim)
    vectors = np.zeros((dim, dim), dtype=complex)
    start = 0
    for rows, stack in _block_stacks(herm, blocks):
        stack_values, stack_vectors = np.linalg.eigh(stack)
        columns = np.arange(start, start + rows.size).reshape(rows.shape)
        values[columns] = stack_values
        vectors[rows[:, :, None], columns[:, None, :]] = stack_vectors
        start += rows.size
    order = np.argsort(values, kind="stable")
    return values[order], vectors[:, order]


def block_eigvalsh(matrix) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of a square matrix.

    The matrix is split into the blocks its exact zero pattern decouples,
    and LAPACK gets one stack of blocks per block size. A NaN or an
    infinite entry raises ValueError before any eigensolve.
    """
    mat = np.asarray(matrix, dtype=complex)
    _require_finite(mat)
    herm = hermitize(mat)
    values = [np.linalg.eigvalsh(stack).reshape(-1) for _, stack in _block_stacks(herm, _blocks(herm))]
    return np.sort(np.concatenate(values), kind="stable")


def validate_density(matrix, dim_a: int, dim_b: int) -> DensityOperator:
    """Check matrix is a density operator on the given bipartite dimensions.

    Returns the matrix as given, read-only, once it is finite, Hermitian
    and of unit trace within DEFAULT_TOL, with no eigenvalue below
    -DEFAULT_TOL: nothing is clipped or renormalized. The spectrum is
    ``block_eigvalsh``'s, solved along the exact zero pattern.
    """
    _require_dims(dim_a, dim_b)
    mat = np.asarray(matrix, dtype=complex)
    dim = dim_a * dim_b
    if mat.shape != (dim, dim):
        raise ValueError(
            f"dimension mismatch: expected {dim}x{dim} for dims ({dim_a}, {dim_b}), got {mat.shape}"
        )
    _require_hermitian(mat)
    trace_dev = abs(np.trace(mat) - 1.0)
    if not trace_dev <= DEFAULT_TOL:
        raise ValueError(f"trace deviation: |tr(M) - 1| = {trace_dev:.3e} exceeds tol {DEFAULT_TOL:.1e}")
    _require_no_negative(block_eigvalsh(mat))
    return DensityOperator(dim_a=dim_a, dim_b=dim_b, matrix=_frozen(mat))


def pure_state_density(vector, dim_a: int, dim_b: int) -> DensityOperator:
    """Density operator |psi><psi| from a state vector of length dim_a*dim_b.

    The vector must be finite and normalized within NORM_TOL; it is
    renormalized exactly before the outer product is formed.
    """
    _require_dims(dim_a, dim_b)
    vec = np.asarray(vector, dtype=complex).reshape(-1)
    if vec.shape != (dim_a * dim_b,):
        raise ValueError(
            f"dimension mismatch: vector length {vec.size} != dim_a*dim_b = {dim_a * dim_b}"
        )
    _require_finite(vec)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if norm == np.inf:
        # A finite entry near 1e300 overflows the sum of squares: take the
        # norm of the vector scaled by its largest real or imaginary part.
        largest = float(max(np.abs(vec.real).max(), np.abs(vec.imag).max()))
        norm = float(np.linalg.norm(vec / largest)) * largest
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"state vector norm {norm:.6f} deviates from 1 beyond tol {NORM_TOL:.1e}")
    vec = vec / norm
    return DensityOperator(dim_a=dim_a, dim_b=dim_b, matrix=_frozen(np.outer(vec, vec.conj())))


def _bipartite(matrix, dims: tuple[int, int]) -> np.ndarray:
    """``matrix`` as a complex array whose last two axes are D x D, D = dim_a * dim_b."""
    mat = np.asarray(matrix, dtype=complex)
    dim = dims[0] * dims[1]
    if mat.shape[-2:] != (dim, dim):
        raise ValueError(f"dimension mismatch: matrix {mat.shape} vs dims ({dims[0]}, {dims[1]})")
    return mat


def partial_trace(matrix, keep: str, dims: tuple[int, int]) -> np.ndarray:
    """Trace out one subsystem of a matrix or a stack (..., D, D) of them,
    keeping ``keep`` in {"A", "B"}; ``dims`` is (dim_a, dim_b)."""
    dim_a, dim_b = dims
    mat = _bipartite(matrix, dims)
    tensor = mat.reshape(mat.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    _require_party(keep)
    return np.einsum("...ijkj->...ik" if keep == "A" else "...ijil->...jl", tensor)


def partial_transpose(matrix, party: str, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the indices of one party of a D x D matrix; ``dims`` is
    (dim_a, dim_b). A Hermitian matrix stays Hermitian."""
    dim_a, dim_b = dims
    tensor = _bipartite(matrix, dims).reshape(dim_a, dim_b, dim_a, dim_b)
    _require_party(party)
    return tensor.transpose((2, 1, 0, 3) if party == "A" else (0, 3, 2, 1)).reshape(dim_a * dim_b, dim_a * dim_b)


def _fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Scale each column so that its first component above _PHASE_EPS in
    modulus is real positive; a column without one is left as it is."""
    magnitudes = np.abs(vectors)
    first = (magnitudes > _PHASE_EPS).argmax(axis=0)
    columns = np.arange(vectors.shape[1])
    component = vectors[first, columns]
    size = magnitudes[first, columns]
    found = size > _PHASE_EPS
    phase = np.ones(len(columns), dtype=complex)
    phase[found] = component[found].conj() / size[found]
    return vectors * phase


def _gram_schmidt(projector: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt over a projector's columns in index order.

    A column is kept if its residual norm exceeds _GS_KEEP, and the walk
    stops once ``rank`` vectors are kept; returns them as columns, with the
    indices of the columns they came from. A chunk holds as many columns
    as the rank still missing. One matrix product, applied twice, projects
    it off every vector kept so far; a QR of the chunk then orthogonalises
    it in index order, |R_kk| being column k's residual norm. The chunk's
    columns up to the first residual at or below _GS_KEEP are kept, each
    with the phase Gram-Schmidt leaves it (Q_k R_kk / |R_kk|), and the next
    chunk starts after that skipped column.
    """
    dim = len(projector)
    basis = np.empty((dim, rank), dtype=complex)
    sources = np.empty(rank, dtype=int)
    accepted = 0
    j = 0
    while accepted < rank and j < dim:
        chunk = projector[:, j : j + rank - accepted]
        done = basis[:, :accepted]
        for _ in range(2):
            chunk = chunk - done @ (done.conj().T @ chunk)
        q, r = np.linalg.qr(chunk)
        diagonal = np.diagonal(r)
        residual = np.abs(diagonal)
        small = np.flatnonzero(~(residual > _GS_KEEP))
        kept = int(small[0]) if small.size else len(residual)
        basis[:, accepted : accepted + kept] = q[:, :kept] * (diagonal[:kept] / residual[:kept])
        sources[accepted : accepted + kept] = np.arange(j, j + kept)
        accepted += kept
        j += kept + 1
    if accepted < rank:
        raise RuntimeError(f"degenerate cluster basis incomplete: {accepted}/{rank}")
    return basis, sources


def _cluster_basis(vectors: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """Deterministic orthonormal basis of a degenerate eigenspace.

    Built from the subspace projector alone (independent of the solver's
    arbitrary in-cluster choice): ``_gram_schmidt`` over the projector's
    columns in index order. No column of ``vectors`` crosses one of the
    index sets ``blocks``, so the projector is block diagonal along them and
    a column is orthogonal to every vector from another block. Each block
    that holds some of the vectors is therefore walked on its own, up to
    the number of vectors it holds, and the results are merged in the index
    order of the columns they came from: the basis one walk over the whole
    projector gives, with exact zeros outside each vector's block.
    """
    dim, rank = vectors.shape
    block_of_row = np.empty(dim, dtype=int)
    for i, rows in enumerate(blocks):
        block_of_row[rows] = i
    owner = block_of_row[np.abs(vectors).argmax(axis=0)]
    basis = np.zeros((dim, rank), dtype=complex)
    sources = np.empty(rank, dtype=int)
    start = 0
    for i in sorted(set(owner.tolist())):
        rows = blocks[i]
        inside = vectors[rows][:, owner == i]
        stop = start + inside.shape[1]
        found, came_from = _gram_schmidt(inside @ inside.conj().T, inside.shape[1])
        basis[rows, start:stop] = found
        sources[start:stop] = rows[came_from]
        start = stop
    return basis[:, np.argsort(sources)]


def hermitian_eig(matrix) -> HermitianSpectrum:
    """Full eigensystem with a deterministic convention for degeneracies.

    Eigenvalues are ascending. A degenerate cluster (consecutive gap below
    DEGENERATE_GAP) gets one eigenvalue, the cluster mean, and its
    eigenbasis is rebuilt from the cluster projector by ``_cluster_basis``,
    so neither its values nor its vectors depend on solver internals; then
    every vector's global phase makes its first significant component real
    positive. The matrix must be finite. It is solved block by block along
    its exact zero pattern (one ``eigh`` per block size), every eigenvector
    a full-length column; the clusters are found from the eigenvalue gaps
    in one pass and the phases are fixed for all columns at once.
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    _require_hermitian(mat)
    herm = hermitize(mat)
    blocks = _blocks(herm)
    values, vectors = _eigh_blocks(herm, blocks)

    # A cluster ends where the gap to the next eigenvalue is not below
    # DEGENERATE_GAP.
    ends = [*(np.flatnonzero(~(np.diff(values) < DEGENERATE_GAP)) + 1).tolist(), len(values)]
    start = 0
    for stop in ends:
        if stop - start > 1:
            values[start:stop] = values[start:stop].mean()
            vectors[:, start:stop] = _cluster_basis(vectors[:, start:stop], blocks)
        start = stop
    eigenvalues = np.asarray(values, dtype=float)
    eigenvalues.setflags(write=False)
    return HermitianSpectrum(
        eigenvalues=eigenvalues,
        eigenvectors=_frozen(_fix_phase(vectors)),
    )
