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
``hermitian_eig``, ``block_eigvalsh``) splits the matrix into the blocks
that its own exact zero pattern, made symmetric, leaves decoupled, and
hands LAPACK one stack of blocks per block size. The checks run per block,
all before the first eigensolve: off the pattern both triangles hold exact
zeros, so the blocks' verdict and spectra are the whole matrix's, and a NaN
or an infinity, being nonzero, lies in a block. A Bell-diagonal state on
d x d splits into d blocks of d, and so does its partial transpose, so no
d^2 x d^2 solve, nor any d^2 x d^2 temporary, is made for it. A stack of
matrices (``hermitian_eigvalsh``, which ``entropy.von_neumann_entropies``
calls for every marginal larger than 2 x 2) splits the same way along the
union of its matrices' patterns, and a failed check names the whole stack.
A 1 x 1 block takes no eigensolve: it is its own real part. The member and
average marginals of a Bell-diagonal state's eigen-ensemble are diagonal,
so their spectra take none at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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
    constructors; a direct build runs no check of the matrix. A state that
    ``pure_state_density`` built keeps the renormalized vector its matrix
    is the outer product of, read-only, as ``ket``; only that constructor
    sets it, and every other state has ``ket`` None. The tree's root takes
    it as the member's rank-one factor (``protocol._root_level``), so a
    pure member is never eigensolved there.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray
    ket: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)


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


def _hermitian_part(mats: np.ndarray, whole: np.ndarray | None = None) -> np.ndarray:
    """``hermitize`` of a stack (..., D, D) that passes ``_require_hermitian``,
    with the result as its one stack-sized array: it starts as the adjoint,
    and the deviation from it is taken on slices of 256 kB. A failure is
    named by ``_require_hermitian`` of the stack, or of ``whole`` when the
    stack holds blocks of that matrix (``_block_stacks``)."""
    herm = np.conjugate(mats.swapaxes(-1, -2), order="C")
    flat, adjoint = mats.reshape(-1), herm.reshape(-1)
    with np.errstate(invalid="ignore"):
        for i in range(0, flat.size, 16384):
            if not np.abs(flat[i : i + 16384] - adjoint[i : i + 16384]).max(initial=0.0) <= DEFAULT_TOL:
                _require_hermitian(mats if whole is None else whole)
    herm += mats
    herm /= 2
    return herm


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


def _blocks(mat: np.ndarray) -> list[np.ndarray]:
    """The blocks that the exact zero pattern of ``mat``, a matrix or a
    stack (..., D, D) of them, decouples, grouped by size: one (k, s)
    array per block size s, in ascending s, whose k rows are the blocks.

    They are the connected components of the graph with an edge (i, k)
    wherever M_ik or M_ki is nonzero in some matrix of the stack, a NaN or
    an infinity included. Each is ascending, and a group's rows are ordered
    by their first index. The pattern is read from the float view of the
    complex entries, which compares an order of magnitude faster than they
    do: an entry is nonzero when one of its two parts is, that is when its
    pair of flags, read as one 16-bit integer, is. A pattern with no entry
    off the diagonal (the marginals of a Bell-diagonal state's
    eigen-ensemble) is D blocks of 1 at once; the walk below takes ~15 us
    more for it at D = 4 and 8. Otherwise every node is labelled by its
    first neighbour, itself included; where every row of the pattern
    equals its label's row, the components are cliques (as in a
    Bell-diagonal state and its partial transpose) and these labels are
    their first indices. Otherwise every node takes the smallest label
    among its neighbours, and then its label's label, until nothing
    changes; labels only fall, and at the fixed point each component
    carries its smallest index. Blocks of one size are one reshape of the
    nodes sorted by label; blocks of several sizes are gathered size by
    size.
    """
    dim = mat.shape[-1]
    nonzero = np.ascontiguousarray(mat, dtype=complex).view(np.float64) != 0
    if nonzero.ndim > 2:
        nonzero = nonzero.reshape(-1, dim, 2 * dim).any(axis=0)
    linked = nonzero.view(np.uint16) != 0
    linked.flat[:: dim + 1] = True
    if np.count_nonzero(linked) == dim:
        return [np.arange(dim)[:, None]]
    linked |= linked.T
    labels = linked.argmax(axis=1)
    if np.count_nonzero(linked != linked[labels]):
        while True:
            lowest = np.where(linked, labels, dim).min(axis=1)
            lowest = lowest[lowest]
            if (lowest == labels).all():
                break
            labels = lowest
    order = labels.argsort(kind="stable")
    sizes = np.bincount(labels)
    sizes = sizes[sizes > 0]
    if np.count_nonzero(sizes != sizes[0]) == 0:
        return [order.reshape(len(sizes), -1)]
    starts = np.cumsum(sizes) - sizes
    return [order[starts[sizes == size, None] + np.arange(size)] for size in np.flatnonzero(np.bincount(sizes))]


def _block_stacks(mat: np.ndarray, groups: list[np.ndarray]):
    """Per (k, s) group of ``_blocks``: the group and the (..., k, s, s)
    stack of its blocks of a matrix or a stack (..., D, D). A lone block is
    the matrix itself, a view."""
    for rows in groups:
        yield rows, mat[..., None, :, :] if len(rows) == 1 == len(groups) else mat[..., rows[:, :, None], rows[:, None, :]]


def _block_values(stacks: list[np.ndarray]) -> np.ndarray:
    """Ascending spectra (..., D) from the Hermitian (..., k, s, s) block
    stacks of a matrix or a stack, one ``eigvalsh`` per block size above 1;
    a 1 x 1 block is its own real part, which LAPACK returns for n = 1."""
    values = [
        (stack[..., 0, 0].real if stack.shape[-1] == 1 else np.linalg.eigvalsh(stack)).reshape(*stack.shape[:-3], -1)
        for stack in stacks
    ]
    return np.sort(values[0] if len(values) == 1 else np.concatenate(values, axis=-1), axis=-1, kind="stable")


def _eigh_blocks(stacks: list) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Eigensystem of a Hermitian matrix from its (rows, block stack) pairs,
    one ``eigh`` per block size, with its degenerate clusters.

    Eigenvalues are ascending (stable sort). A cluster, given as its
    (start, stop) columns, is a run of two or more eigenvalues whose
    consecutive gaps are below DEGENERATE_GAP. Each eigenvector is written
    into its sorted full-length column, with exact zeros outside its block;
    one outside every cluster is first phase fixed on its stack, as on its
    full column, a block's rows being ascending, and a cluster's are left
    as solved, for ``_cluster_basis`` to rebuild.
    """
    solved = [(rows, *np.linalg.eigh(stack)) for rows, stack in stacks]
    values = np.concatenate([stack_values.reshape(-1) for _, stack_values, _ in solved])
    order = np.argsort(values, kind="stable")
    values = values[order]
    close = values[1:] - values[:-1] < DEGENERATE_GAP
    rebuilt, clusters = None, []
    if close.any():
        rebuilt = np.zeros(len(values), dtype=bool)
        rebuilt[:-1] |= close
        rebuilt[1:] |= close
        ends = [0, *(np.flatnonzero(~close) + 1).tolist(), len(values)]
        clusters = [(start, stop) for start, stop in itertools.pairwise(ends) if stop - start > 1]
    column = np.argsort(order)
    vectors = np.zeros((len(values),) * 2, dtype=complex, order="F")
    start = 0
    for rows, _, stack_vectors in solved:
        columns = column[start : start + rows.size].reshape(rows.shape)
        kept = None if rebuilt is None else rebuilt[columns]
        vectors[rows[:, :, None], columns[:, None, :]] = _fix_phase(stack_vectors, kept)
        start += rows.size
    return values, vectors, clusters


def block_eigvalsh(matrix) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of a square matrix.

    The matrix is split into the blocks of its own zero pattern, and LAPACK
    gets the Hermitian part of one stack of blocks per block size. A NaN or
    an infinite entry lies in a block, and raises ValueError once every
    block is checked, before any eigensolve.
    """
    mat = np.asarray(matrix, dtype=complex)
    stacks = [stack for _, stack in _block_stacks(mat, _blocks(mat))]
    for stack in stacks:
        _require_finite(stack)
    return _block_values([hermitize(stack) for stack in stacks])


def hermitian_eigvalsh(matrices) -> np.ndarray:
    """Ascending spectra (..., D) of a stack (..., D, D) of matrices that are
    each finite and Hermitian within DEFAULT_TOL, read through their
    Hermitian part.

    The stack is split along the union of its matrices' exact zero patterns,
    made symmetric: the blocks that no matrix of the stack couples. Every
    block stack is checked and hermitized (``_hermitian_part``) before the
    first eigensolve, and a failure is named by ``_require_hermitian`` of
    the whole stack, so the message is the one an unsplit check gives.
    """
    mats = np.asarray(matrices, dtype=complex)
    return _block_values([_hermitian_part(stack, mats) for _, stack in _block_stacks(mats, _blocks(mats))])


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
    renormalized exactly before the outer product is formed, and the state
    keeps it, read-only, as its ``ket``.
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
        shown = f"{norm:.6f}" if norm < 1e30 else f"{norm:.15e}"
        raise ValueError(f"state vector norm {shown} deviates from 1 beyond tol {NORM_TOL:.1e}")
    vec = vec / norm
    vec.setflags(write=False)
    state = DensityOperator(dim_a=dim_a, dim_b=dim_b, matrix=_frozen(np.outer(vec, vec.conj())))
    object.__setattr__(state, "ket", vec)
    return state


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


def _fix_phase(vectors: np.ndarray, kept: np.ndarray | None = None) -> np.ndarray:
    """Scale each column of a matrix, or of a stack (..., n, c) of them, so
    that its first component above _PHASE_EPS in modulus is real positive;
    a column without one, and a column that ``kept`` (..., c) marks, is
    left as it is."""
    stack = vectors.reshape(-1, *vectors.shape[-2:])
    magnitudes = np.abs(stack)
    at = (np.arange(len(stack))[:, None], (magnitudes > _PHASE_EPS).argmax(axis=1), np.arange(stack.shape[2]))
    size = magnitudes[at]
    found = size > _PHASE_EPS
    if kept is not None:
        found &= ~kept.reshape(found.shape)
    phase = np.where(found, stack[at].conj() / np.where(found, size, 1.0), 1.0)
    return (stack * phase[:, None, :]).reshape(vectors.shape)


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


def _cluster_basis(vectors: np.ndarray, groups: list[np.ndarray]) -> None:
    """Rebuild, in place, a deterministic orthonormal basis of the
    degenerate eigenspace that the columns of ``vectors`` span.

    Built from the subspace projector alone (independent of the solver's
    arbitrary in-cluster choice): ``_gram_schmidt`` over the projector's
    columns in index order. No column of ``vectors`` crosses one of the
    blocks, the rows of the (k, s) ``groups`` of ``_blocks``, so the
    projector is block diagonal along them and a column is orthogonal to
    every vector from another block. Each block
    that holds some of the vectors is therefore walked on its own, up to
    the number of vectors it holds, and the results are merged in the index
    order of the columns they came from: the basis one walk over the whole
    projector gives, with exact zeros outside each vector's block, each
    vector phase fixed (``_fix_phase``) on its block. A block whose every
    column belongs to the cluster has the identity as its projector, whose
    walk is the block's unit vectors; only the other blocks are walked.
    """
    dim, rank = vectors.shape
    blocks = [rows for group in groups for rows in group]
    block_of_row = np.empty(dim, dtype=int)
    for i, rows in enumerate(blocks):
        block_of_row[rows] = i
    owner = block_of_row[(vectors != 0).argmax(axis=0)]
    walks = []
    for i in sorted(set(owner.tolist())):
        rows = blocks[i]
        inside = vectors[rows][:, owner == i]
        count = inside.shape[1]
        if count == len(rows):
            found, came_from = np.eye(len(rows), count), np.arange(count)
        else:
            found, came_from = _gram_schmidt(inside @ inside.conj().T, count)
            found = _fix_phase(found)
        walks.append((rows, found, rows[came_from]))
    column = np.argsort(np.argsort(np.concatenate([sources for _, _, sources in walks])))
    vectors[...] = 0.0
    start = 0
    for rows, found, _ in walks:
        stop = start + found.shape[1]
        vectors[rows[:, None], column[start:stop]] = found
        start = stop


def hermitian_eig(matrix) -> HermitianSpectrum:
    """Full eigensystem with a deterministic convention for degeneracies.

    Eigenvalues are ascending. A degenerate cluster (consecutive gap below
    DEGENERATE_GAP) gets one eigenvalue, the cluster mean, and its
    eigenbasis is rebuilt from the cluster projector by ``_cluster_basis``,
    so neither its values nor its vectors depend on solver internals; then
    every vector's global phase makes its first significant component real
    positive. The matrix must be finite and Hermitian. It is solved block
    by block along its own zero pattern, every block checked and
    hermitized (``_hermitian_part``) before the first ``eigh``, one per
    block size. The clusters are found from the eigenvalue gaps in one
    pass, and each vector is phase fixed once: on its block stack, or, in
    a cluster, as ``_cluster_basis`` rebuilds it.
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    blocks = _blocks(mat)
    stacks = [(rows, _hermitian_part(stack, mat)) for rows, stack in _block_stacks(mat, blocks)]
    values, vectors, clusters = _eigh_blocks(stacks)
    for start, stop in clusters:
        values[start:stop] = values[start:stop].mean()
        _cluster_basis(vectors[:, start:stop], blocks)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return HermitianSpectrum(eigenvalues=values, eigenvectors=vectors)
