"""Validated dense complex linear algebra on small bipartite systems.

States live on a tensor product H_A (x) H_B with Alice's index slow
(row-major A(x)B ordering). Everything here is a pure function over
immutable values; returned arrays are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
DEGENERATE_GAP = 1e-10

# Gram-Schmidt candidates below this norm are skipped; unit vectors in
# dimension <= 64 always leave a candidate of norm >= 1/8, so the basis
# of a degenerate cluster is always completed.
_GS_KEEP = 1e-7
_PHASE_EPS = 1e-8


@dataclass(frozen=True)
class DensityOperator:
    """A validated bipartite density matrix with fixed subsystem dimensions."""

    dim_a: int
    dim_b: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def marginal(self, keep: str) -> np.ndarray:
        """Reduced density matrix of subsystem ``keep`` ("A" or "B")."""
        return partial_trace(self, keep)


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


def validate_densities(matrices, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check a stack (..., D, D) of density matrices; return the checked stack.

    Each matrix must be Hermitian with unit trace within ``tol`` and have no
    eigenvalue below -tol. Matrices whose lowest eigenvalue lies in
    [-tol, 0) get their negative eigenvalues clipped to zero and are
    renormalized; the others are returned unchanged. One ``eigvalsh`` call
    covers the whole stack, one ``eigh`` call the clipped matrices.
    """
    mats = np.array(matrices, dtype=complex)
    herm_dev = np.abs(mats - mats.swapaxes(-1, -2).conj()).max(axis=(-2, -1), initial=0.0)
    off = herm_dev > tol
    if off.any():
        raise ValueError(
            f"not Hermitian: max |M - M^dagger| = {np.extract(off, herm_dev)[0]:.3e} exceeds tol {tol:.1e}"
        )
    trace_dev = np.abs(np.trace(mats, axis1=-2, axis2=-1) - 1.0)
    off = ~(trace_dev <= tol)
    if off.any():
        raise ValueError(
            f"trace deviation: |tr(M) - 1| = {np.extract(off, trace_dev)[0]:.3e} exceeds tol {tol:.1e}"
        )
    lowest = np.linalg.eigvalsh(hermitize(mats))[..., 0]
    off = lowest < -tol
    if off.any():
        raise ValueError(f"negative eigenvalue {np.extract(off, lowest)[0]:.3e} below -tol = {-tol:.1e}")
    clipped = lowest < 0.0
    if clipped.any():
        # Clip rounding-level negatives and renormalize back to unit trace.
        values, vectors = np.linalg.eigh(hermitize(mats[clipped]))
        values = np.maximum(values, 0.0)
        rebuilt = (vectors * values[..., None, :]) @ vectors.swapaxes(-1, -2).conj()
        traces = np.trace(rebuilt, axis1=-2, axis2=-1).real
        mats[clipped] = hermitize(rebuilt / traces[..., None, None])
    return mats


def validate_density(matrix, dim_a: int, dim_b: int, tol: float = DEFAULT_TOL) -> DensityOperator:
    """Check matrix is a density operator on the given bipartite dimensions.

    Hermiticity, unit trace, and positivity are enforced within ``tol``.
    Eigenvalues in [-tol, 0) are clipped to zero and the state renormalized;
    anything below -tol is rejected as unphysical. This is the one-matrix
    case of ``validate_densities``.
    """
    if dim_a < 1 or dim_b < 1:
        raise ValueError(f"subsystem dimensions must be positive, got ({dim_a}, {dim_b})")
    mat = np.asarray(matrix, dtype=complex)
    dim = dim_a * dim_b
    if mat.shape != (dim, dim):
        raise ValueError(
            f"dimension mismatch: expected {dim}x{dim} for dims ({dim_a}, {dim_b}), got {mat.shape}"
        )
    return DensityOperator(dim_a=dim_a, dim_b=dim_b, matrix=_frozen(validate_densities(mat, tol)))


def pure_state_density(vector, dim_a: int, dim_b: int, tol: float = 1e-6) -> DensityOperator:
    """Density operator |psi><psi| from a state vector of length dim_a*dim_b.

    The vector must be normalized within ``tol``; it is renormalized exactly
    before the outer product is formed.
    """
    vec = np.asarray(vector, dtype=complex).reshape(-1)
    if vec.shape != (dim_a * dim_b,):
        raise ValueError(
            f"dimension mismatch: vector length {vec.size} != dim_a*dim_b = {dim_a * dim_b}"
        )
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= tol:
        raise ValueError(f"state vector norm {norm:.6f} deviates from 1 beyond tol {tol:.1e}")
    vec = vec / norm
    return DensityOperator(dim_a=dim_a, dim_b=dim_b, matrix=_frozen(np.outer(vec, vec.conj())))


def _resolve_dims(state, dims) -> tuple[np.ndarray, int, int]:
    if isinstance(state, DensityOperator):
        return state.matrix, state.dim_a, state.dim_b
    if dims is None:
        raise ValueError("dims=(dim_a, dim_b) is required for a bare matrix")
    mat = np.asarray(state, dtype=complex)
    dim_a, dim_b = dims
    if mat.shape[-2:] != (dim_a * dim_b, dim_a * dim_b):
        raise ValueError(f"dimension mismatch: matrix {mat.shape} vs dims ({dim_a}, {dim_b})")
    return mat, dim_a, dim_b


def partial_trace(state, keep: str, dims=None) -> np.ndarray:
    """Trace out one subsystem, keeping ``keep`` in {"A", "B"}.

    ``state`` is a DensityOperator, or a bare square matrix, or a stack
    (..., D, D) of them, together with ``dims=(dim_a, dim_b)``.
    """
    mat, dim_a, dim_b = _resolve_dims(state, dims)
    tensor = mat.reshape(mat.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    if keep == "A":
        return np.einsum("...ijkj->...ik", tensor)
    if keep == "B":
        return np.einsum("...ijil->...jl", tensor)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(state, party: str, dims=None) -> np.ndarray:
    """Transpose the indices of one party; output stays Hermitian."""
    mat, dim_a, dim_b = _resolve_dims(state, dims)
    tensor = mat.reshape(dim_a, dim_b, dim_a, dim_b)
    if party == "A":
        swapped = tensor.transpose(2, 1, 0, 3)
    elif party == "B":
        swapped = tensor.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    return swapped.reshape(dim_a * dim_b, dim_a * dim_b)


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


def _cluster_basis(vectors: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of a degenerate eigenspace.

    Built from the subspace projector alone (independent of the solver's
    arbitrary in-cluster choice): the projector's columns are taken in
    index order, each is orthogonalised against every vector accepted so
    far (classical Gram-Schmidt as one matmul, applied twice), kept if its
    residual norm exceeds _GS_KEEP, and the walk stops once the basis has
    the cluster's rank.
    """
    dim, rank = vectors.shape
    projector = vectors @ vectors.conj().T
    rows = np.empty((rank, dim), dtype=complex)  # accepted vectors, one per row
    accepted = 0
    for j in range(dim):
        candidate = projector[:, j]
        for _ in range(2):
            done = rows[:accepted]
            # The coefficients conj(done) @ c, conjugating vectors only.
            candidate = candidate - (done @ candidate.conj()).conj() @ done
        norm = float(np.linalg.norm(candidate))
        if norm > _GS_KEEP:
            rows[accepted] = candidate / norm
            accepted += 1
            if accepted == rank:
                return rows.T
    raise RuntimeError(f"degenerate cluster basis incomplete: {accepted}/{rank}")


def hermitian_eig(matrix, tol: float = DEFAULT_TOL) -> HermitianSpectrum:
    """Full eigensystem with a deterministic convention for degeneracies.

    Eigenvalues are ascending. Within a degenerate cluster (consecutive gap
    below DEGENERATE_GAP) the eigenbasis is rebuilt from the cluster
    projector by ``_cluster_basis`` so the result does not depend on solver
    internals; then every vector's global phase makes its first significant
    component real positive. One ``eigh`` call covers the matrix; the
    clusters are found from the eigenvalue gaps in one pass and the phases
    are fixed for all columns at once.
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    herm_dev = np.abs(mat - mat.conj().T).max()
    if herm_dev > tol:
        raise ValueError(f"not Hermitian: max |M - M^dagger| = {herm_dev:.3e} exceeds tol {tol:.1e}")
    values, vectors = np.linalg.eigh(hermitize(mat))

    # A cluster ends where the gap to the next eigenvalue is not below
    # DEGENERATE_GAP.
    ends = [*(np.flatnonzero(~(np.diff(values) < DEGENERATE_GAP)) + 1).tolist(), len(values)]
    start = 0
    for stop in ends:
        if stop - start > 1:
            vectors[:, start:stop] = _cluster_basis(vectors[:, start:stop])
        start = stop
    eigenvalues = np.asarray(values, dtype=float)
    eigenvalues.setflags(write=False)
    return HermitianSpectrum(
        eigenvalues=eigenvalues,
        eigenvectors=_frozen(_fix_phase(vectors)),
    )
