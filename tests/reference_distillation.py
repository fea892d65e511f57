"""Loop-based distillation layer, kept as the reference for the batched one.

This is the form ``locclab.distillation`` and ``locclab.linalg.hermitian_eig``
had before they were rewritten as stacked numpy calls: the Bell basis built
from d^2 Kronecker products of clock and shift powers, the state as a sum of
outer products, the degenerate-cluster basis by modified Gram-Schmidt one
accepted vector at a time, the phase fixed column by column, one scalar
entropy per spectral member and side, and a report that computes the
spectral ensemble and its entropies twice. Its eigen-ensemble is its own
``ReferenceEnsemble`` record of (weight, vector) members, and its report the
package's ``DistillationReport``, so the property tests can compare the two
forms field by field. Its entropies, marginals, Bell kets, PPT test and Bell
closed forms come from numpy alone, through the oracles in ``helpers``, not
from ``locclab.entropy``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from locclab.distillation import (
    _VACUOUS_EPS,
    BellDiagonalSpec,
    DistillationReport,
)
from locclab.entropy import ZERO_EIGENVALUE
from locclab.linalg import (
    _GS_KEEP,
    _PHASE_EPS,
    DEFAULT_TOL,
    DEGENERATE_GAP,
    DensityOperator,
    HermitianSpectrum,
    hermitize,
    validate_density,
)

from helpers import bell_vectors, partial_trace_oracle, shannon_oracle, von_neumann_oracle


def _fix_phase(vector: np.ndarray) -> np.ndarray:
    for component in vector:
        if abs(component) > _PHASE_EPS:
            return vector * (component.conjugate() / abs(component))
    return vector


def _cluster_basis(vectors: np.ndarray) -> np.ndarray:
    dim, rank = vectors.shape
    projector = vectors @ vectors.conj().T
    basis: list[np.ndarray] = []
    for j in range(dim):
        candidate = projector[:, j].copy()
        for accepted in basis:
            candidate -= accepted * (accepted.conj() @ candidate)
        norm = float(np.linalg.norm(candidate))
        if norm > _GS_KEEP:
            basis.append(candidate / norm)
            if len(basis) == rank:
                break
    if len(basis) != rank:
        raise RuntimeError(f"degenerate cluster basis incomplete: {len(basis)}/{rank}")
    return np.column_stack(basis)


def hermitian_eig(matrix, tol: float = DEFAULT_TOL) -> HermitianSpectrum:
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    herm_dev = np.abs(mat - mat.conj().T).max()
    if herm_dev > tol:
        raise ValueError(f"not Hermitian: max |M - M^dagger| = {herm_dev:.3e} exceeds tol {tol:.1e}")
    values, vectors = np.linalg.eigh(hermitize(mat))

    columns = []
    start = 0
    while start < len(values):
        stop = start + 1
        while stop < len(values) and values[stop] - values[stop - 1] < DEGENERATE_GAP:
            stop += 1
        if stop - start > 1:
            values[start:stop] = values[start:stop].mean()
            block = _cluster_basis(vectors[:, start:stop])
        else:
            block = vectors[:, start:stop]
        for i in range(block.shape[1]):
            columns.append(_fix_phase(block[:, i]))
        start = stop
    return HermitianSpectrum(
        eigenvalues=np.asarray(values, dtype=float),
        eigenvectors=np.column_stack(columns),
    )


@dataclass(frozen=True)
class ReferenceEnsemble:
    """Eigen-ensemble of a state: (weight, unit vector) members in
    descending weight, and whether two weights lie within DEGENERATE_GAP."""

    dim_a: int
    dim_b: int
    members: tuple[tuple[float, np.ndarray], ...]
    degenerate: bool


def spectral_ensemble(rho: DensityOperator) -> ReferenceEnsemble:
    spectrum = hermitian_eig(rho.matrix)
    kept = [
        (float(w), spectrum.eigenvectors[:, i])
        for i, w in enumerate(spectrum.eigenvalues)
        if w > ZERO_EIGENVALUE
    ]
    kept.sort(key=lambda item: -item[0])
    weights = [w for w, _ in kept]
    degenerate = any(
        abs(weights[i] - weights[i + 1]) < DEGENERATE_GAP for i in range(len(weights) - 1)
    )
    return ReferenceEnsemble(dim_a=rho.dim_a, dim_b=rho.dim_b, members=tuple(kept), degenerate=degenerate)


def mean_local_entropy(se: ReferenceEnsemble) -> float:
    total_a = 0.0
    total_b = 0.0
    for weight, vector in se.members:
        block = vector.reshape(se.dim_a, se.dim_b)
        total_a += weight * von_neumann_oracle(block @ block.conj().T)
        total_b += weight * von_neumann_oracle(block.conj().T @ block)
    if abs(total_a - total_b) > 1e-9:
        raise AssertionError(f"side entropies disagree: {total_a!r} vs {total_b!r}")
    return total_a


def partial_distinguish_bound(rho: DensityOperator) -> tuple[float, float]:
    entropy = von_neumann_oracle(rho.matrix)
    entropy_a = von_neumann_oracle(partial_trace_oracle(rho.matrix, "A", rho.dim_a, rho.dim_b))
    entropy_b = von_neumann_oracle(partial_trace_oracle(rho.matrix, "B", rho.dim_a, rho.dim_b))
    mean_local = mean_local_entropy(spectral_ensemble(rho))
    denominator = entropy + mean_local
    if denominator < _VACUOUS_EPS:
        return None, None
    r_max = (entropy_a + entropy_b - mean_local) / denominator
    return r_max * mean_local, r_max


def full_distinguish_bound(rho: DensityOperator) -> float:
    entropy = von_neumann_oracle(rho.matrix)
    entropy_a = von_neumann_oracle(partial_trace_oracle(rho.matrix, "A", rho.dim_a, rho.dim_b))
    entropy_b = von_neumann_oracle(partial_trace_oracle(rho.matrix, "B", rho.dim_a, rho.dim_b))
    return entropy_a + entropy_b - entropy - mean_local_entropy(spectral_ensemble(rho))


def is_ppt(rho: DensityOperator) -> tuple[bool, float]:
    """PPT flag and smallest eigenvalue of the whole partial transpose on B."""
    dim_a, dim_b = rho.dim_a, rho.dim_b
    pt = rho.matrix.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 3, 2, 1).reshape(dim_a * dim_b, -1)
    lowest = float(np.linalg.eigvalsh(pt)[0])
    return lowest >= -DEFAULT_TOL, lowest


def bell_diagonal(spec: BellDiagonalSpec) -> DensityOperator:
    dim = spec.d * spec.d
    matrix = np.zeros((dim, dim), dtype=complex)
    for weight, ket in zip(spec.probs, bell_vectors(spec.d)):
        if weight > 0.0:
            matrix += weight * np.outer(ket, ket.conj())
    return validate_density(matrix, spec.d, spec.d)


def distillation_report(rho: DensityOperator, spec: BellDiagonalSpec | None = None) -> DistillationReport:
    se = spectral_ensemble(rho)
    entropy = von_neumann_oracle(rho.matrix)
    entropy_a = von_neumann_oracle(partial_trace_oracle(rho.matrix, "A", rho.dim_a, rho.dim_b))
    entropy_b = von_neumann_oracle(partial_trace_oracle(rho.matrix, "B", rho.dim_a, rho.dim_b))
    mean_local = mean_local_entropy(se)
    full_raw = entropy_a + entropy_b - entropy - mean_local
    partial, r_max = partial_distinguish_bound(rho)
    ppt_flag, min_pt = is_ppt(rho)

    closed_hashing = closed_hashing_yield = closed_partial = None
    if spec is not None:
        log_d = float(np.log2(spec.d))
        weights_entropy = shannon_oracle(spec.probs)
        closed_hashing = log_d - weights_entropy
        closed_hashing_yield = max(0.0, closed_hashing)
        closed_partial = log_d * log_d / (log_d + weights_entropy)

    return DistillationReport(
        entropy=entropy,
        entropy_a=entropy_a,
        entropy_b=entropy_b,
        mean_local_entropy=mean_local,
        full_distinguish_bound=full_raw,
        full_distinguish_yield=max(0.0, full_raw),
        partial_distinguish_bound=partial,
        max_keep_fraction=r_max,
        degenerate_spectrum=se.degenerate,
        ppt=ppt_flag,
        min_pt_eigenvalue=min_pt,
        closed_form_hashing=closed_hashing,
        closed_form_hashing_yield=closed_hashing_yield,
        closed_form_partial=closed_partial,
    )
