"""Distillation-yield bounds from distinguishing-based protocols.

Two protocol families are bounded: full distinguishing, where both parties
learn the entire spectral string of their shared pairs (attained by hashing
for Bell-diagonal states), and partial distinguishing, where a sacrificial
group of pairs is spent to identify the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import (
    ZERO_EIGENVALUE,
    is_ppt,
    shannon_entropy,
    von_neumann_entropies,
    von_neumann_entropy,
)
from .linalg import (
    DEGENERATE_GAP,
    DensityOperator,
    hermitian_eig,
    validate_density,
)

# Below this the denominator of the partial-distinguishing constraint is
# degenerate (pure product input) and the bound imposes nothing.
_VACUOUS_EPS = 1e-12


@dataclass(frozen=True)
class SpectralEnsemble:
    """Eigendecomposition of a state viewed as a pure-state ensemble.

    Members are (weight, unit vector) pairs with orthonormal vectors,
    ordered by descending weight. ``degenerate`` flags repeated nonzero
    eigenvalues, where the decomposition (and hence the mean local entropy)
    is convention dependent.
    """

    dim_a: int
    dim_b: int
    members: tuple[tuple[float, np.ndarray], ...]
    degenerate: bool

    def __post_init__(self):
        if not self.members:
            raise ValueError("spectral ensemble needs at least one member")
        total = sum(p for p, _ in self.members)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total!r}, not 1")
        vectors = np.column_stack([v for _, v in self.members])
        gram = vectors.conj().T @ vectors
        if np.abs(gram - np.eye(len(self.members))).max() > 1e-9:
            raise ValueError("spectral ensemble vectors are not orthonormal")


@dataclass(frozen=True)
class BellDiagonalSpec:
    """Mixing weights over the d^2 generalized Bell states of a d x d system."""

    d: int
    probs: tuple[float, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"local dimension must be >= 2, got {self.d}")
        probs = tuple(float(p) for p in self.probs)
        if len(probs) != self.d * self.d:
            raise ValueError(f"need {self.d * self.d} weights, got {len(probs)}")
        if min(probs) < -1e-12:
            raise ValueError(f"negative weight {min(probs)}")
        total = sum(probs)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class DistillationReport:
    """Entropies, yield bounds, and classification flags for one state.

    Raw bounds may be negative (meaning: no yield through such protocols);
    ``full_distinguish_yield`` is the zero-clamped value. Infinite
    ``partial_distinguish_bound`` / ``max_keep_fraction`` mark the vacuous
    pure-product case. Closed forms are present only when the state was
    built from a BellDiagonalSpec.
    """

    entropy: float
    entropy_a: float
    entropy_b: float
    mean_local_entropy: float
    full_distinguish_bound: float
    full_distinguish_yield: float
    partial_distinguish_bound: float
    max_keep_fraction: float
    degenerate_spectrum: bool
    ppt: bool
    min_pt_eigenvalue: float
    closed_form_hashing: float | None = None
    closed_form_hashing_yield: float | None = None
    closed_form_partial: float | None = None


def spectral_ensemble(rho: DensityOperator) -> SpectralEnsemble:
    """Eigen-ensemble of a state, dropping zero-eigenvalue vectors.

    Members are ordered by descending weight; equal weights keep the
    ascending order of ``hermitian_eig``.
    """
    spectrum = hermitian_eig(rho.matrix)
    kept = np.flatnonzero(spectrum.eigenvalues > ZERO_EIGENVALUE)
    kept = kept[np.argsort(-spectrum.eigenvalues[kept], kind="stable")]
    weights = spectrum.eigenvalues[kept]
    vectors = spectrum.eigenvectors[:, kept]
    vectors.setflags(write=False)
    degenerate = bool((np.abs(np.diff(weights)) < DEGENERATE_GAP).any())
    return SpectralEnsemble(
        dim_a=rho.dim_a,
        dim_b=rho.dim_b,
        members=tuple((float(w), vectors[:, i]) for i, w in enumerate(weights)),
        degenerate=degenerate,
    )


def mean_local_entropy(se: SpectralEnsemble) -> float:
    """Weighted mean local entropy of the spectral members.

    The members are stacked as (M, d_A, d_B) blocks, and one
    ``von_neumann_entropies`` call per side covers all of them. For pure
    members the two sides agree; both are computed and checked against
    each other before the A-side value is returned.
    """
    weights = np.array([w for w, _ in se.members])
    blocks = np.stack([v for _, v in se.members]).reshape(-1, se.dim_a, se.dim_b)
    adjoints = blocks.conj().swapaxes(-1, -2)
    total_a = float(weights @ von_neumann_entropies(blocks @ adjoints))
    total_b = float(weights @ von_neumann_entropies(adjoints @ blocks))
    if abs(total_a - total_b) > 1e-9:
        raise AssertionError(f"side entropies disagree: {total_a!r} vs {total_b!r}")
    return total_a


@dataclass(frozen=True)
class _Entropies:
    """The entropies both distinguishing bounds are built from."""

    spectral: SpectralEnsemble
    entropy: float
    entropy_a: float
    entropy_b: float
    mean_local: float

    @classmethod
    def of(cls, rho: DensityOperator) -> "_Entropies":
        """One spectral pass: the ensemble, S, S_A, S_B and the mean local entropy once each.

        S is the Shannon entropy of the spectral weights, so rho's spectrum
        is taken once.
        """
        spectral = spectral_ensemble(rho)
        return cls(
            spectral=spectral,
            entropy=shannon_entropy([w for w, _ in spectral.members]),
            entropy_a=von_neumann_entropy(rho.marginal("A")),
            entropy_b=von_neumann_entropy(rho.marginal("B")),
            mean_local=mean_local_entropy(spectral),
        )

    def full_bound(self) -> float:
        return self.entropy_a + self.entropy_b - self.entropy - self.mean_local

    def partial_bound(self) -> tuple[float, float]:
        denominator = self.entropy + self.mean_local
        if denominator < _VACUOUS_EPS:
            return math.inf, math.inf
        r_max = (self.entropy_a + self.entropy_b - self.mean_local) / denominator
        return r_max * self.mean_local, r_max


def full_distinguish_bound(rho: DensityOperator) -> float:
    """Yield bound for protocols that identify the whole spectral string.

    S_A + S_B - S - (mean local entropy); may be negative. For a Bell-diagonal
    state with distinct weights it is log2 d - H(weights), negative whenever
    H(weights) > log2 d, entangled states included: a negative value does
    not mean the state is separable.
    """
    return _Entropies.of(rho).full_bound()


def partial_distinguish_bound(rho: DensityOperator) -> tuple[float, float]:
    """Yield bound and keep-fraction cap for group-splitting protocols.

    Returns (bound, max keep fraction r). The fraction of pairs whose
    identity can be learned by sacrificing the rest satisfies
    r <= (S_A + S_B - mean local entropy) / (S + mean local entropy) and the
    yield is bounded by r times the mean local entropy. A pure product
    input makes the constraint vacuous: both values are +inf.
    """
    return _Entropies.of(rho).partial_bound()


def _bell_matrix(d: int) -> np.ndarray:
    """The d^2 generalized Bell vectors as the columns of one d^2 x d^2 matrix.

    Column a*d + b is (I (x) Z^a X^b)|Phi_d>: it holds omega^(a*m)/sqrt(d),
    omega = exp(2 pi i/d), at row j*d + m with m = (j + b) mod d, and zero
    elsewhere.
    """
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    j = np.arange(d)[:, None, None]
    a = np.arange(d)[None, :, None]
    b = np.arange(d)[None, None, :]
    m = (j + b) % d
    basis = np.zeros((d, d, d, d), dtype=complex)
    basis[j, m, a, b] = np.exp(2j * np.pi * a * m / d) / np.sqrt(d)
    return basis.reshape(d * d, d * d)


def bell_basis(d: int) -> list[np.ndarray]:
    """The d^2 generalized Bell vectors (I (x) Z^a X^b)|Phi_d>, k = a*d + b.

    For d = 2 the order is Phi+, Psi+, Phi-, Psi- (up to global phase).
    """
    return list(_bell_matrix(d).T)


def bell_diagonal(spec: BellDiagonalSpec) -> DensityOperator:
    """Mixture of the generalized Bell states with the given weights.

    Built in closed form as (B * p) @ B^dagger, where B holds the Bell
    vectors as columns and p the weights with rounding-level negatives
    taken as zero, then checked by ``validate_density``.
    """
    basis = _bell_matrix(spec.d)
    weights = np.maximum(np.array(spec.probs), 0.0)
    return validate_density((basis * weights) @ basis.conj().T, spec.d, spec.d)


def bell_hashing_bound(spec: BellDiagonalSpec) -> tuple[float, float]:
    """Closed-form full-distinguishing bound for a Bell-diagonal state.

    Returns (raw, yield) with raw = log2 d - H(weights); the raw value is
    attained by hashing and the yield is its zero-clamp. The raw value is
    negative whenever H(weights) > log2 d, which includes entangled states:
    a negative raw bound does not mean the state is separable.
    """
    raw = math.log2(spec.d) - shannon_entropy(spec.probs)
    return raw, max(0.0, raw)


def bell_partial_bound(spec: BellDiagonalSpec) -> float:
    """Closed-form partial-distinguishing bound for a Bell-diagonal state.

    (log2 d)^2 / (log2 d + H(weights)); strictly positive for every spec,
    separable or not.
    """
    log_d = math.log2(spec.d)
    return log_d * log_d / (log_d + shannon_entropy(spec.probs))


def distillation_report(rho: DensityOperator, spec: BellDiagonalSpec | None = None) -> DistillationReport:
    """Assemble the full report for one state.

    When ``spec`` is given the state is understood as Bell diagonal and the
    closed forms are attached alongside the generic values.
    """
    parts = _Entropies.of(rho)
    full_raw = parts.full_bound()
    partial, r_max = parts.partial_bound()
    ppt_flag, min_pt = is_ppt(rho)

    closed_hashing = closed_hashing_yield = closed_partial = None
    if spec is not None:
        closed_hashing, closed_hashing_yield = bell_hashing_bound(spec)
        closed_partial = bell_partial_bound(spec)

    return DistillationReport(
        entropy=parts.entropy,
        entropy_a=parts.entropy_a,
        entropy_b=parts.entropy_b,
        mean_local_entropy=parts.mean_local,
        full_distinguish_bound=full_raw,
        full_distinguish_yield=max(0.0, full_raw),
        partial_distinguish_bound=partial,
        max_keep_fraction=r_max,
        degenerate_spectrum=parts.spectral.degenerate,
        ppt=ppt_flag,
        min_pt_eigenvalue=min_pt,
        closed_form_hashing=closed_hashing,
        closed_form_hashing_yield=closed_hashing_yield,
        closed_form_partial=closed_partial,
    )
