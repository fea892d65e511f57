"""Distillation-yield bounds from distinguishing-based protocols.

Two protocol families are bounded: full distinguishing, where both parties
learn the entire spectral string of their shared pairs (attained by hashing
for Bell-diagonal states), and partial distinguishing, where a sacrificial
group of pairs is spent to identify the rest.

``distillation_report`` solves the state once, as its
``SpectralEnsemble``. Every entropy both bounds are built from is a root
statistic of that eigen-ensemble: entry 0 of the ``TreeStats`` that
``protocol._level_stats`` computes for the one-level tree of the root
whose factors are its kets. S is the root's conditional entropy
H(weights), S_A and S_B its average-marginal entropies and the mean local
entropy its side-A member entropy. ``bell_diagonal`` builds its state
directly: checked weights make it a density operator by construction, so
a validating solve would only repeat the report's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import SpectralEnsemble, _require_weights, is_ppt, shannon_entropy
from .linalg import PARTIES, DensityOperator, _require_integer
from .protocol import _level_stats, _root_level

# An entropy sum S + mean local entropy below this, in bits, is zero: the partial bound is vacuous.
# Not the zero band ZERO_EIGENVALUE, which judges a probability.
_VACUOUS_EPS = 1e-12


@dataclass(frozen=True)
class BellDiagonalSpec:
    """Mixing weights over the d^2 generalized Bell states of a d x d system:
    ``d`` an integer (a bool is not one), ``probs`` a tuple, a list or a
    1-d array of d^2 weights under the weight rule of
    ``entropy._require_weights``."""

    d: int
    probs: tuple[float, ...]

    def __post_init__(self):
        _require_integer(self.d, "d")
        if not isinstance(self.probs, (tuple, list)) and np.ndim(self.probs) != 1:
            raise ValueError(f"probs must be a sequence of weights, got {type(self.probs).__name__}")
        if self.d < 2:
            raise ValueError(f"local dimension must be >= 2, got {self.d}")
        if len(self.probs) != self.d * self.d:
            raise ValueError(f"need {self.d * self.d} weights, got {len(self.probs)}")
        object.__setattr__(self, "probs", tuple(_require_weights(self.probs).tolist()))


@dataclass(frozen=True)
class DistillationReport:
    """Entropies, yield bounds, and classification flags for one state.

    Raw bounds may be negative (meaning: no yield through such protocols);
    ``full_distinguish_yield`` is the zero-clamped value. A field that does
    not apply is None: ``partial_distinguish_bound`` and
    ``max_keep_fraction`` on a pure product input, where the partial bound
    is vacuous, and the closed forms unless the state was built from a
    BellDiagonalSpec. The CLI writes None as ``null`` in JSON and ``-`` in
    its table.
    """

    entropy: float
    entropy_a: float
    entropy_b: float
    mean_local_entropy: float
    full_distinguish_bound: float
    full_distinguish_yield: float
    partial_distinguish_bound: float | None
    max_keep_fraction: float | None
    degenerate_spectrum: bool
    ppt: bool
    min_pt_eigenvalue: float
    closed_form_hashing: float | None = None
    closed_form_hashing_yield: float | None = None
    closed_form_partial: float | None = None


def _bounds(entropy: float, local: float, mean_local: float) -> tuple[float, float | None, float | None]:
    """(full bound, partial bound, max keep fraction) from S, S_A + S_B and
    the mean local entropy.

    The full bound, S_A + S_B - S - (mean local entropy), may be negative,
    entangled states included (log2 d - H(weights) on a Bell-diagonal
    state). A group-splitting protocol learns the identity of a fraction
    r <= (S_A + S_B - mean local entropy) / (S + mean local entropy) of the
    pairs, with yield at most r times the mean local entropy. On a pure
    product input the constraint is vacuous, and both are None.
    """
    full = local - entropy - mean_local
    denominator = entropy + mean_local
    if denominator < _VACUOUS_EPS:
        return full, None, None
    r_max = (local - mean_local) / denominator
    return full, r_max * mean_local, r_max


def _bell_matrix(d: int) -> np.ndarray:
    """The d^2 generalized Bell vectors as the columns of one d^2 x d^2 matrix.

    Column a*d + b is (I (x) Z^a X^b)|Phi_d>: it holds omega^(a*m)/sqrt(d),
    omega = exp(2 pi i/d), at row j*d + m with m = (j + b) mod d, and zero
    elsewhere. For d = 2 the order is Phi+, Psi+, Phi-, Psi-.
    """
    j = np.arange(d)[:, None, None]
    a = np.arange(d)[None, :, None]
    b = np.arange(d)[None, None, :]
    m = (j + b) % d
    basis = np.zeros((d, d, d, d), dtype=complex)
    basis[j, m, a, b] = np.exp(2j * np.pi * a * m / d) / np.sqrt(d)
    return basis.reshape(d * d, d * d)


def bell_diagonal(spec: BellDiagonalSpec) -> DensityOperator:
    """Mixture of the generalized Bell states with the given weights.

    Built in closed form as (B * p) @ B^dagger, where B holds the Bell
    vectors as columns and p the weights with rounding-level negatives
    taken as zero, and returned read-only as built: ``BellDiagonalSpec``
    has checked the weights, so the matrix is Hermitian and PSD with trace
    sum(p). A ``validate_density`` solve could reject it only by rounding
    at its 1e-9 trace edge, and would eigensolve it once more.
    """
    basis = _bell_matrix(spec.d)
    matrix = (basis * np.maximum(np.array(spec.probs), 0.0)) @ basis.conj().T
    matrix.setflags(write=False)
    return DensityOperator(spec.d, spec.d, matrix)


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

    The state is solved generically, Bell diagonal or not, and its kept
    weights must sum to 1 within DEFAULT_TOL. When ``spec`` is given the
    state is understood as Bell diagonal and the closed forms are attached
    alongside the generic values; otherwise they are None, as are the
    partial bound and keep fraction of a pure product state.
    """
    ensemble = SpectralEnsemble(rho)
    # Not run_protocol(ensemble, {}, 0): perfbench's traced run checks the
    # i_locc of every transcript run_protocol makes against the op's golden,
    # and a distill-report golden has none.
    stats = _level_stats((_root_level(ensemble),), (rho.dim_a, rho.dim_b))
    entropy = float(stats.conditional_entropy[0])
    entropy_a, entropy_b = (float(stats.average_entropy[side][0]) for side in PARTIES)
    mean_local = float(stats.member_entropy["A"][0])
    full_raw, partial, r_max = _bounds(entropy, entropy_a + entropy_b, mean_local)
    ppt_flag, min_pt = is_ppt(rho)

    closed_hashing = closed_hashing_yield = closed_partial = None
    if spec is not None:
        closed_hashing, closed_hashing_yield = bell_hashing_bound(spec)
        closed_partial = bell_partial_bound(spec)

    return DistillationReport(
        entropy=entropy,
        entropy_a=entropy_a,
        entropy_b=entropy_b,
        mean_local_entropy=mean_local,
        full_distinguish_bound=full_raw,
        full_distinguish_yield=max(0.0, full_raw),
        partial_distinguish_bound=partial,
        max_keep_fraction=r_max,
        degenerate_spectrum=ensemble.degenerate,
        ppt=ppt_flag,
        min_pt_eigenvalue=min_pt,
        closed_form_hashing=closed_hashing,
        closed_form_hashing_yield=closed_hashing_yield,
        closed_form_partial=closed_partial,
    )
