"""Ensembles, entropies and bipartite entanglement measures.

All logarithms are base 2; every quantity is in bits. ``shannon_entropies``
owns the zero rule of every entropy, spectra and the Wootters h(x) alike:
an entry at or below ZERO_EIGENVALUE counts as an exact zero, so rounding
noise never produces -inf terms. That one zero band also bounds a weight
from below and drops an eigenvalue from a spectral root and an outcome
from a protocol round.

The weight rule of every ensemble, Bell spec and Shannon entropy lives in
``_require_weights``, and the measurability rule (pure, or mixed on 2x2)
in ``_require_measurable``; the state, dimension and party rules live in
``locclab.linalg``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DEGENERATE_GAP,
    DensityOperator,
    _require_hermitian,
    _require_no_negative,
    _require_state,
    block_eigvalsh,
    hermitian_eig,
    hermitian_eigvalsh,
    hermitize,
    partial_trace,
    partial_transpose,
)

# A weight, an eigenvalue or an outcome probability within this of zero is zero.
ZERO_EIGENVALUE = 1e-12
# A unit-trace state of purity within this of one is pure; it picks the measure, so it is not DEFAULT_TOL.
PURITY_TOL = 1e-9

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


@cache
def _ones(count: int) -> np.ndarray:
    """A read-only vector of ``count`` ones, the right factor of every row-sum
    matvec; kept, so that a short stack pays no allocation for it."""
    ones = np.ones(count)
    ones.setflags(write=False)
    return ones


def _as_weights(weights) -> np.ndarray:
    """``weights`` as a float array once every entry is a real number: None,
    a str, a bool or any other object is rejected (named by its last-axis
    index) before anything is converted. A real-valued array passes as is."""
    if not (isinstance(weights, np.ndarray) and weights.dtype.kind in "fiu"):
        entries = np.asarray(weights, dtype=object)
        flat = entries.reshape(-1)
        kinds = set(map(type, flat))
        bad = {kind for kind in kinds if issubclass(kind, (bool, np.bool_)) or not issubclass(kind, numbers.Real)}
        if bad:
            at = next(i for i, entry in enumerate(flat) if type(entry) in bad)
            index = np.unravel_index(at, entries.shape)[-1] if entries.ndim else 0
            raise ValueError(f"weight {flat[at]!r} at index {index} is not a real number")
    return np.asarray(weights, dtype=float)


def _require_weights(weights) -> np.ndarray:
    """``weights`` as a float array (``_as_weights``), each row of a stack
    (..., M) checked: no weight below -ZERO_EIGENVALUE (named by its
    last-axis index) and a sum within DEFAULT_TOL of one, the test that a
    NaN fails."""
    weights = _as_weights(weights)
    if not weights.min(initial=0.0) >= -ZERO_EIGENVALUE:
        negative = weights < -ZERO_EIGENVALUE
        if negative.any():
            at = np.unravel_index(negative.argmax(), weights.shape)
            raise ValueError(f"negative weight {float(weights[at])!r} at index {at[-1]}")
    total = weights @ _ones(weights.shape[-1])
    deviation = np.abs(total - 1.0)
    if not deviation.max(initial=0.0) <= DEFAULT_TOL:
        raise ValueError(f"weights sum to {float(np.extract(~(deviation <= DEFAULT_TOL), total)[0])!r}, not 1")
    return weights


@dataclass(frozen=True)
class BipartiteEnsemble:
    """Weighted list of bipartite states sharing the same dimensions.

    Probabilities must be nonnegative and sum to one within DEFAULT_TOL;
    members with probability zero are allowed (they arise as impossible
    hypotheses in post-measurement ensembles). Every member must be a
    ``DensityOperator``.
    """

    members: tuple[tuple[float, DensityOperator], ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        for i, member in enumerate(self.members):
            if not (isinstance(member, (tuple, list)) and len(member) == 2):
                got = f"{len(member)} entries" if isinstance(member, (tuple, list)) else type(member).__name__
                raise ValueError(f"member {i} must be a (weight, state) pair, got {got}")
        _require_weights([p for p, _ in self.members])
        members = tuple((float(p), state) for p, state in self.members)
        first = members[0][1]
        for i, (_, state) in enumerate(members):
            _require_state(state, f"member {i}")
            if (state.dim_a, state.dim_b) != (first.dim_a, first.dim_b):
                raise ValueError(
                    f"member {i}: dims ({state.dim_a}, {state.dim_b}) differ from ({first.dim_a}, {first.dim_b})"
                )
        object.__setattr__(self, "members", members)

    @property
    def dim_a(self) -> int:
        return self.members[0][1].dim_a

    @property
    def dim_b(self) -> int:
        return self.members[0][1].dim_b

    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.members])

    def average_matrix(self) -> np.ndarray:
        out = np.zeros((self.dim_a * self.dim_b,) * 2, dtype=complex)
        for p, state in self.members:
            if p > 0.0:
                out += p * state.matrix
        return hermitize(out)


@dataclass(frozen=True, eq=False, init=False)
class SpectralEnsemble:
    """A state's eigen-ensemble, from one ``hermitian_eig`` solve of it.

    ``weights`` (M,) are the eigenvalues above ZERO_EIGENVALUE in
    descending order (a stable sort) and ``kets`` (M, D) their orthonormal
    eigenvectors, both read-only; the kept weights must sum to 1 within
    DEFAULT_TOL. A degenerate cluster has one weight, the mean
    ``hermitian_eig`` gives it, and keeps the ``_cluster_basis`` order, so
    the order of its kets never follows rounding in the solver.
    ``degenerate`` flags two kept weights within DEGENERATE_GAP, where the
    decomposition (and hence the mean local entropy) is convention
    dependent. A Bell-diagonal state is solved as d blocks of d (see
    ``locclab.linalg``), and the kets are gathered from the solve's
    column-major eigenvectors in one copy.
    """

    weights: np.ndarray
    kets: np.ndarray
    degenerate: bool
    dim_a: int
    dim_b: int

    def __init__(self, rho: DensityOperator):
        _require_state(rho, "rho")
        spectrum = hermitian_eig(rho.matrix)
        kept = np.flatnonzero(spectrum.eigenvalues > ZERO_EIGENVALUE)
        kept = kept[np.argsort(-spectrum.eigenvalues[kept], kind="stable")]
        weights = spectrum.eigenvalues[kept]
        _require_weights(weights)
        kets = spectrum.eigenvectors.T[kept]
        weights.setflags(write=False)
        kets.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "kets", kets)
        object.__setattr__(self, "degenerate", bool((np.abs(np.diff(weights)) < DEGENERATE_GAP).any()))
        object.__setattr__(self, "dim_a", rho.dim_a)
        object.__setattr__(self, "dim_b", rho.dim_b)


def shannon_entropies(probabilities) -> np.ndarray:
    """-sum p log2 p over the last axis of a stack of probability vectors.

    Every row must pass the weight rule of an ensemble (``_require_weights``);
    0 log 0 := 0, with entries at or below ZERO_EIGENVALUE counted as
    zeros. The rows are short (two entries for a qubit spectrum) and many,
    so the row sums here and in ``_require_weights`` are one matvec with the
    ones vector of ``_ones``: a reduction over a short last axis costs an
    order of magnitude more per row.
    """
    p = _require_weights(probabilities)
    return -(p * np.log2(np.where(p > ZERO_EIGENVALUE, p, 1.0))) @ _ones(p.shape[-1])


def shannon_entropy(probabilities) -> float:
    """-sum p log2 p over a probability vector, with 0 log 0 := 0."""
    return float(shannon_entropies(_as_weights(probabilities).reshape(-1)))


def _qubit_eigvalsh(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack (..., 2, 2) in closed form.

    The matrices are read through their Hermitian part, as ``hermitize``
    gives it: lambda+- = t +- gap with t = (a + d)/2 and gap =
    sqrt(((a - d)/2)^2 + |b|^2). The smaller root is det / lambda+, written
    as a (d / lambda+) - |b| (|b| / lambda+) so that no product overflows;
    where lambda+ <= 0 (the zero matrix) it is t - gap.
    """
    a = mats[..., 0, 0].real
    d = mats[..., 1, 1].real
    b = np.abs(0.5 * (mats[..., 0, 1] + mats[..., 1, 0].conj()))
    t = 0.5 * a + 0.5 * d
    gap = np.hypot(0.5 * a - 0.5 * d, b)
    upper = t + gap
    positive = upper > 0.0
    safe = np.where(positive, upper, 1.0)
    lower = np.where(positive, a * (d / safe) - b * (b / safe), t - gap)
    return np.stack([lower, upper], axis=-1)


def von_neumann_entropies(matrices) -> np.ndarray:
    """Entropies of a stack (..., D, D) of PSD unit-trace matrices.

    Two routes give the spectrum: a stack of 2x2 matrices is solved in
    closed form (``_qubit_eigvalsh``), and any larger D by
    ``linalg.hermitian_eigvalsh``, which splits the stack along the union of
    its matrices' exact zero patterns and makes one ``np.linalg.eigvalsh``
    call per block size above 1; the diagonal marginals of a Bell-diagonal
    root make none. (Pure members of a 2x2 outcome tree take a third
    route, from the determinant of their coefficient matrix, in
    ``protocol._level_stats``, which builds their average marginals from
    their amplitudes and calls this once per tree and side for all levels'
    average marginals.) Every matrix must
    pass the state rule of ``locclab.linalg``; rounding-level negative
    eigenvalues count as zeros.
    """
    mats = np.asarray(matrices, dtype=complex)
    if mats.shape[-1] == 2:
        _require_hermitian(mats)
        values = _qubit_eigvalsh(mats)
    else:
        values = hermitian_eigvalsh(mats)
    _require_no_negative(values)
    return shannon_entropies(np.maximum(values, 0.0))


def purities(matrices) -> np.ndarray:
    """tr(rho^2) of each matrix in a stack (..., D, D)."""
    mats = np.asarray(matrices, dtype=complex)
    return np.einsum("...ij,...ji->...", mats, mats).real


def _sqrt_psd(matrices: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(hermitize(matrices))
    roots = np.sqrt(np.maximum(values, 0.0))
    return (vectors * roots[..., None, :]) @ vectors.swapaxes(-1, -2).conj()


def concurrences(matrices) -> np.ndarray:
    """Wootters concurrence of each two-qubit density matrix in a stack (..., 4, 4).

    Computed from the singular values of sqrt(rho_tilde) sqrt(rho), where
    rho_tilde is the spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x
    sigma_y) in the computational basis.
    """
    rho = np.asarray(matrices, dtype=complex)
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    lam = np.linalg.svd(_sqrt_psd(rho_tilde) @ _sqrt_psd(rho), compute_uv=False)
    lam = -np.sort(-lam, axis=-1)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def _require_measurable(purity, trace, dim_a: int, dim_b: int) -> np.ndarray:
    """Which states of purity tr(rho^2) and trace tr(rho) are pure: the
    state scaled to unit trace, of purity tr(rho^2) / tr(rho)^2, within
    PURITY_TOL of one. ValueError if one is mixed outside 2x2, where it has
    no measure."""
    pure = np.asarray(purity) / np.asarray(trace) ** 2 >= 1.0 - PURITY_TOL
    if not pure.all() and (dim_a, dim_b) != (2, 2):
        raise ValueError(
            f"measure unavailable: mixed state with dims ({dim_a}, {dim_b}); "
            "only pure states or 2x2 mixed states are measurable"
        )
    return pure


def entanglements(matrices, dim_a: int, dim_b: int) -> np.ndarray:
    """Entanglement in bits of each state in a stack (N, D, D) of density matrices.

    The measure follows the state. A state whose purity at unit trace,
    tr(rho^2) / tr(rho)^2, is within PURITY_TOL of one is pure and gets, in
    any dimensions, the entropy of entanglement S(tr_B rho). A mixed
    two-qubit state gets the Wootters entanglement of formation
    h((1 + sqrt(1 - C^2))/2), with C its concurrence. A mixed state of any other dimensions has no measure and
    raises ValueError (``_require_measurable``). ``bound_suite``'s average
    input and output entanglement take their values from here.
    """
    mats = np.asarray(matrices, dtype=complex)
    pure = _require_measurable(purities(mats), np.einsum("...ii->...", mats).real, dim_a, dim_b)
    out = np.zeros(len(mats))
    if pure.any():
        out[pure] = von_neumann_entropies(partial_trace(mats[pure], "A", (dim_a, dim_b)))
    if not pure.all():
        c = concurrences(mats[~pure])
        x = (1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c))) / 2.0
        out[~pure] = shannon_entropies(np.stack([x, 1.0 - x], axis=-1))
    return out


def is_ppt(state: DensityOperator) -> tuple[bool, float]:
    """Positive-partial-transpose test: (flag, smallest PT eigenvalue).

    The partial transpose is solved by ``block_eigvalsh``, block by block
    along its exact zero pattern (for a d x d Bell-diagonal state, d blocks
    of d); a NaN or an infinite entry raises ValueError.
    """
    values = block_eigvalsh(partial_transpose(state.matrix, "B", (state.dim_a, state.dim_b)))
    lowest = float(values[0])
    return lowest >= -DEFAULT_TOL, lowest

