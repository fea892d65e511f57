"""Entropies, Holevo quantities, and bipartite entanglement measures.

All logarithms are base 2; every quantity is in bits. Eigenvalues below
ZERO_EIGENVALUE are treated as exact zeros inside entropy sums so that
rounding noise never produces -inf terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DensityOperator,
    hermitize,
    partial_trace,
    partial_transpose,
)

ZERO_EIGENVALUE = 1e-12
PURITY_TOL = 1e-9

MEASURE_PURE = "entropy_of_entanglement"
MEASURE_EOF = "eof_two_qubit"
MEASURE_AUTO = "auto"
MEASURES = (MEASURE_PURE, MEASURE_EOF, MEASURE_AUTO)

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


@dataclass(frozen=True)
class BipartiteEnsemble:
    """Weighted list of bipartite states sharing the same dimensions.

    Probabilities must be nonnegative and sum to one within 1e-9; members
    with probability zero are allowed (they arise as impossible hypotheses
    in post-measurement ensembles).
    """

    members: tuple[tuple[float, DensityOperator], ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        members = tuple((float(p), state) for p, state in self.members)
        dim_a, dim_b = members[0][1].dim_a, members[0][1].dim_b
        total = 0.0
        for i, (p, state) in enumerate(members):
            if p < -1e-12:
                raise ValueError(f"member {i}: negative probability {p}")
            if (state.dim_a, state.dim_b) != (dim_a, dim_b):
                raise ValueError(
                    f"member {i}: dims ({state.dim_a}, {state.dim_b}) differ from ({dim_a}, {dim_b})"
                )
            total += p
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
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

    def marginal_members(self, side: str) -> list[tuple[float, np.ndarray]]:
        """Members reduced to one side, keeping the same weights."""
        return [(p, state.marginal(side)) for p, state in self.members]


def shannon_entropies(probabilities, tol: float = DEFAULT_TOL) -> np.ndarray:
    """-sum p log2 p over the last axis of a stack of probability vectors.

    Every row must be nonnegative within ``tol`` and sum to one within
    ``tol``; 0 log 0 := 0, with entries below ZERO_EIGENVALUE counted as
    zeros.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.size and p.min() < -tol:
        raise ValueError(f"negative probability {p.min():.3e}")
    total = p.sum(axis=-1)
    deviation = np.abs(total - 1.0)
    if not deviation.max(initial=0.0) <= tol:
        raise ValueError(f"probabilities sum to {float(np.extract(~(deviation <= tol), total)[0])!r}, not 1")
    return -(p * np.log2(np.where(p > ZERO_EIGENVALUE, p, 1.0))).sum(axis=-1)


def shannon_entropy(probabilities, tol: float = DEFAULT_TOL) -> float:
    """-sum p log2 p over a probability vector, with 0 log 0 := 0."""
    return float(shannon_entropies(np.asarray(probabilities, dtype=float).reshape(-1), tol))


def von_neumann_entropies(matrices, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Entropies of a stack (..., D, D) of PSD unit-trace matrices.

    One ``eigvalsh`` call covers the stack. Each matrix must be Hermitian
    within ``tol`` and have no eigenvalue below -tol; rounding-level
    negative eigenvalues count as zeros.
    """
    mats = np.asarray(matrices, dtype=complex)
    herm_dev = np.abs(mats - mats.swapaxes(-1, -2).conj())
    if not herm_dev.max(initial=0.0) <= tol:
        worst = herm_dev.max(axis=(-2, -1))
        raise ValueError(f"not Hermitian: deviation {np.extract(~(worst <= tol), worst)[0]:.3e}")
    values = np.linalg.eigvalsh(hermitize(mats))
    if not values.min(initial=0.0) >= -tol:
        lowest = values[..., 0]
        raise ValueError(f"negative eigenvalue {np.extract(~(lowest >= -tol), lowest)[0]:.3e}")
    return shannon_entropies(np.maximum(values, 0.0), tol=tol)


def von_neumann_entropy(state, tol: float = DEFAULT_TOL) -> float:
    """Entropy of a density matrix (DensityOperator or PSD unit-trace array)."""
    mat = state.matrix if isinstance(state, DensityOperator) else state
    return float(von_neumann_entropies(mat, tol))


def purities(matrices) -> np.ndarray:
    """tr(rho^2) of each matrix in a stack (..., D, D)."""
    mats = np.asarray(matrices, dtype=complex)
    return np.einsum("...ij,...ji->...", mats, mats).real


def purity(state) -> float:
    """tr(rho^2); equals 1 exactly for pure states."""
    return float(purities(state.matrix if isinstance(state, DensityOperator) else state))


def _member_pairs(ensemble) -> list[tuple[float, np.ndarray]]:
    if isinstance(ensemble, BipartiteEnsemble):
        return [(p, state.matrix) for p, state in ensemble.members]
    pairs = []
    for p, state in ensemble:
        mat = state.matrix if isinstance(state, DensityOperator) else np.asarray(state, dtype=complex)
        pairs.append((float(p), mat))
    return pairs


def holevo_chi(ensemble, tol: float = DEFAULT_TOL) -> float:
    """Holevo quantity S(average) - sum_x p_x S(rho_x) of an ensemble.

    Accepts a BipartiteEnsemble or any iterable of (probability, state)
    pairs, e.g. single-party marginal ensembles.
    """
    pairs = _member_pairs(ensemble)
    if not pairs:
        raise ValueError("ensemble needs at least one member")
    total = sum(p for p, _ in pairs)
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    average = sum(p * mat for p, mat in pairs if p > 0.0)
    mean_member = sum(p * von_neumann_entropy(mat, tol) for p, mat in pairs if p > 0.0)
    return von_neumann_entropy(hermitize(average), tol) - mean_member


def _sqrt_psd(matrices: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(hermitize(matrices))
    roots = np.sqrt(np.maximum(values, 0.0))
    return (vectors * roots[..., None, :]) @ vectors.swapaxes(-1, -2).conj()


def concurrences(matrices) -> np.ndarray:
    """Wootters concurrence of each two-qubit density matrix in a stack (..., 4, 4)."""
    rho = np.asarray(matrices, dtype=complex)
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    lam = np.linalg.svd(_sqrt_psd(rho_tilde) @ _sqrt_psd(rho), compute_uv=False)
    lam = -np.sort(-lam, axis=-1)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def concurrence(state: DensityOperator) -> float:
    """Wootters concurrence of a two-qubit state.

    Computed from the singular values of sqrt(rho_tilde) sqrt(rho), where
    rho_tilde is the spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x
    sigma_y) in the computational basis.
    """
    if (state.dim_a, state.dim_b) != (2, 2):
        raise ValueError(f"concurrence needs a 2x2 bipartite state, got ({state.dim_a}, {state.dim_b})")
    return float(concurrences(state.matrix))


def _binary_entropies(x: np.ndarray) -> np.ndarray:
    inside = (x > ZERO_EIGENVALUE) & (x < 1.0 - ZERO_EIGENVALUE)
    safe = np.where(inside, x, 0.5)
    return np.where(inside, -safe * np.log2(safe) - (1.0 - safe) * np.log2(1.0 - safe), 0.0)


def _measure_kinds(purity_values: np.ndarray, dims: tuple[int, int], selector: str) -> np.ndarray:
    """Measure per state of a stack; "auto" resolves as in resolve_measure."""
    if selector not in MEASURES:
        raise ValueError(f"unknown measure selector {selector!r}; expected one of {MEASURES}")
    if selector != MEASURE_AUTO:
        return np.full(purity_values.shape, selector, dtype=object)
    pure = purity_values >= 1.0 - PURITY_TOL
    if not pure.all() and dims != (2, 2):
        raise ValueError(
            f"measure unavailable: mixed state with dims ({dims[0]}, {dims[1]}); "
            "only pure states or 2x2 mixed states are measurable"
        )
    return np.where(pure, MEASURE_PURE, MEASURE_EOF).astype(object)


def resolve_measure(state: DensityOperator, selector: str) -> str:
    """Resolve an "auto" selector against a concrete state.

    Pure states (purity within PURITY_TOL of one) use the entropy of
    entanglement; mixed two-qubit states use the Wootters formula; anything
    else has no measure available.
    """
    if selector in MEASURES and selector != MEASURE_AUTO:
        return selector
    return str(_measure_kinds(np.array([purity(state)]), (state.dim_a, state.dim_b), selector)[0])


def entanglements(matrices, dim_a: int, dim_b: int, selector: str = MEASURE_AUTO) -> np.ndarray:
    """Entanglement in bits of each state in a stack (N, D, D) of density matrices.

    Pure states of any dimensions get the entropy of entanglement
    S(tr_B rho); mixed two-qubit states get the Wootters entanglement of
    formation h((1 + sqrt(1 - C^2))/2). ``selector`` applies to every
    state; "auto" resolves per state.
    """
    mats = np.asarray(matrices, dtype=complex)
    purity_values = purities(mats)
    kinds = _measure_kinds(purity_values, (dim_a, dim_b), selector)
    out = np.zeros(len(mats))
    pure = kinds == MEASURE_PURE
    if pure.any():
        low = purity_values[pure] < 1.0 - PURITY_TOL
        if low.any():
            raise ValueError(
                f"measure unavailable: purity {purity_values[pure][low][0]:.6f} too low for the pure-state measure"
            )
        out[pure] = von_neumann_entropies(partial_trace(mats[pure], "A", (dim_a, dim_b)))
    if not pure.all():
        if (dim_a, dim_b) != (2, 2):
            raise ValueError(f"concurrence needs a 2x2 bipartite state, got ({dim_a}, {dim_b})")
        c = concurrences(mats[~pure])
        out[~pure] = _binary_entropies((1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c))) / 2.0)
    return out


def entanglement(state: DensityOperator, selector: str = MEASURE_AUTO) -> float:
    """Entanglement of a bipartite state in bits (one-state case of ``entanglements``)."""
    return float(entanglements(state.matrix[None], state.dim_a, state.dim_b, selector)[0])


def is_ppt(state: DensityOperator, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Positive-partial-transpose test: (flag, smallest PT eigenvalue)."""
    values = np.linalg.eigvalsh(hermitize(partial_transpose(state, "B")))
    lowest = float(values[0])
    return lowest >= -tol, lowest


def entropy_summary(ensemble, tol: float = DEFAULT_TOL) -> dict[str, float]:
    """S, S_A, S_B of the average state plus the global Holevo quantity."""
    if not isinstance(ensemble, BipartiteEnsemble):
        raise ValueError("entropy_summary needs a BipartiteEnsemble")
    average = ensemble.average_matrix()
    dims = (ensemble.dim_a, ensemble.dim_b)
    return {
        "entropy_average": von_neumann_entropy(average, tol),
        "entropy_a": von_neumann_entropy(partial_trace(average, "A", dims), tol),
        "entropy_b": von_neumann_entropy(partial_trace(average, "B", dims), tol),
        "holevo": holevo_chi(ensemble, tol),
    }
