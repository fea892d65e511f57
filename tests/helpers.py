"""Shared state constructors and independent oracles for the tests."""

import numpy as np

from locclab import (
    BipartiteEnsemble,
    DensityOperator,
    KrausInstrument,
    SpectralEnsemble,
    pure_state_density,
    validate_density,
)
from locclab.protocol import ProtocolStep

INV_SQRT2 = 2 ** -0.5

PHI_PLUS = np.array([INV_SQRT2, 0.0, 0.0, INV_SQRT2], dtype=complex)
PHI_MINUS = np.array([INV_SQRT2, 0.0, 0.0, -INV_SQRT2], dtype=complex)
PSI_PLUS = np.array([0.0, INV_SQRT2, INV_SQRT2, 0.0], dtype=complex)
PSI_MINUS = np.array([0.0, INV_SQRT2, -INV_SQRT2, 0.0], dtype=complex)

KET_PLUS = np.array([INV_SQRT2, INV_SQRT2], dtype=complex)
KET_MINUS = np.array([INV_SQRT2, -INV_SQRT2], dtype=complex)
X_BASIS = np.vstack([KET_PLUS, KET_MINUS])
Z_BASIS = np.eye(2, dtype=complex)


def bell(vector) -> DensityOperator:
    return pure_state_density(vector, 2, 2)


def random_pure_vector(rng, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_density(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_bipartite_density(rng, dim_a: int, dim_b: int) -> DensityOperator:
    return validate_density(random_density(rng, dim_a * dim_b), dim_a, dim_b)


def random_pure_ensemble(rng, n_members: int, dim_a: int = 2, dim_b: int = 2) -> BipartiteEnsemble:
    probs = rng.dirichlet(np.ones(n_members))
    members = tuple(
        (float(p), pure_state_density(random_pure_vector(rng, dim_a * dim_b), dim_a, dim_b))
        for p in probs
    )
    return BipartiteEnsemble(members)


def random_hermitian(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def shannon_oracle(probs) -> float:
    """Direct -sum p log2 p, independent of the package implementation."""
    return float(-sum(p * np.log2(p) for p in probs if p > 1e-12))


def pure_entanglement_oracle(vector, dim_a: int = 2, dim_b: int = 2) -> float:
    """Entropy of entanglement from Schmidt coefficients via SVD."""
    s = np.linalg.svd(np.asarray(vector).reshape(dim_a, dim_b), compute_uv=False)
    return shannon_oracle(s ** 2)


def von_neumann_oracle(matrix) -> float:
    """S(rho) from ``np.linalg.eigvalsh`` called directly."""
    return shannon_oracle(np.linalg.eigvalsh(np.asarray(matrix, dtype=complex)))


def partial_trace_oracle(matrix, keep: str, dim_a: int, dim_b: int) -> np.ndarray:
    """The marginal on side ``keep`` by an explicit ``einsum``."""
    tensor = np.asarray(matrix, dtype=complex).reshape(dim_a, dim_b, dim_a, dim_b)
    return np.einsum("ijkj->ik" if keep == "A" else "ijil->jl", tensor)


def holevo_oracle(members) -> float:
    """S(sum_x p_x rho_x) - sum_x p_x S(rho_x) over (p_x, rho_x) pairs of matrices."""
    members = [(p, np.asarray(rho, dtype=complex)) for p, rho in members]
    average = sum(p * rho for p, rho in members)
    return von_neumann_oracle(average) - sum(p * von_neumann_oracle(rho) for p, rho in members if p > 0.0)


def entanglement_oracle(matrix, dim_a: int, dim_b: int) -> float:
    """Entanglement of a density matrix with the measure its purity fixes.

    A pure state (purity at unit trace, tr rho^2 / (tr rho)^2, within 1e-9
    of one) gets the entropy of entanglement S(tr_B rho), from an explicit
    ``einsum`` partial trace and ``np.linalg.eigvalsh``; the marginal, not
    the leading eigenvector, so that a state pure only within 1e-9 is
    measured as given (a ket's Schmidt coefficients are
    ``pure_entanglement_oracle``). A mixed 2x2
    state gets Wootters' entanglement of formation, with the concurrence
    from the eigenvalues of rho rho_tilde (Wootters, PRL 80, 2245, 1998).
    They are taken on the range P of rho (singular values above 1e-14), as
    the eigenvalues of (P^dagger rho P)(P^dagger rho_tilde P): a
    rank-deficient state's zero eigenvalues are then exact zeros, not
    rounding noise of 1e-17 whose square roots would move C by 1e-9. Any
    other mixed state raises ValueError("measure unavailable ...").
    """
    rho = np.asarray(matrix, dtype=complex)
    if np.trace(rho @ rho).real / np.trace(rho).real ** 2 >= 1.0 - 1e-9:
        return von_neumann_oracle(partial_trace_oracle(rho, "A", dim_a, dim_b))
    if (dim_a, dim_b) != (2, 2):
        raise ValueError(f"measure unavailable: mixed state with dims ({dim_a}, {dim_b})")
    flip = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    u, singular, _ = np.linalg.svd(rho)
    on_range = u[:, singular > 1e-14]
    rho_on_range = on_range.conj().T @ rho @ on_range
    flipped_on_range = on_range.conj().T @ flip @ rho.conj() @ flip @ on_range
    values = np.linalg.eigvals(rho_on_range @ flipped_on_range).real
    roots = np.sort(np.concatenate([np.sqrt(np.maximum(values, 0.0)), np.zeros(4 - len(values))]))[::-1]
    c = max(0.0, roots[0] - roots[1] - roots[2] - roots[3])
    x = (1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0
    return shannon_oracle([x, 1.0 - x])


def bell_vectors(d: int) -> list[np.ndarray]:
    """The d^2 generalized Bell kets (I (x) Z^a X^b)|Phi_d>, k = a*d + b,
    from ``np.kron`` of powers of the clock Z and the shift X."""
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    phi = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    return [
        np.kron(np.eye(d), np.linalg.matrix_power(clock, a) @ np.linalg.matrix_power(shift, b)) @ phi
        for a in range(d)
        for b in range(d)
    ]


def distillation_oracle(rho: DensityOperator) -> dict[str, float | None]:
    """Every entropy field and both bounds of ``distillation_report`` by other routes.

    S from ``np.linalg.eigvalsh`` of rho, S_A and S_B from explicit
    ``einsum`` partial traces, and the mean local entropy from the Schmidt
    coefficients (SVD) of each ``SpectralEnsemble`` ket.
    """
    dim_a, dim_b = rho.dim_a, rho.dim_b
    entropy = von_neumann_oracle(rho.matrix)
    entropy_a = von_neumann_oracle(partial_trace_oracle(rho.matrix, "A", dim_a, dim_b))
    entropy_b = von_neumann_oracle(partial_trace_oracle(rho.matrix, "B", dim_a, dim_b))
    se = SpectralEnsemble(rho)
    mean_local = sum(w * pure_entanglement_oracle(v, dim_a, dim_b) for w, v in zip(se.weights.tolist(), se.kets))
    denominator = entropy + mean_local
    if denominator < 1e-12:  # pure product: the partial constraint is vacuous
        r_max = partial = None
    else:
        r_max = (entropy_a + entropy_b - mean_local) / denominator
        partial = r_max * mean_local
    return {
        "entropy": entropy,
        "entropy_a": entropy_a,
        "entropy_b": entropy_b,
        "mean_local_entropy": mean_local,
        "full_distinguish_bound": entropy_a + entropy_b - entropy - mean_local,
        "partial_distinguish_bound": partial,
        "max_keep_fraction": r_max,
    }


def entropy_summary_oracle(ensemble: BipartiteEnsemble) -> dict[str, float]:
    """Every field of ``entropy_summary`` by other routes.

    The average state is the numpy sum of p * rho over the member matrices,
    hermitized as (M + M^dagger) / 2 with numpy. S comes from
    ``np.linalg.eigvalsh`` of it, S_A and S_B from explicit ``einsum``
    partial traces of it, and the Holevo quantity from ``holevo_oracle``
    over the member matrices; no tree level, no factors and no ``locclab``
    entropy function or method.
    """
    dim_a, dim_b = ensemble.dim_a, ensemble.dim_b
    total = sum(p * np.asarray(state.matrix, dtype=complex) for p, state in ensemble.members)
    average = (total + total.conj().T) / 2
    return {
        "entropy_average": von_neumann_oracle(average),
        "entropy_a": von_neumann_oracle(partial_trace_oracle(average, "A", dim_a, dim_b)),
        "entropy_b": von_neumann_oracle(partial_trace_oracle(average, "B", dim_a, dim_b)),
        "holevo": holevo_oracle((p, state.matrix) for p, state in ensemble.members),
    }


def marginal_entropy_oracle(ensemble: BipartiteEnsemble) -> dict[str, float]:
    """Per side, sum_x p_x S(rho_x^side) from explicit ``einsum`` partial traces."""
    dim_a, dim_b = ensemble.dim_a, ensemble.dim_b
    return {
        side: sum(
            p * von_neumann_oracle(partial_trace_oracle(state.matrix, side, dim_a, dim_b))
            for p, state in ensemble.members
        )
        for side in "AB"
    }


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    # Unlike array_equal, tells -0.0 from 0.0.
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def assert_same_step(new: ProtocolStep, old: ProtocolStep) -> None:
    """Two steps hold the same rows: party, histories and labels, and the
    bits of ``ops`` and of each row's ``kets`` (None on both for Kraus).
    Rows are matched by history, so the overrides may come in any order."""
    assert new.party == old.party
    assert sorted(new.histories) == sorted(old.histories)
    assert new.ops.shape == old.ops.shape
    for row, ref in [(0, 0), *((new.row_of(history), r) for r, history in enumerate(old.histories, 1))]:
        assert new.labels[row] == old.labels[ref]
        assert_same_bits(new.ops[row], old.ops[ref])
        assert (new.kets[row] is None) == (old.kets[ref] is None)
        if old.kets[ref] is not None:
            assert_same_bits(new.kets[row], old.kets[ref])


def row_instruments(step: ProtocolStep) -> tuple[KrausInstrument | None, dict]:
    """A step's default (None if it has none) and its history -> override
    mapping in row order, each row rebuilt by the public constructors."""

    def rebuilt(row: int) -> KrausInstrument:
        labels = step.labels[row]
        if step.kets[row] is not None:
            return KrausInstrument.projective(step.party, step.kets[row], labels)
        return KrausInstrument(party=step.party, outcomes=tuple(zip(labels, step.ops[row, : len(labels)])))

    default = rebuilt(0) if step.labels[0] else None
    return default, {history: rebuilt(row) for row, history in enumerate(step.histories, 1)}


def flat_mutual_information(transcript) -> float:
    """I(X; record) from the flattened joint distribution over leaves.

    Independent of the tree-entropy route used by chain_mutual_information.
    """
    joint: dict[tuple[int, tuple[str, ...]], float] = {}
    for leaf in transcript.leaves():
        for x, (q, _) in enumerate(leaf.ensemble.members):
            p = leaf.probability * q
            if p > 0.0:
                joint[(x, leaf.path)] = joint.get((x, leaf.path), 0.0) + p
    px: dict[int, float] = {}
    py: dict[tuple[str, ...], float] = {}
    for (x, y), p in joint.items():
        px[x] = px.get(x, 0.0) + p
        py[y] = py.get(y, 0.0) + p
    return float(sum(p * np.log2(p / (px[x] * py[y])) for (x, y), p in joint.items()))


def json_mismatches(actual, expected, tol: float, path: str = "$") -> list[str]:
    """Differences between two JSON values; floats compare within ``tol``."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if actual is expected else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or not isinstance(expected, (int, float)):
            return [f"{path}: {actual!r} != {expected!r}"]
        if np.isfinite(expected) and np.isfinite(actual):
            return [] if abs(actual - expected) <= tol else [f"{path}: {actual!r} differs from {expected!r}"]
        return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected for m in json_mismatches(actual[k], expected[k], tol, f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [
            m
            for i, (a, e) in enumerate(zip(actual, expected))
            for m in json_mismatches(a, e, tol, f"{path}[{i}]")
        ]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]
