"""Shared state constructors and independent oracles for the tests."""

import numpy as np

from locclab import BipartiteEnsemble, DensityOperator, pure_state_density, validate_density

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
