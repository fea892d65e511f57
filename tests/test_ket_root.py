"""Pure members enter the outcome tree as kets, and the root stats give E_in.

A state built by ``pure_state_density`` keeps its ket, and ``_root_level``
takes it as the member's rank-one factor: only matrix members go to
``eigh``. ``bound_suite`` reads the average input entanglement of a
rank-one root from the root's mean member entropy, and rebuilds the
members' states (``_member_entanglement``) only for a root of rank above
one. These tests check that no ket is eigensolved, that a mixed root agrees
with the node-by-node reference engine, and that both E_in routes agree on
pure roots.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locclab import (
    BipartiteEnsemble,
    KrausInstrument,
    SpectralEnsemble,
    audit_rounds,
    bound_suite,
    entropy_summary,
    pure_state_density,
    run_protocol,
    validate_density,
)
from locclab import protocol
from locclab.scenario import random_scenario

from helpers import random_bipartite_density, random_pure_ensemble, random_pure_vector
from test_engine_properties import compare_engines

TOL = 1e-12
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_chooser(seed: int, dims: tuple[int, int]):
    """A random projective basis per history, the acting party alternating from A."""

    def chooser(history):
        party = "AB"[len(history) % 2]
        dim = dims[len(history) % 2]
        rng = np.random.default_rng([seed, len(history), *(int(label) for label in history)])
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return KrausInstrument.projective(party, np.linalg.qr(g)[0].T)

    return chooser


def no_eigh(*args, **kwargs):
    raise AssertionError("eigh called")


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)], ids=["2x2", "2x3", "3x3"])
def test_an_ensemble_of_kets_takes_no_eigh(monkeypatch, dims):
    ensemble = random_pure_ensemble(np.random.default_rng(5), 4, *dims)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    transcript = run_protocol(ensemble, random_chooser(5, dims), 3)
    audit_rounds(transcript)
    entropy_summary(ensemble)
    root = transcript.levels[0]
    assert root.factors.shape[-1] == 1
    for factor, (_, state) in zip(root.factors[0], ensemble.members):
        np.testing.assert_array_equal(factor[:, 0], state.ket)


def test_a_random_scenario_takes_no_eigh_at_the_root(monkeypatch):
    scenario = random_scenario(3, n_members=(4, 4), protocol_depth=(2, 2))
    assert all(state.ket is not None for _, state in scenario.ensemble.members)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    transcript = run_protocol(scenario.ensemble, scenario.chooser, scenario.depth)
    assert transcript.levels[0].factors.shape[-1] == 1


@pytest.mark.parametrize("seed", range(4))
def test_a_ket_beside_a_matrix_member_hands_eigh_only_the_matrix(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0][:, :2]
    rank_two = validate_density((basis * [0.7, 0.3]) @ basis.conj().T, 2, 2)
    ket = pure_state_density(random_pure_vector(rng, 4), 2, 2)
    ensemble = BipartiteEnsemble(((0.4, ket), (0.6, rank_two)))
    solved = []
    original = np.linalg.eigh

    def recording(matrices, *args, **kwargs):
        solved.append(np.array(matrices))
        return original(matrices, *args, **kwargs)

    chooser = random_chooser(seed, (2, 2))
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", recording)
        transcript = run_protocol(ensemble, chooser, 2)
    assert len(solved) == 1
    np.testing.assert_array_equal(solved[0], rank_two.matrix[None])
    root = transcript.levels[0]
    assert root.factors.shape[1:] == (2, 4, 2)
    np.testing.assert_array_equal(root.factors[0, 0, :, 0], ket.ket)
    assert not root.factors[0, 0, :, 1].any()

    compare_engines(ensemble, chooser, 2)


def pure_root(rng, dims: tuple[int, int], n_members: int, zero_weight: bool, spectral: bool):
    """A rank-one root: a random state's eigen-ensemble, or an ensemble of
    kets, one of weight zero if asked."""
    if spectral:
        return SpectralEnsemble(random_bipartite_density(rng, *dims))
    ensemble = random_pure_ensemble(rng, n_members, *dims)
    if not zero_weight or n_members == 1:
        return ensemble
    weights = ensemble.probabilities()
    weights[int(rng.integers(n_members))] = 0.0
    weights /= weights.sum()
    return BipartiteEnsemble(tuple(zip(weights.tolist(), (state for _, state in ensemble.members))))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    seed=seeds,
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
    n_members=st.integers(1, 5),
    depth=st.integers(2, 3),
    zero_weight=st.booleans(),
    spectral=st.booleans(),
)
def test_e_in_of_a_rank_one_root_is_its_members_entanglement(seed, dims, n_members, depth, zero_weight, spectral):
    # A pure member's entanglement is its marginal entropy, so the root's
    # mean member entropy is E_in. Rank-one measurements on A, then on B,
    # leave every leaf member a pure product state, so each leaf average
    # is measurable in any dims, and the leaves' member entropies are 0.
    rng = np.random.default_rng(seed)
    ensemble = pure_root(rng, dims, n_members, zero_weight, spectral)
    transcript = run_protocol(ensemble, random_chooser(seed, dims), depth)
    assert transcript.levels[0].factors.shape[-1] == 1
    e_in = bound_suite(transcript).e_in_avg
    assert abs(e_in - protocol._member_entanglement(transcript.levels[0], dims)) <= TOL
