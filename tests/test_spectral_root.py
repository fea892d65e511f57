"""A state's spectral ensemble enters the outcome tree as kets.

``run_protocol`` (one round or several) and ``entropy_summary`` take a
``SpectralEnsemble`` as they take a ``BipartiteEnsemble``: its kets become
the root's rank-one factors with no eigensolve. These tests check that
every report field agrees with the dense ensemble of the same kets within
1e-12, check ``entropy_summary`` against an oracle that shares none of its
route, and record the shapes solved for a mixed d = 8 Bell-diagonal
scenario: no d^2 x d^2 matrix per member. ``entropy_summary`` of a
spectral ensemble solves no d^2 x d^2 matrix at all: S is the entropy of
its weights.
"""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locclab import (
    BellDiagonalSpec,
    BipartiteEnsemble,
    KrausInstrument,
    SpectralEnsemble,
    audit_rounds,
    bell_diagonal,
    bound_suite,
    cli,
    entropy_summary,
    pure_state_density,
    run_protocol,
)

from helpers import entropy_summary_oracle, random_bipartite_density, random_pure_vector

TOL = 1e-12
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def bell_state(kind: str, rng):
    """A 2x2 Bell-diagonal state: Dirichlet weights, or isotropic (one cluster of three)."""
    if kind == "generic":
        probs = rng.dirichlet(np.ones(4)).tolist()
    else:
        fidelity = float(rng.uniform(0.05, 0.95))
        probs = [fidelity] + [(1.0 - fidelity) / 3] * 3
    return bell_diagonal(BellDiagonalSpec(2, tuple(probs)))


def dense(se) -> BipartiteEnsemble:
    """The spectral ensemble's kets as dense pure-state densities."""
    return BipartiteEnsemble(
        tuple((w, pure_state_density(v, se.dim_a, se.dim_b)) for w, v in zip(se.weights.tolist(), se.kets))
    )


def projective_chooser(seed: int, parties: str):
    """Adaptive chooser: a random basis, drawn from the history, on the round's party."""

    def chooser(history):
        rng = np.random.default_rng([seed, len(history), *(int(label) for label in history)])
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return KrausInstrument.projective(parties[len(history)], np.linalg.qr(g)[0].T)

    return chooser


def assert_fields_agree(new, old, where: str):
    for field in dataclasses.fields(old):
        a, e = getattr(new, field.name), getattr(old, field.name)
        if isinstance(e, float):
            assert abs(a - e) <= TOL, (where, field.name, a, e)
        elif isinstance(e, dict):
            assert list(a) == list(e), (where, field.name, list(a), list(e))
            for key, value in e.items():
                if value is None:
                    assert a[key] is None, (where, field.name, key, a[key])
                else:
                    assert abs(a[key] - value) <= TOL, (where, field.name, key, a[key], value)
        elif isinstance(e, tuple):
            np.testing.assert_allclose(a, e, rtol=0, atol=TOL, err_msg=f"{where}.{field.name}")
        else:
            assert a == e, (where, field.name, a, e)


def assert_summaries_agree(new: dict, old: dict):
    assert new.keys() == old.keys()
    for key in old:
        assert abs(new[key] - old[key]) <= TOL, (key, new[key], old[key])


@PROPERTY
@given(seed=seeds, depth=st.integers(1, 3), kind=st.sampled_from(["generic", "isotropic"]))
def test_spectral_and_dense_ensembles_give_the_same_tree(seed, depth, kind):
    rng = np.random.default_rng(seed)
    se = SpectralEnsemble(bell_state(kind, rng))
    parties = "".join(rng.choice(["A", "B"], size=depth))
    chooser = projective_chooser(seed, parties)
    new, old = run_protocol(se, chooser, depth), run_protocol(dense(se), chooser, depth)

    assert new.round_parties == old.round_parties
    assert new.levels[-1].paths == old.levels[-1].paths
    np.testing.assert_allclose(new.levels[-1].prob, old.levels[-1].prob, rtol=0, atol=TOL)
    np.testing.assert_allclose(new.levels[-1].q, old.levels[-1].q, rtol=0, atol=TOL)
    assert_fields_agree(bound_suite(new), bound_suite(old), "bound_suite")
    for a, e in zip(audit_rounds(new), audit_rounds(old), strict=True):
        assert_fields_agree(a, e, f"round {e.round}")
    assert_summaries_agree(entropy_summary(se), entropy_summary(dense(se)))
    assert_summaries_agree(entropy_summary(se), entropy_summary_oracle(dense(se)))
    # The root node's ensemble is rebuilt from the kets.
    for (p, state), (q, expected) in zip(new.root.ensemble.members, dense(se).members, strict=True):
        assert p == q
        np.testing.assert_allclose(state.matrix, expected.matrix, rtol=0, atol=TOL)


@pytest.mark.parametrize("kind", ["generic", "isotropic"])
def test_measure_branch_takes_a_spectral_ensemble(kind):
    se = SpectralEnsemble(bell_state(kind, np.random.default_rng(3)))
    instrument = projective_chooser(3, "B")(())
    new, old = (run_protocol(ensemble, {(): instrument}, 1).leaves() for ensemble in (se, dense(se)))
    for leaf, leaf_old in zip(new, old, strict=True):
        assert leaf.path == leaf_old.path and abs(leaf.probability - leaf_old.probability) <= TOL
        np.testing.assert_allclose(leaf.ensemble.probabilities(), leaf_old.ensemble.probabilities(), rtol=0, atol=TOL)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    seed=seeds,
    n_members=st.integers(1, 4),
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    zero_weight=st.booleans(),
)
def test_entropy_summary_matches_oracle_on_mixed_ensembles(seed, n_members, dims, zero_weight):
    # Mixed members of full rank next to one pure member, so the factors
    # are padded; a member of weight zero must not count.
    rng = np.random.default_rng(seed)
    states = [random_bipartite_density(rng, *dims) for _ in range(n_members)]
    states.append(pure_state_density(random_pure_vector(rng, dims[0] * dims[1]), *dims))
    weights = rng.dirichlet(np.ones(len(states))).tolist()
    if zero_weight:
        weights[int(rng.integers(len(weights)))] = 0.0
        weights = (np.array(weights) / sum(weights)).tolist()
    ensemble = BipartiteEnsemble(tuple(zip(weights, states)))
    assert_summaries_agree(entropy_summary(ensemble), entropy_summary_oracle(ensemble))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=seeds, dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), kind=st.sampled_from(["bell", "random"]))
def test_entropy_summary_reads_a_spectral_ensemble_off_its_weights(seed, dims, kind):
    # S is H(weights) and equals the Holevo quantity: no D x D solve.
    rng = np.random.default_rng(seed)
    if kind == "bell":
        d = dims[0]
        probs = rng.dirichlet(np.ones(d * d))
        probs[rng.random(d * d) < 0.3] = 0.0
        if probs.sum() == 0.0:
            probs[0] = 1.0
        dims = (d, d)
        rho = bell_diagonal(BellDiagonalSpec(d, tuple((probs / probs.sum()).tolist())))
    else:
        rho = random_bipartite_density(rng, *dims)
    se = SpectralEnsemble(rho)
    shapes = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _original=original, **kwargs):
                shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)

            patch.setattr(np.linalg, name, recording)
        summary = entropy_summary(se)
    assert not [shape for shape in shapes if shape[-1] == dims[0] * dims[1]]
    assert_summaries_agree(summary, entropy_summary_oracle(dense(se)))
    assert summary["holevo"] == summary["entropy_average"]


def test_entropy_summary_names_both_ensemble_kinds():
    with pytest.raises(ValueError, match="needs a BipartiteEnsemble or a SpectralEnsemble"):
        entropy_summary([(1.0, np.eye(4) / 4)])


@pytest.mark.parametrize("command, most", [("entropy", 1), ("protocol-run", 0)])
def test_mixed_d8_bell_scenario_solves_no_member_sized_matrix(monkeypatch, tmp_path, command, most):
    # `entropy` solves the average state once; `protocol-run` solves nothing
    # of size d^2: the kets enter the tree as factors.
    d = 8
    probs = np.random.default_rng(8).dirichlet(np.ones(d * d)).tolist()
    path = tmp_path / "bell8.json"
    path.write_text(
        json.dumps({"schema": "locclab/scenario-v1", "kind": "bell_diagonal", "name": "bell8", "bell": {"d": d, "probs": probs}})
    )
    shapes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([command, str(path), "--format", "json"]) == 0
    assert json.loads(out.getvalue())["command"] == command
    assert shapes
    assert sum(int(np.prod(shape[:-2])) for shape in shapes if shape[-1] == d * d) <= most
