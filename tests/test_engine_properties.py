"""Property tests: the level-array engine against the node-by-node reference.

Every ``BoundReport`` and ``RoundAudit`` field, every transcript node and
every branch of a one-round run (the reference's ``measure_branch``) must
agree within 1e-12, and both engines
must raise the same errors. The inputs cover what the random scenario
generator does not: mixed members, general Kraus instruments with uneven
outcome counts within one level, non-2x2 dimensions, pruned outcomes and
members of unequal rank.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_engine as ref
from locclab import (
    BipartiteEnsemble,
    KrausInstrument,
    audit_rounds,
    bound_suite,
    pure_state_density,
    run_protocol,
    validate_density,
)
from locclab import protocol

from helpers import random_bipartite_density, random_pure_vector

TOL = 1e-12
PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_kraus(rng, dim: int, outcomes: int) -> list[np.ndarray]:
    """General (non-projective) Kraus set: G_k S^(-1/2) with S = sum G_k^dagger G_k."""
    ops = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(outcomes)]
    values, vectors = np.linalg.eigh(sum(g.conj().T @ g for g in ops))
    inv_root = (vectors / np.sqrt(values)) @ vectors.conj().T
    return [g @ inv_root for g in ops]


def rank_one_kraus(rng, dim: int) -> list[np.ndarray]:
    """Projective measurement in a random basis; keeps pure members pure."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    basis, _ = np.linalg.qr(g)
    return [np.outer(basis[:, i], basis[:, i].conj()) for i in range(dim)]


def make_chooser(seed: int, dims, parties, kind: str, zero_outcome: bool = False, outcome_count=None):
    """Adaptive chooser whose instrument depends on the history alone.

    ``outcome_count(history)`` fixes the number of Kraus operators of a
    general instrument; by default it is drawn from 1 to 3.
    """

    def chooser(history):
        level = len(history)
        rng = np.random.default_rng([seed, level, *(int(label) for label in history)])
        party = parties[level]
        dim = dims[0] if party == "A" else dims[1]
        if kind == "projective":
            ops = rank_one_kraus(rng, dim)
        else:
            count = outcome_count(history) if outcome_count else int(rng.integers(1, 4))
            ops = random_kraus(rng, dim, count)
        if zero_outcome:
            # A zero operator never fires, so its outcome is always pruned.
            ops.insert(int(rng.integers(len(ops) + 1)), np.zeros((dim, dim)))
        return KrausInstrument(party=party, outcomes=tuple((str(i), op) for i, op in enumerate(ops)))

    return chooser


def one_round(ensemble, instrument):
    """The level engine's one-node case: a depth-1 run from the root."""
    return run_protocol(ensemble, {(): instrument}, 1)


def mixed_ensemble(rng, n_members: int, dims) -> BipartiteEnsemble:
    probs = rng.dirichlet(np.ones(n_members))
    return BipartiteEnsemble(tuple((float(p), random_bipartite_density(rng, *dims)) for p in probs))


def pure_ensemble(rng, n_members: int, dims) -> BipartiteEnsemble:
    probs = rng.dirichlet(np.ones(n_members))
    return BipartiteEnsemble(
        tuple(
            (float(p), pure_state_density(random_pure_vector(rng, dims[0] * dims[1]), *dims))
            for p in probs
        )
    )


def unequal_rank_ensemble(rng, dims, k: int) -> BipartiteEnsemble:
    """A pure member, a rank-2 member with eigenvalues 1 - 10^-k and 10^-k,
    and a full-rank member, in random order of weight."""
    dim = dims[0] * dims[1]
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    basis = np.linalg.qr(g)[0][:, :2]
    small = 10.0**-k
    rank_two = (basis * [1.0 - small, small]) @ basis.conj().T
    members = (
        pure_state_density(random_pure_vector(rng, dim), *dims),
        validate_density(rank_two, *dims),
        random_bipartite_density(rng, *dims),
    )
    return BipartiteEnsemble(tuple(zip(rng.dirichlet(np.ones(3)).tolist(), members)))


def assert_close(actual, expected, where: str):
    if isinstance(expected, dict):
        assert list(actual) == list(expected), (where, list(actual), list(expected))
        for key, e in expected.items():
            assert_close(actual[key], e, f"{where}[{key!r}]")
    elif isinstance(expected, (tuple, list)):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert abs(actual - expected) <= TOL, (where, actual, expected)
    else:
        assert actual == expected, (where, actual, expected)


def assert_reports_agree(new, old):
    for field in dataclasses.fields(old):
        assert_close(getattr(new, field.name), getattr(old, field.name), field.name)


def assert_transcripts_agree(new, old):
    assert new.depth == old.depth
    assert new.round_parties == old.round_parties
    dims = (new.root_ensemble.dim_a, new.root_ensemble.dim_b)
    for level, arrays in enumerate(new.levels):
        old_nodes = old.nodes_at(level)
        assert list(arrays.paths) == [o.path for o in old_nodes]
        below = new.levels[level + 1] if level < new.depth else None
        for i, o in enumerate(old_nodes):
            assert abs(float(arrays.prob[i]) - o.probability) <= TOL
            assert o.party == (new.round_parties[level - 1] if level else None)
            children = [] if below is None else [below.paths[c] for c in np.flatnonzero(below.parent == i)]
            assert children == [c.path for c in o.children]
            for (p, a), (q, b) in zip(arrays.ensemble(i, *dims).members, o.ensemble.members):
                assert abs(p - q) <= TOL
                np.testing.assert_allclose(a.matrix, b.matrix, rtol=0, atol=TOL)


def compare_engines(ensemble, chooser, depth):
    """Run both engines; return the new transcript after checking agreement."""
    new = run_protocol(ensemble, chooser, depth)
    old = ref.run_protocol(ensemble, chooser, depth)
    assert_transcripts_agree(new, old)
    for a, b in zip(audit_rounds(new), ref.audit_rounds(old), strict=True):
        assert_reports_agree(a, b)
    try:
        expected = ref.bound_suite(old)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc).split(":")[0]):
            bound_suite(new)
    else:
        assert_reports_agree(bound_suite(new), expected)
    return new


def parties_for(seed: int, depth: int) -> str:
    return "".join("AB"[int(b)] for b in np.random.default_rng([seed, 99]).integers(2, size=depth))


@PROPERTY
@given(seed=seeds, n_members=st.integers(1, 4), depth=st.integers(1, 3))
def test_mixed_members_general_kraus(seed, n_members, depth):
    rng = np.random.default_rng(seed)
    ensemble = mixed_ensemble(rng, n_members, (2, 2))
    chooser = make_chooser(seed, (2, 2), parties_for(seed, depth), "kraus")
    compare_engines(ensemble, chooser, depth)


@PROPERTY
@given(seed=seeds, depth=st.integers(2, 3))
def test_uneven_outcome_counts_within_a_level(seed, depth):
    # Three outcomes at the root, then two or three by the last label, so
    # every level below the root mixes nodes with two and three outcomes.
    rng = np.random.default_rng(seed)
    ensemble = mixed_ensemble(rng, 3, (2, 2))
    chooser = make_chooser(
        seed, (2, 2), parties_for(seed, depth), "kraus", outcome_count=lambda h: 2 + int(h[-1]) % 2 if h else 3
    )
    transcript = compare_engines(ensemble, chooser, depth)
    assert {len(chooser(path).outcomes) for path in transcript.levels[1].paths} == {2, 3}


@PROPERTY
@given(seed=seeds, n_members=st.integers(1, 3), depth=st.integers(1, 3), dims=st.sampled_from([(2, 3), (3, 2)]))
@example(seed=1, n_members=1, depth=2, dims=(2, 3))
@example(seed=2, n_members=1, depth=3, dims=(3, 2))
def test_pure_members_in_2x3_and_3x2(seed, n_members, depth, dims):
    # Leaf averages of several pure members are mixed, which has no measure
    # outside 2x2: both engines must then raise "measure unavailable".
    rng = np.random.default_rng(seed)
    ensemble = pure_ensemble(rng, n_members, dims)
    chooser = make_chooser(seed, dims, parties_for(seed, depth), "projective")
    compare_engines(ensemble, chooser, depth)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("k", range(8, 16))
@settings(derandomize=True, deadline=None, max_examples=4)
@given(seed=seeds, depth=st.integers(1, 3))
def test_members_of_unequal_rank(k, dims, seed, depth):
    # The root factors are padded to the largest rank, 1 + 2 + full, and a
    # rank-2 member's eigenvalue 10^-k must survive the rank cut down to
    # k = 13: a cut at DEFAULT_TOL or at 1e-12 drops it and moves the
    # entropies past TOL. Outside 2x2 the mixed members have no measure, so
    # both engines raise on bound_suite and the audits carry the comparison.
    rng = np.random.default_rng([seed, k])
    ensemble = unequal_rank_ensemble(rng, dims, k)
    chooser = make_chooser(seed, dims, parties_for(seed, depth), "kraus")
    compare_engines(ensemble, chooser, depth)


@PROPERTY
@given(seed=seeds, depth=st.integers(2, 3), mixed=st.booleans())
def test_pruned_outcomes(seed, depth, mixed):
    rng = np.random.default_rng(seed)
    ensemble = (mixed_ensemble if mixed else pure_ensemble)(rng, 3, (2, 2))
    chooser = make_chooser(seed, (2, 2), parties_for(seed, depth), "kraus", zero_outcome=True)
    transcript = compare_engines(ensemble, chooser, depth)
    attempted = sum(len(chooser(path).outcomes) for level in transcript.levels[:-1] for path in level.paths)
    kept = sum(len(level.prob) for level in transcript.levels[1:])
    assert kept < attempted


def test_definite_outcomes_are_pruned():
    # Z on A never yields 1 for |00> and |01>, so that outcome is pruned in
    # rounds 1 and 3.
    z = KrausInstrument.projective("A", np.eye(2))
    zb = KrausInstrument.projective("B", np.eye(2))
    ensemble = BipartiteEnsemble(
        ((0.3, pure_state_density([1, 0, 0, 0], 2, 2)), (0.7, pure_state_density([0, 1, 0, 0], 2, 2)))
    )
    transcript = compare_engines(ensemble, lambda h: z if len(h) != 1 else zb, 3)
    assert [n.path for n in transcript.leaves()] == [("0", "0", "0"), ("0", "1", "0")]


@PROPERTY
@given(seed=seeds, n_members=st.integers(1, 4), party=st.sampled_from("AB"), outcomes=st.integers(1, 4))
def test_measure_branch_matches_reference(seed, n_members, party, outcomes):
    rng = np.random.default_rng(seed)
    ensemble = mixed_ensemble(rng, n_members, (2, 2))
    instrument = KrausInstrument(party=party, outcomes=tuple((str(i), op) for i, op in enumerate(random_kraus(rng, 2, outcomes))))
    new = one_round(ensemble, instrument).leaves()
    old = ref.measure_branch(ensemble, instrument)
    assert [leaf.path for leaf in new] == [(label,) for label, _, _ in old]
    for leaf, (_, q, expected) in zip(new, old):
        assert abs(leaf.probability - q) <= TOL
        for (a, sa), (b, sb) in zip(leaf.ensemble.members, expected.members):
            assert abs(a - b) <= TOL
            np.testing.assert_allclose(sa.matrix, sb.matrix, rtol=0, atol=TOL)


@pytest.mark.parametrize("engine", [one_round, ref.measure_branch])
def test_all_outcomes_pruned_error(engine, monkeypatch):
    ensemble = BipartiteEnsemble(((0.5, pure_state_density([1, 0, 0, 0], 2, 2)), (0.5, pure_state_density([0, 0, 0, 1], 2, 2))))
    # Each outcome carries probability 1/2, below a pruning threshold of 0.6;
    # no complete instrument loses every outcome in the engine's zero band.
    monkeypatch.setattr(protocol, "ZERO_EIGENVALUE", 0.6)
    knob = {} if engine is one_round else {"prune_tol": 0.6}
    with pytest.raises(ValueError, match="all outcomes pruned"):
        engine(ensemble, KrausInstrument.projective("A", np.eye(2)), **knob)


def assert_stats_identical(tree, k, alone):
    """Bit-for-bit equality of entry k of the ``TreeStats`` ``tree`` and
    entry 0 of the one-level ``alone``."""
    assert tree.conditional_entropy[k] == alone.conditional_entropy[0]
    for side in protocol.PARTIES:
        assert tree.member_entropy[side][k] == alone.member_entropy[side][0]
        assert tree.average_entropy[side][k] == alone.average_entropy[side][0]
        assert np.array_equal(tree.average_marginals[side][k], alone.average_marginals[side][0])


STATS_CASES = ("mixed_kraus", "unequal_rank", "pure_2x3", "pure_3x2", "pruned")


@PROPERTY
@given(seed=seeds, case=st.sampled_from(STATS_CASES), depth=st.integers(0, 3))
@example(seed=0, case="mixed_kraus", depth=0)
@example(seed=1, case="unequal_rank", depth=3)
@example(seed=2, case="pure_2x3", depth=3)
@example(seed=3, case="pure_3x2", depth=3)
@example(seed=4, case="pruned", depth=3)
def test_tree_stats_equal_each_level_alone(seed, case, depth):
    # One pass over the whole tree does the same arithmetic on every
    # element as a pass over each level alone, so the two agree exactly.
    rng = np.random.default_rng(seed)
    parties = parties_for(seed, depth)
    if case == "mixed_kraus":
        dims = (2, 2)
        ensemble = mixed_ensemble(rng, int(rng.integers(1, 4)), dims)
        chooser = make_chooser(seed, dims, parties, "kraus")
    elif case == "unequal_rank":
        dims = [(2, 2), (2, 3), (3, 2)][int(rng.integers(3))]
        ensemble = unequal_rank_ensemble(rng, dims, 10)
        chooser = make_chooser(seed, dims, parties, "kraus")
    elif case == "pruned":
        dims = (2, 2)
        ensemble = (mixed_ensemble if rng.integers(2) else pure_ensemble)(rng, 3, dims)
        chooser = make_chooser(seed, dims, parties, "kraus", zero_outcome=True)
    else:
        dims = (2, 3) if case == "pure_2x3" else (3, 2)
        ensemble = pure_ensemble(rng, 3, dims)
        chooser = make_chooser(seed, dims, parties, "projective")
    transcript = run_protocol(ensemble, chooser, depth)
    tree = protocol._level_stats(transcript.levels, dims)
    for values in (tree.conditional_entropy, *tree.member_entropy.values(), *tree.average_entropy.values()):
        assert values.shape == (depth + 1,)
    for k, level in enumerate(transcript.levels):
        assert_stats_identical(tree, k, protocol._level_stats((level,), dims))
    for per_level in tree.average_marginals.values():
        assert len(per_level) == depth + 1
        for marginals in per_level:
            assert not marginals.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                marginals[...] = 0.0
