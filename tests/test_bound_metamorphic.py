"""Metamorphic relations of ``bound_suite`` and ``audit_rounds``.

Each relation rewrites the input in a way that no reported quantity can
see, so every ``BoundReport`` field (its bounds compared by name) and every
``RoundAudit`` field must stay the same within 1e-10:

- a local unitary U_A (x) U_B on every member, with each instrument
  conjugated by the unitary of its party;
- one member split into two halves of equal weight;
- a member of weight zero added;
- A and B swapped: every member permuted, every instrument's party
  flipped and the dims swapped. Each audit's party flips with them.

``bound_suite`` runs on 2x2 systems, where every state has an
entanglement measure; ``audit_rounds`` needs none and also runs on 2x3
and 3x2 systems. The members are pure and mixed, and the instruments are
general Kraus instruments with one to three outcomes.
"""

import dataclasses
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locclab import (
    BipartiteEnsemble,
    KrausInstrument,
    audit_rounds,
    bound_suite,
    pure_state_density,
    run_protocol,
    validate_density,
)

from helpers import random_bipartite_density, random_pure_vector

TOL = 1e-10
PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
OTHER = {"A": "B", "B": "A"}


@dataclasses.dataclass(frozen=True)
class Case:
    """An ensemble as (weight, matrix) pairs and a protocol as a function
    from history to (party, Kraus operator stack)."""

    members: tuple
    dims: tuple[int, int]
    depth: int
    chooser: Callable


def random_unitary(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_kraus(rng, dim: int) -> np.ndarray:
    """One to three operators G_k S^(-1/2), S = sum G_k^dagger G_k."""
    count = int(rng.integers(1, 4))
    ops = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    values, vectors = np.linalg.eigh(np.einsum("kji,kjl->il", ops.conj(), ops))
    return ops @ ((vectors / np.sqrt(values)) @ vectors.conj().T)


def draw_case(seed: int, dims: tuple[int, int], depth: int) -> Case:
    rng = np.random.default_rng(seed)
    members = []
    for p in rng.dirichlet(np.ones(int(rng.integers(2, 5)))):
        if rng.integers(2):
            state = pure_state_density(random_pure_vector(rng, dims[0] * dims[1]), *dims).matrix
        else:
            state = random_bipartite_density(rng, *dims).matrix
        members.append((float(p), state))
    parties = "".join(rng.choice(["A", "B"], size=depth))

    def chooser(history):
        party = parties[len(history)]
        ops = random_kraus(np.random.default_rng([seed, len(history), *map(int, history)]), dims[party == "B"])
        return party, ops

    return Case(tuple(members), dims, depth, chooser)


def run(case: Case):
    ensemble = BipartiteEnsemble(tuple((p, validate_density(m, *case.dims)) for p, m in case.members))

    def chooser(history):
        party, ops = case.chooser(history)
        return KrausInstrument(party=party, outcomes=tuple((str(i), op) for i, op in enumerate(ops)))

    return run_protocol(ensemble, chooser, case.depth)


def local_unitary(case: Case, seed: int) -> Case:
    rng = np.random.default_rng([seed, 1])
    u = {"A": random_unitary(rng, case.dims[0]), "B": random_unitary(rng, case.dims[1])}
    full = np.kron(u["A"], u["B"])

    def chooser(history):
        party, ops = case.chooser(history)
        return party, u[party] @ ops @ u[party].conj().T

    members = tuple((p, full @ m @ full.conj().T) for p, m in case.members)
    return dataclasses.replace(case, members=members, chooser=chooser)


def split_member(case: Case, seed: int) -> Case:
    i = seed % len(case.members)
    p, state = case.members[i]
    members = case.members[:i] + ((p / 2, state), (p / 2, state)) + case.members[i + 1 :]
    return dataclasses.replace(case, members=members)


def zero_weight_member(case: Case, seed: int) -> Case:
    rng = np.random.default_rng([seed, 2])
    i = int(rng.integers(len(case.members) + 1))
    added = ((0.0, random_bipartite_density(rng, *case.dims).matrix),)
    return dataclasses.replace(case, members=case.members[:i] + added + case.members[i:])


def swap_parties(case: Case, seed: int) -> Case:
    dim_a, dim_b = case.dims
    dim = dim_a * dim_b

    def chooser(history):
        party, ops = case.chooser(history)
        return OTHER[party], ops

    members = tuple(
        (p, m.reshape(dim_a, dim_b, dim_a, dim_b).transpose(1, 0, 3, 2).reshape(dim, dim)) for p, m in case.members
    )
    return dataclasses.replace(case, members=members, dims=(dim_b, dim_a), chooser=chooser)


RELATIONS = {
    "local_unitary": local_unitary,
    "split_member": split_member,
    "zero_weight_member": zero_weight_member,
    "swap_parties": swap_parties,
}


def assert_agree(actual, expected, where: str):
    """Dicts key by key in the same order, sequences item by item, floats
    within TOL, anything else (None, a party, a round) exactly."""
    if isinstance(expected, dict):
        assert list(actual) == list(expected), (where, list(actual), list(expected))
        for key, value in expected.items():
            assert_agree(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, (tuple, list)):
        assert len(actual) == len(expected), (where, actual, expected)
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_agree(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert abs(actual - expected) <= TOL, (where, actual, expected)
    else:
        assert actual == expected, (where, actual, expected)


@pytest.mark.parametrize("relation", RELATIONS)
@PROPERTY
@given(seed=seeds, depth=st.integers(0, 3))
def test_bound_suite_is_invariant(relation, seed, depth):
    case = draw_case(seed, (2, 2), depth)
    expected = dataclasses.asdict(bound_suite(run(case)))
    actual = dataclasses.asdict(bound_suite(run(RELATIONS[relation](case, seed))))
    assert_agree(actual, expected, relation)


@pytest.mark.parametrize("relation", RELATIONS)
@PROPERTY
@given(seed=seeds, depth=st.integers(1, 3), dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]))
def test_audit_rounds_are_invariant(relation, seed, depth, dims):
    case = draw_case(seed, dims, depth)
    expected = [dataclasses.asdict(audit) for audit in audit_rounds(run(case))]
    if relation == "swap_parties":
        expected = [{**audit, "party": OTHER[audit["party"]]} for audit in expected]
    actual = [dataclasses.asdict(audit) for audit in audit_rounds(run(RELATIONS[relation](case, seed)))]
    assert len(actual) == depth
    assert_agree(actual, expected, relation)
