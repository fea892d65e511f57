"""Closed-form qubit routes of the entropy layers.

``von_neumann_entropies`` solves a stack of 2x2 matrices in closed form,
and ``protocol._level_stats`` reads the marginal spectra of pure members of
a 2x2 system from the determinants of their coefficient matrices, and
their average marginals from their amplitudes. These tests compare them
with ``np.linalg.eigvalsh`` and with ``_mixture_gram``, the Gram of the
scaled factors, and check that the input errors keep their messages.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locclab import (
    BipartiteEnsemble,
    KrausInstrument,
    pure_state_density,
    run_protocol,
)
from locclab import protocol
from locclab.entropy import ZERO_EIGENVALUE, _qubit_eigvalsh, shannon_entropies, von_neumann_entropies
from locclab.linalg import DEFAULT_TOL, _require_finite, hermitize

from helpers import (
    assert_same_bits,
    entropy_summary_oracle,
    marginal_entropy_oracle,
    random_bipartite_density,
    random_pure_ensemble,
    random_pure_vector,
)

TOL = 1e-13
PROPERTY = settings(derandomize=True, deadline=None, max_examples=80)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def lapack_entropies(matrices) -> np.ndarray:
    """The LAPACK route of ``von_neumann_entropies``, for every D."""
    mats = np.asarray(matrices, dtype=complex)
    with np.errstate(invalid="ignore"):
        herm_dev = np.abs(mats - mats.swapaxes(-1, -2).conj())
    if not herm_dev.max(initial=0.0) <= DEFAULT_TOL:
        _require_finite(mats)
        worst = herm_dev.max(axis=(-2, -1))
        raise ValueError(f"not Hermitian: deviation {np.extract(~(worst <= DEFAULT_TOL), worst)[0]:.3e}")
    values = np.linalg.eigvalsh(hermitize(mats))
    if not values.min(initial=0.0) >= -DEFAULT_TOL:
        lowest = values[..., 0]
        raise ValueError(f"negative eigenvalue {np.extract(~(lowest >= -DEFAULT_TOL), lowest)[0]:.3e}")
    return shannon_entropies(np.maximum(values, 0.0))


def with_spectra(rng, lower: np.ndarray) -> np.ndarray:
    """Unit-trace 2x2 states with eigenvalues (lower, 1 - lower) in random bases."""
    g = rng.standard_normal((len(lower), 2, 2)) + 1j * rng.standard_normal((len(lower), 2, 2))
    u = np.linalg.qr(g)[0]
    values = np.stack([lower, 1.0 - lower], axis=-1)
    return (u * values[:, None, :]) @ u.conj().swapaxes(-1, -2)


def assert_routes_agree(mats: np.ndarray):
    values = np.linalg.eigvalsh(hermitize(mats))
    np.testing.assert_allclose(_qubit_eigvalsh(mats), values, rtol=0, atol=TOL)
    # An eigenvalue within rounding of ZERO_EIGENVALUE may be counted by one
    # route and dropped by the other: the entropy jumps there by design.
    clear = ~(np.abs(values[..., 0] - ZERO_EIGENVALUE) < 1e-14)
    np.testing.assert_allclose(von_neumann_entropies(mats[clear]), lapack_entropies(mats[clear]), rtol=0, atol=TOL)


@PROPERTY
@given(seed=seeds, count=st.integers(0, 16))
def test_random_stacks(seed, count):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    states = g @ g.conj().swapaxes(-1, -2)
    assert_routes_agree(states / np.trace(states, axis1=-2, axis2=-1).real[:, None, None])
    # Any Hermitian matrix, for the eigenvalues alone.
    hermitian = (g + g.conj().swapaxes(-1, -2)) / 2
    np.testing.assert_allclose(
        _qubit_eigvalsh(hermitian), np.linalg.eigvalsh(hermitian), rtol=0, atol=TOL * np.abs(g).max(initial=1.0)
    )


@PROPERTY
@given(seed=seeds, exponent=st.floats(min_value=-15.0, max_value=-1.0), count=st.integers(1, 8))
def test_near_pure_stacks(seed, exponent, count):
    rng = np.random.default_rng(seed)
    assert_routes_agree(with_spectra(rng, 10.0 ** (exponent + rng.uniform(-0.5, 0.0, count))))


@PROPERTY
@given(seed=seeds, exponent=st.floats(min_value=-15.0, max_value=-1.0), count=st.integers(1, 8))
def test_near_degenerate_stacks(seed, exponent, count):
    rng = np.random.default_rng(seed)
    assert_routes_agree(with_spectra(rng, 0.5 - 10.0 ** (exponent + rng.uniform(-0.5, 0.0, count))))


@PROPERTY
@given(seed=seeds, count=st.integers(1, 8), pure=st.booleans())
def test_diagonal_stacks(seed, count, pure):
    rng = np.random.default_rng(seed)
    lower = np.zeros(count) if pure else rng.uniform(0.0, 1.0, count)
    mats = np.zeros((count, 2, 2), dtype=complex)
    mats[:, 0, 0], mats[:, 1, 1] = lower, 1.0 - lower
    assert_routes_agree(mats)


def test_exact_cases():
    assert_routes_agree(np.array([np.eye(2) / 2, [[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.5j], [-0.5j, 0.5]]]))
    # One matrix and a stack of stacks keep their shapes.
    assert von_neumann_entropies(np.eye(2) / 2).shape == ()
    assert von_neumann_entropies(np.tile(np.eye(2) / 2, (3, 4, 1, 1))).shape == (3, 4)
    assert von_neumann_entropies(np.zeros((0, 2, 2))).shape == (0,)


def test_zero_matrix():
    zero = np.zeros((2, 2, 2))
    np.testing.assert_array_equal(_qubit_eigvalsh(zero), np.zeros((2, 2)))
    with pytest.raises(ValueError, match=re.escape("weights sum to 0.0, not 1")):
        von_neumann_entropies(zero)


def error_message(route, mats) -> str:
    with pytest.raises(ValueError) as info:
        route(mats)
    return str(info.value)


@pytest.mark.parametrize(
    "bad",
    [
        [[0.5, 0.1], [0.2, 0.5]],
        [[0.5, 0.1j], [0.1j, 0.5]],
        [[np.nan, 0.0], [0.0, 1.0]],
        [[0.5, np.nan], [np.nan, 0.5]],
        [[1.5, 0.0], [0.0, -0.5]],
        [[0.5, 1.0], [1.0, 0.5]],
        [[0.6, 0.0], [0.0, 0.6]],
        [[np.inf, 0.0], [0.0, 0.5]],
        [[0.5, np.inf], [0.0, 0.5]],
        [[0.5, complex(0.0, np.inf)], [complex(0.0, -np.inf), 0.5]],
    ],
)
def test_errors_keep_their_messages(bad):
    stack = np.array([np.eye(2) / 2, bad], dtype=complex)
    assert error_message(von_neumann_entropies, stack) == error_message(lapack_entropies, stack)


@PROPERTY
@given(seed=seeds, count=st.integers(1, 8), depth=st.floats(min_value=1e-6, max_value=2.0))
def test_negative_eigenvalue_message(seed, count, depth):
    rng = np.random.default_rng(seed)
    mats = with_spectra(rng, np.full(count, -depth))
    new, old = error_message(von_neumann_entropies, mats), error_message(lapack_entropies, mats)
    prefix = "negative eigenvalue "
    assert new.startswith(prefix) and old.startswith(prefix)
    # Three significant digits; the two solvers may round the last one apart.
    assert float(new[len(prefix) :]) == pytest.approx(float(old[len(prefix) :]), rel=2e-3)


def random_chooser(seed: int):
    def chooser(history):
        rng = np.random.default_rng([seed, len(history), *(int(label) for label in history)])
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return KrausInstrument.projective("AB"[(seed + len(history)) % 2], np.linalg.qr(g)[0].T)

    return chooser


def padded(level):
    """The same level with a zero column appended to every factor (r = 2)."""
    zeros = np.zeros(level.factors.shape[:-1] + (1,), dtype=complex)
    return protocol.TreeLevel(
        prob=level.prob.copy(),
        q=level.q.copy(),
        factors=np.concatenate([level.factors, zeros], axis=-1),
        parent=level.parent.copy(),
        outcome=level.outcome.copy(),
    )


def assert_stats_agree(new, k, old):
    """Level k of the ``TreeStats`` ``new`` against the one level of ``old``."""
    assert abs(new.conditional_entropy[k] - old.conditional_entropy[0]) <= TOL
    for side in protocol.PARTIES:
        assert abs(new.member_entropy[side][k] - old.member_entropy[side][0]) <= TOL
        assert abs(new.average_entropy[side][k] - old.average_entropy[side][0]) <= TOL
        np.testing.assert_allclose(new.average_marginals[side][k], old.average_marginals[side][0], rtol=0, atol=TOL)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=seeds, n_members=st.integers(1, 6), depth=st.integers(0, 3), zero_weight=st.booleans())
def test_pure_qubit_route_matches_general_route(seed, n_members, depth, zero_weight):
    rng = np.random.default_rng(seed)
    ensemble = random_pure_ensemble(rng, n_members)
    if zero_weight and n_members > 1:
        weights = ensemble.probabilities()
        weights[int(rng.integers(n_members))] = 0.0
        weights /= weights.sum()
        ensemble = BipartiteEnsemble(tuple(zip(weights.tolist(), (s for _, s in ensemble.members))))
    transcript = run_protocol(ensemble, random_chooser(seed), depth)
    assert len(transcript.stats.conditional_entropy) == len(transcript.levels)
    for k, level in enumerate(transcript.levels):
        assert level.factors.shape[-1] == 1
        assert_stats_agree(transcript.stats, k, protocol._level_stats((padded(level),), (2, 2)))


def standard_chooser(ensemble):
    """A on the first round, then B, each in the standard basis."""

    def chooser(history):
        party, dim = ("B", ensemble.dim_b) if history else ("A", ensemble.dim_a)
        return KrausInstrument.projective(party, np.eye(dim))

    return chooser


def calls_of(monkeypatch, name: str, run) -> int:
    """How many times ``run()`` calls ``protocol.<name>``."""
    calls = []
    original = getattr(protocol, name)

    def recording(*args):
        calls.append(True)
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(protocol, name, recording)
        run()
    return len(calls)


def routes_taken(monkeypatch, ensemble) -> int:
    """How many times a depth-2 run (A, then B, in the standard bases) took the
    pure-qubit route: once per tree, since ``_level_stats`` reads all three
    levels in one pass."""
    return calls_of(monkeypatch, "_pure_qubit_marginals", lambda: run_protocol(ensemble, standard_chooser(ensemble), 2))


def closed_form_averages(monkeypatch, ensemble) -> int:
    """How many ``_pure_qubit_averages`` calls ``_level_stats`` makes on the
    tree of that depth-2 run: one on the pure-qubit route, none elsewhere,
    where the average marginals come from the member Grams and the factors."""
    levels = run_protocol(ensemble, standard_chooser(ensemble), 2).levels
    dims = (ensemble.dim_a, ensemble.dim_b)
    return calls_of(monkeypatch, "_pure_qubit_averages", lambda: protocol._level_stats(levels, dims))


@pytest.mark.parametrize("depth", [1, 3, 6])
def test_one_eigvalsh_call_per_tree(monkeypatch, depth):
    # Four pure members on 2x3, A and B alternating in the standard bases.
    # Every 2x2 spectrum has a closed form and pure members take no side-B
    # member entropies, so the 3x3 average marginals of side B are the only
    # LAPACK spectra: one eigvalsh call for the whole tree, at any depth.
    ensemble = random_pure_ensemble(np.random.default_rng(depth), 4, 2, 3)
    calls = []
    original = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(True)
        return original(*args, **kwargs)

    def chooser(history):
        party, dim = ("B", 3) if len(history) % 2 else ("A", 2)
        return KrausInstrument.projective(party, np.eye(dim))

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", counting)
        transcript = run_protocol(ensemble, chooser, depth)
    assert transcript.levels[0].factors.shape[-1] == 1
    assert len(calls) == 1


def assert_root_matches_oracles(ensemble):
    stats = protocol._level_stats((protocol._root_level(ensemble),), (ensemble.dim_a, ensemble.dim_b))
    summary = entropy_summary_oracle(ensemble)
    oracle = marginal_entropy_oracle(ensemble)
    for side, key in (("A", "entropy_a"), ("B", "entropy_b")):
        assert abs(stats.average_entropy[side][0] - summary[key]) <= 1e-12
        assert abs(stats.member_entropy[side][0] - oracle[side]) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_other_systems_take_the_general_route(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    pure_qubit = random_pure_ensemble(rng, 3)
    pure_2x3 = random_pure_ensemble(rng, 3, 2, 3)
    mixed_qubit = BipartiteEnsemble(
        ((0.5, random_bipartite_density(rng, 2, 2)), (0.5, pure_state_density(random_pure_vector(rng, 4), 2, 2)))
    )
    assert routes_taken(monkeypatch, pure_qubit) == 1
    assert routes_taken(monkeypatch, pure_2x3) == 0
    assert routes_taken(monkeypatch, mixed_qubit) == 0
    assert closed_form_averages(monkeypatch, pure_qubit) == 1
    assert closed_form_averages(monkeypatch, pure_2x3) == 0
    assert closed_form_averages(monkeypatch, mixed_qubit) == 0
    for ensemble in (pure_qubit, pure_2x3, mixed_qubit):
        assert_root_matches_oracles(ensemble)


@PROPERTY
@given(seed=seeds, n_nodes=st.integers(1, 6), n_members=st.integers(2, 6))
def test_pure_qubit_averages_match_the_mixture_gram(seed, n_nodes, n_members):
    # Pure 2x2 members take their average marginals from psi's amplitudes;
    # the reference is the Gram of the scaled factors. Each node has
    # a member of weight zero, which must count as zero on both routes.
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_nodes, n_members, 4)) + 1j * rng.standard_normal((n_nodes, n_members, 4))
    factors = (g / np.linalg.norm(g, axis=-1, keepdims=True))[..., None]
    q = rng.dirichlet(np.ones(n_members), n_nodes)
    q[np.arange(n_nodes), rng.integers(n_members, size=n_nodes)] = 0.0
    q /= q.sum(axis=1, keepdims=True)
    root = np.full(n_nodes, -1)
    level = protocol.TreeLevel(prob=rng.dirichlet(np.ones(n_nodes)), q=q, factors=factors, parent=root, outcome=root.copy())
    stats = protocol._level_stats((level,), (2, 2))
    x, scale = factors.reshape(n_nodes, n_members, 2, 2), np.sqrt(q)
    for side, split in (("A", x), ("B", x.swapaxes(2, 3))):
        marginals = stats.average_marginals[side][0]
        assert not marginals.flags.writeable
        np.testing.assert_allclose(marginals, protocol._mixture_gram(split, scale), rtol=0, atol=1e-15)
    # The two sides' cross terms differ, so the routes would tell them apart.
    cross = {side: stats.average_marginals[side][0][:, 0, 1] for side in protocol.PARTIES}
    assert np.abs(cross["A"] - cross["B"]).max() > 1e-3


@PROPERTY
@given(seed=seeds, n_nodes=st.integers(1, 6), n_members=st.integers(1, 6))
def test_both_sides_average_entropies_in_one_call_are_each_sides_bits(seed, n_nodes, n_members):
    # ``_level_stats`` solves the (2, N, 2, 2) stack of both sides' average
    # marginals in one call. The closed form is elementwise and each row sum
    # has two entries, so every entropy has the bits of a per-side call.
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_nodes, n_members, 4)) + 1j * rng.standard_normal((n_nodes, n_members, 4))
    psi = np.moveaxis(g / np.linalg.norm(g, axis=-1, keepdims=True), -1, 0).copy()
    weights = rng.dirichlet(np.ones(n_members), n_nodes)
    stacked = protocol._pure_qubit_averages(psi, psi.real**2 + psi.imag**2, weights)
    merged = von_neumann_entropies(stacked)
    assert merged.shape == (2, n_nodes)
    for side in range(2):
        assert_same_bits(merged[side], von_neumann_entropies(stacked[side]))
