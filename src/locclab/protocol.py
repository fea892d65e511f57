"""LOCC measurement protocols: outcome trees, mutual information, bounds.

A protocol is a sequence of local measurement rounds with the classical
record shared after every round. Instruments are Kraus-operator valued so
posterior ensembles are well defined. Every bound of the suite is
evaluated from the protocol's outcome tree.

Level-array layout
------------------
The transcript stores the tree level by level as stacked arrays
(``TreeLevel``). Level k holds one node per surviving outcome history of
k rounds, N_k nodes over M hypotheses on a D = dim_a * dim_b system. Each
member state is stored as a factor V with rho = V V^dagger:

    prob     (N_k,)           path probabilities
    q        (N_k, M)         posterior member weights
    factors  (N_k, M, D, r)   posterior member factors, ||V||_F = 1
    parent   (N_k,)           index of the node's parent on level k - 1
    outcome  (N_k,)           the node's outcome index under its parent's instrument
    paths    N_k tuples       outcome histories, built when read

``_root_level`` makes every root, for the tree commands and
``distillation_report`` alike. Kets are their own rank-one factors, with
no eigensolve: a ``SpectralEnsemble``'s orthonormal kets, and the ``ket``
that a member built by ``linalg.pure_state_density`` keeps (a file's
``vector`` member, every member ``random_scenario`` draws). Only the other,
matrix members are factored, by one stacked ``eigh``: V = U sqrt(Lambda)
over the eigenvalues above _RESIDUE_CUT, renormalized. Every factor, a
ket's too, is padded with zero columns to the largest rank r. The cut, the
keep-prior rule's below too, sits at
rounding level, below the zero band ZERO_EIGENVALUE: a genuine eigenvalue
of 1e-12 dropped at the root moves the entropies past the 1e-12 agreement.

Every round is a ``ProtocolStep``, one (R, K, d, d) operator stack, rows
with fewer outcomes padded with zero operators, and a level is expanded
in one batched pass over it: each node's row is found from its label
path, one dict lookup in ``ProtocolStep.row_of``, and each node's
operators are gathered with one fancy index. Every product K V of a node,
for all its outcomes and members, comes from one (K d) x d by
d x (M d' r) matmul, d the acting party's dimension and d' the other's:
the node's K operators stacked as rows, times its factors with the acting
party's index first and the members and the other party's index side by
side as columns. The factors are tiny (d = 2 in most trees), so the cost
is per-call overhead, and one product per node makes K M times fewer
calls than one per (outcome, member). A ``StepChooser`` (a scenario's
``chooser``) gives its steps as they are. Any other chooser, a Mapping
or a callable, and a ``StepChooser`` past its last step, is adapted by
``_adapted`` once per level: it is asked once per node in level order,
each answer's type, party and size are checked, and the answers become a
step with no default and one override row per node path. A level keeps
each node's parent and outcome index; its label paths are built from the
level above when read, which ``run_protocol`` does for every level but
the leaves.
Every node follows the rules of the one-node update (a depth-1
``run_protocol``): member weights are ||K V||_F^2, posteriors follow
Bayes' rule, a hypothesis whose outcome weight is at most _RESIDUE_CUT
keeps its prior state, outcomes at or below ZERO_EIGENVALUE, the zero
band of ``locclab.entropy``, are pruned (a padded outcome has weight zero)
and the survivors renormalized, and a node that loses every outcome is an
error. A posterior factor is K V / ||K V||_F,
so its state is PSD with unit trace by construction; the only check left
on it is that every entry of K V is finite.

``TreeStats`` holds what the bounds and the audit read of the tree, one
entry per level: H(X | Y_1..Y_k), and per side the mean member-marginal
entropy, the mean average-marginal entropy and the average marginals. A
member's marginal on side A is the Gram X X^dagger of V reshaped to X
(dim_a, dim_b * r), side B likewise. A node's average marginal on a side
is sum_x q_x X_x X_x^dagger: on side A a weighted sum of the member
Grams, on side B one product over the members' factors; pure members of
a 2x2 system take a closed form (below). ``run_protocol``
computes the stats once per tree: every level shares one (M, D, r), so
``_level_stats`` joins the levels along the node axis and solves every
node's entropies and average marginals in one pass; each level's means
are then entries of per-level arrays. Each spectrum takes one of three
routes:

- pure members (r = 1) of a 2x2 system: no Gram is built. Every
  member's marginal spectrum, shared by both sides, comes from the
  determinant of its 2x2 coefficient matrix, and the members that do not
  count are zeroed afterwards. Each side's average marginals are weighted
  sums of the members' amplitude products (``_pure_qubit_averages``), and
  both sides' take their entropies from one closed-form call on the one
  stack that holds them;
- every other 2x2 marginal, average marginals included: the closed-form
  2x2 solve inside ``von_neumann_entropies``;
- larger marginals: one ``von_neumann_entropies`` call per (tree, side)
  and entropy family, each split along its stack's zero pattern
  (``linalg.hermitian_eigvalsh``). Pure members, whose two marginals share
  a spectrum, take their member entropies on side A only, and build no
  side-B Gram.

``chain_mutual_information``, ``bound_suite``, ``audit_rounds``,
``entropy_summary`` and ``locclab.distillation`` only index them. The
average input entanglement E_in of a rank-one root (every
``SpectralEnsemble`` root, every ensemble of kets) is the root's side-A
mean member entropy: a pure state's entanglement is its marginal entropy.
Dense D x D states are built only on demand: by ``TreeLevel.ensemble``
(which ``ProtocolNode.ensemble`` calls), for the root members of a root
of rank r > 1 and the leaf averages, whose entanglement ``bound_suite``
reports, and for the root average of a ``BipartiteEnsemble`` in
``entropy_summary``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .entropy import (
    ZERO_EIGENVALUE,
    BipartiteEnsemble,
    SpectralEnsemble,
    entanglements,
    shannon_entropies,
    von_neumann_entropies,
)
from .linalg import DEFAULT_TOL, PARTIES, DensityOperator, _require_finite, _require_integer, _require_party

# A member's own share at or below this is rounding residue: a root eigenvalue, or an outcome weight ||K V||^2.
# Below the zero band on purpose: a genuine eigenvalue of 1e-12 stays in its member's factor.
_RESIDUE_CUT = 1e-14


class ScenarioError(ValueError):
    """Malformed scenario content; message names the offending field."""


def _other(party: str) -> str:
    return "B" if party == "A" else "A"


@dataclass(frozen=True, eq=False)
class KrausInstrument:
    """One local measurement step: acting party plus labelled Kraus operators.

    The operators act on the party's subsystem alone and must satisfy the
    completeness relation sum_k K_k^dagger K_k = I within 1e-9, checked
    with party and labels by ``_check_instruments``, which the instruments
    that ``projective`` builds without ``__post_init__`` ran as well. Those
    also keep their basis kets, one row per outcome, as the read-only
    ``kets``; every other instrument has ``kets`` None. ``labels`` is the
    read-only tuple of outcome labels that every reader takes;
    ``_outcome_labels`` gives their default and count. The operators of
    ``outcomes`` are views of one read-only (K, d, d) stack, ``ops``.
    Instruments compare by identity.
    """

    party: str
    outcomes: tuple[tuple[str, np.ndarray], ...]
    labels: tuple[str, ...] = field(default=None, init=False, repr=False, compare=False)
    kets: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    ops: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.outcomes:
            raise ValueError("instrument needs at least one outcome")
        labels = tuple(str(label) for label, _ in self.outcomes)
        ops = [np.asarray(op, dtype=complex) for _, op in self.outcomes]
        for label, op in zip(labels, ops):
            if op.ndim != 2 or op.shape[0] != op.shape[1]:
                raise ValueError(f"outcome {label!r}: Kraus operator must be square, got {op.shape}")
            if not op.size:
                raise ValueError(f"outcome {label!r}: Kraus operator is empty")
            if op.shape != ops[0].shape:
                raise ValueError(f"outcome {label!r}: size {op.shape[0]} != {ops[0].shape[0]}")
        stack = np.stack(ops)
        _check_instruments((self.party,), stack[None], [labels])
        stack.setflags(write=False)
        self._set(self.party, labels, stack, None)

    def _set(self, party: str, labels: tuple[str, ...], ops: np.ndarray, kets: np.ndarray | None) -> None:
        """Store a checked instrument's attributes; the dataclass is frozen."""
        vars(self).update(party=party, labels=labels, outcomes=tuple(zip(labels, ops)), ops=ops, kets=kets)

    @property
    def dim(self) -> int:
        return self.ops.shape[-1]

    @classmethod
    def projective(cls, party: str, basis, labels=None) -> "KrausInstrument":
        """Rank-one projective instrument from an orthonormal basis.

        ``basis`` is a square array whose rows are the basis kets; labels
        default to "0", "1", ...
        """
        kets = np.array(basis, dtype=complex)
        if kets.ndim != 2 or kets.shape[0] != kets.shape[1]:
            raise ValueError(f"projective basis must be square, got {kets.shape}")
        stack = kets[None]
        try:
            names = None if labels is None else tuple(map(str, labels))
        except TypeError:
            names = labels  # not iterable: ``_outcome_labels`` names it after the basis checks
        projectors, (names,) = _projective_stack((party,), stack, [names])
        return _checked_instrument(party, names, projectors[0], stack[0])


def _checked_instrument(
    party: str, labels: tuple[str, ...], ops: np.ndarray, kets: np.ndarray | None
) -> KrausInstrument:
    """An instrument on checked, read-only operators, built without ``__post_init__``."""
    instrument = object.__new__(KrausInstrument)
    instrument._set(party, labels, ops, kets)
    return instrument


def _outcome_labels(labels, count: int) -> tuple:
    """One label per outcome of ``count``, as a tuple; "0".."K-1" if ``labels``
    is None. ``labels`` must be iterable."""
    if labels is None:
        return tuple(str(i) for i in range(count))
    try:
        labels = tuple(labels)
    except TypeError:
        raise ValueError(f"labels must be a sequence of outcome labels, got {type(labels).__name__}") from None
    if len(labels) != count:
        raise ValueError(f"{len(labels)} labels for {count} outcomes")
    return labels


def _check_instruments(party: str | tuple, ops: np.ndarray, labels: list[tuple[str, ...]]) -> None:
    """String labels, party, distinct, nonempty and comma-free labels,
    finite operators (``linalg._require_finite``) and completeness, in this
    order, of a stack of instruments on ``party``, or, when ``party`` is a
    tuple, of instrument h on ``party[h]``: ``ops`` is (H, K, d, d),
    the K Kraus operators of instrument h, named by ``labels[h]``. A
    ``KrausInstrument`` passes its party as a 1-tuple, so that a tuple
    given as a party is rejected, not read as parties. The first
    check that fails raises a ValueError; with H = 1 it is that check's
    message for the one instrument. Only the parser's batched read can fail
    the string check (the constructors apply ``str``). An empty label would
    join to the root's empty history key, and a comma would split a history
    key into more labels than its history has.
    """
    count = ops.shape[1]
    try:
        distinct = set(labels)
    except TypeError:
        distinct = None
    if distinct is None or not all(type(name) is str for names in distinct for name in names):
        raise ValueError("outcome labels must be strings")
    for name in party if isinstance(party, tuple) else (party,):
        _require_party(name)
    for names in distinct:
        if len(set(names)) != count:
            duplicate = next(label for i, label in enumerate(names) if label in names[:i])
            raise ValueError(f"duplicate outcome label {duplicate!r}")
    if any("" in names for names in distinct):
        raise ValueError("empty outcome label")
    if any("," in name for names in distinct for name in names):
        raise ValueError("labels must not contain commas (reserved for history keys)")
    _require_finite(ops)
    # sum_k K_k^dagger K_k of every instrument.
    gram = np.einsum("hkji,hkjl->hil", ops.conj(), ops)
    completeness = np.abs(gram - np.eye(ops.shape[-1])).max(initial=0.0)
    if not completeness <= DEFAULT_TOL:
        raise ValueError(f"incomplete instrument: max |sum K^dagger K - I| = {completeness:.3e}")


def _check_size(party: str, size: int, local_dim: int) -> None:
    """An instrument's operators on ``party`` must be local_dim x local_dim,
    the dimension of the party it acts on."""
    if size != local_dim:
        raise ValueError(f"dimension mismatch: instrument on {party} has size {size}, party dimension is {local_dim}")


# A projective basis is orthonormal when no entry of |<k_i|k_j> - delta_ij| exceeds this.
_ORTHONORMAL_TOL = 1e-8


def _projective_stack(party: str | tuple, kets: np.ndarray, labels: list) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """The checked projectors and labels of a stack of square bases.

    ``kets`` is (H, K, K) complex, basis h with its kets as rows, measured
    by ``party`` or, when it is a tuple, by ``party[h]``; ``labels[h]``
    names the rows of basis h (None: the default). An empty
    basis and a NaN or an infinite entry are rejected first, so that
    neither reaches the Gram. The whole stack is checked for
    orthonormality, then each label count, then its projectors once by
    ``_check_instruments``, the checker ``__post_init__`` calls. Returns
    the (H, K, K, K) projectors and each basis's label tuple; ``kets`` and
    the projectors become read-only, and no instrument is built.
    """
    dim = kets.shape[-1]
    if not dim:
        raise ValueError("projective basis is empty")
    _require_finite(kets)
    # A finite entry near 1e300 overflows the Gram to inf or NaN, which
    # fails the test below without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        overlap = np.abs(kets.conj() @ kets.swapaxes(1, 2) - np.eye(dim)).max(initial=0.0)
    if not overlap <= _ORTHONORMAL_TOL:
        raise ValueError("projective basis is not orthonormal")
    labels = [_outcome_labels(names, dim) for names in labels]
    projectors = kets[..., :, None] * kets.conj()[..., None, :]
    _check_instruments(party, projectors, labels)
    kets.setflags(write=False)
    projectors.setflags(write=False)
    return projectors, labels


@dataclass(frozen=True, eq=False, init=False)
class ProtocolStep:
    """One protocol round, stored as one read-only operator stack.

    ``ops`` is (H + 1, K, d, d): row 0 is the default instrument and row
    h + 1 the override for history ``histories[h]``, a tuple of labels, in
    the order the file or the ``overrides`` mapping gives them. A row of
    fewer than K outcomes is padded with zero operators; a step with no
    default has a zero row 0 whose ``labels`` entry is empty. ``labels[r]``
    names row r's outcomes, so row r's operators are
    ``ops[r, :len(labels[r])]``, and ``kets[r]`` holds a projective row's
    basis kets (None for a Kraus row). ``row_of`` finds a history's row.
    The rows are the step's only form: no instrument is kept. Steps
    compare by identity.
    """

    party: str
    ops: np.ndarray
    labels: tuple[tuple[str, ...], ...]
    histories: tuple[tuple[str, ...], ...]

    def __init__(
        self,
        party: str,
        instrument: KrausInstrument | None,
        overrides: Mapping[tuple[str, ...], KrausInstrument],
    ):
        """The step of a default ``instrument`` (None: no default) and its
        ``overrides``, history -> instrument; the instruments become its rows.
        A history is a tuple of nonempty str labels, the form of a node's
        path, and every instrument is a ``KrausInstrument`` on ``party``."""
        if instrument is not None and not isinstance(instrument, KrausInstrument):
            raise ValueError(f"default instrument {instrument!r} is not a KrausInstrument")
        if not isinstance(overrides, Mapping):
            raise ValueError(f"overrides must be a history -> instrument mapping, got {type(overrides).__name__}")
        for history, chosen in overrides.items():
            if not isinstance(history, tuple) or not all(isinstance(label, str) and label for label in history):
                raise ValueError(f"override history {history!r} is not a tuple of nonempty str labels")
            if not isinstance(chosen, KrausInstrument):
                raise ValueError(f"override for history {history!r}: {chosen!r} is not a KrausInstrument")
        for chosen in (instrument, *overrides.values()):
            if chosen is not None and chosen.party != party:
                raise ValueError(f"step on {party}: instrument on {chosen.party}")
        self._store(party, instrument, *_stack_instruments(list(overrides.values())), tuple(overrides))

    @classmethod
    def _stacked(
        cls,
        party: str,
        default: KrausInstrument | None,
        ops: np.ndarray,
        labels: list[tuple[str, ...]],
        kets: Sequence[np.ndarray | None],
        histories: Sequence[tuple[str, ...]],
    ) -> "ProtocolStep":
        """The step of ``default`` and the overrides of ``histories``: ``ops``
        (H, K, d, d), row h naming its outcomes ``labels[h]`` and holding the
        basis ``kets[h]`` (None: Kraus)."""
        step = object.__new__(cls)
        step._store(party, default, ops, labels, kets, tuple(histories))
        return step

    def _store(self, party, default, ops, labels, kets, histories) -> None:
        """Stack ``default`` above the override rows ``ops``; the dataclass is
        frozen. A step must measure some history: with no default it needs
        an override."""
        rows = ops.shape[0]
        if default is None and not rows:
            raise ValueError("step needs an 'instrument' or nonempty 'overrides'")
        if default is None:
            width, dim = ops.shape[1:3]
        else:
            width, dim = max(len(default.labels), ops.shape[1]), default.dim
            if rows and ops.shape[-1] != dim:
                raise ValueError(f"step on {party}: default of size {dim}, overrides of size {ops.shape[-1]}")
        stack = np.zeros((rows + 1, width, dim, dim), dtype=complex)
        if default is not None:
            stack[0, : len(default.labels)] = default.ops
        if rows:
            stack[1:, : ops.shape[1]] = ops
        stack.setflags(write=False)
        vars(self).update(
            party=party,
            ops=stack,
            labels=(() if default is None else default.labels, *labels),
            histories=histories,
            _kets=(None if default is None else default.kets, kets),
        )

    @cached_property
    def kets(self) -> tuple[np.ndarray | None, ...]:
        """Each row's basis kets, one ket per outcome; None for a Kraus row.
        Built when first read: a parsed table keeps its kets as one array."""
        default, overrides = self._kets
        return (default, *overrides)

    @cached_property
    def _rows(self) -> dict[tuple[str, ...], int]:
        """history -> override row, read by ``row_of``."""
        return {history: row for row, history in enumerate(self.histories, 1)}

    def row_of(self, history: tuple[str, ...]) -> int:
        """The row that measures ``history``: its override, else 0."""
        return self._rows.get(history, 0)


def _stack_instruments(instruments: list[KrausInstrument]) -> tuple[np.ndarray, list, list]:
    """(H, K, d, d) operators, zero-padded to the widest, with each
    instrument's labels and kets. Every instrument must have one size."""
    sizes = {instrument.dim for instrument in instruments}
    if len(sizes) > 1:
        raise ValueError(f"instruments of one step differ in size: {sorted(sizes)}")
    width = max((len(instrument.labels) for instrument in instruments), default=0)
    dim = sizes.pop() if sizes else 0
    ops = np.zeros((len(instruments), width, dim, dim), dtype=complex)
    for row, instrument in zip(ops, instruments):
        row[: len(instrument.labels)] = instrument.ops
    return ops, [instrument.labels for instrument in instruments], [instrument.kets for instrument in instruments]


def _require_steps(steps) -> tuple[ProtocolStep, ...]:
    """The one type check of a step sequence, a tuple or a list of
    ``ProtocolStep``, given back as a tuple; a ScenarioError names the field."""
    if not isinstance(steps, (tuple, list)):
        raise ScenarioError(f"steps: expected a tuple of ProtocolStep, got {type(steps).__name__}")
    for i, step in enumerate(steps):
        if not isinstance(step, ProtocolStep):
            raise ScenarioError(f"steps[{i}]: {step!r} is not a ProtocolStep")
    return tuple(steps)


def _gap(history: tuple[str, ...]) -> ScenarioError:
    """The error of a history that its step covers with no instrument."""
    return ScenarioError(f"protocol[{len(history)}]: no instrument for history {','.join(history)!r}")


class StepChooser:
    """The chooser of a sequence of ``ProtocolStep``s: history -> instrument.

    ``run_protocol`` reads the steps' stacks instead of calling it, each
    node's row found from its path by ``ProtocolStep.row_of``. A call finds
    the row the same way and builds a new instrument from it. A history past
    the last step is a KeyError, and a history that its step covers with no
    instrument (a row with no labels) a ScenarioError that names the step.
    """

    def __init__(self, steps: Sequence[ProtocolStep]):
        self.steps = _require_steps(steps)

    def __call__(self, history: tuple[str, ...]) -> KrausInstrument:
        if len(history) >= len(self.steps):
            raise KeyError(history)
        step = self.steps[len(history)]
        row = step.row_of(history)
        labels = step.labels[row]
        if not labels:
            raise _gap(history)
        return _checked_instrument(step.party, labels, step.ops[row, : len(labels)], step.kets[row])


def _gram(factors: np.ndarray) -> np.ndarray:
    """Read-only V V^dagger of each matrix V in a stack (..., D, r)."""
    out = factors @ factors.swapaxes(-1, -2).conj()
    out.setflags(write=False)
    return out


def _mixture_gram(factors: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Read-only (N, d, d) sum_x q_x V_x V_x^dagger of each node.

    ``factors`` is (N, M, d, s) and ``scale`` (N, M) holds sqrt(q_x). The
    sum is one Gram W W^dagger, W the scaled factors set side by side, so
    it is PSD by construction.
    """
    n, m, dim, s = factors.shape
    return _gram((factors * scale[:, :, None, None]).swapaxes(1, 2).reshape(n, dim, m * s))


@dataclass(frozen=True, eq=False)
class TreeLevel:
    """One level of the outcome tree as stacked, read-only arrays.

    Node n is one surviving outcome history; member m is the m-th source
    hypothesis of the root ensemble. ``paths`` is built when first read,
    from ``source``: the level above, the stack row that measured each of
    its nodes and each row's outcome labels (None at the root).
    ``run_protocol`` reads the paths of every level but the leaves as it
    builds the tree, so building a level's paths recurses no further than
    the level above.
    """

    prob: np.ndarray  # (N,) path probabilities
    q: np.ndarray  # (N, M) posterior member weights
    factors: np.ndarray  # (N, M, D, r) member factors V, state V V^dagger
    parent: np.ndarray  # (N,) parent index on the level above; -1 at the root
    outcome: np.ndarray  # (N,) outcome index under the parent's instrument; -1 at the root
    source: tuple["TreeLevel", np.ndarray, tuple[tuple[str, ...], ...]] | None = field(default=None, repr=False)

    def __post_init__(self):
        for array in (self.prob, self.q, self.factors, self.parent, self.outcome):
            array.setflags(write=False)

    @cached_property
    def paths(self) -> tuple[tuple[str, ...], ...]:
        """The outcome history of each node, a tuple of labels."""
        if self.source is None:
            return ((),)
        above, rows, labels = self.source
        names = [labels[row] for row in rows.tolist()]
        return tuple(above.paths[n] + (names[n][k],) for n, k in zip(self.parent.tolist(), self.outcome.tolist()))

    def ensemble(self, index: int, dim_a: int, dim_b: int) -> BipartiteEnsemble:
        """Posterior ensemble of node ``index``."""
        return BipartiteEnsemble(
            tuple(
                (p, DensityOperator(dim_a=dim_a, dim_b=dim_b, matrix=state))
                for p, state in zip(self.q[index].tolist(), _gram(self.factors[index]))
            )
        )

    def averages(self) -> np.ndarray:
        """(N, D, D) average state sum_x q_x rho_x of each node; members of
        weight zero or below count as zero."""
        return _mixture_gram(self.factors, np.sqrt(np.where(self.q > 0.0, self.q, 0.0)))


@dataclass(frozen=True, eq=False)
class TreeStats:
    """The entropies and average marginals of every level that the bounds read.

    Entry k of each array belongs to level k. Every entropy is a mean over
    the level's nodes weighted by path probability; nodes of probability
    zero and members of weight zero do not count.
    """

    conditional_entropy: np.ndarray  # (L,) H(X | Y_1..Y_k)
    member_entropy: dict[str, np.ndarray]  # side -> (L,) mean of sum_x q_x S(rho_x^side)
    average_entropy: dict[str, np.ndarray]  # side -> (L,) mean of S(sum_x q_x rho_x^side)
    # side -> level k's (N_k, d, d) sum_x q_x rho_x^side, read-only views of one stack
    average_marginals: dict[str, tuple[np.ndarray, ...]]


def _require_ensemble(ensemble, caller: str) -> None:
    """The ensemble of every tree is a ``BipartiteEnsemble`` or a ``SpectralEnsemble``."""
    if not isinstance(ensemble, (BipartiteEnsemble, SpectralEnsemble)):
        raise ValueError(f"{caller} needs a BipartiteEnsemble or a SpectralEnsemble, got {type(ensemble).__name__}")


def _root_level(ensemble: BipartiteEnsemble | SpectralEnsemble) -> TreeLevel:
    """The root node. A spectral ensemble's kets, and the ``ket`` of each
    member that ``pure_state_density`` built, are rank-one factors; the
    other members are factored by one stacked ``eigh``, as U sqrt(Lambda)
    over their eigenvalues above _RESIDUE_CUT, and every factor is padded
    with zero columns to the largest rank."""
    if isinstance(ensemble, SpectralEnsemble):
        weights, factors = ensemble.weights, ensemble.kets[:, :, None]
    else:
        states = [state for _, state in ensemble.members]
        dense = [i for i, state in enumerate(states) if state.ket is None]
        rank = 1
        if dense:
            values, vectors = np.linalg.eigh(np.stack([states[i].matrix for i in dense]))
            rank = int((values > _RESIDUE_CUT).sum(axis=1).max())
            kept = np.where(values[:, -rank:] > _RESIDUE_CUT, values[:, -rank:], 0.0)
            solved = vectors[:, :, -rank:] * np.sqrt(kept / kept.sum(axis=1, keepdims=True))[:, None, :]
        factors = np.zeros((len(states), ensemble.dim_a * ensemble.dim_b, rank), dtype=complex)
        if dense:
            factors[dense] = solved
        for i, state in enumerate(states):
            if state.ket is not None:
                factors[i, :, 0] = state.ket
        weights = ensemble.probabilities()
    root = np.array([-1])
    return TreeLevel(prob=np.ones(1), q=weights[None], factors=factors[None], parent=root, outcome=root.copy())


# Per party, the axes that bring its index of a level's factors, split as
# (N, M, dim_a, dim_b, r), to the front of each node's, and the axes that
# put it back in place in the product (N, K, d, M, d', r).
_PARTY_AXES = {"A": ((0, 2, 1, 3, 4), (0, 1, 3, 2, 4, 5)), "B": ((0, 3, 1, 2, 4), (0, 1, 3, 4, 2, 5))}


def _expand(level: TreeLevel, step: ProtocolStep, rows: np.ndarray, dims: tuple[int, int]) -> TreeLevel:
    """Children of every node of a level, measured by ``step``: ``rows[n]``
    is the row of ``step.ops`` that measures node n."""
    dim_a, dim_b = dims
    _check_size(step.party, step.ops.shape[-1], dim_a if step.party == "A" else dim_b)
    ops = step.ops[rows]
    n, width, local, _ = ops.shape

    # (N, K, M, D, r): K (x) I or I (x) K applied to every member factor of
    # every node under every outcome, as one (K d) x d by d x (M d' r)
    # product per node: the acting party's index first, the members and the
    # other party's index side by side. Padded outcomes stay zero.
    m, dim, r = level.factors.shape[1:]
    first, back = _PARTY_AXES[step.party]
    side = level.factors.reshape(n, m, dim_a, dim_b, r).transpose(first).reshape(n, local, -1)
    product = ops.reshape(n, width * local, local) @ side
    moved = product.reshape(n, width, local, m, dim // local, r).transpose(back).reshape(n, width, m, dim, r)
    # Checked before the keep-prior rule, which would hide a NaN weight.
    if not np.isfinite(moved).all():
        raise ValueError("non-finite posterior state")
    weight = np.einsum("nkmis,nkmis->nkm", moved, moved.conj()).real
    defined = (weight > _RESIDUE_CUT)[..., None, None]
    scale = np.sqrt(np.where(defined, weight[..., None, None], 1.0))
    posterior_factors = np.where(defined, moved / scale, level.factors[:, None])

    joint = level.q[:, None, :] * weight
    p_outcome = joint.sum(axis=-1)
    kept = p_outcome > ZERO_EIGENVALUE
    if not kept.any(axis=1).all():
        raise ValueError("all outcomes pruned: instrument annihilates the ensemble")
    total = np.where(kept, p_outcome, 0.0).sum(axis=1)
    node, outcome = np.nonzero(kept)
    p_kept = p_outcome[node, outcome]
    posterior = np.clip(joint[node, outcome] / p_kept[:, None], 0.0, None)
    posterior /= posterior.sum(axis=1, keepdims=True)
    return TreeLevel(
        prob=level.prob[node] * (p_kept / total[node]),
        q=posterior,
        factors=posterior_factors[node, outcome],
        parent=node,
        outcome=outcome,
        source=(level, rows, step.labels),
    )


def _pure_qubit_marginals(psi: np.ndarray, abs2: np.ndarray, counted: np.ndarray) -> np.ndarray:
    """Member marginal entropies of pure members of a 2x2 system, (N, M).

    ``psi`` (4, N, M) holds each member's amplitudes psi_00, psi_01, psi_10,
    psi_11 as four planes and ``abs2`` their |psi_ij|^2, which
    ``_pure_qubit_averages`` shares. No member marginal is built. A
    member's marginal spectrum is the same on both sides,
    (t +- sqrt(t^2 - 4 |det psi|^2)) / 2 with psi its 2x2 coefficient
    matrix and t = ||psi||_F^2; the small root is written as
    2 |det psi|^2 / (t + sqrt(...)). Every member is solved and those that
    ``counted`` leaves out are set to 0 afterwards: a gather of the counted
    ones would cost more than the few it skips, and every factor has unit
    norm, so no row of the solve is 0/0.
    """
    t = abs2[0] + abs2[1] + abs2[2] + abs2[3]
    det = np.abs(psi[0] * psi[3] - psi[1] * psi[2]) ** 2
    upper = t + np.sqrt(np.maximum(t * t - 4.0 * det, 0.0))
    member = shannon_entropies(np.stack([2.0 * det / upper, 0.5 * upper], axis=-1).reshape(-1, 2))
    return np.where(counted, member.reshape(counted.shape), 0.0)


def _pure_qubit_averages(psi: np.ndarray, abs2: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Read-only (2, N, 2, 2) average marginals, side A then side B, of pure
    members of a 2x2 system, from the planes of ``_pure_qubit_marginals``.

    Entry (i, i') of side A sums w psi_ij conj(psi_i'j) over the members and
    j, and entry (j, j') of side B sums w psi_ij conj(psi_ij') over the
    members and i, w the ``weights`` (N, M); each sum over the members is
    one einsum with the member axis innermost.
    """
    p00, p01, p10, p11 = psi
    diag = np.einsum("nm,snm->sn", weights, abs2)
    cross = np.stack([p00 * p10.conj() + p01 * p11.conj(), p00 * p01.conj() + p10 * p11.conj()])
    cross = np.einsum("nm,snm->sn", weights, cross)
    out = np.empty((2, psi.shape[1], 2, 2), dtype=complex)
    out[0, :, 0, 0], out[0, :, 1, 1] = diag[0] + diag[1], diag[2] + diag[3]
    out[1, :, 0, 0], out[1, :, 1, 1] = diag[0] + diag[2], diag[1] + diag[3]
    out[:, :, 0, 1], out[:, :, 1, 0] = cross, cross.conj()
    out.setflags(write=False)
    return out


def _level_stats(levels: Sequence[TreeLevel], dims: tuple[int, int]) -> TreeStats:
    """The ``TreeStats`` of a sequence of levels, from one pass over all their nodes.

    Every level of a tree shares one (M, D, r), so the levels are joined
    along the node axis (a lone root is used as it is, not copied) and each
    per-node entropy, and each side's average marginals, come from one call
    over the whole tree: ``_pure_qubit_averages`` for pure members of a 2x2
    system, the member Grams and one product over the members for every
    other shape, with one copy of the factors. The per-level means
    are one ``bincount`` over the live nodes, which adds each level's terms
    in node order, as a pass over the level alone does, and a level's
    average marginals are read-only views of the tree-wide stacks.
    """
    dim_a, dim_b = dims
    sizes = [len(level.prob) for level in levels]
    spans = [slice(start, stop) for start, stop in itertools.pairwise(itertools.accumulate(sizes, initial=0))]
    prob, q, factors = (
        arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        for arrays in zip(*((level.prob, level.q, level.factors) for level in levels))
    )
    live = prob > 0.0
    level_live, prob_live = np.repeat(np.arange(len(sizes)), sizes)[live], prob[live]

    def means(values: np.ndarray) -> np.ndarray:
        """Path-probability-weighted mean over each level's live nodes, (L,)."""
        return np.bincount(level_live, weights=prob_live * values[live], minlength=len(sizes))

    weights = np.where(q > 0.0, q, 0.0)
    counted = live[:, None] & (q > 0.0)
    n, m, _, r = factors.shape
    split = factors.reshape(n, m, dim_a, dim_b, r)
    if r == 1 and dims == (2, 2):
        psi = np.moveaxis(factors.reshape(n, m, 4), -1, 0).copy()
        abs2 = psi.real**2 + psi.imag**2
        member = {"A": _pure_qubit_marginals(psi, abs2, counted)}
        # Both sides' average marginals in one stack, and so in one call of
        # the elementwise closed form: each side's entropies as alone.
        stacked = _pure_qubit_averages(psi, abs2, weights)
        averages = dict(zip(PARTIES, stacked))
        spectra = dict(zip(PARTIES, von_neumann_entropies(stacked)))
    else:
        # Member Grams X X^dagger, X the factor as (dim_a, dim_b * r); side A
        # averages them, and side B's average is sum_x X_x^T (w_x conj X_x),
        # one product. conj X is the one copy of the factors.
        x = split.reshape(n, m, dim_a, dim_b * r)
        conj = x.conj()
        grams = {"A": x @ conj.swapaxes(-1, -2)}
        conj *= weights[:, :, None, None]
        inner = (n, m * dim_a, dim_b, r)
        averages = {
            "A": (weights[:, None, :] @ grams["A"].reshape(n, m, -1)).reshape(n, dim_a, dim_a),
            "B": x.reshape(inner).transpose(0, 2, 1, 3).reshape(n, dim_b, -1)
            @ conj.reshape(inner).transpose(0, 1, 3, 2).reshape(n, -1, dim_b),
        }
        del conj
        if r > 1:
            grams["B"] = _gram(split.swapaxes(2, 3).reshape(n, m, dim_b, dim_a * r))
        # Every member is solved, and those that ``counted`` leaves out are
        # set to 0 afterwards: a gather of the counted ones would copy the stack.
        member = {side: np.where(counted, von_neumann_entropies(gram), 0.0) for side, gram in grams.items()}
        spectra = {side: von_neumann_entropies(average) for side, average in averages.items()}
    member_entropy, average_entropy, average_marginals = {}, {}, {}
    for side in PARTIES:
        averages[side].setflags(write=False)
        # Pure members (r = 1) have S(rho_A) = S(rho_B): side B reuses side A's mean.
        pure_b = side == "B" and r == 1
        member_entropy[side] = member_entropy["A"] if pure_b else means((weights * member[side]).sum(axis=1))
        average_entropy[side] = means(spectra[side])
        average_marginals[side] = tuple(averages[side][span] for span in spans)
    return TreeStats(
        conditional_entropy=means(shannon_entropies(q)),
        member_entropy=member_entropy,
        average_entropy=average_entropy,
        average_marginals=average_marginals,
    )


@dataclass(frozen=True, repr=False)
class ProtocolNode:
    """One outcome history of a transcript, as a view built on demand."""

    transcript: "ProtocolTranscript"
    level: int
    index: int

    def __repr__(self) -> str:
        return f"ProtocolNode(path={self.path!r}, probability={self.probability!r})"

    @property
    def path(self) -> tuple[str, ...]:
        return self.transcript.levels[self.level].paths[self.index]

    @property
    def probability(self) -> float:
        return float(self.transcript.levels[self.level].prob[self.index])

    @property
    def ensemble(self) -> BipartiteEnsemble:
        root = self.transcript.root_ensemble
        return self.transcript.levels[self.level].ensemble(self.index, root.dim_a, root.dim_b)

    @property
    def children(self) -> tuple["ProtocolNode", ...]:
        if self.level == self.transcript.depth:
            return ()
        below = self.transcript.levels[self.level + 1]
        return tuple(
            ProtocolNode(self.transcript, self.level + 1, int(i))
            for i in np.flatnonzero(below.parent == self.index)
        )


@dataclass(frozen=True, eq=False)
class ProtocolTranscript:
    """Full outcome tree of a protocol: one ``TreeLevel`` per level, and the
    ``TreeStats`` whose entry k belongs to level k; depth = number of rounds."""

    levels: tuple[TreeLevel, ...]
    stats: TreeStats
    round_parties: tuple[str, ...]
    root_ensemble: BipartiteEnsemble | SpectralEnsemble

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def root(self) -> ProtocolNode:
        return ProtocolNode(self, 0, 0)

    def leaves(self) -> list[ProtocolNode]:
        return [ProtocolNode(self, self.depth, i) for i in range(len(self.levels[-1].prob))]


def _adapted(chooser, level: TreeLevel, k: int, dims: tuple[int, int]) -> ProtocolStep:
    """Round ``k`` from a Mapping or a callable ``chooser``, asked once per
    node of ``level`` in level order; each answer's type and party are
    checked as it comes and every size once all have come. The step has no
    default and one override row per node path."""
    lookup = chooser if callable(chooser) else chooser.__getitem__
    instruments: list[KrausInstrument] = []
    for path in level.paths:
        try:
            instrument = lookup(path)
        except KeyError:
            raise ValueError(f"chooser undefined for history {path!r}") from None
        if not isinstance(instrument, KrausInstrument):
            raise ValueError(f"chooser answer for history {path!r}: {instrument!r} is not a KrausInstrument")
        if instruments and instrument.party != instruments[0].party:
            raise ValueError(
                f"round {k}: party {instrument.party!r} conflicts with "
                f"{instruments[0].party!r} chosen on another branch"
            )
        instruments.append(instrument)
    party = instruments[0].party
    for instrument in instruments:
        _check_size(party, instrument.dim, dims[PARTIES.index(party)])
    return ProtocolStep._stacked(party, None, *_stack_instruments(instruments), level.paths)


def run_protocol(
    ensemble: BipartiteEnsemble | SpectralEnsemble,
    chooser: Mapping[tuple[str, ...], KrausInstrument] | Callable[[tuple[str, ...]], KrausInstrument],
    depth: int,
) -> ProtocolTranscript:
    """Build the outcome tree of an adaptive protocol, one level at a time.

    ``ensemble`` is a ``BipartiteEnsemble`` or a ``SpectralEnsemble``.
    ``chooser`` maps each outcome history (tuple of labels, one per earlier
    round) to the instrument for the next round; a callable models classical
    communication by inspecting the whole history. Every reachable history
    up to ``depth`` must be covered. Within one round every branch must be
    measured by the same party, so each round has a well-defined acting
    party. Every round is a ``ProtocolStep``: a ``StepChooser``'s own steps,
    else one that ``_adapted`` builds by asking the chooser once per node
    (any other chooser, and a ``StepChooser`` past its last step). Each
    node's row is found from its path by ``ProtocolStep.row_of``.
    """
    _require_ensemble(ensemble, "run_protocol")
    if not (callable(chooser) or isinstance(chooser, Mapping)):
        raise ValueError(f"chooser must be a StepChooser, a Mapping or a callable, got {type(chooser).__name__}")
    _require_integer(depth, "depth")
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    dims = (ensemble.dim_a, ensemble.dim_b)
    steps = iter(chooser.steps if isinstance(chooser, StepChooser) else ())
    levels = [_root_level(ensemble)]
    round_parties: list[str] = []
    for k in range(1, depth + 1):
        level = levels[-1]
        step = next(steps, None) or _adapted(chooser, level, k, dims)
        rows = list(map(step.row_of, level.paths))
        if not step.labels[0] and 0 in rows:
            raise _gap(level.paths[rows.index(0)])
        round_parties.append(step.party)
        levels.append(_expand(level, step, np.array(rows), dims))
    return ProtocolTranscript(
        levels=tuple(levels),
        stats=_level_stats(levels, dims),
        round_parties=tuple(round_parties),
        root_ensemble=ensemble,
    )


def _require_transcript(transcript) -> None:
    """The transcript of every report and of each reading of it is a ``ProtocolTranscript``."""
    if not isinstance(transcript, ProtocolTranscript):
        raise ValueError(f"transcript must be a ProtocolTranscript, got {type(transcript).__name__}")


def chain_mutual_information(transcript: ProtocolTranscript) -> tuple[list[float], float]:
    """Per-round and total mutual information between hypothesis and record.

    Round k contributes I(X; Y_k | Y_1..Y_{k-1}) = H(X|Y_{<k}) - H(X|Y_{<=k});
    the terms telescope to the total I(X; Y_1..Y_n).
    """
    _require_transcript(transcript)
    level_entropy = transcript.stats.conditional_entropy
    return (level_entropy[:-1] - level_entropy[1:]).tolist(), float(level_entropy[0] - level_entropy[-1])


def average_output_entanglement(transcript: ProtocolTranscript) -> float:
    """Mean entanglement of the leaf-average states, weighted by path probability."""
    _require_transcript(transcript)
    leaves = transcript.levels[-1]
    live = leaves.prob > 0.0
    root = transcript.root_ensemble
    states = leaves.averages()[live]
    return float(leaves.prob[live] @ entanglements(states, root.dim_a, root.dim_b))


def _member_entanglement(root: TreeLevel, dims: tuple[int, int]) -> float:
    """Weighted entanglement of the root's members, rebuilt from their factors."""
    live = root.q[0] > 0.0
    return float(root.q[0][live] @ entanglements(_gram(root.factors[0][live]), *dims))


def entropy_summary(ensemble: BipartiteEnsemble | SpectralEnsemble) -> dict[str, float]:
    """S, S_A, S_B of the average state plus the global Holevo quantity.

    Reads a ``BipartiteEnsemble`` or a ``SpectralEnsemble`` off its root,
    with S_A and S_B from ``_level_stats``. For a ``BipartiteEnsemble``, S
    comes from the average state and each member's entropy from the r x r
    Gram V^dagger V of its factor. A ``SpectralEnsemble``'s kets are
    orthonormal and pure, so S is the root's H(weights) and equals the
    Holevo quantity; no D x D matrix is solved.
    """
    _require_ensemble(ensemble, "entropy_summary")
    root = _root_level(ensemble)
    stats = _level_stats((root,), (ensemble.dim_a, ensemble.dim_b))
    if isinstance(ensemble, SpectralEnsemble):
        entropy = holevo = float(stats.conditional_entropy[0])
    else:
        entropy = float(von_neumann_entropies(root.averages()[0]))
        members = von_neumann_entropies(_gram(root.factors[0].swapaxes(-1, -2).conj()))
        holevo = entropy - float(np.where(root.q[0] > 0.0, root.q[0], 0.0) @ members)
    return {
        "entropy_average": entropy,
        "entropy_a": float(stats.average_entropy["A"][0]),
        "entropy_b": float(stats.average_entropy["B"][0]),
        "holevo": holevo,
    }


@dataclass(frozen=True)
class BoundReport:
    """Measured protocol quantities and every upper bound with its slack.

    ``bounds`` maps each bound's report name to its value, in the order that
    ``bound_suite`` lists them. The two step-refined bounds need at least
    one measurement round and are None on depth-zero transcripts.
    """

    i_locc: float
    per_round_info: tuple[float, ...]
    e_in_avg: float
    e_out_avg: float
    n_qubits: float
    bounds: dict[str, float | None]

    def slacks(self) -> dict[str, float | None]:
        return {name: None if value is None else value - self.i_locc for name, value in self.bounds.items()}


def bound_suite(transcript: ProtocolTranscript) -> BoundReport:
    """Evaluate every upper bound on the protocol's mutual information.

    The report's ``bounds`` holds them under these names, in this order:
    local_holevo:     S(rho^A) + S(rho^B) - max over sides of the mean
                      member marginal entropy; protocol independent.
    last_step:        refinement subtracting the leaf-average marginal
                      entropy on the last acting party's side, with the mean
                      member term moved to the opposite side.
    next_to_last_step: the interchanged variant, whose final term sits one
                      level above the leaves on the distant party's side.
    output_adjusted:  local_holevo minus the average output entanglement.
    complementarity:  total qubits minus average input minus average output
                      entanglement; extracted plus unused information cannot
                      exceed the ensemble's fixed budget.

    Each leaf average, and each input member of a root of rank r > 1, is
    measured by ``entropy.entanglements``, whose measure follows the state.
    The members of a rank-one root are pure, and their mean entanglement
    is the root's side-A mean member entropy, read from the stats.
    """
    _require_transcript(transcript)
    root = transcript.root_ensemble
    stats = transcript.stats
    entropy_a, entropy_b = (float(stats.average_entropy[side][0]) for side in PARTIES)
    mean_member = {side: float(values[0]) for side, values in stats.member_entropy.items()}

    per_round, total_info = chain_mutual_information(transcript)
    e_out = average_output_entanglement(transcript)
    # A pure member's entanglement is its marginal entropy, whose mean the root's stats hold.
    if transcript.levels[0].factors.shape[-1] == 1:
        e_in = float(stats.member_entropy["A"][0])
    else:
        e_in = _member_entanglement(transcript.levels[0], (root.dim_a, root.dim_b))
    n_qubits = float(np.log2(root.dim_a * root.dim_b))

    local_holevo = entropy_a + entropy_b - max(mean_member["A"], mean_member["B"])

    last_step = None
    next_to_last = None
    if transcript.depth >= 1:
        last_party = transcript.round_parties[-1]
        distant = _other(last_party)
        leaf_term = float(stats.average_entropy[last_party][-1])
        last_step = entropy_a + entropy_b - mean_member[distant] - leaf_term
        prev_term = float(stats.average_entropy[distant][-2])
        next_to_last = entropy_a + entropy_b - mean_member[last_party] - prev_term

    return BoundReport(
        i_locc=total_info,
        per_round_info=tuple(per_round),
        e_in_avg=e_in,
        e_out_avg=e_out,
        n_qubits=n_qubits,
        bounds={
            "local_holevo": local_holevo,
            "last_step": last_step,
            "next_to_last_step": next_to_last,
            "output_adjusted": local_holevo - e_out,
            "complementarity": n_qubits - e_in - e_out,
        },
    )


@dataclass(frozen=True)
class RoundAudit:
    """Per-round consistency record for one measurement step.

    holevo_slack checks that the information gained in the round does not
    exceed the drop in the acting side's average Holevo quantity.
    distant_marginal_deviation checks that the distant party's conditional
    average state is untouched by the round. entropy_drop_slack checks that
    the acting side's average member-entropy drop is at least the distant
    side's.
    """

    round: int
    party: str
    info: float
    chi_before: float
    chi_after: float
    holevo_slack: float
    distant_marginal_deviation: float
    local_entropy_drop: float
    distant_entropy_drop: float
    entropy_drop_slack: float


def _marginal_deviation(parents: TreeLevel, children: TreeLevel, before: np.ndarray, after: np.ndarray) -> float:
    """Largest entry change of one side's conditional average state over a round.

    ``before`` holds the parents' marginals, ``after`` the children's; the
    children of each parent are averaged with their conditional weights.
    """
    weights = children.prob / parents.prob[children.parent]
    averaged = np.zeros_like(before)
    np.add.at(averaged, children.parent, weights[:, None, None] * after)
    live = parents.prob > 0.0
    return float(np.abs(before - averaged)[live].max(initial=0.0))


def audit_rounds(transcript: ProtocolTranscript) -> list[RoundAudit]:
    """Audit every measurement round of a transcript."""
    _require_transcript(transcript)
    per_round, _ = chain_mutual_information(transcript)
    stats = transcript.stats
    # Per side, each level's mean Holevo quantity of the nodes' marginal
    # ensembles, and each round's drop in mean member entropy.
    chi = {side: (stats.average_entropy[side] - stats.member_entropy[side]).tolist() for side in PARTIES}
    drop = {side: (values[:-1] - values[1:]).tolist() for side, values in stats.member_entropy.items()}
    audits = []
    for k in range(1, transcript.depth + 1):
        party = transcript.round_parties[k - 1]
        distant = _other(party)
        chi_before, chi_after = chi[party][k - 1], chi[party][k]
        info = per_round[k - 1]
        marginals = stats.average_marginals[distant]
        deviation = _marginal_deviation(transcript.levels[k - 1], transcript.levels[k], marginals[k - 1], marginals[k])
        local_drop, distant_drop = drop[party][k - 1], drop[distant][k - 1]
        audits.append(
            RoundAudit(
                round=k,
                party=party,
                info=info,
                chi_before=chi_before,
                chi_after=chi_after,
                holevo_slack=chi_before - chi_after - info,
                distant_marginal_deviation=deviation,
                local_entropy_drop=local_drop,
                distant_entropy_drop=distant_drop,
                entropy_drop_slack=local_drop - distant_drop,
            )
        )
    return audits
