"""LOCC measurement protocols: outcome trees, mutual information, bounds.

A protocol is a sequence of local measurement rounds with the classical
record shared after every round. Instruments are Kraus-operator valued so
posterior ensembles are well defined. Every bound of the suite is
evaluated from the protocol's outcome tree.

Level-array layout
------------------
The transcript stores the tree level by level as stacked arrays
(``TreeLevel``). Level k holds one node per surviving outcome history of
k rounds, N_k nodes over M hypotheses on a D = dim_a * dim_b system:

    prob    (N_k,)           path probabilities
    q       (N_k, M)         posterior member weights
    states  (N_k, M, D, D)   normalized posterior member states
    parent  (N_k,)           index of the node's parent on level k - 1
    paths   N_k tuples       outcome histories

A level is expanded in one batched pass. The chooser is called once per
node; the embedded Kraus operators are stacked as (N, K, D, D), nodes with
fewer outcomes padded with zero operators, and all (node, outcome, member)
products come from one matmul whose (N, K, M, D, D) buffer lives only
while its level is expanded. The checks of the one-node update
(``measure_branch`` is its N = 1 case) are kept: member weights come from
the trace, posteriors follow Bayes' rule, a hypothesis whose outcome weight
is at most _MEMBER_EPS keeps its prior state, outcomes below PRUNE_TOL are
pruned and the survivors renormalized, a node that loses every outcome is
an error, and every posterior passes ``validate_densities`` (one
``eigvalsh`` per level; rounding-level negative eigenvalues are clipped,
larger ones rejected).

``LevelStats`` holds what the bounds and the audit read of a level:
H(X | Y_1..Y_k), and per side the mean member-marginal entropy, the mean
average-marginal entropy and the average marginals. ``run_protocol``
computes it once per level with one stacked ``eigvalsh`` per (level,
side) and entropy family; ``chain_mutual_information``, ``bound_suite``
and ``audit_rounds`` only read it. ``ProtocolNode`` is a view of one node,
built on demand for callers that walk the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .entropy import (
    BipartiteEnsemble,
    MEASURE_AUTO,
    entanglements,
    shannon_entropies,
    von_neumann_entropies,
)
from .linalg import DEFAULT_TOL, DensityOperator, hermitize, partial_trace, validate_densities

PRUNE_TOL = 1e-12
# Member-conditional outcome weights below this leave the posterior state
# undefined (0/0); such hypotheses keep their prior state at weight zero.
_MEMBER_EPS = 1e-14

PARTIES = ("A", "B")


def _other(party: str) -> str:
    return "B" if party == "A" else "A"


@dataclass(frozen=True)
class KrausInstrument:
    """One local measurement step: acting party plus labelled Kraus operators.

    The operators act on the party's subsystem alone and must satisfy the
    completeness relation sum_k K_k^dagger K_k = I within 1e-9. An
    instrument built by ``projective`` also keeps its basis kets, one row
    per outcome, as the read-only ``kets``; every other instrument has
    ``kets`` None.
    """

    party: str
    outcomes: tuple[tuple[str, np.ndarray], ...]
    kets: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.party not in PARTIES:
            raise ValueError(f"party must be 'A' or 'B', got {self.party!r}")
        if not self.outcomes:
            raise ValueError("instrument needs at least one outcome")
        outcomes = []
        dim = None
        accum = None
        labels = set()
        for label, op in self.outcomes:
            label = str(label)
            if label in labels:
                raise ValueError(f"duplicate outcome label {label!r}")
            labels.add(label)
            op = np.array(op, dtype=complex)
            if op.ndim != 2 or op.shape[0] != op.shape[1]:
                raise ValueError(f"outcome {label!r}: Kraus operator must be square, got {op.shape}")
            if dim is None:
                dim = op.shape[0]
                accum = np.zeros((dim, dim), dtype=complex)
            elif op.shape[0] != dim:
                raise ValueError(f"outcome {label!r}: size {op.shape[0]} != {dim}")
            accum += op.conj().T @ op
            op.setflags(write=False)
            outcomes.append((label, op))
        completeness = np.abs(accum - np.eye(dim)).max()
        if not completeness <= DEFAULT_TOL:
            raise ValueError(
                f"incomplete instrument: max |sum K^dagger K - I| = {completeness:.3e}"
            )
        object.__setattr__(self, "outcomes", tuple(outcomes))

    @property
    def dim(self) -> int:
        return self.outcomes[0][1].shape[0]

    @classmethod
    def projective(cls, party: str, basis, labels=None) -> "KrausInstrument":
        """Rank-one projective instrument from an orthonormal basis.

        ``basis`` is a square array whose rows are the basis kets; labels
        default to "0", "1", ...
        """
        kets = np.array(basis, dtype=complex)
        if kets.ndim != 2 or kets.shape[0] != kets.shape[1]:
            raise ValueError(f"projective basis must be square, got {kets.shape}")
        if not np.abs(kets.conj() @ kets.T - np.eye(len(kets))).max() <= 1e-8:
            raise ValueError("projective basis is not orthonormal")
        if labels is None:
            labels = [str(i) for i in range(len(kets))]
        if len(labels) != len(kets):
            raise ValueError(f"{len(labels)} labels for {len(kets)} basis vectors")
        projectors = kets[:, :, None] * kets.conj()[:, None, :]
        instrument = cls(party=party, outcomes=tuple(zip(map(str, labels), projectors)))
        kets.setflags(write=False)
        object.__setattr__(instrument, "kets", kets)
        return instrument


@dataclass(frozen=True, eq=False)
class TreeLevel:
    """One level of the outcome tree as stacked, read-only arrays.

    Node n is one surviving outcome history; member m is the m-th source
    hypothesis of the root ensemble.
    """

    prob: np.ndarray  # (N,) path probabilities
    q: np.ndarray  # (N, M) posterior member weights
    states: np.ndarray  # (N, M, D, D) normalized posterior member states
    parent: np.ndarray  # (N,) parent index on the level above; -1 at the root
    paths: tuple[tuple[str, ...], ...]  # outcome history of each node

    def __post_init__(self):
        for array in (self.prob, self.q, self.states, self.parent):
            array.setflags(write=False)

    def ensemble(self, index: int, dim_a: int, dim_b: int) -> BipartiteEnsemble:
        """Posterior ensemble of node ``index``."""
        return BipartiteEnsemble(
            tuple(
                (p, DensityOperator(dim_a=dim_a, dim_b=dim_b, matrix=state))
                for p, state in zip(self.q[index].tolist(), self.states[index])
            )
        )


@dataclass(frozen=True, eq=False)
class LevelStats:
    """The entropies and average states of one level that the bounds read.

    Every entropy is a mean over the level's nodes weighted by path
    probability; nodes of probability zero and members of weight zero do
    not count.
    """

    conditional_entropy: float  # H(X | Y_1..Y_k)
    member_entropy: dict[str, float]  # side -> mean of sum_x q_x S(rho_x^side)
    average_entropy: dict[str, float]  # side -> mean of S(sum_x q_x rho_x^side)
    averages: np.ndarray  # (N, D, D) average state of each node
    average_marginals: dict[str, np.ndarray]  # side -> (N, d, d) its marginals

    def chi(self, side: str) -> float:
        """Mean Holevo quantity of the nodes' marginal ensembles on ``side``."""
        return self.average_entropy[side] - self.member_entropy[side]


def _root_level(ensemble: BipartiteEnsemble) -> TreeLevel:
    return TreeLevel(
        prob=np.ones(1),
        q=ensemble.probabilities()[None],
        states=np.stack([state.matrix for _, state in ensemble.members])[None],
        parent=np.array([-1]),
        paths=((),),
    )


def _expand(
    level: TreeLevel,
    instruments: list[KrausInstrument],
    dims: tuple[int, int],
    prune_tol: float,
) -> TreeLevel:
    """Children of every node of a level; ``instruments[n]`` measures node n.

    All instruments act on the same party.
    """
    dim_a, dim_b = dims
    party = instruments[0].party
    local_dim = dim_a if party == "A" else dim_b
    width = max(len(instrument.outcomes) for instrument in instruments)
    ops = np.zeros((len(instruments), width, local_dim, local_dim), dtype=complex)
    for n, instrument in enumerate(instruments):
        if instrument.dim != local_dim:
            raise ValueError(
                f"dimension mismatch: instrument on {instrument.party} has size {instrument.dim}, "
                f"party dimension is {local_dim}"
            )
        for k, (_, op) in enumerate(instrument.outcomes):
            ops[n, k] = op
    # K (x) I for party A, I (x) K for party B; padded outcomes stay zero.
    if party == "A":
        embedded = np.einsum("nkij,ab->nkiajb", ops, np.eye(dim_b))
    else:
        embedded = np.einsum("ab,nkij->nkaibj", np.eye(dim_a), ops)
    dim = dim_a * dim_b
    embedded = embedded.reshape(len(instruments), width, 1, dim, dim)

    # (N, K, M, D, D): every member of every node under every outcome.
    raw = embedded @ level.states[:, None] @ embedded.swapaxes(-1, -2).conj()
    weight = np.trace(raw, axis1=-2, axis2=-1).real
    defined = weight > _MEMBER_EPS
    raw[defined] = validate_densities(hermitize(raw[defined] / weight[defined][:, None, None]))
    raw[~defined] = np.broadcast_to(level.states[:, None], raw.shape)[~defined]

    joint = level.q[:, None, :] * np.maximum(weight, 0.0)
    p_outcome = joint.sum(axis=-1)
    kept = p_outcome >= prune_tol
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
        states=raw[node, outcome],
        parent=node,
        paths=tuple(
            level.paths[n] + (instruments[n].outcomes[k][0],)
            for n, k in zip(node.tolist(), outcome.tolist())
        ),
    )


def _level_stats(level: TreeLevel, dims: tuple[int, int]) -> LevelStats:
    live = level.prob > 0.0
    prob = level.prob[live]
    weights = np.where(level.q > 0.0, level.q, 0.0)
    counted = live[:, None] & (level.q > 0.0)
    averages = hermitize(np.einsum("nm,nmij->nij", weights, level.states))
    member_entropy, average_entropy, average_marginals = {}, {}, {}
    for side in PARTIES:
        member = np.zeros(level.q.shape)
        member[counted] = von_neumann_entropies(partial_trace(level.states[counted], side, dims))
        member_entropy[side] = float(prob @ (weights * member).sum(axis=1)[live])
        average_marginals[side] = partial_trace(averages, side, dims)
        average_entropy[side] = float(prob @ von_neumann_entropies(average_marginals[side][live]))
    return LevelStats(
        conditional_entropy=float(prob @ shannon_entropies(level.q[live])),
        member_entropy=member_entropy,
        average_entropy=average_entropy,
        averages=averages,
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
    def party(self) -> str | None:
        """Party whose measurement produced this node; None at the root."""
        return self.transcript.round_parties[self.level - 1] if self.level else None

    @property
    def ensemble(self) -> BipartiteEnsemble:
        root = self.transcript.root_ensemble
        if self.level == 0:
            return root
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
    """Full outcome tree of a protocol, one ``TreeLevel`` and one
    ``LevelStats`` per level; depth = number of rounds."""

    levels: tuple[TreeLevel, ...]
    stats: tuple[LevelStats, ...]
    round_parties: tuple[str, ...]
    root_ensemble: BipartiteEnsemble

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def root(self) -> ProtocolNode:
        return ProtocolNode(self, 0, 0)

    def nodes_at(self, depth: int) -> list[ProtocolNode]:
        return [ProtocolNode(self, depth, i) for i in range(len(self.levels[depth].prob))]

    def leaves(self) -> list[ProtocolNode]:
        return self.nodes_at(self.depth)


def measure_branch(
    ensemble: BipartiteEnsemble,
    instrument: KrausInstrument,
    prune_tol: float = PRUNE_TOL,
) -> list[tuple[str, float, BipartiteEnsemble]]:
    """Apply one local instrument to every hypothesis of an ensemble.

    Returns (label, outcome probability, posterior ensemble) per outcome.
    Kraus operators are embedded as K (x) I for party A and I (x) K for
    party B. Outcomes below ``prune_tol`` are pruned and the survivors
    renormalized; posterior member weights follow Bayes' rule. This is the
    one-node case of the level expansion in ``run_protocol``.
    """
    dims = (ensemble.dim_a, ensemble.dim_b)
    children = _expand(_root_level(ensemble), [instrument], dims, prune_tol)
    return [
        (path[-1], float(p), children.ensemble(i, *dims))
        for i, (path, p) in enumerate(zip(children.paths, children.prob))
    ]


def run_protocol(
    ensemble: BipartiteEnsemble,
    chooser: Mapping[tuple[str, ...], KrausInstrument] | Callable[[tuple[str, ...]], KrausInstrument],
    depth: int,
) -> ProtocolTranscript:
    """Build the outcome tree of an adaptive protocol, one level at a time.

    ``chooser`` maps each outcome history (tuple of labels, one per earlier
    round) to the instrument for the next round; a callable models classical
    communication by inspecting the whole history. Every reachable history
    up to ``depth`` must be covered. Within one round every branch must be
    measured by the same party, so each round has a well-defined acting
    party.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    lookup = chooser if callable(chooser) else chooser.__getitem__
    dims = (ensemble.dim_a, ensemble.dim_b)
    levels = [_root_level(ensemble)]
    round_parties: list[str] = []
    for round_index in range(1, depth + 1):
        instruments = []
        for path in levels[-1].paths:
            try:
                instrument = lookup(path)
            except KeyError:
                raise ValueError(f"chooser undefined for history {path!r}") from None
            if instruments and instrument.party != instruments[0].party:
                raise ValueError(
                    f"round {round_index}: party {instrument.party!r} conflicts with "
                    f"{instruments[0].party!r} chosen on another branch"
                )
            instruments.append(instrument)
        round_parties.append(instruments[0].party)
        levels.append(_expand(levels[-1], instruments, dims, PRUNE_TOL))
    return ProtocolTranscript(
        levels=tuple(levels),
        stats=tuple(_level_stats(level, dims) for level in levels),
        round_parties=tuple(round_parties),
        root_ensemble=ensemble,
    )


def chain_mutual_information(transcript: ProtocolTranscript) -> tuple[list[float], float]:
    """Per-round and total mutual information between hypothesis and record.

    Round k contributes I(X; Y_k | Y_1..Y_{k-1}) = H(X|Y_{<k}) - H(X|Y_{<=k});
    the terms telescope to the total I(X; Y_1..Y_n).
    """
    level_entropy = [stats.conditional_entropy for stats in transcript.stats]
    per_round = [level_entropy[k - 1] - level_entropy[k] for k in range(1, transcript.depth + 1)]
    return per_round, level_entropy[0] - level_entropy[-1]


def average_output_entanglement(transcript: ProtocolTranscript, selector: str = MEASURE_AUTO) -> float:
    """Mean entanglement of the leaf-average states, weighted by path probability."""
    leaves = transcript.levels[-1]
    live = leaves.prob > 0.0
    root = transcript.root_ensemble
    states = validate_densities(transcript.stats[-1].averages[live])
    return float(leaves.prob[live] @ entanglements(states, root.dim_a, root.dim_b, selector))


def average_input_entanglement(ensemble: BipartiteEnsemble, selector: str = MEASURE_AUTO) -> float:
    """Probability-weighted entanglement of the initial hypothesis states."""
    probs = ensemble.probabilities()
    live = probs > 0.0
    states = np.stack([state.matrix for _, state in ensemble.members])[live]
    return float(probs[live] @ entanglements(states, ensemble.dim_a, ensemble.dim_b, selector))


@dataclass(frozen=True)
class BoundReport:
    """Measured protocol quantities and every upper bound with its slack.

    The two step-refined bounds need at least one measurement round and are
    None on depth-zero transcripts.
    """

    i_locc: float
    per_round_info: tuple[float, ...]
    e_in_avg: float
    e_out_avg: float
    n_qubits: float
    bound_local_holevo: float
    bound_last_step: float | None
    bound_next_to_last: float | None
    bound_output_adjusted: float
    bound_complementarity: float

    def bounds(self) -> dict[str, float | None]:
        return {
            "local_holevo": self.bound_local_holevo,
            "last_step": self.bound_last_step,
            "next_to_last_step": self.bound_next_to_last,
            "output_adjusted": self.bound_output_adjusted,
            "complementarity": self.bound_complementarity,
        }

    def slacks(self) -> dict[str, float | None]:
        return {
            name: (None if value is None else value - self.i_locc)
            for name, value in self.bounds().items()
        }


def bound_suite(
    transcript: ProtocolTranscript,
    selector_in: str = MEASURE_AUTO,
    selector_out: str = MEASURE_AUTO,
) -> BoundReport:
    """Evaluate every upper bound on the protocol's mutual information.

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
    """
    root = transcript.root_ensemble
    top = transcript.stats[0]
    entropy_a = top.average_entropy["A"]
    entropy_b = top.average_entropy["B"]
    mean_member = top.member_entropy

    per_round, total_info = chain_mutual_information(transcript)
    e_out = average_output_entanglement(transcript, selector_out)
    e_in = average_input_entanglement(root, selector_in)
    n_qubits = float(np.log2(root.dim_a * root.dim_b))

    local_holevo = entropy_a + entropy_b - max(mean_member["A"], mean_member["B"])

    last_step = None
    next_to_last = None
    if transcript.depth >= 1:
        last_party = transcript.round_parties[-1]
        distant = _other(last_party)
        leaf_term = transcript.stats[-1].average_entropy[last_party]
        last_step = entropy_a + entropy_b - mean_member[distant] - leaf_term
        prev_term = transcript.stats[-2].average_entropy[distant]
        next_to_last = entropy_a + entropy_b - mean_member[last_party] - prev_term

    return BoundReport(
        i_locc=total_info,
        per_round_info=tuple(per_round),
        e_in_avg=e_in,
        e_out_avg=e_out,
        n_qubits=n_qubits,
        bound_local_holevo=local_holevo,
        bound_last_step=last_step,
        bound_next_to_last=next_to_last,
        bound_output_adjusted=local_holevo - e_out,
        bound_complementarity=n_qubits - e_in - e_out,
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

    round_index: int
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
    per_round, _ = chain_mutual_information(transcript)
    audits = []
    for k in range(1, transcript.depth + 1):
        party = transcript.round_parties[k - 1]
        distant = _other(party)
        before, after = transcript.stats[k - 1], transcript.stats[k]
        chi_before = before.chi(party)
        chi_after = after.chi(party)
        info = per_round[k - 1]
        deviation = _marginal_deviation(
            transcript.levels[k - 1],
            transcript.levels[k],
            before.average_marginals[distant],
            after.average_marginals[distant],
        )
        local_drop = before.member_entropy[party] - after.member_entropy[party]
        distant_drop = before.member_entropy[distant] - after.member_entropy[distant]
        audits.append(
            RoundAudit(
                round_index=k,
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
