"""Node-by-node protocol engine, kept as the reference for the level-array engine.

This is the recursive engine ``locclab.protocol`` used before it stored the
outcome tree as stacked arrays per level: one ``ProtocolNode`` per outcome
history, one small eigensolve per node, member and side. It builds the same
``BoundReport`` and ``RoundAudit`` values, so the property tests can compare
the two engines field by field. Every entropy, Holevo quantity and
entanglement comes from the numpy-only oracles in ``helpers``
(``np.linalg.eigvalsh`` called directly, explicit ``einsum`` partial traces,
Wootters' formula from the eigenvalues of rho rho_tilde), not from
``locclab.entropy``: a fault in the package's closed-form spectra is not
shared by its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from locclab.entropy import BipartiteEnsemble
from locclab.linalg import hermitize, validate_density
from locclab.protocol import ZERO_EIGENVALUE, BoundReport, RoundAudit

from helpers import entanglement_oracle, holevo_oracle, partial_trace_oracle, shannon_oracle, von_neumann_oracle

_MEMBER_EPS = 1e-14


def _other(party: str) -> str:
    return "B" if party == "A" else "A"


@dataclass(frozen=True)
class Node:
    path: tuple[str, ...]
    probability: float
    party: str | None
    ensemble: BipartiteEnsemble
    children: tuple["Node", ...]


@dataclass(frozen=True)
class Transcript:
    root: Node
    depth: int
    round_parties: tuple[str, ...]

    @property
    def root_ensemble(self) -> BipartiteEnsemble:
        return self.root.ensemble

    def nodes_at(self, depth: int) -> list[Node]:
        level = [self.root]
        for _ in range(depth):
            level = [child for node in level for child in node.children]
        return level

    def leaves(self) -> list[Node]:
        return self.nodes_at(self.depth)


def measure_branch(ensemble, instrument, prune_tol=ZERO_EIGENVALUE):
    dim_a, dim_b = ensemble.dim_a, ensemble.dim_b
    local_dim = dim_a if instrument.party == "A" else dim_b
    if instrument.dim != local_dim:
        raise ValueError(
            f"dimension mismatch: instrument on {instrument.party} has size {instrument.dim}, "
            f"party dimension is {local_dim}"
        )
    branches = []
    for label, op in instrument.outcomes:
        if instrument.party == "A":
            embedded = np.kron(op, np.eye(dim_b))
        else:
            embedded = np.kron(np.eye(dim_a), op)
        updated = []
        weights = []
        for prior_p, state in ensemble.members:
            raw = embedded @ state.matrix @ embedded.conj().T
            weight = float(np.trace(raw).real)
            weights.append(max(weight, 0.0))
            if weight > _MEMBER_EPS:
                updated.append(validate_density(hermitize(raw / weight), dim_a, dim_b))
            else:
                updated.append(state)
        joint = np.array([p for p, _ in ensemble.members]) * np.array(weights)
        p_outcome = float(joint.sum())
        if not p_outcome > prune_tol:
            continue
        posterior_probs = np.clip(joint / p_outcome, 0.0, None)
        posterior_probs /= posterior_probs.sum()
        posterior = BipartiteEnsemble(tuple(zip(posterior_probs.tolist(), updated)))
        branches.append((label, p_outcome, posterior))
    if not branches:
        raise ValueError("all outcomes pruned: instrument annihilates the ensemble")
    total = sum(p for _, p, _ in branches)
    return [(label, p / total, post) for label, p, post in branches]


def run_protocol(ensemble, chooser, depth: int) -> Transcript:
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    lookup = chooser if callable(chooser) else chooser.__getitem__
    round_parties: list[str | None] = [None] * depth

    def expand(path, probability, ens, produced_by) -> Node:
        level = len(path)
        if level == depth:
            return Node(path, probability, produced_by, ens, ())
        try:
            instrument = lookup(path)
        except KeyError:
            raise ValueError(f"chooser undefined for history {path!r}") from None
        if round_parties[level] is None:
            round_parties[level] = instrument.party
        elif round_parties[level] != instrument.party:
            raise ValueError(
                f"round {level + 1}: party {instrument.party!r} conflicts with "
                f"{round_parties[level]!r} chosen on another branch"
            )
        children = tuple(
            expand(path + (label,), probability * p, posterior, instrument.party)
            for label, p, posterior in measure_branch(ens, instrument)
        )
        return Node(path, probability, produced_by, ens, children)

    root = expand((), 1.0, ensemble, None)
    return Transcript(root=root, depth=depth, round_parties=tuple(round_parties))


def _level_conditional_entropy(nodes) -> float:
    total = 0.0
    for node in nodes:
        if node.probability > 0.0:
            total += node.probability * shannon_oracle(node.ensemble.probabilities())
    return total


def chain_mutual_information(transcript):
    level_entropy = [
        _level_conditional_entropy(transcript.nodes_at(k)) for k in range(transcript.depth + 1)
    ]
    per_round = [level_entropy[k - 1] - level_entropy[k] for k in range(1, transcript.depth + 1)]
    return per_round, level_entropy[0] - level_entropy[-1]


def average_output_entanglement(transcript) -> float:
    total = 0.0
    for leaf in transcript.leaves():
        if leaf.probability > 0.0:
            ens = leaf.ensemble
            state = validate_density(ens.average_matrix(), ens.dim_a, ens.dim_b)
            total += leaf.probability * entanglement_oracle(state.matrix, ens.dim_a, ens.dim_b)
    return total


def average_input_entanglement(ensemble) -> float:
    total = 0.0
    for p, state in ensemble.members:
        if p > 0.0:
            total += p * entanglement_oracle(state.matrix, ensemble.dim_a, ensemble.dim_b)
    return total


def _mean_member_marginal_entropy(nodes, side: str) -> float:
    total = 0.0
    for node in nodes:
        if node.probability <= 0.0:
            continue
        inner = 0.0
        dims = (node.ensemble.dim_a, node.ensemble.dim_b)
        for p, state in node.ensemble.members:
            if p > 0.0:
                inner += p * von_neumann_oracle(partial_trace_oracle(state.matrix, side, *dims))
        total += node.probability * inner
    return total


def _mean_average_marginal_entropy(nodes, side: str) -> float:
    total = 0.0
    for node in nodes:
        if node.probability <= 0.0:
            continue
        dims = (node.ensemble.dim_a, node.ensemble.dim_b)
        reduced = partial_trace_oracle(node.ensemble.average_matrix(), side, *dims)
        total += node.probability * von_neumann_oracle(reduced)
    return total


def bound_suite(transcript) -> BoundReport:
    root = transcript.root_ensemble
    dims = (root.dim_a, root.dim_b)
    average = root.average_matrix()
    entropy_a = von_neumann_oracle(partial_trace_oracle(average, "A", *dims))
    entropy_b = von_neumann_oracle(partial_trace_oracle(average, "B", *dims))
    root_level = [transcript.root]
    mean_member = {side: _mean_member_marginal_entropy(root_level, side) for side in "AB"}
    per_round, total_info = chain_mutual_information(transcript)
    e_out = average_output_entanglement(transcript)
    e_in = average_input_entanglement(root)
    n_qubits = float(np.log2(root.dim_a * root.dim_b))
    local_holevo = entropy_a + entropy_b - max(mean_member["A"], mean_member["B"])
    last_step = None
    next_to_last = None
    if transcript.depth >= 1:
        last_party = transcript.round_parties[-1]
        distant = _other(last_party)
        leaf_term = _mean_average_marginal_entropy(transcript.leaves(), last_party)
        last_step = entropy_a + entropy_b - mean_member[distant] - leaf_term
        prev_term = _mean_average_marginal_entropy(transcript.nodes_at(transcript.depth - 1), distant)
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


def _marginal_members(ensemble, side: str) -> list:
    """Members reduced to one side, keeping the same weights."""
    dims = (ensemble.dim_a, ensemble.dim_b)
    return [(p, partial_trace_oracle(state.matrix, side, *dims)) for p, state in ensemble.members]


def _level_marginal_chi(nodes, side: str) -> float:
    total = 0.0
    for node in nodes:
        if node.probability > 0.0:
            total += node.probability * holevo_oracle(_marginal_members(node.ensemble, side))
    return total


def audit_rounds(transcript) -> list[RoundAudit]:
    per_round, _ = chain_mutual_information(transcript)
    audits = []
    for k in range(1, transcript.depth + 1):
        party = transcript.round_parties[k - 1]
        distant = _other(party)
        parents = transcript.nodes_at(k - 1)
        children = transcript.nodes_at(k)
        chi_before = _level_marginal_chi(parents, party)
        chi_after = _level_marginal_chi(children, party)
        info = per_round[k - 1]
        deviation = 0.0
        for parent in parents:
            if parent.probability <= 0.0:
                continue
            dims = (parent.ensemble.dim_a, parent.ensemble.dim_b)
            before = partial_trace_oracle(parent.ensemble.average_matrix(), distant, *dims)
            after = np.zeros_like(before)
            for child in parent.children:
                weight = child.probability / parent.probability
                after += weight * partial_trace_oracle(child.ensemble.average_matrix(), distant, *dims)
            deviation = max(deviation, float(np.abs(before - after).max()))
        local_drop = _mean_member_marginal_entropy(parents, party) - _mean_member_marginal_entropy(
            children, party
        )
        distant_drop = _mean_member_marginal_entropy(parents, distant) - _mean_member_marginal_entropy(
            children, distant
        )
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
