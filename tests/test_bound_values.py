"""Every bound of ``bound_suite`` pinned to a value derived by hand.

Each case states its derivation in its docstring. Notation: the ensemble
{p_x, rho_x} has average rho; S_A = S(rho^A), S_B = S(rho^B); m_A, m_B are
the mean member-marginal entropies sum_x p_x S(rho_x^side) at the root;
L is the last acting party and D the other ("distant") one; a_k(side) is
the path-weighted mean over level-k nodes of S(sum_x q_x rho_x^side). Then

    local_holevo      = S_A + S_B - max(m_A, m_B)
    last_step         = S_A + S_B - m_D - a_leaves(L)
    next_to_last_step = S_A + S_B - m_L - a_{leaves - 1}(D)
    output_adjusted   = local_holevo - E_out
    complementarity   = log2(d_A d_B) - E_in - E_out

The cases are asymmetric enough that a bound computed on the wrong side
(m_L for m_D, or the other party's marginal) changes a pinned value.
"""

import numpy as np
import pytest

from locclab import (
    BipartiteEnsemble,
    KrausInstrument,
    audit_rounds,
    bound_suite,
    bundled_scenario_path,
    chain_mutual_information,
    load_scenario,
    parse_scenario,
    run_protocol,
    validate_density,
)

from helpers import PHI_MINUS, PHI_PLUS, PSI_MINUS, PSI_PLUS, Z_BASIS, shannon_oracle

TOL = 1e-10
BOUND_NAMES = ("local_holevo", "last_step", "next_to_last_step", "output_adjusted", "complementarity")


def z_step(party: str) -> KrausInstrument:
    return KrausInstrument.projective(party, Z_BASIS, labels=["0", "1"])


def assert_report(report, i_locc, e_in, e_out, bounds):
    assert report.i_locc == pytest.approx(i_locc, abs=TOL)
    assert report.e_in_avg == pytest.approx(e_in, abs=TOL)
    assert report.e_out_avg == pytest.approx(e_out, abs=TOL)
    assert report.n_qubits == pytest.approx(2.0, abs=TOL)
    expected = dict(zip(BOUND_NAMES, bounds))
    assert report.bounds == pytest.approx(expected, abs=TOL)
    assert report.slacks() == pytest.approx({k: v - i_locc for k, v in expected.items()}, abs=TOL)


def test_phi_mixture_xx_saturates_every_bound():
    """Bundled ``phi_mixture_xx``: {1/2 Phi+, 1/2 Phi-}, A then B measure X.

    rho = (|00><00| + |11><11|) / 2, so S_A = S_B = 1; every member is a
    Bell state with maximally mixed marginals, so m_A = m_B = 1, and
    local_holevo = 1 + 1 - 1 = 1. In the X basis Phi+ = (|++> + |-->)/sqrt2
    and Phi- = (|+-> + |-+>)/sqrt2: A's outcome is uniform under both
    (round 1 gives 0 bits) and leaves B with |+-> or |-+> correlated, B's
    X outcome then names the member (round 2 gives 1 bit): I_locc = 1.
    Level 1 (after A): each node holds |a>|a> and |a>|-a> with q = (1/2,
    1/2), so its average A marginal is |a><a|: a_1(A) = 0. Leaves (after
    B): q is (1, 0) or (0, 1) on a product state, so a_2(B) = 0.
    L = B, D = A: last_step = 2 - m_A - a_2(B) = 1 and
    next_to_last_step = 2 - m_B - a_1(A) = 1. E_in = 1 (Bell members),
    E_out = 0 (each leaf average is a pure product state), so
    output_adjusted = 1 - 0 = 1 and complementarity = 2 - 1 - 0 = 1.
    All five bounds equal I_locc: zero slack.
    """
    scenario = load_scenario(bundled_scenario_path("phi_mixture_xx.json"))
    report = bound_suite(run_protocol(scenario.ensemble, scenario.chooser, scenario.depth))
    assert report.per_round_info == pytest.approx((0.0, 1.0), abs=TOL)
    assert_report(report, i_locc=1.0, e_in=1.0, e_out=0.0, bounds=(1.0, 1.0, 1.0, 1.0, 1.0))


def test_phi_mixture_zz_learns_nothing():
    """The same mixture, A then B measure Z.

    Phi+ and Phi- both give A's outcome z with probability 1/2 and collapse
    to the same |zz>, so neither round tells them apart: I_locc = 0 (the
    outcomes (0, 1) and (1, 0) have probability 0 and are pruned). The
    root terms are those of the XX case: S_A = S_B = m_A = m_B = 1 and
    local_holevo = 1. Level 1 nodes hold |zz> twice, so a_1(A) = 0, and so
    do the leaves: a_2(B) = 0. L = B, D = A: last_step = 2 - 1 - 0 = 1 and
    next_to_last_step = 2 - 1 - 0 = 1. E_in = 1, E_out = 0 (each leaf
    average is |zz><zz|), output_adjusted = 1, complementarity = 1. Every
    slack is 1 bit.
    """
    scenario = load_scenario(bundled_scenario_path("phi_mixture_xx.json"))
    transcript = run_protocol(scenario.ensemble, lambda history: z_step("AB"[len(history)]), 2)
    assert [leaf.path for leaf in transcript.leaves()] == [("0", "0"), ("1", "1")]
    assert_report(bound_suite(transcript), i_locc=0.0, e_in=1.0, e_out=0.0, bounds=(1.0, 1.0, 1.0, 1.0, 1.0))


def test_classical_a_mixed_b_measured_on_b():
    """{1/2 |0><0| (x) I/2, 1/2 |1><1| (x) I/2}, B measures Z.

    The hypothesis sits in A's Z basis; B holds a maximally mixed qubit
    that carries no information, so I_locc = 0. rho = I/4: S_A = S_B = 1.
    Members have pure A marginals and maximally mixed B marginals: m_A = 0,
    m_B = 1, and local_holevo = 2 - max(0, 1) = 1. Each of B's outcomes has
    probability 1/2 under both members, so q stays (1/2, 1/2); a leaf's
    average marginals are I/2 on A and |b><b| on B: a_1(B) = 0, a_1(A) = 1,
    and the root's a_0(A) = 1. L = B, D = A: last_step = 2 - m_A - a_1(B)
    = 2 and next_to_last_step = 2 - m_B - a_0(A) = 0, a zero-slack witness
    for next_to_last_step. With the sides swapped these would read
    2 - m_B - a_1(A) = 0 and 2 - m_A - a_0(B) = 1. Members and leaf
    averages are product states: E_in = E_out = 0, so output_adjusted = 1
    and complementarity = 2.
    """
    members = tuple(
        (0.5, validate_density(np.kron(np.diag([1.0 - a, a]), np.eye(2) / 2), 2, 2)) for a in (0.0, 1.0)
    )
    transcript = run_protocol(BipartiteEnsemble(members), {(): z_step("B")}, 1)
    assert_report(bound_suite(transcript), i_locc=0.0, e_in=0.0, e_out=0.0, bounds=(1.0, 2.0, 0.0, 1.0, 2.0))


def test_silent_round_then_z_on_b_pins_next_to_last_step():
    """{1/2 |00>, 1/2 |11>}; A applies the one-outcome identity, then B measures Z.

    rho = (|00><00| + |11><11|) / 2, so S_A = S_B = 1. Members are pure
    products: m_A = m_B = 0 and local_holevo = 2 - 0 = 2. A's round has one
    outcome and changes nothing: its one level-1 node keeps q = (1/2, 1/2),
    whose average A marginal is I/2, so a_1(A) = 1. B's Z outcome names the
    member: the leaves hold |00> or |11> alone, a_2(A) = a_2(B) = 0, and
    I_locc = 1 (rounds give 0 and 1 bits). L = B, D = A: last_step = 2 -
    m_A - a_2(B) = 2 and next_to_last_step = 2 - m_B - a_1(A) = 1, zero
    slack. Members and leaf averages are product states: E_in = E_out = 0,
    so output_adjusted = 2 and complementarity = 2. Taking
    next_to_last_step's last term from the leaves, a_2(A) = 0, instead of
    the level above gives 2: this case tells the two levels apart.
    """
    members = tuple((0.5, validate_density(np.diag(np.eye(4)[k]), 2, 2)) for k in (0, 3))
    steps = {(): KrausInstrument(party="A", outcomes=(("1", np.eye(2)),)), ("1",): z_step("B")}
    report = bound_suite(run_protocol(BipartiteEnsemble(members), steps, 2))
    assert report.per_round_info == pytest.approx((0.0, 1.0), abs=TOL)
    assert_report(report, i_locc=1.0, e_in=0.0, e_out=0.0, bounds=(2.0, 2.0, 1.0, 2.0, 2.0))


def test_isotropic_member_pins_output_adjusted():
    """One isotropic two-qubit member, F = 0.9, at depth 0.

    rho = F |Phi+><Phi+| + (1 - F)/3 (I - |Phi+><Phi+|). Its marginals are
    I/2, so S_A = S_B = m_A = m_B = 1 and local_holevo = 1 + 1 - 1 = 1. Its
    concurrence is C = 2F - 1 = 0.8 (Wootters, PRL 80, 2245, 1998), so
    E = h((1 + sqrt(1 - C^2))/2) = h(0.8) = 0.721928. With no round the
    leaf average is the member itself: E_in = E_out = h(0.8), I_locc = 0,
    output_adjusted = 1 - h(0.8) = 0.278072 (subtracting half of E_out
    would give 0.639036) and complementarity = 2 - 2 h(0.8) = 0.556144.
    The step-refined bounds need a round and are None.
    """
    h_08 = 0.7219280948873623
    assert shannon_oracle([0.8, 0.2]) == pytest.approx(h_08, abs=1e-15)
    phi = np.outer(PHI_PLUS, PHI_PLUS.conj())
    member = validate_density(0.9 * phi + 0.1 / 3 * (np.eye(4) - phi), 2, 2)
    report = bound_suite(run_protocol(BipartiteEnsemble(((1.0, member),)), {}, 0))
    assert (report.i_locc, report.e_in_avg, report.e_out_avg) == pytest.approx((0.0, h_08, h_08), abs=1e-12)
    assert report.bounds["last_step"] is None and report.bounds["next_to_last_step"] is None
    assert report.bounds["local_holevo"] == pytest.approx(1.0, abs=1e-12)
    assert report.bounds["output_adjusted"] == pytest.approx(0.2780719051126377, abs=1e-12)
    assert report.bounds["complementarity"] == pytest.approx(0.5561438102252754, abs=1e-12)


def test_unequal_entropy_drops_pin_the_audit_slack():
    """One member 1/2 |Phi+><Phi+| + 1/2 |01><01|; A measures Z.

    Before the round both marginals have spectrum (3/4, 1/4): A's is
    diag(3/4, 1/4), B's diag(1/4, 3/4), each of entropy h(1/4) = 0.811278.
    A's outcome 0 (probability 3/4) leaves 1/4 |00><00| + 1/2 |01><01|,
    normalized: A pure, B diag(1/3, 2/3). Outcome 1 (probability 1/4)
    leaves |11>: both sides pure. A's member entropy drops by h(1/4) =
    0.811278, B's by h(1/4) - 3/4 h(1/3) = 0.122556, so
    entropy_drop_slack = 3/4 h(1/3) = 0.688722 (with the sides swapped it
    would be -0.688722). One member: the round gains no information.
    """
    phi = np.outer(PHI_PLUS, PHI_PLUS.conj())
    member = validate_density(0.5 * phi + 0.5 * np.diag(np.eye(4)[1]), 2, 2)
    (audit,) = audit_rounds(run_protocol(BipartiteEnsemble(((1.0, member),)), {(): z_step("A")}, 1))
    assert audit.party == "A"
    assert audit.info == pytest.approx(0.0, abs=1e-12)
    assert audit.local_entropy_drop == pytest.approx(0.8112781244591328, abs=1e-12)
    assert audit.distant_entropy_drop == pytest.approx(0.12255624891826566, abs=1e-12)
    assert audit.entropy_drop_slack == pytest.approx(0.6887218755408672, abs=1e-12)


def pairs(array) -> list:
    """A complex array as the file's nested [re, im] pairs."""
    array = np.asarray(array, dtype=complex)
    return np.stack([array.real, array.imag], axis=-1).tolist()


def hashing_step_file(p) -> dict:
    """Two copies of the Bell-diagonal state with weights p over (Phi+,
    Phi-, Psi+, Psi-), A = A1A2 and B = B1B2, as a ``protocol`` file: 16
    ``vector`` members |B_i>_{A1B1} (x) |B_j>_{A2B2} of weight p_i p_j on
    dims [4, 4]. A, then B, applies the ``kraus`` instrument K_x = (I (x)
    |x><x|) CNOT, copy 1 controlling copy 2, on its two qubits."""
    bell = [v.reshape(2, 2) for v in (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS)]
    members = [
        {"probability": p[i] * p[j], "vector": pairs(np.einsum("ac,bd->abcd", bell[i], bell[j]).reshape(16))}
        for i in range(4)
        for j in range(4)
    ]
    cnot = np.eye(4)[[0, 1, 3, 2]]
    kraus = [np.kron(np.eye(2), np.diag(np.eye(2)[x])) @ cnot for x in (0, 1)]
    instrument = {"labels": ["0", "1"], "kraus": [pairs(op) for op in kraus]}
    return {
        "kind": "protocol",
        "name": "hashing-step",
        "dims": [4, 4],
        "ensemble": members,
        "protocol": [{"party": party, "instrument": instrument} for party in "AB"],
    }


@pytest.mark.parametrize(
    "p, info",
    [
        ((0.25, 0.25, 0.25, 0.25), 1.0),
        ((0.5, 0.0, 0.5, 0.0), 1.0),
        ((0.7, 0.1, 0.1, 0.1), 0.904381457724),
        ((0.9, 0.05, 0.03, 0.02), 0.452942548187),
        ((0.4, 0.3, 0.2, 0.1), 0.981453895034),
    ],
)
def test_hashing_step_is_a_zero_slack_audit_witness(p, info):
    """The hashing step of Bennett et al. (PRA 54, 3824, 1996) on two copies.

    After both local CNOTs, A's outcome is a1 + a2 and B's is b1 + b2
    (mod 2). A's alone is uniform under every member, whose A marginal is
    I/4: round 1 gains 0 bits. Together they name the XOR of the two
    copies' bit-flip indices (1 for Psi+ and Psi-), which is 1 with
    probability 2q(1 - q), q = p(Psi+) + p(Psi-): given the member, B's
    outcome is A's plus that XOR. Round 2 gains I_locc = h(2q(1 - q)). Both rounds saturate
    the audit: Holevo and entropy-drop slacks 0, the distant side
    untouched. The bound suite is left out: its output entanglement needs
    the leaf averages, mixed 4x4 states that no measure covers yet.
    """
    q = p[2] + p[3]
    assert shannon_oracle([2 * q * (1 - q), 1 - 2 * q * (1 - q)]) == pytest.approx(info, abs=1e-12)
    scenario = parse_scenario(hashing_step_file(p))
    transcript = run_protocol(scenario.ensemble, scenario.chooser, scenario.depth)
    per_round, i_locc = chain_mutual_information(transcript)
    assert per_round == pytest.approx([0.0, info], abs=1e-12)
    assert i_locc == pytest.approx(info, abs=1e-12)
    audits = audit_rounds(transcript)
    assert [audit.party for audit in audits] == ["A", "B"]
    for audit in audits:
        assert audit.holevo_slack == pytest.approx(0.0, abs=1e-12)
        assert audit.entropy_drop_slack == pytest.approx(0.0, abs=1e-12)
        assert audit.distant_marginal_deviation <= 1e-9
