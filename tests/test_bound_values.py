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
    bound_suite,
    bundled_scenario_path,
    load_scenario,
    run_protocol,
    validate_density,
)

from helpers import Z_BASIS

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
