import numpy as np
import pytest

from locclab import (
    BipartiteEnsemble,
    KrausInstrument,
    audit_rounds,
    average_input_entanglement,
    average_output_entanglement,
    bound_suite,
    chain_mutual_information,
    holevo_chi,
    measure_branch,
    pure_state_density,
    run_protocol,
)
from locclab.scenario import random_scenario

from helpers import (
    KET_MINUS,
    KET_PLUS,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    X_BASIS,
    Z_BASIS,
    bell,
    flat_mutual_information,
)


def phi_mixture() -> BipartiteEnsemble:
    return BipartiteEnsemble(((0.5, bell(PHI_PLUS)), (0.5, bell(PHI_MINUS))))


def x_instrument(party: str) -> KrausInstrument:
    return KrausInstrument.projective(party, X_BASIS, labels=["+", "-"])


def z_instrument(party: str) -> KrausInstrument:
    return KrausInstrument.projective(party, Z_BASIS, labels=["0", "1"])


def xx_transcript():
    steps = {(): x_instrument("A")}
    return run_protocol(phi_mixture(), lambda h: x_instrument("A") if not h else x_instrument("B"), 2)


class TestKrausInstrument:
    def test_incomplete_set_rejected(self):
        half = np.eye(2) * 0.5
        with pytest.raises(ValueError, match="incomplete instrument"):
            KrausInstrument(party="A", outcomes=(("0", half),))

    def test_duplicate_labels_rejected(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        with pytest.raises(ValueError, match="duplicate"):
            KrausInstrument(party="A", outcomes=(("x", p0), ("x", p1)))

    def test_projective_requires_orthonormal_basis(self):
        with pytest.raises(ValueError, match="orthonormal"):
            KrausInstrument.projective("A", [[1.0, 0.0], [1.0, 0.0]])

    def test_projective_roundtrip(self):
        instr = x_instrument("B")
        assert instr.party == "B"
        assert [label for label, _ in instr.outcomes] == ["+", "-"]
        total = sum(op.conj().T @ op for _, op in instr.outcomes)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_projective_keeps_its_kets(self):
        instr = x_instrument("A")
        assert np.array_equal(instr.kets, X_BASIS)
        assert not instr.kets.flags.writeable
        for ket, (_, op) in zip(instr.kets, instr.outcomes):
            assert np.array_equal(op, np.outer(ket, ket.conj()))

    def test_kets_are_set_only_by_projective(self):
        assert KrausInstrument(party="A", outcomes=z_instrument("A").outcomes).kets is None
        with pytest.raises(TypeError):
            KrausInstrument(party="A", outcomes=z_instrument("A").outcomes, kets=Z_BASIS)


class TestMeasureBranch:
    def test_alice_z_collapses_both_hypotheses_identically(self):
        branches = measure_branch(phi_mixture(), z_instrument("A"))
        assert [label for label, _, _ in branches] == ["0", "1"]
        expected = {
            "0": pure_state_density([1, 0, 0, 0], 2, 2).matrix,
            "1": pure_state_density([0, 0, 0, 1], 2, 2).matrix,
        }
        for label, p, posterior in branches:
            assert p == pytest.approx(0.5, abs=1e-12)
            for _, state in posterior.members:
                np.testing.assert_allclose(state.matrix, expected[label], atol=1e-12)

    def test_alice_x_plus_branch_posteriors(self):
        branches = measure_branch(phi_mixture(), x_instrument("A"))
        label, p, posterior = branches[0]
        assert label == "+" and p == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(posterior.probabilities(), [0.5, 0.5], atol=1e-12)
        plus_plus = np.kron(KET_PLUS, KET_PLUS)
        plus_minus = np.kron(KET_PLUS, KET_MINUS)
        np.testing.assert_allclose(
            posterior.members[0][1].matrix, np.outer(plus_plus, plus_plus.conj()), atol=1e-12
        )
        np.testing.assert_allclose(
            posterior.members[1][1].matrix, np.outer(plus_minus, plus_minus.conj()), atol=1e-12
        )

    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        sc = random_scenario(12)
        branches = measure_branch(sc.ensemble, x_instrument("A"))
        assert sum(p for _, p, _ in branches) == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        instr = KrausInstrument.projective("A", np.eye(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            measure_branch(phi_mixture(), instr)

    def test_impossible_outcome_pruned(self):
        # measuring |00> in the Z basis never yields outcome "1" on A
        ens = BipartiteEnsemble(((1.0, pure_state_density([1, 0, 0, 0], 2, 2)),))
        branches = measure_branch(ens, z_instrument("A"))
        assert [label for label, _, _ in branches] == ["0"]
        assert branches[0][1] == pytest.approx(1.0, abs=1e-12)


class TestRunProtocol:
    def test_depth_zero_is_root_only(self):
        t = run_protocol(phi_mixture(), lambda h: None, 0)
        assert t.depth == 0
        assert t.leaves() == [t.root]
        assert t.round_parties == ()

    def test_xx_tree_shape(self):
        t = xx_transcript()
        leaves = t.leaves()
        assert len(leaves) == 4
        for leaf in leaves:
            assert leaf.probability == pytest.approx(0.25, abs=1e-12)
            # each leaf pins down the hypothesis completely
            assert sorted(leaf.ensemble.probabilities().tolist()) == pytest.approx([0.0, 1.0], abs=1e-12)
        assert t.round_parties == ("A", "B")

    def test_missing_history_rejected(self):
        chooser = {(): x_instrument("A")}
        with pytest.raises(ValueError, match="chooser undefined"):
            run_protocol(phi_mixture(), chooser, 2)

    def test_mixed_parties_within_round_rejected(self):
        def chooser(history):
            if not history:
                return x_instrument("A")
            return x_instrument("A" if history[0] == "+" else "B")

        with pytest.raises(ValueError, match="conflicts"):
            run_protocol(phi_mixture(), chooser, 2)

    def test_sibling_probabilities_sum_to_parent(self):
        sc = random_scenario(77)
        t = run_protocol(sc.ensemble, sc.chooser, sc.depth)

        def walk(node):
            if node.children:
                total = sum(child.probability for child in node.children)
                assert total == pytest.approx(node.probability, abs=1e-9)
                for child in node.children:
                    walk(child)

        walk(t.root)
        assert sum(leaf.probability for leaf in t.leaves()) == pytest.approx(1.0, abs=1e-9)


class TestChainMutualInformation:
    def test_zz_learns_nothing_about_phase(self):
        t = run_protocol(
            phi_mixture(), lambda h: z_instrument("A") if not h else z_instrument("B"), 2
        )
        per_round, total = chain_mutual_information(t)
        assert total == pytest.approx(0.0, abs=1e-12)
        assert per_round == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_xx_learns_one_bit_in_round_two(self):
        per_round, total = chain_mutual_information(xx_transcript())
        assert per_round[0] == pytest.approx(0.0, abs=1e-12)
        assert per_round[1] == pytest.approx(1.0, abs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_depth_zero_total_is_zero(self):
        t = run_protocol(phi_mixture(), lambda h: None, 0)
        per_round, total = chain_mutual_information(t)
        assert per_round == [] and total == 0.0

    def test_matches_flat_joint_distribution(self):
        for seed in range(25):
            sc = random_scenario(seed)
            t = run_protocol(sc.ensemble, sc.chooser, sc.depth)
            _, total = chain_mutual_information(t)
            assert abs(total - flat_mutual_information(t)) < 1e-9


class TestAverageEntanglement:
    def test_output_zero_after_xx(self):
        assert average_output_entanglement(xx_transcript()) == pytest.approx(0.0, abs=1e-9)

    def test_output_depth_zero_single_bell(self):
        ens = BipartiteEnsemble(((1.0, bell(PHI_PLUS)),))
        t = run_protocol(ens, lambda h: None, 0)
        assert average_output_entanglement(t) == pytest.approx(1.0, abs=1e-9)

    def test_output_depth_zero_bell_mixture_is_separable(self):
        t = run_protocol(phi_mixture(), lambda h: None, 0)
        assert average_output_entanglement(t) == pytest.approx(0.0, abs=1e-9)

    def test_input_bell_mixture(self):
        assert average_input_entanglement(phi_mixture()) == pytest.approx(1.0, abs=1e-9)

    def test_input_product_states(self):
        ens = BipartiteEnsemble(
            (
                (0.5, pure_state_density([1, 0, 0, 0], 2, 2)),
                (0.5, pure_state_density([0, 0, 0, 1], 2, 2)),
            )
        )
        assert average_input_entanglement(ens) == pytest.approx(0.0, abs=1e-12)

    def test_input_half_bell_half_product(self):
        ens = BipartiteEnsemble(
            ((0.5, bell(PHI_PLUS)), (0.5, pure_state_density([1, 0, 0, 0], 2, 2)))
        )
        assert average_input_entanglement(ens) == pytest.approx(0.5, abs=1e-9)


class TestBoundSuite:
    def test_four_bell_depth_zero(self):
        members = tuple((0.25, bell(v)) for v in (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS))
        t = run_protocol(BipartiteEnsemble(members), lambda h: None, 0)
        report = bound_suite(t)
        assert report.bound_local_holevo == pytest.approx(1.0, abs=1e-9)
        assert report.bound_last_step is None and report.bound_next_to_last is None
        assert report.i_locc == pytest.approx(0.0, abs=1e-12)

    def test_xx_saturates_complementarity(self):
        report = bound_suite(xx_transcript())
        assert report.n_qubits == pytest.approx(2.0, abs=1e-12)
        assert report.e_in_avg == pytest.approx(1.0, abs=1e-9)
        assert report.e_out_avg == pytest.approx(0.0, abs=1e-9)
        assert report.bound_complementarity == pytest.approx(1.0, abs=1e-9)
        assert report.i_locc == pytest.approx(1.0, abs=1e-9)

    def test_single_product_state_depth_zero(self):
        ens = BipartiteEnsemble(((1.0, pure_state_density([1, 0, 0, 0], 2, 2)),))
        report = bound_suite(run_protocol(ens, lambda h: None, 0))
        assert report.bound_local_holevo == pytest.approx(0.0, abs=1e-12)
        assert report.i_locc == pytest.approx(0.0, abs=1e-12)

    def test_slacks_nonnegative_on_random_protocols(self):
        for seed in range(40):
            sc = random_scenario(seed)
            t = run_protocol(sc.ensemble, sc.chooser, sc.depth)
            report = bound_suite(t)
            for name, slack in report.slacks().items():
                if slack is not None:
                    assert slack >= -1e-7, (seed, name, slack)

    def test_locc_information_below_global_holevo(self):
        for seed in range(25):
            sc = random_scenario(seed)
            t = run_protocol(sc.ensemble, sc.chooser, sc.depth)
            report = bound_suite(t)
            assert report.i_locc <= holevo_chi(t.root_ensemble) + 1e-7


class TestAuditRounds:
    def test_xx_round_values(self):
        audits = audit_rounds(xx_transcript())
        first, second = audits
        assert first.party == "A"
        assert first.chi_before == pytest.approx(0.0, abs=1e-9)
        assert first.info == pytest.approx(0.0, abs=1e-9)
        assert first.holevo_slack == pytest.approx(0.0, abs=1e-9)
        assert second.party == "B"
        assert second.chi_before == pytest.approx(1.0, abs=1e-9)
        assert second.chi_after == pytest.approx(0.0, abs=1e-9)
        assert second.info == pytest.approx(1.0, abs=1e-9)
        assert second.holevo_slack == pytest.approx(0.0, abs=1e-9)

    def test_product_ensemble_leaves_distant_marginal_unchanged(self):
        ens = BipartiteEnsemble(
            (
                (0.5, pure_state_density([1, 0, 0, 0], 2, 2)),
                (0.5, pure_state_density(np.kron(KET_PLUS, KET_PLUS), 2, 2)),
            )
        )
        t = run_protocol(ens, lambda h: x_instrument("A"), 1)
        (audit,) = audit_rounds(t)
        assert audit.distant_marginal_deviation < 1e-12

    def test_slacks_on_random_protocols(self):
        for seed in range(40):
            sc = random_scenario(seed)
            t = run_protocol(sc.ensemble, sc.chooser, sc.depth)
            for audit in audit_rounds(t):
                assert audit.holevo_slack >= -1e-7, seed
                assert audit.entropy_drop_slack >= -1e-7, seed
                assert audit.distant_marginal_deviation <= 1e-9, seed
