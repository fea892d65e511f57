import dataclasses

import numpy as np
import pytest

from locclab import (
    BipartiteEnsemble,
    KrausInstrument,
    audit_rounds,
    average_output_entanglement,
    bound_suite,
    chain_mutual_information,
    entropy_summary,
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
    random_pure_ensemble,
)


def phi_mixture() -> BipartiteEnsemble:
    return BipartiteEnsemble(((0.5, bell(PHI_PLUS)), (0.5, bell(PHI_MINUS))))


def one_round(ensemble, instrument) -> list[tuple[str, float, BipartiteEnsemble]]:
    """(label, probability, posterior ensemble) of each outcome of one round on the root."""
    leaves = run_protocol(ensemble, {(): instrument}, 1).leaves()
    return [(leaf.path[-1], leaf.probability, leaf.ensemble) for leaf in leaves]


def input_entanglement(ensemble) -> float:
    return bound_suite(run_protocol(ensemble, {}, 0)).e_in_avg


def x_instrument(party: str) -> KrausInstrument:
    return KrausInstrument.projective(party, X_BASIS, labels=["+", "-"])


def z_instrument(party: str) -> KrausInstrument:
    return KrausInstrument.projective(party, Z_BASIS, labels=["0", "1"])


def xx_transcript():
    steps = {(): x_instrument("A")}
    return run_protocol(phi_mixture(), lambda h: x_instrument("A") if not h else x_instrument("B"), 2)


P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])


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

    @pytest.mark.parametrize(
        "basis, message",
        [
            ([[1.0, 0.0], [0.0, np.inf]], "non-finite entry: the matrix holds a NaN or an infinity"),
            ([[1.0, 0.0], [0.0, np.nan]], "non-finite entry: the matrix holds a NaN or an infinity"),
            (np.zeros((0, 0)), "projective basis is empty"),
        ],
        ids=["inf", "nan", "empty"],
    )
    def test_malformed_projective_basis_is_named(self, basis, message):
        # Rejected before the orthonormality Gram, where an inf entry raised
        # a matmul RuntimeWarning and an empty basis numpy's reduction error.
        with pytest.raises(ValueError) as exc:
            KrausInstrument.projective("A", basis)
        assert str(exc.value) == message

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

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_projective_matches_the_checked_constructor(self, dim):
        # projective builds without __post_init__; its projectors must be
        # those the general constructor stores, bit for bit.
        rng = np.random.default_rng(dim)
        kets = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0].T
        labels = [f"k{i}" for i in range(dim)]
        built = KrausInstrument.projective("B", kets, labels)
        checked = KrausInstrument(party="B", outcomes=tuple(zip(labels, kets[:, :, None] * kets.conj()[:, None, :])))
        for (label, op), (ref_label, ref) in zip(built.outcomes, checked.outcomes, strict=True):
            assert label == ref_label
            assert np.array_equal(op, ref) and not op.flags.writeable

    @pytest.mark.parametrize(
        "party, outcomes, message",
        [
            ("C", (("0", P0), ("1", P1)), "party must be 'A' or 'B', got 'C'"),
            ("A", (), "instrument needs at least one outcome"),
            ("A", (("x", P0), ("x", P1)), "duplicate outcome label 'x'"),
            ("A", (("", P0), ("x", P1)), "empty outcome label"),
            ("A", (("0", np.ones((2, 3))),), "outcome '0': Kraus operator must be square, got (2, 3)"),
            ("A", (("0", np.ones(2)),), "outcome '0': Kraus operator must be square, got (2,)"),
            ("A", (("0", np.zeros((0, 0))),), "outcome '0': Kraus operator is empty"),
            ("B", (("0", P0), ("1", np.eye(3))), "outcome '1': size 3 != 2"),
            ("A", (("0", np.eye(2) * 0.5),), "incomplete instrument: max |sum K^dagger K - I| = 7.500e-01"),
            ("A", (("0", np.diag([1.0, np.nan])),), "non-finite entry: the matrix holds a NaN or an infinity"),
        ],
        ids=[
            "party", "no_outcomes", "duplicate", "empty_label", "non_square", "not_a_matrix", "empty", "size",
            "incomplete", "nan",
        ],
    )
    def test_single_fault_message(self, party, outcomes, message):
        # The scenario parser reports these texts after the field path, so
        # they are pinned byte for byte.
        with pytest.raises(ValueError) as exc:
            KrausInstrument(party=party, outcomes=outcomes)
        assert str(exc.value) == message

    def test_operators_are_read_only_copies(self):
        # The checks ran on these values: a later write to the caller's
        # arrays must not reach them.
        ops = (P0.astype(complex), P1.astype(complex))
        instrument = KrausInstrument(party="A", outcomes=(("0", ops[0]), ("1", ops[1])))
        for (_, op), given in zip(instrument.outcomes, ops, strict=True):
            assert np.array_equal(op, given)
            assert not op.flags.writeable and not np.shares_memory(op, given)

    # Every fault class a projective basis can express, alone and in pairs:
    # both constructors check party, distinct labels and completeness in
    # that order, with one checker.
    @pytest.mark.parametrize(
        "party, basis, labels",
        [
            ("C", np.eye(2), None),
            ("A", np.eye(2), ["x", "x"]),
            ("B", np.eye(3) * (1 + 4e-9), None),
            ("A", np.eye(1) * (1 - 4e-9), None),
            ("B", np.array([[1, 1j], [1, -1j]]) / np.sqrt(2) * (1 + 4e-9), ["+i", "-i"]),
            ("C", np.eye(2), ["x", "x"]),
            ("C", np.eye(2) * (1 + 4e-9), None),
            ("A", np.eye(3) * (1 + 4e-9), ["0", "1", "0"]),
        ],
        ids=[
            "party", "duplicate", "incomplete", "incomplete_1d", "incomplete_complex",
            "party_and_duplicate", "party_and_incomplete", "duplicate_and_incomplete",
        ],
    )
    def test_projective_errors_match_the_checked_constructor(self, party, basis, labels):
        labels = labels or [str(i) for i in range(len(basis))]
        with pytest.raises(ValueError) as expected:
            KrausInstrument(party=party, outcomes=tuple(zip(labels, basis[:, :, None] * basis.conj()[:, None, :])))
        with pytest.raises(ValueError) as got:
            KrausInstrument.projective(party, basis, labels)
        assert str(got.value) == str(expected.value)

    def test_kets_are_set_only_by_projective(self):
        assert KrausInstrument(party="A", outcomes=z_instrument("A").outcomes).kets is None
        with pytest.raises(TypeError):
            KrausInstrument(party="A", outcomes=z_instrument("A").outcomes, kets=Z_BASIS)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: KrausInstrument(party="A", outcomes=(("0", P0), ("1", P1))),
            lambda: KrausInstrument(party="A", outcomes=((0, P0), (1, P1))),
            lambda: x_instrument("B"),
            lambda: random_scenario(3, protocol_depth=2).steps[1].overrides[("1",)],
        ],
        ids=["kraus", "kraus_int_labels", "projective", "projective_stack"],
    )
    def test_outcomes_are_views_of_one_stack(self, build):
        # The engine reads ops; the labelled outcomes must be its operators.
        instrument = build()
        assert not instrument.ops.flags.writeable
        assert np.array_equal(instrument.ops, np.stack([op for _, op in instrument.outcomes]))
        for k, (_, op) in enumerate(instrument.outcomes):
            assert np.shares_memory(op, instrument.ops[k])
        # Every reader takes the labels from the one read-only tuple.
        assert instrument.labels == tuple(label for label, _ in instrument.outcomes)
        assert type(instrument.labels) is tuple and all(type(label) is str for label in instrument.labels)
        with pytest.raises(dataclasses.FrozenInstanceError):
            instrument.labels = ("x", "y")
        with pytest.raises(TypeError):
            KrausInstrument(party=instrument.party, outcomes=instrument.outcomes, ops=instrument.ops)
        with pytest.raises(TypeError):
            KrausInstrument(party=instrument.party, outcomes=instrument.outcomes, labels=instrument.labels)


class TestMeasureBranch:
    """One measurement round on the root: a depth-1 ``run_protocol``, branch by branch."""

    def test_alice_z_collapses_both_hypotheses_identically(self):
        branches = one_round(phi_mixture(), z_instrument("A"))
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
        branches = one_round(phi_mixture(), x_instrument("A"))
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
        branches = one_round(sc.ensemble, x_instrument("A"))
        assert sum(p for _, p, _ in branches) == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        instr = KrausInstrument.projective("A", np.eye(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            one_round(phi_mixture(), instr)

    def test_impossible_outcome_pruned(self):
        # measuring |00> in the Z basis never yields outcome "1" on A
        ens = BipartiteEnsemble(((1.0, pure_state_density([1, 0, 0, 0], 2, 2)),))
        branches = one_round(ens, z_instrument("A"))
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

    def test_non_finite_posterior_rejected(self):
        # KrausInstrument rejects a NaN operator, so the NaN goes in behind
        # its check, into the operator stack the engine reads: the engine
        # must raise, not let the keep-prior rule and the pruning absorb it.
        instrument = x_instrument("A")
        ops = instrument.ops.copy()
        ops[0] = np.nan
        object.__setattr__(instrument, "ops", ops)
        with pytest.raises(ValueError, match="non-finite posterior state"):
            run_protocol(phi_mixture(), lambda h: instrument, 1)

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
        assert input_entanglement(phi_mixture()) == pytest.approx(1.0, abs=1e-9)

    def test_input_product_states(self):
        ens = BipartiteEnsemble(
            (
                (0.5, pure_state_density([1, 0, 0, 0], 2, 2)),
                (0.5, pure_state_density([0, 0, 0, 1], 2, 2)),
            )
        )
        assert input_entanglement(ens) == pytest.approx(0.0, abs=1e-12)

    def test_input_half_bell_half_product(self):
        ens = BipartiteEnsemble(
            ((0.5, bell(PHI_PLUS)), (0.5, pure_state_density([1, 0, 0, 0], 2, 2)))
        )
        assert input_entanglement(ens) == pytest.approx(0.5, abs=1e-9)


class TestBoundSuite:
    def test_four_bell_depth_zero(self):
        members = tuple((0.25, bell(v)) for v in (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS))
        t = run_protocol(BipartiteEnsemble(members), lambda h: None, 0)
        report = bound_suite(t)
        assert report.bounds["local_holevo"] == pytest.approx(1.0, abs=1e-9)
        assert report.bounds["last_step"] is None and report.bounds["next_to_last_step"] is None
        assert report.i_locc == pytest.approx(0.0, abs=1e-12)

    def test_xx_saturates_complementarity(self):
        report = bound_suite(xx_transcript())
        assert report.n_qubits == pytest.approx(2.0, abs=1e-12)
        assert report.e_in_avg == pytest.approx(1.0, abs=1e-9)
        assert report.e_out_avg == pytest.approx(0.0, abs=1e-9)
        assert report.bounds["complementarity"] == pytest.approx(1.0, abs=1e-9)
        assert report.i_locc == pytest.approx(1.0, abs=1e-9)

    def test_single_product_state_depth_zero(self):
        ens = BipartiteEnsemble(((1.0, pure_state_density([1, 0, 0, 0], 2, 2)),))
        report = bound_suite(run_protocol(ens, lambda h: None, 0))
        assert report.bounds["local_holevo"] == pytest.approx(0.0, abs=1e-12)
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
            assert report.i_locc <= entropy_summary(t.root_ensemble)["holevo"] + 1e-7


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


def test_eigensolve_count_is_per_level(monkeypatch):
    # Depth 8, 8 pure members, a random basis per history and alternating
    # parties: 511 nodes and 4,088 posterior states. The root is factored
    # by one eigh. Every other spectrum is 2x2 and none goes to LAPACK: pure
    # members' marginal spectra come from the determinants of their
    # coefficient matrices, and the average marginals and the input and
    # output entanglement from the closed-form 2x2 solve. A solve per
    # posterior would add thousands.
    depth = 8

    def chooser(history):
        rng = np.random.default_rng([len(history), *(int(label) for label in history)])
        basis = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        return KrausInstrument.projective("AB"[len(history) % 2], basis.T)

    ensemble = random_pure_ensemble(np.random.default_rng(8), 8)
    calls = {"eigvalsh": 0, "eigh": 0}
    with monkeypatch.context() as patch:
        for name in calls:
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            patch.setattr(np.linalg, name, counting)
        transcript = run_protocol(ensemble, chooser, depth)
        bound_suite(transcript)
        audit_rounds(transcript)
    assert len(transcript.leaves()) == 2**depth
    assert calls["eigh"] <= 2
    assert calls["eigvalsh"] == 0


@pytest.mark.parametrize(
    "chooser, depth, message",
    [
        ({}, -1, "depth must be nonnegative, got -1"),
        ({}, 1, "chooser undefined for history ()"),
    ],
    ids=["negative_depth", "undefined_history"],
)
def test_run_protocol_rejection_message(chooser, depth, message):
    with pytest.raises(ValueError) as excinfo:
        run_protocol(phi_mixture(), chooser, depth)
    assert str(excinfo.value) == message
