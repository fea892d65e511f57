import dataclasses
import json

import numpy as np
import pytest

from locclab import (
    BipartiteEnsemble,
    KrausInstrument,
    ScenarioError,
    audit_rounds,
    average_output_entanglement,
    bound_suite,
    chain_mutual_information,
    entropy_summary,
    pure_state_density,
    run_protocol,
)
from locclab import protocol as protocol_module
from locclab.cli import run_scenario
from locclab.scenario import ProtocolStep, Scenario, dump_scenario, parse_scenario, random_scenario

from helpers import (
    KET_MINUS,
    KET_PLUS,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    X_BASIS,
    Z_BASIS,
    assert_same_bits,
    assert_same_step,
    bell,
    flat_mutual_information,
    random_pure_ensemble,
    row_instruments,
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
            lambda: KrausInstrument.projective("A", np.eye(2), labels=[0, 1]),
            lambda: random_scenario(3, protocol_depth=2).chooser(("1",)),
        ],
        ids=["kraus", "kraus_int_labels", "projective", "projective_int_labels", "projective_stack"],
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

    def test_outcome_in_the_zero_band_is_pruned(self, monkeypatch):
        # Outcome "0" of Z on A has probability exactly 1/4 here. With the
        # zero band moved to 1/4 that outcome lies on its edge, |p| <= band,
        # and is pruned; one float below it, the outcome lies just above and
        # is kept.
        ens = BipartiteEnsemble(
            ((0.25, pure_state_density([1, 0, 0, 0], 2, 2)), (0.75, pure_state_density([0, 0, 0, 1], 2, 2)))
        )
        monkeypatch.setattr(protocol_module, "ZERO_EIGENVALUE", 0.25)
        assert [(label, p) for label, p, _ in one_round(ens, z_instrument("A"))] == [("1", 1.0)]
        monkeypatch.setattr(protocol_module, "ZERO_EIGENVALUE", np.nextafter(0.25, 0.0))
        assert [(label, p) for label, p, _ in one_round(ens, z_instrument("A"))] == [("0", 0.25), ("1", 0.75)]

    @pytest.mark.parametrize("weak, leaves", [(0.9e-12, ["strong"]), (1.1e-12, ["strong", "weak"])])
    def test_zero_band_prunes_a_file_outcome(self, tmp_path, weak, leaves):
        # A Kraus step whose "weak" outcome has probability ||K V||^2 = weak
        # on the file's one member |00>: pruned below the 1e-12 band, kept
        # above it.
        strong = [[[(1.0 - weak) ** 0.5, 0], [0, 0]], [[0, 0], [1, 0]]]
        instrument = {"labels": ["strong", "weak"], "kraus": [strong, [[[weak**0.5, 0], [0, 0]], [[0, 0], [0, 0]]]]}
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({
            "kind": "protocol", "name": "edge", "dims": [2, 2],
            "ensemble": [{"probability": 1.0, "vector": [[1, 0], [0, 0], [0, 0], [0, 0]]}],
            "protocol": [{"party": "A", "instrument": instrument}],
        }))
        (trial,) = run_scenario(path, "protocol-run")["trials"]
        assert [leaf["path"] for leaf in trial["leaves"]] == [[label] for label in leaves]


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


# A 3-outcome Kraus default: sum_k K_k^dagger K_k = I.
TRINE_KRAUS = [np.diag([0.6**0.5, 0.0]), np.diag([0.0, 0.7**0.5]), np.diag([0.4**0.5, 0.3**0.5])]


@pytest.mark.parametrize(
    "chooser, depth, message",
    [
        ({}, -1, "depth must be nonnegative, got -1"),
        ({}, 1, "chooser undefined for history ()"),
        (
            lambda history: KrausInstrument.projective("A", np.eye(3)),
            1,
            "dimension mismatch: instrument on A has size 3, party dimension is 2",
        ),
        # Round 2 has nodes a, b, c: b conflicts with a's party and c is
        # undefined. The chooser is asked and checked node by node, so b's
        # conflict is named before c is asked.
        (
            {
                (): KrausInstrument(party="A", outcomes=tuple(zip("abc", TRINE_KRAUS))),
                ("a",): z_instrument("A"),
                ("b",): z_instrument("B"),
            },
            2,
            "round 2: party 'B' conflicts with 'A' chosen on another branch",
        ),
        (lambda history: None, 1, "chooser answer for history (): None is not a KrausInstrument"),
        ({(): None}, 1, "chooser answer for history (): None is not a KrausInstrument"),
        (lambda history: "x", 1, "chooser answer for history (): 'x' is not a KrausInstrument"),
        # Round 2 asks ("+",) first; its answer is named before ("-",) is asked.
        (
            {(): x_instrument("A"), ("+",): None},
            2,
            "chooser answer for history ('+',): None is not a KrausInstrument",
        ),
        # Each of these raised a raw AttributeError or TypeError before
        # run_protocol checked the chooser's form and the depth's type.
        (None, 1, "chooser must be a StepChooser, a Mapping or a callable, got NoneType"),
        ([z_instrument("A")], 1, "chooser must be a StepChooser, a Mapping or a callable, got list"),
        ({(): z_instrument("A")}, "1", "depth must be an integer, got '1'"),
        ({(): z_instrument("A")}, None, "depth must be an integer, got None"),
        ({(): z_instrument("A")}, 1.0, "depth must be an integer, got 1.0"),
        ({(): z_instrument("A")}, True, "depth must be an integer, got True"),
    ],
    ids=[
        "negative_depth",
        "undefined_history",
        "wrong_size",
        "conflict_before_gap",
        "callable_answers_none",
        "mapping_answers_none",
        "callable_answers_str",
        "answer_below_the_root",
        "chooser_none",
        "chooser_list",
        "depth_str",
        "depth_none",
        "depth_float",
        "depth_bool",
    ],
)
def test_run_protocol_rejection_message(chooser, depth, message):
    with pytest.raises(ValueError) as excinfo:
        run_protocol(phi_mixture(), chooser, depth)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("ensemble", [None, [(1.0, bell(PHI_PLUS))]], ids=["none", "list_of_pairs"])
def test_run_protocol_shares_the_ensemble_check(ensemble):
    # Raised AttributeError: ... 'dim_a' before; entropy_summary's check now
    # serves both entry points.
    expected = f"needs a BipartiteEnsemble or a SpectralEnsemble, got {type(ensemble).__name__}"
    with pytest.raises(ValueError) as excinfo:
        run_protocol(ensemble, {}, 0)
    assert str(excinfo.value) == f"run_protocol {expected}"
    with pytest.raises(ValueError) as excinfo:
        entropy_summary(ensemble)
    assert str(excinfo.value) == f"entropy_summary {expected}"


def pairs(matrix) -> list:
    """A matrix as the scenario file's nested [re, im] pairs."""
    return np.stack([np.real(matrix), np.imag(matrix)], axis=-1).tolist()


def mixed_width_scenario(overridden=("a", "c")):
    """Three rounds whose steps mix a 3-outcome Kraus default with
    2-outcome projective overrides, so stack rows are zero-padded. Round 2
    measures the ``overridden`` outcomes of round 1 in the X basis; every
    history of round 3 has its own override."""
    rng = np.random.default_rng(21)
    members = []
    for p in (0.5, 0.3, 0.2):
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        members.append({"probability": p, "vector": pairs(vec / np.linalg.norm(vec))})
    kraus = {"labels": ["a", "b", "c"], "kraus": [pairs(op) for op in TRINE_KRAUS]}
    x = {"labels": ["+", "-"], "projective": pairs(X_BASIS)}
    z = {"labels": ["0", "1"], "projective": pairs(Z_BASIS)}
    last = {}
    for first in "abc":
        for second in ("+-" if first in overridden else "abc"):
            last[f"{first},{second}"] = (z, x)[len(last) % 2]
    return {
        "kind": "protocol",
        "name": "mixed-width",
        "dims": [2, 2],
        "ensemble": members,
        "protocol": [
            {"party": "A", "instrument": kraus},
            {"party": "B", "instrument": kraus, "overrides": {key: x for key in overridden}},
            {"party": "A", "instrument": None, "overrides": last},
        ],
    }


def rebuilt_step(step: ProtocolStep, reverse: bool = False) -> ProtocolStep:
    """``step`` built in memory from its rows, its overrides reversed if ``reverse``."""
    default, overrides = row_instruments(step)
    return ProtocolStep(step.party, default, dict(reversed(overrides.items())) if reverse else overrides)


def padded_kraus_scenario() -> dict:
    """``mixed_width_scenario`` with X on 'a' alone and two more padded Kraus
    rows: round 2 measures history 'b' with a 2-outcome Kraus override
    beside its 3-outcome Kraus default, which 'c' reaches, and round 3
    measures 'a,+' with the 3-outcome Kraus instrument beside 2-outcome
    projective rows."""
    data = mixed_width_scenario(("a",))
    weak = {"labels": ["w", "s"], "kraus": [pairs(np.diag([1.0, 0.6])), pairs(np.diag([0.0, 0.8]))]}
    kraus = data["protocol"][0]["instrument"]
    data["protocol"][1]["overrides"]["b"] = weak
    last = data["protocol"][2]["overrides"]
    for label in "abc":
        del last[f"b,{label}"]
    last.update({"b,w": kraus, "b,s": last["a,-"], "a,+": kraus})
    return data


def no_adapted_calls(monkeypatch):
    """Make run_protocol fail if it asks a chooser per node."""

    def asked(*args):
        raise AssertionError("a scenario's chooser was asked per node")

    monkeypatch.setattr(protocol_module, "_adapted", asked)


class TestChooserForms:
    """A scenario's stacks, a dict, a callable, the scenario rebuilt in
    memory and a dict of equal instrument copies give one tree, bit for bit."""

    # With every outcome of round 1 overridden, round 2 reaches only
    # 2-outcome rows of a 3-wide stack.
    @pytest.mark.parametrize("overridden", [("a", "c"), ("a", "b", "c")], ids=["default_reached", "padded_only"])
    def test_three_forms_build_the_same_tree(self, overridden):
        scenario = parse_scenario(mixed_width_scenario(overridden))
        rows = 2 * len(overridden) + 3 * (3 - len(overridden))
        assert [step.ops.shape[:2] for step in scenario.steps] == [(1, 3), (len(overridden) + 1, 3), (rows + 1, 2)]
        stacked = run_protocol(scenario.ensemble, scenario.chooser, scenario.depth)
        histories = [path for level in stacked.levels[:-1] for path in level.paths]
        table = {path: scenario.chooser(path) for path in histories}
        # The fourth form: the scenario rebuilt in memory, each step's
        # overrides in reversed order, so its rows are in another order.
        rebuilt = Scenario(
            name="rebuilt", ensemble=scenario.ensemble, bell=None, random=None,
            steps=tuple(rebuilt_step(step, reverse=True) for step in scenario.steps),
        )
        # The chooser shares one instrument object between nodes; a table of
        # distinct but equal copies gives each node its own.
        copies = {path: KrausInstrument(party=chosen.party, outcomes=chosen.outcomes) for path, chosen in table.items()}
        forms = [table, lambda history: scenario.chooser(history), rebuilt.chooser, copies]
        for chooser in forms:
            other = run_protocol(scenario.ensemble, chooser, scenario.depth)
            assert other.round_parties == stacked.round_parties == ("A", "B", "A")
            for new, ref in zip(other.levels, stacked.levels, strict=True):
                for name in ("prob", "q", "factors", "parent", "outcome"):
                    a, b = getattr(new, name), getattr(ref, name)
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
                assert new.paths == ref.paths
        reached = {"+", "-"} if len(overridden) == 3 else {"+", "-", "a", "b", "c"}
        assert {path[-1] for path in stacked.levels[2].paths} == reached

    def test_the_first_gap_in_level_order_is_named(self):
        data = mixed_width_scenario()
        del data["protocol"][2]["overrides"]["b,a"]
        del data["protocol"][2]["overrides"]["a,-"]
        scenario = parse_scenario(data)
        for chooser in (scenario.chooser, lambda history: scenario.chooser(history)):
            with pytest.raises(ScenarioError) as exc:
                run_protocol(scenario.ensemble, chooser, scenario.depth)
            assert str(exc.value) == "protocol[2]: no instrument for history 'a,-'"

    def test_seventy_rounds_run_on_their_stacks(self, monkeypatch):
        # 70 Z rounds on |11>: one branch survives, "1" every round, past the
        # 63 binary rounds an int64 history code could hold. Every round
        # reads its stack, and the override at the last round is found.
        z = {"labels": ["0", "1"], "projective": pairs(Z_BASIS)}
        x = {"labels": ["+", "-"], "projective": pairs(X_BASIS)}
        steps = [{"party": "A", "instrument": z} for _ in range(70)]
        steps[-1]["overrides"] = {",".join(["1"] * 69): x}
        scenario = parse_scenario(
            {"kind": "protocol", "dims": [2, 2], "ensemble": [{"probability": 1.0, "vector": pairs([0, 0, 0, 1])}],
             "protocol": steps}
        )
        no_adapted_calls(monkeypatch)
        transcript = run_protocol(scenario.ensemble, scenario.chooser, scenario.depth)
        assert [len(level.prob) for level in transcript.levels[:-1]] == [1] * 70
        assert transcript.levels[-1].paths == (("1",) * 69 + ("+",), ("1",) * 69 + ("-",))

    def test_a_scenario_built_in_memory_reads_its_stacks(self, monkeypatch):
        # The Scenario keeps the steps it is given, rows in the given order.
        # Built from its rows in their own order, a step is the parsed step
        # bit for bit.
        parsed = parse_scenario(mixed_width_scenario())
        built = [rebuilt_step(step, reverse=True) for step in parsed.steps]
        scenario = Scenario(name="built", ensemble=parsed.ensemble, steps=tuple(built), bell=None, random=None)
        for i, ref in enumerate(parsed.steps):
            assert scenario.steps[i] is built[i]
            assert scenario.steps[i].histories == ref.histories[::-1]
            assert scenario.steps[i].labels == (ref.labels[0], *ref.labels[:0:-1])
            assert_same_step(rebuilt_step(ref), ref)
        reference = run_protocol(parsed.ensemble, parsed.chooser, parsed.depth)
        no_adapted_calls(monkeypatch)
        transcript = run_protocol(scenario.ensemble, scenario.chooser, scenario.depth)
        for new, ref in zip(transcript.levels, reference.levels, strict=True):
            assert new.prob.tobytes() == ref.prob.tobytes()
            assert new.paths == ref.paths

    def test_a_scenario_built_in_memory_names_an_unreached_override(self):
        parsed = parse_scenario(mixed_width_scenario())
        first, second, third = parsed.steps
        _, overrides = row_instruments(third)
        overrides[("a", "c")] = overrides[("a", "+")]
        with pytest.raises(ScenarioError) as exc:
            Scenario(
                name="built", ensemble=parsed.ensemble,
                steps=(first, second, ProtocolStep("A", None, overrides)), bell=None, random=None,
            )
        assert str(exc.value) == (
            "protocol[2].overrides['a,c']: label 'c' is not an outcome of step 2 after history 'a' "
            "(outcomes ['+', '-']); no history reaches 'a,c'"
        )

    # A history built in memory is walked as the tuple it is: a wrong
    # length gets the label-count message, and a label holding a comma is
    # one label that no outcome matches.
    @pytest.mark.parametrize(
        "history, message",
        [
            ((), "protocol[1].overrides['']: history needs 1 labels, got 0"),
            (
                ("0,1",),
                "protocol[1].overrides['0,1']: label '0,1' is not an outcome of step 1 after history '' "
                "(outcomes ['0', '1']); no history reaches '0,1'",
            ),
        ],
        ids=["empty", "comma_label"],
    )
    def test_a_history_built_in_memory_is_walked_as_a_tuple(self, history, message):
        z = z_instrument("A")
        with pytest.raises(ScenarioError) as exc:
            Scenario(
                name="built", ensemble=phi_mixture(),
                steps=(ProtocolStep("A", z, {}), ProtocolStep("A", None, {history: z})), bell=None, random=None,
            )
        assert str(exc.value) == message

    def test_a_deep_chain_of_one_outcome_steps_reads_its_paths(self, monkeypatch):
        # Every step runs on its stack, and the leaves' paths are read with no
        # recursion through the levels above.
        unitary = KrausInstrument(party="A", outcomes=(("u", X_BASIS),))
        depth = 3000
        steps = (ProtocolStep("A", unitary, {}),) * depth
        scenario = Scenario(name="chain", ensemble=phi_mixture(), steps=steps, bell=None, random=None)
        no_adapted_calls(monkeypatch)
        transcript = run_protocol(scenario.ensemble, scenario.chooser, depth)
        assert transcript.levels[-1].paths == (("u",) * depth,)


class TestRowReads:
    """A step's rows are its only form: the chooser and the dump read them."""

    def test_the_chooser_builds_a_padded_row_without_its_padding(self):
        scenario = parse_scenario(padded_kraus_scenario())
        second, third = scenario.steps[1:]
        assert (second.ops.shape[:2], third.ops.shape[1]) == ((3, 3), 3)
        for step, histories in ((second, [("a",), ("b",), ("c",)]), (third, third.histories)):
            for history in histories:
                row = step.row_of(history)
                count = len(step.labels[row])
                chosen = scenario.chooser(history)
                # len(outcomes) is what perfbench's tree counts read.
                assert (chosen.party, chosen.labels, len(chosen.outcomes)) == (step.party, step.labels[row], count)
                assert_same_bits(chosen.ops, step.ops[row, :count])
                if step.kets[row] is None:
                    assert chosen.kets is None
                else:
                    assert_same_bits(chosen.kets, step.kets[row])
        # 'b' takes its 2-outcome Kraus override and 'c' the 3-outcome default.
        assert [scenario.chooser((label,)).labels for label in "abc"] == [("+", "-"), ("w", "s"), ("a", "b", "c")]

    @pytest.mark.parametrize("build", [mixed_width_scenario, padded_kraus_scenario], ids=["mixed", "padded_kraus"])
    def test_padded_rows_dump_and_parse_byte_for_byte(self, build):
        scenario = parse_scenario(build())
        text = dump_scenario(scenario)
        again = parse_scenario(json.loads(text))
        assert dump_scenario(again) == text
        for step, ref in zip(again.steps, scenario.steps, strict=True):
            assert_same_step(step, ref)
        # Each row is written with one operator or ket per label.
        for step in json.loads(text)["protocol"]:
            for instrument in filter(None, [step["instrument"], *step["overrides"].values()]):
                operators = instrument["kraus"] if "kraus" in instrument else instrument["projective"]
                assert len(operators) == len(instrument["labels"])


# Projective instruments on A of each size.
EYE_A = {size: KrausInstrument.projective("A", np.eye(size)) for size in (2, 3)}


class TestStepRules:
    """``ProtocolStep(party, instrument, overrides)`` checks what the parser
    checks of a step: one party, path-shaped histories, something to measure."""

    def test_an_instrument_on_the_other_party_is_rejected(self):
        on_b = KrausInstrument.projective("B", np.eye(2))
        on_a = KrausInstrument.projective("A", np.eye(2))
        for default, overrides in ((on_b, {}), (on_a, {("0",): on_b}), (None, {("0",): on_b})):
            with pytest.raises(ValueError) as exc:
                ProtocolStep("A", default, overrides)
            assert str(exc.value) == "step on A: instrument on B"

    # A str key would be read one character per label, and ("",) would join
    # to the empty history's key: neither names the path it would match.
    @pytest.mark.parametrize("history", ["0", (0,), ("",)], ids=["str", "int_label", "empty_label"])
    def test_a_history_must_be_a_tuple_of_labels(self, history):
        instrument = KrausInstrument.projective("A", np.eye(2))
        with pytest.raises(ValueError) as exc:
            ProtocolStep("A", instrument, {history: instrument})
        assert str(exc.value) == f"override history {history!r} is not a tuple of nonempty str labels"

    def test_a_history_tuple_of_labels_is_accepted(self):
        instrument = KrausInstrument.projective("A", np.eye(2))
        assert ProtocolStep("A", None, {("0",): instrument}).histories == (("0",),)

    def test_a_step_with_nothing_to_measure_is_rejected(self):
        with pytest.raises(ValueError) as exc:
            ProtocolStep("A", None, {})
        assert str(exc.value) == "step needs an 'instrument' or nonempty 'overrides'"

    @pytest.mark.parametrize(
        "default, overrides, message",
        [
            ("x", {}, "default instrument 'x' is not a KrausInstrument"),
            (EYE_A[2], {("0",): None}, "override for history ('0',): None is not a KrausInstrument"),
            (EYE_A[2], {("0",): EYE_A[3]}, "step on A: default of size 2, overrides of size 3"),
            (None, {("0",): EYE_A[2], ("1",): EYE_A[3]}, "instruments of one step differ in size: [2, 3]"),
            (None, [(("0",), EYE_A[2])], "overrides must be a history -> instrument mapping, got list"),
        ],
        ids=[
            "default_not_an_instrument",
            "override_not_an_instrument",
            "default_and_override_sizes",
            "override_sizes",
            "overrides_not_a_mapping",
        ],
    )
    def test_a_step_rejects_what_it_cannot_stack(self, default, overrides, message):
        with pytest.raises(ValueError) as exc:
            ProtocolStep("A", default, overrides)
        assert str(exc.value) == message


class TestIdentity:
    """Instruments, steps and scenarios hold arrays: they compare by identity."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: KrausInstrument.projective("A", np.eye(2)),
            lambda: random_scenario(1, protocol_depth=2),
            lambda: random_scenario(1, protocol_depth=2).steps[1],
        ],
        ids=["instrument", "scenario", "step"],
    )
    def test_equality_is_a_bool_and_hash_works(self, build):
        a, b = build(), build()
        assert (a == b) is False and (a == a) is True
        assert {a: 1, b: 2}[a] == 1


def random_kraus(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """``count`` Kraus operators on ``dim`` with sum K^dagger K = I: the
    blocks of a random (count * dim) x dim isometry."""
    z = rng.standard_normal((count * dim, dim)) + 1j * rng.standard_normal((count * dim, dim))
    return np.linalg.qr(z)[0].reshape(count, dim, dim)


def dense_children(level, step, rows, dims) -> list[tuple[int, int, float, np.ndarray, np.ndarray]]:
    """(parent, outcome, probability, posterior weights, posterior states) of
    each surviving child, from dense matrices alone: K (x) I or I (x) K
    applied to each member's V V^dagger, one outcome of the row's own at a
    time, in (node, outcome) order. A member of outcome weight at most the
    residue cut keeps its prior state; outcomes at or below ZERO_EIGENVALUE
    are pruned."""
    dim_a, dim_b = dims
    children = []
    for n, row in enumerate(rows):
        priors = [v @ v.conj().T for v in level.factors[n]]
        outcomes = []
        for k, op in enumerate(step.ops[row, : len(step.labels[row])]):
            full = np.kron(op, np.eye(dim_b)) if step.party == "A" else np.kron(np.eye(dim_a), op)
            moved = [full @ rho @ full.conj().T for rho in priors]
            weight = np.array([np.trace(sigma).real for sigma in moved])
            states = [
                sigma / w if w > protocol_module._RESIDUE_CUT else rho for sigma, w, rho in zip(moved, weight, priors)
            ]
            joint = level.q[n] * weight
            outcomes.append((k, joint.sum(), joint / joint.sum(), np.array(states)))
        kept = [outcome for outcome in outcomes if outcome[1] > protocol_module.ZERO_EIGENVALUE]
        total = sum(p for _, p, _, _ in kept)
        children += [(n, k, level.prob[n] * p / total, q, states) for k, p, q, states in kept]
    return children


@pytest.mark.parametrize("party", ["A", "B"])
@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)], ids=["2x3", "3x2", "3x3"])
def test_expand_matches_dense_kraus_products(dims, party):
    """``_expand``'s one product per node against the dense oracle. Three
    nodes of three mixed (rank-2) members: node 0 is measured by a
    projective override in the computational basis, node 1 by a 2-outcome
    Kraus default and node 2 by a 4-outcome Kraus override, so the rows of
    the 4-wide stack are zero-padded. Node 0's member 0 lives on the acting
    party's |0>, so it has weight 0 under every other outcome there and
    keeps its prior state."""
    rng = np.random.default_rng([dims[0], dims[1], ord(party)])
    dim_a, dim_b = dims
    local = dims["AB".index(party)]
    n, m, r = 3, 3, 2
    factors = rng.standard_normal((n, m, dim_a, dim_b, r)) + 1j * rng.standard_normal((n, m, dim_a, dim_b, r))
    if party == "A":
        factors[0, 0, 1:] = 0.0
    else:
        factors[0, 0, :, 1:] = 0.0
    factors /= np.sqrt((np.abs(factors) ** 2).sum(axis=(2, 3, 4), keepdims=True))
    level = protocol_module.TreeLevel(
        prob=rng.dirichlet(np.ones(n)),
        q=rng.dirichlet(np.ones(m), size=n),
        factors=factors.reshape(n, m, dim_a * dim_b, r),
        parent=np.zeros(n, dtype=int),
        outcome=np.arange(n),
    )
    default = KrausInstrument(party, tuple(zip("xy", random_kraus(rng, local, 2))))
    overrides = {
        ("p",): KrausInstrument.projective(party, np.eye(local)),
        ("k",): KrausInstrument(party, tuple(zip("abcd", random_kraus(rng, local, 4)))),
    }
    step = ProtocolStep(party, default, overrides)
    rows = np.array([step.row_of(path) for path in (("p",), ("z",), ("k",))])
    assert rows.tolist() == [1, 0, 2] and step.ops.shape[1] == 4

    children = protocol_module._expand(level, step, rows, dims)
    expected = dense_children(level, step, rows, dims)
    assert [(parent, k) for parent, k, *_ in expected] == list(zip(children.parent, children.outcome))
    # Node 0 keeps every outcome of its basis, and member 0 is certain of outcome 0.
    assert [k for parent, k, *_ in expected if parent == 0] == list(range(local))
    assert all(q[0] == 0.0 for parent, k, _, q, _ in expected if parent == 0 and k > 0)
    posteriors = children.factors @ children.factors.conj().swapaxes(-1, -2)
    for i, (parent, k, prob, q, states) in enumerate(expected):
        assert children.prob[i] == pytest.approx(prob, abs=1e-12)
        np.testing.assert_allclose(children.q[i], q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(posteriors[i], states, rtol=0, atol=1e-12)
