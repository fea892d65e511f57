import math
import re

import numpy as np
import pytest

from locclab import (
    BellDiagonalSpec,
    SpectralEnsemble,
    bell_diagonal,
    bell_hashing_bound,
    bell_partial_bound,
    distillation_report,
    partial_trace,
    pure_state_density,
    run_protocol,
    validate_density,
)

from helpers import (
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    bell,
    bell_vectors,
    pure_entanglement_oracle,
    random_bipartite_density,
    shannon_oracle,
)

# frozen oracle values for the (0.9, 0.1, 0, 0) spec
FULL_BOUND_09 = 0.5310044064107188
PARTIAL_BOUND_09 = 0.6807372359481642


def spec_09() -> BellDiagonalSpec:
    return BellDiagonalSpec(2, (0.9, 0.1, 0.0, 0.0))


def bell_projector(d: int, k: int) -> np.ndarray:
    """``bell_diagonal`` with all the weight on Bell state k."""
    probs = np.zeros(d * d)
    probs[k] = 1.0
    return bell_diagonal(BellDiagonalSpec(d, tuple(probs))).matrix


class TestBellBasis:
    def test_two_qubit_order(self):
        # k = a*d + b ordering: Phi+, Psi+, Phi-, Psi- (projector-level check),
        # for the package and for the np.kron oracle alike.
        expected = [PHI_PLUS, PSI_PLUS, PHI_MINUS, PSI_MINUS]
        for k, (ket, ref) in enumerate(zip(bell_vectors(2), expected)):
            np.testing.assert_allclose(bell_projector(2, k), np.outer(ref, ref.conj()), atol=1e-12)
            np.testing.assert_allclose(np.outer(ket, ket.conj()), np.outer(ref, ref.conj()), atol=1e-12)

    def test_orthonormal_for_d3(self):
        basis = np.column_stack(bell_vectors(3))
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(9), atol=1e-12)
        for k, ket in enumerate(bell_vectors(3)):
            np.testing.assert_allclose(bell_projector(3, k), np.outer(ket, ket.conj()), atol=1e-12)

    def test_maximally_entangled_marginals(self):
        for k in range(9):
            for side in "AB":
                np.testing.assert_allclose(partial_trace(bell_projector(3, k), side, (3, 3)), np.eye(3) / 3, atol=1e-12)


class TestBellDiagonal:
    def test_pure_weight_gives_bell_projector(self):
        rho = bell_diagonal(BellDiagonalSpec(2, (1.0, 0.0, 0.0, 0.0)))
        np.testing.assert_allclose(rho.matrix, bell(PHI_PLUS).matrix, atol=1e-12)

    def test_uniform_weights_give_maximally_mixed(self):
        rho = bell_diagonal(BellDiagonalSpec(2, (0.25,) * 4))
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_built_state_passes_validate_density(self, d):
        # bell_diagonal returns its matrix unchecked: Dirichlet, isotropic,
        # partly zero and pure weights must all give a density operator.
        rng = np.random.default_rng(d)
        n = d * d
        fidelity = float(rng.uniform(1.0 / d, 1.0))
        zeroed = rng.dirichlet(np.ones(n))
        zeroed[-d:] = 0.0
        specs = [
            rng.dirichlet(np.ones(n)),
            [fidelity] + [(1.0 - fidelity) / (n - 1)] * (n - 1),
            zeroed / zeroed.sum(),
            np.eye(n)[n // 2],
        ]
        for probs in specs:
            rho = bell_diagonal(BellDiagonalSpec(d, tuple(probs)))
            assert not rho.matrix.flags.writeable
            assert validate_density(rho.matrix, d, d).matrix.tobytes() == rho.matrix.tobytes()

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            BellDiagonalSpec(2, (0.5, 0.4, 0.0, 0.0))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            BellDiagonalSpec(2, (0.5, 0.5))


class TestSpectralEnsemble:
    def test_bell_diagonal_09(self):
        se = SpectralEnsemble(bell_diagonal(spec_09()))
        assert [round(w, 12) for w in se.weights.tolist()] == [0.9, 0.1]
        assert not se.degenerate
        np.testing.assert_allclose(se.kets[0], PHI_PLUS, atol=1e-9)
        np.testing.assert_allclose(se.kets[1], PSI_PLUS, atol=1e-9)

    def test_pure_state_single_member(self):
        se = SpectralEnsemble(bell(PHI_PLUS))
        assert len(se.weights) == 1
        assert se.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_degenerate(self):
        se = SpectralEnsemble(validate_density(np.eye(4) / 4, 2, 2))
        assert len(se.weights) == 4
        assert se.degenerate
        np.testing.assert_allclose(se.weights, [0.25] * 4)

    def test_solved_kets_are_orthonormal_and_read_only(self):
        rng = np.random.default_rng(20)
        for rho in [random_bipartite_density(rng, 2, 3) for _ in range(10)] + [bell_diagonal(spec_09())]:
            se = SpectralEnsemble(rho)
            assert se.kets.shape == (len(se.weights), rho.dim_a * rho.dim_b)
            assert (se.dim_a, se.dim_b) == (rho.dim_a, rho.dim_b)
            assert np.abs(se.kets.conj() @ se.kets.T - np.eye(len(se.weights))).max() <= 1e-12
            assert not se.weights.flags.writeable and not se.kets.flags.writeable


class TestMeanLocalEntropy:
    def test_bell_diagonal_09(self):
        assert distillation_report(bell_diagonal(spec_09())).mean_local_entropy == pytest.approx(1.0, abs=1e-9)

    def test_pure_product(self):
        report = distillation_report(pure_state_density([1, 0, 0, 0], 2, 2))
        assert report.mean_local_entropy == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_orthonormal_pair(self):
        # half a Bell state, half an orthogonal product state: the two lie
        # in different blocks of the matrix, so the degenerate cluster's
        # basis is exactly this pair
        product = np.array([0, 1, 0, 0], dtype=complex)
        rho = validate_density(0.5 * np.outer(PHI_PLUS, PHI_PLUS) + 0.5 * np.outer(product, product), 2, 2)
        se = SpectralEnsemble(rho)
        np.testing.assert_allclose(se.kets, [PHI_PLUS, product], atol=1e-12)
        # The side-A member entropy of its depth-zero root.
        assert run_protocol(se, {}, 0).stats.member_entropy["A"][0] == pytest.approx(0.5, abs=1e-12)

    def test_sides_agree_on_random_states(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            rho = random_bipartite_density(rng, 2, 3)
            se = SpectralEnsemble(rho)
            members = list(zip(se.weights.tolist(), se.kets))
            side_a = sum(w * pure_entanglement_oracle(v, 2, 3) for w, v in members)
            # The same kets with the parties swapped: B's Schmidt coefficients.
            side_b = sum(w * pure_entanglement_oracle(v.reshape(2, 3).T.reshape(-1), 3, 2) for w, v in members)
            mean_local = distillation_report(rho).mean_local_entropy
            assert abs(mean_local - side_a) <= 1e-12
            assert abs(mean_local - side_b) <= 1e-12


class TestFullDistinguishBound:
    def test_bell_diagonal_09(self):
        value = distillation_report(bell_diagonal(spec_09())).full_distinguish_bound
        assert value == pytest.approx(FULL_BOUND_09, abs=1e-9)
        assert abs(value - 0.5310) < 1e-4

    def test_pure_bell(self):
        assert distillation_report(bell(PHI_PLUS)).full_distinguish_bound == pytest.approx(1.0, abs=1e-9)

    def test_pure_product(self):
        rho = pure_state_density([1, 0, 0, 0], 2, 2)
        assert distillation_report(rho).full_distinguish_bound == pytest.approx(0.0, abs=1e-12)


class TestBellClosedForms:
    def test_hashing_09(self):
        raw, clamped = bell_hashing_bound(spec_09())
        assert raw == pytest.approx(FULL_BOUND_09, abs=1e-12)
        assert clamped == raw

    def test_hashing_uniform_clamps_to_zero(self):
        raw, clamped = bell_hashing_bound(BellDiagonalSpec(2, (0.25,) * 4))
        assert raw == pytest.approx(-1.0, abs=1e-12)
        assert clamped == 0.0

    def test_hashing_pure(self):
        raw, clamped = bell_hashing_bound(BellDiagonalSpec(2, (1.0, 0.0, 0.0, 0.0)))
        assert raw == pytest.approx(1.0, abs=1e-12) and clamped == raw

    def test_partial_09(self):
        assert bell_partial_bound(spec_09()) == pytest.approx(PARTIAL_BOUND_09, abs=1e-12)

    def test_partial_uniform(self):
        assert bell_partial_bound(BellDiagonalSpec(2, (0.25,) * 4)) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_partial_pure(self):
        assert bell_partial_bound(BellDiagonalSpec(2, (1.0, 0.0, 0.0, 0.0))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_partial_positive_for_any_spec(self):
        rng = np.random.default_rng(29)
        for d in (2, 3):
            for _ in range(25):
                spec = BellDiagonalSpec(d, tuple(rng.dirichlet(np.ones(d * d)).tolist()))
                assert bell_partial_bound(spec) > 0.0


def partial_and_keep_fraction(rho) -> tuple[float, float]:
    report = distillation_report(rho)
    return report.partial_distinguish_bound, report.max_keep_fraction


class TestPartialDistinguishBound:
    def test_bell_diagonal_09(self):
        bound, r_max = partial_and_keep_fraction(bell_diagonal(spec_09()))
        assert r_max == pytest.approx(1.0 / (1.0 + shannon_oracle([0.9, 0.1])), abs=1e-9)
        assert bound == pytest.approx(PARTIAL_BOUND_09, abs=1e-9)
        assert abs(bound - 0.6807) < 1e-4

    def test_pure_product_is_vacuous(self):
        bound, r_max = partial_and_keep_fraction(pure_state_density([1, 0, 0, 0], 2, 2))
        assert bound is None and r_max is None

    def test_pure_bell(self):
        bound, r_max = partial_and_keep_fraction(bell(PHI_PLUS))
        assert r_max == pytest.approx(1.0, abs=1e-9)
        assert bound == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_maximally_mixed_uses_flagged_convention(self):
        # The deterministic eigenbasis of I/4 consists of product states, so
        # the generic route reports zero mean local entropy and a vacuous
        # zero bound, while the Bell closed form gives 1/3; the degeneracy
        # flag records that the spectral decomposition was ambiguous.
        report = distillation_report(
            validate_density(np.eye(4) / 4, 2, 2), spec=BellDiagonalSpec(2, (0.25,) * 4)
        )
        assert report.degenerate_spectrum
        assert report.mean_local_entropy == pytest.approx(0.0, abs=1e-12)
        assert report.partial_distinguish_bound == pytest.approx(0.0, abs=1e-12)
        assert report.closed_form_partial == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestClosedFormAgreement:
    def test_generic_matches_closed_forms_on_random_specs(self):
        rng = np.random.default_rng(101)
        for d in (2, 3):
            for _ in range(50):
                spec = BellDiagonalSpec(d, tuple(rng.dirichlet(np.ones(d * d)).tolist()))
                rho = bell_diagonal(spec)
                report = distillation_report(rho, spec)
                assert not report.degenerate_spectrum
                assert abs(report.full_distinguish_bound - report.closed_form_hashing) <= 1e-7
                assert abs(report.partial_distinguish_bound - report.closed_form_partial) <= 1e-7

    def test_bell_diagonal_marginal_entropies(self):
        rng = np.random.default_rng(103)
        for d in (2, 3):
            for _ in range(10):
                spec = BellDiagonalSpec(d, tuple(rng.dirichlet(np.ones(d * d)).tolist()))
                report = distillation_report(bell_diagonal(spec), spec)
                log_d = math.log2(d)
                assert report.entropy_a == pytest.approx(log_d, abs=1e-9)
                assert report.entropy_b == pytest.approx(log_d, abs=1e-9)
                assert report.mean_local_entropy == pytest.approx(log_d, abs=1e-9)

    def test_entangled_bell_diagonal_bounds_finite_nonnegative(self):
        rng = np.random.default_rng(107)
        for _ in range(25):
            probs = rng.dirichlet(np.ones(4))
            # p0 > 1/2 makes the state entangled, but the hashing bound
            # 1 - H(p) is nonnegative only for H(p) < 1. Adding 5 before
            # renormalising gives p0 >= 5/6 on every draw, and then
            # H(p) <= h(5/6) + (1/6) log2 3 ~= 0.914 < 1 (the largest H for
            # a given p0 spreads the rest evenly; H < 1 for all p0 > 0.8107).
            probs[0] += 5.0
            probs /= probs.sum()
            spec = BellDiagonalSpec(2, tuple(probs.tolist()))
            report = distillation_report(bell_diagonal(spec), spec)
            assert not report.ppt
            assert report.min_pt_eigenvalue == pytest.approx(0.5 - spec.probs[0], abs=1e-9)
            assert shannon_oracle(spec.probs) < 1.0
            assert 0.0 <= report.full_distinguish_bound < math.inf
            assert 0.0 <= report.partial_distinguish_bound < math.inf

    def test_entangled_bell_diagonal_outside_hashing_region(self):
        # Entangled (p0 > 1/2) but H(p) > 1: the raw hashing bound is
        # negative, the yield clamps to 0, and the partial bound stays
        # positive. Weights are distinct so the spectrum is nondegenerate.
        spec = BellDiagonalSpec(2, (0.6, 0.2, 0.15, 0.05))
        h = shannon_oracle(spec.probs)
        report = distillation_report(bell_diagonal(spec), spec)
        assert not report.degenerate_spectrum
        assert not report.ppt
        assert h == pytest.approx(1.533, abs=1e-3)
        assert report.full_distinguish_bound == pytest.approx(1.0 - h, abs=1e-9)
        assert report.full_distinguish_bound == pytest.approx(report.closed_form_hashing, abs=1e-9)
        assert report.full_distinguish_bound < 0.0
        assert report.full_distinguish_yield == 0.0
        assert report.partial_distinguish_bound == pytest.approx(1.0 / (1.0 + h), abs=1e-9)
        assert report.partial_distinguish_bound > 0.0

        # The p0 > 1/2 generator alone straddles the hashing region.
        rng = np.random.default_rng(107)
        raw_bounds = []
        for _ in range(25):
            probs = rng.dirichlet(np.ones(4))
            probs[0] += 1.0
            probs /= probs.sum()
            spec = BellDiagonalSpec(2, tuple(probs.tolist()))
            h = shannon_oracle(spec.probs)
            report = distillation_report(bell_diagonal(spec), spec)
            assert not report.ppt
            assert report.full_distinguish_bound == pytest.approx(1.0 - h, abs=1e-9)
            assert report.full_distinguish_yield == max(0.0, report.full_distinguish_bound)
            assert report.partial_distinguish_bound == pytest.approx(1.0 / (1.0 + h), abs=1e-9)
            assert report.partial_distinguish_bound > 0.0
            raw_bounds.append(report.full_distinguish_bound)
        assert min(raw_bounds) < 0.0 < max(raw_bounds)


class TestDistillationReport:
    def test_ppt_classification(self):
        entangled = distillation_report(bell_diagonal(spec_09()))
        assert not entangled.ppt
        assert entangled.min_pt_eigenvalue == pytest.approx(-0.4, abs=1e-9)
        separable = distillation_report(validate_density(np.eye(4) / 4, 2, 2))
        assert separable.ppt

    def test_closed_forms_absent_without_spec(self):
        report = distillation_report(bell(PHI_PLUS))
        assert report.closed_form_hashing is None
        assert report.closed_form_partial is None

    def test_yield_is_clamped_raw_retained(self):
        spec = BellDiagonalSpec(2, (0.25,) * 4)
        report = distillation_report(bell_diagonal(spec), spec)
        assert report.closed_form_hashing == pytest.approx(-1.0, abs=1e-12)
        assert report.closed_form_hashing_yield == 0.0
        assert report.full_distinguish_yield == max(0.0, report.full_distinguish_bound)

    def test_state_is_judged_as_given_at_the_tolerance_edge(self):
        # Trace 1 + 0.9e-9 and an eigenvalue of -0.9e-9 both pass
        # ``validate_density``, which keeps the matrix as given. The kept
        # spectral weights then sum to 1 + 1.8e-9, past the weight check.
        rho = validate_density(np.diag([0.5 + 1.8e-9, 0.5, 0.0, -0.9e-9]), 2, 2)
        with pytest.raises(ValueError, match=re.escape("weights sum to 1.0000000018")):
            distillation_report(rho)


@pytest.mark.parametrize(
    "d, probs, message",
    [
        (1, (1.0,), "local dimension must be >= 2, got 1"),
        (2, (1.0,), "need 4 weights, got 1"),
        (2, (0.6, -0.1, 0.5, 0.0), "negative weight -0.1 at index 1"),
        (2, (0.5, 0.4, 0.0, 0.0), "weights sum to 0.9, not 1"),
    ],
    ids=["dimension", "weight_count", "negative_weight", "weight_sum"],
)
def test_bell_spec_rejection_message(d, probs, message):
    with pytest.raises(ValueError) as excinfo:
        BellDiagonalSpec(d, probs)
    assert str(excinfo.value) == message
