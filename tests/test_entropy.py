import json

import numpy as np
import pytest

from locclab import (
    BellDiagonalSpec,
    BipartiteEnsemble,
    SpectralEnsemble,
    bell_diagonal,
    bound_suite,
    entropy_summary,
    is_ppt,
    partial_trace,
    pure_state_density,
    run_protocol,
    shannon_entropy,
    validate_density,
)
from locclab.cli import run_scenario
from locclab.entropy import (
    ZERO_EIGENVALUE,
    _require_weights,
    concurrences,
    entanglements,
    shannon_entropies,
    von_neumann_entropies,
)
from locclab.linalg import DEFAULT_TOL

from helpers import (
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    bell,
    entanglement_oracle,
    holevo_oracle,
    random_bipartite_density,
    random_density,
    random_pure_vector,
)


def entropy(matrix) -> float:
    return float(von_neumann_entropies(matrix))


def entanglement(state) -> float:
    return float(entanglements(state.matrix[None], state.dim_a, state.dim_b)[0])


def holevo(members) -> float:
    """The package's Holevo quantity of one-party states, each taken as a (D, 1) bipartite state."""
    ensemble = BipartiteEnsemble(tuple((p, validate_density(rho, len(rho), 1)) for p, rho in members))
    return entropy_summary(ensemble)["holevo"]


# frozen against direct -sum p log2 p evaluation
H_09_01 = 0.4689955935892812
H_BELL_SPECTRUM = 1.3567796494470397
CHI_ZERO_PLUS = 0.6008760366928562
EOF_WERNER_HALF = 0.11761887377091781


class TestShannonEntropy:
    def test_uniform_bit(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_biased(self):
        assert shannon_entropy([0.9, 0.1]) == pytest.approx(H_09_01, abs=1e-12)
        assert abs(shannon_entropy([0.9, 0.1]) - 0.4690) < 1e-4

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            shannon_entropy([1.1, -0.1])

    def test_normalization_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            shannon_entropy([0.6, 0.6])


    def test_an_entry_on_the_zero_band_counts_as_zero(self, tmp_path):
        # |p| <= ZERO_EIGENVALUE is zero: an entry of exactly 1e-12 adds no
        # -p log2 p term (4e-11 bits), the next float above it does.
        rest = 1.0 - ZERO_EIGENVALUE
        alone = float(-rest * np.log2(rest))
        assert shannon_entropy([rest, ZERO_EIGENVALUE]) == alone
        above = float(np.nextafter(ZERO_EIGENVALUE, 1.0))
        assert shannon_entropy([1.0 - above, above]) > alone + 3e-11
        # From a file: the closed-form hashing bound log2 d - H(weights) of
        # a Bell file with those weights.
        path = tmp_path / "bell.json"
        path.write_text(json.dumps({"kind": "bell_diagonal", "name": "b", "bell": {"d": 2, "probs": [rest, 1e-12, 0, 0]}}))
        (trial,) = run_scenario(path, "distill-report")["trials"]
        assert trial["report"]["closed_form_hashing"] == 1.0 - alone


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        assert entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state(self):
        assert entropy(bell(PHI_PLUS).matrix) == pytest.approx(0.0, abs=1e-12)

    def test_bell_diagonal_spectrum(self):
        rho = sum(
            p * bell(v).matrix
            for p, v in zip((0.7, 0.1, 0.1, 0.1), (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS))
        )
        value = entropy(validate_density(rho, 2, 2).matrix)
        assert value == pytest.approx(H_BELL_SPECTRUM, abs=1e-12)
        assert abs(value - 1.3568) < 1e-4

    def test_bounded_by_log_dim_with_equality_only_near_maximally_mixed(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            value = entropy(random_density(rng, dim))
            assert value <= np.log2(dim) + 1e-9
        assert entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-9)
        nudged = np.diag([0.26, 0.24, 0.26, 0.24])
        assert entropy(nudged) < 2.0 - 1e-6

    def test_concavity(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            dim = int(rng.integers(2, 5))
            rho1 = random_density(rng, dim)
            rho2 = random_density(rng, dim)
            p = float(rng.uniform())
            mixed = entropy(p * rho1 + (1 - p) * rho2)
            assert mixed >= p * entropy(rho1) + (1 - p) * entropy(rho2) - 1e-9

    def test_pure_bipartite_marginals_have_equal_entropy(self):
        rng = np.random.default_rng(37)
        for dims in ((2, 2), (2, 3), (3, 4)):
            for _ in range(20):
                psi = pure_state_density(random_pure_vector(rng, dims[0] * dims[1]), *dims)
                s_a = entropy(partial_trace(psi.matrix, "A", dims))
                s_b = entropy(partial_trace(psi.matrix, "B", dims))
                assert abs(s_a - s_b) < 1e-9

    @pytest.mark.parametrize("dim", [2, 3], ids=["closed_form", "lapack"])
    @pytest.mark.parametrize("entry", [np.inf, np.nan, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
    def test_non_finite_entry_rejected(self, dim, entry, where):
        mat = np.eye(dim, dtype=complex) / dim
        mat[where] = entry
        with pytest.raises(ValueError, match="^non-finite entry: "):
            entropy(mat)


class TestHolevoChi:
    # The package's value (entropy_summary) and the numpy oracle each meet the pin.
    def test_orthogonal_pure_states(self):
        members = [(0.5, np.diag([1.0, 0.0])), (0.5, np.diag([0.0, 1.0]))]
        assert holevo(members) == pytest.approx(1.0, abs=1e-12)
        assert holevo_oracle(members) == pytest.approx(1.0, abs=1e-12)

    def test_identical_states(self):
        rho = np.eye(2) / 2
        assert holevo([(0.5, rho), (0.5, rho)]) == pytest.approx(0.0, abs=1e-12)
        assert holevo_oracle([(0.5, rho), (0.5, rho)]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_plus_ensemble(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        members = [(0.5, np.diag([1.0, 0.0])), (0.5, plus)]
        value = holevo(members)
        assert value == pytest.approx(CHI_ZERO_PLUS, abs=1e-12)
        assert holevo_oracle(members) == pytest.approx(CHI_ZERO_PLUS, abs=1e-12)
        assert abs(value - 0.6008) < 1e-4

    def test_positive_on_random_ensembles(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(n))
            members = [(float(p), random_density(rng, 3)) for p in probs]
            value = holevo(members)
            assert value >= -1e-9
            assert abs(value - holevo_oracle(members)) <= 1e-12


class TestEntanglement:
    def test_bell_state(self):
        assert entanglement(bell(PHI_PLUS)) == pytest.approx(1.0, abs=1e-12)

    def test_pure_product(self):
        assert entanglement(pure_state_density([1, 0, 0, 0], 2, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_werner_mixture_concurrence_and_eof(self):
        rho = validate_density(0.5 * bell(PSI_MINUS).matrix + 0.5 * np.eye(4) / 4, 2, 2)
        assert float(concurrences(rho.matrix)) == pytest.approx(0.25, abs=1e-9)
        assert entanglement(rho) == pytest.approx(EOF_WERNER_HALF, abs=1e-9)
        assert entanglement_oracle(rho.matrix, 2, 2) == pytest.approx(EOF_WERNER_HALF, abs=1e-9)
        assert abs(entanglement(rho) - 0.1176) < 1e-3

    def test_wootters_matches_pure_measure_on_pure_states(self):
        # Wootters EoF h((1 + sqrt(1 - C^2)) / 2) from the concurrence,
        # against the entropy of entanglement that a pure state resolves to.
        rng = np.random.default_rng(43)
        for _ in range(100):
            psi = pure_state_density(random_pure_vector(rng, 4), 2, 2)
            c = float(concurrences(psi.matrix))
            x = (1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0
            eof = shannon_entropy([x, 1.0 - x])
            assert abs(eof - entanglement(psi)) < 1e-7

    def test_wootters_h_takes_the_shannon_zero_rule(self):
        # Isotropic p|Phi+><Phi+| + (1 - p) I/4 with C = (3p - 1)/2 = 1e-6:
        # x = (1 + sqrt(1 - C^2))/2 lies within 1e-12 of 1, where only the
        # (1 - x) term is a zero under the Shannon rule; the x term is kept.
        p = (1.0 + 2e-6) / 3.0
        rho = p * bell(PHI_PLUS).matrix + (1.0 - p) * np.eye(4) / 4
        c = concurrences(rho[None])
        x = (1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c))) / 2.0
        assert 0.0 < 1.0 - x[0] < 1e-12
        expected = shannon_entropies(np.stack([x, 1.0 - x], axis=-1))
        assert expected[0] > 0.0
        assert entanglements(rho[None], 2, 2)[0] == expected[0]

    def test_purity_is_judged_at_unit_trace(self, tmp_path):
        # A d = 3 Bell-diagonal state whose one weight is 1 - 6e-10 passes
        # the weight rule. Its trace is 1 - 6e-10 and its purity
        # tr(rho^2) = 1 - 1.2e-9: pure once scaled to unit trace, mixed (and
        # so without a measure in 3x3) if the purity were read as given. The
        # root member and the leaf average are that state.
        probs = [1.0 - 6e-10] + [0.0] * 8
        log3 = np.log2(3.0)
        rho = bell_diagonal(BellDiagonalSpec(3, probs))
        assert entanglements(rho.matrix[None], 3, 3)[0] == pytest.approx(log3, abs=1e-9)
        report = bound_suite(run_protocol(SpectralEnsemble(rho), {}, 0))
        assert report.e_in_avg == pytest.approx(probs[0] * log3, abs=1e-12)
        assert report.e_out_avg == pytest.approx(log3, abs=1e-9)
        path = tmp_path / "bell3.json"
        path.write_text(json.dumps({"kind": "bell_diagonal", "name": "b", "bell": {"d": 3, "probs": probs}}))
        result = run_scenario(path, "bounds-verify")
        (trial,) = result["trials"]
        assert result["passed"] is True
        assert trial["e_in_avg"] == pytest.approx(probs[0] * log3, abs=1e-12)
        assert trial["e_out_avg"] == pytest.approx(log3, abs=1e-9)

    def test_mixed_large_dims_unavailable(self):
        rng = np.random.default_rng(47)
        rho = random_bipartite_density(rng, 2, 3)
        with pytest.raises(ValueError, match="measure unavailable"):
            entanglement(rho)

    def test_auto_resolution(self):
        # The measure follows the state: a pure state of any dimensions gets
        # S(tr_B rho), a mixed 2x2 state Wootters' EoF, the two in one stack.
        rng = np.random.default_rng(59)
        pure_2x3 = pure_state_density(random_pure_vector(rng, 6), 2, 3)
        assert entanglement(pure_2x3) == pytest.approx(entanglement_oracle(pure_2x3.matrix, 2, 3), abs=1e-12)
        werner = 0.5 * bell(PSI_MINUS).matrix + 0.5 * np.eye(4) / 4
        stack = np.stack([bell(PHI_PLUS).matrix, werner, np.eye(4) / 4])
        np.testing.assert_allclose(entanglements(stack, 2, 2), [1.0, EOF_WERNER_HALF, 0.0], rtol=0, atol=1e-9)

    def test_range_on_random_mixed_two_qubit_states(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            rho = random_bipartite_density(rng, 2, 2)
            value = entanglement(rho)
            assert -1e-12 <= value <= 1.0 + 1e-12
            assert abs(value - entanglement_oracle(rho.matrix, 2, 2)) <= 1e-12

    def test_stacked_concurrences_match_each_state_solved_alone(self):
        # Random mixed states of rank 2, 3 and 4: both square roots of the
        # stack come from one eigh, and no row may depend on the others.
        rng = np.random.default_rng(61)
        states = []
        for rank in (2, 3, 4) * 8:
            g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            rho = g @ g.conj().T
            states.append(rho / np.trace(rho).real)
        stack = np.stack(states)
        values = concurrences(stack)
        assert values.shape == (len(states),) and (values > 0.0).sum() >= 8
        for rho, value in zip(stack, values):
            assert value == concurrences(rho) == concurrences(rho[None])[0]
        eof = entanglements(stack, 2, 2)
        for rho, value in zip(stack, eof):
            assert abs(value - entanglement_oracle(rho, 2, 2)) <= 1e-9


class TestIsPpt:
    def test_bell_state_is_npt(self):
        flag, lowest = is_ppt(bell(PHI_PLUS))
        assert flag is False
        assert lowest == pytest.approx(-0.5, abs=1e-9)

    def test_maximally_mixed_is_ppt(self):
        flag, lowest = is_ppt(validate_density(np.eye(4) / 4, 2, 2))
        assert flag is True
        assert lowest == pytest.approx(0.25, abs=1e-12)

    def test_classical_mixture_is_ppt(self):
        flag, lowest = is_ppt(validate_density(np.diag([0.5, 0.0, 0.0, 0.5]), 2, 2))
        assert flag is True
        assert lowest == pytest.approx(0.0, abs=1e-12)


class TestBipartiteEnsemble:
    def test_probability_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            BipartiteEnsemble(((0.5, bell(PHI_PLUS)),))

    def test_mixed_dims_rejected(self):
        qubit = validate_density(np.eye(2) / 2, 2, 1)
        with pytest.raises(ValueError, match="dims"):
            BipartiteEnsemble(((0.5, bell(PHI_PLUS)), (0.5, qubit)))

    def test_zero_probability_member_allowed(self):
        ens = BipartiteEnsemble(((1.0, bell(PHI_PLUS)), (0.0, bell(PHI_MINUS))))
        assert ens.probabilities().tolist() == [1.0, 0.0]


MIXED = validate_density(np.eye(4) / 4, 2, 2)
MEASURE_UNAVAILABLE = "only pure states or 2x2 mixed states are measurable"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BipartiteEnsemble(()), "ensemble needs at least one member"),
        (lambda: BipartiteEnsemble(((1.5, MIXED), (-0.5, MIXED))), "negative weight -0.5 at index 1"),
        (lambda: BipartiteEnsemble(((0.5, MIXED), (0.4, MIXED))), "weights sum to 0.9, not 1"),
        (lambda: von_neumann_entropies([np.eye(2) / 2, [[0.5, 0.1], [0.2, 0.5]]]), "not Hermitian: deviation 1.000e-01"),
        (lambda: von_neumann_entropies(np.diag([1.5, -0.25, -0.25])), "negative eigenvalue -2.500e-01"),
        (
            lambda: entanglements(np.eye(9)[None] / 9, 3, 3),
            f"measure unavailable: mixed state with dims (3, 3); {MEASURE_UNAVAILABLE}",
        ),
    ],
    ids=["empty_ensemble", "negative_weight", "weight_sum", "not_hermitian", "negative_eigenvalue", "no_measure"],
)
def test_rejection_message(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


def loop_weight_rule(weights: list[float]) -> str | None:
    """The weight rule as the Python loop it once was: the message of the
    first fault of one weight vector, or None."""
    for i, p in enumerate(weights):
        if p < -ZERO_EIGENVALUE:
            return f"negative weight {p!r} at index {i}"
    total = sum(weights)
    if not abs(total - 1.0) <= DEFAULT_TOL:
        return f"weights sum to {total!r}, not 1"
    return None


def weight_rule_message(weights) -> str | None:
    try:
        _require_weights(weights)
    except ValueError as exc:
        return str(exc)
    return None


def perturbed_weights(rng: np.random.Generator) -> list[float]:
    """A point of the simplex with 1-20 weights, left as it is or given one
    fault near a tolerance: a weight around -ZERO_EIGENVALUE, a sum
    around 1 +- DEFAULT_TOL, or a NaN."""
    weights = rng.dirichlet(np.ones(int(rng.integers(1, 21))))
    fault = int(rng.integers(4))
    if fault == 1:
        weights[rng.integers(len(weights))] = -(10.0 ** rng.uniform(-13, -11))
    elif fault == 2:
        weights *= 1.0 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-9.3, -8.7)
    elif fault == 3:
        weights[rng.integers(len(weights))] = np.nan
    return weights.tolist()


def test_weight_rule_agrees_with_the_loop_it_replaced():
    # NumPy sums in another order than sum(), so a sum message may differ
    # in its last digits: its value is compared within 1e-15.
    rng = np.random.default_rng(25)
    vectors = [perturbed_weights(rng) for _ in range(400)]
    for weights in vectors:
        expected, message = loop_weight_rule(weights), weight_rule_message(weights)
        if expected is None or expected.startswith("negative"):
            assert message == expected, weights
        else:
            assert message.startswith("weights sum to ") and message.endswith(", not 1"), weights
            got, want = (float(text[len("weights sum to ") : -len(", not 1")]) for text in (message, expected))
            assert got == pytest.approx(want, rel=0, abs=1e-15, nan_ok=True), weights
    assert sum(loop_weight_rule(weights) is None for weights in vectors) >= 100
    # A stack is checked row by row, and shannon_entropy applies the same rule.
    stack = [weights for weights in vectors if len(weights) == 5]
    assert (weight_rule_message(np.array(stack)) is None) == all(loop_weight_rule(w) is None for w in stack)
    for weights in vectors[:50]:
        try:
            shannon_entropy(weights)
        except ValueError as exc:
            assert str(exc) == weight_rule_message(weights)
        else:
            assert weight_rule_message(weights) is None
