"""Property tests: the batched distillation layer against the loop reference
and against an independent oracle.

Every ``DistillationReport`` field, both distinguishing bounds, every
spectral-ensemble member and every ``hermitian_eig`` eigenvector must agree
with ``reference_distillation`` within 1e-10. The inputs are Bell-diagonal
states for d = 2..6 with generic, isotropic and tied weights (tied weights
give degenerate clusters), and mixed 2x2, 2x3 and 3x3 states in a random
basis with repeated eigenvalues. The Gram-Schmidt skip of ``_GS_KEEP`` is
taken by none of them: the per-block walk completes every cluster without
it, and only the star-graph tests in ``test_block_split.py`` cover it.

Every entropy field and both bounds must also agree within 1e-10 with
``helpers.distillation_oracle``, which takes S, S_A and S_B from explicit
eigensolves and partial traces and the mean local entropy from the members'
Schmidt coefficients, on random mixed 2x2, 2x3, 3x2 and 3x3 states and on
generic Bell-diagonal states for d = 2..4. A test counts eigensolver
calls, so a per-member loop cannot come back unnoticed. On d = 2
Bell-diagonal states, the full distinguishing bound must equal
``bound_suite``'s local Holevo bound of the spectral ensemble's depth-0
transcript minus S: the output-adjusted bound at full distinction
(I_locc = H(X) = S), whose members are pure, computed by the other module.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_distillation as ref
from helpers import distillation_oracle, random_bipartite_density
from locclab import (
    BellDiagonalSpec,
    SpectralEnsemble,
    bell_diagonal,
    bound_suite,
    distillation_report,
    entropy_summary,
    hermitian_eig,
    run_protocol,
    validate_density,
)
from locclab import distillation, protocol

TOL = 1e-10
PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
WEIGHT_KINDS = ("generic", "isotropic", "tied")


def bell_weights(rng, d: int, kind: str) -> tuple[float, ...]:
    """Dirichlet weights; an isotropic mixture (d^2 - 1 equal weights); or
    weights from the integer levels 0..3, the first two equal and nonzero,
    so that the spectrum has exact ties."""
    n = d * d
    if kind == "generic":
        return tuple(rng.dirichlet(np.ones(n)).tolist())
    if kind == "isotropic":
        fidelity = float(rng.uniform(1.0 / d, 1.0))
        return (fidelity,) + ((1.0 - fidelity) / (n - 1),) * (n - 1)
    levels = rng.integers(0, 4, size=n)
    levels[:2] = 1 + rng.integers(3)
    return tuple((levels / levels.sum()).tolist())


def degenerate_mixed_state(rng, dim_a: int, dim_b: int):
    """U diag(lambda) U^dagger with Haar U and eigenvalues from the integer
    levels 0..2, the first two equal and nonzero, so that the spectrum
    repeats."""
    dim = dim_a * dim_b
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    unitary, _ = np.linalg.qr(g)
    levels = rng.integers(0, 3, size=dim).astype(float)
    levels[:2] = 1 + rng.integers(2)
    matrix = (unitary * (levels / levels.sum())) @ unitary.conj().T
    return validate_density(matrix, dim_a, dim_b)


def assert_reports_agree(new, old):
    for field in dataclasses.fields(old):
        a, b = getattr(new, field.name), getattr(old, field.name)
        if isinstance(b, float) and np.isfinite(b):
            assert abs(a - b) <= TOL, (field.name, a, b)
        else:
            assert a == b, (field.name, a, b)


def assert_spectra_agree(matrix):
    new, old = hermitian_eig(matrix), ref.hermitian_eig(matrix)
    np.testing.assert_allclose(new.eigenvalues, old.eigenvalues, rtol=0, atol=TOL)
    np.testing.assert_allclose(new.eigenvectors, old.eigenvectors, rtol=0, atol=TOL)


def assert_ensembles_agree(rho):
    new, old = SpectralEnsemble(rho), ref.spectral_ensemble(rho)
    assert new.degenerate == old.degenerate
    assert len(new.weights) == len(old.members)
    for p, u, (q, v) in zip(new.weights.tolist(), new.kets, old.members):
        assert abs(p - q) <= TOL
        np.testing.assert_allclose(u, v, rtol=0, atol=TOL)


@PROPERTY
@given(seed=seeds, d=st.integers(min_value=2, max_value=6), kind=st.sampled_from(WEIGHT_KINDS))
def test_bell_diagonal_matches_reference(seed, d, kind):
    spec = BellDiagonalSpec(d, bell_weights(np.random.default_rng(seed), d, kind))
    rho = bell_diagonal(spec)
    old_rho = ref.bell_diagonal(spec)
    np.testing.assert_allclose(rho.matrix, old_rho.matrix, rtol=0, atol=1e-14)
    report = distillation_report(rho, spec)
    assert report.degenerate_spectrum == (kind != "generic")
    assert_reports_agree(report, ref.distillation_report(old_rho, spec))
    assert_spectra_agree(rho.matrix)
    assert_ensembles_agree(rho)


@PROPERTY
@given(seed=seeds, dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]))
def test_degenerate_mixed_state_matches_reference(seed, dims):
    rho = degenerate_mixed_state(np.random.default_rng(seed), *dims)
    report = distillation_report(rho)
    assert report.degenerate_spectrum
    assert_reports_agree(report, ref.distillation_report(rho))
    partial = (report.partial_distinguish_bound, report.max_keep_fraction)
    old_partial = ref.partial_distinguish_bound(rho)
    assert abs(ref.full_distinguish_bound(rho) - report.full_distinguish_bound) <= TOL
    if np.isfinite(old_partial[0]):
        np.testing.assert_allclose(partial, old_partial, rtol=0, atol=TOL)
    else:
        assert partial == old_partial
    assert_spectra_agree(rho.matrix)
    assert_ensembles_agree(rho)


@PROPERTY
@given(seed=seeds, dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), degenerate=st.booleans())
def test_report_root_is_the_spectral_ensemble_root(seed, dims, degenerate):
    """The report roots on the state's ``SpectralEnsemble``, as the other
    commands do: its entropies must be those of that ensemble's root, bit
    for bit."""
    rng = np.random.default_rng(seed)
    rho = degenerate_mixed_state(rng, *dims) if degenerate else random_bipartite_density(rng, *dims)
    roots = []

    def capture(ensemble):
        roots.append(ensemble)
        return protocol._root_level(ensemble)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distillation, "_root_level", capture)
        report = distillation_report(rho)
    (rooted,) = roots
    se = SpectralEnsemble(rho)
    assert isinstance(rooted, SpectralEnsemble)
    assert rooted.degenerate == se.degenerate == report.degenerate_spectrum
    np.testing.assert_array_equal(rooted.weights, se.weights)
    np.testing.assert_array_equal(rooted.kets, se.kets)

    stats = run_protocol(se, {}, 0).stats
    summary = entropy_summary(se)
    assert report.entropy == stats.conditional_entropy[0] == summary["entropy_average"]
    assert report.entropy_a == stats.average_entropy["A"][0] == summary["entropy_a"]
    assert report.entropy_b == stats.average_entropy["B"][0] == summary["entropy_b"]
    assert report.mean_local_entropy == stats.member_entropy["A"][0]


def assert_matches_oracle(rho, spec=None):
    report = distillation_report(rho, spec)
    for name, expected in distillation_oracle(rho).items():
        actual = getattr(report, name)
        assert actual == expected or abs(actual - expected) <= TOL, (name, actual, expected)


@PROPERTY
@given(seed=seeds, dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
def test_mixed_state_matches_oracle(seed, dims):
    assert_matches_oracle(random_bipartite_density(np.random.default_rng(seed), *dims))


@PROPERTY
@given(seed=seeds, d=st.integers(min_value=2, max_value=4))
def test_bell_diagonal_matches_oracle(seed, d):
    spec = BellDiagonalSpec(d, bell_weights(np.random.default_rng(seed), d, "generic"))
    assert_matches_oracle(bell_diagonal(spec), spec)


@pytest.mark.parametrize("kind", ["generic", "isotropic"])
def test_eigensolve_count_does_not_grow_with_d(monkeypatch, kind):
    counts = {}
    for d in (3, 6):
        spec = BellDiagonalSpec(d, bell_weights(np.random.default_rng(d), d, kind))
        calls = {"eigvalsh": 0, "eigh": 0}
        with monkeypatch.context() as patch:
            for name in calls:
                original = getattr(np.linalg, name)

                def counting(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                patch.setattr(np.linalg, name, counting)
            distillation_report(bell_diagonal(spec), spec)
        counts[d] = calls
    assert counts[3] == counts[6]
    assert counts[6] == {"eigvalsh": 1, "eigh": 1}


@PROPERTY
@given(seed=seeds, kind=st.sampled_from(WEIGHT_KINDS))
def test_full_bound_is_local_holevo_minus_entropy(seed, kind):
    spec = BellDiagonalSpec(2, bell_weights(np.random.default_rng(seed), 2, kind))
    rho = bell_diagonal(spec)
    report = distillation_report(rho, spec)
    local_holevo = bound_suite(run_protocol(SpectralEnsemble(rho), {}, 0)).bounds["local_holevo"]
    assert abs(report.full_distinguish_bound - (local_holevo - report.entropy)) <= 1e-12


def _entropy_bits(matrix) -> float:
    values = np.linalg.eigvalsh(matrix)
    values = values[values > 1e-12]
    return float(-(values * np.log2(values)).sum())


def basis_free_upper_end(rho, d: int) -> float:
    """U = sum_c lambda_c k_c S(tr_B P_c / k_c) over the clusters of rho's
    spectrum above 1e-12, from this test's own ``eigh`` and partial trace.

    Every eigenbasis gives a mean local entropy in [0, U]: a cluster's k_c
    kets average to P_c / k_c, so concavity of S bounds their mean local
    entropy by S(tr_B P_c / k_c), and tr_B P_c does not depend on the basis.
    """
    values, vectors = np.linalg.eigh(rho.matrix)
    ends = [*(np.flatnonzero(np.diff(values) > 1e-9) + 1).tolist(), len(values)]
    upper, start = 0.0, 0
    for stop in ends:
        weight = float(values[start:stop].mean())
        if weight > 1e-12:
            kets = vectors[:, start:stop]
            projector = (kets @ kets.conj().T).reshape(d, d, d, d)
            upper += weight * (stop - start) * _entropy_bits(np.einsum("ijkj->ik", projector) / (stop - start))
        start = stop
    return upper


def assert_inside_the_bracket(spec):
    """On a degenerate Bell-diagonal state: S = H(p), S_A = S_B = log2 d,
    the convention-dependent mean local entropy lies in [0, U], and the
    closed-form hashing bound is the bracket's tight end S_A + S_B - S - U."""
    d = spec.d
    rho = bell_diagonal(spec)
    report = distillation_report(rho, spec)
    assert report.degenerate_spectrum
    p = np.array(spec.probs)
    p = p[p > 1e-12]
    assert abs(report.entropy - float(-(p * np.log2(p)).sum())) <= TOL
    assert abs(report.entropy_a - np.log2(d)) <= TOL
    assert abs(report.entropy_b - np.log2(d)) <= TOL
    upper = basis_free_upper_end(rho, d)
    assert -TOL <= report.mean_local_entropy <= upper + TOL, (report.mean_local_entropy, upper)
    tight_end = report.entropy_a + report.entropy_b - report.entropy - upper
    assert abs(report.closed_form_hashing - tight_end) <= TOL, (report.closed_form_hashing, tight_end)


@PROPERTY
@given(seed=seeds, d=st.integers(min_value=2, max_value=6), kind=st.sampled_from(["isotropic", "tied"]))
def test_degenerate_bell_diagonal_inside_the_basis_free_bracket(seed, d, kind):
    assert_inside_the_bracket(BellDiagonalSpec(d, bell_weights(np.random.default_rng(seed), d, kind)))


@pytest.mark.parametrize("fidelity", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("d", [4, 8, 16])
def test_isotropic_bell_diagonal_inside_the_basis_free_bracket(d, fidelity):
    n = d * d
    assert_inside_the_bracket(BellDiagonalSpec(d, (fidelity,) + ((1.0 - fidelity) / (n - 1),) * (n - 1)))
