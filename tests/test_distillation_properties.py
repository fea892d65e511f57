"""Property tests: the batched distillation layer against the loop reference.

Every ``DistillationReport`` field, both distinguishing bounds, every
spectral-ensemble member and every ``hermitian_eig`` eigenvector must agree
with ``reference_distillation`` within 1e-10. The inputs are Bell-diagonal
states for d = 2..6 with generic, isotropic and tied weights (tied weights
give degenerate clusters whose projector columns are partly zero, so the
Gram-Schmidt skip is taken), and mixed 2x2, 2x3 and 3x3 states in a random
basis with repeated eigenvalues. A last test counts eigensolver calls, so a
per-member loop cannot come back unnoticed.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_distillation as ref
from locclab import (
    BellDiagonalSpec,
    bell_basis,
    bell_diagonal,
    distillation_report,
    full_distinguish_bound,
    hermitian_eig,
    partial_distinguish_bound,
    spectral_ensemble,
    validate_density,
)

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
    new, old = spectral_ensemble(rho), ref.spectral_ensemble(rho)
    assert new.degenerate == old.degenerate
    assert len(new.members) == len(old.members)
    for (p, u), (q, v) in zip(new.members, old.members):
        assert abs(p - q) <= TOL
        np.testing.assert_allclose(u, v, rtol=0, atol=TOL)


@PROPERTY
@given(seed=seeds, d=st.integers(min_value=2, max_value=6), kind=st.sampled_from(WEIGHT_KINDS))
def test_bell_diagonal_matches_reference(seed, d, kind):
    spec = BellDiagonalSpec(d, bell_weights(np.random.default_rng(seed), d, kind))
    rho = bell_diagonal(spec)
    old_rho = ref.bell_diagonal(spec)
    np.testing.assert_allclose(rho.matrix, old_rho.matrix, rtol=0, atol=1e-14)
    for new_ket, old_ket in zip(bell_basis(d), ref.bell_basis(d), strict=True):
        np.testing.assert_allclose(new_ket, old_ket, rtol=0, atol=1e-14)
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
    assert full_distinguish_bound(rho) == report.full_distinguish_bound
    assert partial_distinguish_bound(rho) == (report.partial_distinguish_bound, report.max_keep_fraction)
    old_partial = ref.partial_distinguish_bound(rho)
    assert abs(ref.full_distinguish_bound(rho) - report.full_distinguish_bound) <= TOL
    if np.isfinite(old_partial[0]):
        np.testing.assert_allclose(partial_distinguish_bound(rho), old_partial, rtol=0, atol=TOL)
    else:
        assert partial_distinguish_bound(rho) == old_partial
    assert_spectra_agree(rho.matrix)
    assert_ensembles_agree(rho)


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
    assert counts[6]["eigvalsh"] <= 6
    assert counts[6]["eigh"] <= 1
