"""Payload-building random generator, kept as the reference for ``random_scenario``.

This is how ``locclab.scenario.random_scenario`` used to work: it wrote
every drawn complex number into a scenario payload as [re, im] pairs and
ran the payload through ``parse_scenario``. It makes the same RNG draws in
the same order, so the tests can check that the typed generator builds
bit-identical members, projectors and kets.
"""

from __future__ import annotations

import numpy as np

from locclab.scenario import SCHEMA, Scenario, parse_scenario


def _vector_to_pairs(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in (complex(x) for x in np.asarray(v).reshape(-1))]


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()


def reference_random_scenario(seed: int, n_members=(2, 4), protocol_depth=(1, 3), name: str | None = None) -> Scenario:
    members_lo, members_hi = (n_members, n_members) if isinstance(n_members, int) else tuple(n_members)
    depth_lo, depth_hi = (
        (protocol_depth, protocol_depth) if isinstance(protocol_depth, int) else tuple(protocol_depth)
    )
    rng = np.random.default_rng(seed)
    n = int(rng.integers(members_lo, members_hi + 1))
    depth = int(rng.integers(depth_lo, depth_hi + 1))
    probs = rng.dirichlet(np.ones(n))

    members = []
    for i in range(n):
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        members.append({"probability": float(probs[i]), "vector": _vector_to_pairs(vec)})

    protocol = []
    labels = ("0", "1")
    for level in range(depth):
        party = "A" if rng.integers(2) == 0 else "B"
        histories = [()]
        for _ in range(level):
            histories = [h + (lab,) for h in histories for lab in labels]
        instruments = {}
        for history in histories:
            basis = _haar_unitary(2, rng).T  # rows are the basis kets
            instruments[",".join(history)] = {
                "labels": list(labels),
                "projective": [_vector_to_pairs(basis[0]), _vector_to_pairs(basis[1])],
            }
        default = instruments.pop("") if "" in instruments else None
        protocol.append({"party": party, "instrument": default, "overrides": instruments})

    payload = {
        "schema": SCHEMA,
        "kind": "protocol" if depth > 0 else "ensemble",
        "name": name or f"random-{seed}",
        "dims": [2, 2],
        "selectors": {"input": "auto", "output": "auto"},
        "ensemble": members,
    }
    if depth > 0:
        payload["protocol"] = protocol
    return parse_scenario(payload, source=payload["name"])
