"""Scenario parsing, the typed random generator and the canonical dump."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from locclab import (
    BellDiagonalSpec,
    BipartiteEnsemble,
    KrausInstrument,
    ScenarioError,
    bundled_scenario_path,
    dump_scenario,
    holevo_chi,
    load_scenario,
    parse_scenario,
    pure_state_density,
    random_scenario,
)

from helpers import PHI_PLUS, Z_BASIS, bell, json_mismatches
from reference_scenario import reference_random_scenario

GOLDEN_DUMPS = Path(__file__).parent / "golden" / "dump"
BUNDLED = ("bell_diagonal_09", "four_bell_uniform", "maximally_mixed", "phi_mixture_xx", "random_sweep")

Z = {"labels": ["0", "1"], "projective": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
X_AB = {
    "labels": ["a", "b"],
    "projective": [[[0.7071067811865476, 0], [0.7071067811865476, 0]], [[0.7071067811865476, 0], [-0.7071067811865476, 0]]],
}


def protocol(steps) -> dict:
    return {
        "kind": "protocol",
        "name": "t",
        "dims": [2, 2],
        "ensemble": [
            {"probability": 0.5, "vector": [[1, 0], [0, 0], [0, 0], [0, 0]]},
            {"probability": 0.5, "vector": [[0, 0], [0, 0], [0, 0], [1, 0]]},
        ],
        "protocol": steps,
    }


def parse_error(data) -> str:
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(data, source="s")
    return str(exc.value)


class TestFieldNamedErrors:
    def test_missing_kind(self):
        assert parse_error({"dims": [2, 2]}).startswith("s: missing required field 'kind'")

    def test_unknown_kind(self):
        assert parse_error({"kind": "nope"}).startswith("s.kind: unknown kind")

    def test_dims_type(self):
        assert parse_error({"kind": "ensemble", "dims": [2, "2"]}).startswith("s.dims[1]: expected an integer")

    def test_bad_party(self):
        data = protocol([{"party": "C", "instrument": Z}])
        assert parse_error(data).startswith("s.protocol[0].party: party must be 'A' or 'B'")

    def test_probability_type(self):
        data = protocol([{"party": "A", "instrument": Z}])
        data["ensemble"][1]["probability"] = "0.5"
        assert parse_error(data).startswith("s.ensemble[1].probability: expected a number")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_probability(self, value):
        data = protocol([{"party": "A", "instrument": Z}])
        data["ensemble"][0]["probability"] = value
        assert parse_error(data).startswith("s.ensemble[0].probability: expected a finite number")

    def test_non_finite_vector_entry(self):
        data = protocol([{"party": "A", "instrument": Z}])
        data["ensemble"][1]["vector"][3][1] = float("nan")
        assert parse_error(data).startswith("s.ensemble[1].vector[3][1]: expected a finite number")

    def test_non_finite_kraus_entry(self):
        kraus = {"kraus": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [float("inf"), 0]]]]}
        data = protocol([{"party": "B", "instrument": kraus}])
        assert parse_error(data).startswith("s.protocol[0].instrument.kraus[1][1][1][0]: expected a finite number")

    def test_non_finite_tolerance(self):
        data = protocol([{"party": "A", "instrument": Z}])
        data["tolerance"] = float("nan")
        assert parse_error(data).startswith("s.tolerance: expected a finite number")

    def test_non_finite_nan_token_from_file(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(protocol([{"party": "A", "instrument": Z}])).replace("0.5", "NaN", 1))
        with pytest.raises(ScenarioError, match=r"ensemble\[0\]\.probability: expected a finite number, got nan"):
            load_scenario(path)

    def test_nonpositive_tolerance(self):
        data = protocol([{"party": "A", "instrument": Z}])
        data["tolerance"] = 0
        assert parse_error(data).startswith("s.tolerance: tolerance must be positive")

    def test_incomplete_instrument(self):
        half = {"kraus": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}
        data = protocol([{"party": "A", "instrument": half}])
        assert parse_error(data).startswith("s.protocol[0].instrument: incomplete instrument")


class TestOverrideKeys:
    def test_reachable_keys_accepted(self):
        data = protocol(
            [
                {"party": "A", "instrument": Z},
                {"party": "B", "instrument": Z, "overrides": {"1": X_AB}},
                {"party": "A", "instrument": Z, "overrides": {"1,a": Z, "0,1": Z}},
            ]
        )
        scenario = parse_scenario(data)
        assert scenario.chooser(("1",)).outcomes[0][0] == "a"
        assert scenario.depth == 3

    def test_unknown_label(self):
        data = protocol([{"party": "A", "instrument": Z}, {"party": "B", "instrument": Z, "overrides": {"zz": Z}}])
        message = parse_error(data)
        assert message.startswith("s.protocol[1].overrides['zz']: label 'zz' is not an outcome of step 1")

    def test_label_of_another_branch(self):
        # After history "1" step 2 uses X_AB, whose labels are a and b.
        data = protocol(
            [
                {"party": "A", "instrument": Z},
                {"party": "B", "instrument": Z, "overrides": {"1": X_AB}},
                {"party": "A", "instrument": Z, "overrides": {"1,0": Z}},
            ]
        )
        assert parse_error(data).startswith("s.protocol[2].overrides['1,0']: label '0' is not an outcome of step 2")

    def test_wrong_label_count(self):
        data = protocol([{"party": "A", "instrument": Z}, {"party": "B", "instrument": Z, "overrides": {"0,1": Z}}])
        assert parse_error(data).startswith("s.protocol[1].overrides['0,1']: history key needs 1 labels, got 2")

    def test_first_step_takes_only_empty_key(self):
        data = protocol([{"party": "A", "instrument": Z, "overrides": {"0": Z}}])
        assert parse_error(data).startswith("s.protocol[0].overrides['0']: step 1 is reached only by the empty history")

    def test_prefix_without_instrument(self):
        data = protocol(
            [
                {"party": "A", "instrument": Z},
                {"party": "B", "overrides": {"0": Z}},
                {"party": "A", "instrument": Z, "overrides": {"1,0": Z}},
            ]
        )
        assert parse_error(data).startswith("s.protocol[2].overrides['1,0']: no instrument at step 2 for history '1'")


class TestCanonicalDump:
    @pytest.mark.parametrize("stem", BUNDLED)
    def test_bundled_dump_is_stable(self, stem):
        text = dump_scenario(load_scenario(bundled_scenario_path(f"{stem}.json")))
        assert text == (GOLDEN_DUMPS / f"{stem}.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize("stem", BUNDLED)
    def test_bundled_dump_round_trips(self, stem):
        text = dump_scenario(load_scenario(bundled_scenario_path(f"{stem}.json")))
        assert dump_scenario(parse_scenario(json.loads(text))) == text

    @pytest.mark.parametrize("seed", [0, 5, 31])
    def test_random_protocol_round_trips(self, seed):
        # Members generated from vectors are dumped as matrices; reloading a
        # matrix re-clips its rounding-level negative eigenvalues, so the
        # numbers agree to rounding rather than byte for byte.
        scenario = random_scenario(seed, n_members=3, protocol_depth=3)
        text = dump_scenario(scenario)
        again = dump_scenario(parse_scenario(json.loads(text)))
        assert json_mismatches(json.loads(again), json.loads(text), 1e-15) == []

    def test_kraus_instrument_round_trips(self):
        s = 0.6
        kraus = {
            "labels": ["weak", "strong"],
            "kraus": [
                [[[1, 0], [0, 0]], [[0, 0], [s, 0]]],
                [[[0, 0], [0, 0]], [[0, 0], [0.8, 0]]],
            ],
        }
        data = protocol([{"party": "B", "instrument": kraus}])
        text = dump_scenario(parse_scenario(copy.deepcopy(data)))
        dumped = json.loads(text)
        assert dumped["protocol"][0]["instrument"]["labels"] == ["weak", "strong"]
        assert "kraus" in dumped["protocol"][0]["instrument"]
        assert dump_scenario(parse_scenario(dumped)) == text

    def test_dump_writes_the_source_kets(self):
        path = bundled_scenario_path("phi_mixture_xx.json")
        source = json.loads(path.read_text(encoding="utf-8"))
        dumped = json.loads(dump_scenario(load_scenario(path)))
        for step, source_step in zip(dumped["protocol"], source["protocol"]):
            assert json.dumps(step["instrument"]["projective"]) == json.dumps(source_step["instrument"]["projective"])

    def test_kraus_projectors_dump_as_kraus(self):
        # Only an instrument built from a basis has kets to write back.
        z = [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]
        dumped = json.loads(dump_scenario(parse_scenario(protocol([{"party": "A", "instrument": {"kraus": z}}]))))
        assert dumped["protocol"][0]["instrument"]["kraus"] == z

    def test_random_dump_keeps_the_drawn_kets(self):
        scenario = random_scenario(4, n_members=2, protocol_depth=2)
        dumped = json.loads(dump_scenario(scenario))
        for step, payload in zip(scenario.steps, dumped["protocol"]):
            for key, instrument in step.overrides.items():
                kets = np.array(payload["overrides"][key]["projective"]) @ [1, 1j]
                assert np.array_equal(kets, instrument.kets)


def assert_same_instrument(new: KrausInstrument, old: KrausInstrument) -> None:
    assert new.party == old.party
    assert np.array_equal(new.kets, old.kets)
    assert [label for label, _ in new.outcomes] == [label for label, _ in old.outcomes]
    for (_, a), (_, b) in zip(new.outcomes, old.outcomes, strict=True):
        assert np.array_equal(a, b)


class TestTypedGenerator:
    @pytest.mark.parametrize("n_members, depth", [((2, 4), (1, 3)), (1, 0), ((1, 6), (0, 4)), (5, 2)])
    def test_matches_payload_reference(self, n_members, depth):
        for seed in range(64):
            new = random_scenario(seed, n_members=n_members, protocol_depth=depth)
            old = reference_random_scenario(seed, n_members=n_members, protocol_depth=depth)
            assert (new.kind, new.name, new.dim_a, new.dim_b) == (old.kind, old.name, old.dim_a, old.dim_b)
            assert (new.selector_in, new.selector_out, new.tolerance) == (old.selector_in, old.selector_out, old.tolerance)
            for (p, state), (q, ref) in zip(new.ensemble.members, old.ensemble.members, strict=True):
                assert p == q
                assert np.array_equal(state.matrix, ref.matrix)
            assert len(new.steps) == len(old.steps)
            for step, ref in zip(new.steps, old.steps):
                assert step.party == ref.party
                assert (step.instrument is None) == (ref.instrument is None)
                if step.instrument is not None:
                    assert_same_instrument(step.instrument, ref.instrument)
                assert list(step.overrides) == list(ref.overrides)
                for key, instrument in step.overrides.items():
                    assert_same_instrument(instrument, ref.overrides[key])


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: BipartiteEnsemble(((NAN, bell(PHI_PLUS)), (1.0, bell(PHI_PLUS)))),
        lambda: BellDiagonalSpec(2, (NAN, 1.0, 0.0, 0.0)),
        lambda: KrausInstrument(party="A", outcomes=(("0", np.diag([1.0, NAN])),)),
        lambda: KrausInstrument.projective("A", [[1.0, 0.0], [0.0, NAN]]),
        lambda: pure_state_density([1.0, 0.0, 0.0, NAN], 2, 2),
        lambda: holevo_chi(((NAN, Z_BASIS / 2), (1.0, Z_BASIS / 2))),
    ],
    ids=["ensemble", "bell_spec", "kraus", "projective", "pure_state", "holevo_chi"],
)
def test_nan_is_rejected_by_constructors(build):
    with pytest.raises(ValueError):
        build()
