"""Scenario parsing, the typed random generator and the canonical dump."""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from locclab import (
    BellDiagonalSpec,
    BipartiteEnsemble,
    DensityOperator,
    KrausInstrument,
    ScenarioError,
    SpectralEnsemble,
    audit_rounds,
    average_output_entanglement,
    bound_suite,
    bundled_scenario_path,
    chain_mutual_information,
    cli,
    distillation_report,
    dump_scenario,
    load_scenario,
    parse_scenario,
    partial_trace,
    partial_transpose,
    pure_state_density,
    random_scenario,
    run_protocol,
    shannon_entropy,
    validate_density,
)
from locclab import scenario as scenario_module
from locclab.linalg import block_eigvalsh
from locclab.scenario import ProtocolStep, RandomSpec, Scenario, StepChooser

import fault_corpus
from helpers import PHI_PLUS, assert_same_bits, assert_same_step, bell, json_mismatches
from reference_scenario import reference_random_scenario
from test_bound_values import pairs

# The benchmark's own input generator, for its deep_tree files.
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

GOLDEN_DUMPS = Path(__file__).parent / "golden" / "dump"
BUNDLED = ("bell_diagonal_09", "four_bell_uniform", "maximally_mixed", "phi_mixture_xx", "random_sweep")

Z = {"labels": ["0", "1"], "projective": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
X_AB = {
    "labels": ["a", "b"],
    "projective": [[[0.7071067811865476, 0], [0.7071067811865476, 0]], [[0.7071067811865476, 0], [-0.7071067811865476, 0]]],
}

KRAUS = {
    "labels": ["weak", "strong"],
    "kraus": [
        [[[1, 0], [0, 0]], [[0, 0], [0.6, 0]]],
        [[[0, 0], [0, 0]], [[0, 0], [0.8, 0]]],
    ],
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


def rounding_negative_member() -> np.ndarray:
    """(1 + e)|u><u| - e|v><v| for orthonormal random two-qubit kets u, v
    and e = 4e-16: a pure state with a rounding-level negative eigenvalue."""
    rng = np.random.default_rng(2)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    u, v = np.linalg.qr(g)[0].T
    eps = 4e-16
    return (1 + eps) * np.outer(u, u.conj()) - eps * np.outer(v, v.conj())


def clipped_as_before(matrix: np.ndarray) -> np.ndarray:
    """The rewrite the parser once made of a matrix with an eigenvalue in
    [-1e-9, 0): the spectrum clipped at zero, the trace reset to 1, and the
    result hermitized."""
    values, vectors = np.linalg.eigh((matrix + matrix.conj().T) / 2)
    rebuilt = (vectors * np.maximum(values, 0.0)) @ vectors.conj().T
    rebuilt /= np.trace(rebuilt).real
    return (rebuilt + rebuilt.conj().T) / 2


def matrix_kraus_scenario(member: np.ndarray) -> dict:
    """A two-round protocol, Kraus on B then projective on A, over a matrix
    member and a vector member."""
    data = protocol([{"party": "B", "instrument": KRAUS}, {"party": "A", "instrument": X_AB}])
    data["ensemble"][0]["matrix"] = [[[z.real, z.imag] for z in row] for row in member.tolist()]
    del data["ensemble"][0]["vector"]
    return data


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

    def test_integer_too_large_for_a_float(self):
        data = protocol([{"party": "A", "instrument": Z}])
        data["ensemble"][0]["probability"] = 10**400
        assert parse_error(data) == (
            "s.ensemble[0].probability: expected a finite number, got an integer too large for a float"
        )

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

    @pytest.mark.parametrize("value", ["entropy_of_entanglement", "eof_two_qubit"])
    @pytest.mark.parametrize("side", ["input", "output"])
    def test_forced_selector_rejected(self, side, value):
        data = protocol([{"party": "A", "instrument": Z}])
        data["selectors"] = {"input": "auto", "output": "auto", side: value}
        assert parse_error(data) == f"s.selectors.{side}: selector {value!r} is not 'auto'; the measure follows the state"

    def test_tolerance_field_rejected(self):
        data = protocol([{"party": "A", "instrument": Z}])
        data["tolerance"] = 1e-6
        message = parse_error(data)
        assert message.startswith("s.tolerance: ")
        assert "--tol" in message

    @pytest.mark.parametrize(
        "basis, message",
        [
            ([[[1, 0], [0, 0]], [[0, 0]]], "s.protocol[0].instrument.projective[1]: row length 1 != 2"),
            ([[[1, 0]], [[0, 0], [1, 0]]], "s.protocol[0].instrument.projective[1]: row length 2 != 1"),
            ([], "s.protocol[0].instrument.projective: matrix is empty"),
            ([[]], "s.protocol[0].instrument.projective[0]: vector is empty"),
        ],
        ids=["short_row", "long_row", "empty", "empty_row"],
    )
    def test_malformed_projective_basis_names_the_field(self, basis, message):
        data = protocol([{"party": "A", "instrument": {"projective": basis}}])
        assert parse_error(data) == message

    def test_member_with_vector_and_matrix(self):
        data = protocol([{"party": "A", "instrument": Z}])
        # The matrix is malformed too: it must not be skipped silently.
        data["ensemble"][1]["matrix"] = [[[1, 0]]]
        assert parse_error(data) == "s.ensemble[1]: member needs a 'vector' or a 'matrix', not both"

    def test_instrument_with_projective_and_kraus(self):
        # The Kraus list is malformed too: it must not be skipped silently.
        data = protocol([{"party": "A", "instrument": {**Z, "kraus": [[[[0.5, 0]]]]}}])
        assert parse_error(data) == (
            "s.protocol[0].instrument: instrument needs a 'projective' basis or a 'kraus' operator list, not both"
        )

    def test_incomplete_instrument(self):
        half = {"kraus": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}
        data = protocol([{"party": "A", "instrument": half}])
        assert parse_error(data).startswith("s.protocol[0].instrument: incomplete instrument")


@pytest.mark.parametrize(
    "selectors", [None, {}, {"input": "auto"}, {"output": "auto"}, {"input": "auto", "output": "auto"}]
)
def test_omitted_or_auto_selectors_parse(selectors):
    data = protocol([{"party": "A", "instrument": Z}])
    if selectors is not None:
        data["selectors"] = selectors
    dumped = json.loads(dump_scenario(parse_scenario(data)))
    assert dumped["selectors"] == {"input": "auto", "output": "auto"}
    assert "tolerance" not in dumped



def repeat_last_key(data: dict, value) -> str:
    """JSON text of ``data`` with its last key written once more, holding ``value``."""
    key = list(data)[-1]
    return json.dumps(data)[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}"


class TestDuplicateKeys:
    def test_second_protocol_key_is_rejected(self, tmp_path, capsys):
        # json.loads alone keeps the last value: this file would run at
        # depth 1 and exit 0.
        step = {"party": "A", "instrument": Z}
        path = tmp_path / "twice.json"
        path.write_text(repeat_last_key(protocol([step, {"party": "B", "instrument": Z}]), [step]), encoding="utf-8")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert str(exc.value) == f"{path}: duplicate key 'protocol'"
        assert cli.main(["protocol-run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: duplicate key 'protocol'\n"

    def test_duplicate_inside_an_override_entry(self, tmp_path):
        # The batched table read takes plain objects only, so the entry
        # read names the entry.
        entry = repeat_last_key(X_AB, Z["projective"])
        data = protocol([{"party": "A", "instrument": Z}, {"party": "B", "overrides": {"0": Z, "1": "ENTRY"}}])
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(data).replace('"ENTRY"', entry), encoding="utf-8")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert str(exc.value) == f"{path}.protocol[1].overrides['1']: duplicate key 'projective'"

    def test_duplicate_history_key(self, tmp_path):
        table = repeat_last_key({"0": Z, "1": Z}, X_AB)
        data = protocol([{"party": "A", "instrument": Z}, {"party": "B", "overrides": "TABLE"}])
        path = tmp_path / "table.json"
        path.write_text(json.dumps(data).replace('"TABLE"', table), encoding="utf-8")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert str(exc.value) == f"{path}.protocol[1].overrides: duplicate key '1'"

    @pytest.mark.parametrize("stem", BUNDLED)
    def test_duplicate_free_files_parse_and_dump_as_before(self, stem, tmp_path):
        source = bundled_scenario_path(f"{stem}.json")
        text = source.read_text(encoding="utf-8")
        dumped = dump_scenario(load_scenario(source))
        assert dumped == dump_scenario(parse_scenario(json.loads(text)))
        path = tmp_path / "dumped.json"
        path.write_text(dumped, encoding="utf-8")
        assert dump_scenario(load_scenario(path)) == dumped

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_free_deep_file_dumps_byte_identically(self, seed, tmp_path):
        text = dump_scenario(random_scenario(seed, n_members=(2, 4), protocol_depth=(4, 6)))
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        assert dump_scenario(load_scenario(path)) == text

class TestOverrideKeys:
    def test_gap_is_named_at_run_time(self):
        # Step 2 covers history '0' only; '1' is reachable, so the gap
        # shows when the tree reaches it, naming the step.
        scenario = parse_scenario(protocol([{"party": "A", "instrument": Z}, {"party": "B", "overrides": {"0": Z}}]))
        with pytest.raises(ScenarioError) as exc:
            run_protocol(scenario.ensemble, scenario.chooser, scenario.depth)
        assert str(exc.value) == "protocol[1]: no instrument for history '1'"
        # The chooser reads the same row, whose labels are empty.
        with pytest.raises(ScenarioError) as exc:
            scenario.chooser(("1",))
        assert str(exc.value) == "protocol[1]: no instrument for history '1'"
        assert scenario.chooser(("0",)).labels == ("0", "1")

    def test_history_past_the_last_step(self):
        # A KeyError, which run_protocol reports as an undefined chooser.
        scenario = random_scenario(5, protocol_depth=2)
        with pytest.raises(KeyError):
            scenario.chooser(("0", "1"))
        with pytest.raises(ValueError, match="chooser undefined for history"):
            run_protocol(scenario.ensemble, scenario.chooser, scenario.depth + 1)

    def test_gap_on_a_pruned_history_runs(self):
        data = protocol([{"party": "A", "instrument": Z}, {"party": "B", "overrides": {"0": Z}}])
        data["ensemble"] = data["ensemble"][:1]
        data["ensemble"][0]["probability"] = 1.0
        scenario = parse_scenario(data)
        leaves = run_protocol(scenario.ensemble, scenario.chooser, scenario.depth).levels[-1]
        assert leaves.paths == (("0", "0"),)

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


R = 0.7071067811865476
X = {"labels": ["0", "1"], "projective": [[[R, 0], [R, 0]], [[R, 0], [-R, 0]]]}
Y = {"labels": ["0", "1"], "projective": [[[R, 0], [0, R]], [[R, 0], [0, -R]]]}


def adaptive_table() -> dict:
    """A protocol whose last step has four projective overrides; fresh dicts
    on every call, so an edit reaches one override only."""
    steps = [
        {"party": "A", "instrument": Z},
        {"party": "B", "overrides": {"0": X, "1": Y}},
        {"party": "A", "overrides": {"0,0": Z, "0,1": X, "1,0": Y, "1,1": Z}},
    ]
    return json.loads(json.dumps(protocol(steps)))


def set_entry(ket, entry, part, value):
    def edit(table):
        table["1,0"]["projective"][ket][entry][part] = value

    return edit


SCALED_Y = [[[x * (1 + 4e-9) for x in entry] for entry in ket] for ket in Y["projective"]]
Z_KRAUS = [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]
INCOMPLETE_KRAUS = {"kraus": [[[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}


class TestBatchedOverrideParse:
    """A bad override in an otherwise valid table: the batched read falls
    back to the entry-by-entry parse, which names the same field with the
    same text as that parse alone (messages pinned from it)."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (set_entry(0, 1, 0, True), "s.protocol[2].overrides['1,0'].projective[0][1][0]: expected a number, got bool"),
            (set_entry(1, 0, 1, "0.5"), "s.protocol[2].overrides['1,0'].projective[1][0][1]: expected a number, got str"),
            (
                set_entry(1, 1, 0, float("nan")),
                "s.protocol[2].overrides['1,0'].projective[1][1][0]: expected a finite number, got nan",
            ),
            (
                set_entry(0, 0, 1, float("-inf")),
                "s.protocol[2].overrides['1,0'].projective[0][0][1]: expected a finite number, got -inf",
            ),
            (
                lambda table: table["1,0"]["projective"][1].pop(),
                "s.protocol[2].overrides['1,0'].projective[1]: row length 1 != 2",
            ),
            (
                # Not JSON, but parse_scenario takes Python objects too.
                lambda table: table["1,0"]["projective"].__setitem__(0, tuple(table["1,0"]["projective"][0])),
                "s.protocol[2].overrides['1,0'].projective[0]: expected an array, got tuple",
            ),
            (
                lambda table: table["1,0"]["projective"].append([[0, 0], [0, 0]]),
                "s.protocol[2].overrides['1,0']: projective basis must be square, got (3, 2)",
            ),
            (
                lambda table: table["1,0"].update(projective=[]),
                "s.protocol[2].overrides['1,0'].projective: matrix is empty",
            ),
            (
                lambda table: table["1,0"].update(projective=[[[1, 0], [0, 0]], [[R, 0], [R, 0]]]),
                "s.protocol[2].overrides['1,0']: projective basis is not orthonormal",
            ),
            (
                lambda table: table["1,0"].update(projective=SCALED_Y),
                "s.protocol[2].overrides['1,0']: incomplete instrument: max |sum K^dagger K - I| = 1.600e-08",
            ),
            (
                lambda table: table["1,0"].update(labels=["0", "0"]),
                "s.protocol[2].overrides['1,0']: duplicate outcome label '0'",
            ),
            (
                lambda table: table["1,0"].update(labels=["0", "1,2"]),
                "s.protocol[2].overrides['1,0']: labels must not contain commas (reserved for history keys)",
            ),
            (
                lambda table: table["1,0"].update(labels=["0"]),
                "s.protocol[2].overrides['1,0']: 1 labels for 2 outcomes",
            ),
            (
                lambda table: table.update({"1,2": table.pop("1,1")}),
                "s.protocol[2].overrides['1,2']: label '2' is not an outcome of step 2 after history '1' "
                "(outcomes ['0', '1']); no history reaches '1,2'",
            ),
            (
                lambda table: table.update({"0,1": INCOMPLETE_KRAUS}),
                "s.protocol[2].overrides['0,1']: incomplete instrument: max |sum K^dagger K - I| = 7.500e-01",
            ),
            (
                lambda table: table["1,0"].update(kraus=Z_KRAUS),
                "s.protocol[2].overrides['1,0']: instrument needs a 'projective' basis or a 'kraus' "
                "operator list, not both",
            ),
        ],
        ids=[
            "bool", "string", "nan", "inf", "ragged", "tuple", "non_square", "empty", "non_orthonormal", "incomplete",
            "duplicate_label", "comma_label", "label_count", "unreachable_key", "mixed_kraus", "mixed_fields",
        ],
    )
    def test_bad_override_keeps_its_message(self, edit, message):
        data = adaptive_table()
        edit(data["protocol"][2]["overrides"])
        assert parse_error(data) == message

    def test_valid_table_matches_entry_parse(self, monkeypatch):
        data = adaptive_table()
        batched = parse_scenario(data)
        monkeypatch.setattr(scenario_module, "_parse_projective_tables", lambda *args: None)
        for step, ref in zip(batched.steps, parse_scenario(data).steps, strict=True):
            assert_same_step(step, ref)

    def test_integer_too_large_for_a_float(self):
        data = adaptive_table()
        set_entry(1, 0, 0, 10**400)(data["protocol"][2]["overrides"])
        assert parse_error(data) == (
            "s.protocol[2].overrides['1,0'].projective[1][0][0]: expected a finite number, "
            "got an integer too large for a float"
        )

    def test_mixed_kraus_and_projective_step(self):
        data = adaptive_table()
        data["protocol"][2]["overrides"]["0,1"] = {"labels": ["0", "1"], "kraus": Z_KRAUS}
        step = parse_scenario(data).steps[2]
        assert step.kets[step.row_of(("0", "1"))] is None
        assert all(step.kets[step.row_of(key)] is not None for key in (("0", "0"), ("1", "0"), ("1", "1")))


def set_label(index, suffix):
    def edit(entry):
        labels = entry["labels"]
        entry["labels"] = [*labels[:index], labels[index] + suffix, *labels[index + 1 :]]

    return edit


def replace_entry(value):
    def edit(entry):
        entry.clear()
        entry.update(copy.deepcopy(value))

    return edit


# Faults of one override entry: the kinds of TestBatchedOverrideParse, plus a
# valid relabelling, which leaves later keys unreachable.
ENTRY_FAULTS = [
    lambda entry: entry["projective"][0][1].__setitem__(0, True),
    lambda entry: entry["projective"][1][0].__setitem__(1, "0.5"),
    lambda entry: entry["projective"][1][1].__setitem__(0, float("nan")),
    lambda entry: entry["projective"][0][0].__setitem__(1, float("-inf")),
    lambda entry: entry["projective"][1][0].__setitem__(0, 10**400),
    lambda entry: entry["projective"][1].pop(),
    lambda entry: entry["projective"].__setitem__(0, tuple(entry["projective"][0])),
    lambda entry: entry["projective"].append([[0, 0], [0, 0]]),
    lambda entry: entry.update(projective=[]),
    lambda entry: entry.update(projective=[[[1, 0], [0, 0]], [[R, 0], [R, 0]]]),
    lambda entry: entry.update(projective=copy.deepcopy(SCALED_Y)),
    lambda entry: entry.update(labels=entry["labels"][:1] * 2),
    set_label(1, ",2"),
    set_label(0, ","),
    lambda entry: entry.update(labels=entry["labels"][:1]),
    set_label(0, "x"),
    lambda entry: entry.update(kraus=copy.deepcopy(Z_KRAUS)),
    lambda entry: entry.update(note={}),
    replace_entry(INCOMPLETE_KRAUS),
    replace_entry({"kraus": Z_KRAUS}),
]
# Renames of one override key: a label that no instrument has, one label
# too few or too many, and the key of a sibling entry, which it replaces.
KEY_RENAMES = [
    lambda key, keys: key[: key.rfind(",") + 1] + "zz",
    lambda key, keys: key[: max(key.rfind(","), 0)],
    lambda key, keys: key + ",u9",
    lambda key, keys: keys[(keys.index(key) + 1) % len(keys)],
]


def faulty_tables(count: int, seed: int, base: dict | None = None, steps=(1, 2, 3)) -> list[dict]:
    """``count`` copies of ``base`` (an adaptive depth-4 protocol), each
    with 0-3 faults in the override tables of ``steps``."""
    rng = np.random.default_rng(seed)
    base = base or json.loads(dump_scenario(adaptive_scenario(4, seed)))
    tables = []
    for _ in range(count):
        data = copy.deepcopy(base)
        faulty = set()  # ids of the entries already given a fault
        for _ in range(int(rng.integers(4))):
            add_fault(data["protocol"][steps[int(rng.integers(len(steps)))]]["overrides"], rng, faulty)
        tables.append(data)
    return tables


def add_fault(table: dict, rng: np.random.Generator, faulty: set) -> None:
    """One fault of ``ENTRY_FAULTS`` or ``KEY_RENAMES`` in a random entry of
    ``table``; an entry in ``faulty`` (ids) gets no second entry fault."""
    keys = list(table)
    key = keys[int(rng.integers(len(keys)))]
    fault = int(rng.integers(len(ENTRY_FAULTS) + len(KEY_RENAMES)))
    if fault < len(ENTRY_FAULTS):
        entry = table[key]
        if id(entry) not in faulty:
            faulty.add(id(entry))
            ENTRY_FAULTS[fault](entry)
    else:
        table[KEY_RENAMES[fault - len(ENTRY_FAULTS)](key, keys)] = table.pop(key)


def kraus_between_projective() -> dict:
    """An adaptive depth-5 protocol (parties A, B, A, B, A) whose step 2
    table holds one valid Kraus entry, so that it is read entry by entry
    while the projective tables of steps 1, 3 and 4 around it are batched."""
    data = json.loads(dump_scenario(adaptive_scenario(5, 11)))
    entry = next(iter(data["protocol"][2]["overrides"].values()))
    kets = np.array(entry.pop("projective"), dtype=float).view(complex)[..., 0]
    entry["kraus"] = [pairs(np.outer(ket, ket.conj())) for ket in kets]
    return data


def two_tables_of_one_party(count: int, seed: int) -> list[dict]:
    """``count`` adaptive depth-4 protocols with one fault in each of the
    two tables of party B (steps 1 and 3)."""
    rng = np.random.default_rng(seed)
    base = json.loads(dump_scenario(adaptive_scenario(4, seed)))
    tables = []
    for _ in range(count):
        data = copy.deepcopy(base)
        faulty = set()
        for step in (1, 3):
            add_fault(data["protocol"][step]["overrides"], rng, faulty)
        tables.append(data)
    return tables


def parse_outcome(data) -> tuple[str, str]:
    """("ok", the dump) of a parse, or the exception's type name and message."""
    try:
        return "ok", dump_scenario(parse_scenario(data, source="s"))
    except ValueError as exc:  # ScenarioError included: the type must agree too
        return type(exc).__name__, str(exc)


def test_batched_and_entry_override_reads_agree_on_faulty_tables():
    # Each table parses to the same dump, or fails with the same exception
    # and message, whether its overrides are read in per-party batches or
    # entry by entry (the batch read declining every party). Besides the
    # depth-4 tables: a Kraus table between projective ones, a 2x3 file with
    # tables on both parties, and faults in both tables of one party.
    tables = [
        *faulty_tables(300, 20),
        *faulty_tables(100, 21, kraus_between_projective(), steps=(1, 3, 4)),
        *faulty_tables(100, 22, fault_corpus.two_by_three()),
        *two_tables_of_one_party(100, 23),
    ]
    batched = [parse_outcome(data) for data in tables]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_module, "_parse_projective_tables", lambda *args: None)
        by_entry = [parse_outcome(data) for data in tables]
    # Every kind names many faults; all but the two-fault files also parse.
    for part, least_ok in ((batched[:300], 20), (batched[300:400], 5), (batched[400:500], 5), (batched[500:], 0)):
        assert sum(kind == "ok" for kind, _ in part) >= least_ok
        assert len({message for kind, message in part if kind != "ok"}) >= 20
    disagree = [(i, a, b) for i, (a, b) in enumerate(zip(batched, by_entry)) if a != b]
    assert not disagree, disagree[:3]


def test_deep_protocol_reads_its_tables_in_one_batch_per_party():
    # deep_case(0) has tables in 7 steps on both parties: one
    # _projective_stack call per party reads them all.
    projective_stack = scenario_module._projective_stack
    calls = []

    def counted(*args):
        calls.append(args[0])
        return projective_stack(*args)

    data = workloads.deep_case(0)
    parties = [step["party"] for step in data["protocol"] if step["overrides"]]
    assert len(parties) == 7 and set(parties) == {"A", "B"}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_module, "_projective_stack", counted)
        batched = parse_scenario(data)
        assert sorted(calls) == ["A", "B"]
        patch.setattr(scenario_module, "_parse_projective_tables", lambda *args: None)
        by_entry = parse_scenario(data)
    for step, ref in zip(batched.steps, by_entry.steps, strict=True):
        assert_same_step(step, ref)


def bad_leaf() -> dict:
    """Z with the imaginary part of its first ket's second entry a str."""
    z = copy.deepcopy(Z)
    z["projective"][0][1][1] = "0"
    return z


UNREACHED_5 = (
    "s.protocol[1].overrides['5']: label '5' is not an outcome of step 1 after history '' (outcomes ['0', '1']); "
    "no history reaches '5'"
)


# A file with several faults names its first field fault, then its first
# unreached history: every field is read before the Scenario constructor
# walks the histories. Before, each key was walked when its entry was read,
# so the first two cases named UNREACHED_5.
@pytest.mark.parametrize("batched", [True, False], ids=["batched", "by_entry"])
@pytest.mark.parametrize(
    "steps, message",
    [
        (
            [{"party": "A", "instrument": Z}, {"party": "B", "overrides": {"5": Z, "0": bad_leaf()}}],
            "s.protocol[1].overrides['0'].projective[0][1][1]: expected a number, got str",
        ),
        (
            [
                {"party": "A", "instrument": Z},
                {"party": "B", "instrument": Z, "overrides": {"5": Z}},
                {"party": "A", "instrument": bad_leaf()},
            ],
            "s.protocol[2].instrument.projective[0][1][1]: expected a number, got str",
        ),
        (
            [
                {"party": "A", "instrument": Z},
                {"party": "B", "instrument": Z, "overrides": {"5": Z}},
                {"party": "A", "instrument": Z, "overrides": {"0,7": Z}},
            ],
            UNREACHED_5,
        ),
        # A key of the wrong form is still named when it is read.
        (
            [{"party": "A", "instrument": Z}, {"party": "B", "overrides": {"0,1": Z, "1": bad_leaf()}}],
            "s.protocol[1].overrides['0,1']: history key needs 1 labels, got 2 in '0,1'",
        ),
    ],
    ids=["field_after_unreached_key", "field_in_a_later_step", "two_unreached_keys", "key_form_first"],
)
def test_a_file_with_several_faults_names_its_first_field_fault(steps, message, batched):
    data = json.loads(json.dumps(protocol(steps)))
    with pytest.MonkeyPatch.context() as patch:
        if not batched:
            patch.setattr(scenario_module, "_parse_projective_tables", lambda *args: None)
        assert parse_error(data) == message


# Keys whose first label is empty. "" is the key of the empty history, so
# the walk must not take it for a known one-label prefix: ",0" would then
# be read as "0,0", the code of a real history.
@pytest.mark.parametrize("batched", [True, False], ids=["batched", "by_entry"])
@pytest.mark.parametrize(
    "keys, step",
    [([",0"], 2), (["0,0", ",0"], 2), ([",,0"], 3), ([",0,0"], 3), ([","], 2)],
    ids=["comma_0", "after_its_twin", "comma_comma_0", "comma_0_0", "comma"],
)
def test_a_key_with_an_empty_first_label_is_unreached(keys, step, batched):
    data = protocol([{"party": "A", "instrument": copy.deepcopy(Z)} for _ in range(4)])
    data["protocol"][step]["overrides"] = {key: copy.deepcopy(Z) for key in keys}
    key = keys[-1]
    with pytest.MonkeyPatch.context() as patch:
        if not batched:
            patch.setattr(scenario_module, "_parse_projective_tables", lambda *args: None)
        assert parse_error(data) == (
            f"s.protocol[{step}].overrides[{key!r}]: label '' is not an outcome of step 1 after history '' "
            f"(outcomes ['0', '1']); no history reaches {key!r}"
        )


BELL_09 = {"kind": "bell_diagonal", "name": "b", "bell": {"d": 2, "probs": [0.9, 0.1, 0.0, 0.0]}}
RANDOM_SWEEP = {"kind": "random", "name": "r", "dims": [2, 2], "random": {"n_members": 2, "protocol_depth": 1}}
INSTRUMENT_FIELDS = "['kraus', 'labels', 'projective']"


def z_protocol() -> dict:
    return protocol([{"party": "A", "instrument": copy.deepcopy(Z)}, {"party": "B", "instrument": copy.deepcopy(Z)}])


def kraus_override() -> dict:
    return protocol([{"party": "A", "overrides": {"": copy.deepcopy(KRAUS)}}])


class TestUnknownFields:
    """Every object the parser reads names a key outside its field set, so
    that a misspelt field is an error, not its default: a step with
    'overides' would otherwise run its default instrument on every branch."""

    @pytest.mark.parametrize(
        "build, path, field, message",
        [
            (
                z_protocol,
                (),
                "tolerence",
                "s: unknown field 'tolerence'; expected one of ['bell', 'dims', 'ensemble', 'kind', 'name', "
                "'protocol', 'random', 'schema', 'selectors', 'tolerance']",
            ),
            (
                lambda: copy.deepcopy(BELL_09),
                ("bell",),
                "p",
                "s.bell: unknown field 'p'; expected one of ['d', 'probs']",
            ),
            (
                lambda: copy.deepcopy(RANDOM_SWEEP),
                ("random",),
                "family",
                "s.random: unknown field 'family'; expected one of "
                "['instrument_family', 'n_members', 'protocol_depth']",
            ),
            (
                lambda: {**z_protocol(), "selectors": {"input": "auto"}},
                ("selectors",),
                "outputs",
                "s.selectors: unknown field 'outputs'; expected one of ['input', 'output']",
            ),
            (
                z_protocol,
                ("ensemble", 1),
                "vectr",
                "s.ensemble[1]: unknown field 'vectr'; expected one of ['matrix', 'probability', 'vector']",
            ),
            (
                z_protocol,
                ("protocol", 1),
                "overides",
                "s.protocol[1]: unknown field 'overides'; expected one of ['instrument', 'overrides', 'party']",
            ),
            (
                z_protocol,
                ("protocol", 0, "instrument"),
                "label",
                f"s.protocol[0].instrument: unknown field 'label'; expected one of {INSTRUMENT_FIELDS}",
            ),
            (
                kraus_override,
                ("protocol", 0, "overrides", ""),
                "note",
                f"s.protocol[0].overrides['']: unknown field 'note'; expected one of {INSTRUMENT_FIELDS}",
            ),
            (
                # The batched read of an all-projective table declines an
                # entry with a field besides 'labels'; the entry parse names it.
                adaptive_table,
                ("protocol", 2, "overrides", "1,0"),
                "note",
                f"s.protocol[2].overrides['1,0']: unknown field 'note'; expected one of {INSTRUMENT_FIELDS}",
            ),
        ],
        ids=["scenario", "bell", "random", "selectors", "member", "step", "instrument", "override", "batched_override"],
    )
    def test_unknown_field_is_named(self, build, path, field, message):
        data = build()
        target = data
        for key in path:
            target = target[key]
        target[field] = {}
        assert parse_error(data) == message

    @pytest.mark.parametrize(
        "schema, message",
        [
            ("locclab/scenario-v9", "s.schema: unknown schema 'locclab/scenario-v9'; expected 'locclab/scenario-v1'"),
            (1, "s.schema: expected a string, got int"),
        ],
        ids=["foreign", "not_a_string"],
    )
    def test_foreign_schema_is_rejected(self, schema, message):
        assert parse_error({**z_protocol(), "schema": schema}) == message


ENSEMBLE_ONLY = {"kind": "ensemble", "name": "e", "dims": [2, 2], "ensemble": z_protocol()["ensemble"]}
# A valid value of every field that only some kinds take.
KIND_FIELD_VALUES = {
    "bell": BELL_09["bell"],
    "dims": [2, 2],
    "ensemble": ENSEMBLE_ONLY["ensemble"],
    "protocol": z_protocol()["protocol"],
    "random": RANDOM_SWEEP["random"],
}
STRAY_FIELDS = [
    (base, field)
    for base in (ENSEMBLE_ONLY, z_protocol(), BELL_09, RANDOM_SWEEP)
    for field in KIND_FIELD_VALUES
    if field not in base
]


@pytest.mark.parametrize(
    "base, field", STRAY_FIELDS, ids=[f"{base['kind']}-{field}" for base, field in STRAY_FIELDS]
)
def test_field_of_another_kind_is_rejected(base, field):
    # Such a field would never be read: an ensemble with a protocol would
    # run at depth 0 and pass every check.
    parse_scenario(copy.deepcopy(base))
    data = {**copy.deepcopy(base), field: copy.deepcopy(KIND_FIELD_VALUES[field])}
    assert parse_error(data) == f"s.{field}: kind {base['kind']!r} takes no {field!r} field"


Z3 = {"projective": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]}
ID3_KRAUS = {"kraus": [[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]]}


class TestInstrumentSize:
    """An instrument must act on its party's dimension; the parser names it."""

    @pytest.mark.parametrize("instrument", [Z3, ID3_KRAUS], ids=["projective", "kraus"])
    def test_default_instrument(self, instrument):
        data = protocol([{"party": "A", "instrument": Z}, {"party": "B", "instrument": instrument}])
        assert parse_error(data) == (
            "s.protocol[1].instrument: dimension mismatch: instrument on B has size 3, party dimension is 2"
        )

    @pytest.mark.parametrize("instrument", [Z3, ID3_KRAUS], ids=["projective", "kraus"])
    def test_override(self, instrument):
        data = adaptive_table()
        data["protocol"][2]["overrides"]["1,0"] = instrument
        assert parse_error(data) == (
            "s.protocol[2].overrides['1,0']: dimension mismatch: instrument on A has size 3, party dimension is 2"
        )

    def test_each_party_has_its_own_dimension(self):
        data = protocol([{"party": "A", "instrument": Z}, {"party": "B", "overrides": {"0": Z3, "1": Z3}}])
        data["dims"] = [2, 3]
        data["ensemble"] = [{"probability": 1.0, "vector": [[1, 0]] + [[0, 0]] * 5}]
        step = parse_scenario(data).steps[1]
        assert (step.ops.shape[-1], [kets.shape for kets in step.kets[1:]]) == (3, [(3, 3)] * 2)
        data["protocol"][0]["party"] = "B"
        assert parse_error(data) == (
            "s.protocol[0].instrument: dimension mismatch: instrument on B has size 2, party dimension is 3"
        )


def adaptive_scenario(depth: int, seed: int, label_pairs=None) -> Scenario:
    """Depth-``depth`` adaptive projective protocol built in memory: one
    random basis per outcome history, with labels that differ per step, or
    that cycle through ``label_pairs`` when it is given."""
    rng = np.random.default_rng(seed)
    members = []
    for p in rng.dirichlet(np.ones(3)):
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        members.append((float(p), pure_state_density(vec / np.linalg.norm(vec), 2, 2)))
    steps, histories = [], [()]
    for level in range(depth):
        party = "AB"[level % 2]
        labels = label_pairs[level % len(label_pairs)] if label_pairs else (f"u{level}", f"d{level}")
        overrides = {}
        for history in histories:
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            overrides[history] = KrausInstrument.projective(party, np.linalg.qr(g)[0].T, labels)
        default = overrides.pop(()) if level == 0 else None
        steps.append(ProtocolStep(party=party, instrument=default, overrides=overrides))
        histories = [history + (label,) for history in histories for label in labels]
    return Scenario(
        name=f"adaptive-{depth}", ensemble=BipartiteEnsemble(tuple(members)), steps=tuple(steps), bell=None, random=None
    )


# Labels below the key separator (' ' < '!' < '+' < ','): the joined keys
# sort as '+!, ' < '+,+', their histories as ('+', '+') < ('+!', ' ').
BELOW_COMMA = [("+", "+!"), (" ", "+"), ("+!", " ")]


@pytest.mark.parametrize(
    "build",
    [
        lambda: [random_scenario(seed) for seed in range(64)],
        lambda: [adaptive_scenario(8, 3)],
        lambda: [adaptive_scenario(6, 5, BELOW_COMMA)],
    ],
    ids=["random_seeds_0_63", "adaptive_depth_8", "labels_below_comma"],
)
def test_instruments_survive_dump_and_parse_exactly(build):
    for scenario in build():
        text = dump_scenario(scenario)
        again = parse_scenario(json.loads(text))
        assert dump_scenario(again) == text
        for step, ref in zip(again.steps, scenario.steps, strict=True):
            assert_same_step(step, ref)


class TestCanonicalDump:
    @pytest.mark.parametrize("stem", BUNDLED)
    def test_bundled_dump_is_stable(self, stem):
        text = dump_scenario(load_scenario(bundled_scenario_path(f"{stem}.json")))
        assert text == (GOLDEN_DUMPS / f"{stem}.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize("stem", BUNDLED)
    def test_bundled_dump_round_trips(self, stem):
        text = dump_scenario(load_scenario(bundled_scenario_path(f"{stem}.json")))
        assert dump_scenario(parse_scenario(json.loads(text))) == text

    @pytest.mark.parametrize("seed", range(64))
    def test_random_protocol_round_trips(self, seed):
        # Members generated from vectors are dumped as matrices, whose
        # rounding-level negative eigenvalues the parser keeps as given.
        text = dump_scenario(random_scenario(seed, n_members=(1, 6), protocol_depth=(0, 3)))
        assert dump_scenario(parse_scenario(json.loads(text))) == text

    def test_matrix_member_with_kraus_round_trips(self):
        member = rounding_negative_member()
        assert -1e-15 < block_eigvalsh(member)[0] < -1e-16
        text = dump_scenario(parse_scenario(matrix_kraus_scenario(member)))
        assert dump_scenario(parse_scenario(json.loads(text))) == text

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_kept_negatives_report_as_the_clipped_state(self, command, tmp_path):
        member = rounding_negative_member()
        clipped = clipped_as_before(member)
        assert not np.array_equal(member, clipped)
        reports = []
        for stem, matrix in (("given", member), ("clipped", clipped)):
            path = tmp_path / f"{stem}.json"
            path.write_text(json.dumps(matrix_kraus_scenario(matrix)), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main([command, str(path), "--format", "json"]) == 0
            reports.append(json.loads(out.getvalue()))
        assert json_mismatches(*reports, 1e-12) == []

    def test_kraus_instrument_round_trips(self):
        data = protocol([{"party": "B", "instrument": KRAUS}])
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
            for row, key in enumerate(step.histories, 1):
                kets = np.array(payload["overrides"][",".join(key)]["projective"]) @ [1, 1j]
                assert np.array_equal(kets, step.kets[row])


class TestTypedGenerator:
    # (4, 6) shares one stack of up to 63 bases among its rounds.
    @pytest.mark.parametrize("n_members, depth", [((2, 4), (1, 3)), (1, 0), ((1, 6), (0, 4)), (5, 2), ((1, 3), (4, 6))])
    def test_matches_payload_reference(self, n_members, depth):
        for seed in range(64):
            new = random_scenario(seed, n_members=n_members, protocol_depth=depth)
            old = reference_random_scenario(seed, n_members=n_members, protocol_depth=depth)
            assert (new.kind, new.name, new.dim_a, new.dim_b) == (old.kind, old.name, old.dim_a, old.dim_b)
            for (p, state), (q, ref) in zip(new.ensemble.members, old.ensemble.members, strict=True):
                assert p == q
                assert np.array_equal(state.matrix, ref.matrix)
            assert len(new.steps) == len(old.steps)
            for step, ref in zip(new.steps, old.steps, strict=True):
                assert step.histories == ref.histories
                assert_same_step(step, ref)


    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_members": (4, 2)}, "n_members: empty range [4, 2]"),
            ({"protocol_depth": (3, 1)}, "protocol_depth: empty range [3, 1]"),
            ({"n_members": 0}, "n_members must be >= 1, got 0"),
            ({"protocol_depth": (-1, 2)}, "protocol_depth must be >= 0, got -1"),
            ({"n_members": 2.0}, "n_members: expected an integer or a (low, high) pair of integers, got 2.0"),
            ({"n_members": (1, 2, 3)}, "n_members: expected an integer or a (low, high) pair of integers, got (1, 2, 3)"),
            (
                {"protocol_depth": (0.5, 2)},
                "protocol_depth: expected an integer or a (low, high) pair of integers, got (0.5, 2)",
            ),
            (
                {"protocol_depth": (1, 2.5)},
                "protocol_depth: expected an integer or a (low, high) pair of integers, got (1, 2.5)",
            ),
            ({"n_members": True}, "n_members: expected an integer or a (low, high) pair of integers, got True"),
        ],
    )
    def test_bad_range_is_rejected_naming_the_parameter(self, kwargs, message):
        with pytest.raises(ValueError) as excinfo:
            random_scenario(0, **kwargs)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "seed, message",
        [
            # None would seed numpy from the OS: a new scenario on each call.
            (None, "seed must be an integer, got None"),
            (True, "seed must be an integer, got True"),
            ([1, 2], "seed must be an integer, got [1, 2]"),
            (2.5, "seed must be an integer, got 2.5"),
            ("3", "seed must be an integer, got '3'"),
            (-1, "seed must be >= 0, got -1"),
        ],
    )
    def test_bad_seed_is_rejected_naming_it(self, seed, message):
        with pytest.raises(ValueError) as excinfo:
            random_scenario(seed)
        assert str(excinfo.value) == message


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: BipartiteEnsemble(((NAN, bell(PHI_PLUS)), (1.0, bell(PHI_PLUS)))),
        lambda: BellDiagonalSpec(2, (NAN, 1.0, 0.0, 0.0)),
        lambda: KrausInstrument(party="A", outcomes=(("0", np.diag([1.0, NAN])),)),
        lambda: KrausInstrument.projective("A", [[1.0, 0.0], [0.0, NAN]]),
        lambda: pure_state_density([1.0, 0.0, 0.0, NAN], 2, 2),
        # A spectral ensemble is solved from its state, whose NaN reaches the
        # spectrum through a diagonal entry (a weight) or an off-diagonal one.
        lambda: SpectralEnsemble(DensityOperator(2, 2, np.diag([NAN, 1.0, 0.0, 0.0]))),
        lambda: SpectralEnsemble(DensityOperator(2, 2, np.outer([1.0, 0.0, 0.0, NAN], [1.0, 0.0, 0.0, NAN]))),
    ],
    ids=["ensemble", "bell_spec", "kraus", "projective", "pure_state", "spectral_weight", "spectral_vector"],
)
def test_nan_is_rejected_by_constructors(build):
    with pytest.raises(ValueError):
        build()


def edited(build, edit=lambda data: None):
    """A parse of ``build()`` after ``edit`` has changed it in place; JSON
    round trip first, so that no edit reaches a shared constant."""

    def call():
        data = json.loads(json.dumps(build()))
        edit(data)
        parse_scenario(data, source="s")

    return call


def z_steps() -> dict:
    return protocol([{"party": "A", "instrument": Z}])


def two_overrides() -> dict:
    return protocol([{"party": "A", "instrument": Z}, {"party": "B", "overrides": {"0": Z, "1": Z}}])


def scenario_of_steps(steps) -> Scenario:
    return Scenario(name="steps", ensemble=PHI_ENSEMBLE, steps=steps, bell=None, random=None)


PHI_ENSEMBLE = BipartiteEnsemble(((1.0, bell(PHI_PLUS)),))
BELL_SPEC = BellDiagonalSpec(2, (0.9, 0.1, 0.0, 0.0))
RANDOM_SPEC = RandomSpec(n_members=(2, 2), protocol_depth=(1, 1))


def z_step_pair() -> tuple[ProtocolStep, ProtocolStep]:
    """A Z measurement on A, then one on B."""
    return tuple(ProtocolStep(party, KrausInstrument.projective(party, np.eye(2)), {}) for party in "AB")


def bell_file(d: int, probs) -> dict:
    return {"kind": "bell_diagonal", "name": "b", "bell": {"d": d, "probs": probs}}


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            edited(z_steps, lambda d: d["ensemble"].__setitem__(1, 5)),
            ScenarioError,
            "s.ensemble[1]: expected an object, got int",
        ),
        (
            edited(z_steps, lambda d: d["ensemble"][0]["vector"].__setitem__(0, [1, 0, 0])),
            ScenarioError,
            "s.ensemble[0].vector[0]: complex entries are [re, im] pairs, got 3 items",
        ),
        (
            edited(z_steps, lambda d: d["protocol"][0].update(instrument={**KRAUS, "labels": ["weak"]})),
            ScenarioError,
            "s.protocol[0].instrument: 1 labels for 2 outcomes",
        ),
        (
            edited(z_steps, lambda d: d["protocol"][0]["instrument"].update(labels=["", "x"])),
            ScenarioError,
            "s.protocol[0].instrument: empty outcome label",
        ),
        (
            edited(z_steps, lambda d: d["protocol"][0].update(instrument={"labels": ["0", "1"]})),
            ScenarioError,
            "s.protocol[0].instrument: instrument needs a 'projective' basis or a 'kraus' operator list",
        ),
        (edited(z_steps, lambda d: d.update(ensemble=[])), ScenarioError, "s.ensemble: ensemble is empty"),
        (
            edited(z_steps, lambda d: d["ensemble"].__setitem__(0, {"probability": 0.5})),
            ScenarioError,
            "s.ensemble[0]: member needs a 'vector' or a 'matrix'",
        ),
        (
            edited(z_steps, lambda d: d["ensemble"][0].update(vector=[[1, 0], [0, 0], [0, 0], [1, 0]])),
            ScenarioError,
            "s.ensemble[0]: state vector norm 1.414214 deviates from 1 beyond tol 1.0e-06",
        ),
        (
            edited(z_steps, lambda d: d["ensemble"][1].update(probability=0.4)),
            ScenarioError,
            "s.ensemble: weights sum to 0.9, not 1",
        ),
        (
            edited(z_steps, lambda d: [member.update(probability=p) for member, p in zip(d["ensemble"], (1.5, -0.5))]),
            ScenarioError,
            "s.ensemble: negative weight -0.5 at index 1",
        ),
        (edited(z_steps, lambda d: d.update(dims=[2, 2, 1])), ScenarioError, "s.dims: expected [dim_a, dim_b], got 3 items"),
        (edited(z_steps, lambda d: d.update(dims=[0, 2])), ScenarioError, "s.dims: subsystem dimensions must be positive, got (0, 2)"),
        (edited(z_steps, lambda d: d.update(protocol=[])), ScenarioError, "s.protocol: protocol needs at least one step"),
        (
            edited(z_steps, lambda d: d["protocol"].__setitem__(0, {"party": "A"})),
            ScenarioError,
            "s.protocol[0]: step needs an 'instrument' or nonempty 'overrides'",
        ),
        # The batch read declines both label tables; the entry parse names the field.
        (
            edited(two_overrides, lambda d: d["protocol"][1]["overrides"]["1"].update(labels="01")),
            ScenarioError,
            "s.protocol[1].overrides['1'].labels: expected an array, got str",
        ),
        (
            edited(two_overrides, lambda d: d["protocol"][1]["overrides"]["1"].update(labels=["0", ["1"]])),
            ScenarioError,
            "s.protocol[1].overrides['1'].labels[1]: expected a string, got list",
        ),
        # The batch read declines a number label; the entry parse names it.
        (
            edited(two_overrides, lambda d: d["protocol"][1]["overrides"]["1"].update(labels=["0", 1])),
            ScenarioError,
            "s.protocol[1].overrides['1'].labels[1]: expected a string, got int",
        ),
        (
            edited(lambda: RANDOM_SWEEP, lambda d: d["random"].update(instrument_family="haar")),
            ScenarioError,
            "s.random.instrument_family: unknown family 'haar'",
        ),
        (
            edited(lambda: RANDOM_SWEEP, lambda d: d.update(dims=[2, 3])),
            ScenarioError,
            "s.dims: random scenarios support dims [2, 2] only (output entanglement is unavailable for mixed states "
            "in 2x3)",
        ),
        (
            edited(lambda: RANDOM_SWEEP, lambda d: d["random"].update(n_members=True)),
            ScenarioError,
            "s.random.n_members: expected an integer or a (low, high) pair of integers, got True",
        ),
        (
            edited(lambda: RANDOM_SWEEP, lambda d: d["random"].update(n_members=[0.5, 2])),
            ScenarioError,
            "s.random.n_members: expected an integer or a (low, high) pair of integers, got [0.5, 2]",
        ),
        (
            edited(lambda: RANDOM_SWEEP, lambda d: d["random"].update(protocol_depth=[3, 1])),
            ScenarioError,
            "s.random.protocol_depth: empty range [3, 1]",
        ),
        (
            edited(lambda: RANDOM_SWEEP, lambda d: d["random"].update(n_members=0)),
            ScenarioError,
            "s.random.n_members must be >= 1, got 0",
        ),
        (edited(lambda: bell_file(1, [1.0])), ScenarioError, "s.bell: local dimension must be >= 2, got 1"),
        (edited(lambda: bell_file(2, [1.0])), ScenarioError, "s.bell: need 4 weights, got 1"),
        (
            edited(lambda: bell_file(2, [0.6, -0.1, 0.5, 0.0])),
            ScenarioError,
            "s.bell: negative weight -0.1 at index 1",
        ),
        (
            edited(lambda: bell_file(2, [0.25, 0.25, 0.0, 0.0])),
            ScenarioError,
            "s.bell: weights sum to 0.5, not 1",
        ),
        (
            lambda: scenario_module.materialize_random(parse_scenario(z_steps()), 0),
            ValueError,
            "materialize_random needs a random-kind scenario",
        ),
        (lambda: bundled_scenario_path("missing.json"), FileNotFoundError, "no bundled scenario 'missing.json'"),
        # The in-memory API: each raised a raw error before its checker took
        # the rule, given in the comment.
        # TypeError: 'NoneType' object is not iterable
        (lambda: scenario_of_steps(None), ScenarioError, "steps: expected a tuple of ProtocolStep, got NoneType"),
        # AttributeError: 'str' object has no attribute 'histories'
        (lambda: scenario_of_steps(("x",)), ScenarioError, "steps[0]: 'x' is not a ProtocolStep"),
        # StepChooser shares Scenario's check of a step sequence.
        # AttributeError: 'str' object has no attribute 'row_of' (in run_protocol)
        (
            lambda: run_protocol(BipartiteEnsemble(((1.0, bell(PHI_PLUS)),)), StepChooser(["x"]), 1),
            ScenarioError,
            "steps[0]: 'x' is not a ProtocolStep",
        ),
        # TypeError: 'NoneType' object is not iterable
        (lambda: StepChooser(None), ScenarioError, "steps: expected a tuple of ProtocolStep, got NoneType"),
        # AttributeError: 'NoneType' object has no attribute 'root_ensemble'
        (lambda: bound_suite(None), ValueError, "transcript must be a ProtocolTranscript, got NoneType"),
        # AttributeError: 'NoneType' object has no attribute 'stats'
        (lambda: audit_rounds(None), ValueError, "transcript must be a ProtocolTranscript, got NoneType"),
        (lambda: chain_mutual_information(None), ValueError, "transcript must be a ProtocolTranscript, got NoneType"),
        # AttributeError: 'NoneType' object has no attribute 'levels'
        (
            lambda: average_output_entanglement(None),
            ValueError,
            "transcript must be a ProtocolTranscript, got NoneType",
        ),
        # AttributeError: 'NoneType' object has no attribute 'matrix'
        (lambda: distillation_report(None), ValueError, "rho must be a DensityOperator, got NoneType"),
        # AttributeError: 'NoneType' object has no attribute 'matrix'
        (lambda: SpectralEnsemble(None), ValueError, "rho must be a DensityOperator, got NoneType"),
        # AttributeError: 'NoneType' object has no attribute 'dim_a'
        (
            lambda: BipartiteEnsemble(((0.5, bell(PHI_PLUS)), (0.5, None))),
            ValueError,
            "member 1 must be a DensityOperator, got NoneType",
        ),
        # TypeError: 'NoneType' object is not iterable
        (lambda: BellDiagonalSpec(2, None), ValueError, "probs must be a sequence of weights, got NoneType"),
        # TypeError: iteration over a 0-d array
        (lambda: BellDiagonalSpec(2, np.array(1.0)), ValueError, "probs must be a sequence of weights, got ndarray"),
        # TypeError: '<' not supported between instances of 'str' and 'int'
        (lambda: BellDiagonalSpec("2", (1, 0, 0, 0)), ValueError, "d must be an integer, got '2'"),
        (lambda: BellDiagonalSpec(True, (1, 0, 0, 0)), ValueError, "d must be an integer, got True"),
        # TypeError: 'int' object is not iterable
        (
            lambda: KrausInstrument.projective("A", np.eye(2), labels=5),
            ValueError,
            "labels must be a sequence of outcome labels, got int",
        ),
        # The weight rule owns "a weight is a real number". TypeError: float()
        # argument must be a string or a real number, not 'NoneType'
        (lambda: BellDiagonalSpec(2, [None] * 4), ValueError, "weight None at index 0 is not a real number"),
        (
            lambda: BipartiteEnsemble(((None, bell(PHI_PLUS)),)),
            ValueError,
            "weight None at index 0 is not a real number",
        ),
        # Accepted, as 0.5, 1.0, 0.25 and 0.5.
        (
            lambda: BipartiteEnsemble((("0.5", bell(PHI_PLUS)), ("0.5", bell(PHI_PLUS)))),
            ValueError,
            "weight '0.5' at index 0 is not a real number",
        ),
        (
            lambda: BipartiteEnsemble(((True, bell(PHI_PLUS)),)),
            ValueError,
            "weight True at index 0 is not a real number",
        ),
        (lambda: BellDiagonalSpec(2, ["0.25"] * 4), ValueError, "weight '0.25' at index 0 is not a real number"),
        (lambda: shannon_entropy(["0.5", "0.5"]), ValueError, "weight '0.5' at index 0 is not a real number"),
        # Dims follow the integer rule. TypeError: '<' not supported between
        # instances of 'str' and 'int'
        (lambda: validate_density(np.eye(4) / 4, "2", 2), ValueError, "dim_a must be an integer, got '2'"),
        (lambda: pure_state_density([1.0, 0.0, 0.0, 0.0], "2", 2), ValueError, "dim_a must be an integer, got '2'"),
        # Accepted, as a state with dim_a 2.0 or True.
        (lambda: validate_density(np.eye(4) / 4, 2.0, 2), ValueError, "dim_a must be an integer, got 2.0"),
        (lambda: validate_density(np.eye(4) / 4, True, 2), ValueError, "dim_a must be an integer, got True"),
        (lambda: validate_density(np.eye(4) / 4, 2, "2"), ValueError, "dim_b must be an integer, got '2'"),
        # The Scenario constructor rejects what its dump could not read back.
        # Each was accepted, and its dump failed to parse.
        (
            lambda: Scenario(name="s", ensemble=PHI_ENSEMBLE, steps=(), bell=BELL_SPEC, random=None),
            ScenarioError,
            "bell: a scenario holds exactly one of ensemble, bell and random, got ensemble and bell",
        ),
        (
            lambda: Scenario(name="s", ensemble=None, steps=(), bell=None, random=None),
            ScenarioError,
            "ensemble: a scenario holds exactly one of ensemble, bell and random, got none",
        ),
        (
            lambda: Scenario(name="s", ensemble=None, steps=z_step_pair(), bell=None, random=RANDOM_SPEC),
            ScenarioError,
            "steps: steps need an ensemble beside them, got random",
        ),
        (
            lambda: Scenario(name="s", ensemble=product_ensemble((2, 3)), steps=z_step_pair(), bell=None, random=None),
            ScenarioError,
            "protocol[1]: dimension mismatch: instrument on B has size 2, party dimension is 3",
        ),
        (
            lambda: Scenario(name=5, ensemble=PHI_ENSEMBLE, steps=(), bell=None, random=None),
            ScenarioError,
            "name: expected a str, got int",
        ),
        # AttributeError: 'list' object has no attribute 'members' (in the dump)
        (
            lambda: Scenario(name="s", ensemble=[(1.0, bell(PHI_PLUS))], steps=(), bell=None, random=None),
            ScenarioError,
            "ensemble: expected a BipartiteEnsemble or None, got list",
        ),
        (
            lambda: Scenario(name="s", ensemble=None, steps=(), bell={"d": 2}, random=None),
            ScenarioError,
            "bell: expected a BellDiagonalSpec or None, got dict",
        ),
        (
            lambda: Scenario(name="s", ensemble=None, steps=(), bell=None, random=(2, 1)),
            ScenarioError,
            "random: expected a RandomSpec or None, got tuple",
        ),
        # A member that is not a (weight, state) pair is named before anything is unpacked.
        (lambda: BipartiteEnsemble((bell(PHI_PLUS),)), ValueError, "member 0 must be a (weight, state) pair, got DensityOperator"),
        (
            lambda: BipartiteEnsemble(((1.0, bell(PHI_PLUS)), (0.0, bell(PHI_PLUS), 1))),
            ValueError,
            "member 1 must be a (weight, state) pair, got 3 entries",
        ),
        # A random spec holds what its dump can read back: (low, high) tuples at the parser's minima.
        (
            lambda: RandomSpec(n_members=(0, 0), protocol_depth=(1, 1)),
            ScenarioError,
            "random.n_members must be >= 1, got 0",
        ),
        (
            lambda: RandomSpec(n_members=2, protocol_depth=1),
            ScenarioError,
            "random.n_members: expected a (low, high) tuple of integers, got 2",
        ),
        (
            lambda: RandomSpec(n_members=(2, 2), protocol_depth=(-1, 1)),
            ScenarioError,
            "random.protocol_depth must be >= 0, got -1",
        ),
    ],
    ids=[
        "member_not_object", "complex_triple", "kraus_label_count", "empty_label", "instrument_without_operators",
        "empty_ensemble", "member_without_state", "member_norm", "weight_sum", "negative_weight", "dims_count",
        "dims_nonpositive", "empty_protocol", "step_without_instrument", "labels_not_a_list", "unhashable_labels",
        "numeric_label",
        "instrument_family", "random_dims", "range_bool", "range_float", "range_empty", "range_minimum", "bell_d",
        "bell_weight_count", "bell_negative_weight", "bell_weight_sum", "materialize_non_random",
        "missing_bundled_scenario", "steps_none", "step_not_a_step", "step_chooser_not_a_step",
        "step_chooser_none", "bound_suite_none", "audit_rounds_none", "chain_mutual_information_none",
        "average_output_entanglement_none", "distillation_report_none",
        "spectral_ensemble_none", "member_none", "bell_probs_none", "bell_probs_0d", "bell_d_str", "bell_d_bool", "labels_int",
        "bell_weight_none", "member_weight_none", "member_weight_str", "member_weight_bool", "bell_weight_str",
        "shannon_str", "dims_str", "pure_state_dims_str", "dims_float", "dims_bool", "dim_b_str",
        "ensemble_and_bell", "no_content", "steps_without_ensemble", "step_size", "name_int", "ensemble_type",
        "bell_type", "random_type", "member_not_a_pair", "member_triple", "random_spec_minimum",
        "random_spec_int", "random_spec_depth_minimum",
    ],
)
def test_rejection_names_the_field(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
# Rejected by the weight rule's zero band alone: the sum is within
# DEFAULT_TOL of one.
NEAR_ZERO_NEGATIVE = [0.5, 0.5 + 5e-10, -5e-10]
# The edges of the two merged facts. A weight of -1e-12 lies on the zero
# band and -1.01e-12 beyond it; a trace or a weight sum of 1 +- 0.9e-9 is
# one within DEFAULT_TOL, and 1 +- 1.1e-9 is not.
ON_THE_ZERO_BAND = [0.5, 0.5 + 1e-12, -1e-12]
BEYOND_THE_ZERO_BAND = [0.5, 0.5 + 1.01e-12, -1.01e-12]


def weighted_members(weights):
    """An edit that gives the file one |00> member per weight."""

    def edit(data: dict) -> None:
        data["ensemble"] = [{"probability": p, "vector": [[1, 0], [0, 0], [0, 0], [0, 0]]} for p in weights]

    return edit


def trace_member(trace: float):
    """An edit that makes the file's ensemble one matrix member diag(trace, 0, 0, 0)."""

    def edit(data: dict) -> None:
        matrix = [[[trace if i == j == 0 else 0.0, 0.0] for j in range(4)] for i in range(4)]
        data["ensemble"] = [{"probability": 1.0, "matrix": matrix}]

    return edit


def weight_rule_calls(weights) -> list:
    """The API entry points of the weight rule, each given ``weights``."""
    return [
        lambda: BipartiteEnsemble(tuple((p, bell(PHI_PLUS)) for p in weights)),
        lambda: shannon_entropy(weights),
        lambda: BellDiagonalSpec(2, (*weights, *[0.0] * (4 - len(weights)))),
    ]


@pytest.mark.parametrize(
    "edit, path, message, api_calls",
    [
        (
            lambda d: d["protocol"][0].update(party="C"),
            "s.protocol[0].party",
            "party must be 'A' or 'B', got 'C'",
            [
                lambda: KrausInstrument("C", (("0", P0), ("1", P1))),
                lambda: partial_transpose(np.eye(4) / 4, "C", (2, 2)),
                lambda: partial_trace(np.eye(4) / 4, "C", (2, 2)),
            ],
        ),
        (
            lambda d: d.update(dims=[0, 2]),
            "s.dims",
            "subsystem dimensions must be positive, got (0, 2)",
            [lambda: validate_density(np.eye(2) / 2, 0, 2), lambda: pure_state_density([1.0, 0.0], 0, 2)],
        ),
        (
            lambda d: d["protocol"][0]["instrument"].update(labels=["0", "1,2"]),
            "s.protocol[0].instrument",
            "labels must not contain commas (reserved for history keys)",
            [
                lambda: KrausInstrument("A", (("0", P0), ("1,2", P1))),
                lambda: KrausInstrument.projective("A", np.eye(2), ["0", "1,2"]),
            ],
        ),
        (
            weighted_members(NEAR_ZERO_NEGATIVE),
            "s.ensemble",
            "negative weight -5e-10 at index 2",
            weight_rule_calls(NEAR_ZERO_NEGATIVE),
        ),
        (
            weighted_members(BEYOND_THE_ZERO_BAND),
            "s.ensemble",
            "negative weight -1.01e-12 at index 2",
            weight_rule_calls(BEYOND_THE_ZERO_BAND),
        ),
        (
            weighted_members([0.5, 0.5 + 1.1e-9]),
            "s.ensemble",
            "weights sum to 1.0000000011, not 1",
            weight_rule_calls([0.5, 0.5 + 1.1e-9]),
        ),
        (
            weighted_members([0.5, 0.5 - 1.1e-9]),
            "s.ensemble",
            "weights sum to 0.9999999989, not 1",
            weight_rule_calls([0.5, 0.5 - 1.1e-9]),
        ),
        (
            trace_member(1.0 + 1.1e-9),
            "s.ensemble[0]",
            "trace deviation: |tr(M) - 1| = 1.100e-09 exceeds tol 1.0e-09",
            [lambda: validate_density(np.diag([1.0 + 1.1e-9, 0.0, 0.0, 0.0]), 2, 2)],
        ),
        (
            trace_member(1.0 - 1.1e-9),
            "s.ensemble[0]",
            "trace deviation: |tr(M) - 1| = 1.100e-09 exceeds tol 1.0e-09",
            [lambda: validate_density(np.diag([1.0 - 1.1e-9, 0.0, 0.0, 0.0]), 2, 2)],
        ),
    ],
    ids=[
        "party", "dims", "comma_label", "negative_weight", "beyond_the_zero_band", "weight_sum_above",
        "weight_sum_below", "trace_above", "trace_below",
    ],
)
def test_file_and_api_reject_the_same_value_with_the_same_message(edit, path, message, api_calls):
    # One checker per input rule: every API entry point of the rule raises
    # its message, and the file adds only the field path in front.
    for call in api_calls:
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message
    with pytest.raises(ScenarioError) as excinfo:
        edited(z_steps, edit)()
    assert str(excinfo.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "edit, api_calls",
    [
        (weighted_members(ON_THE_ZERO_BAND), weight_rule_calls(ON_THE_ZERO_BAND)),
        (weighted_members([0.5, 0.5 + 0.9e-9]), weight_rule_calls([0.5, 0.5 + 0.9e-9])),
        (weighted_members([0.5, 0.5 - 0.9e-9]), weight_rule_calls([0.5, 0.5 - 0.9e-9])),
        (trace_member(1.0 + 0.9e-9), [lambda: validate_density(np.diag([1.0 + 0.9e-9, 0.0, 0.0, 0.0]), 2, 2)]),
        (trace_member(1.0 - 0.9e-9), [lambda: validate_density(np.diag([1.0 - 0.9e-9, 0.0, 0.0, 0.0]), 2, 2)]),
    ],
    ids=["on_the_zero_band", "weight_sum_above", "weight_sum_below", "trace_above", "trace_below"],
)
def test_file_and_api_accept_the_value_at_the_edge(edit, api_calls):
    # The accepting side of each edge that the test above rejects.
    for call in api_calls:
        call()
    edited(z_steps, edit)()


def test_label_count_has_one_message_on_every_route():
    # One checker owns the label count: the API, a file's projective and
    # Kraus instruments, a Kraus override and a projective override table,
    # read in one batch or entry by entry, raise its one message, the file
    # at the instrument's field path.
    message = "1 labels for 2 outcomes"
    with pytest.raises(ValueError) as excinfo:
        KrausInstrument.projective("A", np.eye(2), ["0"])
    assert str(excinfo.value) == message
    for instrument in (Z, KRAUS):
        data = protocol([{"party": "A", "instrument": {**instrument, "labels": ["0"]}}])
        assert parse_error(data) == f"s.protocol[0].instrument: {message}"
    data = protocol([{"party": "A", "overrides": {"": {**KRAUS, "labels": ["0"]}}}])
    assert parse_error(data) == f"s.protocol[0].overrides['']: {message}"
    data = adaptive_table()
    data["protocol"][2]["overrides"]["1,0"]["labels"] = ["0"]
    assert parse_error(data) == f"s.protocol[2].overrides['1,0']: {message}"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_module, "_parse_projective_tables", lambda *args: None)
        assert parse_error(data) == f"s.protocol[2].overrides['1,0']: {message}"


def instrument_or_none(party: str, labels: tuple[str, str], kraus: bool) -> KrausInstrument | None:
    """A weak Kraus measurement or the X basis with ``labels``; None if the
    constructors reject the labels."""
    try:
        if kraus:
            return KrausInstrument(party, ((labels[0], np.diag([1.0, 0.6])), (labels[1], np.diag([0.0, 0.8]))))
        return KrausInstrument.projective(party, np.array([[R, R], [R, -R]]), labels)
    except ValueError:
        return None


@pytest.mark.parametrize(
    "build",
    [
        lambda d: BipartiteEnsemble(((1.0, validate_density(np.eye(4) / 4, d, 2)),)),
        lambda d: BellDiagonalSpec(d, (0.9, 0.1, 0.0, 0.0)),
    ],
    ids=["ensemble", "bell"],
)
def test_numpy_integer_dims_dump_as_json_integers(build):
    # The integer rule takes a numpy integer; its dump used to raise
    # TypeError: Object of type int64 is not JSON serializable.
    content = build(np.int64(2))
    field = "bell" if isinstance(content, BellDiagonalSpec) else "ensemble"
    scenario = Scenario(name="numpy", steps=(), **{**dict.fromkeys(CONTENTS), field: content})
    text = dump_scenario(scenario)
    assert text == dump_scenario(Scenario(name="numpy", steps=(), **{**dict.fromkeys(CONTENTS), field: build(2)}))
    assert dump_scenario(parse_scenario(json.loads(text))) == text


def product_ensemble(dims: tuple[int, int]) -> BipartiteEnsemble:
    """|00> and |11> on ``dims``, half each."""
    size = dims[0] * dims[1]
    return BipartiteEnsemble(tuple((0.5, pure_state_density(np.eye(size)[i], *dims)) for i in (0, size - 1)))


# One value of each content of a scenario, on the dims the ensemble is given.
CONTENTS = {"ensemble": product_ensemble, "bell": lambda dims: BELL_SPEC, "random": lambda dims: RANDOM_SPEC}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(labels=st.lists(st.text(), min_size=6, max_size=6), kraus=st.lists(st.booleans(), min_size=3, max_size=3))
@example(labels=["0", "1,2", "a", "b", "c", "d"], kraus=[False, True, True])
@example(labels=["0", "1", "a", "b,", "c", "d"], kraus=[True, True, False])
def test_every_scenario_the_constructors_accept_survives_dump_and_parse(labels, kraus):
    # The constructors hold every label rule, so whatever they accept the
    # dump writes and the parser reads back, byte for byte.
    pairs = [tuple(labels[i : i + 2]) for i in (0, 2, 4)]
    first, default, override = (
        instrument_or_none(party, names, weak) for party, names, weak in zip("ABB", pairs, kraus)
    )
    assume(None not in (first, default, override))
    scenario = Scenario(
        name="labels",
        ensemble=BipartiteEnsemble(((0.5, bell(PHI_PLUS)), (0.5, pure_state_density([1, 0, 0, 0], 2, 2)))),
        steps=(ProtocolStep("A", first, {}), ProtocolStep("B", default, {(pairs[0][0],): override})),
        bell=None, random=None,
    )
    text = dump_scenario(scenario)
    assert dump_scenario(parse_scenario(json.loads(text))) == text


@pytest.mark.parametrize("wrong", [None, "name", "ensemble", "bell", "random"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)], ids=["2x2", "2x3", "3x2"])
@pytest.mark.parametrize("with_steps", [False, True], ids=["no_steps", "steps"])
@pytest.mark.parametrize(
    "held",
    [(), ("ensemble",), ("bell",), ("random",), ("ensemble", "bell"), ("ensemble", "random"), ("bell", "random"),
     ("ensemble", "bell", "random")],
    ids=lambda held: "+".join(held) or "none",
)
def test_the_constructor_rejects_exactly_what_its_dump_cannot_read_back(held, with_steps, dims, wrong):
    # A scenario holds exactly one content of the right type and a str name,
    # its steps need an ensemble beside them and each step's size is its
    # party's dimension. The constructor rejects exactly the scenarios that
    # break one of these, naming the field; the dump of any other reads back.
    fields = {field: build(dims) if field in held else None for field, build in CONTENTS.items()}
    fields["name"] = "contents"
    if wrong is not None:
        fields[wrong] = [("x", 1)]
    x_basis, z_basis = np.array([[R, R], [R, -R]]), np.eye(2)
    a_step = ProtocolStep("A", KrausInstrument.projective("A", x_basis), {})
    b_step = ProtocolStep(
        "B", KrausInstrument.projective("B", z_basis), {("0",): KrausInstrument.projective("B", x_basis)}
    )
    steps = (a_step, b_step) if with_steps else ()
    breaks_a_rule = wrong is not None or len(held) != 1 or (with_steps and (held != ("ensemble",) or dims != (2, 2)))
    try:
        scenario = Scenario(steps=steps, **fields)
    except ScenarioError as exc:
        assert breaks_a_rule, str(exc)
        assert str(exc).split(":")[0] in ("name", *CONTENTS, "steps", "protocol[0]", "protocol[1]"), str(exc)
        return
    assert not breaks_a_rule
    text = dump_scenario(scenario)
    assert dump_scenario(parse_scenario(json.loads(text))) == text
