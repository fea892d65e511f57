"""Scenario files: parsing, canonical serialization, seeded generation.

A scenario is a JSON object describing one of four kinds of input:

``ensemble``       members only; protocols see it as a depth-zero tree.
``protocol``       members plus ordered measurement steps, optionally
                   adaptive through per-history instrument overrides.
``bell_diagonal``  local dimension and weights over the generalized Bell
                   basis.
``random``         generator parameters for seeded random ensembles and
                   projective protocols.

The entanglement measure is not set by the file: it follows each state
(``entropy.entanglements``). An optional ``selectors`` object is still
read, but each of its sides (``input``, ``output``) may only be
``"auto"``, and the dump always writes both as ``"auto"``. A
``tolerance`` field is rejected: the slack tolerance of the checks is set
by the command line's ``--tol`` alone.

Complex numbers are serialized as [re, im] pairs, matrices as row-major
nested arrays; a projective basis is such a matrix, one ket per row,
read by the same reader as Kraus operators and ``matrix`` members; an
override's key is the labels of its outcome history joined by commas
("0,1,1"), a tuple of labels once parsed. Only ``parse_scenario`` and
``dump_scenario`` know this wire format: parsing is strict and errors
carry the offending field path: a key outside an object's field set, a
key that a file's object repeats and a ``schema`` other than SCHEMA are
rejected, so a misspelt or repeated field is never read as its default or
as its last value. ``random_scenario`` builds its ``Scenario`` straight
from the stacks it draws. Outcome labels belong to the
instrument, which gives an absent list its default "0".."K-1", and then
to its step row; the walk, the dump and the generator read the rows'
``labels``. A projective row keeps the kets it was built from, and the
dump writes them back; any other row is dumped as its Kraus operators.
Parsing keeps every number as written (``validate_density`` checks a
matrix and never rewrites it), so dump -> parse -> dump is byte-stable.

A step is held as one ``ProtocolStep`` operator stack: its default
instrument in row 0 and one row per override, in table order. Before the
steps are read, every override table whose entries are all projective
bases joins its party's batch: one walk checks that the kets of all of a
party's tables are nested lists of matching lengths, one leaf-type test
rejects booleans and strings, one ``np.array`` reads them as one
(H, K, K, 2) array, and one ``_projective_stack`` call checks the whole
stack, finiteness (a NaN or an infinity), orthonormality and
completeness. Each step then takes its own slice of projectors, labels
and kets as its rows, with no instrument built. This read never raises:
if any of it fails, each of that party's tables is parsed entry by entry,
the path that names the first bad field, and the entries' operators are
stacked; a table with any other entry always takes that path. The steps
are read in file order either way, so a file names the same first fault.
The parser only splits each key into its history. The parser, the
generator and code in memory all build a ``Scenario`` with its
constructor, the one walk of the histories: every field of a file is
read before any history is walked, so both routes name the same first
fault. The walk runs on label tuples; a history whose parent is known
(with the labels of the instrument measuring it) takes one dict lookup.
A scenario keeps the steps it is given, each node's row found from its
path. The rows are a step's only form: the dump writes each row from its
labels, kets and operators, and only a call of ``Scenario.chooser``
builds an instrument.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .distillation import BellDiagonalSpec
from .entropy import BipartiteEnsemble
from .linalg import PARTIES, DensityOperator, _require_dims, _require_party, pure_state_density, validate_density
from .protocol import (
    KrausInstrument,
    ProtocolStep,
    ScenarioError,
    StepChooser,
    _check_size,
    _outcome_labels,
    _projective_stack,
    _require_steps,
    _stack_instruments,
    _checked_instrument,
)

SCHEMA = "locclab/scenario-v1"
KINDS = ("ensemble", "protocol", "bell_diagonal", "random")
# The one generator family of random scenarios, and the dims it draws on.
INSTRUMENT_FAMILY = "projective-random-basis"
RANDOM_DIMS = (2, 2)
# The one accepted value of each side of ``selectors``.
SELECTOR = "auto"
_INF = float("inf")
# The top-level fields every kind takes; ``tolerance`` is listed so that its
# own message names --tol.
_COMMON_FIELDS = ("kind", "name", "schema", "selectors", "tolerance")
# The top-level fields that only their own kind reads.
_KIND_FIELDS = {
    "ensemble": ("dims", "ensemble"),
    "protocol": ("dims", "ensemble", "protocol"),
    "bell_diagonal": ("bell",),
    "random": ("dims", "random"),
}
_SCENARIO_FIELDS = tuple(sorted({*_COMMON_FIELDS, *itertools.chain.from_iterable(_KIND_FIELDS.values())}))


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


class _at:
    """``with _at(path):`` turns a checker's ValueError, but not a
    ScenarioError, into a ScenarioError that names the field ``path``."""

    def __init__(self, path: str):
        self.path = path

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, ValueError) and not isinstance(exc, ScenarioError):
            _fail(self.path, str(exc))


class _DuplicateKeys(dict):
    """A JSON object that repeats ``key``; ``_as_dict`` rejects it."""

    def __init__(self, obj: dict, key: str):
        super().__init__(obj)
        self.key = key


def _object(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads`` hook: the object of ``pairs``, marked if a key repeats.

    The decoder builds inner objects first and knows no field path, so the
    mark waits for ``_as_dict``, which every object the parser reads passes.
    """
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    keys = [key for key, _ in pairs]
    return _DuplicateKeys(obj, next(key for i, key in enumerate(keys) if key in keys[:i]))


def _as_dict(value, path: str, fields: tuple[str, ...] | None) -> dict:
    """``value`` as an object with no repeated key and no key outside
    ``fields`` (None: an override table)."""
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    if isinstance(value, _DuplicateKeys):
        _fail(path, f"duplicate key {value.key!r}")
    if fields is not None:
        for key in value:
            if key not in fields:
                _fail(path, f"unknown field {key!r}; expected one of {list(fields)}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        _fail(path, "expected a finite number, got an integer too large for a float")
    # Chained comparison: false for NaN as well as for +-inf.
    if not -_INF < number < _INF:
        _fail(path, f"expected a finite number, got {number!r}")
    return number


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        _fail(path, f"missing required field {key!r}")
    return obj[key]


def _as_complex(value, path: str) -> complex:
    pair = _as_list(value, path)
    if len(pair) != 2:
        _fail(path, f"complex entries are [re, im] pairs, got {len(pair)} items")
    return complex(_as_number(pair[0], f"{path}[0]"), _as_number(pair[1], f"{path}[1]"))


def _as_vector(value, path: str) -> np.ndarray:
    items = _as_list(value, path)
    if not items:
        _fail(path, "vector is empty")
    return np.array([_as_complex(x, f"{path}[{i}]") for i, x in enumerate(items)])


def _as_matrix(value, path: str) -> np.ndarray:
    rows = _as_list(value, path)
    if not rows:
        _fail(path, "matrix is empty")
    parsed = [_as_vector(row, f"{path}[{i}]") for i, row in enumerate(rows)]
    width = parsed[0].size
    for i, row in enumerate(parsed):
        if row.size != width:
            _fail(f"{path}[{i}]", f"row length {row.size} != {width}")
    return np.vstack(parsed)


def _to_pairs(array: np.ndarray) -> list:
    """Nested lists of [re, im] pairs, one level per array axis."""
    return np.stack([array.real, array.imag], axis=-1).tolist()


# The least value of each range of a random spec, for the parser, RandomSpec and random_scenario.
_RANGE_MINIMA = {"n_members": 1, "protocol_depth": 0}


@dataclass(frozen=True)
class RandomSpec:
    """Generator parameters for seeded random scenarios. Each range is the
    (low, high) tuple of ints that ``_int_range`` gives the parser; the
    constructor converts nothing and rejects any other value, naming
    ``random.<field>``."""

    n_members: tuple[int, int]
    protocol_depth: tuple[int, int]

    def __post_init__(self):
        for field, minimum in _RANGE_MINIMA.items():
            value = getattr(self, field)
            if not isinstance(value, tuple):
                raise ScenarioError(f"random.{field}: expected a (low, high) tuple of integers, got {value!r}")
            _int_range(value, f"random.{field}", minimum)


# The histories a walk has found to reach a step, each with the labels of
# the instrument that the step applies to it (empty at a gap). A walk
# starts from {(): ()}: the first step's labels come once it is reached.
_Known = dict[tuple[str, ...], tuple[str, ...]]


# The contents of a scenario, exactly one of which it holds, with their types.
_CONTENTS = {"ensemble": BipartiteEnsemble, "bell": BellDiagonalSpec, "random": RandomSpec}


@dataclass(frozen=True, eq=False)
class Scenario:
    """What a scenario file says: a name and exactly one of an ensemble (with
    its protocol ``steps``, a tuple or a list of ``ProtocolStep`` kept as a
    tuple), a Bell spec and a random spec; ``kind``, ``dim_a`` and ``dim_b``
    follow from them. The constructor, the one way to build a scenario, walks
    every override history and rejects what ``dump_scenario`` could not read
    back, with a ScenarioError that names the field. Compared by identity."""

    name: str
    ensemble: BipartiteEnsemble | None
    steps: tuple[ProtocolStep, ...]
    bell: BellDiagonalSpec | None
    random: RandomSpec | None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ScenarioError(f"name: expected a str, got {type(self.name).__name__}")
        for field, kind in _CONTENTS.items():
            value = getattr(self, field)
            if value is not None and not isinstance(value, kind):
                raise ScenarioError(f"{field}: expected a {kind.__name__} or None, got {type(value).__name__}")
        object.__setattr__(self, "steps", _require_steps(self.steps))
        held = [field for field in _CONTENTS if getattr(self, field) is not None]
        if len(held) != 1:
            raise ScenarioError(
                f"{held[-1] if held else 'ensemble'}: a scenario holds exactly one of ensemble, bell and random, "
                f"got {' and '.join(held) or 'none'}"
            )
        if self.steps and self.ensemble is None:
            raise ScenarioError(f"steps: steps need an ensemble beside them, got {held[0]}")
        dims = dict(zip(PARTIES, (self.dim_a, self.dim_b)))
        known: _Known = {(): ()}
        for i, step in enumerate(self.steps):
            with _at(f"protocol[{i}]"):
                _check_size(step.party, step.ops.shape[-1], dims[step.party])
            for history in step.histories:
                _check_history(history, self.steps, i, known)
            if not i:
                known[()] = step.labels[step.row_of(())]
            known.update(zip(step.histories, step.labels[1:]))

    @property
    def kind(self) -> str:
        """The file's ``kind``, fixed by the content held and the steps."""
        if self.bell is not None:
            return "bell_diagonal"
        if self.random is not None:
            return "random"
        return "protocol" if self.steps else "ensemble"

    @property
    def _dims(self) -> tuple[int, int]:
        """The Bell spec's (d, d), else the ensemble's dims, else RANDOM_DIMS."""
        if self.bell is not None:
            return self.bell.d, self.bell.d
        return (self.ensemble.dim_a, self.ensemble.dim_b) if self.ensemble is not None else RANDOM_DIMS

    dim_a = property(lambda self: self._dims[0])
    dim_b = property(lambda self: self._dims[1])

    @cached_property
    def chooser(self) -> StepChooser:
        """The ``StepChooser`` of the steps, whose stacks ``run_protocol``
        reads; a call builds the instrument of a history's row, with a
        KeyError past the last step and a ScenarioError at a gap."""
        return StepChooser(self.steps)

    @property
    def depth(self) -> int:
        return len(self.steps)


def _parse_instrument(value, party: str, dim: int, path: str) -> KrausInstrument:
    """Instrument on ``party``, whose local dimension ``dim`` it must match."""
    obj = _as_dict(value, path, ("kraus", "labels", "projective"))
    if "projective" in obj and "kraus" in obj:
        _fail(path, "instrument needs a 'projective' basis or a 'kraus' operator list, not both")
    labels = None
    if "labels" in obj:
        labels = [_as_str(x, f"{path}.labels[{i}]") for i, x in enumerate(_as_list(obj["labels"], f"{path}.labels"))]
    with _at(path):
        if "projective" in obj:
            kets = _as_matrix(obj["projective"], f"{path}.projective")
            instrument = KrausInstrument.projective(party, kets, labels=labels)
        elif "kraus" in obj:
            ops = [
                _as_matrix(m, f"{path}.kraus[{i}]")
                for i, m in enumerate(_as_list(obj["kraus"], f"{path}.kraus"))
            ]
            instrument = KrausInstrument(party=party, outcomes=tuple(zip(_outcome_labels(labels, len(ops)), ops)))
        else:
            _fail(path, "instrument needs a 'projective' basis or a 'kraus' operator list")
        _check_size(party, instrument.dim, dim)
    return instrument


def _row_payload(step: ProtocolStep, row: int) -> dict:
    """Row ``row`` of ``step`` as an instrument object, without its padding."""
    labels = step.labels[row]
    if step.kets[row] is not None:
        return {"labels": list(labels), "projective": _to_pairs(step.kets[row])}
    return {"labels": list(labels), "kraus": _to_pairs(step.ops[row, : len(labels)])}


def _batched_tables(steps_raw: list, dims: dict[str, int]) -> dict[int, tuple[np.ndarray, list, np.ndarray]]:
    """Step index -> its override table as read in its party's batch.

    A table joins its party's batch when its step is an object whose
    'party' is A or B and every entry of its nonempty table is a projective
    object with no field but 'labels' besides. Never raises: a step that it
    does not read, or a party whose batch declines, is left to the entry
    parse, which names the field.
    """
    tables: dict[str, dict[int, dict]] = {party: {} for party in dims}
    for i, step in enumerate(steps_raw):
        if type(step) is not dict:
            continue
        party, table = step.get("party"), step.get("overrides")
        if type(party) is str and party in tables and type(table) is dict and table:
            if all(
                type(value) is dict and "projective" in value and value.keys() <= {"labels", "projective"}
                for value in table.values()
            ):
                tables[party][i] = table
    batched = {}
    for party, found in tables.items():
        stacks = _parse_projective_tables(list(found.values()), party, dims[party]) if found else None
        if stacks is not None:
            batched.update(zip(found, stacks))
    return batched


def _parse_projective_tables(tables: list[dict], party: str, dim: int) -> list[tuple] | None:
    """Every override of the projective ``tables`` of one party at once.

    The kets of all H overrides are read as one (H, K, K, 2) array of
    [re, im] pairs, K the party's dimension ``dim``, and each check runs
    once for the whole batch: shape, leaf types, a list for each 'labels',
    then ``_projective_stack``'s finiteness, orthonormality, labels and
    completeness.
    Returns, per table, its (H_t, K, K, K) projectors, label tuples and
    (H_t, K, K) kets in table order, sliced from the batch; or None when
    any check fails, so that the entry parse names the field.
    """
    values = [value for table in tables for value in table.values()]
    rows = [value["projective"] for value in values]
    # Each level must hold lists of the right length, as the entry parse
    # requires; np.array alone would also take tuples and arrays.
    nested = rows
    for size in (dim, dim, 2):
        if set(map(type, nested)) != {list} or set(map(len, nested)) != {size}:
            return None
        nested = list(itertools.chain.from_iterable(nested))
    # np.array(..., dtype=float) would take true as 1.0 and "0.5" as 0.5.
    if not set(map(type, nested)) <= {float, int}:
        return None
    try:
        numbers = np.array(nested, dtype=float).reshape(len(rows), dim, dim, 2)
    except OverflowError:
        return None
    if any(type(value.get("labels", [])) is not list for value in values):
        return None
    # A view of the [re, im] pairs: each ket entry is complex(re, im) bit for bit.
    kets = numbers.view(complex)[..., 0]
    try:
        projectors, labels = _projective_stack(party, kets, [value.get("labels") for value in values])
    except ValueError:
        return None
    ends = list(itertools.accumulate(len(table) for table in tables))
    return [(projectors[a:b], labels[a:b], kets[a:b]) for a, b in zip([0, *ends], ends)]


def _split_history_key(key: str, i: int, step_path: str) -> tuple[str, ...]:
    """The history of an override key of step ``i`` (from 0), at
    ``step_path``: the key of step i > 0 joins i labels with commas, and
    step 0's is the empty key. ``Scenario`` walks the history."""
    if not i and key:
        _fail(f"{step_path}.overrides[{key!r}]", f"step 1 is reached only by the empty history, got key {key!r}")
    labels = tuple(key.split(",")) if i else ()
    if len(labels) != i:
        _fail(f"{step_path}.overrides[{key!r}]", f"history key needs {i} labels, got {len(labels)} in {key!r}")
    return labels


def _check_history(history: tuple[str, ...], steps: tuple[ProtocolStep, ...], i: int, known: _Known) -> None:
    """Reject an override ``history`` of ``steps[i]`` unless each label is
    an outcome of the instrument that the labels before it select; the
    message joins the history into its key. Only the history's own
    prefixes are walked: the walk starts at the longest one in ``known``,
    usually the parent, so most histories take one dict lookup, and adds
    each prefix that passes; ``Scenario`` adds a step's histories once they
    are walked. A known prefix has passed every check, so the message does
    not depend on ``known``."""
    if len(history) != i:
        _fail(f"protocol[{i}].overrides[{','.join(history)!r}]", f"history needs {i} labels, got {len(history)}")
    start = len(history) - 1 if history else 0
    while (names := known.get(history[:start])) is None:
        start -= 1
    for j in range(start, len(history)):
        if history[j] not in names:
            _fail(f"protocol[{i}].overrides[{','.join(history)!r}]", _unreached(history, j, names))
        if j + 1 < len(history):
            step = steps[j + 1]
            names = step.labels[step.row_of(history[: j + 1])]
            known[history[: j + 1]] = names


def _unreached(history: tuple[str, ...], i: int, names: tuple[str, ...]) -> str:
    """Why label i of a history is not reached: step i + 1 has no
    instrument after the labels before it (``names`` empty), or ``names``
    does not hold the label."""
    before = ",".join(history[:i])
    if not names:
        return f"no instrument at step {i + 1} for history {before!r}"
    return (
        f"label {history[i]!r} is not an outcome of step {i + 1} after history {before!r} "
        f"(outcomes {list(names)}); no history reaches {','.join(history)!r}"
    )


def _parse_members(value, dims: tuple[int, int], path: str) -> BipartiteEnsemble:
    items = _as_list(value, path)
    if not items:
        _fail(path, "ensemble is empty")
    members: list[tuple[float, DensityOperator]] = []
    for i, item in enumerate(items):
        obj = _as_dict(item, f"{path}[{i}]", ("matrix", "probability", "vector"))
        p = _as_number(_get(obj, "probability", f"{path}[{i}]"), f"{path}[{i}].probability")
        if "vector" in obj and "matrix" in obj:
            _fail(f"{path}[{i}]", "member needs a 'vector' or a 'matrix', not both")
        with _at(f"{path}[{i}]"):
            if "vector" in obj:
                state = pure_state_density(_as_vector(obj["vector"], f"{path}[{i}].vector"), *dims)
            elif "matrix" in obj:
                state = validate_density(_as_matrix(obj["matrix"], f"{path}[{i}].matrix"), *dims)
            else:
                _fail(f"{path}[{i}]", "member needs a 'vector' or a 'matrix'")
        members.append((p, state))
    with _at(path):
        return BipartiteEnsemble(tuple(members))


def _member_payload(p: float, state: DensityOperator) -> dict:
    return {"probability": float(p), "matrix": _to_pairs(state.matrix)}


def parse_scenario(data: dict, source: str = "scenario") -> Scenario:
    """Validate a scenario object and build the typed view."""
    obj = _as_dict(data, source, _SCENARIO_FIELDS)
    if "schema" in obj and _as_str(obj["schema"], f"{source}.schema") != SCHEMA:
        _fail(f"{source}.schema", f"unknown schema {obj['schema']!r}; expected {SCHEMA!r}")
    kind = _as_str(_get(obj, "kind", source), f"{source}.kind")
    if kind not in KINDS:
        _fail(f"{source}.kind", f"unknown kind {kind!r}; expected one of {KINDS}")
    name = _as_str(obj.get("name", "unnamed"), f"{source}.name")

    bell = None
    if kind == "bell_diagonal":
        bell_obj = _as_dict(_get(obj, "bell", source), f"{source}.bell", ("d", "probs"))
        d = _as_int(_get(bell_obj, "d", f"{source}.bell"), f"{source}.bell.d")
        probs = [
            _as_number(x, f"{source}.bell.probs[{i}]")
            for i, x in enumerate(_as_list(_get(bell_obj, "probs", f"{source}.bell"), f"{source}.bell.probs"))
        ]
        with _at(f"{source}.bell"):
            bell = BellDiagonalSpec(d=d, probs=tuple(probs))
        dim_a = dim_b = d
    else:
        dims_raw = _as_list(_get(obj, "dims", source), f"{source}.dims")
        if len(dims_raw) != 2:
            _fail(f"{source}.dims", f"expected [dim_a, dim_b], got {len(dims_raw)} items")
        dim_a = _as_int(dims_raw[0], f"{source}.dims[0]")
        dim_b = _as_int(dims_raw[1], f"{source}.dims[1]")
        with _at(f"{source}.dims"):
            _require_dims(dim_a, dim_b)

    selectors = _as_dict(obj.get("selectors", {}), f"{source}.selectors", ("input", "output"))
    for side in ("input", "output"):
        value = _as_str(selectors.get(side, SELECTOR), f"{source}.selectors.{side}")
        if value != SELECTOR:
            _fail(f"{source}.selectors.{side}", f"selector {value!r} is not {SELECTOR!r}; the measure follows the state")
    if "tolerance" in obj:
        tolerance = _as_number(obj["tolerance"], f"{source}.tolerance")
        _fail(f"{source}.tolerance", f"a scenario sets no tolerance (got {tolerance!r}); pass it as --tol")

    ensemble = None
    if kind in ("ensemble", "protocol"):
        ensemble = _parse_members(_get(obj, "ensemble", source), (dim_a, dim_b), f"{source}.ensemble")

    steps: list[ProtocolStep] = []
    if kind == "protocol":
        steps_raw = _as_list(_get(obj, "protocol", source), f"{source}.protocol")
        if not steps_raw:
            _fail(f"{source}.protocol", "protocol needs at least one step")
        dims = dict(zip(PARTIES, (dim_a, dim_b)))
        batched = _batched_tables(steps_raw, dims)
        for i, step_raw in enumerate(steps_raw):
            step_path = f"{source}.protocol[{i}]"
            step_obj = _as_dict(step_raw, step_path, ("instrument", "overrides", "party"))
            party = _as_str(_get(step_obj, "party", step_path), f"{step_path}.party")
            with _at(f"{step_path}.party"):
                _require_party(party)
            dim = dims[party]
            default = None
            if step_obj.get("instrument") is not None:
                default = _parse_instrument(step_obj["instrument"], party, dim, f"{step_path}.instrument")
            table = _as_dict(step_obj.get("overrides", {}), f"{step_path}.overrides", None)
            stack = batched.get(i)
            if stack is not None:
                histories = [_split_history_key(key, i, step_path) for key in table]
            else:
                histories, instruments = [], []
                for key, value in table.items():
                    histories.append(_split_history_key(key, i, step_path))
                    instruments.append(_parse_instrument(value, party, dim, f"{step_path}.overrides[{key!r}]"))
                stack = _stack_instruments(instruments)
            with _at(step_path):
                steps.append(ProtocolStep._stacked(party, default, *stack, histories))

    random_spec = None
    if kind == "random":
        rnd_path = f"{source}.random"
        rnd = _as_dict(_get(obj, "random", source), rnd_path, ("instrument_family", "n_members", "protocol_depth"))
        n_members, depth = (
            _int_range(_get(rnd, field, rnd_path), f"{rnd_path}.{field}", minimum)
            for field, minimum in _RANGE_MINIMA.items()
        )
        family = _as_str(rnd.get("instrument_family", INSTRUMENT_FAMILY), f"{rnd_path}.instrument_family")
        if family != INSTRUMENT_FAMILY:
            _fail(f"{rnd_path}.instrument_family", f"unknown family {family!r}")
        if (dim_a, dim_b) != RANDOM_DIMS:
            _fail(
                f"{source}.dims",
                f"random scenarios support dims {list(RANDOM_DIMS)} only (output entanglement is "
                f"unavailable for mixed states in {dim_a}x{dim_b})",
            )
        random_spec = RandomSpec(n_members=n_members, protocol_depth=depth)

    # The constructor walks the override histories, naming fields below ``source``.
    try:
        scenario = Scenario(name=name, ensemble=ensemble, steps=steps, bell=bell, random=random_spec)
    except ScenarioError as exc:
        raise ScenarioError(f"{source}.{exc}") from None
    # Checked last, so that a file that fails another check keeps its message.
    for key in obj:
        if key not in _COMMON_FIELDS and key not in _KIND_FIELDS[kind]:
            _fail(f"{source}.{key}", f"kind {kind!r} takes no {key!r} field")
    return scenario


def _canonical_payload(s: Scenario) -> dict:
    # The integer rule takes numpy integers too; JSON writes only int.
    payload: dict = {"schema": SCHEMA, "kind": s.kind, "name": s.name}
    if s.kind == "bell_diagonal":
        payload["bell"] = {"d": int(s.bell.d), "probs": [float(p) for p in s.bell.probs]}
    else:
        payload["dims"] = [int(s.dim_a), int(s.dim_b)]
    payload["selectors"] = {"input": SELECTOR, "output": SELECTOR}
    if s.ensemble is not None:
        payload["ensemble"] = [_member_payload(p, state) for p, state in s.ensemble.members]
    if s.steps:
        payload["protocol"] = [
            {
                "party": step.party,
                "instrument": _row_payload(step, 0) if step.labels[0] else None,
                "overrides": {
                    ",".join(history): _row_payload(step, row) for row, history in enumerate(step.histories, 1)
                },
            }
            for step in s.steps
        ]
    if s.random is not None:
        payload["random"] = {
            "n_members": list(s.random.n_members),
            "protocol_depth": list(s.random.protocol_depth),
            "instrument_family": INSTRUMENT_FAMILY,
        }
    return payload


def dump_scenario(scenario: Scenario) -> str:
    """Canonical JSON text; byte-stable for identical in-memory values."""
    return json.dumps(_canonical_payload(scenario), sort_keys=True, indent=2) + "\n"


def load_scenario(path) -> Scenario:
    """Parse a scenario file, addressing errors by field (or line on bad JSON).

    An object that repeats a key is rejected, naming the file, the object's
    field path and the key; ``json.loads`` alone would keep the last value.
    Every failure to decode the file is a ScenarioError that names it:
    bytes that are not UTF-8, a syntax error (with its line and column),
    arrays or objects nested deeper than the decoder recurses, and any
    other value the decoder refuses, such as an integer literal longer
    than Python's digit limit.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8: {exc}") from None
    try:
        data = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ScenarioError(f"{path}: invalid JSON: nested too deeply") from None
    except ValueError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from None
    return parse_scenario(data, source=str(path))


def _haar_unitaries(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """(count, dim, dim) Haar unitaries; unitary h draws its real then its
    imaginary part, so the stream is that of ``count`` draws one by one."""
    g = rng.standard_normal((count, 2, dim, dim))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag)).conj()[:, None, :]


def _int_range(value, name: str, minimum: int) -> tuple[int, int]:
    """An int or a (low, high) pair of ints, none a bool (as ``_as_int``
    reads them), as a nonempty range starting at ``minimum`` or above.
    ``name`` is a ``random_scenario`` parameter or a file's field path."""
    pair = tuple(value) if isinstance(value, (tuple, list)) else (value, value)
    if len(pair) != 2 or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair):
        raise ScenarioError(f"{name}: expected an integer or a (low, high) pair of integers, got {value!r}")
    lo, hi = pair
    if lo > hi:
        raise ScenarioError(f"{name}: empty range [{lo}, {hi}]")
    if lo < minimum:
        raise ScenarioError(f"{name} must be >= {minimum}, got {lo}")
    return lo, hi


def random_scenario(seed: int, n_members=(2, 4), protocol_depth=(1, 3), name: str | None = None) -> Scenario:
    """Deterministic random protocol scenario for the given seed.

    Members are Haar-like random pure two-qubit states with a random
    probability simplex point; each round gets a uniformly random acting
    party and an independent random projective basis per outcome history
    (the adaptive case). The typed scenario is built from the drawn arrays
    directly, each level's bases from one stacked draw; the constructors
    still check norms, probability sums, and the orthonormality and
    completeness of each basis.
    """
    members_lo, members_hi = _int_range(n_members, "n_members", _RANGE_MINIMA["n_members"])
    depth_lo, depth_hi = _int_range(protocol_depth, "protocol_depth", _RANGE_MINIMA["protocol_depth"])

    rng = np.random.default_rng(seed)
    n = int(rng.integers(members_lo, members_hi + 1))
    depth = int(rng.integers(depth_lo, depth_hi + 1))
    probs = rng.dirichlet(np.ones(n))

    members = []
    for i in range(n):
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        members.append((float(probs[i]), pure_state_density(vec, *RANDOM_DIMS)))

    steps = []
    histories = [()]
    for level in range(depth):
        party = "A" if rng.integers(2) == 0 else "B"
        # Basis kets are the rows of U^T; every history has its own basis.
        kets = np.ascontiguousarray(_haar_unitaries(len(histories), 2, rng).swapaxes(1, 2))
        projectors, labels = _projective_stack(party, kets, [None] * len(histories))
        if level == 0:
            # The first step's one history, the empty one, takes the default.
            default = _checked_instrument(party, labels[0], projectors[0], kets[0])
            step = ProtocolStep._stacked(party, default, projectors[:0], [], [], [])
        else:
            step = ProtocolStep._stacked(party, None, projectors, labels, kets, histories)
        steps.append(step)
        histories = [history + (label,) for history, names in zip(histories, labels) for label in names]

    ensemble = BipartiteEnsemble(tuple(members))
    return Scenario(name=name or f"random-{seed}", ensemble=ensemble, steps=steps, bell=None, random=None)


def materialize_random(scenario: Scenario, seed: int, trial: int = 0) -> Scenario:
    """Concrete scenario for one trial of a random-kind scenario."""
    if scenario.random is None:
        raise ValueError("materialize_random needs a random-kind scenario")
    spec = scenario.random
    return random_scenario(
        seed + trial,
        n_members=spec.n_members,
        protocol_depth=spec.protocol_depth,
        name=f"{scenario.name}-trial{trial}",
    )


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package."""
    path = Path(__file__).parent / "scenarios" / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled scenario {name!r}")
    return path
