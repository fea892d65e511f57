"""Scenario files: parsing, canonical serialization, seeded generation.

A scenario is a JSON object describing one of four kinds of input:

``ensemble``       members only; protocols see it as a depth-zero tree.
``protocol``       members plus ordered measurement steps, optionally
                   adaptive through per-history instrument overrides.
``bell_diagonal``  local dimension and weights over the generalized Bell
                   basis.
``random``         generator parameters for seeded random ensembles and
                   projective protocols.

Complex numbers are serialized as [re, im] pairs, matrices as row-major
nested arrays. Only ``parse_scenario`` and ``dump_scenario`` know this wire
format: parsing is strict and errors carry the offending field path, and
``random_scenario`` builds its typed ``Scenario`` straight from the arrays
it draws. A projective instrument keeps the kets it was built from, and
the dump writes them back; any other instrument is dumped as its Kraus
operators.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distillation import BellDiagonalSpec
from .entropy import BipartiteEnsemble, MEASURES, MEASURE_AUTO
from .linalg import DensityOperator, pure_state_density, validate_density
from .protocol import KrausInstrument

SCHEMA = "locclab/scenario-v1"
KINDS = ("ensemble", "protocol", "bell_diagonal", "random")
# The one generator family of random scenarios.
INSTRUMENT_FAMILY = "projective-random-basis"
_INF = float("inf")


class ScenarioError(ValueError):
    """Malformed scenario content; message names the offending field."""


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    number = float(value)
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


@dataclass(frozen=True)
class ProtocolStep:
    """One protocol round: default instrument plus per-history overrides."""

    party: str
    instrument: KrausInstrument | None
    overrides: dict[str, KrausInstrument]

    def for_history(self, history: tuple[str, ...]) -> KrausInstrument:
        instrument = self.overrides.get(",".join(history), self.instrument)
        if instrument is None:
            raise KeyError(history)
        return instrument


@dataclass(frozen=True)
class RandomSpec:
    """Generator parameters for seeded random scenarios."""

    n_members: tuple[int, int]
    protocol_depth: tuple[int, int]


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario; ``dump_scenario`` gives its canonical JSON form."""

    kind: str
    name: str
    dim_a: int
    dim_b: int
    selector_in: str
    selector_out: str
    tolerance: float | None
    ensemble: BipartiteEnsemble | None
    steps: tuple[ProtocolStep, ...]
    bell: BellDiagonalSpec | None
    random: RandomSpec | None

    def chooser(self, history: tuple[str, ...]) -> KrausInstrument:
        if len(history) >= len(self.steps):
            raise KeyError(history)
        return self.steps[len(history)].for_history(history)

    @property
    def depth(self) -> int:
        return len(self.steps)


def _parse_instrument(value, party: str, path: str) -> KrausInstrument:
    obj = _as_dict(value, path)
    labels = None
    if "labels" in obj:
        labels = [_as_str(x, f"{path}.labels[{i}]") for i, x in enumerate(_as_list(obj["labels"], f"{path}.labels"))]
        for i, label in enumerate(labels):
            if "," in label:
                _fail(f"{path}.labels[{i}]", "labels must not contain commas (reserved for history keys)")
    try:
        if "projective" in obj:
            kets = [
                _as_vector(v, f"{path}.projective[{i}]")
                for i, v in enumerate(_as_list(obj["projective"], f"{path}.projective"))
            ]
            return KrausInstrument.projective(party, np.vstack(kets), labels=labels)
        if "kraus" in obj:
            ops = [
                _as_matrix(m, f"{path}.kraus[{i}]")
                for i, m in enumerate(_as_list(obj["kraus"], f"{path}.kraus"))
            ]
            if labels is None:
                labels = [str(i) for i in range(len(ops))]
            if len(labels) != len(ops):
                _fail(f"{path}.labels", f"{len(labels)} labels for {len(ops)} operators")
            return KrausInstrument(party=party, outcomes=tuple(zip(labels, ops)))
    except ScenarioError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))
    _fail(path, "instrument needs a 'projective' basis or a 'kraus' operator list")


def _instrument_payload(instrument: KrausInstrument) -> dict:
    labels = [label for label, _ in instrument.outcomes]
    if instrument.kets is not None:
        return {"labels": labels, "projective": _to_pairs(instrument.kets)}
    return {"labels": labels, "kraus": [_to_pairs(op) for _, op in instrument.outcomes]}


def _check_history_key(key: str, steps: list[ProtocolStep], path: str) -> None:
    """Reject an override key that no outcome history can reach.

    The key of step i lists i comma-separated labels, each an outcome of
    the instrument that the labels before it select. Only the key's own
    prefixes are walked, never the whole tree.
    """
    labels = key.split(",") if steps else []
    if ",".join(labels) != key:
        _fail(path, f"step 1 is reached only by the empty history, got key {key!r}")
    if len(labels) != len(steps):
        _fail(path, f"history key needs {len(steps)} labels, got {len(labels)} in {key!r}")
    for i, label in enumerate(labels):
        prefix = tuple(labels[:i])
        try:
            outcomes = [name for name, _ in steps[i].for_history(prefix).outcomes]
        except KeyError:
            _fail(path, f"no instrument at step {i + 1} for history {','.join(prefix)!r}")
        if label not in outcomes:
            _fail(
                path,
                f"label {label!r} is not an outcome of step {i + 1} after history "
                f"{','.join(prefix)!r} (outcomes {outcomes}); no history reaches {key!r}",
            )


def _parse_members(value, dims: tuple[int, int], path: str) -> BipartiteEnsemble:
    items = _as_list(value, path)
    if not items:
        _fail(path, "ensemble is empty")
    members: list[tuple[float, DensityOperator]] = []
    for i, item in enumerate(items):
        obj = _as_dict(item, f"{path}[{i}]")
        p = _as_number(_get(obj, "probability", f"{path}[{i}]"), f"{path}[{i}].probability")
        try:
            if "vector" in obj:
                state = pure_state_density(
                    _as_vector(obj["vector"], f"{path}[{i}].vector"), dims[0], dims[1]
                )
            elif "matrix" in obj:
                state = validate_density(
                    _as_matrix(obj["matrix"], f"{path}[{i}].matrix"), dims[0], dims[1]
                )
            else:
                _fail(f"{path}[{i}]", "member needs a 'vector' or a 'matrix'")
        except ScenarioError:
            raise
        except ValueError as exc:
            _fail(f"{path}[{i}]", str(exc))
        members.append((p, state))
    try:
        return BipartiteEnsemble(tuple(members))
    except ValueError as exc:
        _fail(path, str(exc))


def _member_payload(p: float, state: DensityOperator) -> dict:
    return {"probability": float(p), "matrix": _to_pairs(state.matrix)}


def _parse_range(value, path: str, minimum: int) -> tuple[int, int]:
    if isinstance(value, int) and not isinstance(value, bool):
        lo = hi = value
    else:
        pair = _as_list(value, path)
        if len(pair) != 2:
            _fail(path, "expected an integer or a [low, high] pair")
        lo = _as_int(pair[0], f"{path}[0]")
        hi = _as_int(pair[1], f"{path}[1]")
    if lo > hi:
        _fail(path, f"empty range [{lo}, {hi}]")
    if lo < minimum:
        _fail(path, f"value {lo} below minimum {minimum}")
    return lo, hi


def parse_scenario(data: dict, source: str = "scenario") -> Scenario:
    """Validate a scenario object and build the typed view."""
    obj = _as_dict(data, source)
    kind = _as_str(_get(obj, "kind", source), f"{source}.kind")
    if kind not in KINDS:
        _fail(f"{source}.kind", f"unknown kind {kind!r}; expected one of {KINDS}")
    name = _as_str(obj.get("name", "unnamed"), f"{source}.name")

    bell = None
    if kind == "bell_diagonal":
        bell_obj = _as_dict(_get(obj, "bell", source), f"{source}.bell")
        d = _as_int(_get(bell_obj, "d", f"{source}.bell"), f"{source}.bell.d")
        probs = [
            _as_number(x, f"{source}.bell.probs[{i}]")
            for i, x in enumerate(_as_list(_get(bell_obj, "probs", f"{source}.bell"), f"{source}.bell.probs"))
        ]
        try:
            bell = BellDiagonalSpec(d=d, probs=tuple(probs))
        except ValueError as exc:
            _fail(f"{source}.bell", str(exc))
        dim_a = dim_b = d
    else:
        dims_raw = _as_list(_get(obj, "dims", source), f"{source}.dims")
        if len(dims_raw) != 2:
            _fail(f"{source}.dims", f"expected [dim_a, dim_b], got {len(dims_raw)} items")
        dim_a = _as_int(dims_raw[0], f"{source}.dims[0]")
        dim_b = _as_int(dims_raw[1], f"{source}.dims[1]")
        if dim_a < 1 or dim_b < 1:
            _fail(f"{source}.dims", f"dimensions must be positive, got [{dim_a}, {dim_b}]")

    selectors = _as_dict(obj.get("selectors", {}), f"{source}.selectors")
    selector_in = _as_str(selectors.get("input", MEASURE_AUTO), f"{source}.selectors.input")
    selector_out = _as_str(selectors.get("output", MEASURE_AUTO), f"{source}.selectors.output")
    for label, value in (("input", selector_in), ("output", selector_out)):
        if value not in MEASURES:
            _fail(f"{source}.selectors.{label}", f"unknown selector {value!r}; expected one of {MEASURES}")

    tolerance = None
    if "tolerance" in obj:
        tolerance = _as_number(obj["tolerance"], f"{source}.tolerance")
        if tolerance <= 0:
            _fail(f"{source}.tolerance", f"tolerance must be positive, got {tolerance}")

    ensemble = None
    if kind in ("ensemble", "protocol"):
        ensemble = _parse_members(_get(obj, "ensemble", source), (dim_a, dim_b), f"{source}.ensemble")

    steps: list[ProtocolStep] = []
    if kind == "protocol":
        steps_raw = _as_list(_get(obj, "protocol", source), f"{source}.protocol")
        if not steps_raw:
            _fail(f"{source}.protocol", "protocol needs at least one step")
        for i, step_raw in enumerate(steps_raw):
            step_path = f"{source}.protocol[{i}]"
            step_obj = _as_dict(step_raw, step_path)
            party = _as_str(_get(step_obj, "party", step_path), f"{step_path}.party")
            if party not in ("A", "B"):
                _fail(f"{step_path}.party", f"party must be 'A' or 'B', got {party!r}")
            default = None
            if step_obj.get("instrument") is not None:
                default = _parse_instrument(step_obj["instrument"], party, f"{step_path}.instrument")
            overrides = {}
            for key, value in _as_dict(step_obj.get("overrides", {}), f"{step_path}.overrides").items():
                key_path = f"{step_path}.overrides[{key!r}]"
                _check_history_key(key, steps, key_path)
                overrides[key] = _parse_instrument(value, party, key_path)
            if default is None and not overrides:
                _fail(step_path, "step needs an 'instrument' or nonempty 'overrides'")
            steps.append(ProtocolStep(party=party, instrument=default, overrides=overrides))

    random_spec = None
    if kind == "random":
        rnd = _as_dict(_get(obj, "random", source), f"{source}.random")
        n_members = _parse_range(_get(rnd, "n_members", f"{source}.random"), f"{source}.random.n_members", 1)
        depth = _parse_range(
            _get(rnd, "protocol_depth", f"{source}.random"), f"{source}.random.protocol_depth", 0
        )
        family = _as_str(rnd.get("instrument_family", INSTRUMENT_FAMILY), f"{source}.random.instrument_family")
        if family != INSTRUMENT_FAMILY:
            _fail(f"{source}.random.instrument_family", f"unknown family {family!r}")
        if (dim_a, dim_b) != (2, 2):
            _fail(
                f"{source}.dims",
                f"random scenarios support dims [2, 2] only (output entanglement is "
                f"unavailable for mixed states in {dim_a}x{dim_b})",
            )
        random_spec = RandomSpec(n_members=n_members, protocol_depth=depth)

    return Scenario(
        kind=kind,
        name=name,
        dim_a=dim_a,
        dim_b=dim_b,
        selector_in=selector_in,
        selector_out=selector_out,
        tolerance=tolerance,
        ensemble=ensemble,
        steps=tuple(steps),
        bell=bell,
        random=random_spec,
    )


def _canonical_payload(s: Scenario) -> dict:
    payload: dict = {"schema": SCHEMA, "kind": s.kind, "name": s.name}
    if s.kind == "bell_diagonal":
        payload["bell"] = {"d": s.bell.d, "probs": [float(p) for p in s.bell.probs]}
    else:
        payload["dims"] = [s.dim_a, s.dim_b]
    payload["selectors"] = {"input": s.selector_in, "output": s.selector_out}
    if s.tolerance is not None:
        payload["tolerance"] = float(s.tolerance)
    if s.ensemble is not None:
        payload["ensemble"] = [_member_payload(p, state) for p, state in s.ensemble.members]
    if s.steps:
        payload["protocol"] = [
            {
                "party": step.party,
                "instrument": None if step.instrument is None else _instrument_payload(step.instrument),
                "overrides": {
                    key: _instrument_payload(instr) for key, instr in sorted(step.overrides.items())
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
    """Parse a scenario file, addressing errors by field (or line on bad JSON)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return parse_scenario(data, source=str(path))


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()


def random_scenario(seed: int, n_members=(2, 4), protocol_depth=(1, 3), name: str | None = None) -> Scenario:
    """Deterministic random protocol scenario for the given seed.

    Members are Haar-like random pure two-qubit states with a random
    probability simplex point; each round gets a uniformly random acting
    party and an independent random projective basis per outcome history
    (the adaptive case). The typed scenario is built from the drawn arrays
    directly; the constructors still check norms, probability sums and
    the orthonormality of each basis.
    """
    members_lo, members_hi = (n_members, n_members) if isinstance(n_members, int) else tuple(n_members)
    depth_lo, depth_hi = (
        (protocol_depth, protocol_depth) if isinstance(protocol_depth, int) else tuple(protocol_depth)
    )
    if members_lo < 1:
        raise ValueError(f"n_members must be >= 1, got {members_lo}")
    if depth_lo < 0:
        raise ValueError(f"protocol_depth must be >= 0, got {depth_lo}")

    rng = np.random.default_rng(seed)
    n = int(rng.integers(members_lo, members_hi + 1))
    depth = int(rng.integers(depth_lo, depth_hi + 1))
    probs = rng.dirichlet(np.ones(n))

    members = []
    for i in range(n):
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        members.append((float(probs[i]), pure_state_density(vec, 2, 2)))

    steps = []
    labels = ("0", "1")
    for level in range(depth):
        party = "A" if rng.integers(2) == 0 else "B"
        instruments = {
            ",".join(history): KrausInstrument.projective(party, _haar_unitary(2, rng).T, labels)
            for history in itertools.product(labels, repeat=level)
        }
        steps.append(ProtocolStep(party=party, instrument=instruments.pop("", None), overrides=instruments))

    return Scenario(
        kind="protocol" if depth > 0 else "ensemble",
        name=name or f"random-{seed}",
        dim_a=2,
        dim_b=2,
        selector_in=MEASURE_AUTO,
        selector_out=MEASURE_AUTO,
        tolerance=None,
        ensemble=BipartiteEnsemble(tuple(members)),
        steps=tuple(steps),
        bell=None,
        random=None,
    )


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
