"""CLI ops, untraced and traced, and the per-layer metrics they give.

The traced op is the same ``locclab.cli.main`` call as an untraced op, so
the layers run in the order the CLI calls them. For its duration every
reference to a layer function held by a locclab module is replaced by a
wrapper that records a span, which also catches calls made inside a layer,
such as ``chain_mutual_information`` from ``bound_suite`` and
``audit_rounds``. A layer the program no longer calls records no span and
reports zero.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

import numpy.linalg

import checks
from tracing import LinalgCounter, Tracer

# (defining module, function, span name); each per-layer time metric is a
# span name plus "_s".
LAYER_FUNCTIONS = (
    ("locclab.scenario", "load_scenario", "scenario.load"),
    ("locclab.scenario", "materialize_random", "scenario.materialize"),
    ("locclab.protocol", "run_protocol", "protocol.run_protocol"),
    ("locclab.protocol", "chain_mutual_information", "protocol.chain_mi"),
    ("locclab.protocol", "bound_suite", "protocol.bound_suite"),
    ("locclab.protocol", "audit_rounds", "protocol.audit_rounds"),
    ("locclab.distillation", "bell_diagonal", "distillation.bell_diagonal"),
    ("locclab.distillation", "distillation_report", "distillation.report"),
)
LAYERS = tuple(span for _, _, span in LAYER_FUNCTIONS)
ROOT_SPAN = "cli.main"


def run_cli(cli, op: dict) -> tuple[float, object, str]:
    """One CLI op: (seconds, exit code or failure text, captured stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(op["argv"])
    except SystemExit as exc:
        code = f"exited with {exc.code!r}"
    except Exception as exc:  # a raising op is a failed op, never dropped
        traceback.print_exc()
        code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def _capturing(fn, store: list):
    """``fn`` that also keeps (chooser, transcript) of each call."""
    signature = inspect.signature(fn)

    def captured(*args, **kwargs):
        transcript = fn(*args, **kwargs)
        store.append((signature.bind(*args, **kwargs).arguments["chooser"], transcript))
        return transcript

    return captured


@contextmanager
def spans_installed(tracer, transcripts: list):
    """Span every layer call made from any locclab module; keep transcripts."""
    replaced = []
    modules = [m for name, m in list(sys.modules.items()) if name == "locclab" or name.startswith("locclab.")]
    for module_name, attr, span in LAYER_FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        inner = _capturing(original, transcripts) if attr == "run_protocol" else original
        wrapper = tracer.wrap(inner, span)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                replaced.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


def tree_counts(chooser, transcript) -> tuple[int, int, int]:
    """(nodes, outcomes attempted, outcomes pruned) of a transcript."""
    nodes = attempted = pruned = 0
    stack = [transcript.root]
    while stack:
        node = stack.pop()
        nodes += 1
        if len(node.path) < transcript.depth:
            outcomes = len(chooser(node.path).outcomes)
            attempted += outcomes
            pruned += outcomes - len(node.children)
        stack.extend(node.children)
    return nodes, attempted, pruned


def check_oracle(transcript, golden: dict) -> str | None:
    """I_locc of the golden report against the flat joint-distribution oracle."""
    expected = golden["trials"][0]["i_locc"]
    oracle = checks.flat_mutual_information(transcript)
    if abs(oracle - expected) > checks.TOL:
        return f"flat oracle I_locc {oracle!r} differs from report {expected!r}"
    return None


class LayerProfile:
    """Traced and untraced runs of the same ops, and their per-layer metrics.

    ``count`` runs a traced op with numpy.linalg wrapped, for exact call
    counts; ``pair`` runs an op untraced and then traced, for times. Every
    op's (op, exit code, stdout, transcripts) is kept in ``results``. With a
    ``sampler`` (reference.SpeedSampler, entered around the pairs), op and
    span times are nominal seconds, without the sampler's own time.
    """

    def __init__(self, cli, sampler=None):
        self.cli = cli
        self.sampler = sampler
        self.scales: list[float] = []
        self.tracer = Tracer()
        self.counter = LinalgCounter()
        self.counted = self.nodes = self.outcomes = self.pruned = 0
        self.untraced: list[float] = []
        self.results: list[tuple] = []

    def _traced(self, tracer, op) -> None:
        transcripts = []
        with spans_installed(tracer, transcripts), tracer.span(ROOT_SPAN):
            _, code, text = run_cli(self.cli, op)
        self.results.append((op, code, text, transcripts))

    def count(self, op) -> None:
        with self.counter.installed(numpy.linalg):
            self._traced(Tracer(), op)
        self.counted += 1
        for chooser, transcript in self.results[-1][3]:
            n, a, p = tree_counts(chooser, transcript)
            self.nodes, self.outcomes, self.pruned = self.nodes + n, self.outcomes + a, self.pruned + p

    def _nominal(self, start: float, end: float, scale: float) -> float:
        busy = self.sampler.busy(start, end) if self.sampler else 0.0
        return (end - start - busy) * scale

    def _scale(self, start: float, end: float) -> float:
        return self.sampler.scale(start, end) if self.sampler else 1.0

    def pair(self, op) -> float:
        """Wall seconds the untraced and the traced op took together."""
        start = time.perf_counter()
        _, code, text = run_cli(self.cli, op)
        middle = time.perf_counter()
        self.results.append((op, code, text, []))
        self.untraced.append(self._nominal(start, middle, self._scale(start, middle)))
        self.tracer.op = len(self.untraced) - 1
        self._traced(self.tracer, op)
        end = time.perf_counter()
        self.scales.append(self._scale(middle, end))
        return end - start

    def failures(self, golden: dict) -> list[str]:
        reasons = checks.count_failures([r[:3] for r in self.results], golden)
        for op, _, _, transcripts in self.results:
            expected = golden.get(op["key"])
            for _, transcript in transcripts if expected is not None else ():
                reason = check_oracle(transcript, expected)
                if reason is not None:
                    reasons.append(f"{op['key']}: {reason}")
        return reasons

    def metrics(self) -> dict[str, float]:
        """Per-op medians of each layer's self time, counts per counted op,
        the CLI's own time outside the layers, and the tracing overhead."""
        spans = self.tracer.spans
        origin = self.tracer.origin

        def duration(s) -> float:
            return self._nominal(origin + s["start"], origin + s["end"], self.scales[s["op"]])

        root = {s["op"]: duration(s) for s in spans if s["parent"] is None}
        layer_sum = dict.fromkeys(root, 0.0)
        for s in spans:
            if s["parent"] is not None and spans[s["parent"]]["parent"] is None:
                layer_sum[s["op"]] += duration(s)
        self_times = self.tracer.self_times(duration)
        ops = sorted(root)
        out = {f"{layer}_s": statistics.median(self_times[i].get(layer, 0.0) for i in ops) for layer in LAYERS}
        counted = max(self.counted, 1)
        out["protocol.tree_nodes"] = self.nodes / counted
        out["protocol.pruned_frac"] = self.pruned / self.outcomes if self.outcomes else 0.0
        for name, calls in self.counter.calls.items():
            out[f"linalg.{name}_calls"] = calls / counted
        out["linalg.eig_s"] = self.counter.seconds / counted
        untraced_p50 = statistics.median(self.untraced)
        out["cli.residual_s"] = statistics.median(self.untraced[i] - layer_sum[i] for i in ops)
        out["trace.overhead_s"] = statistics.median(root.values()) - untraced_p50
        accounted = sum(out[f"{layer}_s"] for layer in LAYERS) + out["cli.residual_s"]
        out["trace.unaccounted_s"] = untraced_p50 - accounted
        out["untraced_latency_p50_s"] = untraced_p50
        return out
