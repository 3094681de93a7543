"""In-memory spans around the program's public functions.

The benchmark wraps each function under the module attribute its caller
looks it up by (for example `povmcert.fidelity.maximize_given_povm_batch`,
the name `sample_fidelity_curve` resolves at call time), so spans mark
layer boundaries without any change to the program.  A span records its
name, start, end, parent and a few counts taken from the call's
arguments and result.  A wrapped name that the program no longer has is
reported as absent.
"""
from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent, attrs=dict(attrs))
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module_name: str, attr: str, span_name: str, counts=None) -> None:
        """Replace module.attr by a spanning wrapper.

        counts(arguments, result) returns a dict of attributes for the
        span, from the call's arguments by parameter name (defaults
        applied) and its result; it only reads public fields, and a call
        whose fields moved is marked rather than failing the run.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            if f"{module_name}.{attr}" not in self.absent:
                self.absent.append(f"{module_name}.{attr}")
            return
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            with self.span(span_name) as record:
                result = original(*args, **kwargs)
            if counts is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record.attrs.update(counts(bound.arguments, result))
                except (AttributeError, KeyError, IndexError, TypeError) as exc:
                    record.attrs["counts_error"] = f"{type(exc).__name__}: {exc}"
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_seconds(self, index: int) -> float:
        """Span duration minus the time its direct children cover."""
        return self.spans[index].seconds - sum(s.seconds for s in self.spans if s.parent == index)

    def to_json(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "attrs": s.attrs,
                }
                for s in self.spans
            ],
        }


# ------------------------------------------------------------ povmcert layers


def _bound_counts(arguments, result) -> dict:
    d = result.diagnostics
    if "restarts" in d:
        rows = d["restarts"]
    elif "restarts_per_assignment" in d:
        rows = d["restarts_per_assignment"] * len(d["zero_assignment_values"])
    elif "restarts_per_pair" in d:
        rows = d["restarts_per_pair"] * len(d["pair_values"])
    else:
        rows = 0
    return {
        "kind": result.kind,
        "heuristic": bool(result.heuristic),
        "iterations": d.get("iterations", 0),
        "converged": bool(d.get("converged", False)),
        "rows": rows,
        "witness": d.get("witness"),
        "k": result.k,
    }


def _fixed_povm_counts(arguments, result) -> dict:
    return {"witness": arguments["spec"].name, "rows": int(arguments["weights"].shape[0]) * int(arguments["restarts"])}


def _sampling_counts(arguments, result) -> dict:
    return {"outcomes": arguments["outcomes"], "count": result.count, "attempts": result.attempts}


def _curve_counts(arguments, result) -> dict:
    points, envelope = result
    return {
        "witness": arguments["spec"].name,
        "samples": int(arguments["n_samples"]),
        "problems": int(arguments["n_samples"]) * len(arguments["target"].relabel_classes),
        "points": len(points),
        "bins": len(envelope.bins),
    }


def _sweep_counts(arguments, result) -> dict:
    return {"family": arguments["family"], "kind": arguments["bound_kind"], "points": len(result)}


def _mc_counts(arguments, result) -> dict:
    return {"witness": arguments["spec"].name, "runs": int(arguments["runs"])}


# (module the caller looks the name up in, attribute, span name, counts)
WRAPS = (
    ("povmcert.cli", "seesaw_maximize", "optimize.seesaw_maximize", _bound_counts),
    ("povmcert.cli", "three_outcome_max", "optimize.three_outcome_max", _bound_counts),
    ("povmcert.robustness", "three_outcome_max", "optimize.three_outcome_max", _bound_counts),
    ("povmcert.cli", "projective_bound", "optimize.projective_bound", _bound_counts),
    ("povmcert.robustness", "projective_bound", "optimize.projective_bound", _bound_counts),
    ("povmcert.cli", "projective_bound_numeric", "optimize.projective_bound_numeric", _bound_counts),
    ("povmcert.optimize", "projective_bound_numeric", "optimize.projective_bound_numeric", _bound_counts),
    ("povmcert.fidelity", "maximize_given_povm_batch", "optimize.maximize_given_povm_batch", _fixed_povm_counts),
    ("povmcert.optimize", "random_extremal_povms", "sampling.random_extremal_povms", _sampling_counts),
    ("povmcert.fidelity", "random_extremal_povms", "sampling.random_extremal_povms", _sampling_counts),
    ("povmcert.cli", "sample_fidelity_curve", "fidelity.sample_fidelity_curve", _curve_counts),
    ("povmcert.fidelity", "envelope_from_points", "fidelity.envelope_from_points", None),
    ("povmcert.cli", "visibility_curve", "robustness.visibility_curve", _sweep_counts),
    ("povmcert.cli", "simulate_counts", "experiment.simulate_counts", None),
    ("povmcert.cli", "counts_from_csv", "experiment.counts_from_csv", None),
    ("povmcert.cli", "ingest_counts", "experiment.ingest_counts", None),
    ("povmcert.cli", "monte_carlo_systematic", "experiment.monte_carlo_systematic", _mc_counts),
    ("povmcert.cli", "certify", "experiment.certify", None),
)

SEESAW_SPANS = ("optimize.seesaw_maximize", "optimize.three_outcome_max", "optimize.projective_bound_numeric")

# name, unit, better; the same list as BENCHMARK.json's per_layer
PER_LAYER = (
    ("optimize.seesaw_s", "s", "lower"),
    ("optimize.three_outcome_s", "s", "lower"),
    ("optimize.projective_numeric_s", "s", "lower"),
    ("optimize.projective_closed_s", "s", "lower"),
    ("optimize.iterations", "count", "lower"),
    ("optimize.row_iterations", "count", "lower"),
    ("optimize.ms_per_iteration", "ms", "lower"),
    ("optimize.converged_calls", "count", "higher"),
    ("optimize.fixed_povm_s", "s", "lower"),
    ("optimize.fixed_povm_rows", "count", "lower"),
    ("fidelity.rotation_s", "s", "lower"),
    ("fidelity.rotation_problems", "count", "lower"),
    ("fidelity.envelope_s", "s", "lower"),
    ("fidelity.points", "count", "higher"),
    ("fidelity.bins", "count", "higher"),
    ("sampling.extremal_s", "s", "lower"),
    ("sampling.povms", "count", "lower"),
    ("sampling.acceptance", "ratio", "higher"),
    ("robustness.k_point_s", "s", "lower"),
    ("experiment.simulate_s", "s", "lower"),
    ("experiment.ingest_s", "s", "lower"),
    ("experiment.mc_s", "s", "lower"),
    ("experiment.mc_runs_per_s", "1/s", "higher"),
    ("experiment.certify_s", "s", "lower"),
    ("cli.overhead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def install(tracer: Tracer) -> None:
    for module_name, attr, span_name, counts in WRAPS:
        tracer.wrap(module_name, attr, span_name, counts)


def layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer figures of the spans tracer.spans[lo:hi] (one pass).

    Times are inclusive of nested spans (the see-saw's extremal draws sit
    inside it) except where a self time is named.  A layer the pass never
    entered reads 0.
    """
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in range(lo, hi):
        by_name[tracer.spans[i].name].append(i)

    def spans(name):
        return [tracer.spans[i] for i in by_name[name]]

    def seconds(name):
        return sum(s.seconds for s in spans(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans(name))

    seesaw = [s for name in SEESAW_SPANS for s in spans(name)]
    seesaw_s = sum(s.seconds for s in seesaw)
    iterations = sum(s.attrs.get("iterations", 0) for s in seesaw)
    drawn = attr_sum("sampling.random_extremal_povms", "count")
    attempts = attr_sum("sampling.random_extremal_povms", "attempts")
    k_points = attr_sum("robustness.visibility_curve", "points")
    mc_s = seconds("experiment.monte_carlo_systematic")
    commands = [i for i in range(lo, hi) if tracer.spans[i].name.startswith("cli.")]
    return {
        "optimize.seesaw_s": seconds("optimize.seesaw_maximize"),
        "optimize.three_outcome_s": seconds("optimize.three_outcome_max"),
        "optimize.projective_numeric_s": seconds("optimize.projective_bound_numeric"),
        "optimize.projective_closed_s": sum(
            s.seconds for s in spans("optimize.projective_bound") if s.attrs.get("heuristic") is False
        ),
        "optimize.iterations": iterations,
        "optimize.row_iterations": sum(s.attrs.get("iterations", 0) * s.attrs.get("rows", 0) for s in seesaw),
        "optimize.ms_per_iteration": 1000.0 * seesaw_s / iterations if iterations else 0.0,
        "optimize.converged_calls": sum(1 for s in seesaw if s.attrs.get("converged")),
        "optimize.fixed_povm_s": seconds("optimize.maximize_given_povm_batch"),
        "optimize.fixed_povm_rows": attr_sum("optimize.maximize_given_povm_batch", "rows"),
        "fidelity.rotation_s": sum(tracer.self_seconds(i) for i in by_name["fidelity.sample_fidelity_curve"]),
        "fidelity.rotation_problems": attr_sum("fidelity.sample_fidelity_curve", "problems"),
        "fidelity.envelope_s": seconds("fidelity.envelope_from_points"),
        "fidelity.points": attr_sum("fidelity.sample_fidelity_curve", "points"),
        "fidelity.bins": attr_sum("fidelity.sample_fidelity_curve", "bins"),
        "sampling.extremal_s": seconds("sampling.random_extremal_povms"),
        "sampling.povms": drawn,
        "sampling.acceptance": drawn / attempts if attempts else 0.0,
        "robustness.k_point_s": seconds("robustness.visibility_curve") / k_points if k_points else 0.0,
        "experiment.simulate_s": seconds("experiment.simulate_counts"),
        "experiment.ingest_s": seconds("experiment.counts_from_csv") + seconds("experiment.ingest_counts"),
        "experiment.mc_s": mc_s,
        "experiment.mc_runs_per_s": attr_sum("experiment.monte_carlo_systematic", "runs") / mc_s if mc_s else 0.0,
        "experiment.certify_s": seconds("experiment.certify"),
        "cli.overhead_s": sum(tracer.self_seconds(i) for i in commands),
    }
