"""In-memory span tracer that instruments jcsim at its module boundaries.

The tracer never edits the package: it replaces module attributes (the
names a caller looks up at call time) with wrappers that record a span per
call, and puts the originals back afterwards.  Spans stay in memory and are
written out once, when the run ends.
"""

import functools
import json
import time
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from importlib import import_module

__all__ = ["Span", "Tracer", "self_times", "layer_metrics", "PER_LAYER"]


@dataclass
class Span:
    """One call across a traced boundary; ``parent`` indexes the caller's span."""

    name: str
    start: float
    end: float
    parent: int | None
    work: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# (module, attribute, span name, work counter).  The attribute is the name
# the calling module looks up, so a function imported into
# ``jcsim.harness.experiments`` is wrapped there, and a function the package
# calls inside its own module is wrapped in that module.  A target missing
# from the package (renamed or removed) is skipped and its metrics read 0.
SPAN_TARGETS = (
    ("jcsim.harness.experiments", "realize_scenario", "harness.scenario.realize_scenario", None),
    ("jcsim.harness.experiments", "estimate_all", "estimation.estimate_all", None),
    ("jcsim.harness.experiments", "lmmse_matrices", "estimation.lmmse_matrices", None),
    ("jcsim.estimation", "lmmse_matrices", "estimation.lmmse_matrices", None),
    ("jcsim.harness.experiments", "zfr_beam", "beamform.zfr_beam", None),
    ("jcsim.harness.experiments", "build_rate_coefficients", "rate.build_rate_coefficients", None),
    ("jcsim.rate", "interference_matrix", "rate.interference_matrix", None),
    ("jcsim.harness.experiments", "max_min_allocate", "poweralloc.max_min_allocate", None),
    ("jcsim.poweralloc", "feasibility", "poweralloc.feasibility",
     lambda args, result: float(result is not None)),
    ("jcsim.poweralloc", "linprog", "poweralloc.linprog", None),
    ("jcsim.harness.experiments", "calibrate_threshold", "radar.calibrate_threshold", None),
    ("jcsim.harness.experiments", "simulate_peak_statistics",
     "harness.experiments.simulate_peak_statistics", lambda args, result: float(result.size)),
    ("jcsim.harness.experiments", "statistic_map_from_correlation",
     "radar.statistic_map_from_correlation",
     lambda args, result: float(args[0].size // (args[0].shape[-2] * args[0].shape[-1]))),
    ("jcsim.harness.experiments", "draw_channel_batch", "validation.draw_channel_batch", None),
    ("jcsim.harness.experiments", "estimate_batch", "validation.estimate_batch", None),
)

# Cheap, frequent calls are counted without a span.
COUNT_TARGETS = (
    ("jcsim.rate", "hbar_matrix", "channel.hbar_matrix"),
    ("jcsim.estimation", "hbar_matrix", "channel.hbar_matrix"),
)

# Every per-layer metric the traced run prints, with its unit.  Times and
# counts are per scenario realized; ``share`` is inclusive layer time over
# the time of the traced driver calls.
PER_LAYER = {
    "poweralloc.max_min_allocate.s": "s",
    "poweralloc.max_min_allocate.calls": "count",
    "poweralloc.max_min_allocate.share": "ratio",
    "poweralloc.feasibility.calls": "count",
    "poweralloc.feasibility.feasible_frac": "ratio",
    "poweralloc.linprog.calls": "count",
    "poweralloc.linprog.s": "s",
    "poweralloc.linprog.retries": "count",
    "rate.build_rate_coefficients.s": "s",
    "rate.build_rate_coefficients.share": "ratio",
    "rate.interference_matrix.s": "s",
    "channel.hbar_matrix.calls": "count",
    "estimation.lmmse_matrices.s": "s",
    "estimation.lmmse_matrices.calls": "count",
    "estimation.estimate_all.s": "s",
    "estimation.estimate_all.share": "ratio",
    "beamform.zfr_beam.s": "s",
    "harness.scenario.realize_scenario.s": "s",
    "radar.statistic_map_from_correlation.s": "s",
    "radar.statistic_map_from_correlation.calls": "count",
    "radar.statistic_map_from_correlation.maps": "count",
    "radar.statistic_map_from_correlation.share": "ratio",
    "radar.calibrate_threshold.s": "s",
    "harness.experiments.simulate_peak_statistics.s": "s",
    "harness.experiments.simulate_peak_statistics.self_s": "s",
    "harness.experiments.simulate_peak_statistics.trials": "count",
    "harness.experiments.pd_trial_frac": "ratio",
    "validation.draw_channel_batch.s": "s",
    "validation.estimate_batch.s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Collects spans and call counts of one run; all share ``run_id``."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name, fn, work=None):
        """``fn`` recording one span per call; ``work(args, result)`` sets its work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if work is not None:
                span.work = work(args, result)
            return result

        return traced

    def counted(self, name, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counting

    @contextmanager
    def installed(self):
        """Swap every available target for its wrapper; restore on exit."""
        wrappers = [(m, a, lambda fn, n=n, w=w: self.wrap(n, fn, w)) for m, a, n, w in SPAN_TARGETS]
        wrappers += [(m, a, lambda fn, n=n: self.counted(n, fn)) for m, a, n in COUNT_TARGETS]
        saved = []
        try:
            for module_name, attr, make in wrappers:
                try:
                    module = import_module(module_name)
                except ModuleNotFoundError:
                    continue
                if hasattr(module, attr):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, make(getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON line, tagged with the run id."""
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                record = {"run_id": self.run_id, "id": index, **asdict(span)}
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], counts: dict, n_scenarios: int, root_s: float) -> dict:
    """Per-layer values of PER_LAYER (all but the tracing overhead).

    ``root_s`` is the traced time of the driver calls the spans belong to.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        if span.work is not None:
            work[span.name] = work.get(span.name, 0.0) + span.work

    linprog_per_feasibility: dict[int, int] = {}
    h1_trials = 0.0
    for index, span in enumerate(spans):
        if span.name == "poweralloc.linprog" and span.parent is not None:
            linprog_per_feasibility[span.parent] = linprog_per_feasibility.get(span.parent, 0) + 1
        if span.name == "harness.experiments.simulate_peak_statistics" and not _has_ancestor(
            spans, index, "radar.calibrate_threshold"
        ):
            h1_trials += span.work or 0.0
    retries = sum(max(n - 1, 0) for n in linprog_per_feasibility.values())

    def frac(num, den):
        return num / den if den else 0.0

    out = {}
    for metric in PER_LAYER:
        layer, _, quantity = metric.rpartition(".")
        if quantity == "s":
            out[metric] = total.get(layer, 0.0) / n_scenarios
        elif quantity == "calls":
            out[metric] = (counts.get(layer, 0) + calls.get(layer, 0)) / n_scenarios
        elif quantity == "share":
            out[metric] = total.get(layer, 0.0) / root_s
    sim = "harness.experiments.simulate_peak_statistics"
    out["poweralloc.feasibility.feasible_frac"] = frac(
        work.get("poweralloc.feasibility", 0.0), calls.get("poweralloc.feasibility", 0)
    )
    out["poweralloc.linprog.retries"] = retries / n_scenarios
    out["radar.statistic_map_from_correlation.maps"] = (
        work.get("radar.statistic_map_from_correlation", 0.0) / n_scenarios
    )
    out[f"{sim}.self_s"] = self_s.get(sim, 0.0) / n_scenarios
    out[f"{sim}.trials"] = work.get(sim, 0.0) / n_scenarios
    out["harness.experiments.pd_trial_frac"] = frac(h1_trials, work.get(sim, 0.0))
    return out
