"""Spans around the calls into each layer's public functions.

The tracer is installed only in a traced run (``--trace 1``).  It replaces a
fixed list of public functions and methods with wrappers that record a span
``(name, start, end, parent)`` per call, keep per-name call counts, total time
and self time (a span's duration minus the part its child spans cover), and
hand the result to an optional hook that extracts counts such as A*
expansions.  Spans stay in memory, up to a cap, and are written out when the
run ends; the per-name aggregates are exact whatever the cap.

Coroutine functions are timed from call to completion but never become a
parent: other tasks run while they are suspended, so a sync stack cannot
attribute those tasks' spans to them.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

#: Spans kept in memory; calls beyond it still count in the aggregates.
SPAN_CAP = 200_000

#: Layer of each traced name's prefix (the module the wrapped code lives in).
LAYERS = (
    "service",
    "registry",
    "search",
    "fit",
    "adaptive",
    "features",
    "model",
    "batch",
    "cost",
    "online",
    "engine",
    "shard",
    "shm",
)


class Tracer:
    """Installs span-recording wrappers and aggregates what they see."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object, object]] = []
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.reset()

    def reset(self) -> None:
        """Start a new phase: clear aggregates, counters and samples."""
        #: name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.models: dict[int, tuple] = {}
        self.epoch_seconds: dict[int, float] = {}

    # -- installation ------------------------------------------------------------

    def wrap(self, owner, attribute: str, name: str, hook=None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = vars(owner)[attribute]
        wrapper = (
            self._async_wrapper(name, original, hook)
            if inspect.iscoroutinefunction(original)
            else self._sync_wrapper(name, original, hook)
        )
        self._patches.append((owner, attribute, original, wrapper))

    def install(self) -> None:
        for owner, attribute, _original, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _wrapper in reversed(self._patches):
            setattr(owner, attribute, original)

    def _record(self, name, start, end, child, parent) -> None:
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child
        if len(self.spans) < SPAN_CAP:
            self.spans.append((name, start, end, parent))
        else:
            self.dropped += 1

    def _sync_wrapper(self, name, function, hook):
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                tracer._record(name, start, end, frame[0], parent)
            if hook is not None:
                hook(tracer, result, args, end - start)
            return result

        return wrapper

    def _async_wrapper(self, name, function, hook):
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            start = clock()
            result = await function(*args, **kwargs)
            end = clock()
            tracer._record(name, start, end, 0.0, parent)
            if hook is not None:
                hook(tracer, result, args, end - start)
            return result

        return wrapper

    # -- read-out ----------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def mean(self, name: str, scale: float) -> float:
        """Mean duration per call of *name*, times *scale* (0 when never called)."""
        entry = self.stats.get(name)
        if not entry or not entry[0]:
            return 0.0
        return entry[1] / entry[0] * scale

    def total(self, name: str) -> float:
        entry = self.stats.get(name)
        return entry[1] if entry else 0.0

    def self_ms_by_layer(self) -> dict[str, float]:
        """Self time (ms) per layer, summed over the layer's traced names."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, entry in self.stats.items():
            totals[name.split(".", 1)[0]] += entry[2] * 1e3
        return totals

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines (plus a trailer with the drop count)."""
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")
            handle.write(json.dumps({"dropped": self.dropped}) + "\n")


# -- hooks: counts read off the traced calls' results ----------------------------


def _solve_hook(tracer, result, args, elapsed):
    if result is not None:
        tracer.counts["search.expansions"] += result[1].expansions


def _fit_hook(tracer, result, args, elapsed):
    tracer.counts["fit.examples"] += len(args[1])


def _retrain_hook(tracer, result, args, elapsed):
    tracer.counts["adaptive.expansions"] += result[1].total_expansions
    tracer.samples["adaptive.retrain_ms"].append(elapsed * 1e3)


def _decide_hook(tracer, result, args, elapsed):
    model = args[0]
    if id(model) not in tracer.models:
        # The baseline is read after the model's first traced decision, so a
        # fallback or guard in that one decision is not counted.
        stats = model.stats
        tracer.models[id(model)] = (model, stats.fallbacks, stats.guard_activations)


def _schedule_hook(tracer, result, args, elapsed):
    tracer.counts["batch.decisions"] += result.decisions


def _submit_hook(tracer, result, args, elapsed):
    tracer.counts["online.arrivals"] += len(result.arrivals)
    for query_id in result.arrivals:
        tracer.epoch_seconds[query_id] = elapsed


def _pack_hook(tracer, result, args, elapsed):
    tracer.counts["shm.bytes_shipped"] += result.nbytes


def build_tracer() -> Tracer:
    """A tracer over the public entry points of every layer the benchmark drives."""
    from repro.adaptive.retraining import AdaptiveModeler
    from repro.core.cost_model import CostModel
    from repro.learning import shm
    from repro.learning.decision_tree import DecisionTreeClassifier
    from repro.learning.features import FeatureExtractor
    from repro.learning.model import DecisionModel
    from repro.learning.trainer import SampleSolver
    from repro.runtime import batch as batch_module
    from repro.runtime.batch import BatchScheduler, RuntimeSchedulingContext
    from repro.runtime.online import OnlineScheduler, OnlineSession
    from repro.service.registry import ModelRegistry
    from repro.service.service import WiSeDBService
    from repro.serving.engine import ServingEngine
    from repro.serving.sharded import ShardedServingEngine

    tracer = Tracer()
    wrap = tracer.wrap
    wrap(WiSeDBService, "train", "service.train")
    wrap(WiSeDBService, "schedule_batch", "service.schedule_batch")
    wrap(WiSeDBService, "run_online", "service.run_online")
    wrap(ModelRegistry, "put", "registry.put")
    wrap(ModelRegistry, "record_outcome", "registry.history")
    # ``__call__`` is an alias bound at class creation: the backends call it.
    wrap(SampleSolver, "solve", "search.solve", _solve_hook)
    wrap(SampleSolver, "__call__", "search.solve", _solve_hook)
    wrap(DecisionTreeClassifier, "fit", "fit.tree", _fit_hook)
    wrap(AdaptiveModeler, "retrain", "adaptive.retrain", _retrain_hook)
    wrap(FeatureExtractor, "extract_into", "features.extract_into")
    wrap(DecisionModel, "decide", "model.decide", _decide_hook)
    wrap(BatchScheduler, "schedule_detailed", "batch.schedule", _schedule_hook)
    wrap(RuntimeSchedulingContext, "placement_cost_row", "batch.cost_row")
    wrap(CostModel, "breakdown", "cost.price")
    # Batch outcomes are priced through the name batch.py imported.
    wrap(batch_module, "simulated_outcome", "cost.price")
    wrap(OnlineSession, "submit", "online.submit", _submit_hook)
    wrap(OnlineScheduler, "run", "online.run")
    wrap(ServingEngine, "submit", "engine.submit")
    wrap(ShardedServingEngine, "submit", "shard.router_submit")
    wrap(shm, "pack_evaluator", "shm.publish", _pack_hook)
    return tracer
