"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each rdcss module from outside the
package, on every module namespace where a caller looks the function up
(``rdcss.cli`` imports ``simulate`` by name, so its wrapper goes on
``rdcss.cli`` as well as on ``rdcss.randomization``).  Each span records a
name, start, end, parent span and request id; spans stay in memory and are
written out once the run ends.

Per-element helpers are not wrapped and their time counts toward their
caller: ``bitlin.reduce_vector``, ``bitlin.apply_rows``,
``bitlin.is_independent`` (the search calls it for every candidate),
``randomization.effect_variance`` and the ``Effect`` constructor.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = (
    "bitlin",
    "gf2",
    "geometry",
    "spreads",
    "collineation",
    "existence",
    "randomization",
    "fractional",
)
CLI_FUNCTIONS = ("main", "verification_payload")
UNWRAPPED = frozenset({
    "bitlin.reduce_vector",
    "bitlin.apply_rows",
    "bitlin.is_independent",
    "randomization.effect_variance",
})
SPREAD_BUILDS = ("spreads.cyclic_spread", "spreads.partial_spread", "spreads.mixed_spread")
REQUEST_SPAN = "bench.request"


def _members_built(counters: Counter, spread) -> None:
    counters["spreads.members_built"] += len(spread.members)


def _subspace_built(counters: Counter, _subspace) -> None:
    counters["geometry.subspaces_built"] += 1


def _candidates(counters: Counter, result) -> None:
    counters["collineation.candidates_tried"] += result.candidates_tried


def _feasible(counters: Counter, tally) -> None:
    counters["collineation.feasible"] += tally.feasible
    counters["collineation.feasible_base"] += tally.total


def _words(counters: Counter, subgroup) -> None:
    counters["fractional.words_enumerated"] += len(subgroup.words)


def _reps(counters: Counter, estimates) -> None:
    counters["randomization.reps"] += estimates.shape[0]


# Work counts taken from return values at the same boundary as the span.
COUNTERS = {
    "spreads.cyclic_spread": _members_built,
    "spreads.partial_spread": _members_built,
    "spreads.mixed_spread": _members_built,
    "geometry.span": _subspace_built,
    "geometry.subspace_from_points": _subspace_built,
    "collineation.find_collineation": _candidates,
    "collineation.count_feasible": _feasible,
    "fractional.defining_subgroup": _words,
    "randomization.simulate": _reps,
}


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread, so children nest inside their parent and never
    overlap each other: the covered time is the sum of the child durations.
    A parent of -1 marks a root span.
    """
    start = np.asarray(start, dtype=np.int64)
    duration = np.asarray(end, dtype=np.int64) - start
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(duration) + 1, dtype=np.int64)
    np.add.at(covered, parent + 1, duration)
    return duration - covered[1:]


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        self.counters: Counter = Counter()
        self.request_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        self._request_name = self._name_id(REQUEST_SPAN)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.request.append(self.request_id)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.end[idx] = time.perf_counter_ns()

    def begin_request(self, request_id: int) -> int:
        self.request_id = request_id
        return self.open(self._request_name)

    def end_request(self, idx: int) -> None:
        """Close the request's span and any span a deadline signal left open.

        The signal can also land inside ``open``, between its appends; the
        half-recorded span is then dropped.
        """
        columns = (self.start, self.end, self.parent, self.name, self.request)
        complete = min(len(c) for c in columns)
        for column in columns:
            del column[complete:]
        now = time.perf_counter_ns()
        for i in range(idx, complete):
            if self.end[i] == 0:
                self.end[i] = now
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        count = COUNTERS.get(name)
        call = fn
        if inspect.isgeneratorfunction(fn):
            # A generator's work happens while its caller iterates; draining it
            # inside the span charges that work to the generator's layer.
            def call(*args, **kwargs):
                return iter(list(fn(*args, **kwargs)))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = call(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counters, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public rdcss function on each namespace that holds it."""
        if not self._patches:
            wrappers: dict[int, object] = {}
            for layer in LAYERS + ("cli",):
                module = sys.modules[f"rdcss.{layer}"]
                names = CLI_FUNCTIONS if layer == "cli" else module.__all__
                for attr in names:
                    fn = getattr(module, attr)
                    qualified = f"{layer}.{attr}"
                    if (
                        inspect.isfunction(fn)
                        and fn.__module__ == module.__name__
                        and qualified not in UNWRAPPED
                    ):
                        wrappers[id(fn)] = self.wrap(qualified, fn)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "rdcss" and not mod_name.startswith("rdcss."):
                    continue
                for attr, value in vars(module).items():
                    if id(value) in wrappers:
                        self._patches.append((module, attr, value, wrappers[id(value)]))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
        )

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name."""
        own = self_times(self.start, self.end, self.parent)
        names = np.frombuffer(self.name, dtype=np.int64)
        size = len(self.names)
        self_s = np.bincount(names, weights=own, minlength=size) / 1e9
        calls = np.bincount(names, minlength=size)
        return (
            {n: float(self_s[i]) for i, n in enumerate(self.names)},
            {n: int(calls[i]) for i, n in enumerate(self.names)},
        )


def per_layer_metrics(
    tracer: Tracer, bytes_written: int, overhead_ratio: float
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, as (value, unit) pairs."""
    self_s, calls = tracer.layer_totals()
    c = tracer.counters

    def module_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    def module_calls(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(prefix + "."))

    base = c["collineation.feasible_base"]
    return {
        "collineation.find_collineation.self_s": (self_s.get("collineation.find_collineation", 0.0), "s"),
        "collineation.find_collineation.calls": (calls.get("collineation.find_collineation", 0), "count"),
        "collineation.candidates_tried": (c["collineation.candidates_tried"], "count"),
        "collineation.apply_to_spread.self_s": (self_s.get("collineation.apply_to_spread", 0.0), "s"),
        "collineation.count_feasible.self_s": (self_s.get("collineation.count_feasible", 0.0), "s"),
        "collineation.feasible_ratio": (c["collineation.feasible"] / base if base else 0.0, "ratio"),
        "collineation.feasible_base": (base, "count"),
        "cli.verification_payload.self_s": (self_s.get("cli.verification_payload", 0.0), "s"),
        "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "randomization.simulate.self_s": (self_s.get("randomization.simulate", 0.0), "s"),
        "randomization.reps": (c["randomization.reps"], "count"),
        "randomization.variance_groups.self_s": (self_s.get("randomization.variance_groups", 0.0), "s"),
        "randomization.halfnormal_emit.self_s": (self_s.get("randomization.halfnormal_emit", 0.0), "s"),
        "randomization.check_lemma1.self_s": (self_s.get("randomization.check_lemma1", 0.0), "s"),
        "spreads.build.self_s": (sum(self_s.get(n, 0.0) for n in SPREAD_BUILDS), "s"),
        "spreads.members_built": (c["spreads.members_built"], "count"),
        "geometry.self_s": (module_self("geometry"), "s"),
        "geometry.subspaces_built": (c["geometry.subspaces_built"], "count"),
        "gf2.self_s": (module_self("gf2"), "s"),
        "bitlin.self_s": (module_self("bitlin"), "s"),
        "bitlin.calls": (module_calls("bitlin"), "count"),
        "fractional.self_s": (module_self("fractional"), "s"),
        "fractional.words_enumerated": (c["fractional.words_enumerated"], "count"),
        "existence.self_s": (module_self("existence"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
