"""Outside-in instrumentation of the coopfusion library.

Nothing here edits the library: both instruments replace public module or
class attributes with timing wrappers and put the originals back on
``uninstall``.

``TickProbe`` is the end-to-end probe.  It times one fused tick from the
start of the first ``LocalFusion.step`` of the tick to the return of
``GlobalFusion.step`` and counts completed ticks.  It stays installed for
every measured run; its cost is two clock reads per platform per tick.  It
can also time fixed calibration work between ticks, which tracks how fast
the shared machine runs at that moment.

``Tracer`` is for the separate traced run.  It wraps one public function per
layer, keeps spans (name, start, end, parent, tick) in memory, and derives
counters from call arguments, return values and public attributes only.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np


def _resolve(module: str, attr: str):
    """(owner, name, value) for a dotted attribute of a module, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    if not callable(value):
        return None
    return owner, name, value


class Calibrator:
    """Fixed work that tracks how fast the shared machine runs at the moment.

    Fusion ticks mix two kinds of work that a busy neighbour slows by
    different amounts: small numpy products and scalar math on hot data,
    and pointer chasing through a heap of Python objects larger than the
    caches.  A sample times a fixed piece of each, and its speed index is
    the geometric mean of the two times.  The code is the benchmark's own,
    so a change to the library cannot move it.
    """

    HEAP_OBJECTS = 20_000
    HEAP_VISITS = 2_000

    def __init__(self):
        rng = random.Random(3)
        self._matrix = np.full((5, 5), 0.1) + 0.4 * np.eye(5)
        self._heap = [
            SimpleNamespace(x=float(i), hist=[float(i % 7)] * 6, meta={"src": str(i % 13)})
            for i in range(self.HEAP_OBJECTS)
        ]
        self._order = [rng.randrange(self.HEAP_OBJECTS) for _ in range(self.HEAP_VISITS)]

    def _compute(self) -> float:
        total = 0.0
        for i in range(300):
            product = self._matrix @ self._matrix
            total += math.sqrt(float(product[i % 5, (3 * i) % 5])) + math.exp(-0.5 * (i % 7))
        return total

    def _chase(self) -> float:
        total = 0.0
        for index in self._order:
            item = self._heap[index]
            total += item.x * 1e-6 + sum(item.hist) + len(item.meta["src"])
        return total

    def sample(self) -> float:
        """Speed index in seconds: lower means a faster machine right now."""
        start = time.perf_counter()
        self._compute()
        middle = time.perf_counter()
        self._chase()
        end = time.perf_counter()
        return math.sqrt((middle - start) * (end - middle))


class TickProbe:
    """Per-tick fusion latency at the two tier entry points.

    With ``calibrate_every`` set, a Calibrator sample is taken after a tick
    whenever that many seconds have passed since the last one; the speed
    indexes go to ``calibrations`` and the time spent to ``calibration_s``,
    outside every tick's latency.
    """

    def __init__(self, calibrate_every: float | None = None):
        self.latencies: list[float] = []
        self.completed = 0
        self.calibrate_every = calibrate_every
        self.calibrator = Calibrator() if calibrate_every is not None else None
        self.calibrations: list[float] = []
        self.calibration_s = 0.0
        self._last_calibration = -math.inf
        self._start: float | None = None
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        local = _resolve("coopfusion.local_fusion", "LocalFusion.step")
        rsu = _resolve("coopfusion.global_fusion", "GlobalFusion.step")
        if local is None or rsu is None:
            raise RuntimeError("LocalFusion.step / GlobalFusion.step not found; cannot time ticks")
        probe = self
        local_owner, local_name, local_step = local
        rsu_owner, rsu_name, rsu_step = rsu

        @functools.wraps(local_step)
        def local_wrapper(*args, **kwargs):
            if probe._start is None:
                probe._start = time.perf_counter()
            return local_step(*args, **kwargs)

        @functools.wraps(rsu_step)
        def rsu_wrapper(*args, **kwargs):
            result = rsu_step(*args, **kwargs)
            end = time.perf_counter()
            if probe._start is not None:
                probe.latencies.append(end - probe._start)
            probe._start = None
            probe.completed += 1
            if probe.calibrate_every is not None and end - probe._last_calibration >= probe.calibrate_every:
                probe._calibrate()
            return result

        self._restore = [(local_owner, local_name, local_step), (rsu_owner, rsu_name, rsu_step)]
        setattr(local_owner, local_name, local_wrapper)
        setattr(rsu_owner, rsu_name, rsu_wrapper)

    def _calibrate(self) -> None:
        start = time.perf_counter()
        self.calibrations.append(self.calibrator.sample())
        end = time.perf_counter()
        self.calibration_s += end - start
        self._last_calibration = end

    def new_run(self) -> None:
        """Forget a tick left open by a run that raised."""
        self._start = None

    def uninstall(self) -> None:
        for owner, name, original in self._restore:
            setattr(owner, name, original)
        self._restore = []


@dataclass(frozen=True)
class Target:
    """One wrapped layer entry point.

    ``span`` may contain ``{tier}``, filled with the tier of the enclosing
    fusion step; ``tier`` marks the two step targets that set it.
    """

    module: str
    attr: str
    span: str
    tier: str | None = None


# Each tier's own reference is wrapped where the tier module imported it, so
# the local and global calls of one shared function get separate spans.
TARGETS = (
    Target("coopfusion.simulator", "Simulation.tick", "simulator.tick"),
    Target("coopfusion.local_fusion", "LocalFusion.step", "local_fusion.step", tier="local"),
    Target("coopfusion.global_fusion", "GlobalFusion.step", "global_fusion.step", tier="global"),
    Target("coopfusion.evaluation", "packetize", "global_fusion.packetize"),
    Target("coopfusion.local_fusion", "observation_estimate", "error_models.observation_estimate"),
    Target("coopfusion.local_fusion", "ctrv_predict", "tracking.predict.local"),
    Target("coopfusion.global_fusion", "ctrv_predict", "tracking.predict.global"),
    Target("coopfusion.local_fusion", "associate_frame", "association.lifecycle.local"),
    Target("coopfusion.global_fusion", "associate_frame", "association.lifecycle.global"),
    Target("coopfusion.association", "jpda_weights", "association.jpda_weights.{tier}"),
    Target("coopfusion.association", "multi_update", "tracking.multi_update.{tier}"),
    Target("coopfusion.tracking", "ekf_update", "tracking.ekf_update.{tier}"),
    Target("coopfusion.evaluation", "match_observations_to_truth", "calibration.match"),
)

ROOT_SPAN = "evaluation"
TIERS = ("local", "global")


class Tracer:
    """Span recorder plus outside-in counters for the traced run."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        # (name, start, end, parent index, tick id); parent -1 marks a root.
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._tier = ""
        self._tick = 0
        self._tick_open = False
        self._restore: list[tuple[object, str, object]] = []
        self._fusion_state: dict[int, dict] = {}
        self._missing: list[str] = []

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        hooks = {
            "simulator.tick": (self._open_tick, None),
            "local_fusion.step": (self._local_before, self._fusion_after),
            "global_fusion.step": (self._fusion_before, self._fusion_after),
            "global_fusion.packetize": (None, self._packetize_after),
            "association.jpda_weights.{tier}": (None, self._jpda_after),
            "tracking.multi_update.{tier}": (None, self._multi_update_after),
            "tracking.ekf_update.{tier}": (None, self._ekf_after),
        }
        self._missing = []
        for target in self.targets:
            found = _resolve(target.module, target.attr)
            if found is None:
                self._missing.append(f"{target.module}.{target.attr}")
                continue
            owner, name, original = found
            before, after = hooks.get(target.span, (None, None))
            setattr(owner, name, self._wrap(original, target, before, after))
            self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    def _wrap(self, fn: Callable, target: Target, before, after) -> Callable:
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        templated = "{" in target.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            saved_tier = tracer._tier
            if target.tier is not None:
                tracer._tier = target.tier
            name = target.span.format(tier=tracer._tier) if templated else target.span
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            exc = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer._tick)
                tracer._tier = saved_tier
                if after is not None:
                    after(args, result, exc, token, name)
                if target.tier == "global" and exc is None:
                    tracer._tick_open = False

        return wrapper

    # --- roots and ticks -------------------------------------------------

    @contextlib.contextmanager
    def root(self):
        """One root span around one public library call."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._tick_open = False
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (ROOT_SPAN, start, end, -1, self._tick)
            self.end_root()

    def _open_tick(self, args):
        if not self._tick_open:
            self._tick += 1
            self._tick_open = True

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # --- counters from arguments, results and public attributes ----------

    def _local_before(self, args):
        self._open_tick(args)
        return self._fusion_before(args)

    def _fusion_before(self, args):
        fusion = args[0]
        return {track.id for track in getattr(fusion, "tracks", ())}

    def _fusion_after(self, args, result, exc, before_ids, name):
        fusion = args[0]
        tier = "local" if name.startswith("local") else "global"
        tracks = list(getattr(fusion, "tracks", ()))
        # Holding the instance keeps its id unique until the root ends.
        state = self._fusion_state.setdefault(id(fusion), {"fusion": fusion, "pending": set()})
        ids = {track.id for track in tracks}
        spawned = ids - before_ids
        state["pending"] |= spawned
        self._count(f"association.spawned.{tier}", len(spawned))
        confirmed = {track.id for track in tracks if getattr(track, "confirmed", False)}
        newly = state["pending"] & confirmed
        state["pending"] -= newly
        self._count(f"association.spawn_confirmed.{tier}", len(newly))
        self._count(f"{name}.tracks_held", len(tracks))
        if tier == "global":
            state["rejected"] = getattr(fusion, "late_packets", 0) + getattr(
                fusion, "duplicate_packets", 0
            )

    def _packetize_after(self, args, result, exc, token, name):
        if result is not None:
            self._count("global_fusion.packet_tracks", len(getattr(result, "tracks", ())))

    def _jpda_after(self, args, result, exc, token, name):
        tier = name.rsplit(".", 1)[1]
        n, m = len(args[0]), len(args[1])
        self._count(f"association.pairs.{tier}", n * m)
        if result is not None:
            self._count(f"association.gated_pairs.{tier}", int((result.weights > 0.0).sum()))

    def _multi_update_after(self, args, result, exc, token, name):
        tier = name.rsplit(".", 1)[1]
        self._count(f"tracking.measurements.{tier}", len(args[1]))

    def _ekf_after(self, args, result, exc, token, name):
        if exc is not None and type(exc).__name__ == "NumericalError":
            self._count(f"tracking.ekf_update_failed.{name.rsplit('.', 1)[1]}")

    def end_root(self) -> None:
        """Fold per-instance state of the finished root into the totals."""
        for state in self._fusion_state.values():
            self._count("global_fusion.rejected_packets", state.get("rejected", 0))
        self._fusion_state = {}
        self._tick_open = False

    # --- results ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own = (end - start) - child[index]
            entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "min_self": own})
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += own
            entry["min_self"] = min(entry["min_self"], own)
        return out

    def absent_layers(self) -> list[str]:
        """Targets not found, or found but never called."""
        called = {name for name, *_ in self.spans}
        absent = list(self._missing)
        for target in self.targets:
            key = f"{target.module}.{target.attr}"
            if key in absent:
                continue
            names = {target.span.format(tier=t) for t in TIERS} | {target.span}
            if not names & called:
                absent.append(key)
        return absent

    def write(self, path: Path) -> None:
        """Write every span as tab-separated text, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write("index\tname\tstart_s\tend_s\tparent\ttick\n")
            for index, (name, start, end, parent, tick) in enumerate(self.spans):
                handle.write(
                    f"{index}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\t{tick}\n"
                )
