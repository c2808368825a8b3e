"""Per-layer tracing from outside the program, for the traced run only.

:class:`Tracer` wraps the entry points each layer receives calls on
(functions and methods of ``repro``) and restores them on
:meth:`Tracer.uninstall`.  Every wrapper keeps a stack of child time, so
a span's *self time* is its duration minus its wrapped children's.

Two kinds of wrapper:

- *coarse* wrappers (request, sweep, cell, phases, cell cache, render,
  obs sinks) record each span — name, start, end, parent — in memory;
- *hot* wrappers (the per-event calls into the engine, core, SRAM walk,
  arrays, MSC, policies and DRAM) fold their spans into per-(target,
  phase) aggregates, since a single pass makes millions of them.

A phase wrapper (trace synthesis, build, warm, run, collect, manifest)
also sets the current phase; time spent under the synth, build, warm,
collect and manifest phases belongs to that phase's layer whatever code
runs there, and per-event layers count only what runs under ``run``.

:func:`sampled_shares` maps a :class:`repro.obs.profiler.Profile` taken
during the same traced pass onto the same layers by module path, so the
wrappers' distortion shows beside the traced shares.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

#: Phase -> the layer that owns all time spent under it.
PHASE_LAYERS = {
    "synth": "workloads",
    "build": "build",
    "warm": "warm",
    "collect": "metrics",
    "manifest": "obs",
}

#: Layers reported in the share cross-check, in report order.
SHARE_LAYERS = ("workloads", "build", "warm", "engine", "cpu_core",
                "cache_hierarchy", "cache", "msc", "policies", "mem",
                "metrics", "experiments", "obs", "other")

#: Record at most this many coarse spans (the replay loop makes ~20 per
#: request); aggregates stay complete beyond it.
MAX_SPANS = 200_000

# (module, qualified attribute, layer, phase): coarse wrappers.
_COARSE = (
    ("repro.backends.python_backend", "PythonBackend._build_trace",
     "workloads", "synth"),
    ("repro.hierarchy.system", "build_system", "build", "build"),
    ("repro.experiments.common", "warm_system", "warm", "warm"),
    ("repro.hierarchy.system", "System.run", "engine", "run"),
    ("repro.metrics.stats", "collect_result", "metrics", "collect"),
    ("repro.obs.manifest", "build_manifest", "obs", "manifest"),
    ("repro.api", "run_experiment", "experiments", None),
    ("repro.experiments.exec", "execute_cells", "experiments", None),
    ("repro.experiments.exec", "MixCell.execute", "experiments", None),
    ("repro.experiments.cellcache", "cell_key", "experiments", None),
    ("repro.experiments.cellcache", "CellCache.get", "experiments", None),
    ("repro.experiments.cellcache", "CellCache.get_result", "experiments",
     None),
    ("repro.experiments.cellcache", "decode_result", "experiments", None),
    ("repro.experiments.cellcache", "CellCache.put_result", "experiments",
     None),
    ("repro.experiments.cellcache", "CellCache.put_failure", "experiments",
     None),
    ("repro.experiments.exec", "_observe_cell", "obs", None),
    ("repro.obs.spans", "emit_span", "obs", None),
    ("repro.obs.metrics", "MetricFamily.labels", "obs", None),
    ("repro.obs.metrics", "Counter.inc", "obs", None),
    ("repro.obs.metrics", "Histogram.observe", "obs", None),
)

# (module, class, layer, method names or None for every method but the
# excluded helpers): hot wrappers.
_HOT = (
    ("repro.engine.event_queue", "Simulator", "engine",
     ("run", "schedule", "at")),
    ("repro.hierarchy.cpu_core", "TraceCore", "cpu_core",
     ("start", "_run", "_load_fill", "_store_fill", "_schedule_wake",
      "_maybe_finish")),
    ("repro.hierarchy.cache_hierarchy", "CacheHierarchy", "cache_hierarchy",
     ("load", "store", "_access", "_request_line", "_line_arrived",
      "_fill_l1", "_fill_l2", "_fill_l3", "_train_prefetch", "_pf_done")),
    ("repro.hierarchy.cache_hierarchy", "StridePrefetcher", "cache_hierarchy",
     ("observe",)),
    ("repro.cache.sram_cache", "SRAMCache", "cache", None),
    ("repro.cache.sectored", "SectoredCacheArray", "cache", None),
    ("repro.cache.alloy", "AlloyCacheArray", "cache", None),
    ("repro.cache.tag_cache", "TagCache", "cache", None),
    ("repro.cache.dbc", "DirtyBitCache", "cache", None),
    ("repro.cache.footprint", "FootprintPredictor", "cache", None),
    ("repro.hierarchy.msc_base", "MscController", "msc", None),
    ("repro.hierarchy.msc_alloy", "AlloyHitPredictor", "msc", None),
    ("repro.policies.base", "SteeringPolicy", "policies", None),
    ("repro.core.dap_sectored", "DapSectored", "policies", None),
    ("repro.core.dap_alloy", "DapAlloy", "policies", None),
    ("repro.core.dap_edram", "DapEdram", "policies", None),
    ("repro.mem.device", "MemoryDevice", "mem", ("enqueue",)),
    ("repro.mem.channel", "DramChannel", "mem",
     ("enqueue", "_kick", "_select_queue", "_pick_request", "_after_refresh",
      "_dispatch", "_complete_next")),
)

#: Classes whose subclasses are wrapped too (controllers, policies).
_WITH_SUBCLASSES = {"MscController", "SteeringPolicy"}

#: Methods never wrapped: set-up, warmup (the warm phase covers it),
#: reporting accessors and one-line address helpers.
_EXCLUDED = {
    "__init__", "__len__", "__repr__", "bind", "describe", "describe_params",
    "result_extras", "credit_state", "served_hit_rate", "mm_cas_fraction",
    "hit_rate", "read_hit_rate", "miss_rate", "reads", "writes",
    "resident_lines", "resident_sectors", "disabled_sets", "sector_present",
    "set_index", "_set_index", "sector_of", "block_of", "group_of", "_bit",
    "_find", "_lines_of", "_index", "accesses", "hits", "misses",
}

#: Calls that install an entry in a cache-layer structure
#: (``cache.fills``), and the controller calls that install a block in
#: the MSC array, on a read-miss fill or a write (``msc.fills``).
FILL_TARGETS = {
    "SRAMCache.fill", "SRAMCache.fill_pair", "SectoredCacheArray.fill_block",
    "SectoredCacheArray.allocate_sector", "AlloyCacheArray.fill",
    "TagCache.fill", "DirtyBitCache.fill_group",
}
MSC_FILL_TARGETS = {"SectoredMscController._install_block",
                    "EdramMscController._install_block",
                    "AlloyMscController._fill"}

#: Module-path prefixes -> layer, first match wins; a trailing dot
#: matches a package, none a module name prefix (``msc_*``).
_MODULE_LAYERS = (
    ("repro.hierarchy.cpu_core", "cpu_core"),
    ("repro.hierarchy.cache_hierarchy", "cache_hierarchy"),
    ("repro.hierarchy.msc_", "msc"),
    ("repro.hierarchy.system", "engine"),
    ("repro.engine.", "engine"),
    ("repro.cache.", "cache"),
    ("repro.policies.", "policies"),
    ("repro.core.", "policies"),
    ("repro.mem.", "mem"),
    ("repro.workloads.", "workloads"),
    ("repro.backends.", "workloads"),
    ("repro.metrics.", "metrics"),
    ("repro.experiments.", "experiments"),
    ("repro.api", "experiments"),
    ("repro.obs.", "obs"),
)


def layer_of_module(name: str) -> str:
    """The benchmark's layer for a ``repro`` module, by module path."""
    for prefix, layer in _MODULE_LAYERS:
        if name == prefix.rstrip(".") or name.startswith(prefix):
            return layer
    return "other"


def _symbol(fn) -> str:
    """The profiler's ``module-stem.qualname`` symbol for a function."""
    code = fn.__code__
    return f"{Path(code.co_filename).stem}.{code.co_qualname}"


def _subclasses(cls) -> list:
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


class Tracer:
    """Wraps repro's layer entry points; see the module docstring."""

    def __init__(self) -> None:
        self.stack = [0.0]        # child-time accumulators, root first
        self.open = [-1]          # recorded-span ids, root first
        self.phase = "exec"
        self.spans: list = []     # (name, start, end, parent id)
        #: (layer, target) -> {phase: [calls, inclusive s, self s]}
        self.acc: dict = {}
        self.warm_lines = 0
        self.missing: list = []
        self.phase_symbols: dict = {}   # profiler symbol -> phase
        self._undo: list = []

    # -- wrappers --------------------------------------------------------

    def _hot(self, fn, key):
        tracer, stack, perf = self, self.stack, time.perf_counter
        acc = self.acc.setdefault(key, {})

        def traced(*args, **kwargs):
            t0 = perf()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                stack[-1] += dt
                rec = acc.get(tracer.phase)
                if rec is None:
                    rec = acc[tracer.phase] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child

        traced.__wrapped__ = fn
        return traced

    def _coarse(self, fn, key, phase):
        tracer, stack, perf = self, self.stack, time.perf_counter
        spans, opened = self.spans, self.open
        acc = self.acc.setdefault(key, {})
        name = key[1]
        count_lines = name == "warm_system"

        def traced(*args, **kwargs):
            caller_phase = tracer.phase
            own_phase = phase or caller_phase
            tracer.phase = own_phase
            sid = len(spans) if len(spans) < MAX_SPANS else -1
            if sid >= 0:
                spans.append(None)
            opened.append(sid)
            t0 = perf()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
                if count_lines and isinstance(out, int):
                    tracer.warm_lines += out
                return out
            finally:
                t1 = perf()
                dt = t1 - t0
                child = stack.pop()
                stack[-1] += dt
                opened.pop()
                if sid >= 0:
                    spans[sid] = (name, t0, t1, opened[-1])
                tracer.phase = caller_phase
                rec = acc.get(own_phase)
                if rec is None:
                    rec = acc[own_phase] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def _set(self, owner, name, value, frozen=False) -> None:
        setter = object.__setattr__ if frozen else setattr
        self._undo.append((setter, owner, name, getattr(owner, name)))
        setter(owner, name, value)

    def _function(self, module, qualname, layer, phase) -> None:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            owner = None
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = owner.__dict__.get(name) if owner is not None else None
        if not callable(original):
            self.missing.append(f"{module}.{qualname}")
            return
        wrapper = self._coarse(original, (layer, qualname), phase)
        if phase in PHASE_LAYERS:
            self.phase_symbols[_symbol(original)] = phase
        if path:
            self._set(owner, name, wrapper)
            return
        # A module-level function: replace every repro module's reference
        # to it, since callers import it by name.
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _methods(self, module, class_name, layer, names) -> None:
        try:
            cls = getattr(importlib.import_module(module), class_name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{class_name}")
            return
        classes = (_subclasses(cls) if class_name in _WITH_SUBCLASSES
                   else [cls])
        for klass in classes:
            for name, value in list(vars(klass).items()):
                if not inspect.isfunction(value):
                    continue
                if names is None:
                    if name in _EXCLUDED or name.startswith("warm") or (
                            name.startswith("__")):
                        continue
                elif name not in names:
                    continue
                key = (layer, f"{klass.__name__}.{name}")
                self._set(klass, name, self._hot(value, key))
        if names is not None:
            self.missing.extend(f"{module}.{class_name}.{n}" for n in names
                                if n not in vars(cls))

    def install(self, specs) -> "Tracer":
        """Wrap every target, plus the render reducer of ``specs``."""
        for module, qualname, layer, phase in _COARSE:
            self._function(module, qualname, layer, phase)
        for module, class_name, layer, names in _HOT:
            self._methods(module, class_name, layer, names)
        for spec in specs:
            self._set(spec, "render",
                      self._coarse(spec.render, ("experiments", "render"),
                                   None),
                      frozen=True)
        return self

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, name, value = self._undo.pop()
            setter(owner, name, value)

    # -- reductions ------------------------------------------------------

    def totals(self, phase=None, layer=None, targets=None) -> list:
        """``[calls, inclusive s, self s]`` summed over matching records."""
        out = [0, 0.0, 0.0]
        for (target_layer, target), by_phase in self.acc.items():
            if layer is not None and target_layer != layer:
                continue
            if targets is not None and target not in targets:
                continue
            for rec_phase, rec in by_phase.items():
                if phase is not None and rec_phase != phase:
                    continue
                for i in range(3):
                    out[i] += rec[i]
        return out

    def layer_seconds(self) -> Counter:
        """Self time per layer, phase time going to the phase's layer."""
        out = Counter()
        for (layer, _), by_phase in self.acc.items():
            for phase, rec in by_phase.items():
                out[PHASE_LAYERS.get(phase, layer)] += rec[2]
        return out

    def dump(self) -> dict:
        base = self.spans[0][1] if self.spans and self.spans[0] else 0.0
        return {
            "spans": [[name, round(start - base, 9), round(end - base, 9),
                       parent] for name, start, end, parent in
                      (s for s in self.spans if s is not None)],
            "aggregates": [
                {"layer": layer, "target": target, "phase": phase,
                 "calls": rec[0], "inclusive_s": rec[1], "self_s": rec[2]}
                for (layer, target), by_phase in sorted(self.acc.items())
                for phase, rec in sorted(by_phase.items())],
            "missing_targets": self.missing,
        }


def _symbol_layers() -> tuple:
    """``(stem, top-level name) -> layer`` and ``stem -> layers`` over
    every loaded repro module."""
    by_name: dict = {}
    by_stem: dict = {}
    for mod_name, mod in list(sys.modules.items()):
        path = getattr(mod, "__file__", None)
        if not mod_name.startswith("repro") or not path:
            continue
        stem = Path(path).stem
        layer = layer_of_module(mod_name)
        by_stem.setdefault(stem, set()).add(layer)
        for attr in vars(mod):
            by_name[(stem, attr)] = layer
    return by_name, by_stem


def sampled_shares(profile, phase_symbols: dict, own_stem: str) -> dict:
    """Share of samples per layer; ``tracing`` is wrapper overhead."""
    by_name, by_stem = _symbol_layers()
    counts = Counter()

    def layer_of(symbol):
        stem, _, qualname = symbol.partition(".")
        if stem == own_stem:
            return "tracing"
        layer = by_name.get((stem, qualname.split(".")[0]))
        if layer is None and len(by_stem.get(stem, ())) == 1:
            layer = next(iter(by_stem[stem]))
        return layer

    for (_, stack), n in profile.samples.items():
        phase = next((phase_symbols[s] for s in stack if s in phase_symbols),
                     None)
        if phase is not None:
            counts[PHASE_LAYERS[phase]] += n
            continue
        layer = None
        for symbol in reversed(stack):
            layer = layer_of(symbol)
            if layer is not None:
                break
        counts[layer or "other"] += n
    total = sum(counts.values())
    return {layer: n / total for layer, n in counts.items()} if total else {}
