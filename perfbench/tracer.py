"""Layer spans and work counters for the traced run.

The tracer wraps the public functions of each ``weylkit`` module from the
outside: nothing under ``src/`` is edited.  ``install`` rebinds every name
under which a wrapped function is reachable (``path_model`` imports
``in_AQ`` from ``model_space``, ``model_space`` imports ``compare`` from
``scalars``, the package re-exports ``build``, and so on) and ``uninstall``
puts every original binding back, so untraced numbers never pass through a
wrapper.

What is wrapped, per layer module:

* public module-level functions defined in that module;
* public methods, constructors (``__init__``) and arithmetic or ordering
  operators of the classes defined in that module.

``__eq__`` and ``__hash__`` are left alone: dict and set lookups call them
everywhere and a span per lookup would swamp the measurement.  A call opens a
span only where it crosses from one layer into another; a call inside the
same layer is counted but adds no span, so a layer's self time is the time
in its spans minus the time in child spans of other layers.  Spans carry a
name, start, end, parent span and op id, stay in memory and are written out
when the run ends (the first ``MAX_SPANS`` of them; the rest are counted).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = (
    "scalars",
    "root_system",
    "model_space",
    "path_model",
    "lambda_tree",
    "twisted_algebra",
    "cli",
)

PACKAGE = "weylkit"
MAX_SPANS = 50_000  # spans kept for the trace file; later ones are only counted

# Operators that do the arithmetic of a layer's value types.
_OPERATORS = frozenset(
    "__init__ __add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __neg__ __truediv__ "
    "__rtruediv__ __pow__ __lt__ __le__ __gt__ __ge__ __abs__".split()
)

# (owner, attribute) -> counter bumped on every call.  Private methods appear
# here only when a named work count needs them; they get no span.
_CALL_COUNTERS = {
    ("scalars", "compare"): "scalars.compare_calls",
    ("scalars", "sign"): "scalars.sign_calls",
    ("scalars", "QuadInt.__init__"): "scalars.quadint_new",
    ("scalars", "QuadInt._cmp"): "scalars.quadint_cmp",
    ("scalars", "LexPair._cmp"): "scalars.lexpair_cmp",
    ("scalars", "NumberField.refine_isolator"): "scalars.nf_refine_calls",
    ("root_system", "RootSystem.__init__"): "root_system.systems_built",
    ("root_system", "RootSystem.pairing"): "root_system.pairing_calls",
    ("root_system", "RootSystem.root_level"): "root_system.root_level_calls",
    ("root_system", "RootSystem.dominant_rep"): "root_system.dominant_rep_calls",
    ("model_space", "distance"): "model_space.distance_calls",
    ("model_space", "in_AQ"): "model_space.in_AQ_calls",
    ("path_model", "root_operator_e"): "path_model.root_operator_calls",
    ("lambda_tree", "check_pv"): "lambda_tree.check_pv_calls",
    ("lambda_tree", "ProjectiveValuation.value"): "lambda_tree.pv_value_calls",
    ("lambda_tree", "roundtrip_check"): "lambda_tree.roundtrip_calls",
    ("twisted_algebra", "LaurentElement.__init__"): "twisted_algebra.laurent_new",
    ("twisted_algebra", "LaurentElement.__mul__"): "twisted_algebra.laurent_mul_calls",
    ("twisted_algebra", "norm_R"): "twisted_algebra.norm_calls",
    ("twisted_algebra", "norm_N"): "twisted_algebra.norm_calls",
}


def _add_len(counter):
    def post(counts, result):
        counts[counter] += len(result)

    return post


def _count_applied(counts, result):
    if result is not None:
        counts["path_model.root_operator_applied"] += 1


def _count_closure(counts, result):
    counts["path_model.closure_paths"] += len(result[0])


def _count_walk(counts, _gallery):
    counts["path_model.gallery_walks"] += 1


# (owner, attribute) -> hook run on the result; for generators, on each item.
_RESULT_HOOKS = {
    ("model_space", "hull_candidates"): _add_len("model_space.hull_candidates"),
    ("model_space", "enumerate_AQ"): _add_len("model_space.hull_points"),
    ("path_model", "root_operator_e"): _count_applied,
    ("path_model", "positive_fold_closure"): _count_closure,
    ("path_model", "folded_galleries"): _count_walk,
    ("path_model", "folded_gallery_endpoints"): _add_len("path_model.gallery_endpoints"),
}

WORK_COUNTS = tuple(sorted(set(_CALL_COUNTERS.values()))) + (
    "model_space.hull_candidates",
    "model_space.hull_points",
    "path_model.root_operator_applied",
    "path_model.closure_paths",
    "path_model.gallery_walks",
    "path_model.gallery_endpoints",
)

# The cross-module imports the wrappers must reach; checked after install.
REQUIRED_REBINDINGS = (
    ("path_model", ("in_AQ", "gallery_distance", "point_sub")),
    ("model_space", ("compare", "sign")),
    ("lambda_tree", ("compare", "sign")),
    ("twisted_algebra", ("compare",)),
    ("root_system", ("sign", "scalar_mul")),
)


class Tracer:
    """Spans and counters for one traced pass; install, run ops, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._patches: list[tuple] = []  # (owner object, attribute, original, wrapper)
        self._wrappers: dict[int, object] = {}  # id -> wrapper, kept alive for the checks
        self.reset()

    # -- state -------------------------------------------------------------

    def reset(self):
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.failures = {layer: 0 for layer in LAYERS}
        self.counts = {name: 0 for name in WORK_COUNTS}
        self.stack: list[list] = []  # [layer, start, child_time, span_id, parent_id]
        self.op_id = -1
        self.next_span = 0
        self.dropped = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- wrapping ------------------------------------------------------------

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, layer: str, qualname: str):
        key = (layer, qualname)
        counter = _CALL_COUNTERS.get(key)
        hook = _RESULT_HOOKS.get(key)
        if qualname.rpartition(".")[2].startswith("_") and not qualname.endswith("__"):
            return self._count_only(fn, counter)
        name_idx = self._name_index(f"{layer}.{qualname}")
        tr = self
        clock = time.perf_counter

        def enter():
            stack = tr.stack
            parent = stack[-1][3] if stack else -1
            frame = [layer, clock(), 0.0, tr.next_span, parent]
            tr.next_span += 1
            stack.append(frame)
            return frame

        def leave(frame):
            end = clock()
            stack = tr.stack
            stack.pop()
            dur = end - frame[1]
            tr.self_s[layer] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            if len(tr.span_name) < MAX_SPANS:
                tr.span_name.append(name_idx)
                tr.span_parent.append(frame[4])
                tr.span_op.append(tr.op_id)
                tr.span_start.append(frame[1])
                tr.span_end.append(end)
            else:
                tr.dropped += 1

        if inspect.isgeneratorfunction(fn):

            def wrapper(*args, **kwargs):
                tr.calls[layer] += 1
                it = fn(*args, **kwargs)
                while True:
                    if tr.stack and tr.stack[-1][0] == layer:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    else:
                        frame = enter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        except BaseException:
                            tr.failures[layer] += 1
                            raise
                        finally:
                            leave(frame)
                    if hook is not None:
                        hook(tr.counts, item)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                tr.calls[layer] += 1
                if counter is not None:
                    tr.counts[counter] += 1
                if tr.stack and tr.stack[-1][0] == layer:
                    result = fn(*args, **kwargs)
                else:
                    frame = enter()
                    try:
                        result = fn(*args, **kwargs)
                    except BaseException:
                        tr.failures[layer] += 1
                        raise
                    finally:
                        leave(frame)
                if hook is not None:
                    hook(tr.counts, result)
                return result

        return functools.update_wrapper(wrapper, fn)

    def _count_only(self, fn, counter):
        tr = self

        def wrapper(*args, **kwargs):
            tr.counts[counter] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _targets(self):
        """(layer, qualname, owner, attribute, function) for everything to wrap."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in sorted(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    out.append((layer, name, mod, name, obj))
                elif inspect.isclass(obj):
                    for attr, fn in sorted(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        public = not attr.startswith("_")
                        if public or attr in _OPERATORS or (layer, f"{name}.{attr}") in _CALL_COUNTERS:
                            out.append((layer, f"{name}.{attr}", obj, attr, fn))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        self._wrappers = {}
        for layer, qualname, owner, attr, fn in self._targets():
            wrapper = self._wrap(fn, layer, qualname)
            self._wrappers[id(wrapper)] = wrapper
            if inspect.isclass(owner):
                self._patch(owner, attr, fn, wrapper)
            else:
                originals[id(fn)] = (fn, wrapper)
        # rebind module-level functions under every name in every package module
        for mod in self._package_modules():
            for name, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, name, value, hit[1])
        self._check_rebindings()

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        leftovers = [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner in self._owners()
            for name, value in vars(owner).items()
            if id(value) in self._wrappers
        ]
        if leftovers:
            raise RuntimeError(f"wrappers left bound after uninstall: {leftovers[:5]}")

    def _package_modules(self):
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _owners(self):
        owners = self._package_modules()
        for mod in list(owners):
            owners += [o for o in vars(mod).values() if inspect.isclass(o) and o.__module__ == mod.__name__]
        return owners

    def _check_rebindings(self):
        """Every listed cross-module import must now resolve to a wrapper."""
        missing = []
        for layer, names in REQUIRED_REBINDINGS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            missing += [f"{layer}.{n}" for n in names if id(getattr(mod, n)) not in self._wrappers]
        if missing:
            self.uninstall()
            raise RuntimeError(f"tracer could not rebind: {missing}")

    # -- results -------------------------------------------------------------

    def layer_metrics(self, busy_s: float) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.self_share"] = (self.self_s[layer] / busy_s if busy_s > 0 else 0.0, "share")
            out[f"{layer}.failures"] = (self.failures[layer], "count")
        return out

    def write_spans(self, path, extra: dict):
        data = {
            "names": self.names,
            "columns": ["name", "parent", "op", "start", "end"],
            "spans": [
                list(self.span_name),
                list(self.span_parent),
                list(self.span_op),
                [round(t, 7) for t in self.span_start],
                [round(t, 7) for t in self.span_end],
            ],
            "recorded": len(self.span_name),
            "dropped": self.dropped,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
