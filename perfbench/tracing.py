"""Span tracing for the traced benchmark run.

`Tracer.install` wraps every function named in the `__all__` of each
tropcircle layer module, and every public method of the classes named there,
then rebinds each wrapper in every `tropcircle.*` namespace that still holds
the original.  `uninstall` puts the originals back, so an untraced run never
sees a wrapper.  Nothing is hard-coded: the wrapped set is read from `__all__`
at run time, so it follows the package through refactors.

Each wrapped call records a span (name, start, end, parent) in flat arrays
kept in memory; `write` stores them once the run is over.  A span's self time
is its duration minus the time covered by its child spans, and is added to
the layer of the module that defines the function.  The package is single
threaded, so spans nest strictly and there is no wait time to record.
"""

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("scalars", "germs", "piecewise", "polygons", "circle",
          "riemann_roch", "serialize", "cli", "verify")

# candidate vertices handed to the polygon reduction by each semiring operation
_POLY_CANDIDATES = {
    "poly_join": lambda n, m: len(n.vertices) + len(m.vertices),
    "poly_times": lambda n, m: len(n.vertices) * len(m.vertices),
}


class Tracer:
    def __init__(self):
        self.names = []                 # span name table, indexed by name id
        self.name_layer = []            # name id -> index into LAYERS
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("q")    # perf_counter_ns
        self.span_end = array("q")
        self.span_parent = array("i")   # index of the parent span, -1 at top level
        self._stack = []                # [span index, ns covered by children]
        self.calls = [0] * len(LAYERS)
        self.self_ns = [0] * len(LAYERS)
        self.raised = [0] * len(LAYERS)
        self.poly_candidates = 0
        self.poly_kept = 0
        self._undo = []

    def _name_id(self, name, layer):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return self._ids[name]

    def wrap(self, func, layer, name):
        """Return `func` recording one span per call under `name`."""
        nid = self._name_id(name, layer)
        li = self.name_layer[nid]
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        stack, calls, self_ns, raised = self._stack, self.calls, self.self_ns, self.raised
        candidates = _POLY_CANDIDATES.get(name.rpartition(".")[2]) if layer == "polygons" else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0)
            frame = [idx, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            starts.append(t0)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                raised[li] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                ends[idx] = t1
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                self_ns[li] += t1 - t0 - frame[1]
                calls[li] += 1
            if candidates is not None:
                self.poly_candidates += candidates(*args)
                self.poly_kept += len(result.vertices)
            return result

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tropcircle.{layer}")
            for public in mod.__all__:
                obj = getattr(mod, public)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(obj, layer, f"{layer}.{public}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer, f"{layer}.{public}")
        for modname, mod in list(sys.modules.items()):
            if modname != "tropcircle" and not modname.startswith("tropcircle."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(mod, attr, wrappers[value])

    def _wrap_methods(self, cls, layer, prefix):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.wrap(raw.__func__, layer, f"{prefix}.{attr}"))
            elif inspect.isfunction(raw):
                new = self.wrap(raw, layer, f"{prefix}.{attr}")
            else:
                continue  # properties and constants are not methods
            self._rebind(cls, attr, new)

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def spans(self):
        return len(self.span_name)

    def count(self, name):
        """Calls recorded under one span name."""
        nid = self._ids.get(name)
        return 0 if nid is None else self.span_name.count(nid)

    def write(self, stem):
        """Write the spans as `<stem>.json` (name table and layout) plus
        `<stem>.bin` (the four arrays, back to back, native byte order)."""
        arrays = (self.span_name, self.span_start, self.span_end, self.span_parent)
        header = {
            "spans": self.spans(),
            "names": self.names,
            "layers": [LAYERS[li] for li in self.name_layer],
            "arrays": [["name", "i"], ["start_ns", "q"], ["end_ns", "q"], ["parent", "i"]],
            "byteorder": sys.byteorder,
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(f"{stem}.bin", "wb") as fh:
            for arr in arrays:
                arr.tofile(fh)
