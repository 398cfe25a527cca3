"""Per-layer tracing of diracgeo from outside the program.

The tracer replaces the public functions and methods of each layer module
with wrappers that record a span (name, start, end, parent) per call, and
rebinds every name another module imported with ``from .x import y`` as well
as function values held in module-level dicts (``cli.CHECKS``,
``fixtures.FIXTURES``, ``liegroup.GROUPS``).  Nothing in the program is
edited; ``uninstall`` puts every original back.

Jet arithmetic is not wrapped: it runs inside the span of the layer that
does it (the quaternion chart inside ``liegroup``, expression evaluation
inside ``expr``).  Of ``jets`` only the differentiation entry points
``jacobian`` and ``directional`` open spans.  ``courant`` is not a layer of
its own: it is reached only through ``foliation`` and counts there.
"""

import functools
import importlib
import itertools
import time
from array import array

import numpy as np

PACKAGE = "diracgeo"
LAYERS = ("cli", "fixtures", "groupoid", "geometry", "liegroup", "jets",
          "expr", "linear", "pathspace", "realization", "foliation")
JETS_ENTRY_POINTS = ("jacobian", "directional")
# cli's check functions are a layer apart, so that cli's self time is the
# runner and the report writing alone
CHECK_LAYER = "check"


def _public_functions(mod):
    """(owner, attribute, function, span name) for each public function or
    method defined in the module, and ``__call__`` of its classes."""
    out = []
    short = mod.__name__.rsplit(".", 1)[1]
    for name, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, type):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__call__":
                    continue
                func = member.__func__ if isinstance(member, staticmethod) \
                    else member
                if callable(func) and not isinstance(member, (property, type)):
                    out.append((obj, attr, member,
                                f"{short}.{obj.__name__}.{attr}"))
        elif callable(obj) and not name.startswith("_"):
            if short == "jets" and name not in JETS_ENTRY_POINTS:
                continue
            out.append((mod, name, obj, f"{short}.{name}"))
    return out


class Tracer:
    """Spans kept in flat arrays: name id, parent index, start, end."""

    def __init__(self):
        self.names = []          # span name per id
        self.layer_of_name = []  # layer per name id
        self._name_ids = {}      # ids survive uninstall and a new install
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo = []
        self.svd_calls = 0

    def _wrap(self, func, span_name, layer):
        name_id = self._name_ids.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
            self.layer_of_name.append(layer)
        names, parents, starts, ends = self.name, self.parent, self.start, \
            self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def span(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return span

    def _set(self, owner, attr, value):
        old = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def install(self):
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}")
                   for short in LAYERS}
        checks = set(map(id, modules["cli"].CHECKS.values()))
        replaced = {}
        for short, mod in modules.items():
            for owner, attr, member, span_name in _public_functions(mod):
                is_static = isinstance(member, staticmethod)
                func = member.__func__ if is_static else member
                layer = CHECK_LAYER if id(func) in checks else short
                wrapped = self._wrap(func, span_name, layer)
                self._set(owner, attr,
                          staticmethod(wrapped) if is_static else wrapped)
                replaced[id(func)] = wrapped
        # rebind names imported with `from .x import y` and dict values
        for mod in importlib.import_module(PACKAGE).__dict__.values():
            if not getattr(mod, "__name__", "").startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and getattr(mod, attr) is obj:
                    self._set(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if id(val) in replaced:
                            self._undo.append((obj, key, val))
                            obj[key] = replaced[id(val)]
        self._count_svd()

    def _count_svd(self):
        svd = np.linalg.svd

        @functools.wraps(svd)
        def counted(*args, **kwargs):
            self.svd_calls += 1
            return svd(*args, **kwargs)

        self._set(np.linalg, "svd", counted)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    def summary(self, passes):
        """Per-layer self time and the counts the benchmark reports, per
        pass when the spans of ``passes`` equal passes were recorded."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        layers = sorted(set(self.layer_of_name))
        layer_idx = {lay: i for i, lay in enumerate(layers)}
        layer_of_name = np.array([layer_idx[lay] for lay in self.layer_of_name],
                                 dtype=np.int64)
        span_layer = layer_of_name[name]
        self_time = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(self_time, parent[has_parent], dur[has_parent])
        parent_layer = np.full(len(name), -1)
        parent_layer[has_parent] = span_layer[parent[has_parent]]
        entered = span_layer != parent_layer   # entries from another layer
        self_by_layer = np.bincount(span_layer, weights=self_time,
                                    minlength=len(layers))
        count_by_name = np.bincount(name, minlength=len(self.names))

        def calls(predicate):
            return int(sum(c for n, c in zip(self.names, count_by_name)
                           if predicate(n)))

        def layer_sum(values, lay):
            if lay not in layer_idx:
                return 0.0
            return float(values[span_layer == layer_idx[lay]].sum())

        out = {f"{lay}.self_s": float(self_by_layer[layer_idx[lay]]) / passes
               if lay in layer_idx else 0.0 for lay in LAYERS + (CHECK_LAYER,)}
        out["fixtures.build_s"] = layer_sum(np.where(entered, dur, 0.0),
                                            "fixtures") / passes
        counts = {
            "groupoid.check_calls": int(layer_sum(entered.astype(float),
                                                  "groupoid")),
            "geometry.form_evals": calls(lambda n: n == "geometry.Form.__call__"),
            "liegroup.chart_mul_calls": calls(
                lambda n: n.startswith("liegroup.") and n.endswith(".mul")),
            "jets.passes": calls(lambda n: n in ("jets.jacobian",
                                                 "jets.directional")),
            "expr.evals": calls(lambda n: n in ("expr.ScalarExpr.__call__",
                                                "expr.ScalarExpr.eval_jet")),
            "linear.svd_calls": self.svd_calls,
            "pathspace.sigma_tilde_calls": calls(
                lambda n: n == "pathspace.sigma_tilde"),
            "spans": int(len(name)),
        }
        out.update({k: v // passes for k, v in counts.items()})
        by_name = {}
        for n, c, s in zip(self.names, count_by_name,
                           np.bincount(name, weights=self_time,
                                       minlength=len(self.names))):
            if c:
                by_name[n] = {"calls": int(c) // passes,
                              "self_s": float(s) / passes}
        return out, by_name


class JetCounter:
    """Counts Jet constructions while installed; ``count`` is set on
    uninstall."""

    def __init__(self):
        self._jet = importlib.import_module(f"{PACKAGE}.jets").Jet
        self._counter = itertools.count()
        self._orig = None
        self.count = 0

    def install(self):
        self._orig = self._jet.__init__
        orig, counter = self._orig, self._counter

        def counted(jet, tag, value, partials):
            next(counter)
            orig(jet, tag, value, partials)

        self._jet.__init__ = counted

    def uninstall(self):
        self._jet.__init__ = self._orig
        # next() returns how many constructions were counted before it
        self.count = next(self._counter)
