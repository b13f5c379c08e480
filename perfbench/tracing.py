"""Traced runs: spans around the program's public functions, wrapped from here.

Every public function and method of each phagesim module (plus the two
private ensemble helpers the per-layer metrics need) is replaced by a
wrapper that times it and keeps a stack of open calls, so each call's self
time is its duration minus that of its wrapped children. Calls are kept in
memory as spans (id, parent, operation, name, start, end) and written out
when the run ends. Functions called per step or per path (sigma, history
lookups, step kernels, dense output, normals) are counted and timed but not
kept as spans, so the trace stays small.
"""

import functools
import inspect
import json
import os
import tracemalloc
from time import perf_counter

LAYERS = ("scenario", "history", "model", "hypotheses", "equilibria", "dde", "sde", "csvio", "cli")
PRIVATE = {"sde": ("_simulate_paths", "_reference_nodes")}
HOT = {
    "model.SigmaFn.__call__", "model.SigmaFn.prime", "history.History.s", "history.History.q",
    "history.History.state", "history.History.state_sq", "dde.Trajectory.eval", "dde.dense_eval",
    "sde.heun_step", "sde.ito_euler_step", "sde.path_normals",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []  # open calls: [layer, child time, span id]
        self.calls = {}  # name -> [calls, total s, self s]
        self.layer_time = dict.fromkeys(LAYERS, 0.0)  # time not nested in the same layer
        self.extra = {}  # per-layer counts taken from arguments and results
        self.op = -1
        self._undo = []

    def next_op(self):
        """Spans of one operation share its number."""
        self.op += 1

    def add(self, key, value, combine=lambda a, b: a + b):
        self.extra[key] = combine(self.extra[key], value) if key in self.extra else value

    def wrap(self, name, fn, after=None):
        layer = name.split(".", 1)[0]
        record = name not in HOT
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span_id = len(tracer.spans) if record else (parent[2] if parent else None)
            if record:
                tracer.spans.append(None)
            frame = [layer, 0.0, span_id]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                if parent is None or parent[0] != layer:
                    tracer.layer_time[layer] += duration
                stat = tracer.calls.setdefault(name, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if record:
                    tracer.spans[span_id] = (span_id, parent[2] if parent else None, tracer.op,
                                             name, start, end)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # ------------------------------------------------------------ installation

    def install(self, package):
        """Wrap every target in the package's modules; `uninstall` restores them."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        originals = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_") and meth != "__call__":
                            continue
                        name = f"{layer}.{obj.__name__}.{meth}"
                        if isinstance(raw, classmethod):
                            self._set(obj, meth, classmethod(self._wrapped(name, raw.__func__)))
                        elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                            self._set(obj, meth, self._wrapped(name, raw))
                elif (inspect.isfunction(obj) and obj.__module__ == module.__name__
                      and not inspect.isgeneratorfunction(obj)):
                    originals[obj] = self._wrapped(f"{layer}.{attr}", obj)
        # rebind every module-level name that refers to a wrapped function,
        # including names imported into other modules with `from ... import`
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._set(module, attr, originals[obj])

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrapped(self, name, fn):
        if name == "hypotheses.check_sigma":
            fn = _with_peak_memory(self, fn)
        elif name == "csvio.write_csv":
            fn = _with_row_count(self, fn)
        return self.wrap(name, fn, AFTER.get(name))

    # ---------------------------------------------------------------- results

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start", "end"],
                       "spans": self.spans}, fh)

    def metrics(self, rounds):
        """Per-layer metrics per traced round."""

        def total(names, i):
            return sum(self.calls.get(n, (0, 0.0, 0.0))[i] for n in names) / rounds

        def extra(key):
            return self.extra.get(key, 0) / rounds

        sigma = ("model.SigmaFn.__call__", "model.SigmaFn.prime")
        lookups = ("history.History.s", "history.History.q", "history.History.state",
                   "history.History.state_sq")
        integrate = ("dde.integrate", "dde.integrate_no_coinfection")
        steppers = ("sde.heun_step", "sde.ito_euler_step")
        dde_steps, path_steps = extra("dde.steps"), extra("sde.path_steps")
        stepping = total(("sde._simulate_paths",), 1) - total(("sde.path_normals",), 1)
        out = {
            "scenario.parse_s": (total(("scenario.parse_scenario",), 1), "s"),
            "history.eval_calls": (total(lookups, 0), "count"),
            "history.eval_s": (total(lookups, 1), "s"),
            "model.sigma_calls": (total(sigma, 0), "count"),
            "model.sigma_s": (total(sigma, 1), "s"),
            "hypotheses.validate_s": (total(("hypotheses.validate",), 1), "s"),
            "hypotheses.check_sigma_s": (total(("hypotheses.check_sigma",), 1), "s"),
            "hypotheses.check_sigma_peak_mb": (self.extra.get("check_sigma.peak", 0) / 2**20, "MB"),
            "dde.integrate_calls": (total(integrate, 0), "count"),
            "dde.steps": (dde_steps, "count"),
            "dde.integrate_s": (total(integrate, 1), "s"),
            "dde.step_us": (total(integrate, 2) / dde_steps * 1e6 if dde_steps else 0.0, "us"),
            "dde.fit_decay_s": (total(("dde.fit_decay",), 1), "s"),
            "dde.monitor_region_s": (total(("dde.monitor_region",), 1), "s"),
            "dde.clamp_count": (extra("dde.clamps"), "count"),
            "sde.step_calls": (total(steppers, 0), "count"),
            "sde.step_s": (total(steppers, 1), "s"),
            "sde.path_steps": (path_steps, "count"),
            "sde.path_step_ns": (stepping / path_steps * 1e9 if path_steps else 0.0, "ns"),
            "sde.normals_calls": (total(("sde.path_normals",), 0), "count"),
            "sde.normals_s": (total(("sde.path_normals",), 1), "s"),
            "sde.nodes_bytes": (self.extra.get("sde.nodes_bytes", 0), "bytes"),
            "sde.normals_bytes": (self.extra.get("sde.normals_bytes", 0), "bytes"),
            "sde.ensemble_self_s": (total(("sde.ensemble",), 2), "s"),
            "sde.sample_path_self_s": (total(("sde.sample_path",), 2), "s"),
            "csvio.write_s": (total(("csvio.write_csv",), 1), "s"),
            "csvio.rows": (extra("csvio.rows"), "count"),
            "csvio.bytes": (extra("csvio.bytes"), "bytes"),
        }
        for layer in LAYERS:
            names = [n for n in self.calls if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = (total(names, 0), "count")
            out[f"{layer}.time_s"] = (self.layer_time[layer] / rounds, "s")
            out[f"{layer}.self_s"] = (total(names, 2), "s")
        return out


def _with_peak_memory(tracer, fn):
    # numpy registers its buffers with tracemalloc, so this is the peak of
    # the scan's arrays; tracing is on only inside check_sigma
    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.add("check_sigma.peak", peak, max)

    return measured


def _with_row_count(tracer, fn):
    @functools.wraps(fn)
    def counted(header, rows, path):
        def counting():
            for row in rows:
                tracer.add("csvio.rows", 1)
                yield row

        fn(header, counting(), path)
        tracer.add("csvio.bytes", os.path.getsize(path))

    return counted


def _after_integrate(tracer, args, traj):
    tracer.add("dde.steps", len(traj) - 1)
    tracer.add("dde.clamps", traj.clamp_count)


def _after_paths(tracer, args, result):
    _, nodes, _ = result
    n_steps, n_paths = nodes.shape[0] - 1, nodes.shape[2]
    tracer.add("sde.path_steps", n_steps * n_paths)
    # computed from the shapes: (steps+1, 3, n) nodes and (steps, 2, n) increments
    tracer.add("sde.nodes_bytes", nodes.nbytes, max)
    tracer.add("sde.normals_bytes", n_steps * 2 * n_paths * 8, max)


AFTER = {
    "dde.integrate": _after_integrate,
    "dde.integrate_no_coinfection": _after_integrate,
    "sde._simulate_paths": _after_paths,
}
