"""Span tracing of the library's public functions, from outside the library.

``Tracer.install`` replaces every function exported by ``cvprivacy`` (and
``cvprivacy.cli.main``) with a timing wrapper, in every ``cvprivacy``
module namespace that binds it, so calls between modules are seen too.
Each call records a span (name, start, end, parent) in flat in-memory
arrays; ``save`` writes them out once the run is over.  ``uninstall``
restores the original bindings.

``layer_metrics`` turns the spans into the per-layer metrics.  A metric
whose function no longer exists is left out instead of failing the run.
"""

import inspect
import sys
import time
from array import array

import numpy as np

def _fock_label(args, kwargs):
    state = args[0] if args else kwargs["state"]
    cutoff = args[1] if len(args) > 1 else kwargs.get("cutoff")
    return f"{state.n_modes}m_c{cutoff}"


def _cli_label(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else "none"


# Splits one function's spans by an argument, giving per-variant names
# such as "fock.gaussian_to_fock[1m_c40]" or "cli.main[sweep]".
LABELS = {
    "fock.gaussian_to_fock": _fock_label,
    "cli.main": _cli_label,
}

# Work counted at a span: (counter name, value from (args, kwargs, result)).
COUNTERS = {
    "simulate.sample_postselected_bits": (
        "draws",
        lambda args, kwargs, result: result.n_raw,
    ),
    "simulate.slope_check": (
        "blocks",
        lambda args, kwargs, result: sum(p.blocks for p in result.points),
    ),
}


def _qualname(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def public_functions(package):
    """Functions exported by the package, plus the CLI entry point."""
    found = {}
    for value in vars(package).values():
        if inspect.isfunction(value) and value.__module__.startswith(package.__name__ + "."):
            found[_qualname(value)] = value
    cli = sys.modules.get(package.__name__ + ".cli")
    if cli is not None and callable(getattr(cli, "main", None)):
        found["cli.main"] = cli.main
    return found


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.counters = {}
        self.wrapped = set()
        self.broken = set()
        self._stack = []
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn):
        base_id = self._id(name)
        label = LABELS.get(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            nid = base_id
            if label is not None and name not in self.broken:
                try:
                    nid = self._id(f"{name}[{label(args, kwargs)}]")
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.broken.add(name)
            idx = len(self.start)
            self.start.append(clock())
            self.end.append(0.0)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.end[idx] = clock()
            if counter is not None and counter[0] in self.counters:
                key, value = counter
                try:
                    self.counters[key] += value(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    del self.counters[key]
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        prefix = self.package.__name__
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == prefix or key.startswith(prefix + "."))
        ]
        for name, fn in public_functions(self.package).items():
            if name in COUNTERS and name not in self.wrapped:
                self.counters[COUNTERS[name][0]] = 0
            self.wrapped.add(name)
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def spans(self):
        """(name ids, durations, self times) as arrays, one entry per span."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return np.frombuffer(self.name_id, dtype=np.int32), dur, dur - child

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


# metric -> functions whose calls are counted, per item
CALLS_PER_ITEM = {
    "states.is_physical_calls": ["states.is_physical"],
    "states.is_nppt_calls": ["states.is_nppt"],
    "symplectic.spectrum_calls": ["symplectic.symplectic_eigenvalues"],
    "security.exponent_calls": [
        "security.eps_ratio_exponent",
        "security.eve_fidelity_exponent",
    ],
    "simulate.sampling_calls": ["simulate.sample_postselected_bits"],
}

# metric -> span name whose median duration per call is reported, in ms
MEDIAN_CALL_MS = {
    "cli.sweep_ms": "cli.main[sweep]",
    "symplectic.spectrum_ms": "symplectic.symplectic_eigenvalues",
    "security.analyze_ms": "security.analyze_state",
    "security.purify_ms": "security.purify",
    "security.condition_ms": "security.eve_conditional_state",
    "symplectic.psd_sqrt_ms": "symplectic.psd_sqrt_of_similar",
    "simulate.ad_pass_ms": "simulate.advantage_distillation",
    "fock.convert_1m_c40_ms": "fock.gaussian_to_fock[1m_c40]",
    "fock.convert_1m_c60_ms": "fock.gaussian_to_fock[1m_c60]",
    "fock.convert_2m_c20_ms": "fock.gaussian_to_fock[2m_c20]",
    "fock.fidelity_ms": "fock.uhlmann_fidelity",
    "symplectic.williamson_ms": "symplectic.williamson",
}

# metric -> layer whose summed self time per item is reported, in ms
SELF_MS_PER_ITEM = {
    "cli.self_ms": "cli",
    "states.self_ms": "states",
    "security.self_ms": "security",
}

SAMPLING = "simulate.sample_postselected_bits"
DISTILL = "simulate.slope_check"


def layer_metrics(tracer, items):
    """Per-layer metrics from the recorded spans; ``items`` traced items.

    Functions that were never called give 0; metrics whose function was
    not found when the tracer was installed are omitted.
    """
    ids, dur, self_time = tracer.spans()
    names = np.array(tracer.names, dtype=str)[ids]
    layers = np.array([n.split(".", 1)[0] for n in tracer.names], dtype=str)[ids]
    present = tracer.wrapped
    per_item = 1.0 / max(items, 1)

    def base(name):
        name = name.split("[", 1)[0]
        return None if name in tracer.broken else name

    def select(name):
        return names == name

    out = {}
    for metric, fns in CALLS_PER_ITEM.items():
        if all(fn in present for fn in fns):
            out[metric] = sum(int(np.count_nonzero(select(fn))) for fn in fns) * per_item
    for metric, name in MEDIAN_CALL_MS.items():
        if base(name) in present:
            mask = select(name)
            out[metric] = float(np.median(dur[mask])) * 1e3 if mask.any() else 0.0
    for metric, layer in SELF_MS_PER_ITEM.items():
        if any(n.startswith(layer + ".") for n in present):
            out[metric] = float(self_time[layers == layer].sum()) * 1e3 * per_item
    if SAMPLING in present:
        sampling = float(dur[select(SAMPLING)].sum())
        out["simulate.sampling_s"] = sampling * per_item
        if "draws" in tracer.counters:
            draws = tracer.counters["draws"]
            out["simulate.draws_per_s"] = draws / sampling if sampling else 0.0
    if DISTILL in present:
        distill = float(self_time[select(DISTILL)].sum())
        out["simulate.distill_s"] = distill * per_item
        if "blocks" in tracer.counters:
            blocks = tracer.counters["blocks"]
            out["simulate.blocks"] = blocks * per_item
            out["simulate.blocks_per_s"] = blocks / distill if distill else 0.0
    return out
