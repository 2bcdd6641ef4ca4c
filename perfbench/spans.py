"""In-memory span tracer for bernmix, installed from outside the package.

``Tracer.install()`` wraps every public function of each bernmix module,
and the public methods of its public classes, at every name the function
is bound to (``bernmix.em.basis_matrix`` as well as
``bernmix.basis.basis_matrix`` and ``bernmix.basis_matrix``).  Each call
appends one span (function, parent span, start, end) to flat arrays;
nothing is written until ``save``.  The EM step functions run tens of
thousands of times per fit, so they are counted per parent span instead
of timed: their time stays in the self time of the fit that called them.

Counts of solver work come from what the program returns
(``FitReport.iterations``/``converged``, ``DegreeSelectionTrace.increments``,
``MiseReport.failures``), read off the return values of the wrapped calls.
"""

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

LEAF_COUNTED = {"em.em_step_grouped", "em.em_step_raw"}


def _em_fit(counts, report):
    counts["em.steps"] += report.iterations
    counts["em.nonconverged"] += 0 if report.converged else 1


def _scan(counts, trace):
    counts["select.steps"] += sum(f.iterations for f in trace.fits)
    counts["select.negative_gains"] += int(np.sum(np.asarray(trace.increments) < 0.0))


def _mise(counts, report):
    counts["sim.failures"] += report.failures


ON_RETURN = {
    "em.em_grouped": _em_fit,
    "em.em_raw": _em_fit,
    "select.select_degree": _scan,
    "sim.mise": _mise,
}
COUNT_KEYS = ("em.steps", "em.nonconverged", "select.steps", "select.negative_gains", "sim.failures")


def _targets():
    """(span name, owner, attribute, function) for every public callable."""
    out = []
    for modname, module in sorted(sys.modules.items()):
        if not modname.startswith("bernmix.") or module is None:
            continue
        short = modname[len("bernmix."):]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if inspect.isfunction(obj):
                out.append((f"{short}.{name}", module, name, obj))
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (not attr.startswith("_") or attr == "__call__"):
                        out.append((f"{short}.{name}.{attr}", obj, attr, member))
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self.func = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.leaf = {}  # (function id, parent span) -> calls
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self._restore = []

    def _span(self, fid, fn, on_return):
        func, parent, start, end, stack = self.func, self.parent, self.start, self.end, self.stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(func)
            func.append(fid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if on_return is not None:
                on_return(counts, result)
            return result

        return traced

    def _counted(self, fid, fn):
        leaf, stack = self.leaf, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (fid, stack[-1])
            leaf[key] = leaf.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every target at every binding inside the bernmix package."""
        wrappers = {}
        for span_name, owner, attr, fn in _targets():
            fid = len(self.names)
            self.names.append(span_name)
            if span_name in LEAF_COUNTED:
                wrapped = self._counted(fid, fn)
            else:
                wrapped = self._span(fid, fn, ON_RETURN.get(span_name))
            if inspect.isclass(owner):
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
            else:
                wrappers[id(fn)] = (fn, wrapped)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "bernmix" or modname.startswith("bernmix.")):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def save(self, path):
        """Write spans, leaf counts and return-value counts to one .npz file."""
        leaf_keys = list(self.leaf)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            func=np.array(self.func, dtype=int),
            parent=np.array(self.parent, dtype=int),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
            leaf_func=np.array([k[0] for k in leaf_keys], dtype=int),
            leaf_parent=np.array([k[1] for k in leaf_keys], dtype=int),
            leaf_calls=np.array([self.leaf[k] for k in leaf_keys], dtype=int),
            counts=json.dumps(self.counts),
        )


class Summary:
    """Per-function calls, inclusive and self time, summed over trace files."""

    def __init__(self):
        self.calls = {}
        self.incl = {}
        self.self_s = {}
        self.leaf_under = {}  # (leaf name, parent function name) -> calls
        self.counts = dict.fromkeys(COUNT_KEYS, 0)

    def add_file(self, path):
        with np.load(path) as z:
            names = [str(s) for s in z["names"]]
            func, parent = z["func"], z["parent"]
            dur = z["end"] - z["start"]
            child = np.zeros(dur.size)
            has = parent >= 0
            np.add.at(child, parent[has], dur[has])
            own = dur - child
            k = len(names)
            calls = np.bincount(func, minlength=k)
            incl = np.bincount(func, weights=dur, minlength=k)
            selft = np.bincount(func, weights=own, minlength=k)
            for i, name in enumerate(names):
                self.calls[name] = self.calls.get(name, 0) + int(calls[i])
                self.incl[name] = self.incl.get(name, 0.0) + float(incl[i])
                self.self_s[name] = self.self_s.get(name, 0.0) + float(selft[i])
            for fid, par, n in zip(z["leaf_func"], z["leaf_parent"], z["leaf_calls"]):
                owner = names[func[par]] if par >= 0 else ""
                key = (names[fid], owner)
                self.leaf_under[key] = self.leaf_under.get(key, 0) + int(n)
            for key, value in json.loads(str(z["counts"])).items():
                self.counts[key] += value

    def n(self, *names):
        return sum(self.calls.get(x, 0) for x in names)

    def ms(self, *names):
        return 1e3 * sum(self.incl.get(x, 0.0) for x in names)

    def module_self_ms(self, module):
        prefix = module + "."
        return 1e3 * sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def leaf_calls(self, leaf, owner):
        return self.leaf_under.get((leaf, owner), 0)
