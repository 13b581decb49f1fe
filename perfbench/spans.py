"""Span tracing around the public functions of each ``beadiag`` layer.

``install`` wraps every public function of the layer modules, and rebinds
the wrapper in every ``beadiag`` module namespace that holds the original
(``from .linalg import echelonize`` binds ``echelonize`` in ``jspaces``,
``arcs`` and ``catlie``).  Each call records one span: name, start, end and
parent, in flat arrays kept in memory; ``Recorder.dump`` writes them out when
the traced process ends.  ``self_times`` turns them into self time per name.

Not wrapped, because a wrapper would cost more than the work it measures:
the per-letter helpers of ``words`` and the per-vector helpers of
``linalg``.  Their cost shows in the self time of their callers
(``canonicalize``, ``echelonize``).  Methods are not wrapped except
``ASpace.dim``.
"""

import array
import functools
import importlib
import inspect
import json
import pickle
import time

LAYERS = (
    "words", "diagrams", "jspaces", "arcs", "catlie", "bridge",
    "linalg", "reference", "laws", "cache", "cli",
)

SKIP = {
    "words": {"reduce_letters", "mul_letters", "inv_letters", "word_key",
              "parse_letters", "format_letters"},
    "linalg": {"vec", "vadd", "vscale", "vaxpy"},
}
# cli: only main, so that cli.main.self_s is the time in main outside
# library spans (argument parsing, JSON in and out)
ONLY = {"cli": ("main",)}
METHODS = {"arcs": ("ASpace.dim",)}


def _pickled(obj):
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


# name -> function(args, result) -> {stat: value}.  Counts are taken after
# the span ends, so their cost lands in the caller's self time, not the
# function's (about 1 ms per cached space that ``cache.*.bytes`` pickles).
COUNTERS = {
    "diagrams.enumerate_diagrams": lambda a, r: {"keys": len(r)},
    "arcs.enumerate_arc_diagrams": lambda a, r: {"keys": len(r)},
    "jspaces.closure": lambda a, r: {"keys": len(r)},
    "jspaces.ihx_relations": lambda a, r: {"relations": len(r)},
    "arcs.arc_closure": lambda a, r: {"keys": len(r)},
    "linalg.echelonize": lambda a, r: {"rank": r.rank},
    "cache.get": lambda a, r: {"hits": int(r is not None),
                               "bytes": 0 if r is None else _pickled(r)},
    "cache.put": lambda a, r: {"bytes": _pickled(a[2])},
}
# name -> stat counting the items of the first argument
FIRST_ARG_COUNTS = {"linalg.echelonize": "vectors", "jspaces.closure": "seeds"}


class Recorder:
    """Spans of one process, in flat arrays in call order: name index, parent
    span index (-1 at top level), start and end; plus counts per name."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.counts = {}
        self.stack = []

    def count(self, name, stat, value):
        key = "%s.%s" % (name, stat)
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        first_arg_stat = FIRST_ARG_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if first_arg_stat:
                args, items = _counted_first(args)
            index = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ends.append(0.0)
            self.stack.append(index)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                for stat, value in counter(args, result).items():
                    self.count(name, stat, value)
            if first_arg_stat:
                self.count(name, first_arg_stat, items())
            return result

        return traced

    def columns(self):
        return self.name_ids, self.parents, self.starts, self.ends

    def dump(self, path, extra=None):
        """Write the spans and counts: a JSON header line, then the arrays."""
        header = {"run_id": self.run_id, "names": self.names, "n": len(self.starts),
                  "counts": self.counts, "extra": extra or {}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in self.columns():
                arr.tofile(fh)


def load(path):
    """Read a file written by ``Recorder.dump``: (header, columns)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for code in "iidd":
            arr = array.array(code)
            arr.fromfile(fh, header["n"])
            columns.append(arr)
    return header, tuple(columns)


def _counted_first(args):
    """Pass the first argument through a counting iterator when it has no
    length, so counting never consumes the caller's iterator."""
    first = args[0]
    if hasattr(first, "__len__"):
        return args, lambda: len(first)
    seen = [0]

    def counting():
        for item in first:
            seen[0] += 1
            yield item

    return (counting(),) + tuple(args[1:]), lambda: seen[0]


def _modules():
    """The package and its layer modules."""
    return [importlib.import_module("beadiag")] + [
        importlib.import_module("beadiag." + layer) for layer in LAYERS]


def targets():
    """(qualified name, owner, attribute, function) for every function that
    ``install`` wraps."""
    out = []
    for layer, module in zip(LAYERS, _modules()[1:]):
        skip = SKIP.get(layer, set())
        names = ONLY.get(layer)
        if names is None:
            names = sorted(
                name for name, obj in vars(module).items()
                if inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_") and name not in skip
            )
        for name in names:
            out.append(("%s.%s" % (layer, name), module, name, getattr(module, name)))
        for qual in METHODS.get(layer, ()):
            cls_name, meth = qual.split(".")
            cls = getattr(module, cls_name)
            out.append(("%s.%s" % (layer, qual), cls, meth, vars(cls)[meth]))
    return out


def install(recorder):
    """Wrap every target and rebind the wrapper wherever beadiag binds the
    original.  Returns the original functions."""
    wrappers = {}  # id of an original -> its wrapper, which keeps it alive
    for qual, owner, attr, fn in targets():
        wrappers[id(fn)] = recorder.wrap(qual, fn)
        setattr(owner, attr, wrappers[id(fn)])
    for module in _modules():
        for name, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, name, wrappers[id(obj)])
    return [wrapper.__wrapped__ for wrapper in wrappers.values()]


# ---------------------------------------------------------------------------
# self time


def self_times(names, columns):
    """Per name: (calls, self seconds), and the summed duration of the
    top-level spans.

    A span's self time is its duration minus the time its child spans
    cover.  Spans come from one thread, so the children of a span never
    overlap and cover the sum of their durations.  Children follow their
    parent in call order, so a reverse pass has every child's duration
    before it reaches the parent.
    """
    name_ids, parents, starts, ends = columns
    covered = array.array("d", bytes(8 * len(starts)))
    stats = {}
    top = 0.0
    for i in range(len(starts) - 1, -1, -1):
        duration = ends[i] - starts[i]
        parent = parents[i]
        if parent >= 0:
            covered[parent] += duration
        else:
            top += duration
        name = names[name_ids[i]]
        calls, self_s = stats.get(name, (0, 0.0))
        stats[name] = (calls + 1, self_s + duration - covered[i])
    return stats, top
