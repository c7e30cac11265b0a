"""Per-layer tracing of opcoupling, done from outside the package.

The tracer wraps every public function (and every public method of every
class) that the eight modules of ``opcoupling`` define, and counts the dense
LAPACK SVDs numpy makes.  Nothing under ``src/`` changes: the wrappers are
installed by rebinding names, and removed again when tracing stops.

Two details decide whether a count is complete:

* Modules import each other's functions by name (``from .numkernel import
  inverse``), so a wrapper installed only in the defining module would miss
  every call made through such a binding.  :meth:`Tracer.active` rebinds the
  name in every ``opcoupling.*`` namespace that holds the same object.
* ``np.linalg.norm(a, 2)`` calls numpy's internal ``svd`` through the globals
  of the module that defines ``norm``, not through the ``numpy.linalg``
  attribute.  Both bindings are replaced, so spectral norms are counted as
  the SVDs they are.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly caused; the SVD interception is a span of
its own (``lapack.svd``), so the self time of a numkernel function excludes
the LAPACK time spent below it.  Span stacks are per thread, because the
batch command runs instances in a thread pool.  Only aggregates (calls,
inclusive time, self time) are kept, in memory, and read when a run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("numkernel", "blockops", "relations", "reduction", "instances",
          "hankel", "serialization", "cli")

SVD_SPAN = "lapack.svd"
# A private helper wrapped in addition to the public surface: the
# per-instance job of the batch command, whose spans give worker busy time.
BATCH_JOB = "_run_one_pipeline"


def _public_callables(module):
    """(owner, attribute, descriptor, function) for each traced callable."""
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((module, attr, obj, obj))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for name, desc in vars(obj).items():
                if name.startswith("_"):
                    continue
                if isinstance(desc, (classmethod, staticmethod)):
                    out.append((obj, name, desc, desc.__func__))
                elif inspect.isfunction(desc):
                    out.append((obj, name, desc, desc))
    return out


class Tracer:
    """Span aggregates for the wrapped functions of one benchmark run."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed = None
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.svd_work = 0
        self.queue_wait = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.inclusive[name] += duration
                    tracer.self_time[name] += duration - children

        return traced

    def _count_svd_work(self, args, kwargs) -> None:
        a = np.asarray(args[0] if args else kwargs["a"])
        rows, cols = a.shape[-2:]
        batch = int(np.prod(a.shape[:-2], dtype=np.int64))
        with self._lock:
            self.svd_work += batch * rows * cols * min(rows, cols)

    def _timed_pool(self, base):
        tracer = self

        class TimedPool(base):
            """Thread pool that records how long each job waited to start."""

            def submit(self, fn, /, *args, **kwargs):
                submitted = time.perf_counter()

                def job(*a, **k):
                    with tracer._lock:
                        tracer.queue_wait += time.perf_counter() - submitted
                    return fn(*a, **k)

                return super().submit(job, *args, **kwargs)

        return TimedPool

    def _patches(self):
        """(namespace dict or object, key, original, replacement) to apply."""
        modules = {layer: importlib.import_module(f"opcoupling.{layer}")
                   for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "opcoupling" or n.startswith("opcoupling.")]
        patches = []
        for layer, module in modules.items():
            targets = _public_callables(module)
            if layer == "cli":
                job = getattr(module, BATCH_JOB)
                targets.append((module, BATCH_JOB, job, job))
            for owner, attr, desc, fn in targets:
                if inspect.isclass(owner):
                    name = f"{layer}.{owner.__name__}.{attr}"
                    wrapped = self._wrap(name, fn)
                    if isinstance(desc, classmethod):
                        wrapped = classmethod(wrapped)
                    elif isinstance(desc, staticmethod):
                        wrapped = staticmethod(wrapped)
                    patches.append((owner, attr, desc, wrapped))
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is desc:
                            patches.append((ns, key, desc, wrapped))
        cli = modules["cli"]
        patches.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor,
                        self._timed_pool(cli.ThreadPoolExecutor)))

        svd = np.linalg.svd
        traced_svd = self._wrap(SVD_SPAN, svd, on_call=self._count_svd_work)
        patches.append((np.linalg, "svd", svd, traced_svd))
        norm_globals = inspect.unwrap(np.linalg.norm).__globals__
        patches.append((norm_globals, "svd", svd, traced_svd))
        return patches

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        if self._installed is None:
            self._installed = self._patches()
        patches = self._installed
        for owner, key, _orig, new in patches:
            _set(owner, key, new)
        try:
            yield self
        finally:
            for owner, key, orig, _new in reversed(patches):
                _set(owner, key, orig)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)
