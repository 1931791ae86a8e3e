"""In-memory spans around specrad's public functions, with self times.

A :class:`Tracer` replaces each traced function on every specrad module
attribute that is bound to it -- including the names that ``from .graphs
import ...`` copies into ``connectivity``, ``spectral`` and ``quotient`` --
so calls between modules are seen as nested spans.  It is installed only
around traced passes and :meth:`Tracer.restore` puts the originals back.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Traced names per specrad module; "Class.method" names are patched on the class.
TRACED = {
    "graphs": ("g6_decode", "min_degree", "is_connected", "extremal_graph",
               "Graph.adjacency_matrix"),
    "connectivity": ("connectivity_at_most", "vertex_connectivity", "CutWitness.check"),
    "spectral": ("perron", "perron_rho_batch", "int_charpoly", "exact_compare_rho",
                 "PerronPair.check"),
    "quotient": ("largest_cubic_root", "quotient_matrix", "is_equitable", "quotient_perron"),
    "exactroots": ("poly_gcd", "count_roots_in", "sturm_chain", "square_free_part",
                   "isolate_largest_root", "compare_largest_roots", "largest_real_root"),
}

# Outcome labels counted per call, where the result says whether the work was useful.
OUTCOMES = {
    "connectivity.connectivity_at_most": lambda r: "true" if r else "false",
    "spectral.exact_compare_rho": lambda r: r.value,
}


def self_times(spans):
    """Per-name (calls, self seconds) from (name, start, end, parent, item) spans.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name][0] += 1
        out[name][1] += end - start - child[i]
    return dict(out)


class Tracer:
    """Collects spans and outcome counts while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.outcomes = defaultdict(Counter)
        self.item = -1
        self._stack = []
        self._saved = []

    def _enter(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _exit(self, name, idx, parent, start):
        self.spans[idx] = (name, start, self.clock(), parent, self.item)
        self._stack.pop()

    @contextmanager
    def span(self, name, item):
        """A span opened by the benchmark itself around one item or stage."""
        self.item = item
        idx, parent = self._enter()
        start = self.clock()
        try:
            yield
        finally:
            self._exit(name, idx, parent, start)

    def wrap(self, name, fn):
        outcome = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            idx, parent = self._enter()
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.outcomes[name]["raised"] += 1
                raise
            finally:
                self._exit(name, idx, parent, start)
            if outcome is not None:
                self.outcomes[name][outcome(result)] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function on every module attribute bound to it."""
        mods = {m: importlib.import_module(f"specrad.{m}") for m in TRACED}
        for mod_name, names in TRACED.items():
            for name in names:
                full = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    owner = getattr(mods[mod_name], cls_name)
                    self._patch(owner, meth, self.wrap(full, getattr(owner, meth)))
                    continue
                orig = getattr(mods[mod_name], name)
                wrapper = self.wrap(full, orig)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapper)
        return self

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
