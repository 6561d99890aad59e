"""Outside-in spans around the package's public functions.

`install` replaces each traced function at every module attribute that is
bound to it, so calls between modules go through a wrapper while the
package's source stays untouched.  Recursive walkers keep their own
module's binding, so only the outermost call of a walk is a span.

Spans nest strictly (one thread, one caller), so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function, recursive walker)
TRACED = (
    ("parser", "parse", False),
    ("expr", "effective_intervals", False),
    ("expr", "is_exact", False),
    ("semantics", "evaluate", True),
    ("semantics", "token_consistent", True),
    ("enclosure", "enclosure", False),
    ("enclosure", "to_affine", False),
    ("enclosure", "affine_witness", False),
    ("enclosure", "over_approx", False),
    ("enclosure", "under_approx_samples", False),
    ("enclosure", "membership", False),
    ("blind", "forget_tokens", True),
    ("blind", "blind_enclosure", True),
    ("blind", "blind_compare", False),
    ("rewrite", "licensed", False),
    ("rewrite", "classify", False),
    ("rewrite", "audit_classification", False),
    ("families", "build_pair", False),
    ("cli", "main", False),
)

SPAN_CAP = 20_000


class Tracer:
    """Span stack plus per-name totals; the first SPAN_CAP spans are kept."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.active = False
        self.stack: list[list] = []  # [name, start, child_ns, span_id]
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.edges: Counter = Counter()  # (parent name, name) -> calls
        self.within: Counter = Counter()  # (ancestor module, name) -> calls
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self.dropped = 0
        self.op = 0
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([name, self.clock(), 0, self._next_id])

    def exit(self) -> None:
        end = self.clock()
        name, start, child_ns, span_id = self.stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child_ns
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        self.edges[parent[0] if parent else None, name] += 1
        for module in {frame[0].split(".", 1)[0] for frame in self.stack}:
            self.within[module, name] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[3] if parent else None, self.op, name, start, end))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn, observe=None):
        """Wrapper recording a span; `observe(result, exc)` sees each outcome."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.exit()
                if observe is not None:
                    observe(None, exc)
                raise
            self.exit()
            if observe is not None:
                observe(result, None)
            return result

        return traced

    def count_yields(self, name: str, gen_fn):
        """Wrap a generator function, counting the items it yields."""

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                if self.active:
                    self.counts[name] += 1
                yield item

        return counted


def install(tracer: Tracer, package: str = "enclosures"):
    """Wrap every TRACED function at each binding; return an undo function."""
    mods = {n: m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")}
    enc = mods[f"{package}.enclosure"]
    saved: list[tuple[object, str, object]] = []

    def replace(fn, wrapper, skip_module=None):
        for mod_name, mod in mods.items():
            if mod_name == skip_module:
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    saved.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def observe_samples(result, exc):
        if isinstance(exc, enc.BudgetExceededError):
            tracer.counts["enclosure.envs_kept"] += len(exc.partial)
            tracer.counts["enclosure.truncated"] += 1
        elif exc is None:
            tracer.counts["enclosure.envs_kept"] += len(result)

    for mod_name, fn_name, walker in TRACED:
        full = f"{package}.{mod_name}"
        fn = getattr(mods[full], fn_name)
        observe = observe_samples if fn_name == "under_approx_samples" else None
        wrapper = tracer.wrap(f"{mod_name}.{fn_name}", fn, observe)
        replace(fn, wrapper, full if walker else None)
    stream = enc._env_stream
    replace(stream, tracer.count_yields("enclosure.envs_enumerated", stream))

    def undo():
        for mod, attr, val in reversed(saved):
            setattr(mod, attr, val)

    return undo
