"""Spans and work counts recorded around calls into skomni's public functions.

The program has no tracing of its own, so ``Tracer.install`` wraps the
public functions of each module (and the ``entropy`` method of every
oracle) from the outside, in every ``skomni`` module namespace that holds
a reference to them, and ``uninstall`` puts the originals back.

Each wrapped call is a span with a name, a tag and its parent.  The tag is
the class of the call's first argument (the oracle class for analysis
functions, so ``TabularOracle``, ``ExtendedPrecisionOracle`` or
``PinOracle``) or, for the simplex, the scalar type it pivots over.
Spans are aggregated in memory into calls, inclusive time and self time
(duration minus the time covered by child spans) per name; the first
``SPAN_LIMIT`` non-leaf spans are also kept whole for ``write_spans``.

Two kinds of call are too frequent for a span each and are only counted:
``subsets.check_subset`` and entropy queries that repeat a subset already
asked of the same oracle.  The first query of a subset on an oracle is an
entropy evaluation (a cache miss in the current oracles) and gets a span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

SPAN_LIMIT = 20_000

#: (module, attribute, span name) for the plain functions that get spans.
FUNCTION_SPANS = (
    ("skomni.cli", "main", "cli.main"),
    ("skomni.cli", "_load_model", "cli.load"),
    ("skomni.sources", "load_source", "cli.load"),
    ("skomni.pin", "load_pin_graph", "cli.load"),
    ("skomni.partitions", "enumerate_partitions", "partitions.enumerate"),
    ("skomni.capacity", "sk_capacity", "capacity.search"),
    ("skomni.capacity", "singleton_minimizer_check", "capacity.isolating"),
    ("skomni.pin", "pin_capacity", "pin.capacity"),
    ("skomni.silent_rate", "build_rate_region", "silent_rate.region"),
    ("skomni.silent_rate", "min_sum_rate", "silent_rate.min_sum"),
    ("skomni.simplex", "solve_min_cover", "simplex.solve"),
    ("skomni.omnivocality", "verdict_by_condition", "omnivocality.verdict"),
    ("skomni.omnivocality", "verdict_by_lp", "omnivocality.verdict"),
    ("skomni.omnivocality", "verdict_for_three_terminals", "omnivocality.verdict"),
    ("skomni.omnivocality", "probe_conjecture", "omnivocality.verdict"),
    ("skomni.omnivocality", "hunt_record", "omnivocality.verdict"),
    ("skomni.generators", "random_source", "generators.random_source"),
)

#: (module, class) whose ``from_json_dict`` classmethod is a model load.
LOADER_CLASSES = (("skomni.sources", "JointSource"), ("skomni.pin", "PinGraph"))

#: (module, class) whose ``entropy`` method answers subset-entropy queries.
ORACLE_CLASSES = (
    ("skomni.sources", "TabularOracle"),
    ("skomni.sources", "ExtendedPrecisionOracle"),
    ("skomni.pin", "PinOracle"),
)

#: Work counts read off the value a traced function returns.
RESULT_COUNTS = {
    "sk_capacity": lambda r: {"capacity.partitions_examined": r.partitions_examined},
    "singleton_minimizer_check": lambda r: {"capacity.comparisons": r.comparisons},
    "pin_capacity": lambda r: {"pin.partitions_examined": r.partitions_examined},
    "build_rate_region": lambda r: {"silent_rate.constraints": len(r.constraints)},
    "min_sum_rate": lambda r: {"silent_rate.lps": 1},
    "solve_min_cover": lambda r: {"simplex.pivots": r.pivots},
    "probe_conjecture": lambda r: {
        f"omnivocality.class.{r.classification.value}": 1,
        "omnivocality.reverified": int(r.reverified),
    },
    "random_source": lambda r: {"generators.sources": 1},
}

#: Names whose inclusive time counts only at the outermost span.
_OUTERMOST = {"cli.load"}
_EXTENDED = "ExtendedPrecisionOracle"


def _tag(args, kwargs) -> str:
    if "one" in kwargs:
        return type(kwargs["one"]).__name__
    return type(args[0]).__name__ if args else ""


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.entropy_queries = 0
        self.check_subset_calls = 0
        self.extended_s = 0.0
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [child seconds, span id]
        self._depth: Counter = Counter()
        self._extended_depth = 0
        self._next_id = 0
        self._oracles: dict[int, tuple] = {}  # id -> (oracle, subsets seen)
        self._patches: list[tuple] = []

    # -- aggregation -------------------------------------------------------

    def _enter(self) -> list:
        self._next_id += 1
        frame = [0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def _leave(self, frame, name, tag, start, end, keep=True) -> None:
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_time[name] += duration - frame[0]
        if name not in _OUTERMOST or not self._depth[name]:
            self.incl[name] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[0] += duration
        if keep and len(self.spans) < SPAN_LIMIT:
            self.spans.append((frame[1], parent[1] if parent else 0, name, tag, start, end))

    def span(self, name, tag, fn, args, kwargs, keep=True):
        extended = tag == _EXTENDED
        self._depth[name] += 1
        self._extended_depth += extended
        frame = self._enter()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._depth[name] -= 1
            self._extended_depth -= extended
            self._leave(frame, name, tag, start, end, keep)
            if extended and not self._extended_depth:
                self.extended_s += end - start
        return result

    def end_call(self) -> None:
        """Forget per-oracle query history once a CLI call has returned."""
        self._oracles.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap_function(self, fn, name):
        tracer = self
        counts = self.counts

        if name == "partitions.enumerate":
            def wrapper(*args, **kwargs):
                return tracer._timed_steps(fn(*args, **kwargs), name)
        elif name == "cli.main":
            def wrapper(argv=None):
                try:
                    return tracer.span(name, argv[0] if argv else "", fn, (argv,), {})
                finally:
                    tracer.end_call()
        else:
            counted = RESULT_COUNTS.get(fn.__name__)

            def wrapper(*args, **kwargs):
                result = tracer.span(name, _tag(args, kwargs), fn, args, kwargs)
                if counted is not None:
                    counts.update(counted(result))
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_steps(self, iterator, name):
        """Time each step of a generator as a leaf span of the consumer."""
        while True:
            frame = self._enter()
            start = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._leave(frame, name, "", start, time.perf_counter(), keep=False)
            self.counts["partitions.enumerated"] += 1
            yield item

    def _wrap_entropy(self, fn, marginal_scans: bool):
        tracer = self
        oracles = self._oracles
        counts = self.counts

        def entropy(oracle, subset):
            tracer.entropy_queries += 1
            entry = oracles.get(id(oracle))
            if entry is None:
                entry = oracles[id(oracle)] = (oracle, set())
            seen = entry[1]
            if subset == 0 or subset in seen:
                return fn(oracle, subset)
            seen.add(subset)
            counts["sources.entropy_evals"] += 1
            if not marginal_scans and hasattr(oracle, "source"):
                counts["sources.atoms_scanned"] += len(oracle.source.atoms)
            return tracer.span("sources.fill", type(oracle).__name__, fn, (oracle, subset), {}, False)

        entropy.__wrapped__ = fn
        return entropy

    def _wrap_check_subset(self, fn):
        tracer = self

        def check_subset(*args, **kwargs):
            tracer.check_subset_calls += 1
            return fn(*args, **kwargs)

        check_subset.__wrapped__ = fn
        return check_subset

    def _wrap_marginal(self, fn):
        counts = self.counts

        def marginal(source, subset):
            counts["sources.atoms_scanned"] += len(source.atoms)
            return fn(source, subset)

        marginal.__wrapped__ = fn
        return marginal

    # -- install -----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "skomni" and not mod_name.startswith("skomni."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function; all skomni modules must be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name in FUNCTION_SPANS:
            original = getattr(sys.modules[mod_name], attr, None)
            if original is None and attr.startswith("_"):
                continue  # private helpers are traced only while they exist
            self._replace_everywhere(original, self._wrap_function(original, name))
        sources = sys.modules["skomni.sources"]
        self._replace_everywhere(sources.marginal, self._wrap_marginal(sources.marginal))
        subsets = sys.modules["skomni.subsets"]
        self._replace_everywhere(subsets.check_subset, self._wrap_check_subset(subsets.check_subset))
        for mod_name, cls_name in LOADER_CLASSES:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = vars(cls)["from_json_dict"]
            func = original.__func__
            tracer = self

            def load(klass, *args, _func=func, **kwargs):
                return tracer.span("cli.load", klass.__name__, _func, (klass,) + args, kwargs)

            self._patches.append((cls, "from_json_dict", original))
            setattr(cls, "from_json_dict", classmethod(load))
        for mod_name, cls_name in ORACLE_CLASSES:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = vars(cls)["entropy"]
            self._patches.append((cls, "entropy", original))
            setattr(cls, "entropy", self._wrap_entropy(original, cls_name == "TabularOracle"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Every counter and per-name time, as one flat dict."""
        out: dict = dict(self.counts)
        out["sources.entropy_queries"] = self.entropy_queries
        out["subsets.check_subset_calls"] = self.check_subset_calls
        out["omnivocality.reverify_s"] = self.extended_s
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_time[name]
            out[f"{name}.incl_s"] = self.incl[name]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, tag, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "tag": tag,
                    "start": start, "end": end,
                }) + "\n")


def is_count(key: str) -> bool:
    """Snapshot keys that must repeat exactly when the same work is redone."""
    return not key.endswith("_s")
