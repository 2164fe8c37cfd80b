"""Module-level tracing of triagenet, installed from outside the package.

``Tracer.install`` finds every public function and method that a
triagenet module defines, wraps it, and rebinds each name that refers
to it in any triagenet module (``from .model import predict`` copies
included), so calls are seen no matter which module makes them.

Time is self time per layer. A layer is a module plus a bucket (for
example ``model.predict``). A function named in ``BUCKETS`` always
starts its own bucket. Any other function keeps the bucket of its caller
when both live in the same module, so ``predict`` -> ``forward_graph``
counts as ``model.predict``, and otherwise starts its module's ``*``
bucket. The callee's time leaves the caller's self time. A module with
no entry in ``BUCKETS`` (one added after this file) is not wrapped, so
its time stays with its caller. Time in the benchmark's own code between
calls is ``unattributed_s``.

Counts and self times are aggregated in place. Spans (name, start, end,
parent, trace id) are recorded only for shallow, non-autodiff calls and
for the benchmark's own stages, kept in memory and written once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time

# bucket of each entry function; a module's "*" bucket covers the rest
BUCKETS = {
    "corpus": {
        "*": "encode",
        "generate_corpus": "generate",
        "build_lexicon": "generate",
        "oracle_label": "generate",
        "save_corpus": "io",
        "load_corpus": "io",
        "file_sha256": "io",
        "Vocabulary.save": "io",
        "Vocabulary.load": "io",
    },
    "embedding": {"*": "train", "save_table": "io", "load_table": "io"},
    "autodiff": {"*": "forward", "Tensor.backward": "backward"},
    "model": {"*": "forward", "predict": "predict", "save_model": "io", "load_model": "io"},
    "training": {
        "*": "train",
        "adam_step": "adam",
        "evaluate": "evaluate",
        "predict_all": "evaluate",
        "confidence_filter": "evaluate",
        "metrics_from": "evaluate",
        "render_metrics_table": "evaluate",
    },
    "explain": {
        "*": "score",
        "drop_experiment": "drop",
        "drop_dataset": "drop",
        "pair_synergy": "pairs",
        "render_pair_table": "pairs",
        "render_heatmap": "heatmap",
    },
    "cli": {"*": "self", "write_manifest": "manifest"},
}

# per-layer time metrics, in the order BENCHMARK.json lists them
TIME_METRICS = (
    "corpus.generate_s", "corpus.encode_s", "corpus.io_s",
    "embedding.train_s", "embedding.io_s",
    "autodiff.forward_s", "autodiff.backward_s",
    "model.forward_s", "model.predict_s", "model.io_s",
    "training.train_s", "training.adam_s", "training.evaluate_s",
    "explain.score_s", "explain.drop_s", "explain.pairs_s", "explain.heatmap_s",
    "cli.manifest_s", "cli.self_s",
)

SPAN_DEPTH = 3  # calls nested deeper than this are aggregated only


class Tracer:
    def __init__(self, package):
        self.package = package
        self.self_s = {name[:-2]: 0.0 for name in TIME_METRICS}
        self.calls: dict[str, int] = {}
        self.spans: list[dict] = []
        self.trace_id = None
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self._t_start = None
        self._t_stop = None

    # -- installation -------------------------------------------------

    def _modules(self):
        for info in pkgutil.iter_modules(self.package.__path__):
            if info.name != "__main__":
                yield importlib.import_module(f"{self.package.__name__}.{info.name}")

    def install(self) -> None:
        modules = list(self._modules())
        namespaces = [self.package, *modules]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            buckets = BUCKETS.get(short)
            if buckets is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(obj, short, buckets)
                elif inspect.isfunction(obj):
                    wrapper = self._wrap(obj, short, buckets, name)
                    for ns in namespaces:
                        for alias, value in list(vars(ns).items()):
                            if value is obj:
                                self._rebind(ns, alias, wrapper)

    def _wrap_methods(self, cls, short: str, buckets: dict) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, short, buckets, key))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, short, buckets, key)
            else:  # properties and plain attributes stay as they are
                continue
            self._rebind(cls, name, wrapped)

    def _rebind(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _wrap(self, fn, module: str, buckets: dict, key: str):
        named = key in buckets
        bucket = f"{module}.{buckets.get(key, buckets['*'])}"
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        label = f"{module}.{key}"
        spanned = module != "autodiff"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            inherit = not named and parent is not None and parent[0] == module
            own = parent[1] if inherit else bucket
            frame = [module, own, 0.0, None]
            if spanned and len(stack) < SPAN_DEPTH:
                frame[3] = len(spans)
                spans.append({
                    "name": label,
                    "parent": parent[3] if parent is not None else None,
                    "trace": self.trace_id,
                })
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[own] += elapsed - frame[2]
                calls[label] = calls.get(label, 0) + 1
                if parent is not None:
                    parent[2] += elapsed
                if frame[3] is not None:
                    spans[frame[3]]["start"] = start
                    spans[frame[3]]["end"] = start + elapsed

        return traced

    # -- measurement window ---------------------------------------------

    def start(self) -> None:
        self._t_start = time.perf_counter()

    def stop(self) -> None:
        self._t_stop = time.perf_counter()

    def stage(self, name: str, start: float, end: float) -> None:
        """Record one of the benchmark's own stages as a root span."""
        self.spans.append({"name": f"bench.{name}", "parent": None, "trace": name,
                           "start": start, "end": end})

    @property
    def wall_s(self) -> float:
        return self._t_stop - self._t_start

    def count(self, label: str) -> int:
        return self.calls.get(label, 0)

    def count_module(self, module: str, exclude: tuple[str, ...] = ()) -> int:
        prefix = module + "."
        return sum(n for k, n in self.calls.items() if k.startswith(prefix) and k not in exclude)

    def layer_seconds(self) -> dict[str, float]:
        """Self time per layer plus ``unattributed_s``; they sum to ``wall_s``."""
        out = {f"{layer}_s": t for layer, t in self.self_s.items()}
        out["unattributed_s"] = self.wall_s - sum(self.self_s.values())
        return out

    def write(self, path) -> None:
        origin = self._t_start
        spans = [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in self.spans
            if "end" in s
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"wall_s": self.wall_s, "layers": self.layer_seconds(),
                       "calls": dict(sorted(self.calls.items())), "spans": spans}, fh)
