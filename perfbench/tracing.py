"""Timing spans around the package's public functions, installed from outside.

`install` wraps each function named in LAYERS and rebinds the wrapper under
every name that any `char2subword` module holds for the original object (the
defining module, the package namespace and every `from .x import f` copy), so
calls between modules are timed too. `restore` puts every original back.
Spans are kept in memory; `summarize` turns them into per-function calls,
self time (span minus traced child spans) and total time.
"""

import sys
from time import perf_counter

PACKAGE = "char2subword"

# layer -> functions; each function is defined in the module of the same name
LAYERS = {
    "vocab": ("load_vocabulary", "char_sequence", "tokenize_word"),
    "noise": ("sample_noisy",),
    "numerics": ("sinusoidal_pe", "layer_norm", "layer_norm_backward", "softmax_rows",
                 "gelu", "gelu_backward", "cosine_similarity"),
    "model": ("forward", "backward", "load_checkpoint"),
    "objectives": ("load_table", "build_neighbor_index", "rank_neighbors", "combined_loss",
                   "combined_loss_gradient", "loss_cos", "loss_ce", "loss_l2", "loss_nbr"),
    "training": ("train_simulation", "pretrain_mlm", "simulation_sample_loss", "mlm_step",
                 "make_masking_plan", "apply_masking", "corpus_samples"),
    "evaluation": ("embed_vocab", "precision_at_k", "accuracy", "neighbor_query"),
    "embedder": ("embed_sequence",),
}

# ratios of counters kept beside the spans: name -> (numerator, denominator, unit);
# a function name as a counter means its call count
RATIOS = {
    "noise.changed_frac": ("noise.changed", "noise.sample_noisy", "fraction"),
    "model.chars_per_forward": ("model.chars", "model.forward", "chars"),
    "embedder.backoff_frac": ("embedder.backoff", "embedder.words", "fraction"),
}


def _bump(counts, key, n):
    counts[key] = counts.get(key, 0) + n


def _observe_sample_noisy(counts, args, kwargs, result):
    _bump(counts, "noise.changed", int(result != args[0]))


def _observe_forward(counts, args, kwargs, result):
    _bump(counts, "model.chars", len(args[1]))


def _observe_embed_sequence(counts, args, kwargs, result):
    _bump(counts, "embedder.words", len(result.provenance))
    _bump(counts, "embedder.backoff", result.provenance.count("char2subword"))


OBSERVERS = {
    "noise.sample_noisy": _observe_sample_noisy,
    "model.forward": _observe_forward,
    "embedder.embed_sequence": _observe_embed_sequence,
}


def package_modules():
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def snapshot():
    """Every attribute of every loaded package module, to compare by identity."""
    return {(mname, attr): val for mname, mod in package_modules().items()
            for attr, val in vars(mod).items()}


def changed_bindings(before, after):
    """Keys whose value differs by identity, or that exist on one side only."""
    keys = set(before) | set(after)
    return sorted(k for k in keys if before.get(k, before) is not after.get(k, before))


class Tracer:
    """Records (name, parent index, start, end) spans and observer counts."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._rebound = []

    def wrap(self, name, fn, observe=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, start, end)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        for layer, fns in LAYERS.items():
            home = modules[f"{PACKAGE}.{layer}"]
            for fname in fns:
                orig = getattr(home, fname)
                name = f"{layer}.{fname}"
                wrapper = self.wrap(name, orig, OBSERVERS.get(name))
                for mod in modules.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, orig))

    def restore(self):
        for mod, attr, orig in reversed(self._rebound):
            setattr(mod, attr, orig)
        self._rebound = []


def self_times(spans):
    """name -> [calls, self seconds, total seconds] over a list of spans.

    A span's self time is its duration minus the durations of its direct
    children; spans nest because the program is single-threaded.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, parent, start, end) in enumerate(spans):
        rec = out.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += (end - start) - child[i]
        rec[2] += end - start
    return out


def summarize(tracer):
    """Per-layer metrics: <layer>.<fn>.calls/self_s/total_s, <layer>.self_s, ratios."""
    per_fn = self_times(tracer.spans)
    metrics = {}
    for layer, fns in LAYERS.items():
        layer_self = 0.0
        for fname in fns:
            calls, self_s, total_s = per_fn.get(f"{layer}.{fname}", (0, 0.0, 0.0))
            metrics[f"{layer}.{fname}.calls"] = (calls, "count")
            metrics[f"{layer}.{fname}.self_s"] = (self_s, "s")
            metrics[f"{layer}.{fname}.total_s"] = (total_s, "s")
            layer_self += self_s
        metrics[f"{layer}.self_s"] = (layer_self, "s")
    counts = dict(tracer.counts)
    counts.update((name, rec[0]) for name, rec in per_fn.items())
    for ratio, (num, den, unit) in RATIOS.items():
        d = counts.get(den, 0)
        metrics[ratio] = (counts.get(num, 0) / d if d else 0.0, unit)
    return metrics
