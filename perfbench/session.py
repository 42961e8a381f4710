"""One workload session: set-up, the timed phases, and the correctness checks.

Every library call goes through a module attribute (`training.train_simulation`,
not a name imported into this file), so the wrappers that `tracing` installs
are the ones called. The session is closed-loop with a single client.
"""

import hashlib
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

from char2subword import embedder, evaluation, model, noise, objectives, training, vocab

import refclock

# The model is the CLI default: d_char 16, 2 layers, 2 heads, d_out = table width.
D_CHAR, N_LAYERS, N_HEADS = 16, 2, 2
NBR_K, EVAL_K, QUERY_N = 5, 15, 5
MIN_QUERIES = 100
EMBED_CHUNK = 100  # corpus lines per timed call, so that marks fall inside the phase

# The oracles call the untraced originals, so their work never shows in spans.
_forward = model.forward
_char_sequence = vocab.char_sequence

SPECS = {
    # the test scale: per-call Python overhead dominates, table ops are negligible
    "toy": dict(words=46, dim=16, table_format="text", piece_frac=0.0, oov_frac=0.3,
                embed_mode="full", lines=120, mlm_lines=120, queries=200, min_rounds=1,
                setup_reps=3, sim_epochs=5, mlm_epochs=2, eval_reps=20, train_rows=None,
                checkpoint=False),
    # reference scale: a saved checkpoint serving hybrid embeddings and queries
    # over 30k x 768, with MLM logits over all 30k rows. The seed's dense index
    # cannot hold 30k x 30k, so simulate and eval run on a slice of the first
    # `train_rows` entries at mBERT width, where the table-bound losses, the
    # ranking and the dense index dominate. 2 rounds x 50 queries give
    # MIN_QUERIES latencies; set-up runs twice per round so that its median
    # is not the first, cold one.
    "serve": dict(words=29999, dim=768, table_format="binary", piece_frac=0.15,
                  oov_frac=0.2, embed_mode="hybrid", lines=1000, mlm_lines=40, queries=50,
                  min_rounds=2, setup_reps=2, sim_epochs=1, mlm_epochs=1, eval_reps=1,
                  train_rows=1024, checkpoint=True),
}

END_TO_END_UNITS = {
    "setup_s": "s", "simulate_samples_per_s": "1/s", "pretrain_tokens_per_s": "1/s",
    "eval_tokens_per_s": "1/s", "embed_words_per_s": "1/s", "query_p50_ms": "ms",
    "query_p90_ms": "ms", "peak_rss_mb": "MB", "sim_final_loss": "loss",
    "mlm_final_loss": "loss",
}


class Ledger:
    """Operations attempted and failed; a failure is a raised exception or a
    failed correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, what, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok


def matrix_sha(matrix):
    return hashlib.sha256(memoryview(np.ascontiguousarray(matrix)).cast("B")).hexdigest()


def oracle_top(matrix, norms, vec, n):
    """Brute-force top-n rows by cosine to `vec`, ties broken by ascending id."""
    sims = (matrix @ vec) / (norms * np.linalg.norm(vec))
    order = np.lexsort((np.arange(len(sims)), -sims))[:n]
    return order, sims[order]


def index_mismatches(index, matrix, rows):
    """Rows of a NeighborIndex whose ids differ from the brute-force oracle."""
    norms = np.linalg.norm(matrix, axis=1)
    return [int(i) for i in rows
            if not np.array_equal(index.ids[i], oracle_top(matrix, norms, matrix[i], index.k)[0])]


class State:
    """What set-up produces: loaded inputs, the training slice and its indexes."""

    def __init__(self, spec, paths):
        self.vocab = vocab.load_vocabulary(str(paths["vocab.txt"]))
        self.alphabet = vocab.build_alphabet(self.vocab)
        self.table = objectives.load_table(str(paths["table"]))
        self.checkpoint = None
        if spec["checkpoint"]:
            self.checkpoint = model.load_checkpoint(str(paths["model.c2sw"]))
        with open(paths["corpus.txt"], encoding="utf-8") as fh:
            self.corpus = [ln.rstrip("\n") for ln in fh if ln.strip()]
        self.samples = training.corpus_samples(self.vocab, self.alphabet,
                                               self.corpus[:spec["mlm_lines"]])
        rows = spec["train_rows"]
        if rows:
            self.train_vocab = vocab.load_vocabulary(self.vocab.entries[:rows])
            self.train_table = objectives.EmbeddingTable(matrix=self.table.matrix[:rows])
        else:
            self.train_vocab, self.train_table = self.vocab, self.table
        self.nbr_index = objectives.build_neighbor_index(
            self.train_table, min(NBR_K, self.train_table.size))
        self.eval_index = objectives.build_neighbor_index(
            self.train_table, min(EVAL_K, self.train_table.size))


class Session:
    """The fixed sequence of library calls for one workload and seed.

    One round runs set-up `setup_reps` times and every phase once, with
    `queries` neighbor queries. `run` repeats rounds until `seconds` have
    passed and at least `min_rounds` ran. Every call is timed on a
    `refclock.RefClock`, which rescales it to the host's reference speed.
    A shared machine's speed can also swing by 2x within seconds, so short
    phases are sampled across the whole run: a throughput is all units done
    over all time spent, set-up time is the median over set-ups, and query
    latencies are pooled over rounds. Every round must reproduce the first
    round's outputs bit for bit.
    """

    def __init__(self, spec, paths, seed, queries):
        self.spec, self.paths, self.seed = spec, paths, seed
        self.queries = queries[:spec["queries"]]
        self.ledger = Ledger()
        self.clock = refclock.RefClock()
        self.setup_times = []  # spans, as are the two below
        self.work = {}        # throughput metric -> [units done, [spans]], all rounds
        self.latencies = []   # every neighbor_query, all rounds
        self.outputs = None   # phase -> digest, from the first round
        self.values = {}      # metric -> reported value
        self.info = {}        # printed facts: sample counts, shares
        self.rounds = 0

    def run(self, seconds, min_rounds):
        start = perf_counter()
        while True:
            outputs = self._round(first=self.outputs is None)
            if outputs is None:
                break
            self.rounds += 1
            if self.outputs is None:
                self.outputs = outputs
            else:
                self.ledger.check(all(self.outputs[k] == v for k, v in outputs.items()),
                                  "round repeats the first bit for bit")
            if self.rounds >= min_rounds and perf_counter() - start >= seconds:
                break
        clock = self.clock
        clock.mark()
        if self.setup_times:
            self.values["setup_s"] = statistics.median(map(clock.seconds, self.setup_times))
        for k, (units, spans) in self.work.items():
            self.values[k] = units / sum(map(clock.seconds, spans))
            self.info[f"wall.{k}"] = units / sum(raw for raw, _ in spans)
        if len(self.latencies) >= MIN_QUERIES:
            deciles = statistics.quantiles(map(clock.seconds, self.latencies), n=10)
            self.values["query_p50_ms"] = deciles[4] * 1e3
            self.values["query_p90_ms"] = deciles[8] * 1e3
        self.info.update(rounds=self.rounds, query_samples=len(self.latencies),
                         ref_marks=len(clock.refs),
                         ref_median_s=statistics.median(r for runs in clock.refs for r in runs))

    def _add(self, metric, units, *spans):
        w = self.work.setdefault(metric, [0, []])
        w[0] += units
        w[1].extend(spans)

    def _timed(self, what, fn, *args, **kwargs):
        return self.ledger.call(what, self.clock.timed, fn, *args, **kwargs)

    def _round(self, first):
        """One session; returns {phase: output digest}, or None on a failure."""
        spec, ledger = self.spec, self.ledger
        st = None
        for _ in range(spec["setup_reps"]):
            st = r = None  # keep one State alive at a time
            r = self._timed("setup", State, spec, self.paths)
            if r is None:
                return None
            self.setup_times.append(r[0])
            st = r[1]
        shas = {id(t): matrix_sha(t.matrix) for t in (st.table, st.train_table)}
        if first:
            self._check_indexes(st)

        if st.checkpoint is not None:
            served, chars, _ = st.checkpoint
            if first:
                ledger.check(list(chars) == list(st.alphabet.chars),
                             "checkpoint alphabet equals the vocabulary's alphabet")
            init = served
        else:
            init = served = model.init_params(
                model.ModelConfig(d_char=D_CHAR, d_out=st.table.dim, n_layers=N_LAYERS,
                                  n_heads=N_HEADS), len(st.alphabet), self.seed)

        outputs = {}
        trained = self._simulate(st, init, outputs)
        if trained is None:
            return None
        if st.checkpoint is None:
            served = trained
        # query chunks run between the other phases, so latency samples
        # spread over the round
        phases = (lambda: self._pretrain(st, served, outputs),
                  lambda: self._eval(st, trained, outputs),
                  lambda: self._embed(st, served, outputs, first))
        n, results = len(self.queries), []
        for i, phase in enumerate(phases):
            chunk = self.queries[i * n // len(phases):(i + 1) * n // len(phases)]
            if not (phase() and self._query(st, served, chunk, results)):
                return None
        if first:
            self._check_queries(st, served, results)
        outputs["query"] = _digest(results)
        for t in (st.table, st.train_table):
            ledger.check(matrix_sha(t.matrix) == shas[id(t)],
                         "embedding table unchanged by the session")
        return outputs

    # -- phases: each records its metric and output digest ----------------
    def _simulate(self, st, params, outputs):
        cfg = training.TrainConfig(
            epochs=self.spec["sim_epochs"], seed=self.seed,
            noise=noise.NoiseConfig(layouts=tuple(noise.default_layouts())))
        r = self._timed("train_simulation", training.train_simulation, params,
                             st.train_vocab, st.train_table, st.alphabet, cfg,
                             index=st.nbr_index, eval_every=0)
        if r is None:
            return None
        span, (trained, metrics) = r
        losses = [m[k] for m in metrics for k in ("total", "cos", "ce", "l2", "nbr")]
        self.ledger.check(bool(np.isfinite(losses).all()), "simulation losses finite")
        self._add("simulate_samples_per_s", cfg.epochs * len(st.train_vocab.non_special_ids()),
                  span)
        self.values["sim_final_loss"] = metrics[-1]["total"]
        outputs["simulate"] = _digest(losses, *trained.tensors.values())
        return trained

    def _pretrain(self, st, params, outputs):
        cfg = training.TrainConfig(epochs=self.spec["mlm_epochs"], seed=self.seed)
        r = self._timed("pretrain_mlm", training.pretrain_mlm, params, st.samples,
                        st.vocab, st.table, st.alphabet, cfg)
        if r is None:
            return False
        span, (trained, metrics) = r
        runs = [(m["mlm_loss"], m["selected"]) for m in metrics]
        tokens = sum(sel for _, sel in runs)
        self.ledger.check(tokens > 0 and all(np.isfinite(l) for l, _ in runs),
                          "MLM selected tokens and finite losses")
        self._add("pretrain_tokens_per_s", tokens, span)
        self.values["mlm_final_loss"] = runs[-1][0]
        self.info["pretrain_selected_tokens"] = tokens
        outputs["pretrain"] = _digest(runs, *trained.tensors.values())
        return True

    def _eval(self, st, params, outputs):
        spans = []
        for _ in range(self.spec["eval_reps"]):
            r = self._timed("embed_vocab", evaluation.embed_vocab, params, st.train_vocab,
                            st.alphabet)
            if r is None:
                return False
            spans.append(r[0])
            embedded = r[1]
            r = self._timed("precision_at_k", evaluation.precision_at_k, params,
                            st.train_vocab, st.train_table, st.eval_index, st.alphabet,
                            k_max=EVAL_K, embedded=embedded)
            if r is None:
                return False
            spans.append(r[0])
        (ids, vecs), report = embedded, r[1]
        self.ledger.check(bool(np.isfinite(vecs).all()), "eval vectors finite")
        self._add("eval_tokens_per_s", self.spec["eval_reps"] * len(ids), *spans)
        outputs["eval"] = _digest(report.accuracy, sorted(report.precision_at.items()), vecs)
        return True

    def _embed(self, st, params, outputs, first):
        mode = embedder.EmbedMode(self.spec["embed_mode"])

        def embed_lines(lines):
            return [embedder.embed_sequence(mode, line, st.vocab, st.table, params=params,
                                            alphabet=st.alphabet) for line in lines]

        out, spans = [], []
        for i in range(0, len(st.corpus), EMBED_CHUNK):
            r = self._timed("embed_sequence", embed_lines, st.corpus[i:i + EMBED_CHUNK])
            if r is None:
                return False
            spans.append(r[0])
            out.extend(r[1])
        words = sum(len(line.split()) for line in st.corpus)
        if first:
            self._check_embeddings(st, mode, out, words)
        self._add("embed_words_per_s", words, *spans)
        outputs["embed"] = _digest([e.provenance for e in out],
                                   *[np.asarray(e.vectors) for e in out])
        return True

    def _query(self, st, params, queries, results):
        for q in queries:
            r = self._timed("neighbor_query", evaluation.neighbor_query, params,
                            st.table, st.vocab, st.alphabet, q, n=QUERY_N)
            if r is None:
                return False
            self.latencies.append(r[0])
            results.append(r[1])
        return True

    # -- checks -----------------------------------------------------------
    def _check_indexes(self, st):
        m = st.train_table.matrix
        rows = np.random.default_rng(self.seed).choice(len(m), size=min(32, len(m)),
                                                       replace=False)
        for index in (st.nbr_index, st.eval_index):
            bad = index_mismatches(index, m, rows)
            self.ledger.check(not bad, f"neighbor index k={index.k} rows {bad} match oracle")

    def _check_queries(self, st, params, results):
        m = st.table.matrix
        norms = np.linalg.norm(m, axis=1)
        for q, got in zip(self.queries, results):
            seq = _char_sequence(q, True, st.alphabet, max_chars=params.config.max_chars)
            ids, sims = oracle_top(m, norms, _forward(params, seq)[0], QUERY_N)
            want = [st.vocab.token(int(i)) for i in ids]
            ok = ([t for t, _ in got] == want
                  and np.allclose([s for _, s in got], sims, rtol=0, atol=1e-12))
            self.ledger.check(ok, f"neighbor_query {q!r}: {got} vs oracle {want}")

    def _check_embeddings(self, st, mode, out, words):
        ok = sum(len(e.vectors) for e in out) == words
        backoff = 0
        for e in out:
            for piece, tag, vec in zip(e.pieces, e.provenance, e.vectors):
                ok = ok and bool(np.isfinite(vec).all())
                if mode == embedder.EmbedMode.HYBRID and piece in st.vocab:
                    ok = ok and tag == "table" and np.array_equal(
                        vec, st.table.row(st.vocab.id_of[piece]))
                else:
                    ok = ok and tag == "char2subword"
                    backoff += 1
        self.info["embed_words"] = words
        self.info["embed_backoff_frac"] = backoff / words
        self.ledger.check(ok, f"{mode.value} embeddings: table rows exact, vectors finite")


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()
