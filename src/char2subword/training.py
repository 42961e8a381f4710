"""Simulation training (mimic the frozen table under noise) and character-level
MLM pre-training.

Both trainers are deterministic per (seed, config, inputs) and never write to
the embedding table: EmbeddingTable holds it in read-only buffers, so a write
raises ValueError where it is attempted.
"""

import random
from dataclasses import dataclass, field

import numpy as np

from . import evaluation, model as model_mod
from .noise import NoiseConfig, sample_noisy
from .objectives import LossWeights, build_neighbor_index, check_vocab_size, loss_and_grad
from .vocab import (
    MASK_CHAR_INDEX,
    MAX_CHARS,
    UNK,
    CharSequence,
    char_sequence,
    tokenize_word,
    whitespace_split,
)


# Adam's moment decays and denominator epsilon.
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# MLM selects a token with SELECT_P; per character: mask with MASK_P, randomize
# with RANDOMIZE_P, else keep.
SELECT_P = 0.15
MASK_P, RANDOMIZE_P = 0.8, 0.1


class TrainingError(RuntimeError):
    """Raised when training has no data or hits a non-finite loss, parameter or output."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    seed: int
    lr: float = 3e-3
    batch_size: int = 32
    weights: LossWeights = field(default_factory=LossWeights)
    noise: NoiseConfig = None  # None disables augmentation
    nbr_k: int = 5

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.lr < float("inf"):  # also rejects NaN
            raise ValueError(f"learning rate must be finite and > 0, got {self.lr}")
        if self.nbr_k < 1:
            raise ValueError(f"nbr_k must be >= 1, got {self.nbr_k}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


class _Adam:
    """Adam over the flat parameter vector; m and v are flat vectors too."""

    def __init__(self, lr, size):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, params, grads):
        g = grads.flat
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        self.m *= BETA1
        self.m += (1.0 - BETA1) * g
        self.v *= BETA2
        self.v += (1.0 - BETA2) * (g * g)
        params.flat -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)


def batch_loss(params, seqs, target_ids, e_table, index, weights, sample_weights):
    """Forward, loss_and_grad and backward over a batch of samples.

    Forward and backward run in the passes of model.split_passes; the
    predictions of all passes meet in one loss_and_grad call, so the table is
    streamed once per batch. Returns (per-sample totals, per-sample loss
    terms, gradient of sum_b sample_weights[b] * total_b as a
    Char2SubwordParams); an empty batch has a zero gradient.
    """
    passes = model_mod.split_passes(seqs)
    e_hat = np.empty((len(seqs), params.config.d_out))
    caches = []  # every pass's cache stays live until its backward
    for rows in passes:
        e_hat[rows], _, cache = model_mod.forward_batch(params, [seqs[i] for i in rows])
        caches.append(cache)
    totals, parts, d_ehat = loss_and_grad(target_ids, e_hat, e_table, index, weights)
    d_ehat *= np.asarray(sample_weights, dtype=np.float64)[:, None]
    grads = model_mod.Char2SubwordParams.zeros(params.config, params.alphabet_size)
    for rows, cache in zip(passes, caches):
        grads.flat += model_mod.backward_batch(params, cache, d_ehat[rows]).flat
    return totals, parts, grads


def simulation_sample_loss(params, seq, target_id, e_table, index, weights):
    """Forward, loss, and full parameter gradient (named views) for one simulation sample."""
    totals, parts, grads = batch_loss(params, [seq], [target_id], e_table, index, weights,
                                      [1.0])
    return float(totals[0]), {k: float(v[0]) for k, v in parts.items()}, grads.tensors


def _train(params, vocab, e_table, index, loss_weights, config, epoch_batches,
           epoch_record):
    """The loop both trainers share: Adam over batch_loss, the table frozen.

    `epoch_batches(rng)` yields an epoch's Adam batches as (seqs,
    target_ids, sample_weights, steps), where steps[i] is the step that
    sample i belongs to. `epoch_record(params, epoch, sums, count)` turns the
    loss sums of the epoch's `count` samples into its metrics record.
    Returns (trained copy of params, per-epoch metrics).
    """
    check_vocab_size(e_table, vocab)
    if e_table.dim != params.config.d_out:
        raise ValueError(
            f"table width {e_table.dim} != model output width {params.config.d_out}"
        )
    rng = random.Random(config.seed)
    params = params.copy()
    opt = _Adam(config.lr, params.flat.size)

    metrics = []
    last_seqs = None  # the last Adam step's batch: one forward on it ends training
    for epoch in range(config.epochs):
        sums = dict.fromkeys(("total", "cos", "ce", "l2", "nbr"), 0.0)
        count = 0
        for seqs, target_ids, sample_weights, steps in epoch_batches(rng):
            totals, parts, grads = batch_loss(params, seqs, target_ids, e_table, index,
                                              loss_weights, sample_weights)
            bad = np.flatnonzero(~np.isfinite(totals))
            if bad.size:
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, step {steps[bad[0]]}, "
                    f"token {vocab.token(target_ids[bad[0]])!r}"
                )
            sums["total"] += float(totals.sum())
            for k, v in parts.items():
                sums[k] += float(v.sum())
            count += len(seqs)
            opt.step(params, grads)
            last_seqs = seqs
        if not np.isfinite(params.flat).all():  # the last step's loss is never computed
            raise TrainingError(f"non-finite parameters after the last step of epoch {epoch}")
        metrics.append(epoch_record(params, epoch, sums, count))

    if last_seqs and not np.isfinite(model_mod.forward_batch(params, last_seqs[:1])[0]).all():
        # finite but huge parameters overflow; MLM's epoch records run no forward pass
        raise TrainingError("non-finite output after the last step of training")
    return params, metrics


def train_simulation(params, vocab, e_table, alphabet, config, index=None, eval_every=1):
    """Train f_theta to mimic the frozen table over the vocabulary entries.

    Returns (trained params, per-epoch metrics list). Targets are the clean
    table rows even when the input characters are noised. Each Adam step
    runs its `config.batch_size` samples through one batch_loss call.
    """
    # one ranking of the table serves both indexes: each is a prefix of the deeper
    nbr_k = min(config.nbr_k, e_table.size)
    eval_k = min(evaluation.EVAL_K, e_table.size) if eval_every else 0
    if index is None:
        ranked = build_neighbor_index(e_table, max(nbr_k, eval_k))
        index = ranked.prefix(nbr_k)
    elif eval_k:
        ranked = build_neighbor_index(e_table, eval_k)
    eval_index = ranked.prefix(eval_k) if eval_k else None
    sample_ids = vocab.non_special_ids()

    def chars_of(token):
        return char_sequence(token, False, alphabet, max_chars=params.config.max_chars)

    clean_seqs = {i: chars_of(vocab.token(i)) for i in sample_ids}

    def epoch_batches(rng):
        order = list(sample_ids)
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            seqs = []
            for i in batch:  # noise draws follow the sample order
                token = vocab.token(i)
                noised = token if config.noise is None else sample_noisy(token, rng,
                                                                          config.noise)
                seqs.append(clean_seqs[i] if noised == token else chars_of(noised))
            yield (seqs, batch, np.full(len(batch), 1.0 / len(batch)),
                   range(start, start + len(batch)))

    def epoch_record(trained, epoch, sums, count):
        record = {"epoch": epoch, **{k: v / count for k, v in sums.items()}}
        if eval_every and (epoch % eval_every == 0 or epoch == config.epochs - 1):
            embedded = evaluation.embed_vocab(trained, vocab, alphabet)
            if not np.isfinite(embedded[1]).all():  # finite but huge parameters overflow
                raise TrainingError(f"non-finite vocabulary embeddings after epoch {epoch}")
            report = evaluation.precision_at_k(
                trained, vocab, e_table, eval_index, alphabet,
                k_max=eval_index.k, embedded=embedded)
            record["accuracy"] = report.accuracy
            record["prec1"] = report.precision_at[1]
            record["prec15"] = report.precision_at[eval_index.k]
        return record

    return _train(params, vocab, e_table, index, config.weights, config, epoch_batches,
                  epoch_record)


@dataclass(frozen=True)
class MaskedToken:
    position: int
    target_id: int
    actions: tuple  # per character: "mask" | "randomize" | "keep"


@dataclass(frozen=True)
class MaskingPlan:
    entries: tuple

    def __len__(self):
        return len(self.entries)


def make_masking_plan(token_ids, char_seqs, rng):
    """Select tokens with SELECT_P; draw 80/10/10 per-character actions for each."""
    if len(token_ids) != len(char_seqs):
        raise ValueError("token_ids and char_seqs must be aligned")
    entries = []
    for pos, (tid, seq) in enumerate(zip(token_ids, char_seqs)):
        if rng.random() >= SELECT_P:
            continue
        actions = []
        for _ in seq.chars:
            u = rng.random()
            if u < MASK_P:
                actions.append("mask")
            elif u < MASK_P + RANDOMIZE_P:
                actions.append("randomize")
            else:
                actions.append("keep")
        entries.append(MaskedToken(position=pos, target_id=tid, actions=tuple(actions)))
    return MaskingPlan(entries=tuple(entries))


def apply_masking(plan, char_seqs, alphabet, rng):
    """Render the plan: MASK_CHAR for mask, a different ordinary character for
    randomize, untouched for keep. Returns masked sequences aligned to plan."""
    ordinary = list(alphabet.ordinary_indices())
    masked = []
    for entry in plan.entries:
        seq = char_seqs[entry.position]
        chars = list(seq.chars)
        for pos, action in enumerate(entry.actions):
            if action == "mask":
                chars[pos] = MASK_CHAR_INDEX
            elif action == "randomize":
                choices = [c for c in ordinary if c != chars[pos]]
                if choices:
                    chars[pos] = rng.choice(choices)
        masked.append(CharSequence(token=seq.token, chars=tuple(chars),
                                   is_full_word=seq.is_full_word))
    return masked


_CE_ONLY = LossWeights(l_cos=0.0, l_ce=1.0, l_l2=0.0, l_nbr=0.0)


def mlm_step(params, masked_seqs, targets, e_table):
    """Mean CE of frozen-table predictions over the selected tokens (0 for none).

    Returns (loss, grads), grads as named views of one vector; gradients flow
    only into char2subword parameters.
    """
    n = max(len(masked_seqs), 1)
    ce, _, grads = batch_loss(params, masked_seqs, targets, e_table, None, _CE_ONLY,
                              np.full(len(masked_seqs), 1.0 / n))
    return float(ce.sum()) / n, grads.tensors


def corpus_samples(vocab, alphabet, lines, max_chars=MAX_CHARS):
    """Tokenize corpus lines into aligned (token_id, CharSequence) sequences.

    Single-piece words are full words (they get the "##" marker); OOV words
    keep their surface characters with an [UNK] target.
    """
    unk_id = vocab.id_of[UNK]
    sequences = []
    for line in lines:
        ids, seqs = [], []
        for word in whitespace_split(line):
            pieces = tokenize_word(vocab, word)
            if pieces == [UNK]:
                ids.append(unk_id)
                seqs.append(char_sequence(word, True, alphabet, max_chars=max_chars))
                continue
            full = len(pieces) == 1
            for piece in pieces:
                ids.append(vocab.id_of[piece])
                seqs.append(char_sequence(piece, full, alphabet, max_chars=max_chars))
        if ids:
            sequences.append((ids, seqs))
    return sequences


def pretrain_mlm(params, sequences, vocab, e_table, alphabet, config):
    """Dynamic character-level MLM over token-id sequences; E stays frozen.

    `sequences` is a list of (token_ids, char_seqs) pairs from corpus_samples.
    Returns (trained params, per-epoch metrics).
    """
    if not sequences:
        raise TrainingError("pretrain_mlm requires a nonempty corpus")

    def epoch_batches(rng):
        order = list(range(len(sequences)))
        rng.shuffle(order)
        # one Adam batch: the masked tokens of `batch_size` lines that selected any
        seqs, targets, steps, sizes = [], [], [], []
        for step, si in enumerate(order):
            ids, line_seqs = sequences[si]
            plan = make_masking_plan(ids, line_seqs, rng)
            if plan.entries:
                seqs += apply_masking(plan, line_seqs, alphabet, rng)
                targets += [entry.target_id for entry in plan.entries]
                steps.append(step)
                sizes.append(len(plan))
            if steps and (len(steps) == config.batch_size or step == len(order) - 1):
                # each line's mean CE, averaged over the lines in the batch
                weights = np.repeat(1.0 / (np.asarray(sizes, dtype=np.float64) * len(steps)),
                                    sizes)
                yield seqs, targets, weights, np.repeat(steps, sizes)
                seqs, targets, steps, sizes = [], [], [], []

    def epoch_record(trained, epoch, sums, count):
        return {"epoch": epoch, "mlm_loss": sums["total"] / max(count, 1), "selected": count}

    return _train(params, vocab, e_table, None, _CE_ONLY, config, epoch_batches,
                  epoch_record)
