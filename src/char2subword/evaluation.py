"""Measurement: prediction accuracy, neighbor precision, queries, stats, dumps."""

import io
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .objectives import check_vocab_size, rank_neighbors, scan_table
from .vocab import char_sequence, tokenize_word, whitespace_split

# Default neighbor depth of precision@k, and of train_simulation's per-epoch evaluation.
EVAL_K = 15


@dataclass(frozen=True)
class PrecisionReport:
    accuracy: float
    precision_at: dict  # k -> mean precision over tokens
    avg_precision: float

    def to_text(self):
        lines = [f"accuracy {self.accuracy:.6f}"]
        for k in sorted(self.precision_at):
            lines.append(f"prec@{k} {self.precision_at[k]:.6f}")
        lines.append(f"avg_precision {self.avg_precision:.6f}")
        return "\n".join(lines) + "\n"


def embed_vocab(params, vocab, alphabet):
    """f_theta over every non-special vocabulary entry; returns (ids, matrix)."""
    ids = vocab.non_special_ids()
    vecs = model_mod.encode(params, [vocab.token(i) for i in ids], alphabet,
                            is_full_word=False)
    return ids, vecs


def accuracy(params, vocab, e_table, alphabet, embedded=None):
    """Fraction of non-special entries whose argmax over e_hat . E^T is themselves."""
    check_vocab_size(e_table, vocab)
    ids, vecs = embedded if embedded is not None else embed_vocab(params, vocab, alphabet)
    return float(np.mean(scan_table(e_table, vecs, 1)[2] == np.asarray(ids)))


def precision_at_k(params, vocab, e_table, index, alphabet, k_max=EVAL_K, embedded=None):
    """Accuracy and neighbor-overlap precision for k = 1..k_max over tokens, from one scan."""
    check_vocab_size(e_table, vocab)
    if k_max > index.k:
        raise ValueError(f"k_max={k_max} exceeds neighbor index depth {index.k}")
    ids, vecs = embedded if embedded is not None else embed_vocab(params, vocab, alphabet)
    pred, _, argmax = scan_table(e_table, vecs, k_max)
    truth = index.ids[np.asarray(ids, dtype=np.int64), :k_max]
    # both rows hold distinct ids, so |truth[:k] & pred[:k]| counts the matches
    # in the leading k x k block: a 2-D prefix sum, read on its diagonal
    matches = (pred[:, None, :] == truth[:, :, None]).cumsum(axis=1).cumsum(axis=2)
    per_row = matches.diagonal(axis1=1, axis2=2) / np.arange(1, k_max + 1)
    overlaps = np.zeros(k_max)
    for row in per_row:  # in id order: the float sums do not depend on numpy's reduction
        overlaps += row
    per_k = {k: overlaps[k - 1] / len(ids) for k in range(1, k_max + 1)}
    return PrecisionReport(
        accuracy=float(np.mean(argmax == np.asarray(ids))),
        precision_at=per_k,
        avg_precision=float(np.mean(list(per_k.values()))),
    )


def neighbor_query(params, e_table, vocab, alphabet, query, is_full_word=True, n=5):
    """Top-n vocabulary entries by cosine to f_theta(chars(query)); n in 1..|V|."""
    check_vocab_size(e_table, vocab)
    vecs = model_mod.encode(params, [query], alphabet, is_full_word=is_full_word)
    order, sims = rank_neighbors(e_table, vecs[0], n)
    return [(vocab.token(int(i)), float(s)) for i, s in zip(order, sims)]


@dataclass(frozen=True)
class SeqLengthStats:
    mean_tokens: float
    max_tokens: int
    mean_subwords: float
    max_subwords: int
    ratio: float

    def to_text(self):
        return (f"mean_tokens {self.mean_tokens:.4f}\nmax_tokens {self.max_tokens}\n"
                f"mean_subwords {self.mean_subwords:.4f}\nmax_subwords {self.max_subwords}\n"
                f"ratio {self.ratio:.4f}\n")


def seq_length_stats(sentences, vocab):
    """Whitespace-token vs WordPiece-piece counts over a corpus."""
    tok_counts, sub_counts = [], []
    for sentence in sentences:
        words = whitespace_split(sentence)
        if not words:
            continue
        tok_counts.append(len(words))
        sub_counts.append(sum(len(tokenize_word(vocab, w)) for w in words))
    if not tok_counts:
        return SeqLengthStats(0.0, 0, 0.0, 0, 0.0)
    total_tok, total_sub = sum(tok_counts), sum(sub_counts)
    return SeqLengthStats(
        mean_tokens=total_tok / len(tok_counts),
        max_tokens=max(tok_counts),
        mean_subwords=total_sub / len(sub_counts),
        max_subwords=max(sub_counts),
        ratio=total_sub / total_tok,
    )


def dump_attention(params, alphabet, query, is_full_word=True):
    """Serialize per-layer per-head attention maps with character-labeled rows."""
    seq = char_sequence(query, is_full_word, alphabet, max_chars=params.config.max_chars)
    _, maps, _ = model_mod.forward(params, seq)
    labels = [alphabet.char(c) for c in seq.chars]
    out = io.StringIO()
    out.write(f"input {query}\nchars {' '.join(labels)}\n")
    for j, layer in enumerate(maps):
        for h, mat in enumerate(layer):
            out.write(f"layer {j} head {h}\n")
            for label, row in zip(labels, mat):
                out.write(label + " " + " ".join(f"{p:.6f}" for p in row) + "\n")
    return out.getvalue()
