"""Deployment-facing embedding provider: table-only, full, and hybrid modes."""

import enum
from dataclasses import dataclass

from . import model as model_mod
from .objectives import check_vocab_size
from .vocab import tokenize_word, whitespace_split


class EmbedMode(enum.Enum):
    TABLE_ONLY = "table_only"
    FULL = "full"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class EmbeddedSequence:
    vectors: list  # d-vectors
    provenance: list  # "table" | "char2subword", aligned with vectors
    pieces: list  # token strings, aligned with vectors


def embed_sequence(mode, sentence, vocab, e_table, params=None, alphabet=None):
    """Embed a whitespace-split sentence under the chosen mode.

    table_only splits into WordPiece pieces and looks each up; full runs
    every word through the module; hybrid looks whole words up and backs
    off to the module for out-of-vocabulary words. One model.encode call runs
    them all, of any length, in shared padded passes (one for a typical sentence).
    """
    check_vocab_size(e_table, vocab)
    if mode != EmbedMode.TABLE_ONLY and params is None:
        raise ValueError(f"{mode.value} mode requires trained module parameters")
    if mode == EmbedMode.HYBRID and params.config.d_out != e_table.dim:
        raise ValueError(f"hybrid mode mixes table rows of width {e_table.dim} with "
                         f"module vectors of width {params.config.d_out}")
    words = whitespace_split(sentence)
    if mode == EmbedMode.TABLE_ONLY:
        pieces = [piece for word in words for piece in tokenize_word(vocab, word)]
        return EmbeddedSequence(vectors=[e_table.row(vocab.id_of[p]) for p in pieces],
                                provenance=["table"] * len(pieces), pieces=pieces)
    # hybrid: whole-word lookup, case-sensitive, else back off
    in_table = [mode == EmbedMode.HYBRID and word in vocab.id_of for word in words]
    module_vecs = model_mod.encode(
        params, [w for w, hit in zip(words, in_table) if not hit], alphabet)
    module_rows = iter(module_vecs)
    vectors = [e_table.row(vocab.id_of[w]) if hit else next(module_rows)
               for w, hit in zip(words, in_table)]
    provenance = ["table" if hit else "char2subword" for hit in in_table]
    return EmbeddedSequence(vectors=vectors, provenance=provenance, pieces=words)


def write_embeddings(fh, embedded, mode):
    """Batch output: header "n d mode", then token, provenance, values."""
    d = len(embedded.vectors[0]) if embedded.vectors else 0
    fh.write(f"{len(embedded.vectors)} {d} {mode.value}\n")
    for piece, tag, vec in zip(embedded.pieces, embedded.provenance, embedded.vectors):
        fh.write(piece + "\t" + tag + "\t" + " ".join(repr(float(x)) for x in vec) + "\n")
