import io

import numpy as np
import pytest

import char2subword as c2s
from char2subword import model as M
from char2subword.embedder import EmbedMode, embed_sequence, write_embeddings
from char2subword.vocab import UNK, char_sequence


@pytest.fixture
def alphabet(toy_vocab):
    return c2s.build_alphabet(toy_vocab)


@pytest.fixture
def params(tiny_config, alphabet):
    return M.init_params(tiny_config, len(alphabet), seed=0)


class TestTableOnly:
    def test_in_vocab_rows(self, toy_vocab, toy_table):
        out = embed_sequence(EmbedMode.TABLE_ONLY, "apple badge", toy_vocab, toy_table)
        assert out.pieces == ["apple", "badge"]
        assert out.provenance == ["table", "table"]
        np.testing.assert_array_equal(
            out.vectors[0], toy_table.row(toy_vocab.id_of["apple"]))

    def test_oov_becomes_unk_row(self, toy_vocab, toy_table):
        out = embed_sequence(EmbedMode.TABLE_ONLY, "zzzzz", toy_vocab, toy_table)
        assert out.pieces == [UNK]
        np.testing.assert_array_equal(
            out.vectors[0], toy_table.row(toy_vocab.id_of[UNK]))

    def test_no_params_needed(self, toy_vocab, toy_table):
        embed_sequence(EmbedMode.TABLE_ONLY, "apple", toy_vocab, toy_table)


class TestFull:
    def test_one_vector_per_word(self, toy_vocab, toy_table, params, alphabet):
        out = embed_sequence(EmbedMode.FULL, "apple zzzzz badge", toy_vocab,
                             toy_table, params=params, alphabet=alphabet)
        assert len(out.vectors) == 3
        assert out.provenance == ["char2subword"] * 3
        assert out.pieces == ["apple", "zzzzz", "badge"]

    def test_requires_params(self, toy_vocab, toy_table):
        with pytest.raises(ValueError):
            embed_sequence(EmbedMode.FULL, "apple", toy_vocab, toy_table)

    def test_vector_width(self, toy_vocab, toy_table, params, alphabet):
        out = embed_sequence(EmbedMode.FULL, "apple", toy_vocab, toy_table,
                             params=params, alphabet=alphabet)
        assert out.vectors[0].shape == (params.config.d_out,)


class TestHybrid:
    def test_in_vocab_uses_table(self, toy_vocab, toy_table, params, alphabet):
        out = embed_sequence(EmbedMode.HYBRID, "apple", toy_vocab, toy_table,
                             params=params, alphabet=alphabet)
        assert out.provenance == ["table"]
        np.testing.assert_array_equal(
            out.vectors[0], toy_table.row(toy_vocab.id_of["apple"]))

    def test_oov_backs_off_to_module(self, toy_vocab, toy_table, params, alphabet):
        out = embed_sequence(EmbedMode.HYBRID, "applz", toy_vocab, toy_table,
                             params=params, alphabet=alphabet)
        assert out.provenance == ["char2subword"]
        assert out.pieces == ["applz"]

    def test_lookup_case_sensitive(self, toy_vocab, toy_table, params, alphabet):
        out = embed_sequence(EmbedMode.HYBRID, "Apple", toy_vocab, toy_table,
                             params=params, alphabet=alphabet)
        assert out.provenance == ["char2subword"]

    def test_requires_params(self, toy_vocab, toy_table):
        with pytest.raises(ValueError):
            embed_sequence(EmbedMode.HYBRID, "zzzzz", toy_vocab, toy_table)

    def test_width_mismatch_rejected_before_embedding(self, toy_vocab, alphabet,
                                                      monkeypatch):
        narrow = c2s.EmbeddingTable(matrix=np.random.default_rng(0).normal(
            size=(len(toy_vocab), 4)))
        wide = M.init_params(c2s.ModelConfig(d_char=8, d_out=8, n_layers=1, n_heads=2),
                             len(alphabet), seed=0)
        monkeypatch.setattr(M, "encode", lambda *a: pytest.fail("embedded before the check"))
        with pytest.raises(ValueError, match="width 4 .* width 8"):
            embed_sequence(EmbedMode.HYBRID, "apple applz", toy_vocab, narrow,
                           params=wide, alphabet=alphabet)

    def test_module_vectors_equal_forward_alone(self, toy_vocab, toy_table, params, alphabet):
        out = embed_sequence(EmbedMode.HYBRID, "applz apple zz blackberries zz q",
                             toy_vocab, toy_table, params=params, alphabet=alphabet)
        assert out.provenance == ["char2subword", "table"] + ["char2subword"] * 4
        for piece, tag, vec in zip(out.pieces, out.provenance, out.vectors):
            if tag == "char2subword":
                expected, _, _ = M.forward(params, char_sequence(piece, True, alphabet))
                np.testing.assert_array_equal(vec, expected)


class TestWriteEmbeddings:
    def test_header_and_rows(self, toy_vocab, toy_table):
        out = embed_sequence(EmbedMode.TABLE_ONLY, "apple badge", toy_vocab, toy_table)
        buf = io.StringIO()
        write_embeddings(buf, out, EmbedMode.TABLE_ONLY)
        lines = buf.getvalue().splitlines()
        assert lines[0] == f"2 {toy_table.dim} table_only"
        token, tag, values = lines[1].split("\t")
        assert token == "apple" and tag == "table"
        np.testing.assert_array_equal(
            np.array(values.split(), dtype=float),
            toy_table.row(toy_vocab.id_of["apple"]))

    def test_empty_sequence(self, toy_vocab, toy_table):
        out = embed_sequence(EmbedMode.TABLE_ONLY, "", toy_vocab, toy_table)
        buf = io.StringIO()
        write_embeddings(buf, out, EmbedMode.TABLE_ONLY)
        assert buf.getvalue() == "0 0 table_only\n"
