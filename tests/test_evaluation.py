import numpy as np
import pytest

import char2subword as c2s
from char2subword import model as M
from char2subword import evaluation, objectives
from char2subword.evaluation import (
    accuracy,
    dump_attention,
    embed_vocab,
    neighbor_query,
    precision_at_k,
    seq_length_stats,
)
from char2subword.objectives import EmbeddingTable, build_neighbor_index, rank_neighbors
from char2subword.vocab import char_sequence
from conftest import grid, products
import reference
from reference import precision_overlaps


@pytest.fixture
def alphabet(toy_vocab):
    return c2s.build_alphabet(toy_vocab)


@pytest.fixture
def params(tiny_config, alphabet):
    return M.init_params(tiny_config, len(alphabet), seed=0)


class TestEmbedVocab:
    def test_shape_and_ids(self, params, toy_vocab, alphabet):
        ids, vecs = embed_vocab(params, toy_vocab, alphabet)
        assert vecs.shape == (len(ids), params.config.d_out)
        # [UNK] is special and excluded
        assert toy_vocab.id_of["[UNK]"] not in ids

    def test_rows_match_forward(self, params, toy_vocab, alphabet):
        ids, vecs = embed_vocab(params, toy_vocab, alphabet)
        i = ids[0]
        seq = char_sequence(toy_vocab.token(i), False, alphabet)
        expected, _, _ = M.forward(params, seq)
        np.testing.assert_array_equal(vecs[0], expected)


class TestAccuracy:
    def test_untrained_in_unit_interval(self, params, toy_vocab, toy_table, alphabet):
        a = accuracy(params, toy_vocab, toy_table, alphabet)
        assert 0.0 <= a <= 1.0

    def test_oracle_embeddings_give_one(self, params, toy_vocab, toy_table, alphabet):
        # feeding the true table rows as the "predictions" must score 1.0
        ids = toy_vocab.non_special_ids()
        vecs = toy_table.matrix[np.asarray(ids)]
        assert accuracy(params, toy_vocab, toy_table, alphabet,
                        embedded=(ids, vecs)) == 1.0

    def test_matches_loop_oracle(self, params, toy_vocab, toy_table, alphabet):
        ids, vecs = embed_vocab(params, toy_vocab, alphabet)
        hits = sum(int(np.argmax(toy_table.matrix @ v) == i)
                   for i, v in zip(ids, vecs))
        assert accuracy(params, toy_vocab, toy_table, alphabet,
                        embedded=(ids, vecs)) == pytest.approx(hits / len(ids))


    def test_blocks_match_one_block(self, params, toy_vocab, toy_table, alphabet,
                                    monkeypatch, tile_log):
        ids = toy_vocab.non_special_ids()
        vecs = np.random.default_rng(3).normal(size=(len(ids), toy_table.dim))
        vecs[5::7] = toy_table.matrix[np.asarray(ids[5::7])]  # some hits
        whole = accuracy(params, toy_vocab, toy_table, alphabet, embedded=(ids, vecs))
        assert whole > 0.0
        assert grid(tile_log[-1]) == (1, 1)
        # 12 x 12 tiles: 49 rows and 50 columns make 5 row blocks by 5 column tiles
        monkeypatch.setattr(objectives, "CE_BLOCK", 3 * toy_table.size)
        assert accuracy(params, toy_vocab, toy_table, alphabet, embedded=(ids, vecs)) == whole
        assert grid(tile_log[-1]) == (5, 5)

    @pytest.mark.parametrize("bad, message", [(0.0, "zero vector"), (np.nan, "non-finite")])
    def test_zero_or_nan_row_rejected(self, params, toy_vocab, toy_table, alphabet, bad,
                                      message):
        ids = toy_vocab.non_special_ids()
        vecs = toy_table.matrix[np.asarray(ids)].copy()
        vecs[3] = bad
        with pytest.raises(ValueError, match=message):
            accuracy(params, toy_vocab, toy_table, alphabet, embedded=(ids, vecs))

    @pytest.mark.parametrize("ce_block", [None, 100])
    def test_ties_across_tiles_pick_lowest_id(self, params, toy_vocab, alphabet, monkeypatch,
                                              ce_block):
        # rows 25-49 repeat rows 0-24, so every argmax ties with a twin 25 ids on
        m = np.concatenate([np.eye(25), np.eye(25)])
        table = EmbeddingTable(matrix=m)
        if ce_block:  # 10-column tiles: each twin sits in another tile
            monkeypatch.setattr(objectives, "CE_BLOCK", ce_block)
            assert list(products(m, table))[1][1] == slice(10, 20)
        ids = list(range(50))
        idx = build_neighbor_index(table, 15)
        for embedded, expected in (((ids, m), 0.5), ((ids[:25], m[25:]), 1.0)):
            assert accuracy(params, toy_vocab, table, alphabet, embedded=embedded) == expected
            assert precision_at_k(params, toy_vocab, table, idx, alphabet,
                                  embedded=embedded).accuracy == expected


class TestPrecisionAtK:
    def test_oracle_embeddings_perfect(self, params, toy_vocab, toy_table, alphabet):
        idx = build_neighbor_index(toy_table, 15)
        ids = toy_vocab.non_special_ids()
        vecs = toy_table.matrix[np.asarray(ids)]
        rep = precision_at_k(params, toy_vocab, toy_table, idx, alphabet,
                             embedded=(ids, vecs))
        assert rep.avg_precision == pytest.approx(1.0)
        assert all(v == pytest.approx(1.0) for v in rep.precision_at.values())

    def test_avg_is_mean_of_per_k(self, params, toy_vocab, toy_table, alphabet):
        idx = build_neighbor_index(toy_table, 15)
        rep = precision_at_k(params, toy_vocab, toy_table, idx, alphabet)
        assert rep.avg_precision == pytest.approx(
            np.mean(list(rep.precision_at.values())))
        assert sorted(rep.precision_at) == list(range(1, 16))

    def test_blocks_match_one_block(self, params, toy_vocab, toy_table, alphabet,
                                    monkeypatch, tile_log):
        idx = build_neighbor_index(toy_table, 15)
        ids, vecs = embed_vocab(params, toy_vocab, alphabet)
        whole = precision_at_k(params, toy_vocab, toy_table, idx, alphabet, embedded=(ids, vecs))
        assert grid(tile_log[-1]) == (1, 1)
        # 12 x 12 tiles: 49 rows and 50 columns make 5 row blocks by 5 column tiles
        monkeypatch.setattr(objectives, "CE_BLOCK", 3 * toy_table.size)
        blocked = precision_at_k(params, toy_vocab, toy_table, idx, alphabet,
                                 embedded=(ids, vecs))
        assert grid(tile_log[-1]) == (5, 5)
        assert blocked == whole

    def test_one_pass_over_the_table(self, params, toy_vocab, toy_table, alphabet,
                                     monkeypatch, tile_log):
        idx = build_neighbor_index(toy_table, 15)
        monkeypatch.setattr(objectives, "CE_BLOCK", 3 * toy_table.size)
        for k_max in (1, 15):
            tile_log.clear()
            precision_at_k(params, toy_vocab, toy_table, idx, alphabet, k_max=k_max)
            assert len(tile_log) == 1  # accuracy and the top-k from the same products
            corners = {(blk.start, cols.start) for blk, cols in tile_log[0]}
            assert len(corners) == len(tile_log[0]) == 5 * 5  # each tile once

    @pytest.mark.parametrize("source", ["model", "half_negated", "repeated"])
    @pytest.mark.parametrize("k_max, depth", [(1, 1), (5, 15), (15, 15)])
    def test_matches_set_loop_oracle(self, params, toy_vocab, toy_table, alphabet,
                                     source, k_max, depth):
        ids, vecs = embed_vocab(params, toy_vocab, alphabet)
        if source == "half_negated":  # the even rows share no neighbor with their truth
            signs = np.where(np.arange(len(ids)) % 2, 1.0, -1.0)
            vecs = toy_table.matrix[np.asarray(ids)] * signs[:, None]
        if source == "repeated":  # 2,000 rows, each id about 40 times, its row jittered
            ids = [ids[i % len(ids)] for i in range(2000)]
            jitter = np.random.default_rng(0).normal(scale=0.3, size=(2000, toy_table.dim))
            vecs = toy_table.matrix[np.asarray(ids)] + jitter
        idx = build_neighbor_index(toy_table, depth)
        pred = rank_neighbors(toy_table, vecs, k_max)[0]
        truth = [idx.neighbors(i) for i in ids]
        if source == "half_negated":
            assert precision_overlaps(truth[::2], pred[::2], k_max).sum() == 0.0
        expected = precision_overlaps(truth, pred, k_max) / len(ids)
        rep = precision_at_k(params, toy_vocab, toy_table, idx, alphabet, k_max=k_max,
                             embedded=(ids, vecs))
        assert list(rep.precision_at.values()) == list(expected)  # bit-identical

    def test_k_max_exceeding_index_rejected(self, params, toy_vocab, toy_table, alphabet):
        idx = build_neighbor_index(toy_table, 5)
        with pytest.raises(ValueError):
            precision_at_k(params, toy_vocab, toy_table, idx, alphabet, k_max=15)


class TestNeighborQuery:
    def test_returns_n_sorted(self, params, toy_vocab, toy_table, alphabet):
        out = neighbor_query(params, toy_table, toy_vocab, alphabet, "apple", n=5)
        assert len(out) == 5
        sims = [s for _, s in out]
        assert sims == sorted(sims, reverse=True)

    def test_matches_rank_neighbors(self, params, toy_vocab, toy_table, alphabet):
        out = neighbor_query(params, toy_table, toy_vocab, alphabet, "badge",
                             is_full_word=True, n=3)
        seq = char_sequence("badge", True, alphabet)
        e_hat, _, _ = M.forward(params, seq)
        order, _ = rank_neighbors(toy_table, e_hat, 3)
        assert [t for t, _ in out] == [toy_vocab.token(int(i)) for i in order]

    def test_n_zero(self, params, toy_vocab, toy_table, alphabet):
        with pytest.raises(ValueError, match="need n >= 1"):
            neighbor_query(params, toy_table, toy_vocab, alphabet, "x", n=0)

    def test_n_too_large(self, params, toy_vocab, toy_table, alphabet):
        with pytest.raises(ValueError, match=f"n <= {toy_table.size}"):
            neighbor_query(params, toy_table, toy_vocab, alphabet, "x",
                           n=len(toy_vocab) + 1)

    def test_n_vocab_size_lists_every_entry(self, params, toy_vocab, toy_table, alphabet):
        out = neighbor_query(params, toy_table, toy_vocab, alphabet, "x", n=len(toy_vocab))
        assert sorted(t for t, _ in out) == sorted(toy_vocab.entries)


class TestVocabSizeChecked:
    """Each library entry point that pairs a table with a vocabulary checks
    that the table has one row per entry."""

    @pytest.fixture
    def short_table(self, toy_table):
        return EmbeddingTable(matrix=toy_table.matrix[:-1])

    def test_accuracy(self, params, toy_vocab, short_table, alphabet):
        with pytest.raises(ValueError, match="table has 49 rows but vocabulary has 50"):
            accuracy(params, toy_vocab, short_table, alphabet)

    def test_precision_at_k(self, params, toy_vocab, short_table, alphabet):
        idx = build_neighbor_index(short_table, 15)
        with pytest.raises(ValueError, match="table has 49 rows but vocabulary has 50"):
            precision_at_k(params, toy_vocab, short_table, idx, alphabet)

    def test_neighbor_query(self, params, toy_vocab, short_table, alphabet):
        with pytest.raises(ValueError, match="table has 49 rows but vocabulary has 50"):
            neighbor_query(params, short_table, toy_vocab, alphabet, "apple", n=3)

    @pytest.mark.parametrize("mode", list(c2s.EmbedMode), ids=lambda m: m.value)
    def test_embed_sequence(self, params, toy_vocab, short_table, alphabet, mode):
        with pytest.raises(ValueError, match="table has 49 rows but vocabulary has 50"):
            c2s.embed_sequence(mode, "apple zzz", toy_vocab, short_table, params=params,
                               alphabet=alphabet)


class TestNoEntryToEvaluate:
    """A vocabulary of special tokens only has no entry to evaluate: accuracy and
    precision_at_k raise before any scan, where a mean over no entry would be NaN."""

    @pytest.mark.parametrize("scorer", ["accuracy", "precision_at_k"])
    def test_rejected_before_any_scan(self, tiny_config, monkeypatch, scorer):
        vocab = c2s.load_vocabulary(["[UNK]", "[MASK]"])
        table = EmbeddingTable(matrix=np.eye(2, tiny_config.d_out))
        idx = build_neighbor_index(table, 1)
        alphabet = c2s.build_alphabet(vocab)
        params = M.init_params(tiny_config, len(alphabet), seed=0)

        def no_scan(*args, **kwargs):
            raise AssertionError("scanned the table")

        monkeypatch.setattr(evaluation, "scan_table", no_scan)
        score = {"accuracy": lambda: accuracy(params, vocab, table, alphabet),
                 "precision_at_k": lambda: precision_at_k(params, vocab, table, idx, alphabet,
                                                          k_max=1)}[scorer]
        with pytest.raises(ValueError, match="^the vocabulary has no entry to evaluate: "
                                             "every entry is a special token$"):
            score()


class TestSeqLengthStats:
    def test_hand_counts(self, toy_vocab):
        # every toy word is a single piece; "zzzzz" falls back to one [UNK]
        stats = seq_length_stats(["apple badge", "zzzzz"], toy_vocab)
        assert stats.mean_tokens == pytest.approx(1.5)
        assert stats.max_tokens == 2
        assert stats.mean_subwords == pytest.approx(1.5)
        assert stats.ratio == pytest.approx(1.0)

    def test_empty_corpus(self, toy_vocab):
        stats = seq_length_stats([], toy_vocab)
        assert stats.ratio == 0.0

    def test_ratio_definition(self, toy_vocab):
        sentences = ["apple badge alarm", "black blade"]
        stats = seq_length_stats(sentences, toy_vocab)
        assert stats.ratio == pytest.approx(stats.mean_subwords * 2 /
                                            (stats.mean_tokens * 2))

    def test_each_distinct_word_tokenized_once(self, monkeypatch):
        vocab = c2s.load_vocabulary(["[UNK]", "ap", "##ple", "apple", "bad", "##ge"])
        words = []
        tokenize = evaluation.tokenize_word
        monkeypatch.setattr(evaluation, "tokenize_word",
                            lambda vocab, word: words.append(word) or tokenize(vocab, word))
        sentences = ["apple badge apple", "", "zzzzz apple\tzzzzz", "badge appl"]
        stats = seq_length_stats(sentences, vocab)
        assert words == ["apple", "badge", "zzzzz", "appl"]
        assert stats == reference.seq_length_stats(sentences, vocab)


class TestDumpAttention:
    def test_structure(self, params, alphabet, tiny_config):
        text = dump_attention(params, alphabet, "apple")
        lines = text.splitlines()
        assert lines[0] == "input apple"
        assert lines[1].startswith("chars # # a p p l e")
        headers = [l for l in lines if l.startswith("layer ")]
        assert len(headers) == tiny_config.n_layers * tiny_config.n_heads

    def test_rows_sum_to_one(self, params, alphabet):
        text = dump_attention(params, alphabet, "badge", is_full_word=False)
        for line in text.splitlines()[2:]:
            if line.startswith("layer "):
                continue
            probs = [float(x) for x in line.split()[1:]]
            assert sum(probs) == pytest.approx(1.0, abs=1e-4)
