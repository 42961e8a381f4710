import hashlib
import itertools
import json
import struct

import numpy as np
import pytest

import char2subword as c2s
from char2subword import model as M
from char2subword.numerics import sinusoidal_pe, softmax_rows
from char2subword.vocab import UNK_CHAR_INDEX, char_sequence
import reference
from reference import finite_diff_gradient, gelu, layer_norm, save_checkpoint_v1


@pytest.fixture
def alphabet(toy_vocab):
    return c2s.build_alphabet(toy_vocab)


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def assert_qkv_blocks_match_finite_differences(cfg, params, grads, loss, seed):
    """Check one random coordinate in every (q/k/v, head) column block of each
    layer's Wqkv against central differences of loss()."""
    rng = np.random.default_rng(seed)
    for j, block, head in np.ndindex(cfg.n_layers, 3, cfg.n_heads):
        name, row = f"L{j}.Wqkv", int(rng.integers(cfg.d_char))
        col = block * cfg.d_char + head * cfg.d_head + int(rng.integers(cfg.d_head))
        # a one-entry view, so the differences perturb the parameter itself
        fd = finite_diff_gradient(lambda _: loss(), params.tensors[name][row, col:col + 1])
        assert rel_err(grads[name][row, col], fd[0]) < 1e-4, (name, row, col)


class TestModelConfig:
    @pytest.mark.parametrize("d_char, n_heads", [(7, 1), (9, 3)])
    def test_odd_d_char_rejected(self, d_char, n_heads):
        with pytest.raises(ValueError, match=rf"d_char \({d_char}\) must be even"):
            M.ModelConfig(d_char=d_char, d_out=4, n_layers=1, n_heads=n_heads)


class TestInitParams:
    def test_deterministic_per_seed(self, tiny_config, alphabet):
        p1 = M.init_params(tiny_config, len(alphabet), seed=7)
        p2 = M.init_params(tiny_config, len(alphabet), seed=7)
        for name in p1.tensors:
            assert np.array_equal(p1.tensors[name], p2.tensors[name])

    def test_different_seeds_differ(self, tiny_config, alphabet):
        p1 = M.init_params(tiny_config, len(alphabet), seed=7)
        p2 = M.init_params(tiny_config, len(alphabet), seed=8)
        assert not np.array_equal(p1.tensors["We"], p2.tensors["We"])

    def test_biases_zero_norms_identity(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=0)
        assert np.all(p.tensors["be"] == 0.0)
        assert np.all(p.tensors["L0.b1"] == 0.0)
        assert np.all(p.tensors["L0.ln1.g"] == 1.0)
        assert np.all(p.tensors["ln_out.b"] == 0.0)

    def test_xavier_bound(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=0)
        w = p.tensors["L0.W1"]
        bound = np.sqrt(6.0 / sum(w.shape))
        assert np.all(np.abs(w) <= bound)
        # each head's (d_char, d_head) query, key and value block has its own bound
        qkv = p.tensors["L0.Wqkv"]
        assert np.abs(qkv).max() <= np.sqrt(6.0 / (tiny_config.d_char + tiny_config.d_head))


class TestForward:
    def test_single_char_attention_is_one(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=0)
        seq = char_sequence("a", False, alphabet)
        _, maps, _ = M.forward(p, seq)
        assert type(maps) is tuple and len(maps) == tiny_config.n_layers
        for layer in maps:
            assert type(layer) is tuple and len(layer) == tiny_config.n_heads
            for a in layer:
                assert a.shape == (1, 1)
                assert a[0, 0] == pytest.approx(1.0)

    def test_output_dim(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=0)
        for token in ("apple", "a", "blank"):
            emb, _, _ = M.forward(p, char_sequence(token, False, alphabet))
            assert emb.shape == (tiny_config.d_out,)

    def test_attention_rows_stochastic(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=1)
        _, maps, _ = M.forward(p, char_sequence("garden", True, alphabet))
        for layer in maps:
            for a in layer:
                np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-9)
                assert np.all(a >= 0.0) and np.all(a <= 1.0)

    def test_deterministic(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=2)
        seq = char_sequence("apple", False, alphabet)
        e1, _, _ = M.forward(p, seq)
        e2, _, _ = M.forward(p, seq)
        assert np.array_equal(e1, e2)

    def test_permutation_sensitive(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=3)
        e1, _, _ = M.forward(p, char_sequence("ab", False, alphabet))
        e2, _, _ = M.forward(p, char_sequence("ba", False, alphabet))
        assert not np.allclose(e1, e2)

    def test_empty_sequence_rejected(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=0)
        with pytest.raises(ValueError):
            M.forward(p, ())

    def test_matches_step_by_step_trace(self, alphabet):
        # independent re-derivation of the layer equations at hand size
        cfg = M.ModelConfig(d_char=4, d_out=2, n_layers=1, n_heads=2)
        p = M.init_params(cfg, len(alphabet), seed=5)
        seq = char_sequence("ab", False, alphabet)
        t = p.tensors
        x = np.stack([t["char_emb"][seq[0]] + sinusoidal_pe(0, 4),
                      t["char_emb"][seq[1]] + sinusoidal_pe(1, 4)])
        xb = layer_norm(x, t["L0.ln1.g"], t["L0.ln1.b"], M.LN_EPS)
        # Wqkv's 12 columns: Wq | Wk | Wv, each head 0's two columns, then head 1's
        w = t["L0.Wqkv"]
        maps, heads = [], []
        for h in range(2):
            q = xb @ w[:, 2 * h:2 * h + 2]
            k = xb @ w[:, 4 + 2 * h:4 + 2 * h + 2]
            v = xb @ w[:, 8 + 2 * h:8 + 2 * h + 2]
            maps.append(softmax_rows(q @ k.T / np.sqrt(4.0)))
            heads.append(maps[-1] @ v)
        xp = np.hstack(heads) @ t["L0.Wo"] + xb
        xbp = layer_norm(xp, t["L0.ln2.g"], t["L0.ln2.b"], M.LN_EPS)
        xo = gelu(xbp @ t["L0.W1"] + t["L0.b1"]) @ t["L0.W2"] + t["L0.b2"] + xbp
        y = xo @ t["We"] + t["be"]
        expected = layer_norm(y.max(axis=0), t["ln_out.g"], t["ln_out.b"], M.LN_EPS)
        emb, (layer_maps,), _ = M.forward(p, seq)
        np.testing.assert_allclose(emb, expected, atol=1e-12)
        for a, a_ref in zip(layer_maps, maps, strict=True):
            np.testing.assert_allclose(a, a_ref, atol=1e-12)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=0)
        seq = char_sequence("apple", False, alphabet)
        _, _, cache = M.forward(p, seq)
        grads = M.backward(p, seq, cache, np.zeros(tiny_config.d_out))
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_unused_char_rows_zero(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=0)
        seq = char_sequence("apple", False, alphabet)
        _, _, cache = M.forward(p, seq)
        grads = M.backward(p, seq, cache, np.ones(tiny_config.d_out))
        used = set(seq)
        for row in range(p.alphabet_size):
            if row not in used:
                assert np.all(grads["char_emb"][row] == 0.0)

    def test_mismatched_cache_rejected(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=0)
        seq = char_sequence("apple", False, alphabet)
        other = char_sequence("blank", False, alphabet)
        _, _, cache = M.forward(p, seq)
        with pytest.raises(ValueError):
            M.backward(p, other, cache, np.zeros(tiny_config.d_out))

    def test_cache_checked_against_id_tuple(self, tiny_config, alphabet):
        # uppercase is outside the toy alphabet: both tokens read as (UNK_CHAR,) * 2
        p = M.init_params(tiny_config, len(alphabet), seed=0)
        seq = char_sequence("AB", False, alphabet)
        _, _, cache = M.forward(p, seq)
        u = np.ones(tiny_config.d_out)
        with pytest.raises(ValueError, match="backward cache does not match the given sequence"):
            M.backward(p, char_sequence("ab", False, alphabet), cache, u)
        with pytest.raises(ValueError, match="backward cache does not match the given sequence"):
            M.backward(p, seq[:1], cache, u)
        same = char_sequence("CD", False, alphabet)
        assert same == seq == (UNK_CHAR_INDEX,) * 2
        grads = M.backward(p, same, cache, u)
        for name, g in M.backward(p, seq, cache, u).items():
            np.testing.assert_array_equal(grads[name], g)

    def test_matches_finite_differences(self, alphabet):
        cfg = M.ModelConfig(d_char=8, d_out=6, n_layers=2, n_heads=2)
        p = M.init_params(cfg, len(alphabet), seed=11)
        seq = char_sequence("badge", False, alphabet)
        u = np.random.default_rng(12).normal(size=cfg.d_out)
        _, _, cache = M.forward(p, seq)
        grads = M.backward(p, seq, cache, u)

        def loss():
            e, _, _ = M.forward(p, seq)
            return float(e @ u)

        for name in ("We", "be", "char_emb", "L0.Wo", "L1.W1", "L1.b1", "L1.W2", "L1.b2",
                     "L0.ln1.g", "L1.ln2.b", "ln_out.g", "ln_out.b"):
            fd = finite_diff_gradient(lambda _: loss(), p.tensors[name], h=1e-5)
            assert rel_err(grads[name], fd).max() < 1e-4, name
        assert_qkv_blocks_match_finite_differences(cfg, p, grads, loss, seed=13)


def mixed_batch(alphabet, max_chars=32):
    """Sequences of length 1, typical lengths, and exactly max_chars."""
    tokens = ["a", "badge", "ab", "berry" * 8, "alarm"]
    seqs = [char_sequence(t, i % 2 == 1, alphabet, max_chars=max_chars)
            for i, t in enumerate(tokens)]
    assert {len(s) for s in seqs} >= {1, max_chars}
    return seqs


def summed_grads(p, seqs, upstream):
    """Reference: per-sequence backward() summed over the batch."""
    total = None
    for seq, u in zip(seqs, upstream):
        _, _, cache = M.forward(p, seq)
        g = M.backward(p, seq, cache, u)
        total = g if total is None else {k: total[k] + g[k] for k in total}
    return total


class TestForwardBatch:
    def test_matches_batch_of_one(self, alphabet):
        cfg = M.ModelConfig(d_char=8, d_out=6, n_layers=2, n_heads=2)
        p = M.init_params(cfg, len(alphabet), seed=21)
        seqs = mixed_batch(alphabet, cfg.max_chars)
        emb, cache = M.forward_batch(p, seqs)
        maps = [layer["a"] for layer in cache["layers"]]
        for b, seq in enumerate(seqs):
            e1, maps1, _ = M.forward(p, seq)
            np.testing.assert_array_equal(emb[b], e1)
            n = len(seq)
            for layer, layer1 in zip(maps, maps1):
                for h, a1 in enumerate(layer1):
                    np.testing.assert_array_equal(layer[b, h, :n, :n], a1)

    def test_lone_single_char_matches_its_padded_row(self, tiny_config, alphabet):
        # a pass is at least two positions wide, so a lone 1-char sequence runs
        # the matmuls it runs inside a batch
        p = M.init_params(tiny_config, len(alphabet), seed=30)
        seq = char_sequence("a", False, alphabet)
        alone, alone_cache = M.forward_batch(p, [seq])
        assert alone_cache["ids"].shape == (1, 2)
        batch, _ = M.forward_batch(p, [char_sequence("badge", False, alphabet), seq])
        np.testing.assert_array_equal(alone[0], batch[1])
        e1, maps, _ = M.forward(p, seq)
        np.testing.assert_array_equal(e1, batch[1])
        assert {a.shape for layer in maps for a in layer} == {(1, 1)}

    def test_empty_batch_and_overlong_rejected(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=0)
        with pytest.raises(ValueError):
            M.forward_batch(p, [])
        long_seq = char_sequence("a" * 40, False, alphabet, max_chars=40)
        with pytest.raises(ValueError, match="max_chars"):
            M.forward_batch(p, [char_sequence("ab", False, alphabet), long_seq])

    def test_max_pool_ties_pass_the_gradient_to_position_zero(self, tiny_config, alphabet):
        # with We = 0 every position's pre-pool vector is be, so every position ties
        cfg = tiny_config
        p = M.init_params(cfg, len(alphabet), seed=27)
        p.tensors["We"][...] = 0.0
        p.tensors["be"][...] = np.random.default_rng(28).normal(size=cfg.d_out)
        seqs = mixed_batch(alphabet, cfg.max_chars)
        emb, cache = M.forward_batch(p, seqs)
        want = layer_norm(p.tensors["be"], p.tensors["ln_out.g"], p.tensors["ln_out.b"],
                          M.LN_EPS)
        for row in emb:
            assert row.tobytes() == want.tobytes()
        u = np.random.default_rng(29).normal(size=(len(seqs), cfg.d_out))
        grads = M.backward_batch(p, cache, u).tensors
        d_pooled = reference.layer_norm_backward(cache["pooled"], p.tensors["ln_out.g"],
                                                 M.LN_EPS, u)[0]
        first = cache["x_final"][:, 0, :]  # each sequence's position 0
        np.testing.assert_allclose(grads["We"], first.T @ d_pooled, rtol=0, atol=1e-12)
        assert not np.allclose(grads["We"], cache["x_final"][:, 1, :].T @ d_pooled)

    def test_pool_before_bias_matches_dense_output_layer_at_a_rounding_tie(self):
        # with no blocks, char_emb and We set z directly: z[:, :, 0] = x[:, :, 0] * 2**-60
        # (pe(0)[0] = 0), and + be = 1 rounds every z in (-2**-54, 2**-53) to 1.0
        cfg = M.ModelConfig(d_char=2, d_out=3, n_layers=0, n_heads=1)
        p = M.init_params(cfg, 5, seed=40)
        t = p.tensors
        t["char_emb"][2:, 0] = [-100.0, 1.0, 0.25]
        t["We"][...] = [[2.0 ** -60, 1.0, 0.3], [0.0, 0.5, -0.7]]
        t["be"][...] = [1.0, 0.0, 0.1]
        seqs = [(2, 3, 3), (3, 3), (4, 2, 3, 3)]
        emb, cache = M.forward_batch(p, seqs)
        z, x = cache["z"], cache["x_final"]
        # in sequence 0, position 0 rounds below the max and positions 1 < 2 tie at it
        assert z[0, 0, 0] + 1.0 < z[0, 1, 0] + 1.0 == z[0, 2, 0] + 1.0 == 1.0
        assert z[0, 1, 0] < z[0, 2, 0]

        real = np.arange(x.shape[1]) < np.array([len(s) for s in seqs])[:, None]
        pooled, y = reference.pool_output(x, real, t["We"], t["be"])
        want = reference.layer_norm(pooled, t["ln_out.g"], t["ln_out.b"], M.LN_EPS)
        assert cache["pooled"].tobytes() == pooled.tobytes()
        assert emb.tobytes() == want.tobytes()

        u = np.random.default_rng(41).normal(size=emb.shape)
        grads = M.backward_batch(p, cache, u).tensors
        d_pooled, d_gain, d_bias = reference.layer_norm_backward(pooled, t["ln_out.g"],
                                                                 M.LN_EPS, u)
        dx, d_we, d_be = reference.pool_output_backward(x, y, t["We"], d_pooled)
        d_emb = np.zeros_like(t["char_emb"])
        np.add.at(d_emb, cache["ids"].ravel(), dx.reshape(-1, cfg.d_char))
        want = {"char_emb": d_emb, "We": d_we, "be": d_be, "ln_out.g": d_gain,
                "ln_out.b": d_bias}
        assert grads.keys() == want.keys()
        for name, grad in grads.items():
            assert grad.tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("d_char, n_heads, atol", [
        (16, 2, 0.0), (96, 4, 0.0), (96, 6, 0.0),  # d_char <= 96 and d_head <= 24: exact
        (32, 1, 1e-12), (64, 2, 1e-12),  # d_head 32: the attention products move a lone row
        (128, 8, 1e-12),  # d_char 128: g @ W2 has K = 512, which moves packed rows too
    ])
    def test_batch_rows_against_lone_forward_and_padded_pass(self, d_char, n_heads, atol):
        rng = np.random.default_rng(60)
        # 20 words of lengths 1..12 fill 240 slots, 84 of them padded, so the pass is packed
        seqs = [tuple(rng.integers(2, 20, size=n))
                for n in rng.permutation(np.r_[1:13, 3:11])]
        cfg = M.ModelConfig(d_char=d_char, d_out=16, n_layers=2, n_heads=n_heads,
                            max_chars=12)
        p = M.init_params(cfg, 20, seed=d_char + n_heads)
        emb, cache = M.forward_batch(p, seqs)
        assert cache["rows"] is not None
        lone = np.stack([M.forward(p, seq)[0] for seq in seqs])
        padded, _ = reference.forward_batch(p, seqs)
        for want in (lone, padded):
            if atol == 0.0:
                assert emb.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(emb, want, rtol=0, atol=atol)

    def test_encode_bit_identical_to_forward(self, alphabet, monkeypatch):
        # words of every length 1..max_chars, shuffled, share padded passes; with
        # a small PASS_POSITIONS they spread over more of them
        rng = np.random.default_rng(23)
        letters = list("abcdeglmnoprty")
        for d_out, is_full_word, pass_positions in itertools.product(
                (16, 768), (False, True), (M.PASS_POSITIONS, 40)):
            monkeypatch.setattr(M, "PASS_POSITIONS", pass_positions)
            cfg = M.ModelConfig(d_char=8, d_out=d_out, n_layers=2, n_heads=2, max_chars=12)
            p = M.init_params(cfg, len(alphabet), seed=22)
            words = ["".join(rng.choice(letters, size=n))
                     for n in rng.permutation(np.repeat(np.arange(1, cfg.max_chars + 1), 3))]
            seqs = [char_sequence(w, is_full_word, alphabet, max_chars=cfg.max_chars)
                    for w in words]
            passes = M.split_passes(seqs)
            assert len(passes) > 1
            assert any(len({len(seqs[i]) for i in rows}) > 1 for rows in passes)
            vecs = M.encode(p, words, alphabet, is_full_word=is_full_word)
            assert vecs.shape == (len(words), d_out)
            for seq, vec in zip(seqs, vecs):
                e1, _, _ = M.forward(p, seq)
                np.testing.assert_array_equal(vec, e1)


class TestBackwardBatch:
    def test_matches_summed_batch_of_one(self, alphabet):
        cfg = M.ModelConfig(d_char=8, d_out=6, n_layers=2, n_heads=2)
        p = M.init_params(cfg, len(alphabet), seed=23)
        seqs = mixed_batch(alphabet, cfg.max_chars)
        u = np.random.default_rng(24).normal(size=(len(seqs), cfg.d_out))
        _, cache = M.forward_batch(p, seqs)
        grads = M.backward_batch(p, cache, u)
        assert_views_of_flat(grads)
        ref = summed_grads(p, seqs, u)
        assert list(grads.tensors) == list(ref)
        for name in ref:
            np.testing.assert_allclose(grads.tensors[name], ref[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_padded_batch_matches_finite_differences(self, alphabet):
        cfg = M.ModelConfig(d_char=8, d_out=6, n_layers=2, n_heads=2, max_chars=9)
        p = M.init_params(cfg, len(alphabet), seed=25)
        seqs = [char_sequence(t, False, alphabet, max_chars=9)
                for t in ("a", "badge", "blackberry")]
        u = np.random.default_rng(26).normal(size=(len(seqs), cfg.d_out))
        _, cache = M.forward_batch(p, seqs)
        grads = M.backward_batch(p, cache, u).tensors

        def loss():
            e, _ = M.forward_batch(p, seqs)
            return float((e * u).sum())

        for name in ("We", "be", "char_emb", "L0.Wo", "L1.W1", "L0.b1", "L1.W2", "L1.b2",
                     "L0.ln1.g", "L1.ln2.b", "ln_out.g", "ln_out.b"):
            fd = finite_diff_gradient(lambda _: loss(), p.tensors[name], h=1e-5)
            assert rel_err(grads[name], fd).max() < 1e-4, name
        assert_qkv_blocks_match_finite_differences(cfg, p, grads, loss, seed=27)

    def test_padding_adds_nothing(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=27)
        seqs = [char_sequence(t, False, alphabet) for t in ("ab", "badge")]
        u = np.random.default_rng(28).normal(size=(2, tiny_config.d_out))
        _, cache = M.forward_batch(p, seqs)
        grads = M.backward_batch(p, cache, u)
        # a longer sequence with zero upstream pads both others further
        longer = seqs + [char_sequence("blackberries", False, alphabet)]
        _, cache = M.forward_batch(p, longer)
        grads_padded = M.backward_batch(p, cache, np.vstack([u, np.zeros(tiny_config.d_out)]))
        np.testing.assert_allclose(grads_padded.flat, grads.flat, rtol=0, atol=1e-12)


def packed_cases():
    """Batches for the packed-against-padded checks: mixed lengths 1..max_chars
    (66 padded slots) and lengths one short of equal (3 padded slots), whose
    rows are the real positions; a lone 1-char word (one real position) and
    equal lengths (no padding), which run all their slots as rows."""
    rng = np.random.default_rng(50)
    max_chars = 12
    mixed = [tuple(rng.integers(2, 20, size=n))
             for n in rng.permutation(np.arange(1, max_chars + 1))]
    equal = [tuple(rng.integers(2, 20, size=7)) for _ in range(4)]
    slight = [tuple(rng.integers(2, 20, size=n)) for n in (7, 6, 7, 6, 6)]
    return max_chars, {"mixed": mixed, "lone": [(5,)], "equal": equal, "slight": slight}


# d_char up to 96, so every row product's K is at most 384: the widths at
# which a contiguous right operand gives a row the same bits at any row count
ROW_RULE_WIDTHS = [8, 16, 24, 32, 48, 64, 96]


@pytest.mark.parametrize("d_char", ROW_RULE_WIDTHS)
def test_row_bits_do_not_depend_on_row_count(d_char):
    """The BLAS property the encoder's packed rows rest on, at the (K, N) of
    its row products: X[:m] @ C, with C C-contiguous, equals the first m rows
    of X @ C for every m from 2 to PASS_POSITIONS."""
    rng = np.random.default_rng(d_char)
    widths = (d_char, 3 * d_char, 4 * d_char)
    for k, n_cols in itertools.product(widths, widths):
        x = rng.normal(size=(M.PASS_POSITIONS, k))
        c = rng.normal(size=(k, n_cols))
        full = x @ c
        moved = [m for m in range(2, M.PASS_POSITIONS + 1)
                 if (x[:m] @ c).tobytes() != full[:m].tobytes()]
        assert not moved, (
            f"OpenBLAS now sums a ({k}, {n_cols}) contiguous-operand product in an order "
            f"that depends on the row count (rows move at {len(moved)} row counts, first "
            f"{moved[:5]}): packed encoder passes no longer have the padded pass's bits")


class TestPackedMatchesPadded:
    """model.forward_batch/backward_batch against the padded reference, which
    runs every layer on all b * n slots."""

    @pytest.mark.parametrize("d_char", ROW_RULE_WIDTHS)
    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    @pytest.mark.parametrize("d_out", [5, 16, 768])
    def test_same_bytes(self, d_char, n_layers, d_out):
        max_chars, cases = packed_cases()
        cfg = M.ModelConfig(d_char=d_char, d_out=d_out, n_layers=n_layers, n_heads=2,
                            max_chars=max_chars)
        p = M.init_params(cfg, 20, seed=d_char + 10 * n_layers + d_out)
        for kind, batch in cases.items():
            for seqs in (batch, batch[::-1]):
                emb, cache = M.forward_batch(p, seqs)
                ref_emb, ref_cache = reference.forward_batch(p, seqs)
                assert emb.tobytes() == ref_emb.tobytes(), kind
                for layer, ref_layer in zip(cache["layers"], ref_cache["layers"]):
                    for row, seq in enumerate(seqs):
                        n = len(seq)
                        assert (layer["a"][row, :, :n, :n].tobytes()
                                == ref_layer["a"][row, :, :n, :n].tobytes()), kind
                u = np.random.default_rng(51).normal(size=emb.shape)
                grads = M.backward_batch(p, cache, u).tensors
                ref_grads = reference.backward_batch(p, ref_cache, u).tensors
                view_grads = reference.backward_batch(p, ref_cache, u,
                                                      transpose=np.transpose).tensors
                for name, grad in grads.items():
                    assert grad.tobytes() == ref_grads[name].tobytes(), (kind, name)
                    # against the transposed-view layout, the bits move only in the last places
                    scale = np.abs(view_grads[name]).max()
                    assert np.abs(grad - view_grads[name]).max() <= 1e-12 * scale, (kind, name)

    def test_seventeen_keys_match_padded_pass_and_lone_words(self):
        # n = 17 keys, wider than numpy's 8-lane pairwise block: the softmax still
        # sums keys in order, so the padded keys of shorter words add exact zeros
        rng = np.random.default_rng(55)
        seqs = [tuple(rng.integers(2, 20, size=n)) for n in (17, 3, 9, 16, 1, 12)]
        cfg = M.ModelConfig(d_char=16, d_out=16, n_layers=2, n_heads=2, max_chars=17)
        p = M.init_params(cfg, 20, seed=55)
        emb, cache = M.forward_batch(p, seqs)
        assert cache["ids"].shape[1] == 17 and cache["rows"] is not None
        assert emb.tobytes() == reference.forward_batch(p, seqs)[0].tobytes()
        for row, seq in enumerate(seqs):
            n = len(seq)
            lone_emb, maps, _ = M.forward(p, seq)
            assert emb[row].tobytes() == lone_emb.tobytes()
            for layer, lone_maps in zip(cache["layers"], maps):
                assert layer["a"][row, :, :n, :n].tobytes() == np.stack(lone_maps).tobytes()

    @pytest.mark.parametrize("kind", ["mixed", "slight"])
    def test_rows_are_the_real_positions(self, tiny_config, kind):
        p = M.init_params(tiny_config, 20, seed=52)
        _, cases = packed_cases()
        seqs = cases[kind]
        _, cache = M.forward_batch(p, seqs)
        b, n = cache["ids"].shape
        real = np.arange(n) < np.array([len(s) for s in seqs])[:, None]
        np.testing.assert_array_equal(cache["rows"], np.flatnonzero(real))
        assert cache["x_final"].shape == (b, n, tiny_config.d_char)
        assert cache["z"].shape == (b, n, tiny_config.d_out)
        for layer in cache["layers"]:
            for key in ("xb", "c", "xbp", "u", "cdf", "g"):
                assert layer[key].shape[0] == real.sum(), key
            assert layer["a"].shape == (b, tiny_config.n_heads, n, n)

    @pytest.mark.parametrize("kind", ["lone", "equal"])
    def test_all_slots_run_as_rows_without_a_copy(self, tiny_config, kind):
        # no padded slot, or one real position: the rows are all the slots
        p = M.init_params(tiny_config, 20, seed=53)
        _, cases = packed_cases()
        _, cache = M.forward_batch(p, cases[kind])
        assert cache["rows"] is None
        b, n = cache["ids"].shape
        for layer in cache["layers"]:
            assert layer["xb"].shape == (b * n, tiny_config.d_char)
        assert cache["x_final"].base is not None  # a view of the last layer's rows


class TestParamCount:
    def test_paper_scale_table(self):
        assert M.table_param_count(119547, 768) == 91_812_096

    def test_hand_summed_toy(self):
        cfg = M.ModelConfig(d_char=8, d_out=16, n_layers=1, n_heads=2)
        # char_emb 10*8; per layer: 2 LN pairs 4*8, qkv 3*2*(8*4), Wo 64,
        # W1 8*32 + 32, W2 32*8 + 8; head: We 8*16 + 16 + 2*16
        expected = 80 + (32 + 192 + 64 + 256 + 32 + 256 + 8) + (128 + 16 + 32)
        assert M.param_count(cfg, 10) == expected

    def test_zero_layer_boundary(self):
        cfg = M.ModelConfig(d_char=8, d_out=16, n_layers=0, n_heads=2)
        assert M.param_count(cfg, 10) == 80 + 128 + 16 + 32


class TestCheckpoint:
    def test_round_trip(self, tiny_config, alphabet, tmp_path):
        p = M.init_params(tiny_config, len(alphabet), seed=4)
        path = tmp_path / "model.c2sw"
        M.save_checkpoint(path, p, alphabet)
        loaded, chars, marker = M.load_checkpoint(path)
        assert loaded.config == tiny_config
        assert chars == list(alphabet.chars)
        assert marker is True
        for name in p.tensors:
            assert np.array_equal(p.tensors[name], loaded.tensors[name])
        assert path.read_bytes()[4:8] == struct.pack("<I", 2)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_v1_loads_as_its_v2_resave(self, alphabet, tmp_path, n_heads):
        cfg = M.ModelConfig(d_char=8, d_out=6, n_layers=2, n_heads=n_heads)
        rng = np.random.default_rng(n_heads)
        p = M.Char2SubwordParams(cfg, len(alphabet),
                                 rng.normal(size=M.param_count(cfg, len(alphabet))))
        v1, v2 = tmp_path / "v1.c2sw", tmp_path / "v2.c2sw"
        save_checkpoint_v1(v1, p, alphabet)
        loaded, chars, _ = M.load_checkpoint(v1)
        np.testing.assert_array_equal(loaded.flat, p.flat)
        M.save_checkpoint(v2, loaded, alphabet)
        resaved, resaved_chars, _ = M.load_checkpoint(v2)
        np.testing.assert_array_equal(resaved.flat, loaded.flat)
        assert (resaved.config, resaved_chars) == (cfg, chars)

    def test_v1_bytes_of_seeded_init_pinned(self, tiny_config, alphabet, tmp_path):
        # the SHA-256 of this model's file as the version-1 writer saved it:
        # init_params draws the same numbers into the same places
        path = tmp_path / "v1.c2sw"
        save_checkpoint_v1(path, M.init_params(tiny_config, len(alphabet), seed=4), alphabet)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "d0b3141ac28890719f657e3eb2d0003cbfc7f93763be0f05897c71392fc02990"

    def test_manifest_must_match_version(self, tiny_config, alphabet, tmp_path):
        p = M.init_params(tiny_config, len(alphabet), seed=4)
        path = tmp_path / "model.c2sw"
        for save, other_version in ((M.save_checkpoint, 1), (save_checkpoint_v1, 2)):
            save(path, p, alphabet)
            data = path.read_bytes()
            path.write_bytes(data[:4] + struct.pack("<I", other_version) + data[8:])
            with pytest.raises(ValueError, match="manifest"):
                M.load_checkpoint(path)

    def test_unknown_version_rejected(self, tiny_config, alphabet, tmp_path):
        path = saved_checkpoint(tiny_config, alphabet, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<I", 3) + data[8:])
        with pytest.raises(ValueError, match="unsupported checkpoint version 3"):
            M.load_checkpoint(path)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            M.load_checkpoint(path)

    def test_magic_bytes_present(self, tiny_config, alphabet, tmp_path):
        p = M.init_params(tiny_config, len(alphabet), seed=4)
        path = tmp_path / "model.c2sw"
        M.save_checkpoint(path, p, alphabet)
        assert path.read_bytes()[:4] == b"C2SW"

    def test_truncated_payload_rejected(self, tiny_config, alphabet, tmp_path):
        path = saved_checkpoint(tiny_config, alphabet, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        expected = 8 * M.param_count(tiny_config, len(alphabet))
        with pytest.raises(ValueError, match=rf"{expected - 8} bytes, expected {expected}"):
            M.load_checkpoint(path)
        path.write_bytes(data[:6])
        with pytest.raises(ValueError, match="truncated after 6 bytes"):
            M.load_checkpoint(path)
        path.write_bytes(data[:20])
        with pytest.raises(ValueError, match="runs past the end of the file"):
            M.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tiny_config, alphabet, tmp_path):
        path = saved_checkpoint(tiny_config, alphabet, tmp_path)
        path.write_bytes(path.read_bytes() + b"junk")
        expected = 8 * M.param_count(tiny_config, len(alphabet))
        with pytest.raises(ValueError, match=rf"{expected + 4} bytes, expected {expected}"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("version, sizes", [(2, {"n_layers": 10 ** 9}),
                                                (1, {"d_char": 2 ** 40, "n_heads": 2 ** 40})],
                             ids=["layers", "v1-heads"])
    def test_header_sizes_checked_before_anything_is_built(self, tiny_config, alphabet, tmp_path,
                                                           version, sizes):
        # a file of a few KB whose header sizes loops over 10^9 layers or 2^40 heads
        path = saved_checkpoint(tiny_config, alphabet, tmp_path)
        rewrite_header(path, lambda header: header["config"].update(sizes))
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<I", version) + data[8:])
        cached = M._layout.cache_info().currsize
        with pytest.raises(ValueError, match="checkpoint payload is"):
            M.load_checkpoint(path)
        assert M._layout.cache_info().currsize == cached

    def test_manifest_must_match_config(self, tiny_config, alphabet, tmp_path):
        path = saved_checkpoint(tiny_config, alphabet, tmp_path)

        def swap_first_two(header):
            m = header["manifest"]
            m[1], m[2] = m[2], m[1]

        rewrite_header(path, swap_first_two)
        with pytest.raises(ValueError, match="manifest"):
            M.load_checkpoint(path)

    def test_standard_preln_checkpoint_rejected(self, tiny_config, alphabet, tmp_path):
        path = saved_checkpoint(tiny_config, alphabet, tmp_path)
        assert read_header(path)["config"]["standard_preln"] is False
        rewrite_header(path, lambda header: header["config"].update(standard_preln=True))
        with pytest.raises(ValueError, match="pre-LN"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: ["not", "an", "object"], "must be a JSON object"),
        (lambda h: dropped(h, "config"), "must be a JSON object"),
        (lambda h: dropped(h, "alphabet"), "must be a JSON object"),
        (lambda h: dropped(h, "manifest"), "must be a JSON object"),
        (lambda h: dropped(h, "marker_on_full_words"), "must be a JSON object"),
        (lambda h: dict(h, extra=1), "must be a JSON object with exactly the keys"),
        (lambda h: dict(h, config=[8, 16]), "exactly the keys"),
        (lambda h: dict(h, config=dropped(h["config"], "d_out")), "exactly the keys"),
        (lambda h: dict(h, config=dict(h["config"], dropout=0.1)), "exactly the keys"),
        (lambda h: dict(h, config=dict(h["config"], d_char="8")), r"type for \['d_char'\]"),
        (lambda h: dict(h, config=dict(h["config"], max_chars=32.0)),
         r"type for \['max_chars'\]"),
        (lambda h: dict(h, config=dict(h["config"], n_layers=True)), r"type for \['n_layers'\]"),
        (lambda h: dict(h, config=dict(h["config"], ln_eps=1e999)), "fixed LayerNorm epsilon"),
        (lambda h: dict(h, config=dict(h["config"], ln_eps=1e-06)),
         r"ln_eps is 1e-06; .* fixed LayerNorm epsilon 1e-05"),
        (lambda h: dict(h, config=dict(h["config"], d_char=7, n_heads=1)), "must be even"),
        (lambda h: dict(h, alphabet="abc"), "alphabet must be a list"),
        (lambda h: dict(h, alphabet=["#x", *h["alphabet"][1:]]),
         "alphabet entry '#x' is not a single character"),
        (lambda h: dict(h, alphabet=[h["alphabet"][1], *h["alphabet"][1:]]),
         "alphabet entry .* is a duplicate"),
        (lambda h: dict(h, marker_on_full_words=None), "marker_on_full_words"),
        (lambda h: dict(h, marker_on_full_words=False), "marker_on_full_words must be true"),
        (lambda h: dict(h, alphabet=h["alphabet"][:-1]), "checkpoint payload is"),
        (lambda h: dict(h, manifest={"char_emb": 1}), "manifest"),
    ], ids=["not-object", "no-config", "no-alphabet", "no-manifest", "no-marker", "extra-key",
            "config-not-object", "config-key-missing", "config-key-unknown", "str-count",
            "float-count", "bool-count", "inf-eps", "other-eps", "odd-d-char",
            "alphabet-not-list", "alphabet-long-entry", "alphabet-duplicate",
            "marker-not-bool", "marker-false", "alphabet-short", "manifest-not-list"])
    def test_malformed_header_rejected(self, tiny_config, alphabet, tmp_path, edit, message):
        path = saved_checkpoint(tiny_config, alphabet, tmp_path)
        write_header(path, edit(read_header(path)))
        with pytest.raises(ValueError, match=message):
            M.load_checkpoint(path)


def saved_checkpoint(config, alphabet, tmp_path):
    path = tmp_path / "model.c2sw"
    M.save_checkpoint(path, M.init_params(config, len(alphabet), seed=4), alphabet)
    return path


def dropped(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def read_header(path):
    data = path.read_bytes()
    hlen, = struct.unpack("<I", data[8:12])
    return json.loads(data[12:12 + hlen])


def rewrite_header(path, edit):
    """Apply `edit` to the checkpoint's JSON header, keeping the payload."""
    header = read_header(path)
    edit(header)
    write_header(path, header)


def write_header(path, header):
    """Replace the checkpoint's JSON header by `header`, keeping the payload."""
    data = path.read_bytes()
    hlen, = struct.unpack("<I", data[8:12])
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + hlen:])


def assert_views_of_flat(params):
    names = [name for name, _ in M.tensor_shapes(params.config, params.alphabet_size)]
    assert list(params.tensors) == names
    for name, tensor in params.tensors.items():
        assert np.shares_memory(tensor, params.flat), name
    np.testing.assert_array_equal(
        np.concatenate([t.ravel() for t in params.tensors.values()]), params.flat)


class TestFlatParams:
    def test_tensors_are_views_of_flat(self, tiny_config, alphabet, tmp_path):
        p = M.init_params(tiny_config, len(alphabet), seed=4)
        assert p.flat.shape == (M.param_count(tiny_config, len(alphabet)),)
        assert_views_of_flat(p)
        assert_views_of_flat(p.copy())
        assert_views_of_flat(M.load_checkpoint(saved_checkpoint(tiny_config, alphabet,
                                                                tmp_path))[0])
        save_checkpoint_v1(tmp_path / "v1.c2sw", p, alphabet)
        assert_views_of_flat(M.load_checkpoint(tmp_path / "v1.c2sw")[0])

    def test_copy_is_independent(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=4)
        before = p.flat.copy()
        c = p.copy()
        c.flat += 1.0
        c.tensors["We"][0, 0] = 5.0
        np.testing.assert_array_equal(p.flat, before)
        assert not np.shares_memory(c.flat, p.flat)

    def test_wrong_length_rejected(self, tiny_config, alphabet):
        with pytest.raises(ValueError, match="parameter vector"):
            M.Char2SubwordParams(tiny_config, len(alphabet), np.zeros(3))
