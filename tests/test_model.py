import hashlib
import json
import struct

import numpy as np
import pytest

import char2subword as c2s
from char2subword import model as M
from char2subword.numerics import layer_norm, softmax_rows, sinusoidal_pe, gelu
from char2subword.vocab import char_sequence
from reference import finite_diff_gradient, save_checkpoint_v1


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
        seq = char_sequence("a", False, alphabet)
        object.__setattr__(seq, "chars", ())
        with pytest.raises(ValueError):
            M.forward(p, seq)

    def test_matches_step_by_step_trace(self, alphabet):
        # independent re-derivation of the layer equations at hand size
        cfg = M.ModelConfig(d_char=4, d_out=2, n_layers=1, n_heads=2)
        p = M.init_params(cfg, len(alphabet), seed=5)
        seq = char_sequence("ab", False, alphabet)
        t = p.tensors
        x = np.stack([t["char_emb"][seq.chars[0]] + sinusoidal_pe(0, 4),
                      t["char_emb"][seq.chars[1]] + sinusoidal_pe(1, 4)])
        xb = layer_norm(x, t["L0.ln1.g"], t["L0.ln1.b"], cfg.ln_eps)
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
        xbp = layer_norm(xp, t["L0.ln2.g"], t["L0.ln2.b"], cfg.ln_eps)
        xo = gelu(xbp @ t["L0.W1"] + t["L0.b1"]) @ t["L0.W2"] + t["L0.b2"] + xbp
        y = xo @ t["We"] + t["be"]
        expected = layer_norm(y.max(axis=0), t["ln_out.g"], t["ln_out.b"], cfg.ln_eps)
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
        used = set(seq.chars)
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
        emb, maps, _ = M.forward_batch(p, seqs)
        for b, seq in enumerate(seqs):
            e1, maps1, _ = M.forward(p, seq)
            np.testing.assert_allclose(emb[b], e1, rtol=0, atol=1e-12)
            n = len(seq)
            for layer, layer1 in zip(maps, maps1):
                for h, a1 in enumerate(layer1):
                    np.testing.assert_allclose(layer[b, h, :n, :n], a1, rtol=0, atol=1e-12)

    def test_empty_batch_and_overlong_rejected(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=0)
        with pytest.raises(ValueError):
            M.forward_batch(p, [])
        long_seq = char_sequence("a" * 40, False, alphabet, max_chars=40)
        with pytest.raises(ValueError, match="max_chars"):
            M.forward_batch(p, [char_sequence("ab", False, alphabet), long_seq])

    def test_encode_bit_identical_to_forward(self, tiny_config, alphabet):
        p = M.init_params(tiny_config, len(alphabet), seed=22)
        words = ["apple", "a", "badge", "zz", "blackberry", "apple", "alarm"]
        vecs = M.encode(p, words, alphabet, is_full_word=False)
        assert vecs.shape == (len(words), tiny_config.d_out)
        for word, vec in zip(words, vecs):
            e1, _, _ = M.forward(p, char_sequence(word, False, alphabet))
            np.testing.assert_array_equal(vec, e1)


class TestBackwardBatch:
    def test_matches_summed_batch_of_one(self, alphabet):
        cfg = M.ModelConfig(d_char=8, d_out=6, n_layers=2, n_heads=2)
        p = M.init_params(cfg, len(alphabet), seed=23)
        seqs = mixed_batch(alphabet, cfg.max_chars)
        u = np.random.default_rng(24).normal(size=(len(seqs), cfg.d_out))
        _, _, cache = M.forward_batch(p, seqs)
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
        _, _, cache = M.forward_batch(p, seqs)
        grads = M.backward_batch(p, cache, u).tensors

        def loss():
            e, _, _ = M.forward_batch(p, seqs)
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
        _, _, cache = M.forward_batch(p, seqs)
        grads = M.backward_batch(p, cache, u)
        # a longer sequence with zero upstream pads both others further
        longer = seqs + [char_sequence("blackberries", False, alphabet)]
        _, _, cache = M.forward_batch(p, longer)
        grads_padded = M.backward_batch(p, cache, np.vstack([u, np.zeros(tiny_config.d_out)]))
        np.testing.assert_allclose(grads_padded.flat, grads.flat, rtol=0, atol=1e-12)


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
        (lambda h: dict(h, config=[8, 16]), "exactly the keys"),
        (lambda h: dict(h, config=dropped(h["config"], "d_out")), "exactly the keys"),
        (lambda h: dict(h, config=dict(h["config"], dropout=0.1)), "exactly the keys"),
        (lambda h: dict(h, config=dict(h["config"], d_char="8")), r"type for \['d_char'\]"),
        (lambda h: dict(h, config=dict(h["config"], max_chars=32.0)),
         r"type for \['max_chars'\]"),
        (lambda h: dict(h, config=dict(h["config"], n_layers=True)), r"type for \['n_layers'\]"),
        (lambda h: dict(h, config=dict(h["config"], ln_eps=1e999)), "ln_eps must be finite"),
        (lambda h: dict(h, config=dict(h["config"], d_char=7, n_heads=1)), "must be even"),
        (lambda h: dict(h, alphabet="abc"), "alphabet must be a list"),
        (lambda h: dict(h, marker_on_full_words=None), "marker_on_full_words"),
        (lambda h: dict(h, marker_on_full_words=False), "marker_on_full_words must be true"),
        (lambda h: dict(h, alphabet=h["alphabet"][:-1]), "manifest"),
        (lambda h: dict(h, manifest={"char_emb": 1}), "manifest"),
    ], ids=["not-object", "no-config", "no-alphabet", "no-manifest", "no-marker",
            "config-not-object", "config-key-missing", "config-key-unknown", "str-count",
            "float-count", "bool-count", "inf-eps", "odd-d-char", "alphabet-not-list",
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
