import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import reference

from char2subword.noise import (
    DEFAULT_PUNCTUATION,
    KeyboardLayout,
    LayoutError,
    NoiseConfig,
    NoiseError,
    OPERATIONS,
    apply_op,
    default_layouts,
    load_layouts,
    noise_line,
    sample_noisy,
)


def levenshtein(a, b):
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def damerau1(a, b):
    """True if b is one adjacent transposition away from a."""
    if len(a) != len(b):
        return False
    diffs = [i for i in range(len(a)) if a[i] != b[i]]
    return (len(diffs) == 2 and diffs[1] == diffs[0] + 1
            and a[diffs[0]] == b[diffs[1]] and a[diffs[1]] == b[diffs[0]])


class TestLayouts:
    def test_load_fragment(self):
        doc = '{"qwerty": {"a": ["q", "w", "s", "z", "x"]}}'
        layouts = load_layouts(doc)
        assert len(layouts) == 1
        assert layouts[0].neighbors["a"] == ["q", "w", "s", "z", "x"]

    def test_empty_document(self):
        assert load_layouts("{}") == []

    def test_malformed_reports_location(self):
        with pytest.raises(LayoutError, match="line"):
            load_layouts('{"x": ')

    @pytest.mark.parametrize("doc, match", [
        ('{"q": {"a": 1}}', "needs a list of single characters, got 1"),
        ('{"q": {"a": "bc"}}', "needs a list of single characters, got 'bc'"),
        ('{"q": {"a": [1]}}', r"got \[1\]"),
        ('{"q": {"a": ["bc"]}}', r"got \['bc'\]"),
        ('{"q": {"a": [""]}}', r"got \[''\]"),
        ('{"q": {"ab": ["c"]}}', "key 'ab' is not a single character"),
        ('{"q": {"": ["c"]}}', "key '' is not a single character"),
    ])
    def test_bad_key_map_values_rejected(self, doc, match):
        with pytest.raises(LayoutError, match=match):
            load_layouts(doc)

    def test_self_neighbor_rejected(self):
        with pytest.raises(LayoutError, match="'a'"):
            KeyboardLayout(name="bad", neighbors={"a": ["a", "b"]})

    def test_empty_neighbor_list_rejected(self):
        with pytest.raises(LayoutError, match="'q'"):
            KeyboardLayout(name="bad", neighbors={"q": []})

    @pytest.mark.parametrize("neighbors, match", [
        ({"ab": ["c"]}, "key 'ab' is not a single character"),
        ({"a": [1, 2]}, r"key 'a' needs a list of single characters, got \[1, 2\]"),
    ], ids=["long-key", "int-neighbors"])
    def test_layout_built_in_python_checked_as_loaded(self, neighbors, match):
        with pytest.raises(LayoutError, match=match):
            KeyboardLayout(name="x", neighbors=neighbors)

    def test_default_qwerty_sane(self):
        (lay,) = default_layouts()
        assert "s" in lay.neighbors["a"]
        assert "a" not in lay.neighbors["a"]


class TestNoiseConfig:
    def test_p_noise_range(self):
        with pytest.raises(ValueError):
            NoiseConfig(p_noise=1.5)

    def test_min_length_floor(self):
        with pytest.raises(ValueError):
            NoiseConfig(min_length=1)

    def test_ops_required_when_noising(self):
        with pytest.raises(ValueError):
            NoiseConfig(enabled_ops=(), p_noise=0.5)

    def test_qwerty_is_the_default_layout(self):
        assert NoiseConfig().layouts == tuple(default_layouts())

    @pytest.mark.parametrize("layouts", [(), (KeyboardLayout(name="q", neighbors={}),)],
                             ids=["none", "no-key"])
    def test_layouts_without_a_key_rejected(self, layouts):
        with pytest.raises(ValueError, match="layouts must map at least one key"):
            NoiseConfig(layouts=layouts)


class TestApplyOp:
    def test_swap_deterministic(self, noise_config):
        rng = random.Random(0)
        out = apply_op("hello", "swap", rng, noise_config)
        assert damerau1("hello", out)

    def test_drop(self, noise_config):
        out = apply_op("house", "drop", random.Random(1), noise_config)
        assert len(out) == 4 and levenshtein("house", out) == 1

    def test_toggle(self, noise_config):
        out = apply_op("Hello", "toggle", random.Random(2), noise_config)
        assert len(out) == 5
        assert out.lower() == "hello"
        assert out != "Hello"

    def test_repeat(self, noise_config):
        out = apply_op("books", "repeat", random.Random(3), noise_config)
        assert len(out) == 6 and levenshtein("books", out) == 1

    def test_punctuation(self, noise_config):
        out = apply_op("hello", "punctuation", random.Random(4), noise_config)
        assert len(out) == 6
        inserted = set(out) - set("hello")
        assert inserted <= set(DEFAULT_PUNCTUATION)

    def test_mistype_uses_layout_neighbors(self, noise_config):
        lay = noise_config.layouts[0]
        for seed in range(20):
            out = apply_op("sport", "mistype", random.Random(seed), noise_config)
            diffs = [i for i in range(5) if out[i] != "sport"[i]]
            assert len(diffs) == 1
            i = diffs[0]
            assert out[i] in lay.neighbors["sport"[i]]

    def test_special_token_rejected(self, noise_config):
        with pytest.raises(NoiseError):
            apply_op("[MASK]", "drop", random.Random(0), noise_config)

    def test_short_token_rejected(self, noise_config):
        with pytest.raises(NoiseError):
            apply_op("door", "drop", random.Random(0), noise_config)

    def test_marker_never_edited(self, noise_config):
        for op in OPERATIONS:
            for seed in range(10):
                try:
                    out = apply_op("##kettle", op, random.Random(seed), noise_config)
                except NoiseError:
                    continue
                assert out.startswith("##")
                assert levenshtein("kettle", out[2:]) <= 2

    def test_mistype_off_layout_character_becomes_a_layout_key(self, noise_config):
        keys = set(noise_config.layouts[0].neighbors)
        for seed in range(50):
            out = apply_op("12345", "mistype", random.Random(seed), noise_config)
            diffs = [i for i in range(5) if out[i] != "12345"[i]]
            assert len(diffs) == 1 and out[diffs[0]] in keys

    def test_swap_changes_a_token_with_one_differing_pair(self, noise_config):
        # 1 of the 8 adjacent pairs differs, so a cap on the draws would give up on some seeds
        for seed in range(2000):
            out = apply_op("aaaaaaaab", "swap", random.Random(seed), noise_config)
            assert out == "aaaaaaaba"

    def test_swap_of_one_repeated_character_raises(self, noise_config):
        with pytest.raises(NoiseError, match="every character of the token is the same"):
            apply_op("aaaaa", "swap", random.Random(0), noise_config)

    @pytest.mark.parametrize("token", ["aaaaaaaab", "abcde", "aabbaabb", "Window"])
    def test_swap_draws_match_a_sixteen_draw_cap_where_it_succeeds(self, token, noise_config):
        def capped(body, rng):
            for _ in range(16):
                pos = rng.randrange(len(body) - 1)
                if body[pos] != body[pos + 1]:
                    return body[:pos] + body[pos + 1] + body[pos] + body[pos + 2:]
            return None
        for seed in range(500):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            want = capped(token, ref_rng)
            if want is not None:
                assert apply_op(token, "swap", rng, noise_config) == want
                assert rng.getstate() == ref_rng.getstate()

    def test_toggle_caseless_raises(self, noise_config):
        with pytest.raises(NoiseError):
            apply_op("12345", "toggle", random.Random(0), noise_config)

    def test_result_always_differs(self, noise_config):
        rng = random.Random(5)
        for op in OPERATIONS:
            for _ in range(50):
                assert apply_op("window", op, rng, noise_config) != "window"


class TestSampleNoisy:
    def test_p_zero_identity(self):
        cfg = NoiseConfig(p_noise=0.0, layouts=tuple(default_layouts()))
        rng = random.Random(0)
        for tok in ("window", "vast", "##pieces"):
            assert sample_noisy(tok, rng, cfg) == tok

    def test_four_char_guard(self, noise_config):
        rng = random.Random(1)
        for _ in range(200):
            assert sample_noisy("door", rng, noise_config) == "door"

    def test_binomial_rate(self, noise_config):
        rng = random.Random(2)
        changed = sum(sample_noisy("keyboard", rng, noise_config) != "keyboard"
                      for _ in range(10000))
        assert abs(changed / 10000 - 0.5) < 0.02

    def test_deterministic_per_seed(self, noise_config):
        out1 = [sample_noisy("keyboard", random.Random(7), noise_config) for _ in range(1)]
        out2 = [sample_noisy("keyboard", random.Random(7), noise_config) for _ in range(1)]
        assert out1 == out2

    def test_op_choice_uniform(self, noise_config):
        rng = random.Random(3)
        counts = Counter()
        for _ in range(10000):
            out = sample_noisy("Workbench", rng, noise_config)
            if out == "Workbench":
                continue
            inserted = set(out) - set("Workbench")
            if len(out) == 10 and inserted:
                counts["punctuation"] += 1
            elif len(out) == 10:
                counts["repeat"] += 1
            elif len(out) == 8:
                counts["drop"] += 1
            elif out.lower() != "workbench" and out.swapcase() != out:
                counts["other_len9"] += 1
            else:
                counts["other_len9"] += 1
        # length laws give exact counts for insertion/deletion ops
        total = sum(counts.values())
        for op in ("punctuation", "repeat", "drop"):
            assert abs(counts[op] / total - 1 / 6) < 0.03


class TestNoiseLine:
    CONFIG = NoiseConfig(p_noise=1.0, min_length=2, layouts=tuple(default_layouts()))

    @settings(max_examples=300, deadline=None)
    @given(line=st.text(alphabet="abcdefgh \t\u3000\x0b\x1f", max_size=60),
           seed=st.integers(0, 2**32))
    def test_keeps_every_whitespace_run(self, line, seed):
        out, changed = noise_line(line, random.Random(seed), self.CONFIG)
        parts, in_parts = re.split(r"(\s+)", out), re.split(r"(\s+)", line)
        assert parts[1::2] == in_parts[1::2]
        assert changed == sum(a != b for a, b in zip(parts[::2], in_parts[::2]))

    @settings(max_examples=300, deadline=None)
    @given(words=st.lists(st.text(alphabet="abcdefgh", max_size=9), max_size=10),
           seed=st.integers(0, 2**32))
    def test_space_separated_line_matches_split_on_space(self, words, seed):
        line = " ".join(words)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert noise_line(line, rng, self.CONFIG) == reference.noise_line_spaces(
            line, ref_rng, self.CONFIG)
        assert rng.getstate() == ref_rng.getstate()


class TestLaws:
    @pytest.mark.parametrize("op", OPERATIONS)
    def test_length_and_edit_laws(self, op, noise_config):
        rng = random.Random(11)
        tokens = ["Window", "basket", "Gentle", "napkins", "Formal", "zipper"]
        for i in range(2000):
            tok = tokens[i % len(tokens)]
            out = apply_op(tok, op, rng, noise_config)
            if op in ("mistype", "toggle"):
                assert len(out) == len(tok)
                assert levenshtein(tok, out) == 1
            elif op == "swap":
                assert len(out) == len(tok)
                assert damerau1(tok, out)
            elif op == "drop":
                assert len(out) == len(tok) - 1
                assert levenshtein(tok, out) == 1
            else:  # repeat, punctuation
                assert len(out) == len(tok) + 1
                assert levenshtein(tok, out) == 1

    def test_op_distribution_chi_square(self, noise_config):
        # classify by op identity via controlled rng replay
        rng = random.Random(13)
        counts = Counter()
        n = 10000
        for _ in range(n):
            if rng.random() >= noise_config.p_noise:
                continue
            op = noise_config.enabled_ops[rng.randrange(len(noise_config.enabled_ops))]
            counts[op] += 1
        observed = [counts[op] for op in noise_config.enabled_ops]
        _, p = chisquare(observed)
        assert p > 0.01
