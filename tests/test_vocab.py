import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from char2subword.vocab import (
    MASK_CHAR_INDEX,
    UNK,
    UNK_CHAR_INDEX,
    VocabularyError,
    build_alphabet,
    char_sequence,
    load_vocabulary,
    tokenize_word,
    whitespace_split,
)


class TestLoadVocabulary:
    def test_direct_construction(self):
        v = load_vocabulary(["a", "##b", "[UNK]", "cd"])
        assert len(v) == 4
        assert v.id_of["##b"] == 1
        assert v.token(3) == "cd"

    def test_duplicate_rejected_with_line_numbers(self):
        with pytest.raises(VocabularyError, match=r"lines 0 and 2"):
            load_vocabulary(["a", "[UNK]", "a"])

    def test_missing_unk_rejected(self):
        with pytest.raises(VocabularyError, match=r"\[UNK\]"):
            load_vocabulary(["a", "b"])

    def test_ids_bijective(self):
        v = load_vocabulary(["x", "y", "[UNK]"])
        assert [v.id_of[t] for t in v.entries] == list(range(len(v)))

    def test_directory_name_raises_os_error(self, tmp_path):
        # a string is always a path, never vocabulary text
        with pytest.raises(IsADirectoryError, match=tmp_path.name):
            load_vocabulary(str(tmp_path))

    def test_missing_path_object_raises_os_error(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(FileNotFoundError, match="nope.txt"):
            load_vocabulary(missing)

    def test_directory_path_object_raises_os_error(self, tmp_path):
        with pytest.raises(IsADirectoryError, match=tmp_path.name):
            load_vocabulary(tmp_path)

    def test_path_object_names_a_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\n[UNK]\n", encoding="utf-8")
        assert load_vocabulary(path).entries == ("a", "[UNK]")


class TestTokenizeWord:
    @pytest.fixture
    def greedy_vocab(self):
        return load_vocabulary(["un", "##able", "able", "[UNK]", "hello"])

    def test_greedy_longest_prefix(self, greedy_vocab):
        assert tokenize_word(greedy_vocab, "unable") == ["un", "##able"]

    def test_whole_word_hit(self, greedy_vocab):
        assert tokenize_word(greedy_vocab, "hello") == ["hello"]

    def test_unk_fallback(self, greedy_vocab):
        assert tokenize_word(greedy_vocab, "xyz") == [UNK]

    def test_unk_fallback_mid_word(self, greedy_vocab):
        # first piece matches but the continuation cannot be segmented
        assert tokenize_word(greedy_vocab, "unq") == [UNK]

    def test_rejects_whitespace(self, greedy_vocab):
        with pytest.raises(ValueError):
            tokenize_word(greedy_vocab, "two words")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_and_greedy_property(self, data):
        pieces = data.draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=3),
                                    min_size=1, max_size=8, unique=True))
        vocab_tokens = [UNK] + pieces + ["##" + p for p in pieces]
        # unique=True above does not dedupe across the two lists
        vocab = load_vocabulary(dict.fromkeys(vocab_tokens))
        word = data.draw(st.text(alphabet="abc", min_size=1, max_size=10))
        out = tokenize_word(vocab, word)
        if out == [UNK]:
            return
        assert "".join(p[2:] if p.startswith("##") else p for p in out) == word
        # brute-force longest-prefix oracle for the first piece
        best = max((p for p in pieces if word.startswith(p)), key=len, default=None)
        assert out[0] == best


class TestCharSequence:
    @pytest.fixture
    def alphabet(self):
        v = load_vocabulary(["cat", "##ing", "[UNK]"])
        return build_alphabet(v)

    def test_full_word_gets_marker(self, alphabet):
        seq = char_sequence("cat", True, alphabet)
        assert [alphabet.char(i) for i in seq.chars] == ["#", "#", "c", "a", "t"]

    def test_subword_piece_unchanged(self, alphabet):
        seq = char_sequence("##ing", False, alphabet)
        assert [alphabet.char(i) for i in seq.chars] == ["#", "#", "i", "n", "g"]

    def test_out_of_alphabet_maps_to_unk_char(self, alphabet):
        seq = char_sequence("cz", False, alphabet)
        assert seq.chars[1] == UNK_CHAR_INDEX
        assert seq.chars[0] != UNK_CHAR_INDEX

    def test_truncation(self, alphabet):
        seq = char_sequence("catcatcat", False, alphabet, max_chars=4)
        assert len(seq) == 4

    def test_reserved_indices_not_ordinary(self, alphabet):
        assert UNK_CHAR_INDEX not in alphabet.ordinary_indices()
        assert MASK_CHAR_INDEX not in alphabet.ordinary_indices()

    def test_injective_on_in_alphabet_tokens(self, alphabet):
        tokens = ("cat", "tac", "act", "ta", "at", "##cat", "ing", "##ing")
        seqs = {char_sequence(t, False, alphabet).chars for t in tokens}
        assert len(seqs) == len(tokens)


class TestWhitespaceSplit:
    def test_runs_collapse(self):
        assert whitespace_split("a  b") == ["a", "b"]

    def test_empty(self):
        assert whitespace_split("") == []

    def test_unicode_words(self):
        assert len(whitespace_split("hola qué tal")) == 3
