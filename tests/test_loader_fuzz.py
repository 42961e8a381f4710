"""Fuzzed loaders: checkpoint (versions 1 and 2) and EMBT table files,
vocabularies and layouts.

A checkpoint or table case starts from a saved file and truncates it at any
offset, appends random bytes, or overwrites bytes of its header. A vocabulary
case is arbitrary file bytes or lines; a layout case is arbitrary text or a
JSON document shaped roughly like a layout. Loading must then raise ValueError
(or a subclass) or return what the input describes, never raise another
exception type.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import char2subword as c2s
from char2subword import model as M
from char2subword.noise import load_layouts
from char2subword.objectives import load_table, save_table_binary
from char2subword.vocab import UNK, load_vocabulary

from reference import save_checkpoint_v1

FUZZ = settings(max_examples=200, derandomize=True, deadline=None)


def mutations(data, header_end):
    """(kind, mutated bytes): a cut, an appended tail, or a header overwrite."""
    cut = st.integers(0, len(data) - 1).map(lambda n: ("cut", data[:n]))
    tail = st.binary(min_size=1, max_size=64).map(lambda b: ("tail", data + b))
    over = st.tuples(st.integers(0, header_end - 1), st.binary(min_size=1, max_size=16)).map(
        lambda ob: ("over", overwrite(data, ob[0], ob[1][:header_end - ob[0]])))
    return st.one_of(cut, tail, over)


def overwrite(data, at, new):
    return data[:at] + new + data[at + len(new):]


@pytest.fixture(scope="module")
def saved(tmp_path_factory, toy_vocab, toy_table, tiny_config):
    """A checkpoint in each version and an EMBT table on disk, with the
    table's bytes."""
    out = tmp_path_factory.mktemp("fuzz")
    alphabet = c2s.build_alphabet(toy_vocab)
    params = M.init_params(tiny_config, len(alphabet), seed=4)
    paths = {"v2": out / "model.c2sw", "v1": out / "model_v1.c2sw", "table": out / "table.embt"}
    M.save_checkpoint(paths["v2"], params, alphabet)
    save_checkpoint_v1(paths["v1"], params, alphabet)
    save_table_binary(paths["table"], toy_table)
    return {**paths, "table_bytes": paths["table"].read_bytes(), "out": out}


def fuzz_checkpoint(path, out):
    """Load every mutation of the checkpoint at `path`; the header ends after
    the 12-byte preamble and the JSON header."""
    original, data = M.load_checkpoint(path), path.read_bytes()
    fuzzed = out / "fuzzed.c2sw"

    @FUZZ
    @given(mutations(data, 12 + int.from_bytes(data[8:12], "little")))
    def check(case):
        kind, mutated = case
        fuzzed.write_bytes(mutated)
        try:
            params, chars, marker = M.load_checkpoint(fuzzed)
        except ValueError:
            return
        # a cut or a tail always changes the payload length
        assert kind == "over"
        # the header may name other valid values (ln_eps, characters), but
        # the payload is read as the same parameters
        np.testing.assert_array_equal(params.flat, original[0].flat)
        assert isinstance(params.config, M.ModelConfig)
        assert all(isinstance(c, str) for c in chars) and len(chars) == len(original[1])
        assert isinstance(marker, bool)
        if mutated == data:
            assert (params.config, chars, marker) == (original[0].config, *original[1:])

    check()


def test_fuzzed_checkpoint_loads_or_raises_value_error(saved):
    fuzz_checkpoint(saved["v2"], saved["out"])


def test_fuzzed_v1_checkpoint_loads_or_raises_value_error(saved):
    fuzz_checkpoint(saved["v1"], saved["out"])


def test_fuzzed_table_loads_or_raises_value_error(saved):
    original = load_table(saved["table"])
    path = saved["out"] / "fuzzed.embt"

    @FUZZ
    @given(mutations(saved["table_bytes"], 12))
    def check(case):
        kind, data = case
        path.write_bytes(data)
        try:
            table = load_table(path)
        except ValueError:
            return
        assert kind == "over"
        # an overwritten preamble can only give the same floats another
        # shape with the same number of entries
        np.testing.assert_array_equal(table.matrix.ravel(), original.matrix.ravel())
        if data == saved["table_bytes"]:
            assert table.matrix.shape == original.matrix.shape

    check()


def check_vocabulary(vocab):
    assert UNK in vocab
    assert all(tok and tok == tok.strip() for tok in vocab.entries)
    assert vocab.id_of == {tok: i for i, tok in enumerate(vocab.entries)}


# lines near the real format: short tokens, [UNK], duplicates and blank lines
VOCAB_LINES = st.lists(st.one_of(st.sampled_from([UNK, "", " ", "##a", "a", "[MASK]"]),
                                 st.text(max_size=6)), max_size=12)


@FUZZ
@given(VOCAB_LINES)
def test_fuzzed_vocabulary_lines_load_or_raise_value_error(lines):
    try:
        vocab = load_vocabulary(lines)
    except ValueError:
        return
    check_vocabulary(vocab)


def test_fuzzed_vocabulary_file_loads_or_raises_value_error(tmp_path):
    path = tmp_path / "vocab.txt"

    @FUZZ
    @given(st.one_of(st.binary(max_size=64),
                     VOCAB_LINES.map(lambda ls: "\n".join(ls).encode("utf-8"))))
    def check(data):
        path.write_bytes(data)
        try:
            vocab = load_vocabulary(path)
        except ValueError:  # also undecodable bytes: UnicodeDecodeError
            return
        check_vocabulary(vocab)

    check()


JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=8)
# documents near the real format: {name: {key: [neighbor, ...]}} with any values mixed in
KEY_MAPS = st.dictionaries(st.text(max_size=2),
                           st.lists(st.text(max_size=2), max_size=3) | JSON, max_size=3)
LAYOUT_DOCS = st.dictionaries(st.text(max_size=3), KEY_MAPS | JSON, max_size=3).map(json.dumps)


@FUZZ
@given(st.one_of(LAYOUT_DOCS, JSON.map(json.dumps), st.text(max_size=40)))
def test_fuzzed_layouts_load_or_raise_value_error(doc):
    try:
        layouts = load_layouts(doc)
    except ValueError:  # LayoutError is one
        return
    assert [lay.name for lay in layouts] == list(json.loads(doc))
    for lay in layouts:
        for key, nbrs in lay.neighbors.items():
            assert len(key) == 1 and nbrs and key not in nbrs
            assert all(isinstance(c, str) and len(c) == 1 for c in nbrs)
