"""Vocabulary storage, WordPiece-style tokenization, and character sequences."""

import os
from dataclasses import dataclass, field

MARKER = "##"
UNK = "[UNK]"
MASK = "[MASK]"
PAD = "[PAD]"
CLS = "[CLS]"
SEP = "[SEP]"
SPECIAL_TOKENS = frozenset({UNK, MASK, PAD, CLS, SEP})

# Reserved character slots; not ordinary alphabet members.
UNK_CHAR_INDEX = 0
MASK_CHAR_INDEX = 1
N_RESERVED_CHARS = 2

# Characters a sequence keeps; longer tokens are truncated.
MAX_CHARS = 32


class VocabularyError(ValueError):
    """Raised for malformed vocabulary files."""


@dataclass(frozen=True)
class Vocabulary:
    """Ordered subword list with a bijective id map."""

    entries: tuple
    id_of: dict = field(repr=False)

    def __len__(self):
        return len(self.entries)

    def __contains__(self, token):
        return token in self.id_of

    def token(self, idx):
        return self.entries[idx]

    def non_special_ids(self):
        return [i for i, t in enumerate(self.entries) if t not in SPECIAL_TOKENS]


def load_vocabulary(source):
    """Build a Vocabulary from one-token-per-line text.

    `source` is a path (a str or an os.PathLike) or any other iterable of
    lines. Line number (0-based) becomes the token id. Duplicates and a
    missing [UNK] are errors.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in source]

    entries = []
    id_of = {}
    for lineno, tok in enumerate(lines):
        tok = tok.strip()
        if not tok:
            continue
        if tok in id_of:
            raise VocabularyError(
                f"duplicate token {tok!r} at lines {id_of[tok]} and {lineno}"
            )
        id_of[tok] = lineno
        entries.append(tok)
    # re-number densely in case blank lines were skipped
    id_of = {tok: i for i, tok in enumerate(entries)}
    if UNK not in id_of:
        raise VocabularyError(f"vocabulary is missing the {UNK} token")
    return Vocabulary(entries=tuple(entries), id_of=id_of)


@dataclass(frozen=True)
class CharAlphabet:
    """Characters of the vocabulary plus reserved UNK_CHAR / MASK_CHAR slots.

    Ordinary characters occupy indices N_RESERVED_CHARS.. in order of first
    appearance across vocabulary entries.
    """

    chars: tuple
    index_of: dict = field(repr=False)

    def __len__(self):
        return N_RESERVED_CHARS + len(self.chars)

    def index(self, ch):
        return self.index_of.get(ch, UNK_CHAR_INDEX)

    def char(self, idx):
        """Printable form of an index, including reserved slots."""
        if idx == UNK_CHAR_INDEX:
            return "<unk>"
        if idx == MASK_CHAR_INDEX:
            return "<mask>"
        return self.chars[idx - N_RESERVED_CHARS]

    def ordinary_indices(self):
        return range(N_RESERVED_CHARS, len(self))


def build_alphabet(vocab, extra_chars=""):
    """Collect the distinct characters of all vocabulary entries.

    Marker characters are always included so marked sequences are
    representable even on vocabularies without continuation pieces.
    """
    seen = []
    seen_set = set()
    for ch in MARKER:
        if ch not in seen_set:
            seen_set.add(ch)
            seen.append(ch)
    for entry in vocab.entries:
        if entry in SPECIAL_TOKENS:
            continue
        for ch in entry:
            if ch not in seen_set:
                seen_set.add(ch)
                seen.append(ch)
    for ch in extra_chars:
        if ch not in seen_set:
            seen_set.add(ch)
            seen.append(ch)
    index_of = {ch: i + N_RESERVED_CHARS for i, ch in enumerate(seen)}
    return CharAlphabet(chars=tuple(seen), index_of=index_of)


@dataclass(frozen=True)
class CharSequence:
    """A token rendered as alphabet indices, marker handling applied."""

    token: str
    chars: tuple
    is_full_word: bool

    def __len__(self):
        return len(self.chars)


def char_sequence(token, is_full_word, alphabet, max_chars=MAX_CHARS):
    """Map a token to alphabet indices.

    The "##" marker is prepended to full words (subword pieces already carry
    theirs). Out-of-alphabet characters map to UNK_CHAR. The result is
    truncated at `max_chars`.
    """
    if not token:
        raise ValueError("char_sequence requires a nonempty token")
    text = token
    if is_full_word and not text.startswith(MARKER):
        text = MARKER + text
    idxs = tuple(alphabet.index(ch) for ch in text[:max_chars])
    return CharSequence(token=token, chars=idxs, is_full_word=is_full_word)


def whitespace_split(sentence):
    """Split on Unicode whitespace runs, dropping empties."""
    return sentence.split()


def tokenize_word(vocab, word):
    """Greedy longest-prefix (WordPiece-style) segmentation of a single word.

    Pieces after the first are looked up with the "##" prefix. If no prefix
    matches at any point the whole word falls back to [UNK].
    """
    if not word or any(ch.isspace() for ch in word):
        raise ValueError(f"tokenize_word expects a single nonempty word, got {word!r}")
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while end > start:
            piece = word[start:end]
            if start > 0:
                piece = MARKER + piece
            if piece in vocab.id_of:
                found = piece
                break
            end -= 1
        if found is None:
            return [UNK]
        pieces.append(found)
        start = end
    return pieces
