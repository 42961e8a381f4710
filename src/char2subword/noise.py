"""Single-character noise augmentation with keyboard-layout mistyping.

Each operation applies exactly one edit to a token. Tokens of fewer than
five editable characters and special tokens are left alone, and a leading
"##" marker is never edited.
"""

import json
import re
from dataclasses import dataclass, field

from .vocab import MARKER, SPECIAL_TOKENS

DEFAULT_PUNCTUATION = ("(", ")", "-", ".", ",", "'", ":", ";")
# a run of str.isspace characters: re's \s and str.isspace agree on every code point
_WHITESPACE_RUN = re.compile(r"(\s+)")


class NoiseError(ValueError):
    """Raised when an operation cannot be applied to a token."""


class LayoutError(ValueError):
    """Raised for malformed keyboard layout documents."""


@dataclass(frozen=True)
class KeyboardLayout:
    name: str
    neighbors: dict = field(repr=False)

    def __post_init__(self):
        for ch, nbrs in self.neighbors.items():
            if not (isinstance(ch, str) and len(ch) == 1):
                raise LayoutError(f"layout {self.name!r}: key {ch!r} is not a single character")
            if not isinstance(nbrs, list) or not all(isinstance(c, str) and len(c) == 1
                                                     for c in nbrs):
                raise LayoutError(f"layout {self.name!r}: key {ch!r} needs a list of single "
                                  f"characters, got {nbrs!r}")
            if not nbrs:
                raise LayoutError(f"layout {self.name!r}: key {ch!r} has no neighbors")
            if ch in nbrs:
                raise LayoutError(f"layout {self.name!r}: key {ch!r} lists itself as a neighbor")


# A small QWERTY fragment, enough for latin-script toy vocabularies.
_QWERTY_ROWS = ["qwertyuiop", "asdfghjkl", "zxcvbnm"]


def _qwerty_neighbors():
    nbrs = {}
    for r, row in enumerate(_QWERTY_ROWS):
        for c, ch in enumerate(row):
            # left, right, then the up-left and up keys, then the down-left and down keys
            keys = ((r, c - 1), (r, c + 1), (r - 1, c - 1), (r - 1, c), (r + 1, c - 1), (r + 1, c))
            adj = [_QWERTY_ROWS[rr][cc] for rr, cc in keys
                   if 0 <= rr < len(_QWERTY_ROWS) and 0 <= cc < len(_QWERTY_ROWS[rr])]
            nbrs[ch] = adj
            nbrs[ch.upper()] = [a.upper() for a in adj]
    return nbrs


def default_layouts():
    return [KeyboardLayout(name="qwerty", neighbors=_qwerty_neighbors())]


def load_layouts(source):
    """Parse a JSON layout document: {name: {char: [neighbor, ...]}}."""
    try:
        doc = json.loads(source) if isinstance(source, str) else json.load(source)
    except json.JSONDecodeError as exc:
        raise LayoutError(f"malformed layout document at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise LayoutError("layout document must be an object mapping layout names to key maps")
    layouts = []
    for name, mapping in doc.items():
        if not isinstance(mapping, dict):
            raise LayoutError(f"layout {name!r}: expected an object of key -> neighbor list")
        layouts.append(KeyboardLayout(name=name, neighbors=mapping))
    return layouts


def _editable(token, config):
    """(marker, body) of a token noise may edit: the body follows any "##" marker.
    Raises NoiseError for a special token or a body of fewer than min_length
    characters."""
    if token in SPECIAL_TOKENS:
        raise NoiseError(f"refusing to noise special token {token!r}")
    marker = MARKER if token.startswith(MARKER) else ""
    body = token[len(marker):]
    if len(body) < config.min_length:
        raise NoiseError(
            f"token {token!r} has {len(body)} editable characters; need >= {config.min_length}"
        )
    return marker, body


def _mistype(body, rng, config):
    # one draw always changes the character: a layout key never lists itself
    pos = rng.randrange(len(body))
    ch = body[pos]
    covering = [lay for lay in config.layouts if ch in lay.neighbors]
    if covering:
        repl = rng.choice(rng.choice(covering).neighbors[ch])
    else:  # key absent from every layout: any layout key (NoiseConfig ensures one)
        repl = rng.choice(sorted({k for lay in config.layouts for k in lay.neighbors}))
    return body[:pos] + repl + body[pos + 1:]


def _repeat(body, rng, config):
    pos = rng.randrange(len(body))
    return body[:pos] + body[pos] + body[pos:]


def _swap(body, rng, config):
    if len(set(body)) == 1:
        raise NoiseError("swap: every character of the token is the same")
    while True:  # draw among 0..len-2 (the last position has no next character)
        pos = rng.randrange(len(body) - 1)
        if body[pos] != body[pos + 1]:
            return body[:pos] + body[pos + 1] + body[pos] + body[pos + 2:]


def _drop(body, rng, config):
    pos = rng.randrange(len(body))
    return body[:pos] + body[pos + 1:]


def _toggle(body, rng, config):
    # len check guards oddities like 'ß' -> 'SS' that would change length
    cased = [i for i, ch in enumerate(body) if ch.swapcase() != ch and len(ch.swapcase()) == 1]
    if not cased:
        raise NoiseError("toggle: token has no case-bearing character")
    pos = rng.choice(cased)
    return body[:pos] + body[pos].swapcase() + body[pos + 1:]


def _punctuation(body, rng, config):
    pos = rng.randrange(len(body) + 1)
    mark = rng.choice(DEFAULT_PUNCTUATION)
    return body[:pos] + mark + body[pos:]


# name -> edit(body, rng, config), in the order of OPERATIONS, which seeded draws index
_EDITS = {"mistype": _mistype, "repeat": _repeat, "swap": _swap, "drop": _drop,
          "toggle": _toggle, "punctuation": _punctuation}
OPERATIONS = tuple(_EDITS)


@dataclass(frozen=True)
class NoiseConfig:
    enabled_ops: tuple = OPERATIONS
    layouts: tuple = field(default_factory=lambda: tuple(default_layouts()))
    min_length: int = 5
    p_noise: float = 0.5

    def __post_init__(self):
        if self.min_length < 2:
            raise ValueError("min_length must be >= 2")
        if not 0.0 <= self.p_noise <= 1.0:
            raise ValueError(f"p_noise must be in [0, 1], got {self.p_noise}")
        bad = [op for op in self.enabled_ops if op not in OPERATIONS]
        if bad:
            raise ValueError(f"unknown noise operation(s): {bad}")
        if self.p_noise > 0 and not self.enabled_ops:
            raise ValueError("p_noise > 0 requires at least one enabled operation")
        object.__setattr__(self, "layouts", tuple(self.layouts))
        object.__setattr__(self, "enabled_ops", tuple(self.enabled_ops))
        if not any(lay.neighbors for lay in self.layouts):  # mistype needs a key to type
            raise ValueError("layouts must map at least one key")


def apply_op(token, op, rng, config):
    """Apply one named edit operation to a token; the result always differs.

    A "##" prefix is excluded from the editable region. Raises NoiseError for
    special tokens, too-short tokens, or ops that cannot change the token.
    """
    if op not in _EDITS:
        raise ValueError(f"unknown operation {op!r}")
    marker, body = _editable(token, config)
    return marker + _EDITS[op](body, rng, config)


def sample_noisy(token, rng, config):
    """With probability p_noise, apply one uniformly chosen enabled op.

    Short tokens, special tokens, and op-level failures fall through to the
    unchanged token; the first two take no random draw.
    """
    if config.p_noise <= 0.0:  # NoiseConfig enables an op whenever p_noise > 0
        return token
    try:
        marker, body = _editable(token, config)
        if rng.random() >= config.p_noise:
            return token
        op = config.enabled_ops[rng.randrange(len(config.enabled_ops))]
        return marker + _EDITS[op](body, rng, config)
    except NoiseError:
        return token


def noise_line(line, rng, config):
    """Noise each whitespace-free run of `line` with sample_noisy, left to
    right, and copy each whitespace run as it is.

    Returns (noised line, number of runs changed).
    """
    parts = _WHITESPACE_RUN.split(line)  # whitespace-free runs at even indices
    words = parts[::2]
    parts[::2] = [sample_noisy(word, rng, config) if word else word for word in words]
    return "".join(parts), sum(out != word for out, word in zip(parts[::2], words))
