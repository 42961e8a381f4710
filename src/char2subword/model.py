"""The char2subword transformer: characters in, one subword-width vector out.

The forward pass follows pre-norm attention/FFN blocks whose residual adds
the *normalized* input, and finishes with a linear projection, max-pool over
positions, and a final layer norm. backward() is a hand-written exact reverse
pass. All parameters live in one float64 vector, which is also the checkpoint
payload; gradients are vectors of the same layout.
"""

import functools
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    gelu,
    gelu_backward,
    layer_norm,
    layer_norm_backward,
    sinusoidal_pe,
    softmax_rows,
)
from .vocab import MAX_CHARS, N_RESERVED_CHARS, char_sequence

CHECKPOINT_MAGIC = b"C2SW"
CHECKPOINT_VERSION = 2
# Padded character slots per forward pass: bounds the activations a pass
# holds for backward (about 5 KB per slot at d_char 16, 2 layers, or less
# where the position-wise arrays hold only the real positions).
PASS_POSITIONS = 256
# The epsilon of every encoder LayerNorm; checkpoints store it as a fixed value.
LN_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    d_char: int
    d_out: int
    n_layers: int
    n_heads: int
    max_chars: int = MAX_CHARS

    def __post_init__(self):
        bad = {name: getattr(self, name) for name in ("d_char", "d_out", "n_heads", "max_chars")
               if getattr(self, name) < 1}
        if bad:
            raise ValueError(f"ModelConfig counts must be >= 1 (n_layers may be 0), got {bad}")
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if self.d_char % 2:
            raise ValueError(f"d_char ({self.d_char}) must be even: the sinusoidal "
                             "position encoding fills sin/cos pairs")
        if self.d_char % self.n_heads != 0:
            raise ValueError(
                f"d_char ({self.d_char}) must be divisible by n_heads ({self.n_heads})"
            )

    @property
    def d_head(self):
        return self.d_char // self.n_heads


@dataclass
class Char2SubwordParams:
    """All trainable parameters, or a gradient of them, as one float64 vector
    laid out in tensor_shapes order (the checkpoint payload); `tensors` maps
    each name to a view into it, so writing either writes both."""

    config: ModelConfig
    alphabet_size: int
    flat: np.ndarray = field(repr=False)
    tensors: dict = field(init=False, repr=False)

    def __post_init__(self):
        count = param_count(self.config, self.alphabet_size)
        if self.flat.shape != (count,):
            raise ValueError(f"parameter vector has shape {self.flat.shape}, expected ({count},)")
        self.tensors = {name: self.flat[span].reshape(shape)
                        for name, span, shape in _layout(self.config, self.alphabet_size)}

    @classmethod
    def zeros(cls, config, alphabet_size):
        return cls(config, alphabet_size, np.zeros(param_count(config, alphabet_size)))

    def copy(self):
        return Char2SubwordParams(self.config, self.alphabet_size, self.flat.copy())


def tensor_shapes(config, alphabet_size):
    """Ordered (name, shape) list for every trainable tensor. Layer j's Wqkv
    holds its query, key and value projections side by side, columns Wq | Wk |
    Wv, each n_heads blocks of d_head columns in head order."""
    d, dout = config.d_char, config.d_out
    shapes = [("char_emb", (alphabet_size, d))]
    for j in range(config.n_layers):
        shapes += [
            (f"L{j}.ln1.g", (d,)),
            (f"L{j}.ln1.b", (d,)),
            (f"L{j}.Wqkv", (d, 3 * d)),
            (f"L{j}.Wo", (d, d)),
            (f"L{j}.ln2.g", (d,)),
            (f"L{j}.ln2.b", (d,)),
            (f"L{j}.W1", (d, 4 * d)),
            (f"L{j}.b1", (4 * d,)),
            (f"L{j}.W2", (4 * d, d)),
            (f"L{j}.b2", (d,)),
        ]
    shapes += [
        ("We", (d, dout)),
        ("be", (dout,)),
        ("ln_out.g", (dout,)),
        ("ln_out.b", (dout,)),
    ]
    return shapes


def init_params(config, alphabet_size, seed):
    """Xavier-uniform weights, zero biases, identity layer norms; seeded. Each
    head's query, key and value matrix is its own (d_char, d_head) Xavier draw,
    in checkpoint version 1's order, so a seed gives the parameters it always has."""
    rng = np.random.default_rng(seed)
    params = Char2SubwordParams.zeros(config, alphabet_size)
    for name, tensor in params.tensors.items():
        if name.endswith(".Wqkv"):
            bound = np.sqrt(6.0 / (config.d_char + config.d_head))
            tensor[...] = _packed_qkv(rng.uniform(-bound, bound, size=tensor.size), config)
        elif tensor.ndim == 2:
            fan_in, fan_out = tensor.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            tensor[...] = rng.uniform(-bound, bound, size=tensor.shape)
        elif "ln" in name and name.endswith(".g"):
            tensor[...] = 1.0
    return params


@functools.lru_cache(maxsize=None)
def _layout(config, alphabet_size):
    """(name, slice of the flat vector, shape) per tensor, in tensor_shapes order;
    built once per shape."""
    layout, stop = [], 0
    for name, shape in tensor_shapes(config, alphabet_size):
        start, stop = stop, stop + math.prod(shape)
        layout.append((name, slice(start, stop), shape))
    return tuple(layout)


def param_count(config, alphabet_size):
    """Exact trainable-parameter total: tensor_shapes' sizes, summed in closed form."""
    d, dout = config.d_char, config.d_out
    return alphabet_size * d + config.n_layers * (12 * d * d + 9 * d) + d * dout + 3 * dout


def table_param_count(v, d):
    """Parameter count of a v x d embedding lookup table."""
    return int(v) * int(d)


@functools.lru_cache(maxsize=None)
def _pe_table(n, d_char):
    """Sinusoidal encodings of positions 0..n-1, built once per shape."""
    table = np.stack([sinusoidal_pe(p, d_char) for p in range(n)])
    table.setflags(write=False)
    return table


def _rows(slots, rows):
    """The slots `rows` (flat indices) of a (b, n, width) or (b * n, width)
    array as a (len(rows), width) matrix; all b * n slots, as a view, when
    rows is None."""
    flat = slots.reshape(-1, slots.shape[-1])
    return flat if rows is None else flat.take(rows, axis=0)


def _padded(matrix, rows, b, n):
    """The (b, n, width) padded array whose slots `rows` (flat indices) hold
    the rows of `matrix`, with zeros elsewhere; a view when rows is None."""
    if rows is None:
        return matrix.reshape(b, n, -1)
    out = np.zeros((b * n, matrix.shape[-1]))
    out[rows] = matrix
    return out.reshape(b, n, -1)


def forward_batch(params, seqs):
    """Run the module on a list of alphabet-id tuples as one pass.

    Sequences are padded to n = max(2, longest) slots. The position-wise
    steps (LayerNorm, the QKV, Wo, W1 and W2 products, GELU and the residual
    adds) run on one (R, d_char) matrix of rows. In a pass with a padded slot
    and at least two real positions the rows are its R real positions, word
    by word, and attention and the output layer, which run on padded
    (B, n, .) arrays, reach them through one flat index of the real slots. A
    pass with no padding, or with one real position (a lone one-character
    sequence), runs all R = B * n slots as rows and scatters and gathers
    nothing; so no pass meets a one-row matmul, which BLAS would run as
    gemv, summing in another order. The layout rule: every row product's
    right operand is C-contiguous, so for K <= 384 (d_char <= 96) OpenBLAS
    gives a row the same bits at any row count. Padded keys get -inf before
    every softmax, which sums keys in order down the leading axis of a
    keys-first copy of the (B, heads, keys, queries) scores, so a padded key
    adds an exact 0 after the real ones; padded slots get -inf before the
    max-pool. Every pass applies both masks; a real key's bias is 0.0, which
    changes no bit. So at d_char <= 96 each embedding has the bits of the fully
    padded pass, and at d_head <= 24 also those of its one-word forward(), in
    any batch. Beyond that it may move by about 2e-15: from d_head 32 attention
    sums depend on n, and at d_char 128 g @ W2 (K = 512) on the row count.
    be is added after the pool over z = x @ We: fl(z + be) is monotone in z,
    so the bits are those of pooling z + be.

    Returns (embeddings (B, d_out), cache). The cache, for backward_batch(),
    holds "seqs"; "ids" (B, n); "rows", the flat indices of the real slots,
    or None when the rows are all B * n slots; "x_final" (B, n, d_char) and
    "z" (B, n, d_out; -inf at padded slots); "pooled", "ln_out" and
    "layers". layers[j] holds the (B, heads, n, d_head) "q", "k", "v" and
    "a" (the (B, heads, n, n) query-by-key map); layer_norm's terms "ln1"
    and "ln2"; and the (R, .) rows "xb", "c", "xbp", "u", gelu's "cdf" and
    "g".
    """
    cfg = params.config
    t = params.tensors
    if not seqs:
        raise ValueError("forward_batch requires at least one sequence")
    lengths = [len(s) for s in seqs]
    if min(lengths) == 0:
        raise ValueError("forward requires a nonempty character sequence")
    if max(lengths) > cfg.max_chars:
        raise ValueError(f"sequence length {max(lengths)} exceeds max_chars {cfg.max_chars}")
    b, n, positions = len(seqs), max(2, max(lengths)), sum(lengths)
    ids = np.zeros((b, n), dtype=np.intp)
    for row, s in enumerate(seqs):
        ids[row, :len(s)] = s
    real = np.arange(n) < np.array(lengths)[:, None]
    rows = np.flatnonzero(real) if 1 < positions < b * n else None

    x = _rows(t["char_emb"][ids] + _pe_table(n, cfg.d_char), rows)
    key_bias = np.where(real, 0.0, -np.inf)[:, None, :, None]

    h, dh = cfg.n_heads, cfg.d_head
    scale = 1.0 / np.sqrt(cfg.d_char)
    layers = []
    for j in range(cfg.n_layers):
        xb, *ln1 = layer_norm(x, t[f"L{j}.ln1.g"], t[f"L{j}.ln1.b"], LN_EPS)
        # (b, n, 3d) -> q, k, v of shape (b, heads, n, d_head)
        qkv = _padded(xb @ t[f"L{j}.Wqkv"], rows, b, n)
        q, k, v = qkv.reshape(b, n, 3, h, dh).transpose(2, 0, 3, 1, 4)
        scores = k @ q.swapaxes(-1, -2)  # (b, heads, keys, queries)
        scores *= scale
        scores += key_bias
        a = softmax_rows(scores, axis=-2).swapaxes(-1, -2)
        c = _rows((a @ v).transpose(0, 2, 1, 3).reshape(b, n, cfg.d_char), rows)
        xp = c @ t[f"L{j}.Wo"]
        xp += xb
        xbp, *ln2 = layer_norm(xp, t[f"L{j}.ln2.g"], t[f"L{j}.ln2.b"], LN_EPS)
        u = xbp @ t[f"L{j}.W1"]
        u += t[f"L{j}.b1"]
        g, cdf = gelu(u)
        x = g @ t[f"L{j}.W2"]
        x += t[f"L{j}.b2"]
        x += xbp
        layers.append({"ln1": ln1, "xb": xb, "q": q, "k": k, "v": v, "a": a, "c": c,
                       "ln2": ln2, "xbp": xbp, "u": u, "cdf": cdf, "g": g})

    x = _padded(x, rows, b, n)
    z = x @ t["We"]
    z[~real] = -np.inf
    pooled = z.max(axis=1)
    pooled += t["be"]
    emb, *ln_out = layer_norm(pooled, t["ln_out.g"], t["ln_out.b"], LN_EPS)

    cache = {"seqs": list(seqs), "ids": ids, "rows": rows, "layers": layers, "x_final": x,
             "z": z, "pooled": pooled, "ln_out": ln_out}
    return emb, cache


def backward_batch(params, cache, upstream):
    """Exact gradients of sum_b <upstream[b], forward_batch(params, seqs)[0][b]>,
    as a Char2SubwordParams whose vector is the gradient.

    The rows of forward_batch carry the gradient; padded slots get exactly
    zero. Under forward_batch's layout rule, each layer multiplies its rows
    by one C-contiguous copy of W2^T, W1^T, Wo^T and Wqkv^T, so at d_char <= 96
    every gradient has the fully padded pass's bits; dy @ We^T runs padded.
    """
    cfg = params.config
    t = params.tensors
    b, n = cache["ids"].shape
    rows = cache["rows"]
    d, h, dh = cfg.d_char, cfg.n_heads, cfg.d_head
    scale = 1.0 / np.sqrt(cfg.d_char)
    grads = Char2SubwordParams.zeros(cfg, params.alphabet_size)
    g = grads.tensors  # each gradient is written into its view

    upstream = np.asarray(upstream, dtype=np.float64)
    d_pooled, g["ln_out.g"][...], g["ln_out.b"][...] = layer_norm_backward(
        *cache["ln_out"], t["ln_out.g"], upstream)

    # the pool's gradient goes to the first max of z + be (distinct z may round alike)
    arg = (cache["z"] + t["be"] == cache["pooled"][:, None, :]).argmax(axis=1)
    dy = np.zeros((b, n, cfg.d_out))
    np.put_along_axis(dy, arg[:, None, :], d_pooled[:, None, :], axis=1)

    g["We"][...] = cache["x_final"].reshape(-1, d).T @ dy.reshape(-1, cfg.d_out)
    g["be"][...] = d_pooled.sum(axis=0)
    dx = _rows(dy @ t["We"].T, rows)

    for j in reversed(range(cfg.n_layers)):
        layer = cache["layers"][j]
        w2t, w1t, wot, wqkvt = (np.ascontiguousarray(t[f"L{j}.{w}"].T)
                                for w in ("W2", "W1", "Wo", "Wqkv"))
        # dx reaches both the FFN output and the residual around it
        g[f"L{j}.W2"][...] = layer["g"].T @ dx
        g[f"L{j}.b2"][...] = dx.sum(axis=0)
        du = gelu_backward(layer["u"], layer["cdf"], dx @ w2t)
        g[f"L{j}.W1"][...] = layer["xbp"].T @ du
        g[f"L{j}.b1"][...] = du.sum(axis=0)
        dxbp_ffn = du @ w1t

        # dxp reaches both the attention output and the residual around it
        dxp, g[f"L{j}.ln2.g"][...], g[f"L{j}.ln2.b"][...] = layer_norm_backward(
            *layer["ln2"], t[f"L{j}.ln2.g"], dxbp_ffn + dx)
        g[f"L{j}.Wo"][...] = layer["c"].T @ dxp
        dhead = _padded(dxp @ wot, rows, b, n).reshape(b, n, h, dh).transpose(0, 2, 1, 3)

        a = layer["a"]
        da = dhead @ layer["v"].swapaxes(-1, -2)
        dv = a.swapaxes(-1, -2) @ dhead
        # softmax backward, row-wise; padded keys have a == 0, so ds == 0 there
        ds = a * (da - (da * a).sum(axis=-1, keepdims=True))
        ds *= scale
        dq = ds @ layer["k"]
        dk = ds.swapaxes(-1, -2) @ layer["q"]
        # back to (R, 3d) rows, columns laid out as in Wqkv
        dqkv = _rows(np.stack([dq, dk, dv]).transpose(1, 3, 0, 2, 4).reshape(b * n, 3 * d), rows)
        g[f"L{j}.Wqkv"][...] = layer["xb"].T @ dqkv
        dxb_attn = dqkv @ wqkvt

        dx, g[f"L{j}.ln1.g"][...], g[f"L{j}.ln1.b"][...] = layer_norm_backward(
            *layer["ln1"], t[f"L{j}.ln1.g"], dxb_attn + dxp)

    ids = cache["ids"].ravel() if rows is None else cache["ids"].take(rows)
    np.add.at(g["char_emb"], ids, dx)
    return grads


def forward(params, seq):
    """Run the module on one character sequence (a batch of one).

    Returns (embedding, attention maps, cache): the maps are a tuple over
    layers of tuples over heads of len(seq) x len(seq) row-stochastic
    matrices; cache feeds backward().
    """
    emb, cache = forward_batch(params, [seq])
    n = len(seq)
    return emb[0], tuple(tuple(layer["a"][0, :, :n, :n]) for layer in cache["layers"]), cache


def backward(params, seq, cache, upstream):
    """Exact gradients of <upstream, forward(params, seq)>, named views of one vector."""
    if cache["seqs"] != [seq]:
        raise ValueError("backward cache does not match the given sequence")
    return backward_batch(params, cache, np.atleast_2d(upstream)).tensors


def split_passes(seqs):
    """Indices of `seqs` grouped into forward passes, shortest first.

    Each pass holds at most PASS_POSITIONS padded slots (or a single
    sequence), which bounds its activations; its position-wise arrays may
    hold only the real positions among them. Sequences of any length share
    a pass: within forward_batch's bounds padding changes no bit of a row.
    Training keeps every pass's cache until backward, so one batch holds the
    activations of all its samples, but only one loss call; encode runs the
    same passes.
    """
    order = sorted(range(len(seqs)), key=lambda i: len(seqs[i]))
    passes = [[]]
    for i in order:  # a pass is at least two positions wide, as in forward_batch
        if passes[-1] and (len(passes[-1]) + 1) * max(2, len(seqs[i])) > PASS_POSITIONS:
            passes.append([])
        passes[-1].append(i)
    return passes if passes[0] else []


def encode(params, words, alphabet, is_full_word=True):
    """Run the module on surface forms; row i of the (len(words), d_out) result is
    words[i]'s. Words of any length share the passes of split_passes; a row
    equals forward() on its word alone, bit for bit within forward_batch's bounds.
    """
    seqs = [char_sequence(w, is_full_word, alphabet, max_chars=params.config.max_chars)
            for w in words]
    vectors = np.empty((len(seqs), params.config.d_out))
    for rows in split_passes(seqs):
        vectors[rows] = forward_batch(params, [seqs[i] for i in rows])[0]
    return vectors


def _packed_qkv(v1_order, config):
    """A layer's Wqkv from its numbers in checkpoint version 1's order, per-head
    matrices Wq.0, Wk.0, Wv.0, Wq.1, ...: (heads, 3, d_char, d_head) becomes
    (d_char, 3, heads, d_head)."""
    d, h, dh = config.d_char, config.n_heads, config.d_head
    return np.reshape(v1_order, (h, 3, d, dh)).transpose(2, 1, 0, 3).reshape(d, 3 * d)


def _manifest(config, alphabet_size, version):
    """The checkpoint header's [name, rows, cols] list (cols 0 for a vector).
    Version 1 lists each Wqkv as its per-head matrices, in _packed_qkv's order."""
    manifest = []
    for name, shape in tensor_shapes(config, alphabet_size):
        if version == 1 and name.endswith(".Wqkv"):
            manifest += [[f"{name[:-3]}{kind}.{i}", config.d_char, config.d_head]
                         for i in range(config.n_heads) for kind in "qkv"]
        else:
            manifest.append([name, shape[0], shape[1] if len(shape) == 2 else 0])
    return manifest


def save_checkpoint(path, params, alphabet):
    """Write the binary checkpoint: magic, version, JSON header, payload."""
    cfg = params.config
    header = {
        "config": {
            "d_char": cfg.d_char, "d_out": cfg.d_out,
            "n_layers": cfg.n_layers, "n_heads": cfg.n_heads,
            "max_chars": cfg.max_chars, "ln_eps": LN_EPS,
            "standard_preln": False,
        },
        "alphabet": list(alphabet.chars),
        "marker_on_full_words": True,
        "manifest": _manifest(cfg, params.alphabet_size, CHECKPOINT_VERSION),
    }
    blob = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


_HEADER_KEYS = {"config", "alphabet", "manifest", "marker_on_full_words"}
# The config keys save_checkpoint writes, each with the JSON types it may take.
_CONFIG_TYPES = {"d_char": (int,), "d_out": (int,), "n_layers": (int,), "n_heads": (int,),
                 "max_chars": (int,), "ln_eps": (int, float), "standard_preln": (bool,)}


def _header_config(config):
    """The ModelConfig a checkpoint header's config object describes."""
    if not isinstance(config, dict) or config.keys() != _CONFIG_TYPES.keys():
        keys = sorted(config) if isinstance(config, dict) else type(config).__name__
        raise ValueError(f"checkpoint config must have exactly the keys "
                         f"{sorted(_CONFIG_TYPES)}, got {keys}")
    bad = sorted(k for k, v in config.items() if type(v) not in _CONFIG_TYPES[k])
    if bad:
        raise ValueError(f"checkpoint config has values of the wrong type for {bad}")
    config = dict(config)
    if config.pop("standard_preln"):
        raise ValueError("checkpoint uses the standard pre-LN residual, "
                         "which this version does not implement")
    eps = config.pop("ln_eps")
    if eps != LN_EPS:
        raise ValueError(f"checkpoint ln_eps is {eps!r}; this version uses the fixed "
                         f"LayerNorm epsilon {LN_EPS!r}")
    return ModelConfig(**config)


def load_checkpoint(path):
    """Read a checkpoint; returns (params, alphabet_chars, marker_on_full_words),
    the last always True: full words carry the "##" marker.

    The header must be the JSON object save_checkpoint writes, the manifest
    the one its config and alphabet imply, and the payload exactly its 8-byte
    parameters: anything else, a truncated or padded file too, is a ValueError.
    Version 1 files, which store each head's Q, K and V matrices apart, are
    read into the packed Wqkv layout.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        fields = fh.read(8)
        if len(fields) != 8:
            raise ValueError(f"checkpoint is truncated after {4 + len(fields)} bytes")
        version, hlen = struct.unpack("<II", fields)
        if version not in (1, CHECKPOINT_VERSION):
            raise ValueError(f"unsupported checkpoint version {version}")
        if hlen > os.fstat(fh.fileno()).st_size - 12:  # fh.read(hlen) allocates hlen bytes
            raise ValueError(f"checkpoint header of {hlen} bytes runs past the end of the file")
        header = json.loads(fh.read(hlen).decode("utf-8"))
        payload = fh.read()
    if not isinstance(header, dict) or header.keys() != _HEADER_KEYS:
        raise ValueError(f"checkpoint header must be a JSON object with exactly the keys "
                         f"{sorted(_HEADER_KEYS)}")
    alphabet, marker = header["alphabet"], header["marker_on_full_words"]
    if not isinstance(alphabet, list):
        raise ValueError("checkpoint alphabet must be a list of distinct single characters")
    seen = set()
    for c in alphabet:
        if not (isinstance(c, str) and len(c) == 1):
            raise ValueError(f"checkpoint alphabet entry {c!r} is not a single character")
        if c in seen:
            raise ValueError(f"checkpoint alphabet entry {c!r} is a duplicate")
        seen.add(c)
    if marker is not True:
        raise ValueError("checkpoint marker_on_full_words must be true: full words "
                         "always carry the ## marker")
    cfg = _header_config(header["config"])
    alphabet_size = N_RESERVED_CHARS + len(alphabet)
    expected = 8 * param_count(cfg, alphabet_size)
    if len(payload) != expected:  # first: the header's sizes then bound every loop below
        raise ValueError(f"checkpoint payload is {len(payload)} bytes, "
                         f"expected {expected} for its {expected // 8} parameters")
    if header["manifest"] != _manifest(cfg, alphabet_size, version):
        raise ValueError("checkpoint manifest does not match the tensors its config "
                         "and alphabet imply")
    params = Char2SubwordParams(cfg, alphabet_size,
                                np.frombuffer(payload, dtype="<f8").astype(np.float64))
    if version == 1:  # same offsets and sizes; only each Wqkv's order differs
        for j in range(cfg.n_layers):
            w = params.tensors[f"L{j}.Wqkv"]
            w[...] = _packed_qkv(w, cfg)
    return params, alphabet, marker
