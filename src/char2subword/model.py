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
# Padded character positions per forward pass: bounds the activations a pass
# holds for backward (about 5 KB per position at d_char 16, 2 layers).
PASS_POSITIONS = 256


@dataclass(frozen=True)
class ModelConfig:
    d_char: int
    d_out: int
    n_layers: int
    n_heads: int
    max_chars: int = MAX_CHARS
    ln_eps: float = 1e-5

    def __post_init__(self):
        if self.d_char < 1 or self.d_out < 1 or self.n_heads < 1 or self.max_chars < 1:
            raise ValueError("all ModelConfig counts must be >= 1 (n_layers may be 0)")
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if self.d_char % 2:
            raise ValueError(f"d_char ({self.d_char}) must be even: the sinusoidal "
                             "position encoding fills sin/cos pairs")
        if self.d_char % self.n_heads != 0:
            raise ValueError(
                f"d_char ({self.d_char}) must be divisible by n_heads ({self.n_heads})"
            )
        if not 0 < self.ln_eps < float("inf"):  # also rejects NaN
            raise ValueError("ln_eps must be finite and > 0")

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
    """Exact trainable-parameter total for the module."""
    return _layout(config, alphabet_size)[-1][1].stop


def table_param_count(v, d):
    """Parameter count of a v x d embedding lookup table."""
    return int(v) * int(d)


@functools.lru_cache(maxsize=None)
def _pe_table(max_chars, d_char):
    """Sinusoidal encodings of positions 0..max_chars-1, built once per shape."""
    table = np.stack([sinusoidal_pe(p, d_char) for p in range(max_chars)])
    table.setflags(write=False)
    return table


def forward_batch(params, seqs):
    """Run the module on a list of CharSequences as one padded batch.

    Shorter sequences are padded to the longest. Every pass carries the
    padding mask: padded keys get -inf before every attention softmax and
    padded positions -inf before the max-pool, so each row depends on its own
    characters only (real positions get 0.0, which changes no bit). Returns
    (embeddings (B, d_out), attention maps (one (B, heads, n, n) array per
    layer), cache); the cache feeds backward_batch().
    """
    cfg = params.config
    t = params.tensors
    if not seqs:
        raise ValueError("forward_batch requires at least one sequence")
    lengths = np.array([len(s) for s in seqs])
    if lengths.min() == 0:
        raise ValueError("forward requires a nonempty character sequence")
    if lengths.max() > cfg.max_chars:
        raise ValueError(f"sequence length {lengths.max()} exceeds max_chars {cfg.max_chars}")
    b, n = len(seqs), int(lengths.max())
    ids = np.zeros((b, n), dtype=np.intp)
    for row, s in enumerate(seqs):
        ids[row, :len(s)] = s.chars
    real = np.arange(n) < lengths[:, None]

    x = t["char_emb"][ids] + _pe_table(cfg.max_chars, cfg.d_char)[:n]
    key_bias = np.where(real, 0.0, -np.inf)[:, None, None, :]

    h, dh = cfg.n_heads, cfg.d_head
    scale = 1.0 / np.sqrt(cfg.d_char)
    layers = []
    maps = []
    for j in range(cfg.n_layers):
        xin = x
        xb = layer_norm(xin, t[f"L{j}.ln1.g"], t[f"L{j}.ln1.b"], cfg.ln_eps)
        # (b, n, 3d) -> q, k, v of shape (b, heads, n, d_head)
        q, k, v = (xb @ t[f"L{j}.Wqkv"]).reshape(b, n, 3, h, dh).transpose(2, 0, 3, 1, 4)
        scores = (q @ k.swapaxes(-1, -2)) * scale + key_bias
        a = softmax_rows(scores)
        c = (a @ v).transpose(0, 2, 1, 3).reshape(b, n, cfg.d_char)
        m = c @ t[f"L{j}.Wo"]
        xp = m + xb
        xbp = layer_norm(xp, t[f"L{j}.ln2.g"], t[f"L{j}.ln2.b"], cfg.ln_eps)
        u = xbp @ t[f"L{j}.W1"] + t[f"L{j}.b1"]
        g = gelu(u)
        f = g @ t[f"L{j}.W2"] + t[f"L{j}.b2"]
        xout = f + xbp
        layers.append({"xin": xin, "xb": xb, "q": q, "k": k, "v": v,
                       "a": a, "c": c, "xp": xp, "xbp": xbp, "u": u, "g": g})
        maps.append(a)
        x = xout

    y = np.where(real[:, :, None], x @ t["We"] + t["be"], -np.inf)
    arg = y.argmax(axis=1)
    pooled = np.take_along_axis(y, arg[:, None, :], axis=1)[:, 0, :]
    emb = layer_norm(pooled, t["ln_out.g"], t["ln_out.b"], cfg.ln_eps)

    cache = {"seqs": list(seqs), "ids": ids, "layers": layers, "x_final": x,
             "arg": arg, "pooled": pooled}
    return emb, maps, cache


def backward_batch(params, cache, upstream):
    """Exact gradients of sum_b <upstream[b], forward_batch(params, seqs)[0][b]>,
    as a Char2SubwordParams whose vector is the gradient.

    Padded positions receive exactly zero gradient, so they add nothing to
    any tensor's gradient.
    """
    cfg = params.config
    t = params.tensors
    b, n = cache["ids"].shape
    d, h, dh = cfg.d_char, cfg.n_heads, cfg.d_head
    scale = 1.0 / np.sqrt(cfg.d_char)
    grads = Char2SubwordParams.zeros(cfg, params.alphabet_size)
    g = grads.tensors  # each gradient is written into its view

    upstream = np.asarray(upstream, dtype=np.float64)
    d_pooled, g["ln_out.g"][...], g["ln_out.b"][...] = layer_norm_backward(
        cache["pooled"], t["ln_out.g"], cfg.ln_eps, upstream)

    dy = np.zeros((b, n, cfg.d_out))
    np.put_along_axis(dy, cache["arg"][:, None, :], d_pooled[:, None, :], axis=1)

    g["We"][...] = cache["x_final"].reshape(-1, d).T @ dy.reshape(-1, cfg.d_out)
    g["be"][...] = d_pooled.sum(axis=0)
    dx = dy @ t["We"].T

    for j in reversed(range(cfg.n_layers)):
        layer = cache["layers"][j]
        # dx reaches both the FFN output and the residual around it
        g[f"L{j}.W2"][...] = layer["g"].reshape(-1, 4 * d).T @ dx.reshape(-1, d)
        g[f"L{j}.b2"][...] = dx.reshape(-1, d).sum(axis=0)
        du = gelu_backward(layer["u"], dx @ t[f"L{j}.W2"].T)
        g[f"L{j}.W1"][...] = layer["xbp"].reshape(-1, d).T @ du.reshape(-1, 4 * d)
        g[f"L{j}.b1"][...] = du.reshape(-1, 4 * d).sum(axis=0)
        dxbp_ffn = du @ t[f"L{j}.W1"].T

        # dxp reaches both the attention output and the residual around it
        dxp, g[f"L{j}.ln2.g"][...], g[f"L{j}.ln2.b"][...] = layer_norm_backward(
            layer["xp"], t[f"L{j}.ln2.g"], cfg.ln_eps, dxbp_ffn + dx)
        g[f"L{j}.Wo"][...] = layer["c"].reshape(-1, d).T @ dxp.reshape(-1, d)
        dhead = (dxp @ t[f"L{j}.Wo"].T).reshape(b, n, h, dh).transpose(0, 2, 1, 3)

        a = layer["a"]
        da = dhead @ layer["v"].swapaxes(-1, -2)
        dv = a.swapaxes(-1, -2) @ dhead
        # softmax backward, row-wise; padded keys have a == 0, so ds == 0 there
        ds = a * (da - (da * a).sum(axis=-1, keepdims=True))
        ds = ds * scale
        dq = ds @ layer["k"]
        dk = ds.swapaxes(-1, -2) @ layer["q"]
        # back to (b * n, 3d), columns laid out as in Wqkv
        dqkv = np.stack([dq, dk, dv]).transpose(1, 3, 0, 2, 4).reshape(b * n, 3 * d)
        g[f"L{j}.Wqkv"][...] = layer["xb"].reshape(-1, d).T @ dqkv
        dxb_attn = (dqkv @ t[f"L{j}.Wqkv"].T).reshape(b, n, d)

        dx, g[f"L{j}.ln1.g"][...], g[f"L{j}.ln1.b"][...] = layer_norm_backward(
            layer["xin"], t[f"L{j}.ln1.g"], cfg.ln_eps, dxb_attn + dxp)

    np.add.at(g["char_emb"], cache["ids"].ravel(), dx.reshape(-1, d))
    return grads


def forward(params, seq):
    """Run the module on one CharSequence (a batch of one).

    Returns (embedding, attention maps, cache): the maps are a tuple over
    layers of tuples over heads of n x n row-stochastic matrices; cache feeds
    backward().
    """
    emb, maps, cache = forward_batch(params, [seq])
    return emb[0], tuple(tuple(a[0]) for a in maps), cache


def backward(params, seq, cache, upstream):
    """Exact gradients of <upstream, forward(params, seq)>, named views of one vector."""
    if cache["seqs"] != [seq]:
        raise ValueError("backward cache does not match the given sequence")
    return backward_batch(params, cache, np.atleast_2d(upstream)).tensors


def split_passes(seqs):
    """Indices of `seqs` grouped into forward passes, shortest first.

    Each pass holds at most PASS_POSITIONS padded positions (or a single
    sequence), so the activations of a pass are bounded and padding stays
    small. Training keeps every pass's cache until backward, so one batch
    holds the activations of all its samples, but only one loss call.
    """
    order = sorted(range(len(seqs)), key=lambda i: len(seqs[i]))
    passes = [[]]
    for i in order:
        if passes[-1] and (len(passes[-1]) + 1) * len(seqs[i]) > PASS_POSITIONS:
            passes.append([])
        passes[-1].append(i)
    return passes if passes[0] else []


def encode(params, words, alphabet, is_full_word=True):
    """Run the module on surface forms; row i of the (len(words), d_out) result is
    words[i]'s. Words are batched by character length, so no batch is padded
    and every row equals forward() on that word alone, bit for bit.
    """
    seqs = [char_sequence(w, is_full_word, alphabet, max_chars=params.config.max_chars)
            for w in words]
    vectors = np.empty((len(seqs), params.config.d_out))
    by_length = {}
    for i, seq in enumerate(seqs):
        by_length.setdefault(len(seq), []).append(i)
    for length, rows in by_length.items():
        step = max(1, PASS_POSITIONS // length)
        for lo in range(0, len(rows), step):
            chunk = rows[lo:lo + step]
            vectors[chunk] = forward_batch(params, [seqs[i] for i in chunk])[0]
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
            "max_chars": cfg.max_chars, "ln_eps": cfg.ln_eps,
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
    if not isinstance(header, dict) or not _HEADER_KEYS <= header.keys():
        raise ValueError(f"checkpoint header must be a JSON object with keys "
                         f"{sorted(_HEADER_KEYS)}")
    alphabet, marker = header["alphabet"], header["marker_on_full_words"]
    if not (isinstance(alphabet, list) and all(isinstance(c, str) for c in alphabet)):
        raise ValueError("checkpoint alphabet must be a list of strings")
    if marker is not True:
        raise ValueError("checkpoint marker_on_full_words must be true: full words "
                         "always carry the ## marker")
    cfg = _header_config(header["config"])
    alphabet_size = N_RESERVED_CHARS + len(alphabet)
    if header["manifest"] != _manifest(cfg, alphabet_size, version):
        raise ValueError("checkpoint manifest does not match the tensors its config "
                         "and alphabet imply")
    expected = 8 * param_count(cfg, alphabet_size)
    if len(payload) != expected:
        raise ValueError(f"checkpoint payload is {len(payload)} bytes, "
                         f"expected {expected} for its {expected // 8} parameters")
    params = Char2SubwordParams(cfg, alphabet_size,
                                np.frombuffer(payload, dtype="<f8").astype(np.float64))
    if version == 1:  # same offsets and sizes; only each Wqkv's order differs
        for j in range(cfg.n_layers):
            w = params.tensors[f"L{j}.Wqkv"]
            w[...] = _packed_qkv(w, cfg)
    return params, alphabet, marker
