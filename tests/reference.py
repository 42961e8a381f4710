"""Slow, independent references for the fast paths of the package.

The per-sample losses and their loop gradient are written term by term with
no batching or tiling; `objectives.loss_and_grad` must agree with them to
1e-12. `precision_overlaps` is the set loop behind
`evaluation.precision_at_k`. `finite_diff_gradient` checks hand-written
gradients against central differences. `save_checkpoint_v1` is the writer of
checkpoint version 1, which `model.load_checkpoint` still reads.
`layer_norm`, `layer_norm_backward`, `gelu` and `gelu_backward` are the plain
numpy expressions of the `numerics` functions, which must give the same
bytes. `pool_output` and its backward pass are the dense output layer that
`model.forward_batch` pools before the bias to match, bit for bit.
`forward_batch` and `backward_batch` are the encoder with every layer on
padded (b, n, .) arrays, which the packed `model` versions must match byte
for byte; `backward_batch` also runs with transposed-view operands, the
layout the packed backward must stay within 1e-12 of. `char_sequence`,
`check_word`, `corpus_samples` and `seq_length_stats` are the text front end
one character and one word occurrence at a time, and `noise_line_spaces` is
the `noise` command's line loop for lines split on single spaces; the
package's versions must give equal results.
"""

import json
import struct

import numpy as np
from scipy.special import erf

from char2subword import model, numerics
from char2subword.noise import sample_noisy
from char2subword.numerics import cosine_similarity
from char2subword.objectives import loss_cos, loss_l2
from char2subword.evaluation import SeqLengthStats
from char2subword.vocab import MARKER, MAX_CHARS, UNK, tokenize_word, whitespace_split


def loss_ce(target_id, e_hat, e_table):
    """-log softmax(e_hat . E^T)[target]; E is frozen."""
    if not 0 <= target_id < e_table.size:
        raise IndexError(f"target id {target_id} out of range for |V|={e_table.size}")
    logits = e_table.matrix @ np.asarray(e_hat, dtype=np.float64)
    shifted = logits - logits.max()
    logz = np.log(np.exp(shifted).sum())
    return float(logz - shifted[target_id])


def loss_nbr(target_id, e_hat, e_table, index):
    """MSE between the target's and the prediction's cosine distances to the
    target's top-k table neighbors."""
    if index.ids.shape[0] != e_table.size:
        raise ValueError("neighbor index does not match the table")
    e = e_table.row(target_id)
    total = 0.0
    for j in index.neighbors(target_id):
        nj = e_table.row(j)
        d_true = 1.0 - cosine_similarity(e, nj)
        d_pred = 1.0 - cosine_similarity(e_hat, nj)
        total += (d_true - d_pred) ** 2
    return total / index.k


def combined_loss(target_id, e, e_hat, e_table, index, weights):
    """Weighted sum of the four objectives for one sample; returns (total,
    components). The per-sample reference for loss_and_grad."""
    parts = {
        "cos": loss_cos(e, e_hat) if weights.l_cos else 0.0,
        "ce": loss_ce(target_id, e_hat, e_table) if weights.l_ce else 0.0,
        "l2": loss_l2(e, e_hat) if weights.l_l2 else 0.0,
        "nbr": loss_nbr(target_id, e_hat, e_table, index) if weights.l_nbr else 0.0,
    }
    total = (weights.l_cos * parts["cos"] + weights.l_ce * parts["ce"]
             + weights.l_l2 * parts["l2"] + weights.l_nbr * parts["nbr"])
    return total, parts


def _grad_cos_sim(v, other):
    """d cos(v, other) / dv."""
    nv = np.linalg.norm(v)
    no = np.linalg.norm(other)
    c = float(v @ other / (nv * no))
    return other / (nv * no) - c * v / (nv * nv)


def combined_loss_gradient(target_id, e, e_hat, e_table, index, weights):
    """Exact gradient of combined_loss with respect to e_hat; the per-sample
    reference for loss_and_grad."""
    e = np.asarray(e, dtype=np.float64)
    e_hat = np.asarray(e_hat, dtype=np.float64)
    grad = np.zeros_like(e_hat)

    if weights.l_cos:
        grad += weights.l_cos * (-_grad_cos_sim(e_hat, e))

    if weights.l_ce:
        logits = e_table.matrix @ e_hat
        shifted = logits - logits.max()
        p = np.exp(shifted)
        p /= p.sum()
        p[target_id] -= 1.0
        grad += weights.l_ce * (e_table.matrix.T @ p)

    if weights.l_l2:
        diff = e_hat - e
        norm = np.linalg.norm(diff)
        if norm > 0.0:  # gradient defined as 0 at e == e_hat
            grad += weights.l_l2 * diff / norm

    if weights.l_nbr:
        erow = e_table.row(target_id)
        acc = np.zeros_like(e_hat)
        for j in index.neighbors(target_id):
            nj = e_table.row(j)
            d_true = 1.0 - cosine_similarity(erow, nj)
            d_pred = 1.0 - cosine_similarity(e_hat, nj)
            # d d_pred / d e_hat = -d cos(e_hat, n_j)/d e_hat
            acc += 2.0 * (d_true - d_pred) * _grad_cos_sim(e_hat, nj)
        grad += weights.l_nbr * acc / index.k

    return grad


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis with its mean and population variance, then scale and shift."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + eps)
    return gain * xhat + bias


def layer_norm_backward(x, gain, eps, grad_out):
    """(grad_x, grad_gain, grad_bias) of layer_norm given upstream grad_out."""
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    n = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    grad_gain = (grad_out * xhat).reshape(-1, n).sum(axis=0)
    grad_bias = grad_out.reshape(-1, n).sum(axis=0)
    g = grad_out * gain
    grad_x = inv * (
        g
        - g.mean(axis=-1, keepdims=True)
        - xhat * (g * xhat).mean(axis=-1, keepdims=True)
    )
    return grad_x, grad_gain, grad_bias


def gelu(x):
    """Exact GELU, x * Phi(x), elementwise."""
    x = np.asarray(x, dtype=np.float64)
    return x * 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))


def gelu_backward(x, grad_out):
    """d/dx [x * Phi(x)] = Phi(x) + x * phi(x), times upstream gradient."""
    x = np.asarray(x, dtype=np.float64)
    phi = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    pdf = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)
    return grad_out * (phi + x * pdf)


def pool_output(x, real, we, be):
    """The dense output layer: y = x @ We + be at real positions and -inf at
    padded ones, max-pooled over positions. Returns (pooled, y)."""
    y = np.where(real[:, :, None], x @ we + be, -np.inf)
    return y.max(axis=1), y


def pool_output_backward(x, y, we, d_pooled):
    """(dx, dWe, dbe) of pool_output: each column's d_pooled goes to the
    position the float argmax of y picks, its first maximum."""
    dy = np.zeros(y.shape)
    np.put_along_axis(dy, y.argmax(axis=1)[:, None, :], d_pooled[:, None, :], axis=1)
    d, d_out = we.shape
    return dy @ we.T, x.reshape(-1, d).T @ dy.reshape(-1, d_out), d_pooled.sum(axis=0)


def precision_overlaps(truth_rows, pred_rows, k_max):
    """Sum over rows, in row order, of |truth[:k] & pred[:k]| / k for k = 1..k_max."""
    overlaps = np.zeros(k_max)
    for truth, pred in zip(truth_rows, pred_rows):
        for k in range(1, k_max + 1):
            overlaps[k - 1] += len(set(truth[:k]) & set(pred[:k])) / k
    return overlaps


def finite_diff_gradient(f, params, h=1e-5):
    """Central-difference gradient of a scalar function of named parameters.

    `params` is either a single array or a dict of arrays; the result mirrors
    that structure. The function is treated as a black box.
    """
    if h <= 0:
        raise ValueError("finite_diff_gradient requires h > 0")

    def grad_of(arr, call):
        arr = np.asarray(arr, dtype=np.float64)
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            fp = call()
            flat[idx] = orig - h
            fm = call()
            flat[idx] = orig
            gflat[idx] = (fp - fm) / (2.0 * h)
        return g

    if isinstance(params, dict):
        return {name: grad_of(arr, lambda: f(params)) for name, arr in params.items()}
    params = np.asarray(params, dtype=np.float64)
    return grad_of(params, lambda: f(params))


def save_checkpoint_v1(path, params, alphabet):
    """Write `params` as a version-1 checkpoint, the reference the loader's
    conversion is checked against. Version 1 stores each head's query, key and
    value matrix as its own (d_char, d_head) tensor L{j}.W{q,k,v}.{head}, head
    by head: these are column blocks of the packed Wqkv, laid out Wq | Wk | Wv
    with heads in order within each."""
    cfg = params.config
    d, dh = cfg.d_char, cfg.d_head
    tensors = []
    for name, tensor in params.tensors.items():
        if not name.endswith(".Wqkv"):
            tensors.append((name, tensor))
            continue
        layer = name[:-len("Wqkv")]
        for head in range(cfg.n_heads):
            for block, kind in enumerate("qkv"):
                col = block * d + head * dh
                tensors.append((f"{layer}W{kind}.{head}", tensor[:, col:col + dh]))
    header = {
        "config": {
            "d_char": cfg.d_char, "d_out": cfg.d_out,
            "n_layers": cfg.n_layers, "n_heads": cfg.n_heads,
            "max_chars": cfg.max_chars, "ln_eps": model.LN_EPS,
            "standard_preln": False,
        },
        "alphabet": list(alphabet.chars),
        "marker_on_full_words": True,
        "manifest": [[name, t.shape[0], t.shape[1] if t.ndim == 2 else 0]
                     for name, t in tensors],
    }
    blob = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"C2SW" + struct.pack("<II", 1, len(blob)) + blob)
        for _, tensor in tensors:
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def char_sequence(token, is_full_word, alphabet, max_chars=MAX_CHARS):
    """The alphabet index of each character, one `alphabet.index` call each."""
    if not token:
        raise ValueError("char_sequence requires a nonempty token")
    text = token
    if is_full_word and not text.startswith(MARKER):
        text = MARKER + text
    return tuple(alphabet.index(ch) for ch in text[:max_chars])


def check_word(word):
    """Raise ValueError if `word` is empty or any character of it is whitespace."""
    if not word or any(ch.isspace() for ch in word):
        raise ValueError(f"expected one nonempty word with no whitespace, got {word!r}")


def corpus_samples(vocab, alphabet, lines, max_chars=MAX_CHARS):
    """Tokenize every word occurrence of every line on its own."""
    unk_id = vocab.id_of[UNK]
    sequences = []
    for line in lines:
        ids, seqs = [], []
        for word in line.split():
            pieces = tokenize_word(vocab, word)
            if pieces == [UNK]:
                ids.append(unk_id)
                seqs.append(char_sequence(word, True, alphabet, max_chars=max_chars))
                continue
            full = len(pieces) == 1
            for piece in pieces:
                ids.append(vocab.id_of[piece])
                seqs.append(char_sequence(piece, full, alphabet, max_chars=max_chars))
        if ids:
            sequences.append((ids, seqs))
    return sequences


def seq_length_stats(sentences, vocab):
    """Whitespace-token and WordPiece-piece counts, tokenizing every word
    occurrence on its own."""
    tok_counts, sub_counts = [], []
    for sentence in sentences:
        words = whitespace_split(sentence)
        if words:
            tok_counts.append(len(words))
            sub_counts.append(sum(len(tokenize_word(vocab, w)) for w in words))
    if not tok_counts:
        return SeqLengthStats(0.0, 0, 0.0, 0, 0.0)
    total_tok, total_sub = sum(tok_counts), sum(sub_counts)
    return SeqLengthStats(total_tok / len(tok_counts), max(tok_counts),
                          total_sub / len(sub_counts), max(sub_counts), total_sub / total_tok)


def noise_line_spaces(line, rng, config):
    """Noise the words between single spaces; returns (noised line, words changed)."""
    words = line.split(" ")
    noised = [sample_noisy(word, rng, config) if word else word for word in words]
    return " ".join(noised), sum(out != word for out, word in zip(noised, words))


def forward_batch(params, seqs):
    """`model.forward_batch` with every layer on the padded (b, n, .) arrays:
    each padded slot runs the position-wise layers too, and the cache holds
    (b, n, .) arrays throughout."""
    cfg = params.config
    t = params.tensors
    if not seqs:
        raise ValueError("forward_batch requires at least one sequence")
    lengths = np.array([len(s) for s in seqs])
    if lengths.min() == 0:
        raise ValueError("forward requires a nonempty character sequence")
    if lengths.max() > cfg.max_chars:
        raise ValueError(f"sequence length {lengths.max()} exceeds max_chars {cfg.max_chars}")
    b, n = len(seqs), max(2, int(lengths.max()))
    ids = np.zeros((b, n), dtype=np.intp)
    for row, s in enumerate(seqs):
        ids[row, :len(s)] = s
    real = np.arange(n) < lengths[:, None]

    x = t["char_emb"][ids] + model._pe_table(n, cfg.d_char)
    key_bias = np.where(real, 0.0, -np.inf)[:, None, :, None]

    h, dh = cfg.n_heads, cfg.d_head
    scale = 1.0 / np.sqrt(cfg.d_char)
    layers = []
    for j in range(cfg.n_layers):
        xb, *ln1 = numerics.layer_norm(x, t[f"L{j}.ln1.g"], t[f"L{j}.ln1.b"], model.LN_EPS)
        # (b, n, 3d) -> q, k, v of shape (b, heads, n, d_head)
        q, k, v = (xb @ t[f"L{j}.Wqkv"]).reshape(b, n, 3, h, dh).transpose(2, 0, 3, 1, 4)
        scores = k @ q.swapaxes(-1, -2)  # (b, heads, keys, queries)
        scores *= scale
        scores += key_bias
        a = numerics.softmax_rows(scores, axis=-2).swapaxes(-1, -2)
        c = (a @ v).transpose(0, 2, 1, 3).reshape(b, n, cfg.d_char)
        xp = c @ t[f"L{j}.Wo"]
        xp += xb
        xbp, *ln2 = numerics.layer_norm(xp, t[f"L{j}.ln2.g"], t[f"L{j}.ln2.b"], model.LN_EPS)
        u = xbp @ t[f"L{j}.W1"]
        u += t[f"L{j}.b1"]
        g, cdf = numerics.gelu(u)
        x = g @ t[f"L{j}.W2"]
        x += t[f"L{j}.b2"]
        x += xbp
        layers.append({"ln1": ln1, "xb": xb, "q": q, "k": k, "v": v, "a": a, "c": c,
                       "ln2": ln2, "xbp": xbp, "u": u, "cdf": cdf, "g": g})

    z = x @ t["We"]
    z[~real] = -np.inf
    pooled = z.max(axis=1)
    pooled += t["be"]
    emb, *ln_out = numerics.layer_norm(pooled, t["ln_out.g"], t["ln_out.b"], model.LN_EPS)

    cache = {"seqs": list(seqs), "ids": ids, "layers": layers, "x_final": x,
             "z": z, "pooled": pooled, "ln_out": ln_out}
    return emb, cache


def contiguous_transpose(w):
    """w^T as a C-contiguous copy, the right operand `model.backward_batch`
    multiplies by."""
    return np.ascontiguousarray(w.T)


def backward_batch(params, cache, upstream, transpose=contiguous_transpose):
    """`model.backward_batch` for a cache of `forward_batch` above: every
    product and sum runs over all b * n slots, and padded slots carry an
    exact zero gradient. The products with a layer's W2, W1, Wo and Wqkv
    take `transpose(W)` as their right operand. `np.transpose` gives a view,
    whose products OpenBLAS may sum in another order from K = 32 up."""
    cfg = params.config
    t = params.tensors
    b, n = cache["ids"].shape
    d, h, dh = cfg.d_char, cfg.n_heads, cfg.d_head
    scale = 1.0 / np.sqrt(cfg.d_char)
    grads = model.Char2SubwordParams.zeros(cfg, params.alphabet_size)
    g = grads.tensors  # each gradient is written into its view

    upstream = np.asarray(upstream, dtype=np.float64)
    d_pooled, g["ln_out.g"][...], g["ln_out.b"][...] = numerics.layer_norm_backward(
        *cache["ln_out"], t["ln_out.g"], upstream)

    # the pool's gradient goes to the first max of z + be (distinct z may round alike)
    arg = (cache["z"] + t["be"] == cache["pooled"][:, None, :]).argmax(axis=1)
    dy = np.zeros((b, n, cfg.d_out))
    np.put_along_axis(dy, arg[:, None, :], d_pooled[:, None, :], axis=1)

    g["We"][...] = cache["x_final"].reshape(-1, d).T @ dy.reshape(-1, cfg.d_out)
    g["be"][...] = d_pooled.sum(axis=0)
    dx = dy @ t["We"].T

    for j in reversed(range(cfg.n_layers)):
        layer = cache["layers"][j]
        # dx reaches both the FFN output and the residual around it
        g[f"L{j}.W2"][...] = layer["g"].reshape(-1, 4 * d).T @ dx.reshape(-1, d)
        g[f"L{j}.b2"][...] = dx.reshape(-1, d).sum(axis=0)
        du = numerics.gelu_backward(layer["u"], layer["cdf"], dx @ transpose(t[f"L{j}.W2"]))
        g[f"L{j}.W1"][...] = layer["xbp"].reshape(-1, d).T @ du.reshape(-1, 4 * d)
        g[f"L{j}.b1"][...] = du.reshape(-1, 4 * d).sum(axis=0)
        dxbp_ffn = du @ transpose(t[f"L{j}.W1"])

        # dxp reaches both the attention output and the residual around it
        dxp, g[f"L{j}.ln2.g"][...], g[f"L{j}.ln2.b"][...] = numerics.layer_norm_backward(
            *layer["ln2"], t[f"L{j}.ln2.g"], dxbp_ffn + dx)
        g[f"L{j}.Wo"][...] = layer["c"].reshape(-1, d).T @ dxp.reshape(-1, d)
        dhead = (dxp @ transpose(t[f"L{j}.Wo"])).reshape(b, n, h, dh).transpose(0, 2, 1, 3)

        a = layer["a"]
        da = dhead @ layer["v"].swapaxes(-1, -2)
        dv = a.swapaxes(-1, -2) @ dhead
        # softmax backward, row-wise; padded keys have a == 0, so ds == 0 there
        ds = a * (da - (da * a).sum(axis=-1, keepdims=True))
        ds *= scale
        dq = ds @ layer["k"]
        dk = ds.swapaxes(-1, -2) @ layer["q"]
        # back to (b * n, 3d), columns laid out as in Wqkv
        dqkv = np.stack([dq, dk, dv]).transpose(1, 3, 0, 2, 4).reshape(b * n, 3 * d)
        g[f"L{j}.Wqkv"][...] = layer["xb"].reshape(-1, d).T @ dqkv
        dxb_attn = (dqkv @ transpose(t[f"L{j}.Wqkv"])).reshape(b, n, d)

        dx, g[f"L{j}.ln1.g"][...], g[f"L{j}.ln1.b"][...] = numerics.layer_norm_backward(
            *layer["ln1"], t[f"L{j}.ln1.g"], dxb_attn + dxp)

    np.add.at(g["char_emb"], cache["ids"].ravel(), dx.reshape(-1, d))
    return grads
