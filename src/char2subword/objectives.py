"""The four simulation losses and the frozen-table neighbor index.

The table E is never trainable: loss gradients flow to the predicted
vector only.
"""

import hashlib
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .numerics import cosine_similarity

TABLE_MAGIC = b"EMBT"
# Most entries of a rows x |V| product held at once: 4 MB of float64. `tiles`
# makes every such product, one per tile, for CE's logits and for scan_table's
# top-n cosines and argmax, so memory stays bounded at any table size; at toy
# scale a batch is one tile.
CE_BLOCK = 2 ** 19


@dataclass(frozen=True)
class EmbeddingTable:
    """Frozen |V| x d matrix; the simulation target."""

    matrix: np.ndarray = field(repr=False)
    norms: np.ndarray = field(init=False, repr=False, compare=False)  # read-only row norms

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or not m.shape[0]:  # row blocks divide by |V|
            raise ValueError(f"embedding table must be 2-D with at least one row, got {m.shape}")
        norms = np.linalg.norm(m, axis=1)
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise ValueError(f"embedding table has non-finite row(s): {bad.tolist()}")
        bad = np.where(norms == 0.0)[0]
        if bad.size:
            raise ValueError(f"embedding table has zero-norm row(s): {bad.tolist()}")
        m.setflags(write=False)
        norms.setflags(write=False)
        # views through read-only buffers: no copy, and no view of them (nor
        # setflags(write=True)) can be made writable, so training cannot write E
        object.__setattr__(self, "matrix", np.asarray(memoryview(m)))
        object.__setattr__(self, "norms", np.asarray(memoryview(norms)))

    @property
    def size(self):
        return self.matrix.shape[0]

    @property
    def dim(self):
        return self.matrix.shape[1]

    def row(self, i):
        return self.matrix[i]

    def checksum(self):
        """SHA-256 hex digest of the matrix bytes; stable across processes."""
        return hashlib.sha256(memoryview(np.ascontiguousarray(self.matrix)).cast("B")).hexdigest()


def save_table_text(path, table):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{table.size} {table.dim}\n")
        for row in table.matrix:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def save_table_binary(path, table):
    with open(path, "wb") as fh:
        fh.write(TABLE_MAGIC)
        fh.write(struct.pack("<II", table.size, table.dim))
        fh.write(np.ascontiguousarray(table.matrix, dtype="<f4").tobytes())


def load_table(path):
    """Auto-detect text ("v d" header) vs binary ("EMBT" magic) table files.

    A binary file must be its 12-byte preamble and exactly v * d float32s; a
    text file must end after its v rows (blank lines aside).
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic == TABLE_MAGIC:
            shape = fh.read(8)
            if len(shape) != 8:
                raise ValueError(f"EMBT table is truncated after {4 + len(shape)} bytes")
            v, d = struct.unpack("<II", shape)
            size = os.fstat(fh.fileno()).st_size - 12  # a corrupt v * d never sizes a read
            if size != 4 * v * d:
                raise ValueError(f"EMBT payload is {size} bytes, "
                                 f"expected {4 * v * d} for a {v}x{d} float32 table")
            data = np.frombuffer(fh.read(size), dtype="<f4")
            return EmbeddingTable(matrix=data.astype(np.float64).reshape(v, d))
    with open(path, encoding="utf-8") as fh:
        v, d = (int(x) for x in fh.readline().split())
        rows = [np.array(fh.readline().split(), dtype=np.float64) for _ in range(v)]
        if fh.read().strip():
            raise ValueError(f"text table has data after its {v} rows")
    m = np.stack(rows)
    if m.shape != (v, d):
        raise ValueError(f"table header says {v}x{d} but data is {m.shape}")
    return EmbeddingTable(matrix=m)


@dataclass(frozen=True)
class NeighborIndex:
    """Top-k cosine neighbors per table row (self-inclusive), exact brute force."""

    k: int
    ids: np.ndarray = field(repr=False)  # (|V|, k) int array

    def neighbors(self, i):
        return self.ids[i]

    def prefix(self, k):
        """The top-k index of the same table. Ranks follow the total order
        (-cos, id), so a top-k is the first k columns of any deeper top-n."""
        if not 1 <= k <= self.k:
            raise ValueError(f"cannot take a top-{k} prefix of a top-{self.k} index")
        return NeighborIndex(k=k, ids=np.ascontiguousarray(self.ids[:, :k]))


def build_neighbor_index(e_table, k):
    """Rank all rows by cosine similarity, ties broken by ascending id."""
    if k > e_table.size:
        raise ValueError(f"k={k} exceeds table size {e_table.size}")
    return NeighborIndex(k=k, ids=rank_neighbors(e_table, e_table.matrix, k)[0])


def tiles(rows, e_table):
    """Yield (row slice, column slice, rows[blk] @ E[cols].T), a fresh array, per tile of
    a rows x |V| product: row block by row block, columns ascending, none above CE_BLOCK
    entries. A row block takes up to max(sqrt(CE_BLOCK), CE_BLOCK // |V|) rows, so a batch
    of a few hundred rows streams the table once and many rows get square BLAS tiles."""
    step = max(1, min(len(rows), max(math.isqrt(CE_BLOCK), CE_BLOCK // e_table.size)))
    width = min(e_table.size, max(1, CE_BLOCK // step))
    for lo in range(0, len(rows), step):
        q = rows[lo:lo + step].copy()  # not a view: numpy's A @ A.T path splits exact ties
        for c in range(0, e_table.size, width):
            yield slice(lo, lo + step), slice(c, c + width), q @ e_table.matrix[c:c + width].T


def scan_table(e_table, vecs, n):
    """One exact pass over the tiles of `tiles` for query rows (Q, d): the top-n table
    rows by cosine, ascending-id ties, as (ids, sims) shaped (Q, n), and each row's
    argmax of the raw product, lowest id on ties, shaped (Q,). Each tile keeps every
    column at or above its rows' n-th largest cosine, so ties at the cut survive, and
    only those candidates and the running top-n are sorted."""
    if n < 1:
        raise ValueError(f"cannot rank the top {n} neighbors; need n >= 1")
    rows = np.atleast_2d(np.asarray(vecs, dtype=np.float64))
    qnorm = np.linalg.norm(rows, axis=1)
    if (qnorm == 0.0).any():
        raise ValueError("cannot rank neighbors of a zero vector")
    if not np.isfinite(qnorm).all():  # NaN sims would pass no cut
        raise ValueError("cannot rank neighbors of a non-finite vector")
    n = min(n, e_table.size)
    ids = np.empty((len(rows), n), dtype=np.int64)
    sims = np.empty(ids.shape)
    argmax, best = np.zeros(len(rows), dtype=np.int64), np.full(len(rows), -np.inf)
    for blk, cols, prod in tiles(rows, e_table):
        j = prod.argmax(axis=1)  # the first max in the tile: its lowest id
        peak = prod[np.arange(len(j)), j]
        win = peak > best[blk]  # columns ascend, so a tie keeps the lower id
        argmax[blk] = np.where(win, j + cols.start, argmax[blk])
        best[blk] = np.where(win, peak, best[blk])
        s = prod / (qnorm[blk, None] * e_table.norms[cols])
        cut = s.shape[1] - min(n, s.shape[1])
        r, c = np.nonzero(s >= np.partition(s, cut, axis=1)[:, cut, None])
        r, c, v = r, c + cols.start, s[r, c]
        if cols.start:  # merge with the row block's running top-n
            r, c, v = (np.concatenate(pair) for pair in zip(cand, (r, c, v)))
        order = np.lexsort((c, -v, r))
        r, c, v = r[order], c[order], v[order]
        top = np.arange(len(r)) - np.searchsorted(r, r) < n  # the first n of each row
        cand = r[top], c[top], v[top]
        if cols.stop >= e_table.size:
            ids[blk] = cand[1].reshape(-1, n)
            sims[blk] = cand[2].reshape(-1, n)
    return ids, sims, argmax


def rank_neighbors(e_table, vecs, n):
    """scan_table's top-n for a vector (d,) or rows (Q, d): (ids, sims), (n,) or (Q, n)."""
    ids, sims, _ = scan_table(e_table, vecs, n)
    return (ids[0], sims[0]) if np.ndim(vecs) == 1 else (ids, sims)


@dataclass(frozen=True)
class LossWeights:
    l_cos: float = 1.0
    l_ce: float = 1.0
    l_l2: float = 1.0
    l_nbr: float = 1.0

    def __post_init__(self):
        vals = (self.l_cos, self.l_ce, self.l_l2, self.l_nbr)
        if not all(0 <= w < float("inf") for w in vals):  # also rejects NaN
            raise ValueError(f"loss weights must be finite and nonnegative, got {vals}")
        if all(w == 0 for w in vals):
            raise ValueError("at least one loss weight must be positive")


def loss_cos(e, e_hat):
    """Cosine distance 1 - cos(e, e_hat)."""
    return 1.0 - cosine_similarity(e, e_hat)


def loss_l2(e, e_hat):
    """Euclidean distance between target and prediction."""
    d = np.asarray(e, dtype=np.float64) - np.asarray(e_hat, dtype=np.float64)
    return float(np.sqrt(d @ d))


def loss_ce(target_id, e_hat, e_table):
    """-log softmax(e_hat . E^T)[target]; E is frozen. The CE term of
    loss_and_grad on a batch of one."""
    _, parts, _ = loss_and_grad([target_id], [e_hat], e_table, None, LossWeights(0, 1, 0, 0))
    return float(parts["ce"][0])


def loss_nbr(target_id, e_hat, e_table, index):
    """MSE between the target's and the prediction's cosine distances to the
    target's top-k table neighbors. The L_nbr term of loss_and_grad on a batch
    of one."""
    _, parts, _ = loss_and_grad([target_id], [e_hat], e_table, index, LossWeights(0, 0, 0, 1))
    return float(parts["nbr"][0])


def _check_target_row(target_id, e, e_table):
    if not np.array_equal(e, e_table.row(target_id)):
        raise ValueError(f"e is not the table row of target id {target_id}")


def combined_loss(target_id, e, e_hat, e_table, index, weights):
    """Weighted sum of the four objectives for one sample; returns (total,
    components). loss_and_grad on a batch of one; `e` must be
    e_table.row(target_id)."""
    _check_target_row(target_id, e, e_table)
    totals, parts, _ = loss_and_grad([target_id], [e_hat], e_table, index, weights)
    return float(totals[0]), {name: float(v[0]) for name, v in parts.items()}


def combined_loss_gradient(target_id, e, e_hat, e_table, index, weights):
    """Gradient of combined_loss with respect to e_hat, from loss_and_grad."""
    _check_target_row(target_id, e, e_table)
    return loss_and_grad([target_id], [e_hat], e_table, index, weights)[2][0]


def loss_and_grad(target_ids, e_hat, e_table, index, weights):
    """The weighted four-term loss and its gradient for a batch of predictions.

    `e_hat` is (B, d), one row per target id; row b's target is
    E[target_ids[b]]. CE streams the table once, in the tiles of `tiles` (each
    holds the whole batch unless B is in the hundreds): per tile, one product
    gives the logits, a running max m and sum z per row rescale the
    accumulator (the online softmax normaliser of Milakov and Gimelshein,
    2018), and a second product adds exp(l - m) @ tile. The loss is
    log z + m - e_hat . e and the gradient acc / z - e, in O(B x tile) memory
    at any V. L_nbr runs over all k neighbors at once. Returns
    (totals (B,), {term: (B,)}, gradient (B, d)); a term whose weight is 0 is
    reported as zeros and adds nothing. `index` may be None when l_nbr is 0.
    """
    ids = np.asarray(target_ids, dtype=np.int64)
    e_hat = np.asarray(e_hat, dtype=np.float64)
    if ids.size and (ids.min() < 0 or ids.max() >= e_table.size):
        raise IndexError(f"target ids out of range for |V|={e_table.size}")
    table = e_table.matrix
    e = table[ids]
    norm_hat = np.linalg.norm(e_hat, axis=1)
    parts = {name: np.zeros(len(ids)) for name in ("cos", "ce", "l2", "nbr")}
    grad = np.zeros_like(e_hat)

    if weights.l_cos:
        norm_e = np.linalg.norm(e, axis=1)
        cos = np.einsum("bd,bd->b", e_hat, e) / (norm_hat * norm_e)
        parts["cos"] = 1.0 - cos
        grad -= weights.l_cos * (e / (norm_hat * norm_e)[:, None]
                                 - (cos / norm_hat ** 2)[:, None] * e_hat)

    if weights.l_ce:
        # online softmax: running max m, sum z and sum of exp(l - m) * E[j] per row
        m = np.full(len(ids), -np.inf)
        z = np.zeros(len(ids))
        acc = np.zeros_like(e_hat)
        for blk, cols, p in tiles(e_hat, e_table):  # p: a fresh logits tile, updated in place
            top = np.maximum(m[blk], p.max(axis=1))
            scale = np.exp(m[blk] - top)
            p -= top[:, None]
            np.exp(p, out=p)
            z[blk] = z[blk] * scale + p.sum(axis=1)
            acc[blk] = acc[blk] * scale[:, None] + p @ table[cols]
            m[blk] = top
        parts["ce"] = np.log(z) + m - np.einsum("bd,bd->b", e_hat, e)
        grad += weights.l_ce * (acc / z[:, None] - e)

    if weights.l_l2:
        diff = e_hat - e
        norm = np.linalg.norm(diff, axis=1)
        parts["l2"] = norm
        # gradient defined as 0 at e == e_hat
        grad += weights.l_l2 * diff / np.where(norm > 0.0, norm, np.inf)[:, None]

    if weights.l_nbr:
        if index.ids.shape[0] != e_table.size:
            raise ValueError("neighbor index does not match the table")
        nbrs = table[index.ids[ids]]  # (B, k, d)
        norm_n = np.linalg.norm(nbrs, axis=2)
        norm_e = np.linalg.norm(e, axis=1)
        cos_true = np.einsum("bkd,bd->bk", nbrs, e) / (norm_n * norm_e[:, None])
        cos_pred = np.einsum("bkd,bd->bk", nbrs, e_hat) / (norm_n * norm_hat[:, None])
        gap = (1.0 - cos_true) - (1.0 - cos_pred)
        parts["nbr"] = (gap ** 2).sum(axis=1) / index.k
        # d/de_hat of gap_j^2 = 2 gap_j d cos(e_hat, n_j)/de_hat
        coef = 2.0 * gap / index.k
        grad += weights.l_nbr * (
            np.einsum("bk,bkd->bd", coef / (norm_n * norm_hat[:, None]), nbrs)
            - ((coef * cos_pred).sum(axis=1) / norm_hat ** 2)[:, None] * e_hat)

    totals = (weights.l_cos * parts["cos"] + weights.l_ce * parts["ce"]
              + weights.l_l2 * parts["l2"] + weights.l_nbr * parts["nbr"])
    return totals, parts, grad
