"""The four simulation losses and the frozen-table neighbor index.

The table E is never trainable: loss gradients flow to the predicted
vector only.
"""

import collections
import concurrent.futures
import ctypes
import hashlib
import itertools
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy._core import _multiarray_umath

from .numerics import cosine_similarity

TABLE_MAGIC = b"EMBT"
# Most entries of a rows x |V| product held at once: 4 MB of float64. `tiles`
# makes every such product, one per tile, for CE's logits and for scan_table's
# top-n cosines and argmax; at most _IN_FLIGHT tiles are held at once, so memory
# stays bounded at any table size. A product that fits in one tile runs inline
# below 2 * CE_BLOCK multiply-adds (every toy product) and as two column tiles
# on the pool from there (a query over a 30k x 768 table). Loading a table and
# its row norms also goes in row chunks of at most this many entries, on the pool
# when there are several.
CE_BLOCK = 2 ** 19
# Runs _in_order's jobs (tiles, table row chunks); numpy releases the GIL in matmul,
# exp, partition and argmax. Made here, so no binding changes later: the executor
# starts no thread until its first submit.
_POOL = concurrent.futures.ThreadPoolExecutor(os.cpu_count() or 1)
_IN_FLIGHT = 2 * (os.cpu_count() or 1)  # jobs submitted and not yet yielded

# numpy's bundled OpenBLAS runs on one thread (set as threadpoolctl sets it), so the
# pool is the only parallelism: no oversubscribed cores, and no product whose bits
# depend on OPENBLAS_NUM_THREADS. A symbol looked up in numpy's own extension is
# found in the libraries it links, so this is the BLAS that numpy's matmul calls.
try:
    ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_(1)
except (OSError, AttributeError) as exc:
    raise RuntimeError("cannot pin numpy's BLAS to one thread: numpy's bundled OpenBLAS "
                       f"setter scipy_openblas_set_num_threads64_ is missing ({exc})") from exc


@dataclass(frozen=True)
class EmbeddingTable:
    """Frozen |V| x d matrix; the simulation target."""

    matrix: np.ndarray = field(repr=False)
    norms: np.ndarray = field(init=False, repr=False, compare=False)  # read-only row norms

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or not m.shape[0]:  # row blocks divide by |V|
            raise ValueError(f"embedding table must be 2-D with at least one row, got {m.shape}")
        norms = _row_norms(m)
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


def _in_order(fn, jobs, inline):
    """Yield fn(*job) for each job, in job order: in the caller if `inline`, else on
    _POOL with at most _IN_FLIGHT jobs submitted and not yet yielded, so results do not
    depend on the worker count. A pooled job runs beside others and the caller: it must
    write nothing they read, and must not submit to the pool (a one-worker pool would
    wait on itself). A job that raises cancels the jobs not yet started, and its error
    reaches the caller once the running ones have finished; a caller that stops early
    leaves no future pending."""
    if inline:
        for job in jobs:
            yield fn(*job)
        return
    pending = collections.deque()
    try:
        for job in jobs:
            pending.append(_POOL.submit(fn, *job))
            if len(pending) >= _IN_FLIGHT:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:  # an error, or the caller stopped early: no job outlives the call
        for future in pending:
            future.cancel()
        concurrent.futures.wait(pending)


def _row_chunks(v, d):
    """Slices of consecutive rows of a v x d matrix, at most CE_BLOCK entries each
    (one row if a row is wider)."""
    step = max(1, CE_BLOCK // max(d, 1))
    return [slice(lo, lo + step) for lo in range(0, v, step)]


def _over_row_chunks(v, d, fn):
    """Call fn(rows) for each slice of _row_chunks(v, d), through _in_order: inline if
    there is one, else on the pool."""
    chunks = _row_chunks(v, d)
    for _ in _in_order(fn, [(rows,) for rows in chunks], len(chunks) == 1):
        pass


def _row_norms(m):
    """np.linalg.norm(m, axis=1) of a 2-D array, row chunk by row chunk, so no
    temporary as large as m is made."""
    norms = np.empty(len(m))

    def norm(rows):
        norms[rows] = np.linalg.norm(m[rows], axis=1)

    _over_row_chunks(*m.shape, norm)
    return norms


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
            m = np.empty((v, d))  # filled chunk by chunk: no float32 copy of the whole file

            def fill(rows):  # each chunk reads at its own offset: no shared file position
                chunk = m[rows].reshape(-1)  # a view: m is C-contiguous
                data = os.pread(fh.fileno(), 4 * chunk.size, 12 + 4 * d * rows.start)
                chunk[:] = np.frombuffer(data, dtype="<f4")

            _over_row_chunks(v, d, fill)
            return EmbeddingTable(matrix=m)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        try:
            v, d = (int(x) for x in header.split())
        except ValueError:
            raise ValueError(f"text table line 1 must be two integers \"v d\", "
                             f"got {header.strip()!r}") from None
        rows = [_text_row(ln, line, d)
                for line, ln in enumerate(itertools.islice(fh, max(v, 0)), start=2)]
        if len(rows) != v:
            raise ValueError(f"text table header says {v} rows but the file has {len(rows)}")
        if fh.read().strip():
            raise ValueError(f"text table has data after its {v} rows")
    return EmbeddingTable(matrix=np.stack(rows) if rows else np.empty((0, d)))  # it refuses 0 rows


def _text_row(text, line, d):
    """The d float64 values on line `line` of a text table."""
    try:
        row = np.array(text.split(), dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"text table line {line}: {exc}") from None
    if row.shape != (d,):
        raise ValueError(f"text table line {line} has {row.size} values, expected {d}")
    return row


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


def check_vocab_size(e_table, vocab):
    """Raise ValueError unless the table has one row per vocabulary entry."""
    if e_table.size != len(vocab):
        raise ValueError(f"table has {e_table.size} rows but vocabulary has {len(vocab)}")


def build_neighbor_index(e_table, k):
    """Rank all rows by cosine similarity, ties broken by ascending id."""
    return NeighborIndex(k=k, ids=rank_neighbors(e_table, e_table.matrix, k)[0])


def tiles(rows, e_table, fn):
    """Yield (row slice, column slice, fn(row slice, column slice, product)) per tile of
    a rows x |V| product, in tile order: row block by row block, columns ascending, none
    above CE_BLOCK entries. `product` is rows[blk] @ E[cols].T, a fresh array that fn may
    overwrite. A row block takes up to max(sqrt(CE_BLOCK), CE_BLOCK // |V|) rows, so a
    batch of a few hundred rows streams the table once and many rows get square BLAS
    tiles. A product that fits in one tile runs inline if it has fewer than 2 * CE_BLOCK
    multiply-adds (rows x |V| x d); from there it is cut into two column tiles of
    ceil(|V| / 2) columns, a fixed count, so the bits do not depend on the machine.
    Several tiles run through _in_order on the pool, whose rules fn keeps."""
    step = max(1, min(len(rows), max(math.isqrt(CE_BLOCK), CE_BLOCK // e_table.size)))
    width = min(e_table.size, max(1, CE_BLOCK // step))
    inline = len(rows) <= step and e_table.size <= width  # one tile, or none
    if inline and len(rows) * e_table.size * e_table.dim >= 2 * CE_BLOCK:
        width, inline = -(-e_table.size // 2), False  # two column tiles, side by side

    def grid():
        for lo in range(0, len(rows), step):
            q = rows[lo:lo + step].copy()  # not a view: numpy's A @ A.T path splits exact ties
            for c in range(0, e_table.size, width):
                yield slice(lo, lo + step), slice(c, c + width), q

    def tile(blk, cols, q):
        return blk, cols, fn(blk, cols, q @ e_table.matrix[cols].T)

    yield from _in_order(tile, grid(), inline)


def scan_table(e_table, vecs, n, argmax=True):
    """One exact pass over the tiles of `tiles` for query rows (Q, d): the top-n table
    rows by cosine, ascending-id ties, as (ids, sims) shaped (Q, n), and each row's
    argmax of the raw product, lowest id on ties, shaped (Q,), or None if not `argmax`.
    Each tile keeps every column at or above its rows' n-th largest cosine, so ties at
    the cut survive, and returns its rows' top-n cosines and, if `argmax`, its own
    argmax, merged in column order. At a row block's last tile, one or many, each
    row's n-th largest cosine is taken from one partition of its tiles' top-n cosines,
    and the candidates at or above it are sorted once, stably on (row, -cosine):
    within a row they arrive in ascending column order, so ties keep ascending ids.
    n must be in 1..|V|."""
    if not 1 <= n <= e_table.size:
        raise ValueError(f"cannot rank the top {n} neighbors of {e_table.size} table rows; "
                         f"need n >= 1 and n <= {e_table.size}")
    rows = np.atleast_2d(np.asarray(vecs, dtype=np.float64))
    qnorm = _row_norms(rows)
    if (qnorm == 0.0).any():
        raise ValueError("cannot rank neighbors of a zero vector")
    if not np.isfinite(qnorm).all():  # NaN sims would pass no cut
        raise ValueError("cannot rank neighbors of a non-finite vector")

    def scan(blk, cols, prod):
        j = peak = None
        if argmax:
            j = prod.argmax(axis=1)  # the first max in the tile: its lowest id
            peak = prod[np.arange(len(j)), j]
        s = np.divide(prod, qnorm[blk, None] * e_table.norms[cols], out=prod)
        cut = s.shape[1] - min(n, s.shape[1])
        top = np.partition(s, cut, axis=1)[:, cut:]  # all columns if fewer than n
        flat = np.flatnonzero(s >= top[:, :1])  # faster than a 2-D np.nonzero
        r, c = np.divmod(flat, s.shape[1])
        return j, peak, top.copy(), r, c + cols.start, s.ravel()[flat]  # copied: frees s

    ids = np.empty((len(rows), n), dtype=np.int64)
    sims = np.empty(ids.shape)
    top1, best = np.zeros(len(rows), dtype=np.int64), np.full(len(rows), -np.inf)
    block = []  # the row block's tiles so far: (top, r, c, v) each
    for blk, cols, (j, peak, *found) in tiles(rows, e_table, scan):
        if argmax:
            win = peak > best[blk]  # columns ascend, so a tie keeps the lower id
            top1[blk] = np.where(win, j + cols.start, top1[blk])
            best[blk] = np.where(win, peak, best[blk])
        block.append(found)
        if cols.stop < e_table.size:
            continue
        top, r, c, v = (np.concatenate(part, axis=-1) for part in zip(*block))
        block = []
        floor = np.partition(top, top.shape[1] - n, axis=1)[:, -n]  # each row's n-th cosine
        keep = v >= floor[r]
        r, c, v = r[keep], c[keep], v[keep]
        order = np.lexsort((-v, r))  # one stable sort
        r, c, v = r[order], c[order], v[order]
        first = np.arange(len(r)) - np.searchsorted(r, r) < n  # the first n of each row
        ids[blk] = c[first].reshape(-1, n)
        sims[blk] = v[first].reshape(-1, n)
    return ids, sims, top1 if argmax else None


def rank_neighbors(e_table, vecs, n):
    """scan_table's top-n for a vector (d,) or rows (Q, d): (ids, sims), (n,) or (Q, n)."""
    ids, sims, _ = scan_table(e_table, vecs, n, argmax=False)
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
    holds the whole batch unless B is in the hundreds). Each tile, on the pool
    when there are several, turns its product into logits l and returns its
    row max m_t, z_t = sum exp(l - m_t) and, with a second product,
    acc_t = exp(l - m_t) @ tile. The caller merges them in tile order into a
    running max m, sum z and accumulator acc per row, each rescaled to the new
    max (the online softmax normaliser of Milakov and Gimelshein, 2018). The
    loss is log z + m - e_hat . e and the gradient acc / z - e, in
    O(B x tile) memory per tile in flight at any V. L_nbr runs over all k
    neighbors at once. Returns (totals (B,), {term: (B,)}, gradient (B, d)); a
    term whose weight is 0 is reported as zeros and adds nothing. `index` may
    be None when l_nbr is 0.
    """
    ids = np.asarray(target_ids, dtype=np.int64)
    e_hat = np.asarray(e_hat, dtype=np.float64)
    if ids.size and (ids.min() < 0 or ids.max() >= e_table.size):
        raise IndexError(f"target ids out of range for |V|={e_table.size}")
    table = e_table.matrix
    e = table[ids]
    norm_e = e_table.norms[ids]
    norm_hat = np.linalg.norm(e_hat, axis=1)
    parts = {name: np.zeros(len(ids)) for name in ("cos", "ce", "l2", "nbr")}
    grad = np.zeros_like(e_hat)

    if weights.l_cos:
        cos = np.einsum("bd,bd->b", e_hat, e) / (norm_hat * norm_e)
        parts["cos"] = 1.0 - cos
        grad -= weights.l_cos * (e / (norm_hat * norm_e)[:, None]
                                 - (cos / norm_hat ** 2)[:, None] * e_hat)

    if weights.l_ce:
        def partial(blk, cols, p):  # p: a fresh logits tile, overwritten
            m_t = p.max(axis=1)
            p -= m_t[:, None]
            np.exp(p, out=p)
            return m_t, p.sum(axis=1), p @ table[cols]

        # online softmax: merge each tile's max m_t, sum z_t = sum exp(l - m_t) and
        # acc_t = exp(l - m_t) @ E[cols] into the running m, z and acc per row
        m = np.full(len(ids), -np.inf)
        z = np.zeros(len(ids))
        acc = np.zeros_like(e_hat)
        for blk, cols, (m_t, z_t, acc_t) in tiles(e_hat, e_table, partial):
            top = np.maximum(m[blk], m_t)
            scale, scale_t = np.exp(m[blk] - top), np.exp(m_t - top)
            z[blk] = z[blk] * scale + z_t * scale_t
            acc[blk] = acc[blk] * scale[:, None] + acc_t * scale_t[:, None]
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
        nbr_ids = index.ids[ids]
        nbrs = table[nbr_ids]  # (B, k, d)
        norm_n = e_table.norms[nbr_ids]
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
