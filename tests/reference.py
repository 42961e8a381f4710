"""Slow, independent references for the fast paths of the package.

The per-sample losses and their loop gradient are written term by term with
no batching or tiling; `objectives.loss_and_grad` must agree with them to
1e-12. `precision_overlaps` is the set loop behind
`evaluation.precision_at_k`. `finite_diff_gradient` checks hand-written
gradients against central differences.
"""

import numpy as np

from char2subword.numerics import cosine_similarity
from char2subword.objectives import loss_cos, loss_l2


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
