"""Dense float64 primitives shared by the model and the losses.

Everything here is a pure function over numpy arrays. Matrices are 2-D
row-major float64 arrays; vectors are 1-D float64 arrays.
"""

import numpy as np
from scipy.special import erf

__all__ = [
    "softmax_rows",
    "layer_norm",
    "layer_norm_backward",
    "gelu",
    "gelu_backward",
    "cosine_similarity",
    "sinusoidal_pe",
]


def softmax_rows(m, axis=-1):
    """Softmax along `axis` (rows by default), stabilized by subtracting the maximum.

    Runs in place on one copy with that axis first, as long contiguous loops that
    sum its terms in order, so a term of exactly 0 (a key at -inf) changes no bit;
    the result is a view of that copy."""
    m = np.asarray(m, dtype=np.float64)
    e = m.swapaxes(axis, 0).copy()  # a copy even where swapaxes is a no-op
    e -= np.maximum.reduce(e, axis=0)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=0)
    return e.swapaxes(0, axis)


def layer_norm(x, gain, bias, eps):
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    Uses population variance. Works on a single vector or row-wise on a matrix.
    x is centered once; the sums and divisions are the ones ndarray.mean and
    ndarray.var make, so the bits are theirs. Returns (out, d, sigma): d is x
    centered and sigma = sqrt(var + eps), the terms layer_norm_backward takes.
    eps > 0 has no default: the encoder states its one value, model.LN_EPS.
    """
    x = np.asarray(x, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.shape[-1] != gain.shape[-1] or x.shape[-1] != bias.shape[-1]:
        raise ValueError(
            f"layer_norm dims differ: x {x.shape[-1]}, gain {gain.shape[-1]}, bias {bias.shape[-1]}"
        )
    if eps <= 0:
        raise ValueError("layer_norm eps must be > 0")
    n = x.shape[-1]
    d = x - np.add.reduce(x, -1, keepdims=True) / n
    sigma = np.sqrt(np.add.reduce(d * d, -1, keepdims=True) / n + eps)
    out = d / sigma
    out *= gain
    out += bias
    return out, d, sigma


def layer_norm_backward(d, sigma, gain, grad_out):
    """Gradients of layer_norm w.r.t. x, gain, and bias, given its d and sigma and grad_out.

    Returns (grad_x, grad_gain, grad_bias); the vector grads are summed over
    leading axes so they match the parameter shapes.
    """
    n = d.shape[-1]
    inv = 1.0 / sigma
    xhat = d * inv

    grad_gain = (grad_out * xhat).reshape(-1, n).sum(axis=0)
    grad_bias = grad_out.reshape(-1, n).sum(axis=0)

    g = grad_out * gain  # grad_x = inv * (g - mean(g) - xhat * mean(g * xhat))
    mean_gx = np.add.reduce(g * xhat, -1, keepdims=True) / n
    g -= np.add.reduce(g, -1, keepdims=True) / n
    g -= xhat * mean_gx
    g *= inv
    return g, grad_gain, grad_bias


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x):
    """Exact GELU, x * Phi(x), elementwise. Returns (out, cdf) with
    cdf = 1 + erf(x / sqrt(2)) = 2 Phi(x), the term gelu_backward takes."""
    x = np.asarray(x, dtype=np.float64)
    cdf = erf(x * _INV_SQRT2)
    cdf += 1.0
    out = x * 0.5
    out *= cdf
    return out, cdf


def gelu_backward(x, cdf, grad_out):
    """d/dx [x * Phi(x)] = Phi(x) + x * phi(x), times upstream gradient, given
    the cdf that gelu returned with its output."""
    return grad_out * (0.5 * cdf + x * (_INV_SQRT2PI * np.exp(-0.5 * x * x)))


def cosine_similarity(a, b):
    """Cosine of the angle between two nonzero vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine_similarity is undefined for a zero-norm vector")
    return float(np.dot(a, b) / (na * nb))


def sinusoidal_pe(position, dim):
    """Sinusoidal positional encoding with wavelength base 10000.

    Even slots hold sin, odd slots hold cos, both over frequency
    1 / 10000^(2i/dim).
    """
    if dim % 2 != 0:
        raise ValueError(f"sinusoidal_pe requires an even dim, got {dim}")
    i = np.arange(dim // 2, dtype=np.float64)
    angle = position / np.power(10000.0, 2.0 * i / dim)
    pe = np.empty(dim, dtype=np.float64)
    pe[0::2] = np.sin(angle)
    pe[1::2] = np.cos(angle)
    return pe

