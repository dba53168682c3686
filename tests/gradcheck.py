"""Finite-difference gradient check shared by the test modules."""

import numpy as np

from attrcap.nncore import NumericError


def gradient_check(loss_fn, params, eps=1e-5):
    """Compare analytic gradients against central differences.

    ``loss_fn(params) -> (loss, grads)`` must be deterministic in its
    inputs. Every coordinate of every parameter is perturbed by
    ``+/- eps``; the relative error of a coordinate is
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)`` and the
    maximum over all coordinates is returned.
    """
    work = {name: np.array(value, dtype=np.float64) for name, value in params.items()}
    loss, analytic = loss_fn(work)
    if not np.isfinite(loss):
        raise NumericError(f"loss is not finite: {loss}")
    worst = 0.0
    for name, value in work.items():
        grad = analytic[name]
        for index in np.ndindex(value.shape):
            original = value[index]
            value[index] = original + eps
            loss_plus, _ = loss_fn(work)
            value[index] = original - eps
            loss_minus, _ = loss_fn(work)
            value[index] = original
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            a = float(grad[index])
            scale = max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / scale)
    return worst
