"""The damped restart walk behind the survey's global graph models.

PageRank, Pujol's NodeRanking (:mod:`repro.models.socialnetwork`) and
EigenTrust all rank by the stationary vector of one walk:

.. math::  x' = a\\, p + (1 - a)\\, (W^T x + d(x)\\, p)

where *W* is the row-normalized edge-weight matrix, *p* the restart
(prior) distribution, *a* the restart probability and *d(x)* the mass
on rows whose out-weight is ≤ 0, which is sent to *p* as well.
PageRank restarts with ``1 − damping`` onto the uniform vector;
EigenTrust with ``alpha`` onto its pre-trusted set.

:func:`damped_walk` iterates it over edge lists with ``bincount``, so
memory is O(V + E).  The helpers below it are the cached-vector
scoring the walk models share: one converged vector per graph version
serves every :meth:`score` / :meth:`score_many` call until a record
drops it.  They are plain functions, not a base class, so each model
class keeps its own ``score_many`` for per-model timing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.obs.recorder import get_recorder


def check_walk_config(tol: float, max_iter: int) -> None:
    """Reject iteration controls that would silently skip convergence."""
    if not tol > 0:  # also rejects NaN
        raise ConfigurationError(f"tol must be > 0, got {tol!r}")
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter!r}")


def damped_walk(
    src: ArrayLike,
    dst: ArrayLike,
    weight: ArrayLike,
    n: int,
    prior: np.ndarray,
    restart: float,
    tol: float,
    max_iter: int,
    warm: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """Stationary vector of the restart walk over ``n`` nodes.

    Edge *k* runs ``src[k] -> dst[k]`` with ``weight[k] >= 0``; parallel
    edges add.  Iteration starts from *warm* (padded with zeros when
    nodes were added since, then normalized) or, without one, from
    *prior*, and stops once the L1 step is below *tol* or after
    *max_iter* steps.  Returns the vector (sums to 1) and the number of
    steps taken.
    """
    src = np.asarray(src, dtype=np.intp)
    dst = np.asarray(dst, dtype=np.intp)
    weight = np.asarray(weight, dtype=float)
    out = np.bincount(src, weights=weight, minlength=n)
    dangling = (out <= 0).astype(float)
    follow = 1.0 - restart
    # edge k carries follow * weight[k] / out[src[k]] of its source's mass
    share = follow * weight / np.where(dangling, 1.0, out)[src]
    x = prior
    if warm is not None and warm.sum() > 0:
        x = np.zeros(n)
        x[: len(warm)] = warm
        x /= x.sum()
    steps = 0
    for steps in range(1, max_iter + 1):
        spread = follow * (x @ dangling)  # dangling rows follow to prior
        nxt = np.bincount(dst, weights=share * x[src], minlength=n)
        nxt = nxt + (restart + spread) * prior
        delta = np.abs(nxt - x).sum()
        x = nxt
        if delta < tol:
            break
    return x / x.sum(), steps


def cached_vector(model) -> Dict[EntityId, float]:
    """*model*'s stationary vector: the cached ``_vector``, or
    ``model.compute()`` on a miss.  With a recorder installed, counts
    ``model.cache.hits`` / ``model.cache.misses`` and the steps a miss
    took (``model.power_iterations``), labelled by model name."""
    rec = get_recorder()
    vector = model._vector
    labels = (model.name,)
    if vector is None:
        vector = model.compute()
        if rec.enabled:
            rec.count("model.cache.misses", labels=labels,
                      label_names=("model",))
            rec.count("model.power_iterations", model.iterations_last_run,
                      labels=labels, label_names=("model",))
    elif rec.enabled:
        rec.count("model.cache.hits", labels=labels, label_names=("model",))
    return vector


def vector_scores(model, targets: Sequence[EntityId]) -> List[float]:
    """Each target's share of the cached vector over the top share
    (so the best node scores 1); 0.5 for every target while the graph
    is empty.  No targets, no convergence."""
    if not targets:
        return []
    vector = cached_vector(model)
    top = max(vector.values(), default=0.0)
    if top <= 0:
        return [0.5] * len(targets)
    values = np.fromiter(
        (vector.get(t, 0.0) for t in targets), dtype=float, count=len(targets)
    )
    return (values / top).tolist()
