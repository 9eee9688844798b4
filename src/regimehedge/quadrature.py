"""Gauss quadrature node builders for lognormal expectations.

All normal rules are expressed for a standard normal weight: nodes xi and
weights w with sum(w) = 1 and E[g] ~ sum w_q g(xi_q).  A rule in several
dimensions is the tensor product of one Gauss-Hermite rule, up to dimension
4.  A scenario sets two node counts: the smoother's ``gh_nodes`` and the
head-asset rule's ``bsm_outer_nodes`` (``SolverSettings``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DimensionTooLarge


@lru_cache(maxsize=64)
def gauss_hermite_standard(n: int):
    """Nodes/weights integrating against the standard normal density."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


# largest dimension served by a tensor rule
_MAX_TENSOR_DIM = 4


@lru_cache(maxsize=64)
def tensor_normal_nodes(dim: int, n_each: int):
    """Tensor-product standard-normal rule: (Q, dim) nodes and (Q,) weights."""
    if dim > _MAX_TENSOR_DIM:
        raise DimensionTooLarge(
            f"tensor quadrature capped at dim {_MAX_TENSOR_DIM}, got {dim}")
    x1, w1 = gauss_hermite_standard(n_each)
    grids = np.meshgrid(*([x1] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.ones(1)
    for _ in range(dim):
        weights = np.kron(weights, w1)
    return nodes, weights
