"""Gauss quadrature node builders for lognormal expectations.

All normal rules are expressed for a standard normal weight: nodes xi and
weights w with sum(w) = 1 and E[g] ~ sum w_q g(xi_q).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import DimensionTooLarge


@lru_cache(maxsize=64)
def gauss_hermite_standard(n: int):
    """Nodes/weights integrating against the standard normal density."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Nodes/weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def tensor_normal_nodes(dim: int, n_each: int):
    """Tensor-product standard-normal rule: (Q, dim) nodes and (Q,) weights."""
    x1, w1 = gauss_hermite_standard(n_each)
    grids = np.meshgrid(*([x1] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.ones(1)
    for _ in range(dim):
        weights = np.kron(weights, w1)
    return nodes, weights


def smolyak_normal_nodes(dim: int, level: int):
    """Sparse (Smolyak) standard-normal rule with 1D sizes 2i - 1.

    Built by the combination technique; weights may be negative. Intended
    for dim >= 3 where tensor rules are too large.
    """
    if level < 1:
        raise ValueError("sparse level must be >= 1")
    q = dim + level - 1
    pieces = []
    for idx in itertools.product(range(1, level + 1), repeat=dim):
        total = sum(idx)
        if not (q - dim + 1 <= total <= q):
            continue
        coeff = (-1) ** (q - total) * math.comb(dim - 1, q - total)
        rules = [gauss_hermite_standard(2 * i - 1) for i in idx]
        grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)
        weights = np.ones(1)
        for r in rules:
            weights = np.kron(weights, r[1])
        pieces.append((nodes, coeff * weights))
    nodes = np.concatenate([p[0] for p in pieces], axis=0)
    weights = np.concatenate([p[1] for p in pieces], axis=0)
    return nodes, weights


# largest dimension served by a tensor rule; beyond it a sparse level is needed
_MAX_TENSOR_DIM = 4


def normal_nodes(dim: int, n_each: int, sparse_level: int | None = None):
    """Dispatch between tensor and sparse rules with the dimension cap."""
    if dim <= 2 or sparse_level is None:
        if dim > _MAX_TENSOR_DIM:
            raise DimensionTooLarge(
                f"tensor quadrature capped at dim {_MAX_TENSOR_DIM}, got {dim}; "
                "configure a sparse level")
        return tensor_normal_nodes(dim, n_each)
    return smolyak_normal_nodes(dim, sparse_level)
