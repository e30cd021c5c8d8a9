"""GNN convolution layers operating on sampled blocks.

Each layer consumes a :class:`~repro.sampling.blocks.Block` plus the
source-row embeddings and produces destination-row embeddings,
implementing the neighborhood aggregation of paper Eq. (1).  All layers
honor per-edge weights, which is how the Spielman-Srivastava weights of
sparsified subgraphs enter the computation.

Implemented architectures (paper Section V, Fig. 14): GCN, GraphSAGE,
GAT and GATv2.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..rng import ensure_rng
from ..sampling.blocks import Block
from .module import Linear, Module, Parameter, xavier_uniform
from .tensor import (
    Tensor,
    aggregate,
    concat,
    gather,
    leaky_relu,
    segment_softmax,
    segment_sum,
)


class GCNConv(Module):
    """Graph convolution with implicit self-loops.

    Destination embeddings are the degree-normalized weighted sum of
    neighbor embeddings plus the node's own previous embedding, then an
    affine map:

        h_v = W * (h_v + sum_u w_uv h_u) / (1 + sum_u w_uv)

    This is DGL's ``GraphConv(norm="right")`` with self-loops added,
    the standard formulation for mini-batch (block-wise) GCN.
    """

    def __init__(self, in_dim: int, out_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.linear = Linear(in_dim, out_dim, rng=rng)

    def forward(self, block: Block, h_src: Tensor) -> Tensor:
        """One message-passing step over ``block``."""
        agg = aggregate(block, h_src)
        h_self = _slice_rows(h_src, block.num_dst)
        total_weight = np.ones(block.num_dst)
        np.add.at(total_weight, block.edge_dst, block.edge_weight)
        normalized = (agg + h_self) * Tensor(1.0 / total_weight[:, None])
        return self.linear(normalized)


class SAGEConv(Module):
    """GraphSAGE with (weighted) mean aggregation.

        h_v = W_self h_v + W_neigh mean_u(w_uv h_u)
    """

    def __init__(self, in_dim: int, out_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.fc_self = Linear(in_dim, out_dim, rng=rng)
        self.fc_neigh = Linear(in_dim, out_dim, bias=False, rng=rng)

    def forward(self, block: Block, h_src: Tensor) -> Tensor:
        """One message-passing step over ``block``."""
        summed = aggregate(block, h_src)
        denom = np.zeros(block.num_dst)
        np.add.at(denom, block.edge_dst, block.edge_weight)
        denom = np.maximum(denom, 1e-12)
        h_neigh = summed * Tensor(1.0 / denom[:, None])
        h_self = _slice_rows(h_src, block.num_dst)
        return self.fc_self(h_self) + self.fc_neigh(h_neigh)


class GATConv(Module):
    """Graph attention (Velickovic et al.), multi-head with concat.

    Edge weights from sparsification are incorporated as additive
    log-weight priors on the attention logits, so a down-weighted edge
    contributes proportionally less attention mass.
    """

    def __init__(self, in_dim: int, out_dim: int, num_heads: int = 1,
                 negative_slope: float = 0.2,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if out_dim % num_heads:
            raise ValueError("out_dim must be divisible by num_heads")
        rng = ensure_rng(rng)
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.negative_slope = negative_slope
        self.fc = [Linear(in_dim, self.head_dim, bias=False, rng=rng)
                   for _ in range(num_heads)]
        self.attn_l = [Parameter(xavier_uniform((self.head_dim, 1), rng))
                       for _ in range(num_heads)]
        self.attn_r = [Parameter(xavier_uniform((self.head_dim, 1), rng))
                       for _ in range(num_heads)]

    def _head(self, i: int, block: Block, h_src: Tensor) -> Tensor:
        z = self.fc[i](h_src)                      # (num_src, head_dim)
        score_src = z @ self.attn_l[i]             # (num_src, 1)
        score_dst = z @ self.attn_r[i]
        e = (gather(score_src, block.edge_src)
             + gather(score_dst, block.edge_dst))
        e = leaky_relu(e, self.negative_slope)
        e = e + Tensor(np.log(np.maximum(block.edge_weight, 1e-12))[:, None])
        alpha = segment_softmax(e, block.edge_dst, block.num_dst)
        messages = gather(z, block.edge_src) * alpha
        return segment_sum(messages, block.edge_dst, block.num_dst)

    def forward(self, block: Block, h_src: Tensor) -> Tensor:
        """One message-passing step over ``block``."""
        heads = [self._head(i, block, h_src) for i in range(self.num_heads)]
        return heads[0] if len(heads) == 1 else concat(heads, axis=1)


class GATv2Conv(Module):
    """GATv2 (Brody et al.): attention applied after the nonlinearity,

        e_uv = a^T LeakyReLU(W_l h_u + W_r h_v),

    fixing GAT's static-attention limitation.
    """

    def __init__(self, in_dim: int, out_dim: int, num_heads: int = 1,
                 negative_slope: float = 0.2,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if out_dim % num_heads:
            raise ValueError("out_dim must be divisible by num_heads")
        rng = ensure_rng(rng)
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.negative_slope = negative_slope
        self.fc_l = [Linear(in_dim, self.head_dim, bias=False, rng=rng)
                     for _ in range(num_heads)]
        self.fc_r = [Linear(in_dim, self.head_dim, bias=False, rng=rng)
                     for _ in range(num_heads)]
        self.attn = [Parameter(xavier_uniform((self.head_dim, 1), rng))
                     for _ in range(num_heads)]

    def _head(self, i: int, block: Block, h_src: Tensor) -> Tensor:
        z_l = self.fc_l[i](h_src)
        z_r = self.fc_r[i](h_src)
        combined = (gather(z_l, block.edge_src)
                    + gather(z_r, block.edge_dst))
        e = leaky_relu(combined, self.negative_slope) @ self.attn[i]
        e = e + Tensor(np.log(np.maximum(block.edge_weight, 1e-12))[:, None])
        alpha = segment_softmax(e, block.edge_dst, block.num_dst)
        messages = gather(z_l, block.edge_src) * alpha
        return segment_sum(messages, block.edge_dst, block.num_dst)

    def forward(self, block: Block, h_src: Tensor) -> Tensor:
        """One message-passing step over ``block``."""
        heads = [self._head(i, block, h_src) for i in range(self.num_heads)]
        return heads[0] if len(heads) == 1 else concat(heads, axis=1)


class GINConv(Module):
    """Graph Isomorphism Network layer (Xu et al., cited as [16]).

        h_v = MLP((1 + eps) h_v + sum_u w_uv h_u)

    ``eps`` is learned.  Included as an extension beyond the paper's
    four evaluated models; it slots into every framework unchanged.
    """

    def __init__(self, in_dim: int, out_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        self.eps = Parameter(np.zeros(1))
        self.fc1 = Linear(in_dim, out_dim, rng=rng)
        self.fc2 = Linear(out_dim, out_dim, rng=rng)

    def forward(self, block: Block, h_src: Tensor) -> Tensor:
        """One message-passing step over ``block``."""
        from .tensor import relu as _relu
        agg = aggregate(block, h_src)
        h_self = _slice_rows(h_src, block.num_dst)
        combined = h_self * (self.eps + 1.0) + agg
        return self.fc2(_relu(self.fc1(combined)))


def _slice_rows(x: Tensor, count: int) -> Tensor:
    """Differentiable ``x[:count]``."""
    data = x.data[:count]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        full = np.zeros_like(x.data)
        full[:count] = grad
        x._accumulate(full)

    return Tensor._result(data, (x,), backward)
