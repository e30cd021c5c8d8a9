"""The vectorized hot path adds in exactly the order the old kernels did.

``segment_sum``, ``gather``'s backward and ``aggregate`` run as CSR
products; each must be bitwise equal to an ``np.add.at`` reference
(edge order within each row, duplicate ``(dst, src)`` pairs kept
apart).  The end-to-end test trains with the old ``np.add.at`` kernels
patched back in and compares digests.
"""

import numpy as np
import pytest

import repro
from repro.nn import gnn as gnn_module
from repro.nn import models as models_module
from repro.nn import tensor as tensor_module
from repro.nn.tensor import Tensor, aggregate, gather, segment_sum
from repro.sampling.blocks import Block


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


# -- the old kernels, verbatim -------------------------------------------


def old_gather(x, index):
    index = np.asarray(index, dtype=np.int64)
    data = x.data[index]

    def backward(grad):
        if not x.requires_grad:
            return
        full = np.zeros_like(x.data)
        np.add.at(full, index, grad)
        x._accumulate(full)

    return Tensor._result(data, (x,), backward)


def old_segment_sum(x, segment_ids, num_segments):
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out = np.zeros((num_segments,) + x.data.shape[1:], dtype=np.float64)
    np.add.at(out, segment_ids, x.data)

    def backward(grad):
        x._accumulate(grad[segment_ids])

    return Tensor._result(out, (x,), backward)


def old_aggregate(block, x):
    """GCN/SAGE/GIN's former ``gather -> x weight -> segment_sum``."""
    weight = block.edge_weight.reshape((-1,) + (1,) * (x.data.ndim - 1))
    messages = old_gather(x, block.edge_src) * Tensor(weight)
    return old_segment_sum(messages, block.edge_dst, block.num_dst)


# -- inputs ----------------------------------------------------------------


def _block(rng, num_src, num_dst, num_edges, *, sort_dst=False,
           duplicates=False):
    edge_src = rng.integers(0, num_src, num_edges)
    edge_dst = rng.integers(0, num_dst, num_edges)
    if duplicates and num_edges >= 4:
        # Repeat whole (dst, src) pairs, with different weights.
        edge_src[num_edges // 2:] = edge_src[:num_edges - num_edges // 2]
        edge_dst[num_edges // 2:] = edge_dst[:num_edges - num_edges // 2]
    if sort_dst:
        order = np.argsort(edge_dst, kind="stable")
        edge_src, edge_dst = edge_src[order], edge_dst[order]
    return Block(src_nodes=np.arange(num_src), num_dst=num_dst,
                 edge_src=edge_src, edge_dst=edge_dst,
                 edge_weight=rng.random(num_edges) * 3.0 + 1e-3)


SHAPES = [(), (5,), (3, 4)]   # trailing dims: 1-D, 2-D and 3-D inputs
CASES = [
    pytest.param(dict(num_edges=0), id="zero-edges"),
    pytest.param(dict(num_edges=60), id="unsorted-dst"),
    pytest.param(dict(num_edges=60, sort_dst=True), id="sorted-dst"),
    pytest.param(dict(num_edges=60, duplicates=True), id="duplicates"),
]


@pytest.mark.parametrize("trailing", SHAPES, ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("case", CASES)
class TestKernelsMatchAddAt:
    def _inputs(self, case, trailing, seed=0):
        rng = np.random.default_rng(seed)
        block = _block(rng, num_src=17, num_dst=9, **case)
        # Wide dynamic range so any change of summation order shows.
        x = rng.standard_normal((17,) + trailing) * \
            10.0 ** rng.integers(-6, 7, (17,) + trailing)
        return rng, block, x

    def test_segment_sum_forward_and_backward(self, case, trailing):
        rng, block, _ = self._inputs(case, trailing)
        values = rng.standard_normal((block.num_edges,) + trailing) * 1e3
        grad = rng.standard_normal((block.num_dst,) + trailing)
        results = []
        for op in (segment_sum, old_segment_sum):
            x = Tensor(values, requires_grad=True)
            out = op(x, block.edge_dst, block.num_dst)
            out.backward(grad)
            results.append((out.data, x.grad))
        assert _bitwise_equal(results[0][0], results[1][0])
        assert _bitwise_equal(results[0][1], results[1][1])

    def test_gather_backward(self, case, trailing):
        rng, block, x_data = self._inputs(case, trailing)
        grad = rng.standard_normal((block.num_edges,) + trailing) * 1e3
        results = []
        for op in (gather, old_gather):
            x = Tensor(x_data, requires_grad=True)
            out = op(x, block.edge_src)
            out.backward(grad)
            results.append((out.data, x.grad))
        assert _bitwise_equal(results[0][0], results[1][0])
        assert _bitwise_equal(results[0][1], results[1][1])

    def test_aggregate_forward_and_backward(self, case, trailing):
        rng, block, x_data = self._inputs(case, trailing)
        grad = rng.standard_normal((block.num_dst,) + trailing) * 1e3
        results = []
        for op in (aggregate, old_aggregate):
            x = Tensor(x_data, requires_grad=True)
            out = op(block, x)
            out.backward(grad)
            results.append((out.data, x.grad))
        assert _bitwise_equal(results[0][0], results[1][0])
        assert _bitwise_equal(results[0][1], results[1][1])


class TestKernelEdgeCases:
    def test_gather_backward_without_grad_is_noop(self):
        x = Tensor(np.ones((3, 2)))
        out = gather(x, np.array([0, 0, 2]))
        assert not out.requires_grad
        assert x.grad is None

    def test_aggregate_empty_rows_are_zero(self):
        block = Block(src_nodes=np.arange(4), num_dst=3,
                      edge_src=np.array([3, 1]), edge_dst=np.array([2, 2]),
                      edge_weight=np.array([0.5, 2.0]))
        out = aggregate(block, Tensor(np.arange(8.0).reshape(4, 2)))
        assert np.array_equal(out.data, [[0, 0], [0, 0], [7, 9.5]])


@pytest.mark.parametrize("gnn_type", ["sage", "gcn", "gin"])
def test_splpg_digest_equals_add_at_kernels(gnn_type, small_split,
                                            monkeypatch):
    def train():
        return repro.run("splpg", split=small_split, workers=2,
                         backend="serial", epochs=2, hidden_dim=8,
                         num_layers=2, fanouts=(4, 3), batch_size=32,
                         gnn_type=gnn_type, seed=5).digest()

    new = train()
    with monkeypatch.context() as patch:
        for module in (tensor_module, gnn_module, models_module):
            patch.setattr(module, "gather", old_gather)
        for module in (tensor_module, gnn_module):
            patch.setattr(module, "segment_sum", old_segment_sum)
        patch.setattr(gnn_module, "aggregate", old_aggregate)
        old = train()
    assert new == old
