import numpy as np

from diagsemi.kernels import Backend

from .oracles import is_closed

KERNELS = Backend()


def test_closure_basics():
    table = np.array([[0, 1, 2], [1, 0, 2], [2, 2, 2]], dtype=np.int32)
    # closing {1} pulls in 1*1=0
    assert dict(KERNELS.extend_window(table, 0, 0, 3)) == {0: 0b001, 1: 0b011, 2: 0b100}
    exts = dict(KERNELS.extend_window(table, 0b100, 0, 3))
    assert exts == {0: 0b101, 1: 0b111}
    assert all(is_closed(table, m) for m in exts.values())


def test_extend_window_wider_than_64():
    # x*y = min(x + y, n - 1): the closure of {e} is {e, 2e, 3e, ...} capped
    n = 70
    idx = np.arange(n)
    table = np.minimum(idx[:, None] + idx[None, :], n - 1).astype(np.int32)
    assert KERNELS.extend_window(table, 0, 1, 2) == [(1, (1 << n) - 2)]
    top = 1 << (n - 1)
    assert dict(KERNELS.extend_window(table, 0, 40, n)) == {
        e: 1 << e | top for e in range(40, n)}
    mask = 1 << 35 | top
    exts = dict(KERNELS.extend_window(table, mask, 60, n))
    assert exts == {e: mask | 1 << e for e in range(60, n - 1)}
    assert all(is_closed(table, m) for m in exts.values())
