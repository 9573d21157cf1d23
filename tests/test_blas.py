import numpy as np
import pytest

from qazb import blas


def threads():
    controls = blas._controls()
    if controls is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread controls")
    return controls[0]()


def test_small_work_runs_on_one_thread_and_restores_the_count():
    before = threads()
    with blas.for_dim(blas.SERIAL_MAX_DIM):
        assert threads() == 1
    assert threads() == before


def test_large_work_keeps_the_thread_count():
    before = threads()
    with blas.for_dim(blas.SERIAL_MAX_DIM + 1):
        assert threads() == before
    assert threads() == before


def test_thread_count_is_restored_after_an_error():
    before = threads()
    with pytest.raises(RuntimeError):
        with blas.for_dim(16):
            raise RuntimeError
    assert threads() == before


def test_one_thread_gives_the_same_norm():
    a = np.random.default_rng(3).standard_normal((200, 200))
    with blas.for_dim(200):
        serial = np.linalg.norm(a, 2)
    assert serial == pytest.approx(np.linalg.norm(a, 2), rel=1e-13)
