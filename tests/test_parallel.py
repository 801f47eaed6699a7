import pytest

from nhssh import parallel
from nhssh.parallel import thread_map


def blas_threads():
    api = parallel._blas_threads()
    if api is None:
        pytest.skip("numpy's BLAS exports no known OpenBLAS thread-count setter")
    return api


@pytest.mark.parametrize("threads", [1, 2])
def test_thread_map_runs_blas_on_one_thread_and_restores_the_count(threads):
    get, set_ = blas_threads()
    outside = get()
    try:
        set_(2)
        before = get()
        assert thread_map(lambda _: get(), range(4), threads) == [1] * 4
        assert get() == before

        def failing(item):
            assert get() == 1
            raise KeyError(item)

        with pytest.raises(KeyError):
            thread_map(failing, range(4), threads)
        assert get() == before
    finally:
        set_(outside)
