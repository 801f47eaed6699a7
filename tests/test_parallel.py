import pytest

from nhssh.parallel import thread_map


@pytest.mark.parametrize("threads", [1, 2])
def test_thread_map_runs_blas_on_one_thread_and_restores_the_count(threads, blas_threads):
    get, _ = blas_threads
    assert thread_map(lambda _: get(), range(4), threads) == [1] * 4
    assert get() == 2

    def failing(item):
        assert get() == 1
        raise KeyError(item)

    with pytest.raises(KeyError):
        thread_map(failing, range(4), threads)
    assert get() == 2
