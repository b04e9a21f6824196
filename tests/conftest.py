import concurrent.futures
import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves more threads running than it found."""
    threads = threading.active_count()
    yield
    assert threading.active_count() <= threads, "the test left a thread running"


@pytest.fixture
def held_back_helper(monkeypatch):
    """An event that each task of a thread pool waits for (10 s at most)
    before it starts, as a helper thread whose CPU is busy starts late."""
    release = threading.Event()

    class HeldBackPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args):
            def held_back(*args):
                release.wait(timeout=10)
                return fn(*args)
            return super().submit(held_back, *args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", HeldBackPool)
    return release
