import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves more threads running than it found."""
    threads = threading.active_count()
    yield
    assert threading.active_count() <= threads, "the test left a thread running"
