import time

import pytest
from conftest import DeadlineExceeded, deadline


def test_deadline_interrupts_a_hang():
    start = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        with deadline(0.05):
            time.sleep(10)
    assert time.monotonic() - start < 5


def test_deadline_is_disarmed_when_the_body_ends_in_time():
    with deadline(0.05):
        pass
    time.sleep(0.2)  # a timer left armed would raise here
