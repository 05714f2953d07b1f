import resource

import pytest
from hypothesis import settings

# every property test runs without a deadline (the oracles are slow on some
# draws) and without an example database; each sets its own max_examples
settings.register_profile("atomon", deadline=None, database=None)
settings.load_profile("atomon")


@pytest.fixture
def memory_cap():
    """Caps the test process at 4 GiB of address space for one test, so that
    a regression that builds a window of 10**11 bits (12.5 GB) or keeps a
    set of 10**9 lengths fails with MemoryError rather than taking the
    host's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
