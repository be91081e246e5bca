"""Extension bench: shared checker pools (figure 12's closing claim).

"[Checker area] could be reduced by half through sharing checker cores
between multiple main cores, without affecting performance" — checked
by co-simulating two main cores of a demanding pairing on one shared
pool of decreasing size, against each core's private-pool run.
"""

import pytest

from repro.experiments import ext_sharing


@pytest.fixture(scope="module")
def sharing(figure_scale):
    return ext_sharing.run(iterations=int(12 * figure_scale))


def test_ext_sharing_study(once, figure_scale):
    result = once(lambda: ext_sharing.run(iterations=int(8 * figure_scale)))
    assert result.rows


def test_ext_sharing_sixteen_shared_suffice(once, sharing):
    """Two main cores on one 16-checker pool: no core more than 1% slower."""
    assert once(lambda: sharing.max_slowdown(16)) <= ext_sharing.SLOWDOWN_BOUND


def test_ext_sharing_wait_shrinks_as_pool_grows(once, sharing):
    waits = once(
        lambda: [sharing.total_wait_ns(size) for size in sharing.pool_sizes]
    )
    assert waits == sorted(waits, reverse=True)


def test_ext_sharing_minimum_pool_small(once, sharing):
    minimum = once(lambda: sharing.minimum_pool)
    assert minimum is not None and minimum <= 16


def test_ext_sharing_print_table(once, sharing):
    print()
    print(once(sharing.table))
