"""The group clock's rate against real time, pinned as it is.

ROADMAP item 7(c), simulator half: the cells that read wrong today are
``xfail(strict=True)`` with their K-number, so the change that fixes one
must flip it.  Measured at seed 0 over one simulated second on
``TimeApp`` (``support.group_clock_rate``):

====================  ==============  ===================
fast path, guard      1 hot client    4 clients, 5 ms think
====================  ==============  ===================
off, crash-only       0.99996         1.000011
off, ``byzantine``    0.99996         1.000011
on, crash-only        1.000005        **1.002651**
on, ``byzantine``     1.000005        **1.002651**
====================  ==============  ===================

One hot client in primary mode (only the primary proposes):

====================  ==============  ===================
fast path             ``passive``     ``semi-active``
====================  ==============  ===================
off                   0.999968        0.999938
on                    0.999958        0.999972
====================  ==============  ===================

Sixteen hot clients, crash-only, over 0.3 simulated seconds (≈ 6 s of
wall clock each):

====================  ==============
fast path             16 hot clients
====================  ==============
off                   **1.037614**
on                    1.000477
====================  ==============

The crash-only column reads what the byzantine one does: a round this
replica neither proposed for nor serves an operation from keeps the
prior offset in both modes (``_consume_round``).  Crash-only 1-hot read
0.503215 before that rule, and 16 hot clients on the fast path over one
second 0.984474 (0.997206 after it).
"""

import pytest

from support import group_clock_rate  # noqa: E402 (tests/ on sys.path via conftest)

HOT, PACED = dict(workers=1), dict(workers=4, think_s=0.005)
SIXTEEN_HOT = dict(workers=16, duration_s=0.3)
K9 = "K9: paced clients on the fast path read +0.27 % in either mode"
K9_SIXTEEN = "K9: sixteen hot clients without the fast path read +3.8 %"


def known_red(reason):
    return pytest.mark.xfail(strict=True, reason=reason)


@pytest.mark.parametrize("load", [HOT, PACED], ids=["1-hot", "4-paced"])
@pytest.mark.parametrize("byzantine", [False, True],
                         ids=["crash-only", "byzantine"])
def test_rounds_only_rate_is_within_the_drift_bound(byzantine, load):
    rate, allowance = group_clock_rate(
        fast_path=False, byzantine=byzantine, **load)
    assert abs(rate - 1) <= allowance


@pytest.mark.parametrize("byzantine, load", [
    pytest.param(False, HOT, id="crash-only-1-hot"),
    pytest.param(False, PACED, id="crash-only-4-paced", marks=known_red(K9)),
    pytest.param(True, HOT, id="byzantine-1-hot"),
    pytest.param(True, PACED, id="byzantine-4-paced", marks=known_red(K9)),
])
def test_fast_path_rate_is_within_the_drift_bound(byzantine, load):
    rate, allowance = group_clock_rate(
        fast_path=True, byzantine=byzantine, **load)
    assert abs(rate - 1) <= allowance


@pytest.mark.parametrize("fast_path", [False, True],
                         ids=["rounds-only", "fast-path"])
@pytest.mark.parametrize("style", ["passive", "semi-active"])
def test_primary_mode_rate_is_within_the_drift_bound(style, fast_path):
    rate, allowance = group_clock_rate(
        style=style, fast_path=fast_path, **HOT)
    assert abs(rate - 1) <= allowance


@pytest.mark.parametrize("fast_path", [
    pytest.param(False, id="rounds-only", marks=known_red(K9_SIXTEEN)),
    pytest.param(True, id="fast-path"),
])
def test_sixteen_hot_clients_rate_is_within_the_drift_bound(fast_path):
    rate, allowance = group_clock_rate(fast_path=fast_path, **SIXTEEN_HOT)
    assert abs(rate - 1) <= allowance
