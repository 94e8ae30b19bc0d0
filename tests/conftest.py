import os

import pytest

from pairbox import cli


@pytest.fixture(params=[False, True], ids=["unsplit", "split"], scope="class")
def forced_split(request):
    """Each test once as the inputs size it, and once with the forked
    commands split: three CPUs, and a range minimum of one byte of detection
    lines, one labelled anchor or one curve point, so that every input of
    more than one frame splits and ``evaluate`` writes its CSV in a child
    whenever it also renders an SVG."""
    if not request.param:
        yield False
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        mp.setattr(cli, "MIN_RANGE_BYTES", 1)
        mp.setattr(cli, "MIN_RANGE_LABELS", 1)
        mp.setattr(cli, "MIN_RANGE_POINTS", 1)
        yield True
