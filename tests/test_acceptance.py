"""Top-level acceptance suite: every suite of `nilmap.suites` at the default
seed, so these are the instances that a plain `nilmap verify` checks.

The suites check the proved guarantees themselves.  This file adds what
describes the test run: wall-time bounds, and a least count of each verdict
so that a seed whose draws miss one side of an equivalence fails here.
Test i runs suite i as `test_<i+1>_<name>`, so `pytest -v` names each suite.
"""

import time

from nilmap import suites
from nilmap.cli import DEFAULT_SEED

TIME_BOUNDS_S = {"nilpotency oracle agreement": 60, "tame and inverse": 120}
LEAST_COUNTS = {
    "generalized equivalence": {"nilpotent": 40, "not nilpotent": 40},
    "Keller equivalence": {"nilpotent": 40, "not nilpotent": 40},
    "split dependent core": {"nilpotent": 20},
}


def _acceptance_test(index, name):
    def test():
        start = time.monotonic()
        counts = suites.run(index, DEFAULT_SEED)
        assert time.monotonic() - start < TIME_BOUNDS_S.get(name, float("inf"))
        for verdict, least in LEAST_COUNTS.get(name, {}).items():
            assert counts[verdict] >= least, counts

    test.__name__ = f"test_{index + 1:02d}_{name.lower().replace(' ', '_')}"
    return test


for _index, (_name, _) in enumerate(suites.SUITES):
    _test = _acceptance_test(_index, _name)
    globals()[_test.__name__] = _test
