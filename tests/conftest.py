import os,sys; sys.path.insert(0, os.path.dirname(__file__))
import random

import pytest

from jsrcert.campaign import run_campaign
from jsrcert.reduce import canonical_key, decode, enumerate_campaign


@pytest.fixture(scope="session")
def f3_search_store(tmp_path_factory):
    """(store path, summary) of the f3-search sample: half of the F3 A1=3
    slice, drawn once with seed 0, run once per session.  Tests read the
    store and never write it."""
    a2s = sorted(random.Random(0).sample(range(512), 256))
    path = tmp_path_factory.mktemp("f3s") / "f3s.jsonl"
    summary = run_campaign("binary", 3, path, codes=[f"3/{a2}" for a2 in a2s])
    return path, summary


@pytest.fixture(scope="session")
def f2s_hulls_store(tmp_path_factory):
    """The store of the F2s orbit representatives with first code 1, 4 or
    5, every kind-R and kind-C hull among them, run once per session.
    Tests read the store and never write it."""
    reps = [str(c) for c in enumerate_campaign("sign", 2)
            if c.a1 in (1, 4, 5)
            and str(canonical_key(decode(c), "sign")) == str(c)]
    assert len(reps) == 95
    path = tmp_path_factory.mktemp("f2s") / "f2s.jsonl"
    run_campaign("sign", 2, path, codes=reps)
    return path
