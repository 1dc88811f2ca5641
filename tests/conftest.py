"""Shared fixtures: targets are built once per session (suite generation
for MiniDB creates 1,147 closures; no need to repeat it per test)."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.sim.targets.coreutils import CoreutilsTarget

# Property-based tests run under a fixed deterministic profile: no
# random example selection run to run (derandomize), no per-example
# deadline (simulator executions vary with machine load), bounded
# example counts so CI time stays predictable.
settings.register_profile("ci", derandomize=True, deadline=None)
# ``pytest --hypothesis-profile deep``: fresh random examples each run,
# 1 000 of them per property, for the suites CI searches harder.
settings.register_profile("deep", max_examples=1000, deadline=None)
settings.load_profile("ci")
from repro.sim.targets.docstore import DocStoreTarget
from repro.sim.targets.httpd import HttpdTarget
from repro.sim.targets.minidb import MiniDbTarget


@pytest.fixture(scope="session")
def coreutils() -> CoreutilsTarget:
    return CoreutilsTarget()


@pytest.fixture(scope="session")
def httpd() -> HttpdTarget:
    return HttpdTarget()


@pytest.fixture(scope="session")
def minidb() -> MiniDbTarget:
    return MiniDbTarget()


@pytest.fixture(scope="session")
def replkv():
    from repro.sim.targets.replkv import ReplKvTarget

    return ReplKvTarget()


@pytest.fixture(scope="session")
def docstore_old() -> DocStoreTarget:
    return DocStoreTarget(version="0.8")


@pytest.fixture(scope="session")
def docstore_new() -> DocStoreTarget:
    return DocStoreTarget(version="2.0")
