"""Memory budgets of the world build and of the pipeline run.

The world is the bulk of a run's memory, and paper scale multiplies
every byte a registration keeps by ~17 M; the pipeline then keeps its
records for every CT candidate (~6.65 M at paper scale) until the run
ends.  Both budgets are checked in a fresh interpreter: names interned
by earlier tests would otherwise be counted to them and hide what this
build allocates.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: tracemalloc bytes live after ``build_world`` per registration (seed
#: 7, 1/2000, no ccTLD; imports excluded).  Python 3.9 / 3.11 / 3.12
#: read 1,310 / 1,299 / 1,259.  With a per-issuance log in every CA,
#: eight slots per ``Name``, a fresh empty timeline per absent history
#: and dirty zone ticks held as int objects in a set they read 1,529 /
#: 1,521 / 1,481, which this budget rejects; the headroom absorbs the
#: object-size differences between interpreter versions.
BUDGET_BYTES_PER_REGISTRATION = 1_400

#: tracemalloc growth across ``DarkDNSPipeline(world).run()`` per CT
#: candidate on the same world.  Python 3.9 / 3.11 / 3.12 read 1,207 /
#: 1,166 / 1,160; the budget is the highest plus about 5 %.  With
#: ``__dict__``-backed ``RDAPResult`` and ``FeedRecord`` records and a
#: second list of every RDAP result they read 1,383 / 1,247 / 1,226,
#: and with a ``Message`` kept per produced record as well 2,281 /
#: 1,886 / 1,825.
BUDGET_BYTES_PER_CANDIDATE = 1_270

_PROBE = """
import gc, json, tracemalloc
from repro.core.pipeline import DarkDNSPipeline
from repro.workload.scenario import ScenarioConfig, build_world
config = ScenarioConfig(seed=7, scale=1 / 2000, include_cctld=False)
gc.collect()
tracemalloc.start()
world = build_world(config)
gc.collect()
world_bytes = tracemalloc.get_traced_memory()[0]
result = DarkDNSPipeline(world).run()
gc.collect()
print(json.dumps({
    "world_bytes": world_bytes,
    "registrations": world.registries.total_registrations(),
    "pipeline_bytes": tracemalloc.get_traced_memory()[0] - world_bytes,
    "candidates": result.stats["candidates"]}))
"""


@pytest.fixture(scope="module")
def measured():
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_world_bytes_per_registration_within_budget(measured):
    assert measured["registrations"] > 5_000
    per_registration = measured["world_bytes"] / measured["registrations"]
    assert per_registration <= BUDGET_BYTES_PER_REGISTRATION, \
        f"{per_registration:.0f} B per registration"


def test_pipeline_bytes_per_candidate_within_budget(measured):
    assert measured["candidates"] > 1_000
    per_candidate = measured["pipeline_bytes"] / measured["candidates"]
    assert per_candidate <= BUDGET_BYTES_PER_CANDIDATE, \
        f"{per_candidate:.0f} B per candidate"
