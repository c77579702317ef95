"""Memory budget of the world build, in bytes per registration.

The world is the bulk of a run's memory, and paper scale multiplies
every byte a registration keeps by ~17 M.  The budget is checked in a
fresh interpreter: names interned by earlier tests would otherwise be
counted to them and hide what this build allocates.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: tracemalloc bytes live after ``build_world`` per registration (seed
#: 7, 1/2000, no ccTLD; imports excluded).  Python 3.11 reads 1,776.
#: With label tuples on every name, a ``stable_hash01`` memo and
#: list-backed single-change timelines it read 2,742, which this budget
#: rejects; the headroom above 1,776 absorbs the object-size
#: differences between interpreter versions.
BUDGET_BYTES_PER_REGISTRATION = 2_100

_PROBE = """
import gc, json, tracemalloc
from repro.workload.scenario import ScenarioConfig, build_world
config = ScenarioConfig(seed=7, scale=1 / 2000, include_cctld=False)
gc.collect()
tracemalloc.start()
world = build_world(config)
gc.collect()
print(json.dumps({"bytes": tracemalloc.get_traced_memory()[0],
                  "registrations": world.registries.total_registrations()}))
"""


def test_world_bytes_per_registration_within_budget():
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    measured = json.loads(proc.stdout.strip().splitlines()[-1])
    assert measured["registrations"] > 5_000
    per_registration = measured["bytes"] / measured["registrations"]
    assert per_registration <= BUDGET_BYTES_PER_REGISTRATION, \
        f"{per_registration:.0f} B per registration"
