"""DarkDNS — a full reproduction of *Revisiting the Value of Rapid Zone
Update* (Sommese et al., IMC 2024) over a simulated DNS ecosystem.

The package builds, from scratch, every substrate the paper's
measurement pipeline touched — TLD registries with live zone
provisioning, certificate authorities logging to append-only CT logs,
a CZDS-style snapshot archive, RDAP services, blocklists and a
passive-DNS NOD feed — then runs the paper's five-step DarkDNS pipeline
against that world and regenerates every table and figure.

Quickstart::

    from repro import ScenarioConfig, build_world, run_pipeline
    from repro.analysis import full_report, render_reports

    world = build_world(ScenarioConfig(seed=7, scale=1/1000))
    result = run_pipeline(world)
    print(render_reports(full_report(world, result)))
"""

from repro._version import __version__
from repro.core import (
    DarkDNSPipeline,
    PipelineConfig,
    PipelineResult,
    PublicFeed,
    run_pipeline,
)
from repro.scan import ScanConfig, ScanEngine
from repro.serve import FeedServer, FeedServerConfig, FilterSpec
from repro.workload import ScenarioConfig, World, build_world, small_world

__all__ = [
    "__version__",
    "DarkDNSPipeline", "PipelineConfig", "PipelineResult", "PublicFeed",
    "run_pipeline",
    "ScanConfig", "ScanEngine",
    "FeedServer", "FeedServerConfig", "FilterSpec",
    "ScenarioConfig", "World", "build_world", "small_world",
]
