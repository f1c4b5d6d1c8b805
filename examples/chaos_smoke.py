"""CI chaos drill: crashes and corruption must never change results.

Runs a small fault campaign twice — once clean, once with deterministic
chaos injected (a worker killed mid-campaign, a trial failing once) and
a checkpoint journal underneath — and demands the chaotic run produce
byte-identical JSON while recording every recovery it performed.  Then
tears an on-disk synthesis-cache entry and demands the cache quarantine
it and the pipeline recompute the same design instead of raising.

Exit code 0 means the resilience layer held; any divergence, silent
recovery, or exception fails the drill.

Run with:  PYTHONPATH=src python examples/chaos_smoke.py
"""

from __future__ import annotations

import glob
import os
import sys
import tempfile

from repro.api import synthesize
from repro.benchmarks.registry import benchmark
from repro.faults.campaign import run_campaign
from repro.perf.cache import SynthesisCache
from repro.runtime import (
    ChaosConfig,
    RunPolicy,
    RunReport,
    active_report,
)
from repro.serialize import design_to_dict


def main() -> int:
    entry = benchmark("fig2")
    result = synthesize(entry.dfg(), entry.allocation())

    clean = run_campaign(result, trials=6, benchmark=entry.name).to_json()

    report = RunReport()
    with tempfile.TemporaryDirectory() as scratch:
        sentinels = os.path.join(scratch, "sentinels")
        os.makedirs(sentinels)
        policy = RunPolicy(
            backoff_s=0.0,
            chaos=ChaosConfig(
                crash_items=(2,),
                fail_items=(7,),
                sentinel_dir=sentinels,
            ),
        )
        with active_report(report):
            chaotic = run_campaign(
                result,
                trials=6,
                benchmark=entry.name,
                workers=2,
                policy=policy,
                checkpoint=os.path.join(scratch, "ck"),
            ).to_json()
        assert chaotic == clean, "chaotic campaign diverged from clean run"
        assert report.recoveries > 0, "chaos injected but nothing recovered"
        assert report.count("worker-crash") > 0, "worker kill went unseen"

        cache_dir = os.path.join(scratch, "synth")
        first = synthesize(
            entry.dfg(), entry.allocation(), cache=SynthesisCache(cache_dir)
        )
        entries = sorted(glob.glob(os.path.join(cache_dir, "*.syn.json")))
        with open(entries[0], "w") as handle:
            handle.write('{"truncated')  # torn mid-write
        healed = SynthesisCache(cache_dir)
        with active_report(report):
            again = synthesize(entry.dfg(), entry.allocation(), cache=healed)
        assert design_to_dict(again) == design_to_dict(first), (
            "healed cache returned a different design"
        )
        assert healed.quarantined == 1, "corrupt entry was not quarantined"
        assert report.count("cache-quarantine") == 1

    print(report.render())
    print("chaos smoke passed: results byte-identical under "
          f"{report.recoveries} recovery event(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
