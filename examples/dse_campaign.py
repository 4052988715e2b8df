"""A 200+-point cross-layer DSE campaign through repro.dse.

Demonstrates the engine the paper's pre-fabrication exploration claim
rides on:

1. a declarative :class:`ParameterSpace` over memory organisation,
   reliability and PDK-node axes (216-point grid);
2. a cold campaign through the multiprocessing runner with the on-disk
   result cache filling up;
3. a warm re-run of the identical campaign — pure cache lookups,
   verified bit-identical and >= 5x faster;
4. the latency/energy/area Pareto frontier of the feasible set;
5. a system-level (MAGPIE) mini-campaign over kernels x scenarios.

A JSON summary (wall-clocks, cache hit rates, speedup, frontier) is
written next to this script as ``dse_campaign_summary.json``.

Run:  python examples/dse_campaign.py         (a few minutes cold,
                                               seconds warm)
"""

import json
import os
import shutil
import tempfile
import time

from repro.dse import (
    CampaignRunner,
    MemoryCampaign,
    ParameterSpace,
    ResultCache,
    SystemCampaign,
    run,
)
from repro.utils.table import Table


def build_space() -> ParameterSpace:
    """216 memory-level points: shape x word x reliability x ECC x node."""
    space = ParameterSpace()
    space.add("subarray_rows", [128, 256, 512])
    space.add("subarray_cols", [128, 256, 512])
    space.add("word_bits", [128, 256])
    space.add("wer_target", [1e-9, 1e-12, 1e-15])
    space.add("max_ecc_bits", [2, 3])
    space.add("node_nm", [45, 65])
    return space


def frontier_table(front) -> str:
    table = Table(
        ["subarray", "word", "node", "wer", "ecc_t",
         "write_lat (ns)", "write_E (pJ)", "area (mm^2)"],
        title="Pareto frontier (minimise write latency, write energy, area)",
    )
    for row in front:
        table.add_row(
            [
                "%dx%d" % (row["subarray_rows"], row["subarray_cols"]),
                row["word_bits"],
                row["node_nm"],
                "%.0e" % row["wer_target"],
                row["ecc_bits"],
                row["write_latency"] * 1e9,
                row["write_energy"] * 1e12,
                row["area"] * 1e6,
            ]
        )
    return table.render()


def main():
    space = build_space()
    cache_dir = tempfile.mkdtemp(prefix="repro-dse-")
    # Lighter Monte Carlo settings than the paper tables: a campaign
    # triages 216 points; the frontier survivors get the full 200k-cell
    # treatment afterwards.
    campaign = MemoryCampaign(space, num_words=400, error_population=30_000)
    print("campaign: %d points, cache at %s" % (space.size, cache_dir))

    def cached():
        return CampaignRunner(cache=ResultCache(cache_dir))

    start = time.perf_counter()
    cold = run(campaign, runner=cached())
    cold_wall = time.perf_counter() - start
    print(
        "cold run:  %.1f s  (%d feasible, %d infeasible, %d errors, "
        "%d cache hits)"
        % (
            cold_wall,
            len(cold.records()),
            cold.infeasible(),
            len(cold.errors()),
            cold.cache_hits,
        )
    )

    start = time.perf_counter()
    warm = run(campaign, runner=cached())
    warm_wall = time.perf_counter() - start
    speedup = cold_wall / warm_wall
    identical = cold.records() == warm.records()
    print(
        "warm run:  %.2f s  (%d/%d cache hits)  speedup %.0fx  identical=%s"
        % (warm_wall, warm.cache_hits, len(warm.outcomes), speedup, identical)
    )
    if not identical:
        raise SystemExit("warm-cache records diverged from the cold run")

    front = cold.pareto()
    print()
    print(frontier_table(front))

    # System level: kernels x scenarios through the same engine.
    print()
    system = run(
        SystemCampaign(workloads=["bodytrack", "canneal", "streamcluster"]),
        runner=cached(),
    )
    best = system.pareto()
    print(
        "system campaign: %d cells in %.1f s; %d on the time/energy frontier"
        % (len(system.results), system.elapsed, len(best))
    )

    summary = {
        "points": space.size,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_speedup": speedup,
        "warm_identical": identical,
        "warm_cache_hit_rate": warm.cache_stats["hit_rate"],
        "feasible": len(cold.records()),
        "infeasible": cold.infeasible(),
        "errors": len(cold.errors()),
        "pareto_size": len(front),
        "system_cells": len(system.results),
    }
    out = os.path.join(os.path.dirname(__file__), "dse_campaign_summary.json")
    with open(out, "w") as handle:
        json.dump(summary, handle, indent=2)
    print("\nsummary written to %s" % out)
    shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
