"""Regenerate the stored mem-default reference records.

Runs the mem-default grid at every campaign seed the benchmark maps
workload seeds onto, serially and uncached, and writes each point's
evaluator result keyed by job key::

    python3 perfbench/make_reference.py

Regenerate only when the evaluator's intended output changes; a faster
solver must instead agree with the stored records within the
benchmark's tolerances.
"""

import json

import workloads


def main() -> None:
    workloads.use_checkout()
    from repro.dse.campaign import explore_memory
    from repro.dse.runner import CampaignRunner

    reference = {}
    for offset in range(workloads.CAMPAIGN_SEED_COUNT):
        space, settings = workloads.grid("mem-default", offset)
        result = explore_memory(
            space, runner=CampaignRunner(workers=1), **settings
        )
        reference[str(settings["seed"])] = {
            job.key: outcome.result
            for job, outcome in zip(result.jobs, result.outcomes)
        }
    with open(workloads.REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
