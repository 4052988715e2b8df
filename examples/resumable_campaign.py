"""Resumable + surrogate campaigns: kill one mid-run, pick it back up.

Demonstrates the checkpointing and model-driven sampling layers on top
of the ``repro.dse`` engine:

1. start a 24-point memory campaign pinned to a campaign directory
   (cache + journal), and "kill" it after 8 points by raising from the
   progress callback — exactly what SIGKILL at a worse moment leaves
   behind on disk;
2. ``resume=True`` the same campaign: the finished points replay from
   the cache/journal (zero re-evaluation) and the campaign completes,
   with records identical to an uninterrupted run;
3. run a *surrogate* campaign over a larger space: a TPE-style density
   model that spends its budget around the EDP-best region instead of
   covering the whole grid.

The same flow is available from the command line::

    python -m repro.dse run spec.json --dir campaign/
    python -m repro.dse status --dir campaign/
    python -m repro.dse resume spec.json --dir campaign/

Run:  PYTHONPATH=src python examples/resumable_campaign.py     (a few seconds)
"""

import shutil
import tempfile

from repro.dse import (
    CampaignRunner,
    CampaignState,
    MemoryCampaign,
    ParameterSpace,
    ResultCache,
    run,
)
from repro.dse.checkpoint import JOURNAL_NAME

SETTINGS = dict(num_words=200, error_population=10_000)


class Killed(Exception):
    """Stands in for SIGKILL / OOM / a pre-empted spot instance."""


def main():
    space = ParameterSpace()
    space.add("subarray_rows", [128, 256, 512])
    space.add("word_bits", [128, 256])
    space.add("wer_target", [1e-9, 1e-12])
    space.add("node_nm", [45, 65])

    campaign = MemoryCampaign(space, **SETTINGS)
    campaign_dir = tempfile.mkdtemp(prefix="repro-resume-")
    print("campaign: %d points, directory %s" % (space.size, campaign_dir))

    # -- 1. start, then die after 8 points ------------------------------
    def die_at_8(event):
        if event.done == 8:
            raise Killed()

    try:
        run(campaign, campaign_dir, progress=die_at_8)
    except Killed:
        pass
    journal = CampaignState.load("%s/%s" % (campaign_dir, JOURNAL_NAME))
    print(
        "killed:    %d/%d points journaled (%d failed)"
        % (journal.done, journal.total, journal.failed)
    )

    # -- 2. resume exactly where it stopped ------------------------------
    resumed = run(campaign, campaign_dir, resume=True)
    print(
        "resumed:   %d points in %.1f s — %d served from cache, "
        "%d evaluated fresh"
        % (
            len(resumed.outcomes),
            resumed.elapsed,
            sum(1 for o in resumed.outcomes if o.from_cache),
            sum(1 for o in resumed.outcomes if not o.from_cache),
        )
    )

    # Prove it: an uninterrupted run in a fresh directory is identical.
    reference_dir = tempfile.mkdtemp(prefix="repro-ref-")
    reference = run(campaign, reference_dir)
    identical = resumed.records() == reference.records()
    print("identical to uninterrupted run: %s" % identical)
    if not identical:
        raise SystemExit("resumed records diverged from the reference run")

    # -- 3. surrogate: model instead of sweeping ------------------------
    big = ParameterSpace()
    big.add("subarray_rows", [128, 256, 512])
    big.add("subarray_cols", [128, 256, 512])
    big.add("word_bits", [128, 256])
    big.add("wer_target", [1e-9, 1e-12, 1e-15])
    surrogate = run(
        MemoryCampaign(
            big,
            sampler="surrogate",
            sampler_options=dict(batch=8, rounds=3, seed=0),
            objectives=("edp_proxy",),
            **SETTINGS,
        ),
        runner=CampaignRunner(cache=ResultCache(campaign_dir + "/cache")),
    )
    trace = surrogate.adaptive
    print(
        "surrogate: %d of %d grid points evaluated over %d rounds; "
        "best EDP %.3e"
        % (trace.evaluations, big.size, len(trace.rounds), trace.best_score)
    )
    for entry in trace.rounds:
        print(
            "           round %d: batch %d, best %.3e"
            % (entry.index, len(entry.points), entry.best_score)
        )

    shutil.rmtree(campaign_dir, ignore_errors=True)
    shutil.rmtree(reference_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
