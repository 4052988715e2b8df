"""Command-line campaigns: ``python -m repro.dse <subcommand>``.

Subcommands:

* ``describe SPEC``         — summarise a campaign spec without running it;
* ``run SPEC --dir DIR``    — run a resumable campaign with live progress;
* ``resume SPEC --dir DIR`` — shorthand for ``run --resume``;
* ``status --dir DIR``      — report a campaign directory's journal
  (including retry and quarantine counts);
* ``analyze DIR``           — replay the campaign's journals into a
  read-only analytics report: evaluation-latency percentiles, worker
  utilization, cache-hit/retry/timeout rates, and Pareto-front
  evolution (``--json`` for the machine-readable payload);
* ``retry --dir DIR``       — re-release quarantined (flaky) points so
  the next ``resume`` re-runs them with a fresh retry budget;
* ``worker --connect HOST:PORT`` — evaluate points for a *served*
  campaign over TCP (start any number, on any host; retries with
  backoff on disconnect, exits on the server's stop or
  ``--idle-timeout``); ``--processes N`` runs N such workers as
  children instead, respawning one only when a signal killed it.

``run``/``resume`` select the execution backend with ``--executor
serial|pool|network``.  ``--executor network --port N`` serves the
campaign: an embedded campaign server leases its points to network
workers, and the run prints where they should connect;
``--spawn-workers M`` also launches M local workers for the run's
duration (multi-host campaigns instead start ``worker --connect``
processes by hand).

A campaign spec is a JSON file (an unknown memory axis, kernel or
scenario is refused with a one-line error before anything runs)::

    {
      "kind": "memory",
      "axes": {"subarray_rows": [128, 256], "wer_target": [1e-9, 1e-12]},
      "settings": {"num_words": 400, "error_population": 30000},
      "sampler": "grid",                   // or "lhs" / "surrogate"
      "samples": 16,                       // lhs point budget
      "sampler_options": {"batch": 8, "rounds": 6},   // surrogate knobs
      "objectives": ["edp_proxy"],
      "fidelity": "ladder",                // or "high" (default) / "low"
      "promote_ranks": 1                   // ladder promotion depth
    }

    {
      "kind": "system",
      "workloads": ["bodytrack", "canneal"],
      "scenarios": ["Full-SRAM", "Full-L2-STT-MRAM"],
      "sampler": "grid",                   // or "surrogate"
      "settings": {"node_nm": 45, "wer_target": 1e-9}
    }

A spec may also carry a ``"retry"`` object (``{"max_attempts": 3,
"backoff": 0.5}``) enabling budgeted retries with flaky-point
quarantine; ``--retries`` / ``--backoff`` override it per run.  A
top-level ``"deadline": SECONDS`` bounds every evaluation's wall clock
(``--deadline`` overrides it per run): a point still running past it
is reaped and journaled as a timeout failure, retryable and
quarantinable like any other failure, and counted by ``status``.

A spec is read by :meth:`~repro.dse.campaign.MemoryCampaign.from_dict`
/ :meth:`~repro.dse.campaign.SystemCampaign.from_dict`: its top-level
keys and ``settings`` set the campaign's fields (``node_nm``, ``seed``,
``constraints``, ...; ``base_config``, ``constraints`` and ``base`` are
config objects), and ``settings`` may also carry the run options
``workers`` and ``deadline``.  Any other ``settings`` name, a config
object's unknown field, or an axis with no values is refused with a
one-line error.
The campaign directory holds ``cache/`` and the append-only
``journal.jsonl``; both are written as results arrive, so a killed
``run`` continues with ``resume``.  A directory holding only a
version-1 ``checkpoint.json`` is refused with a one-line error.
"""

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.dse.cache import ResultCache
from repro.dse.campaign import (
    RUN_SETTINGS,
    MemoryCampaign,
    SystemCampaign,
    run,
)
from repro.dse.checkpoint import CampaignState, journal_path
from repro.dse.executors import CACHE_DIR_NAME, EXECUTOR_NAMES
from repro.dse.retry import RetryPolicy
from repro.dse.runner import Progress, default_workers


def _positive_int(text: str) -> int:
    """Argparse type: an integer >= 1, rejected with a one-line error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not a number" % text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0, got %s" % text)
    return value


def _objective_arg(text: str):
    """Argparse type: ``KEY`` or ``KEY:min`` / ``KEY:max``."""
    if ":" in text:
        key, _, sense = text.rpartition(":")
        if not key or sense not in ("min", "max"):
            raise argparse.ArgumentTypeError(
                "objective must be KEY or KEY:min / KEY:max, got %r" % text
            )
        return (key, sense)
    return text


def _connect_endpoint(text: str) -> str:
    """Argparse type: validate ``host:port`` at parse time."""
    from repro.dse.net.protocol import ProtocolError, parse_connect

    try:
        parse_connect(text)
    except ProtocolError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def load_spec(path: str) -> Dict:
    """Read and validate a campaign spec file (see :func:`campaign_of`)."""
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except OSError as exc:
        raise SystemExit("cannot read spec %s: %s" % (path, exc))
    except ValueError as exc:
        raise SystemExit("spec %s is not valid JSON: %s" % (path, exc))
    if not isinstance(spec, dict):
        raise SystemExit("spec %s must be a JSON object" % path)
    kind = spec.get("kind")
    if kind not in ("memory", "system"):
        raise SystemExit(
            'spec %s: "kind" must be "memory" or "system", got %r' % (path, kind)
        )
    if kind == "memory" and not isinstance(spec.get("axes"), dict):
        raise SystemExit('spec %s: memory campaigns need an "axes" object' % path)
    if not isinstance(spec.get("settings", {}), dict):
        raise SystemExit('spec %s: "settings" must be a JSON object' % path)
    campaign_of(spec, path)
    if "retry" in spec:
        try:
            RetryPolicy.from_dict(spec["retry"])
        except (TypeError, ValueError) as exc:
            raise SystemExit('spec %s: bad "retry" object: %s' % (path, exc))
    if "batch" in spec:
        raise SystemExit(
            'spec %s: point batching was removed; delete the top-level '
            '"batch" key' % path
        )
    if "deadline" in spec:
        deadline = spec["deadline"]
        if (
            not isinstance(deadline, (int, float))
            or isinstance(deadline, bool)
            or deadline <= 0
        ):
            raise SystemExit(
                'spec %s: "deadline" must be a positive number of seconds, '
                "got %r" % (path, deadline)
            )
    return spec


def campaign_of(spec: Dict, path: str):
    """The spec's :class:`MemoryCampaign` or :class:`SystemCampaign`.

    Raises:
        SystemExit: With a one-line ``spec PATH: ...`` error when the
            spec names an unknown axis, setting, config field, kernel,
            scenario, sampler or fidelity mode.
    """
    kind = MemoryCampaign if spec["kind"] == "memory" else SystemCampaign
    try:
        return kind.from_dict(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit("spec %s: %s" % (path, exc.args[0]))


def _retry_policy(spec: Dict, args) -> Optional[RetryPolicy]:
    """The effective retry policy: spec ``retry`` + CLI overrides."""
    policy = RetryPolicy.from_dict(spec.get("retry"))
    retries = getattr(args, "retries", None)
    backoff = getattr(args, "backoff", None)
    if retries is None and backoff is None:
        return policy
    base = policy if policy is not None else RetryPolicy()
    try:
        return RetryPolicy(
            max_attempts=retries if retries is not None else base.max_attempts,
            backoff=backoff if backoff is not None else base.backoff,
            backoff_factor=base.backoff_factor,
            max_backoff=base.max_backoff,
        )
    except ValueError as exc:
        raise SystemExit("invalid --retries/--backoff: %s" % exc)


def _format_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--:--"
    seconds = int(seconds)
    if seconds >= 3600:
        return "%d:%02d:%02d" % (seconds // 3600, seconds % 3600 // 60, seconds % 60)
    return "%02d:%02d" % (seconds // 60, seconds % 60)


def progress_printer(stream=None):
    """A progress callback rendering a one-line live status."""
    stream = stream if stream is not None else sys.stderr

    def show(event: Progress) -> None:
        line = "\r%4d/%d done  %d cached  %d failed  eta %s" % (
            event.done,
            event.total,
            event.cached,
            event.failed,
            _format_eta(event.eta),
        )
        stream.write(line)
        if event.done == event.total:
            stream.write("\n")
        stream.flush()

    return show


# -- subcommands --------------------------------------------------------


def cmd_describe(args) -> int:
    spec = load_spec(args.spec)
    campaign = campaign_of(spec, args.spec)
    settings = spec.get("settings", {})
    print("kind:      %s" % spec["kind"])
    print("sampler:   %s" % campaign.sampler)
    if spec["kind"] == "memory":
        for axis in campaign.space.axes:
            print("axis:      %s = %s" % (axis.name, list(axis.values)))
    else:
        print("workloads: %s" % list(campaign.workloads))
        print("scenarios: %s" % [s.value for s in campaign.scenarios])
    print("grid size: %d" % campaign.space.size)
    if campaign.sampler == "lhs":
        print("lhs jobs:  %s" % campaign.samples)
    elif campaign.sampler == "surrogate":
        from repro.dse.surrogate import SurrogateSampler

        model = SurrogateSampler(campaign.space, **(campaign.sampler_options or {}))
        print(
            "surrogate: <= %d jobs (%d rounds x %d batch), objectives %s"
            % (
                model.batch * model.rounds,
                model.rounds,
                model.batch,
                list(campaign.objectives),
            )
        )
    if getattr(campaign, "fidelity", "high") != "high":
        print(
            "fidelity:  %s (promote_ranks %d)"
            % (campaign.fidelity, campaign.promote_ranks)
        )
    for key in sorted(settings):
        print("setting:   %s = %r" % (key, settings[key]))
    print("workers:   %d (default; REPRO_DSE_WORKERS overrides)" % default_workers())
    return 0


def _executor_options(args) -> Optional[Dict]:
    """Keyword options for a named executor, from the CLI flags."""
    executor = getattr(args, "executor", None)
    options = {}
    if getattr(args, "spawn_workers", None):
        options["spawn_workers"] = args.spawn_workers
    if getattr(args, "lease_ttl", None) is not None:
        options["lease_ttl"] = args.lease_ttl
    if getattr(args, "stall_timeout", None) is not None:
        options["timeout"] = args.stall_timeout
    if options and executor != "network":
        raise SystemExit(
            "--spawn-workers/--lease-ttl/--stall-timeout apply only to "
            "--executor network"
        )
    if getattr(args, "bind", None) is not None or getattr(args, "port", None) is not None:
        if executor != "network":
            raise SystemExit("--bind/--port apply only to --executor network")
    if executor == "network":
        if getattr(args, "port", None) is None:
            raise SystemExit(
                "--executor network needs --port (workers must be told "
                "where to connect)"
            )
        options["port"] = args.port
        if getattr(args, "bind", None) is not None:
            options["host"] = args.bind
    return options or None


def _run_campaign(spec: Dict, args, resume: bool):
    settings = spec.get("settings", {})
    options = {name: settings[name] for name in RUN_SETTINGS if name in settings}
    if args.workers is not None:
        options["workers"] = args.workers
    # Deadline: spec-level "deadline" is the campaign's default
    # per-evaluation budget, --deadline overrides it per run (it is not
    # part of the campaign signature, so changing it on resume is fine).
    if spec.get("deadline") is not None:
        options.setdefault("deadline", spec["deadline"])
    if getattr(args, "deadline", None) is not None:
        options["deadline"] = args.deadline
    return run(
        campaign_of(spec, args.spec),
        args.dir,
        resume=resume,
        retry_failed=args.retry_failed,
        retry=_retry_policy(spec, args),
        progress=None if args.quiet else progress_printer(),
        executor=getattr(args, "executor", None),
        executor_options=_executor_options(args),
        **options,
    )


def _summarise(result, campaign_dir: str, elapsed: float) -> None:
    records = result.records()
    print("campaign finished in %.1f s" % elapsed)
    print("  points:   %d" % len(result.outcomes if hasattr(result, "outcomes")
                                 else result.results))
    if hasattr(result, "errors"):
        print("  feasible: %d   errors: %d   infeasible: %d"
              % (len(records), len(result.errors()), result.infeasible()))
    if result.cache_stats is not None:
        print("  cache:    %(hits)d hits / %(misses)d misses / %(writes)d writes"
              % result.cache_stats)
    front = result.pareto()
    print("  pareto:   %d non-dominated" % len(front))
    if result.adaptive is not None:
        print("  sampler:  %d rounds, %d evaluations, best score %s"
              % (
                  len(result.adaptive.rounds),
                  result.adaptive.evaluations,
                  result.adaptive.best_score,
              ))
    if getattr(result, "fidelity", None) is not None:
        print("  fidelity: %d screened -> %d promoted to Monte-Carlo"
              % (result.fidelity.screened, result.fidelity.promoted))
    if getattr(result, "quarantined", None):
        print("  flaky:    %d quarantined (python -m repro.dse retry --dir %s)"
              % (len(result.quarantined), campaign_dir))
    print("  journal:  %s" % journal_path(campaign_dir))


def cmd_run(args, resume: bool = False) -> int:
    from repro.dse.net.server import WorkerStalled

    spec = load_spec(args.spec)
    try:
        journal_path(args.dir)  # refuses a version-1 campaign directory
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.executor == "network" and args.port is not None:
        host = args.bind or "127.0.0.1"
        print(
            "serving campaign on %s:%d — connect workers with: "
            "python -m repro.dse worker --connect %s:%d"
            % (host, args.port, host, args.port),
            file=sys.stderr,
        )
    start = time.perf_counter()
    try:
        result = _run_campaign(spec, args, resume=resume or args.resume)
    except WorkerStalled as exc:
        print("campaign stalled: %s" % exc, file=sys.stderr)
        print(
            "connect workers with: python -m repro.dse worker "
            "--connect <host>:%s" % getattr(args, "port", "PORT"),
            file=sys.stderr,
        )
        return 3
    _summarise(result, args.dir, time.perf_counter() - start)
    return 0


def cmd_resume(args) -> int:
    return cmd_run(args, resume=True)


def cmd_status(args) -> int:
    try:
        path = journal_path(args.dir)
        state = CampaignState.load(path)
    except FileNotFoundError:
        print("no campaign journal at %s" % path, file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    status = state.status()
    if args.json:
        # Machine-readable contract (scripts, CI): exactly one JSON
        # object on stdout, nothing else.
        payload = dict(status)
        payload["cache_entries"] = len(
            ResultCache(os.path.join(args.dir, CACHE_DIR_NAME))
        )
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    percent = (
        100.0 * status["done"] / status["total"] if status["total"] else 0.0
    )
    print("campaign:  %s..." % status["campaign_key"][:16])
    print("progress:  %d/%d done (%.1f%%), %d failed (%d timed out), "
          "%d remaining"
          % (
              status["done"],
              status["total"],
              percent,
              status["failed"],
              status["timeouts"],
              status["remaining"],
          ))
    print("retries:   %d point(s) retried (%d extra runs), %d quarantined"
          % (status["retried"], status["retries"], status["quarantined"]))
    if status["quarantined"]:
        print("flaky:     release with: python -m repro.dse retry --dir %s"
              % args.dir)
    print("updated:   %s" % time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(status["updated"])
    ))
    cache = ResultCache(os.path.join(args.dir, CACHE_DIR_NAME))
    print("cache:     %d entries" % len(cache))
    meta = status.get("meta") or {}
    if meta.get("kind"):
        print("kind:      %s" % meta["kind"])
    if meta.get("sampler"):
        print("sampler:   %s" % meta["sampler"])
    return 0


def cmd_analyze(args) -> int:
    """Replay a campaign's journals into a latency/utilization report."""
    from repro.dse.analytics import build_report

    try:
        report = build_report(
            args.dir,
            objectives=args.objectives,
            pareto_samples=args.samples,
        )
    except FileNotFoundError:
        print(
            "no campaign journal at %s" % journal_path(args.dir),
            file=sys.stderr,
        )
        return 2
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        # Machine-readable contract (CI artefacts, dashboards): exactly
        # one JSON object on stdout, nothing else.
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    status = report.status
    print("campaign:   %s..." % status["campaign_key"][:16])
    print("progress:   %d/%d done, %d failed (%d timed out), "
          "%d remaining, %d quarantined"
          % (
              status["done"],
              status["total"],
              status["failed"],
              status["timeouts"],
              status["remaining"],
              status["quarantined"],
          ))
    if not report.accounting_consistent:
        print("WARNING:    accounting inconsistent "
              "(done + remaining + quarantined != total)")
    torn = (
        " (torn tail: %d bytes dropped)" % report.torn_bytes
        if report.torn_bytes
        else ""
    )
    print("journal:    %d events over %.1fs%s"
          % (report.events, report.duration_s, torn))
    print("throughput: %.3f points/s (%d evaluated completions)"
          % (report.throughput, report.completions))
    if report.latency is not None:
        print("latency:    p50 %.3fs  p90 %.3fs  p99 %.3fs  "
              "(mean %.3fs over %d points)"
              % (
                  report.latency["p50"],
                  report.latency["p90"],
                  report.latency["p99"],
                  report.latency["mean"],
                  report.latency["count"],
              ))
    else:
        print("latency:    no evaluated completions in the journal tail")
    print("rates:      cache-hit %.1f%%  retry %.1f%%  timeout %.1f%%"
          % (
              100.0 * report.rates.get("cache_hit", 0.0),
              100.0 * report.rates.get("retry", 0.0),
              100.0 * report.rates.get("timeout", 0.0),
          ))
    for fold in report.workers:
        print("worker:     %-20s %3d task(s)  busy %7.1fs / %7.1fs  "
              "(%.0f%% utilized)"
              % (
                  fold.worker,
                  fold.tasks,
                  fold.busy_s,
                  fold.span_s,
                  100.0 * fold.utilization,
              ))
    if report.pareto:
        names = ", ".join(
            "%s:%s" % tuple(o) if isinstance(o, (list, tuple)) else str(o)
            for o in report.objectives
        )
        print("pareto:     objectives [%s]" % names)
        for sample in report.pareto:
            print("pareto:     after %4d completed: front %3d, "
                  "hypervolume %.4f"
                  % (sample.completed, sample.front_size, sample.hypervolume))
    return 0


def cmd_retry(args) -> int:
    """Re-release quarantined points so ``resume`` re-runs them."""
    try:
        path = journal_path(args.dir)
        state = CampaignState.load(path)
    except FileNotFoundError:
        print("no campaign journal at %s" % path, file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.key:
        unknown = [key for key in args.key if key not in state.quarantined]
        if unknown:
            print(
                "not quarantined: %s" % ", ".join(unknown), file=sys.stderr
            )
            return 2
        keys = args.key
    else:
        keys = None
    try:
        released = state.release(keys)
        state.close()
    except OSError as exc:
        print("cannot update journal: %s" % exc, file=sys.stderr)
        return 2
    print("released %d quarantined point(s)" % len(released))
    if released:
        print("re-run them with: python -m repro.dse resume SPEC --dir %s"
              % args.dir)
    return 0


def cmd_worker(args) -> int:
    """Evaluate points for a served campaign."""
    if args.processes is not None:
        return cmd_worker_fleet(args)
    from repro.dse.net import run_network_worker

    try:
        evaluated = run_network_worker(
            args.connect,
            worker_id=args.id,
            poll=args.poll,
            idle_timeout=args.idle_timeout,
            once=args.once,
            max_tasks=args.max_tasks,
            backoff=args.reconnect_backoff,
            reconnect_timeout=args.reconnect_timeout,
        )
    except (ValueError, ConnectionError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("worker interrupted", file=sys.stderr)
        return 130
    print("worker done: evaluated %d task(s)" % evaluated)
    return 0


def cmd_worker_fleet(args) -> int:
    """Keep ``--processes`` worker children, each with this command's flags."""
    from repro.dse.net.protocol import parse_connect
    from repro.dse.net.worker import keep_fleet, spawn_worker, worker_command

    if args.id is not None:
        print("--id names one worker; --processes children are named "
              "<host>-<pid>", file=sys.stderr)
        return 2
    cmd = worker_command(parse_connect(args.connect), args.poll)
    for flag, value in (
        ("--idle-timeout", args.idle_timeout),
        ("--max-tasks", args.max_tasks),
        ("--reconnect-backoff", args.reconnect_backoff),
        ("--reconnect-timeout", args.reconnect_timeout),
    ):
        if value is not None:
            cmd += [flag, str(value)]
    if args.once:
        cmd.append("--once")
    try:
        started, respawned, worst = keep_fleet(
            lambda: spawn_worker(cmd), args.processes
        )
    except KeyboardInterrupt:
        print("worker fleet interrupted", file=sys.stderr)
        return 130
    print("worker fleet done: %d started, %d respawned" % (started, respawned))
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dse",
        description="Resumable design-space-exploration campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser("describe", help="summarise a campaign spec")
    describe.add_argument("spec", help="campaign spec JSON file")
    describe.set_defaults(func=cmd_describe)

    def add_run_arguments(command):
        command.add_argument("spec", help="campaign spec JSON file")
        command.add_argument(
            "--dir", required=True,
            help="campaign directory (cache/ + journal.jsonl)",
        )
        command.add_argument(
            "--workers", type=int, default=None,
            help="pool size (default: REPRO_DSE_WORKERS or CPU count)",
        )
        command.add_argument(
            "--retry-failed", action="store_true",
            help="re-run points the journal marks failed "
                 "(releases quarantined points first)",
        )
        command.add_argument(
            "--retries", type=_positive_int, default=None, metavar="N",
            help="retry budget per point (total attempts; enables "
                 "reseeded retries + flaky-point quarantine)",
        )
        command.add_argument(
            "--backoff", type=float, default=None, metavar="SECONDS",
            help="base exponential backoff between attempts",
        )
        command.add_argument(
            "--quiet", action="store_true", help="suppress live progress"
        )
        command.add_argument(
            "--executor", choices=EXECUTOR_NAMES, default=None,
            help="execution backend (default: in-process pool; "
                 "network leases points to `worker --connect` processes)",
        )
        command.add_argument(
            "--spawn-workers", type=_nonnegative_int, default=0, metavar="N",
            help="with --executor network: launch N local worker "
                 "processes for the run's duration",
        )
        command.add_argument(
            "--lease-ttl", type=_positive_float, default=None,
            metavar="SECONDS",
            help="with --executor network: lease time-to-live (a dead "
                 "worker's points reclaim after this long)",
        )
        command.add_argument(
            "--stall-timeout", type=_positive_float, default=None,
            metavar="SECONDS",
            help="with --executor network: abort when no result "
                 "arrives for this long (default: wait forever for "
                 "workers to show up)",
        )
        command.add_argument(
            "--bind", default=None, metavar="HOST",
            help="with --executor network: server bind address "
                 "(default: 127.0.0.1)",
        )
        command.add_argument(
            "--port", type=_positive_int, default=None, metavar="PORT",
            help="with --executor network: server TCP port",
        )
        command.add_argument(
            "--deadline", type=_positive_float, default=None,
            metavar="SECONDS",
            help="per-evaluation wall-clock budget (overrides the "
                 "spec's \"deadline\"); a point still running past it "
                 "is reaped and recorded as a timeout failure",
        )

    run = sub.add_parser("run", help="run a campaign (resumably)")
    add_run_arguments(run)
    run.add_argument(
        "--resume", action="store_true",
        help="continue an existing journal instead of starting fresh",
    )
    run.set_defaults(func=cmd_run)

    resume = sub.add_parser("resume", help="continue a killed campaign")
    add_run_arguments(resume)
    resume.set_defaults(func=cmd_resume, resume=True)

    status = sub.add_parser("status", help="report a campaign directory")
    status.add_argument("--dir", required=True, help="campaign directory")
    status.add_argument(
        "--json", action="store_true",
        help="print exactly one machine-readable JSON object "
             "(journal counts + cache_entries) instead of text",
    )
    status.set_defaults(func=cmd_status)

    analyze = sub.add_parser(
        "analyze",
        help="replay a campaign's journals into a latency/utilization/"
             "Pareto report",
    )
    analyze.add_argument("dir", help="campaign directory")
    analyze.add_argument(
        "--json", action="store_true",
        help="print exactly one machine-readable JSON object instead "
             "of text (the CampaignReport payload)",
    )
    analyze.add_argument(
        "--samples", type=_positive_int, default=16, metavar="N",
        help="Pareto-evolution samples along the completion sequence "
             "(default: 16)",
    )
    analyze.add_argument(
        "--objectives", nargs="+", default=None, metavar="KEY[:min|:max]",
        type=_objective_arg,
        help="override the journaled Pareto objectives "
             "(default sense: min)",
    )
    analyze.set_defaults(func=cmd_analyze)

    retry = sub.add_parser(
        "retry", help="re-release quarantined (flaky) points"
    )
    retry.add_argument("--dir", required=True, help="campaign directory")
    retry.add_argument(
        "--key", action="append", default=None, metavar="JOB_KEY",
        help="release only this job key (repeatable; default: all)",
    )
    retry.set_defaults(func=cmd_retry)

    worker = sub.add_parser(
        "worker", help="evaluate points for a served campaign",
    )
    worker.add_argument(
        "--connect", type=_connect_endpoint, required=True,
        metavar="HOST:PORT",
        help="the campaign server to lease points from",
    )
    worker.add_argument(
        "--id", default=None,
        help="worker identity in the server's lease log "
             "(default: <host>-<pid>)",
    )
    worker.add_argument(
        "--poll", type=_positive_float, default=0.2, metavar="SECONDS",
        help="lease request interval when idle (default: 0.2)",
    )
    worker.add_argument(
        "--idle-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="exit after this long with nothing to lease "
             "(default: wait for the server's stop)",
    )
    worker.add_argument(
        "--once", action="store_true",
        help="exit as soon as the server has nothing to lease",
    )
    worker.add_argument(
        "--max-tasks", type=_positive_int, default=None, metavar="N",
        help="exit after evaluating N tasks",
    )
    worker.add_argument(
        "--reconnect-backoff", type=_positive_float, default=0.5,
        metavar="SECONDS",
        help="initial reconnect delay, growing per failed attempt "
             "(default: 0.5)",
    )
    worker.add_argument(
        "--reconnect-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="give up after this long continuously disconnected "
             "(default: retry forever)",
    )
    worker.add_argument(
        "--processes", type=_positive_int, default=None, metavar="N",
        help="run N workers as child processes, respawning one only when "
             "a signal killed it; exit with the worst child exit code",
    )
    worker.set_defaults(func=cmd_worker)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
