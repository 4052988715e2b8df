"""Tests for the ``python -m repro.dse`` command line."""

import json
import socket

import pytest

from repro.dse.__main__ import load_spec, main

MEMORY_SPEC = {
    "kind": "memory",
    "axes": {"subarray_rows": [256], "wer_target": [1e-9]},
    "settings": {"num_words": 100, "error_population": 5000},
    "sampler": "grid",
}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestSpecValidation:
    def test_valid_memory_spec(self, tmp_path):
        spec = load_spec(_write_spec(tmp_path, MEMORY_SPEC))
        assert spec["kind"] == "memory"

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            load_spec(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(SystemExit, match="not valid JSON"):
            load_spec(str(path))

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(SystemExit, match="kind"):
            load_spec(_write_spec(tmp_path, {"kind": "quantum"}))

    def test_memory_needs_axes(self, tmp_path):
        with pytest.raises(SystemExit, match="axes"):
            load_spec(_write_spec(tmp_path, {"kind": "memory"}))

    def test_unknown_sampler(self, tmp_path):
        bad = dict(MEMORY_SPEC, sampler="bayesian")
        with pytest.raises(SystemExit, match="sampler"):
            load_spec(_write_spec(tmp_path, bad))

    def test_system_is_grid_only(self, tmp_path):
        bad = {"kind": "system", "sampler": "surrogate"}
        with pytest.raises(SystemExit, match="grid-only"):
            load_spec(_write_spec(tmp_path, bad))

    def test_removed_adaptive_sampler_fails_loudly(self, tmp_path):
        bad = dict(MEMORY_SPEC, sampler="adaptive")
        with pytest.raises(SystemExit) as excinfo:
            load_spec(_write_spec(tmp_path, bad))
        message = str(excinfo.value)
        assert "\n" not in message
        assert 'sampler "adaptive" was removed; use "surrogate"' in message

    def test_batch_key_fails_loudly(self, tmp_path, capsys):
        bad = dict(MEMORY_SPEC, batch=4)
        with pytest.raises(SystemExit) as excinfo:
            load_spec(_write_spec(tmp_path, bad))
        message = str(excinfo.value)
        assert "\n" not in message
        assert "point batching was removed" in message
        assert 'delete the top-level "batch" key' in message
        # The per-run flag is gone too: argparse rejects it.
        with pytest.raises(SystemExit):
            main([
                "run", _write_spec(tmp_path, MEMORY_SPEC),
                "--dir", str(tmp_path / "camp"), "--batch-size", "2",
            ])
        assert "--batch-size" in capsys.readouterr().err


class TestDescribe:
    def test_memory_describe(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, MEMORY_SPEC)
        assert main(["describe", spec]) == 0
        out = capsys.readouterr().out
        assert "kind:      memory" in out
        assert "grid size: 1" in out
        assert "subarray_rows" in out

    def test_system_describe(self, tmp_path, capsys):
        spec = _write_spec(
            tmp_path,
            {
                "kind": "system",
                "workloads": ["bodytrack"],
                "scenarios": ["Full-SRAM"],
            },
        )
        assert main(["describe", spec]) == 0
        out = capsys.readouterr().out
        assert "kind:      system" in out
        assert "grid size: 1" in out

    @pytest.mark.parametrize("options", [None, {"batch": 4, "rounds": 3}])
    def test_surrogate_describe_shows_sampler_budget(
        self, tmp_path, capsys, options
    ):
        from repro.dse import SurrogateSampler
        from repro.dse.__main__ import _memory_space

        spec = dict(MEMORY_SPEC, sampler="surrogate")
        if options is not None:
            spec["sampler_options"] = options
        assert main(["describe", _write_spec(tmp_path, spec)]) == 0
        sampler = SurrogateSampler(_memory_space(spec), **(options or {}))
        assert "<= %d jobs (%d rounds x %d batch)" % (
            sampler.batch * sampler.rounds, sampler.rounds, sampler.batch
        ) in capsys.readouterr().out


class TestSpecRetryValidation:
    def test_valid_retry_object(self, tmp_path):
        spec = load_spec(_write_spec(
            tmp_path, dict(MEMORY_SPEC, retry={"max_attempts": 2})
        ))
        assert spec["retry"] == {"max_attempts": 2}

    def test_bad_retry_object(self, tmp_path):
        bad = dict(MEMORY_SPEC, retry={"tries": 2})
        with pytest.raises(SystemExit, match="retry"):
            load_spec(_write_spec(tmp_path, bad))

    def test_cli_flags_override_spec(self, tmp_path):
        from argparse import Namespace

        from repro.dse.__main__ import _retry_policy

        spec = dict(MEMORY_SPEC, retry={"max_attempts": 2, "backoff": 1.0})
        policy = _retry_policy(spec, Namespace(retries=5, backoff=None))
        assert policy.max_attempts == 5
        assert policy.backoff == 1.0
        assert _retry_policy(MEMORY_SPEC, Namespace(retries=None, backoff=None)) is None
        flags_only = _retry_policy(MEMORY_SPEC, Namespace(retries=None, backoff=0.5))
        assert flags_only.backoff == 0.5

    def test_invalid_flags_exit_cleanly(self):
        from argparse import Namespace

        from repro.dse.__main__ import _retry_policy

        with pytest.raises(SystemExit, match="--retries"):
            _retry_policy(MEMORY_SPEC, Namespace(retries=0, backoff=None))
        with pytest.raises(SystemExit, match="--retries"):
            _retry_policy(MEMORY_SPEC, Namespace(retries=None, backoff=-1.0))


class TestStatus:
    def test_status_without_journal_fails(self, tmp_path, capsys):
        assert main(["status", "--dir", str(tmp_path)]) == 2
        assert "no campaign journal" in capsys.readouterr().err


def _quarantined_dir(tmp_path):
    """A campaign directory whose journal holds one quarantined point."""
    from repro.dse import CampaignState, Job, campaign_key, journal_path

    job = Job("cli-boom", {"x": 1})
    state = CampaignState.open(
        journal_path(str(tmp_path)), campaign_key({"kind": "cli"}), total=2
    )
    from repro.dse import JobResult

    state.record(JobResult(job=job, ok=False, error="boom", attempts=3))
    state.quarantine(job.key, 3)
    state.close()
    return job


class TestRetrySubcommand:
    def test_retry_without_journal_fails(self, tmp_path, capsys):
        assert main(["retry", "--dir", str(tmp_path)]) == 2
        assert "no campaign journal" in capsys.readouterr().err

    def test_retry_releases_all(self, tmp_path, capsys):
        from repro.dse import CampaignState, journal_path

        _quarantined_dir(tmp_path)
        assert main(["retry", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "released 1 quarantined point(s)" in out
        assert "resume" in out
        state = CampaignState.load(journal_path(str(tmp_path)))
        assert state.quarantined == set()
        assert state.done == 0  # the failed entry was cleared for re-run

    def test_retry_specific_key(self, tmp_path, capsys):
        job = _quarantined_dir(tmp_path)
        assert main(["retry", "--dir", str(tmp_path), "--key", job.key]) == 0
        assert "released 1" in capsys.readouterr().out

    def test_retry_unknown_key_fails(self, tmp_path, capsys):
        _quarantined_dir(tmp_path)
        assert main(["retry", "--dir", str(tmp_path), "--key", "feedbeef"]) == 2
        assert "not quarantined" in capsys.readouterr().err

    def test_retry_nothing_to_release(self, tmp_path, capsys):
        from repro.dse import CampaignState, campaign_key, journal_path

        CampaignState.open(
            journal_path(str(tmp_path)), campaign_key({"kind": "cli"}), total=1
        ).close()
        assert main(["retry", "--dir", str(tmp_path)]) == 0
        assert "released 0" in capsys.readouterr().out

    def test_status_reports_quarantine(self, tmp_path, capsys):
        _quarantined_dir(tmp_path)
        assert main(["status", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined" in out
        assert "python -m repro.dse retry" in out


class TestRunResumeStatus:
    def test_run_then_status_then_resume(self, tmp_path, capsys):
        """One 1-point campaign through the whole CLI surface."""
        spec = _write_spec(tmp_path, MEMORY_SPEC)
        campaign_dir = str(tmp_path / "camp")

        assert main(["run", spec, "--dir", campaign_dir, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "campaign finished" in out
        assert "feasible: 1" in out

        assert main(["status", "--dir", campaign_dir]) == 0
        out = capsys.readouterr().out
        assert "1/1 done (100.0%)" in out

        # --json is machine-readable: exactly one JSON object, nothing
        # else on stdout (scripts and CI parse this verbatim).
        assert main(["status", "--dir", campaign_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["done"] == 1
        assert payload["failed"] == 0
        assert payload["retried"] == 0
        assert payload["quarantined"] == 0
        assert "leased" not in payload  # only a live server knows leases
        assert payload["cache_entries"] == 1

        assert main(["resume", spec, "--dir", campaign_dir, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "1 hits / 0 misses" in out

    def test_run_with_serial_executor(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, MEMORY_SPEC)
        campaign_dir = str(tmp_path / "serial-camp")
        assert main([
            "run", spec, "--dir", campaign_dir, "--quiet",
            "--executor", "serial",
        ]) == 0
        assert "feasible: 1" in capsys.readouterr().out

    def test_unknown_executor_rejected_by_parser(self, tmp_path):
        spec = _write_spec(tmp_path, MEMORY_SPEC)
        with pytest.raises(SystemExit):
            main(["run", spec, "--dir", str(tmp_path), "--executor", "warp"])

    def test_network_executor_flags_require_network(self, tmp_path):
        spec = _write_spec(tmp_path, MEMORY_SPEC)
        with pytest.raises(SystemExit, match="--executor network"):
            main([
                "run", spec, "--dir", str(tmp_path / "c"), "--quiet",
                "--executor", "pool", "--spawn-workers", "2",
            ])
        with pytest.raises(SystemExit, match="--executor network"):
            main([
                "run", spec, "--dir", str(tmp_path / "c"), "--quiet",
                "--lease-ttl", "5",
            ])

    def test_stall_timeout_aborts_cleanly_without_workers(
        self, tmp_path, capsys
    ):
        """A network run with no workers must not hang silently."""
        spec = _write_spec(tmp_path, MEMORY_SPEC)
        code = main([
            "run", spec, "--dir", str(tmp_path / "stall"), "--quiet",
            "--executor", "network", "--port", str(_free_port()),
            "--stall-timeout", "0.2",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "campaign stalled" in err
        assert "python -m repro.dse worker --connect" in err


@pytest.fixture
def served(tmp_path):
    """A campaign server on a background thread."""
    from repro.dse.net import CampaignServer, ServerThread

    server = CampaignServer(str(tmp_path / "camp"), lease_ttl=5.0)
    thread = ServerThread(server).start()
    yield server
    thread.stop()


class TestWorkerSubcommand:
    def test_worker_once_on_empty_queue(self, served, capsys):
        assert main([
            "worker", "--connect", "127.0.0.1:%d" % served.port, "--once",
        ]) == 0
        assert "evaluated 0 task(s)" in capsys.readouterr().out

    def test_worker_drains_published_tasks(self, served, capsys):
        from repro.dse import Job, SELFTEST_TARGET

        served.submit([Job(SELFTEST_TARGET, {"x": i}) for i in range(3)])
        assert main([
            "worker", "--connect", "127.0.0.1:%d" % served.port,
            "--once", "--id", "cli-worker",
        ]) == 0
        assert "evaluated 3 task(s)" in capsys.readouterr().out

    def test_worker_needs_connect(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["worker"])
        assert "--connect" in capsys.readouterr().err
        # The shared-directory form is gone.
        with pytest.raises(SystemExit):
            main(["worker", str(tmp_path), "--connect", "localhost:4000"])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestArgumentValidation:
    """Satellite: non-positive / malformed flags die with one-line errors."""

    def _rejects(self, argv, fragment, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        err = capsys.readouterr().err
        assert fragment in err, err

    def test_nonpositive_lease_ttl(self, tmp_path, capsys):
        self._rejects(
            ["run", "spec.json", "--dir", str(tmp_path), "--lease-ttl", "0"],
            "must be > 0", capsys,
        )
        self._rejects(
            ["run", "spec.json", "--dir", str(tmp_path), "--lease-ttl", "-5"],
            "must be > 0", capsys,
        )

    def test_negative_spawn_workers(self, tmp_path, capsys):
        self._rejects(
            ["run", "spec.json", "--dir", str(tmp_path),
             "--spawn-workers", "-1"],
            "must be >= 0", capsys,
        )

    def test_nonpositive_retries(self, tmp_path, capsys):
        self._rejects(
            ["run", "spec.json", "--dir", str(tmp_path), "--retries", "0"],
            "must be >= 1", capsys,
        )
        self._rejects(
            ["run", "spec.json", "--dir", str(tmp_path), "--retries", "x"],
            "not an integer", capsys,
        )

    def test_malformed_connect(self, capsys):
        for bad in ("nohost", "host:", ":4000", "host:notaport", "host:0",
                    "host:70000"):
            self._rejects(
                ["worker", "--connect", bad], "invalid --connect", capsys
            )

    def test_worker_processes_must_be_positive(self, capsys):
        self._rejects(
            ["worker", "--connect", "localhost:4000", "--processes", "0"],
            "must be >= 1", capsys,
        )

    def test_worker_processes_refuses_one_id(self, capsys):
        assert main([
            "worker", "--connect", "localhost:4000", "--id", "w1",
            "--processes", "2",
        ]) == 2
        assert "--id names one worker" in capsys.readouterr().err

    def test_serve_requires_port(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="--port"):
            main(["serve", "spec.json", "--dir", str(tmp_path), "--quiet"])

    def test_network_flags_require_network_executor(self, tmp_path):
        spec = _write_spec(tmp_path, MEMORY_SPEC)
        with pytest.raises(SystemExit, match="--executor network"):
            main([
                "run", spec, "--dir", str(tmp_path / "c"), "--quiet",
                "--port", "4000",
            ])
