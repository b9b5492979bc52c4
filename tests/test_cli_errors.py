"""CLI regression tests: clean errors for bad input, --json flags.

Unknown family keys used to escape as raw ``KeyError`` tracebacks from
the registry, and out-of-range sizes, seeds and rates as tracebacks
from deep inside the computation (or an out-of-memory crash); every
query subcommand must now exit nonzero with a one-line ``error: ...``
message instead, the same message the service's error envelope
carries.  The ``--json`` flags must emit exactly the service
serializers' shapes so scripts can switch between the CLI and
``GET /v1/...`` freely.
"""

from __future__ import annotations

import json
import os
import socket

import pytest

from repro.cli import main
from repro.service import QueryService
from repro.service.serializers import families_payload


def _post(path: str, body: dict) -> tuple:
    return ("POST", path, None, json.dumps(body).encode())


#: CLI input -> the service request that asks the same thing (None when
#: no route does).  Each used to end in a traceback, a silent accept or
#: an out-of-memory crash.
BAD_INPUTS = [
    (["bandwidth", "mesh_2", "--seed", "-1"],
     ("GET", "/v1/bandwidth", {"family": "mesh_2", "seed": "-1"})),
    (["bandwidth", "mesh_2", "--size", "-5"],
     ("GET", "/v1/bandwidth", {"family": "mesh_2", "size": "-5"})),
    (["bandwidth", "mesh_2", "--size", "1"],
     ("GET", "/v1/bandwidth", {"family": "mesh_2", "size": "1"})),
    (["bandwidth", "mesh_2", "--replicates", "0"],
     ("GET", "/v1/bandwidth", {"family": "mesh_2", "replicates": "0"})),
    (["bandwidth", "mesh_2", "--size", "5000"],
     ("GET", "/v1/bandwidth", {"family": "mesh_2", "size": "5000"})),
    (["bandwidth", "mesh_2", "--size", "20000"],
     ("GET", "/v1/bandwidth", {"family": "mesh_2", "size": "20000"})),
    (["saturation", "mesh_2", "--rates", "2"],
     _post("/v1/saturation", {"family": "mesh_2", "rates": [2]})),
    (["saturation", "mesh_2", "--rates", "nan"],
     _post("/v1/saturation", {"family": "mesh_2", "rates": ["nan"]})),
    (["saturation", "mesh_2", "--duration", "0"],
     _post("/v1/saturation", {"family": "mesh_2", "duration": 0})),
    (["saturation", "mesh_2", "--size", "2048"],
     _post("/v1/saturation", {"family": "mesh_2", "size": 2048})),
    (["emulate", "de_bruijn", "mesh_2", "--guest-size", "64",
      "--host-size", "256"],
     _post("/v1/emulate", {"guest": "de_bruijn", "host": "mesh_2",
                           "guest_size": 64, "host_size": 256})),
    (["emulate", "de_bruijn", "mesh_2", "--steps", "0"],
     _post("/v1/emulate", {"guest": "de_bruijn", "host": "mesh_2",
                           "steps": 0})),
    (["snapshot", "build", "--out", "{tmp}/cells.snap", "--sizes", "5000",
      "--workers", "1", "--quiet"],
     ("GET", "/v1/bandwidth", {"family": "mesh_2", "size": "5000"})),
    (["figure1", "--n", "0"], None),
    (["figure1", "--n", str(10**309)], None),
    (["serve", "--port", "99999"], None),
    (["serve", "--port", "-1"], None),
    (["reproduce", "--only", "nosuch", "--out", "{tmp}/results"], None),
]


@pytest.mark.parametrize(
    "argv, request_", BAD_INPUTS, ids=[" ".join(a) for a, _ in BAD_INPUTS]
)
def test_bad_input_is_one_error_line(argv, request_, tmp_path):
    argv = [word.replace("{tmp}", str(tmp_path)) for word in argv]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    message = excinfo.value.code  # a str code: printed, exit status 1
    assert isinstance(message, str) and message.startswith("error: ")
    assert "\n" not in message and "Traceback" not in message
    if request_ is not None:
        status, payload = QueryService().handle(*request_)
        assert 400 <= status < 500, payload
        assert message == "error: " + payload["error"]["message"]


LOADTEST_BOUNDS = [
    (["--duration", "-1"], "duration"),
    (["--duration", "nan"], "duration"),
    (["--timeout", "0"], "timeout"),
    (["--connections", "0"], "connections"),
    (["--mode", "open", "--rate", "0"], "rate"),
    (["--mix-size", "0"], "mix_size"),
    (["--mix-size", "100000"], "mix_size"),
]


@pytest.mark.parametrize(
    "flags, name", LOADTEST_BOUNDS, ids=[" ".join(f) for f, _ in LOADTEST_BOUNDS]
)
def test_loadtest_bounds_name_the_flag(flags, name):
    """Each used to run and end in "no request ... was answered" (a zero
    timeout is a non-blocking socket; a window that is not positive
    sends nothing) or, for a mix size the service rejects, in nothing
    but 422s.  Port 1 answers nothing, so only a message that names the
    flag shows the bound was checked first."""
    with pytest.raises(SystemExit) as excinfo:
        main(["loadtest", "--port", "1", *flags])
    message = excinfo.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"error: parameter {name!r} must be in ")


#: A job that records each call, so a test can tell no cell ran.
CALLS: list[dict] = []


def recording_job(spec: dict) -> dict:
    CALLS.append(dict(spec))
    return {"x": spec["x"]}


SWEEP = ["sweep", "tests.test_cli_errors:recording_job", "--axis", "x=1,2"]

#: Every numeric flag of ``sweep``, ``snapshot build`` and ``serve``,
#: with an out-of-range value.  Each used to fail every cell
#: (``--timeout -1``: ``[Errno 22] Invalid argument`` from setitimer;
#: ``nan``: ``Invalid value NaN``), pass silently (``--retries -2``,
#: ``--workers -3``), turn the memory tier off (``--cache-size -5``,
#: ``--ttl -1``), never expire an entry (``--ttl nan``) or boot a server
#: with no request threads (``--max-workers 0``).
NUMERIC_FLAG_BOUNDS = [
    ([*SWEEP, "--workers", "-3"], "workers"),
    ([*SWEEP, "--workers", "257"], "workers"),
    ([*SWEEP, "--retries", "-2"], "retries"),
    ([*SWEEP, "--timeout", "-1"], "timeout"),
    ([*SWEEP, "--timeout", "nan"], "timeout"),
    (["snapshot", "build", "--out", "{tmp}/cells.snap", "--workers", "0"], "workers"),
    (["serve", "--workers", "0"], "workers"),
    (["serve", "--workers", "257"], "workers"),
    (["serve", "--cache-size", "-5"], "cache_size"),
    (["serve", "--ttl", "-1"], "ttl"),
    (["serve", "--ttl", "nan"], "ttl"),
    (["serve", "--max-workers", "0"], "max_workers"),
    (["serve", "--drain-timeout", "-1"], "drain_timeout"),
]


@pytest.mark.parametrize(
    "argv, name", NUMERIC_FLAG_BOUNDS,
    ids=[" ".join(a[-3:]) for a, _ in NUMERIC_FLAG_BOUNDS],
)
def test_numeric_flag_bounds_name_the_flag(argv, name, tmp_path):
    """Checked before any cell runs, any process forks or any port
    binds: ``serve`` is pointed at a port already taken, which it would
    otherwise report, and the snapshot file is never written."""
    argv = [word.replace("{tmp}", str(tmp_path)) for word in argv]
    CALLS.clear()
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        if argv[0] == "serve":
            argv += ["--port", str(holder.getsockname()[1])]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
    message = excinfo.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"error: parameter {name!r} must be in ")
    assert CALLS == []
    assert not (tmp_path / "cells.snap").exists()


def _assert_clean_family_error(argv: list[str]) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    message = str(excinfo.value)
    assert message.startswith("error: unknown machine family")
    assert "nosuch" in message
    assert "Traceback" not in message


class TestUnknownFamilyErrors:
    def test_bandwidth(self):
        _assert_clean_family_error(["bandwidth", "nosuch", "--size", "64"])

    def test_saturation(self):
        _assert_clean_family_error(["saturation", "nosuch", "--size", "16"])

    def test_emulate_guest(self):
        _assert_clean_family_error(["emulate", "nosuch", "mesh_2"])

    def test_emulate_host(self):
        _assert_clean_family_error(["emulate", "de_bruijn", "nosuch"])

    def test_figure1(self):
        _assert_clean_family_error(["figure1", "--guest", "nosuch"])

    def test_catalog(self):
        _assert_clean_family_error(["catalog", "linear_array", "nosuch"])

    def test_known_family_still_works(self, capsys):
        assert main(["bandwidth", "linear_array", "--size", "16"]) == 0
        assert "measured rate" in capsys.readouterr().out


def _assert_clean_workload_error(argv: list[str]) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    message = str(excinfo.value)
    assert message.startswith("error: unknown workload")
    assert "nosuch" in message
    assert "symmetric" in message  # lists the known keys
    assert "Traceback" not in message


class TestUnknownWorkloadErrors:
    """``--workload`` mirrors the unknown-family contract: one clean
    ``error: ...`` line naming the known keys, never a KeyError."""

    def test_bandwidth(self):
        _assert_clean_workload_error(
            ["bandwidth", "mesh_2", "--size", "16", "--workload", "nosuch"]
        )

    def test_saturation(self):
        _assert_clean_workload_error(
            ["saturation", "mesh_2", "--size", "16", "--workload", "nosuch"]
        )

    def test_catalog(self):
        _assert_clean_workload_error(
            ["catalog", "mesh_2", "tree", "--workload", "nosuch"]
        )

    def test_bad_param_value_is_clean(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["saturation", "mesh_2", "--size", "16",
                  "--workload", "bursty", "--workload-param", "on=0"])
        message = str(excinfo.value)
        assert message.startswith("error:")
        assert "'on' must be >= 1" in message

    def test_unknown_param_name_is_clean(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bandwidth", "mesh_2", "--size", "16",
                  "--workload", "hotspot", "--workload-param", "heat=2"])
        message = str(excinfo.value)
        assert message.startswith("error:")
        assert "accepted" in message

    def test_param_without_workload_is_clean(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bandwidth", "mesh_2", "--size", "16",
                  "--workload-param", "on=4"])
        assert "--workload-param given without --workload" in str(excinfo.value)

    def test_known_workload_still_works(self, capsys):
        assert main(["bandwidth", "mesh_2", "--size", "16",
                     "--workload", "hotspot"]) == 0
        out = capsys.readouterr().out
        assert "measured rate" in out
        assert "hotspot" in out

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "hotspot" in out and "all_reduce_ring" in out


class TestEngineUnavailableErrors:
    """``--engine compiled`` on a host without a provider must fail with
    the same one-line ``error: ...`` shape as unknown families -- not a
    traceback from deep inside the backend probe."""

    @pytest.fixture(autouse=True)
    def _no_provider(self, monkeypatch):
        from repro.routing import compiled as compiled_backend

        monkeypatch.setenv("REPRO_COMPILED", "off")
        compiled_backend._reset_provider_cache()
        yield
        compiled_backend._reset_provider_cache()

    def _assert_clean_engine_error(self, argv: list[str]) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert message.startswith(
            "error: compiled routing engine unavailable"
        )
        assert "fall back" in message  # points at engine=auto/fast
        assert "Traceback" not in message

    def test_bandwidth(self):
        self._assert_clean_engine_error(
            ["bandwidth", "linear_array", "--size", "16",
             "--engine", "compiled"]
        )

    def test_saturation(self):
        self._assert_clean_engine_error(
            ["saturation", "ring", "--size", "8", "--engine", "compiled"]
        )

    def test_service_answers_501(self):
        status, payload = QueryService().handle(
            "GET", "/v1/bandwidth",
            {"family": "linear_array", "size": "16", "engine": "compiled"},
        )
        assert status == 501, payload
        assert payload["error"]["code"] == "engine_unavailable"
        assert payload["error"]["message"].startswith(
            "compiled routing engine unavailable"
        )

    def test_auto_engine_still_works(self, capsys):
        """auto degrades gracefully instead of erroring."""
        assert main(
            ["bandwidth", "linear_array", "--size", "16",
             "--engine", "auto"]
        ) == 0
        assert "measured rate" in capsys.readouterr().out


class TestJsonFlags:
    def test_families_json_matches_service_payload(self, capsys):
        assert main(["families", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == families_payload()

    def test_families_plain_output_unchanged(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "mesh_2" in out and "{" not in out

    def test_catalog_json(self, capsys):
        assert main(["catalog", "linear_array", "tree", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["guests"] == ["linear_array", "tree"]
        assert len(payload["cells"]) == 4
        cell = payload["cells"][0]
        assert set(cell) == {"guest", "host", "expr", "bound", "kind"}


class TestSnapshotErrors:
    """Corrupt or mismatched snapshot files must fail with one clean
    ``error: ...`` line -- at ``snapshot info`` time and at ``serve``
    boot -- never a struct/JSON traceback from the binary reader."""

    @pytest.fixture()
    def corrupt_snapshot(self, tmp_path):
        from repro.fabric import write_snapshot
        from repro.harness import Job

        job = Job("catalog_cell", {"guest": "ring", "host": "ring"})
        path = tmp_path / "cells.snap"
        write_snapshot({job.job_hash: {"ok": True}}, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        return path

    def _assert_clean_snapshot_error(self, argv, needle):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert message.startswith("error:")
        assert needle in message
        assert "Traceback" not in message

    def test_snapshot_info_corrupt_file(self, corrupt_snapshot):
        self._assert_clean_snapshot_error(
            ["snapshot", "info", str(corrupt_snapshot)], "checksum"
        )

    def test_snapshot_info_missing_file(self, tmp_path):
        self._assert_clean_snapshot_error(
            ["snapshot", "info", str(tmp_path / "nope.snap")], "cannot open"
        )

    def test_snapshot_info_not_a_snapshot(self, tmp_path):
        path = tmp_path / "readme.txt"
        path.write_text("not a snapshot, not even close, but long enough\n")
        self._assert_clean_snapshot_error(
            ["snapshot", "info", str(path)], "magic"
        )

    def test_serve_rejects_corrupt_snapshot_at_boot(self, corrupt_snapshot):
        self._assert_clean_snapshot_error(
            ["serve", "--port", "0", "--snapshot", str(corrupt_snapshot)],
            "checksum",
        )

    def test_serve_rejects_stale_salt_at_boot(self, tmp_path):
        from repro.fabric import write_snapshot
        from repro.harness import Job

        job = Job("catalog_cell", {"guest": "ring", "host": "ring"})
        path = tmp_path / "old.snap"
        write_snapshot({job.job_hash: {"ok": True}}, path,
                       salt="repro-0.0.0-h0")
        self._assert_clean_snapshot_error(
            ["serve", "--port", "0", "--snapshot", str(path)], "code version"
        )


class TestPreforkUnavailableErrors:
    """``serve --workers N`` on a platform without ``os.fork`` or
    ``SO_REUSEPORT`` must exit with one clean ``error: ...`` line, not a
    socket/os traceback."""

    @staticmethod
    def _assert_unavailable(needs: str) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--workers", "2", "--port", "0"])
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"error: prefork needs {needs}")
        assert "--workers 1" in message  # points at the escape hatch

    def test_prefork_unavailable_is_clean(self, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        self._assert_unavailable("SO_REUSEPORT")

    def test_no_fork_is_unavailable(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        self._assert_unavailable("os.fork()")

    def test_workers_validation(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--workers", "0", "--port", "0"])
        assert str(excinfo.value).startswith("error:")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_serve_on_a_busy_port_is_one_error_line(workers):
    """Both tiers report a port they cannot bind as one line, not an
    ``OSError`` traceback."""
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        port = holder.getsockname()[1]
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", str(port), "--workers", workers])
    message = excinfo.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")

