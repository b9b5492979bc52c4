"""Golden outputs of the CLI commands and service routes the operations share.

``tests/data/operations_golden.json`` pins, byte for byte:

* the stdout (and exit code) of a fixed list of small CLI commands
  covering every form of ``families``, ``workloads``, ``bandwidth``,
  ``saturation``, ``emulate`` and ``catalog`` (text, ``--json``,
  ``--workload``, ``--workload-param``, ``--replicates``), plus
  ``tables`` and ``figure1``;
* for a fixed request list over every service route, valid and
  rejected: the status, the response body as the transport writes it
  (``meta.seconds``, ``meta.trace_id`` and ``/healthz``'s ``pid``,
  ``uptime_seconds`` and store path masked) and the content hash of
  every job the request computed, read back from a fresh result store.
  The hashes key every cache tier, so stores and snapshots written
  earlier keep hitting while they hold.

Each default compute request also carries the job it must equal when
the job function runs on the required parameters alone; that ties the
job functions' own defaults to the request schemas' defaults.

Re-record (only for a deliberate output change, which must bump the
store and snapshot salt when hashes move) with
``PYTHONPATH=src python tests/test_operations_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import Job, ResultStore, canonical_json
from repro.service import QueryService

GOLDEN = Path(__file__).parent / "data" / "operations_golden.json"

CLI_COMMANDS = [
    ["families"],
    ["families", "--json"],
    ["workloads"],
    ["workloads", "--json"],
    ["bandwidth", "mesh_2", "--size", "64"],
    ["bandwidth", "tree", "--size", "63", "--seed", "3", "--engine", "fast"],
    ["bandwidth", "mesh_2", "--size", "64", "--replicates", "3"],
    ["bandwidth", "mesh_2", "--size", "64", "--workload", "hotspot"],
    ["bandwidth", "mesh_2", "--size", "64", "--workload", "hotspot",
     "--workload-param", "hot_fraction=0.7"],
    ["saturation", "xtree", "--size", "63", "--duration", "48"],
    ["saturation", "mesh_2", "--size", "16", "--rates", "0.1", "0.5", "1.0",
     "--seed", "2", "--engine", "reference"],
    ["saturation", "mesh_2", "--size", "16", "--duration", "32",
     "--workload", "bursty", "--workload-param", "on=4",
     "--workload-param", "off=4"],
    ["emulate", "de_bruijn", "mesh_2", "--guest-size", "64",
     "--host-size", "16"],
    ["emulate", "butterfly", "tree", "--guest-size", "32", "--host-size", "8",
     "--steps", "2", "--seed", "5"],
    ["catalog"],
    ["catalog", "mesh_2", "tree", "de_bruijn"],
    ["catalog", "mesh_2", "tree", "--json"],
    ["catalog", "mesh_2", "hypercube", "--workload", "hotspot"],
    ["catalog", "mesh_2", "tree", "--workload", "transpose", "--json"],
    ["tables"],
    ["figure1", "--n", "4096"],
    ["figure1", "--guest", "butterfly", "--host", "tree", "--n", "1024"],
]


def _get(path, query=None, **extra):
    return {"method": "GET", "path": path, "query": query, **extra}


def _post(path, body, **extra):
    raw = body if isinstance(body, str) else json.dumps(body)
    return {"method": "POST", "path": path, "body": raw, **extra}


#: ``default_job`` is ``[alias, required-parameters-only spec]``; the
#: catalog's names the cell job, which runs once per (guest, host).
REQUESTS = [
    _get("/healthz"),
    _get("/metrics"),
    _get("/v1/families"),
    _get("/v1/families", {"ignored": "1"}),
    _get("/v1/workloads"),
    _get("/v1/bandwidth", {"family": "mesh_2", "size": "64"}),
    _get("/v1/bandwidth", {"family": "mesh_2", "size": "64"}, repeat=2),
    _get("/v1/bandwidth",
         {"family": "tree", "size": "63", "seed": "3", "engine": "fast"}),
    _get("/v1/bandwidth", {"family": "mesh_2", "size": "64", "replicates": "3"}),
    _get("/v1/bandwidth",
         {"family": "mesh_2", "size": "64", "workload": "hotspot"}),
    _get("/v1/bandwidth", {"family": "mesh_2"},
         default_job=["measure_bandwidth", {"family": "mesh_2"}]),
    _get("/v1/bandwidth",
         {"family": "ring", "size": "6", "workload": "transpose"}),
    _get("/v1/bandwidth", {"family": "nosuch"}),
    _get("/v1/bandwidth", {}),
    _get("/v1/bandwidth", {"family": "mesh_2", "size": "abc"}),
    _get("/v1/bandwidth", {"family": "mesh_2", "size": "99999"}),
    _get("/v1/bandwidth", {"family": "mesh_2", "seed": "-1"}),
    _get("/v1/bandwidth", {"family": "mesh_2", "replicates": "0"}),
    _get("/v1/bandwidth", {"family": "mesh_2", "bogus": "1"}),
    _get("/v1/bandwidth", {"family": "mesh_2", "workload": "nosuch"}),
    _post("/v1/bandwidth", {"family": "mesh_2"}),
    _get("/v1/catalog", {"guests": "mesh_2,tree", "hosts": "de_bruijn"}),
    _get("/v1/catalog", {},
         default_job=["catalog_cell", None]),
    _get("/v1/catalog",
         {"guests": "mesh_2", "hosts": "tree", "workload": "hotspot"}),
    _get("/v1/catalog", {"guests": "mesh_2,nosuch"}),
    _get("/v1/catalog", {"guests": ","}),
    _get("/v1/catalog", {"hosts": ",".join(["mesh_2"] * 49)}),
    _post("/v1/emulate", {"guest": "de_bruijn", "host": "mesh_2",
                          "guest_size": 64, "host_size": 16, "steps": 2}),
    _post("/v1/emulate", {"guest": "de_bruijn", "host": "mesh_2"},
          default_job=["emulate", {"guest": "de_bruijn", "host": "mesh_2"}]),
    _post("/v1/emulate", {"guest": "de_bruijn", "host": "mesh_2",
                          "guest_size": 64, "host_size": 256}),
    _post("/v1/emulate", {"guest": "de_bruijn", "host": "mesh_2", "steps": 0}),
    _post("/v1/emulate", {"guest": "de_bruijn"}),
    _post("/v1/emulate", "not json"),
    _post("/v1/emulate", "[1, 2]"),
    _get("/v1/emulate", {"guest": "de_bruijn", "host": "mesh_2"}),
    _post("/v1/saturation", {"family": "mesh_2", "size": 16,
                             "rates": [0.2, 0.6], "duration": 32}),
    _post("/v1/saturation", {"family": "xtree"},
          default_job=["saturation_sweep", {"family": "xtree"}]),
    _post("/v1/saturation", {"family": "mesh_2", "size": 16, "duration": 32,
                             "workload": "bursty"}),
    _post("/v1/saturation", {"family": "mesh_2", "rates": [2]}),
    _post("/v1/saturation", {"family": "mesh_2", "duration": 0}),
    _post("/v1/saturation", {"family": "mesh_2", "size": 2048}),
    _post("/v1/saturation", {"family": "mesh_2", "size": "16"}),
    _get("/v1/nope"),
]

_MASK = "<masked>"


def run_cli(argv: list[str]) -> dict:
    """Exit code and stdout of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def _masked(payload: dict) -> dict:
    payload = dict(payload)
    for key in ("pid", "uptime_seconds", "store"):
        if key in payload:
            payload[key] = _MASK
    if isinstance(payload.get("meta"), dict):
        meta = payload["meta"] = dict(payload["meta"])
        for key in ("seconds", "trace_id"):
            if key in meta:
                meta[key] = _MASK
    return payload


def run_request(request: dict, store_dir: Path) -> dict:
    """Status, masked body and computed job hashes of one request, sent
    ``repeat`` times to a fresh service over a fresh store."""
    store = ResultStore(store_dir)
    service = QueryService(store=store)
    body = request.get("body", "").encode()
    for _ in range(request.get("repeat", 1)):
        status, payload = service.handle(
            request["method"], request["path"], request.get("query"), body
        )
    cells = store.root / store.salt
    hashes = sorted(
        json.loads(p.read_text())["hash"] for p in cells.glob("*.json")
    ) if cells.is_dir() else []
    return {
        **request,
        "status": status,
        "response": json.dumps(_masked(payload)),
        "job_hashes": hashes,
    }


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        service = [
            run_request(request, Path(tmp) / str(i))
            for i, request in enumerate(REQUESTS)
        ]
    return {"cli": [run_cli(argv) for argv in CLI_COMMANDS], "service": service}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _label(entry: dict) -> str:
    if "argv" in entry:
        return " ".join(entry["argv"])
    return f"{entry['method']} {entry['path']} {entry.get('query') or entry.get('body', '')}"


GOLDEN_DATA = _golden() if GOLDEN.exists() else {"cli": [], "service": []}


def test_golden_lists_match_the_recorded_inputs():
    assert [e["argv"] for e in GOLDEN_DATA["cli"]] == CLI_COMMANDS
    assert [
        {k: v for k, v in e.items()
         if k not in ("status", "response", "job_hashes")}
        for e in GOLDEN_DATA["service"]
    ] == REQUESTS


@pytest.mark.parametrize("entry", GOLDEN_DATA["cli"], ids=_label)
def test_cli_stdout_is_byte_identical(entry):
    assert run_cli(entry["argv"]) == entry


@pytest.mark.parametrize("index", range(len(GOLDEN_DATA["service"])),
                         ids=lambda i: _label(GOLDEN_DATA["service"][i]))
def test_service_response_and_job_hashes_are_identical(index, tmp_path):
    entry = GOLDEN_DATA["service"][index]
    assert run_request(REQUESTS[index], tmp_path) == entry


DEFAULTS = [e for e in GOLDEN_DATA["service"] if "default_job" in e]


@pytest.mark.parametrize("entry", DEFAULTS, ids=_label)
def test_job_defaults_equal_the_default_response(entry):
    """``Job(alias, required keys only)`` computes the default request's
    value: the job function's defaults are the schema's defaults."""
    payload = json.loads(entry["response"])
    fn, spec = entry["default_job"]
    if fn == "catalog_cell":
        cells = [
            Job(fn, {"guest": guest, "host": host}).run()
            for guest in payload["guests"]
            for host in payload["hosts"]
        ]
        assert canonical_json(cells) == canonical_json(payload["cells"])
    else:
        assert canonical_json(Job(fn, spec).run()) == canonical_json(
            payload["result"]
        )


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
