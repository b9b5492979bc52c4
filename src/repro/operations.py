"""The queries the CLI and the query service share, declared once.

:data:`OPERATIONS` holds, per operation, the CLI command, the HTTP
route, the request :class:`Schema` and the validated-params -> harness
job mapping the service runs.  :mod:`repro.cli` generates its query
arguments from the schemas and :mod:`repro.service.app` its routes, and
both validate through :meth:`Schema.validate`, so every parameter has
one type, default, bound and error message.  This module sits outside
:mod:`repro.service` so the CLI imports it without the HTTP stack, and
it takes the engine names from :mod:`repro.routing.engine_names`, so it
loads no numpy either.

The schema contract: every parameter is **typed**, and text values
(query strings, CLI arguments) are coerced; family and workload keys
are checked against the live registries, never a copied list; numbers
are **bounded**, so one request cannot ask for a million-node machine.
Failures raise :class:`ApiError` with an HTTP status and a
machine-readable code: ``400`` for malformed input (bad type, unknown or
missing parameter, invalid JSON), ``404`` for a well-formed name that
does not exist, ``422`` for a well-typed value out of range, ``501`` for
a capability this host lacks.  The service renders it as
``{"error": {"code": ..., "message": ...}}``, the CLI as one
``error: <message>`` line; :func:`client_error` maps any other raised
exception onto the same envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.routing.engine_names import DEFAULT_ENGINE, ENGINES
from repro.util.validation import UnavailableError

if TYPE_CHECKING:
    from repro.harness import Job

__all__ = [
    "ApiError",
    "DEFAULT_CATALOG_KEYS",
    "Field",
    "MAX_MACHINE_SIZE",
    "MAX_SEED",
    "OPERATIONS",
    "Operation",
    "Schema",
    "catalog_jobs",
    "client_error",
]

#: Largest machine any endpoint will build.  Dense next-hop tables are
#: O(n^2) int32 (see docs/PERFORMANCE.md): ~200 MB at n=4096, which is
#: the practical per-request ceiling for a shared server.
MAX_MACHINE_SIZE = 4096

#: Largest accepted seed (fits any 32-bit rng path).
MAX_SEED = 2**31 - 1

#: The representative guest/host subset the catalog defaults to (one
#: family per Table-4 bandwidth class, small enough to eyeball).
DEFAULT_CATALOG_KEYS = (
    "linear_array", "tree", "xtree", "mesh_2", "mesh_3",
    "butterfly", "de_bruijn", "hypercube",
)


class ApiError(Exception):
    """A request rejection: HTTP status + machine-readable code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message

    def body(self) -> dict[str, Any]:
        """The JSON error envelope every failing response uses."""
        return {"error": {"code": self.code, "message": self.message}}


def client_error(exc: Exception) -> ApiError | None:
    """The rejection a caller sees for ``exc``; ``None`` for a bug.

    Domain ``ValueError``\\ s (a spec the computation refuses, a corrupt
    snapshot) are the caller's fault: 422.  An
    :class:`~repro.util.validation.UnavailableError` (no C toolchain for
    ``engine=compiled``, no pre-fork support) is a 501 named by its
    ``code``.  The CLI prints any of these as one ``error:`` line; the
    service answers anything else with a 500.
    """
    if isinstance(exc, ApiError):
        return exc
    if isinstance(exc, UnavailableError):
        return ApiError(501, exc.code, str(exc))
    if isinstance(exc, ValueError):
        return ApiError(422, "invalid_argument", f"{type(exc).__name__}: {exc}")
    return None


@dataclass(frozen=True)
class Field:
    """One typed request parameter.

    ``kind`` is one of ``"int"``, ``"float"``, ``"str"``, ``"family"``
    (a registry-checked family key), ``"workload"`` (a registry-checked
    traffic-scenario key), ``"family_list"`` or
    ``"float_list"`` (comma-separated in a query string, JSON arrays in
    a body, repeated arguments on the CLI).  ``minimum``/``maximum``
    bound numbers (elementwise for lists); ``choices`` restricts
    strings; ``max_items`` bounds lists; ``help`` is the CLI's help
    line.  A field with neither ``required`` nor a ``default`` is simply
    omitted from the validated spec when absent, so job-function
    defaults (and therefore job hashes) stay aligned with the CLI.
    """

    name: str
    kind: str = "str"
    required: bool = False
    default: Any = None
    minimum: float | None = None
    maximum: float | None = None
    choices: tuple[str, ...] | None = None
    max_items: int | None = None
    help: str = ""

    def coerce(self, value: Any) -> Any:
        """Raw query/body value -> typed value, or raise :class:`ApiError`."""
        if self.kind == "int":
            return self._bounded(self._int(value))
        if self.kind == "float":
            return self._bounded(self._float(value))
        if self.kind == "str":
            return self._str(value)
        if self.kind == "family":
            return self._family(value)
        if self.kind == "workload":
            return self._workload(value)
        if self.kind == "family_list":
            items = [self._family(v) for v in self._items(value)]
            return self._sized(items)
        if self.kind == "float_list":
            items = [self._bounded(self._float(v)) for v in self._items(value)]
            return self._sized(items)
        raise AssertionError(f"unknown field kind {self.kind!r}")

    # -- scalar coercions ---------------------------------------------------

    def _int(self, value: Any) -> int:
        if isinstance(value, bool) or isinstance(value, float):
            raise self._bad_type(value, "an integer")
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            try:
                return int(value, 10)
            except ValueError:
                raise self._bad_type(value, "an integer") from None
        raise self._bad_type(value, "an integer")

    def _float(self, value: Any) -> float:
        if isinstance(value, bool):
            raise self._bad_type(value, "a number")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                raise self._bad_type(value, "a number") from None
        raise self._bad_type(value, "a number")

    def _str(self, value: Any) -> str:
        if not isinstance(value, str):
            raise self._bad_type(value, "a string")
        if self.choices and value not in self.choices:
            raise ApiError(
                400,
                "invalid_parameter",
                f"parameter {self.name!r} must be one of "
                f"{sorted(self.choices)}, got {value!r}",
            )
        return value

    def _family(self, value: Any) -> str:
        if not isinstance(value, str):
            raise self._bad_type(value, "a family key")
        from repro.topologies.registry import FAMILIES

        if value not in FAMILIES:
            raise ApiError(
                404,
                "unknown_family",
                f"unknown machine family {value!r}; "
                f"known: {', '.join(sorted(FAMILIES))}",
            )
        return value

    def _workload(self, value: Any) -> str:
        if not isinstance(value, str):
            raise self._bad_type(value, "a workload key")
        from repro.workloads.registry import WORKLOADS

        if value not in WORKLOADS:
            raise ApiError(
                404,
                "unknown_workload",
                f"unknown workload {value!r}; "
                f"known: {', '.join(sorted(WORKLOADS))}",
            )
        return value

    # -- list handling ------------------------------------------------------

    def _items(self, value: Any) -> list[Any]:
        if isinstance(value, str):
            return [item for item in value.split(",") if item]
        if isinstance(value, list):
            return value
        raise self._bad_type(value, "a list (or comma-separated string)")

    def _sized(self, items: list[Any]) -> list[Any]:
        if not items:
            raise ApiError(
                400, "invalid_parameter", f"parameter {self.name!r} is empty"
            )
        if self.max_items is not None and len(items) > self.max_items:
            raise ApiError(
                422,
                "out_of_range",
                f"parameter {self.name!r} accepts at most "
                f"{self.max_items} items, got {len(items)}",
            )
        return items

    # -- bounds and errors --------------------------------------------------

    def _bounded(self, number: int | float) -> int | float:
        low, high = self.minimum, self.maximum
        # "not >=" rather than "<": NaN compares false, so it is out of range.
        if (low is not None and not number >= low) or (
            high is not None and not number <= high
        ):
            span = (
                f">= {low}" if high is None
                else f"<= {high}" if low is None
                else f"in [{low}, {high}]"
            )
            raise ApiError(
                422,
                "out_of_range",
                f"parameter {self.name!r} must be {span}, got {number}",
            )
        return number

    def _bad_type(self, value: Any, expected: str) -> ApiError:
        return ApiError(
            400,
            "invalid_parameter",
            f"parameter {self.name!r} must be {expected}, got {value!r}",
        )


class Schema:
    """A fixed set of :class:`Field`\\ s; ``validate`` is the only API.

    ``check`` (optional) runs on the validated spec for constraints that
    span fields, and raises :class:`ApiError` like a field would.
    """

    def __init__(
        self, *fields: Field, check: Callable[[dict], None] | None = None
    ) -> None:
        self.fields: dict[str, Field] = {f.name: f for f in fields}
        self.check = check

    def validate(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Raw request parameters -> validated, typed spec dict.

        Unknown keys are rejected (a typo'd parameter silently falling
        back to its default is the worst failure mode for a cache-keyed
        service: the response would not match the request).
        """
        unknown = sorted(set(params) - set(self.fields))
        if unknown:
            raise ApiError(
                400,
                "unknown_parameter",
                f"unknown parameter(s) {', '.join(map(repr, unknown))}; "
                f"accepted: {', '.join(sorted(self.fields))}",
            )
        out: dict[str, Any] = {}
        for name, field in self.fields.items():
            if name not in params:
                if field.required:
                    raise ApiError(
                        400,
                        "missing_parameter",
                        f"missing required parameter {name!r}",
                    )
                if field.default is not None:
                    default = field.default
                    out[name] = list(default) if isinstance(default, tuple) else default
                continue
            out[name] = field.coerce(params[name])
        if self.check is not None:
            self.check(out)
        return out


@dataclass(frozen=True)
class Operation:
    """One query: its CLI command, HTTP route, schema and job.

    ``job`` maps validated params to the harness job the service runs
    (and caches by content hash); it is ``None`` where the service
    answers without one job (the registries, the catalog's many cells).
    """

    name: str
    method: str
    route: str
    help: str
    schema: Schema | None = None
    job: Callable[[dict], Job] | None = None


def _job(fn: str, spec: Mapping[str, Any]) -> Job:
    # Imported here: the CLI's cold path validates but never builds jobs.
    from repro.harness import Job

    return Job(fn, spec)


def _bandwidth_job(params: dict) -> Job:
    spec = dict(params)
    if spec["replicates"] > 1:
        # The seed-replicated estimate (seeds seed, seed+1, ...) on the
        # batched multi-run kernel.
        spec["base_seed"] = spec.pop("seed")
        return _job("measure_bandwidth_batch", spec)
    # Single-seed path: the replication-only knob stays out of the job
    # spec, so the cache key is unchanged from before it existed.
    del spec["replicates"]
    return _job("measure_bandwidth", spec)


def catalog_jobs(params: Mapping[str, Any]) -> list[Job]:
    """The ``catalog_cell`` jobs of validated catalog params, hosts fastest."""
    extra = {} if params.get("workload") is None else {"workload": params["workload"]}
    return [
        _job("catalog_cell", {"guest": guest, "host": host, **extra})
        for guest in params["guests"]
        for host in params["hosts"]
    ]


def _host_fits_guest(params: dict) -> None:
    if params["host_size"] > params["guest_size"]:
        raise ApiError(
            422,
            "out_of_range",
            "host_size must be <= guest_size: emulation slowdown is "
            "only meaningful for |H| <= |G|",
        )


_FAMILY = Field(
    "family", "family", required=True,
    help="machine family key (list them: 'python -m repro families')",
)
_SEED = Field(
    "seed", "int", default=0, minimum=0, maximum=MAX_SEED, help="rng seed"
)
_ENGINE = Field(
    "engine", "str", default=DEFAULT_ENGINE, choices=ENGINES,
    help="routing engine (all give identical results; see "
    "docs/PERFORMANCE.md for when each wins)",
)
# No default: an absent workload key is absent from the job spec too,
# so pre-workload cache entries stay valid.
_WORKLOAD = Field(
    "workload", "workload",
    help="traffic scenario key (list them: 'python -m repro workloads'); "
    "default symmetric",
)

#: Every operation the CLI and the service share, by CLI command name.
OPERATIONS: dict[str, Operation] = {
    op.name: op
    for op in (
        Operation("families", "GET", "/v1/families", "list machine families"),
        Operation("workloads", "GET", "/v1/workloads", "list traffic scenarios"),
        Operation(
            "bandwidth", "GET", "/v1/bandwidth",
            "measure a machine's bandwidth",
            Schema(
                _FAMILY,
                Field("size", "int", default=256, minimum=2,
                      maximum=MAX_MACHINE_SIZE, help="machine size"),
                _SEED,
                _ENGINE,
                Field("replicates", "int", default=1, minimum=1, maximum=64,
                      help="also replicate the measurement over this many "
                      "seeds (batched kernel) and report its mean, p50 and "
                      "95-percent CI"),
                _WORKLOAD,
            ),
            _bandwidth_job,
        ),
        Operation(
            "catalog", "GET", "/v1/catalog", "guest x host matrix",
            Schema(
                Field("guests", "family_list", default=DEFAULT_CATALOG_KEYS,
                      max_items=48, help="guest family keys"),
                Field("hosts", "family_list", default=DEFAULT_CATALOG_KEYS,
                      max_items=48, help="host family keys"),
                _WORKLOAD,
            ),
        ),
        Operation(
            "emulate", "POST", "/v1/emulate", "emulate guest on host",
            Schema(
                Field("guest", "family", required=True, help="guest family key"),
                Field("host", "family", required=True, help="host family key"),
                Field("guest_size", "int", default=256, minimum=4,
                      maximum=MAX_MACHINE_SIZE, help="guest machine size"),
                Field("host_size", "int", default=64, minimum=2,
                      maximum=MAX_MACHINE_SIZE,
                      help="host machine size (at most the guest size)"),
                Field("steps", "int", default=4, minimum=1, maximum=256,
                      help="guest steps to emulate"),
                _SEED,
                check=_host_fits_guest,
            ),
            lambda params: _job("emulate", params),
        ),
        Operation(
            "saturation", "POST", "/v1/saturation",
            "offered-load saturation sweep",
            Schema(
                _FAMILY,
                Field("size", "int", default=64, minimum=2, maximum=1024,
                      help="machine size"),
                Field("rates", "float_list", minimum=1e-6, maximum=1.0,
                      max_items=64,
                      help="offered per-node rates in (0, 1] (default: a "
                      "fixed ladder)"),
                Field("duration", "int", default=128, minimum=1, maximum=4096,
                      help="ticks of injection at each rate"),
                _SEED,
                _ENGINE,
                _WORKLOAD,
            ),
            lambda params: _job("saturation_sweep", params),
        ),
    )
}
