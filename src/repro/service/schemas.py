"""Declarative request schemas for the query service.

Each endpoint owns a :class:`Schema` -- an ordered set of typed
:class:`Field`\\ s -- and validation is the *only* path from raw request
input (query-string pairs or a JSON body) to a job spec.  The contract:

* every parameter is **typed** (``int``/``float``/``str``/lists
  thereof), and query-string values are coerced from text;
* machine-family parameters are checked against the live registry
  (:data:`repro.topologies.registry.FAMILIES`), never against a copied
  list that could drift;
* numeric parameters are **bounded** so a single request cannot ask the
  server to build a million-node machine;
* failures raise :class:`ApiError` carrying the HTTP status and a
  machine-readable error code, rendered by the transport layer as
  ``{"error": {"code": ..., "message": ...}}``.

Status-code convention: ``400`` for malformed input (bad type, unknown
or missing parameter, invalid JSON), ``404`` for a well-formed name
that does not exist (unknown family, unknown route), ``422`` for
well-typed values outside their allowed range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.routing.simulator import DEFAULT_ENGINE

__all__ = [
    "ApiError",
    "BANDWIDTH_SCHEMA",
    "CATALOG_SCHEMA",
    "EMULATE_SCHEMA",
    "ENDPOINT_SCHEMAS",
    "Field",
    "MAX_MACHINE_SIZE",
    "MAX_SEED",
    "SATURATION_SCHEMA",
    "Schema",
]

#: Largest machine any endpoint will build.  Dense next-hop tables are
#: O(n^2) int32 (see docs/PERFORMANCE.md): ~200 MB at n=4096, which is
#: the practical per-request ceiling for a shared server.
MAX_MACHINE_SIZE = 4096

#: Largest accepted seed (fits any 32-bit rng path).
MAX_SEED = 2**31 - 1

#: ``engine`` choices on the compute endpoints.  ``compiled`` is left
#: out: ``auto`` already picks it when it builds and never raises.
_ENGINES = ("auto", "fast", "reference")


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


def _known_families() -> list[str]:
    from repro.topologies.registry import FAMILIES

    return sorted(FAMILIES)


def _known_workloads() -> list[str]:
    from repro.workloads.registry import WORKLOADS

    return sorted(WORKLOADS)


@dataclass(frozen=True)
class Field:
    """One typed request parameter.

    ``kind`` is one of ``"int"``, ``"float"``, ``"str"``, ``"family"``
    (a registry-checked family key), ``"workload"`` (a registry-checked
    traffic-scenario key), ``"family_list"`` or
    ``"float_list"`` (comma-separated in a query string, JSON arrays in
    a body).  ``minimum``/``maximum`` bound numbers (elementwise for
    lists); ``choices`` restricts strings; ``max_items`` bounds lists.
    A field with neither ``required`` nor a ``default`` is simply
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
                f"known: {', '.join(_known_families())}",
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
                f"known: {', '.join(_known_workloads())}",
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
        if (low is not None and number < low) or (
            high is not None and number > high
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
    """A fixed set of :class:`Field`\\ s; ``validate`` is the only API."""

    def __init__(self, *fields: Field) -> None:
        self.fields: dict[str, Field] = {f.name: f for f in fields}

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
        return out


# -- endpoint schemas ---------------------------------------------------------
#
# Defined here (not in app.py) so they form a single machine-readable
# registry: the fuzz suite walks ENDPOINT_SCHEMAS to generate both valid
# and adversarial requests for every compute endpoint.


def _default_catalog_keys() -> tuple[str, ...]:
    from repro.service.serializers import DEFAULT_CATALOG_KEYS

    return DEFAULT_CATALOG_KEYS


BANDWIDTH_SCHEMA = Schema(
    Field("family", "family", required=True),
    Field("size", "int", default=256, minimum=2, maximum=MAX_MACHINE_SIZE),
    Field("seed", "int", default=0, minimum=0, maximum=MAX_SEED),
    Field("engine", "str", default=DEFAULT_ENGINE, choices=_ENGINES),
    # replicates > 1 switches to the seed-replicated estimate (seeds
    # seed, seed+1, ...); batch=0 opts out of the batched multi-run
    # kernel (same values, slower -- an equivalence escape hatch).
    Field("replicates", "int", default=1, minimum=1, maximum=64),
    Field("batch", "int", default=1, minimum=0, maximum=1),
    # No default: an absent workload key is absent from the job spec
    # too, so pre-workload cache entries stay valid.
    Field("workload", "workload"),
)

CATALOG_SCHEMA = Schema(
    Field(
        "guests", "family_list",
        default=_default_catalog_keys(), max_items=48,
    ),
    Field(
        "hosts", "family_list",
        default=_default_catalog_keys(), max_items=48,
    ),
    Field("workload", "workload"),
)

EMULATE_SCHEMA = Schema(
    Field("guest", "family", required=True),
    Field("host", "family", required=True),
    Field("guest_size", "int", default=256, minimum=4, maximum=MAX_MACHINE_SIZE),
    Field("host_size", "int", default=64, minimum=2, maximum=MAX_MACHINE_SIZE),
    Field("steps", "int", default=4, minimum=1, maximum=256),
    Field("seed", "int", default=0, minimum=0, maximum=MAX_SEED),
)

SATURATION_SCHEMA = Schema(
    Field("family", "family", required=True),
    Field("size", "int", default=64, minimum=2, maximum=1024),
    Field("rates", "float_list", minimum=1e-6, maximum=1.0, max_items=64),
    Field("duration", "int", default=128, minimum=1, maximum=4096),
    Field("seed", "int", default=0, minimum=0, maximum=MAX_SEED),
    Field("engine", "str", default=DEFAULT_ENGINE, choices=_ENGINES),
    Field("workload", "workload"),
)

#: Every route the service serves, with its request schema (``None`` for
#: parameterless endpoints).  :class:`repro.service.app.QueryService`
#: builds its dispatch table from handler names; this registry is the
#: schema source of truth the fuzz tests generate requests from.
ENDPOINT_SCHEMAS: dict[tuple[str, str], "Schema | None"] = {
    ("GET", "/healthz"): None,
    ("GET", "/metrics"): None,
    ("GET", "/v1/families"): None,
    ("GET", "/v1/workloads"): None,
    ("GET", "/v1/bandwidth"): BANDWIDTH_SCHEMA,
    ("GET", "/v1/catalog"): CATALOG_SCHEMA,
    ("POST", "/v1/emulate"): EMULATE_SCHEMA,
    ("POST", "/v1/saturation"): SATURATION_SCHEMA,
}
