"""Schema-driven error fuzzing for the query service and the CLI.

The request generator is derived from the same table both front-ends
validate against (:data:`repro.operations.OPERATIONS`), so every route,
command and field is fuzzed automatically as the schema surface grows
-- no per-endpoint strategy to keep in sync.  For each drawn request (a
mix of valid, missing, mistyped, out-of-range, and unknown parameters,
plus malformed JSON bodies and bogus routes) the service must answer
with a well-formed JSON envelope:

* never a 500 (``handle`` converting a handler exception to 500 is a
  bug-report channel, not an input-validation channel);
* success payloads are JSON-serializable dicts;
* failure payloads carry the ``{"error": {"code", "message"}}`` shape.

The CLI leg renders each drawn ``bandwidth``, ``saturation`` or
``emulate`` request as argv: the command must succeed, stop with
argparse's usage error, or exit with one ``error: ...`` line -- never
a traceback.

Valid numeric draws are pinned near each field's minimum so the compute
paths stay cheap (machines of a few dozen nodes, short durations).
"""

from __future__ import annotations

import contextlib
import io
import json
from typing import Any

from hypothesis import given
from hypothesis import strategies as st

from tests.hypothesis_profiles import SLOW, STANDARD

from repro.cli import main
from repro.operations import OPERATIONS, Field
from repro.service.app import QueryService
from repro.topologies import all_family_keys
from repro.workloads import all_workload_keys

#: Shared service instance: the cache layer is part of the fuzzed
#: surface (a cached reply must be as well-formed as a computed one).
SERVICE = QueryService()

#: Every route with its schema: the shared operations, plus the two
#: service-only endpoints, which take no parameters.
ROUTES = {(op.method, op.route): op.schema for op in OPERATIONS.values()}
ROUTES.update({("GET", "/healthz"): None, ("GET", "/metrics"): None})

_JUNK_STRINGS = st.sampled_from(
    ["", "nosuch", "mesh_2;drop", "NaN", "1e309", "-", "🦑", "none", "[1]"]
)


def _small_valid_number(field: Field) -> st.SearchStrategy[Any]:
    low = field.minimum if field.minimum is not None else 0
    high = field.maximum if field.maximum is not None else low + 14
    high = min(high, low + 14)
    if field.kind in ("int",):
        return st.integers(min_value=int(low), max_value=int(high))
    return st.floats(
        min_value=float(low), max_value=float(high),
        allow_nan=False, allow_infinity=False,
    )


def _valid_value(field: Field) -> st.SearchStrategy[Any]:
    if field.kind in ("int", "float"):
        return _small_valid_number(field)
    if field.kind == "str":
        if field.choices:
            return st.sampled_from(sorted(field.choices))
        return st.sampled_from(["a", "b"])
    if field.kind == "family":
        return st.sampled_from(all_family_keys())
    if field.kind == "workload":
        # structurally-constrained scenarios (transpose, bit_reversal)
        # may 500-adjacent fail on odd sizes unless the service maps the
        # ValueError; include them on purpose.
        return st.sampled_from(all_workload_keys())
    if field.kind == "family_list":
        return st.lists(
            st.sampled_from(all_family_keys()), min_size=1, max_size=3
        ).map(",".join)
    if field.kind == "float_list":
        return st.lists(
            _small_valid_number(Field(field.name, "float",
                                      minimum=field.minimum,
                                      maximum=field.maximum)),
            min_size=1, max_size=3,
        ).map(lambda xs: ",".join(str(x) for x in xs))
    raise AssertionError(field.kind)


def _invalid_value(field: Field) -> st.SearchStrategy[Any]:
    options: list[st.SearchStrategy[Any]] = [_JUNK_STRINGS]
    if field.kind in ("int", "float"):
        options.append(st.sampled_from(["-1", "999999999999", "0.0001"]))
        options.append(st.booleans())
        options.append(st.lists(st.integers(), max_size=2))
    if field.kind in ("family", "workload", "str"):
        options.append(st.integers())
    if field.kind in ("family_list", "float_list"):
        options.append(st.just(","))
        options.append(st.just(",".join(["mesh_2"] * 100)))
    return st.one_of(options)


def _draw_params(draw, schema) -> dict[str, Any]:
    """Each field omitted, valid or invalid, plus maybe an unknown key."""
    params: dict[str, Any] = {}
    for name, field in schema.fields.items():
        mode = draw(
            st.sampled_from(["omit", "valid", "valid", "valid", "invalid"])
        )
        if mode == "omit":
            continue
        strategy = _valid_value(field) if mode == "valid" else _invalid_value(field)
        params[name] = draw(strategy)
    if draw(st.booleans()):
        params[draw(st.sampled_from(["bogus", "family ", "_seed"]))] = "1"
    return params


@st.composite
def requests(draw) -> tuple[str, str, dict[str, Any] | None, bytes]:
    """One (method, path, query, body) request, valid or adversarial."""
    method, path = draw(st.sampled_from(sorted(ROUTES)))
    schema = ROUTES[(method, path)]

    # occasionally hit a bogus route or the wrong method
    twist = draw(st.sampled_from(["ok", "ok", "ok", "route", "method"]))
    if twist == "route":
        path = draw(st.sampled_from(["/v1/nope", "/", "/v1/bandwidth/extra"]))
    elif twist == "method":
        method = "POST" if method == "GET" else "GET"

    if schema is None:
        return method, path, None, b""

    params = _draw_params(draw, schema)
    if method == "POST":
        body_kind = draw(st.sampled_from(["json", "json", "json", "garbage"]))
        if body_kind == "garbage":
            body = draw(st.sampled_from(
                [b"", b"not json", b"[1, 2]", b'"str"', b"\xff\xfe"]
            ))
        else:
            body = json.dumps(params).encode()
        return method, path, None, body

    # GET: query-string values are always text
    query = {
        k: v if isinstance(v, str) else json.dumps(v)
        for k, v in params.items()
    }
    return method, path, query, b""


class TestServiceNever500s:
    @STANDARD
    @given(request=requests())
    def test_envelope_always_well_formed(self, request):
        method, path, query, body = request
        status, payload = SERVICE.handle(method, path, query, body)
        assert status != 500, (request, payload)
        assert isinstance(payload, dict)
        json.dumps(payload)  # transport-serializable
        if status >= 400:
            assert set(payload["error"]) == {"code", "message"}, payload
            assert payload["error"]["code"] != "internal_error"

    def test_structural_workload_mismatch_is_not_a_500(self):
        """transpose at a non-square size reaches the builder, whose
        ValueError must surface as a 4xx envelope, not a 500."""
        status, payload = SERVICE.handle(
            "GET", "/v1/bandwidth",
            {"family": "ring", "size": "6", "workload": "transpose"},
        )
        assert status == 422, payload
        assert payload["error"]["code"] != "internal_error"


def _cli_text(value: Any) -> list[str]:
    """A drawn value as CLI words: lists (and comma lists) word by word."""
    if isinstance(value, list):
        return [str(v) for v in value] or [""]
    if isinstance(value, str) and "," in value:
        return value.split(",")
    return [json.dumps(value) if isinstance(value, bool) else str(value)]


@st.composite
def cli_argvs(draw) -> list[str]:
    """A drawn bandwidth/saturation/emulate request rendered as argv:
    required fields positional, the rest ``--dashed`` (a key no field
    has becomes an unknown flag)."""
    name = draw(st.sampled_from(["bandwidth", "saturation", "emulate"]))
    schema = OPERATIONS[name].schema
    argv, flags = [name], []
    for key, value in _draw_params(draw, schema).items():
        field = schema.fields.get(key)
        if field is not None and field.required:
            argv.append(_cli_text(value)[0])
        else:
            flags += ["--" + key.replace("_", "-"), *_cli_text(value)]
    return argv + flags


class TestCliNeverTracebacks:
    @SLOW
    @given(argv=cli_argvs())
    def test_cli_exits_cleanly(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                if exc.code == 2:  # argparse's usage error
                    return
                assert isinstance(exc.code, str), (argv, exc.code)
                assert exc.code.startswith("error: "), (argv, exc.code)
                assert "\n" not in exc.code and "Traceback" not in exc.code
                return
        assert code == 0, argv
