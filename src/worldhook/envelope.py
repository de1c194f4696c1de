"""Wire formats exchanged between world clients, the gateway, and handlers.

Everything on the wire is UTF-8 JSON. A world client's callout arrives as a
trigger envelope::

    {"request": "on", "requestId": "r1", "worldId": "w", "itemId": "fan",
     "userId": "u1", "timestampMs": 0}

Only ``request`` is mandatory; the other fields are gateway metadata and
default when absent. Handler results are normalized into a single response
document ``{"response": <string>}`` so callers have one parse path, and every
failure serializes to ``{"error": {"code", "message", "request_id"}}``.

All functions here are pure and total: malformed input yields a
:class:`GatewayError` value, never an exception.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Union


class ErrorCode(Enum):
    """Closed set of error codes emitted anywhere in the gateway."""

    MALFORMED_ENVELOPE = "MalformedEnvelope"
    MALFORMED_PAYLOAD = "MalformedPayload"
    UNKNOWN_FUNCTION = "UnknownFunction"
    DEVICE_FAULT = "DeviceFault"
    INTERNAL = "Internal"


class ResponseStatus(Enum):
    """The four response outcomes a handler invocation can have."""

    OK = "Ok"
    BAD_REQUEST = "BadRequest"
    NOT_FOUND = "NotFound"
    HANDLER_ERROR = "HandlerError"


#: HTTP status for each response outcome. No other statuses exist on this wire.
HTTP_STATUS = {
    ResponseStatus.OK: 200,
    ResponseStatus.BAD_REQUEST: 400,
    ResponseStatus.NOT_FOUND: 404,
    ResponseStatus.HANDLER_ERROR: 500,
}

#: Default response outcome for each error code.
_STATUS_FOR_CODE = {
    ErrorCode.MALFORMED_ENVELOPE: ResponseStatus.BAD_REQUEST,
    ErrorCode.MALFORMED_PAYLOAD: ResponseStatus.BAD_REQUEST,
    ErrorCode.UNKNOWN_FUNCTION: ResponseStatus.NOT_FOUND,
    ErrorCode.DEVICE_FAULT: ResponseStatus.HANDLER_ERROR,
    ErrorCode.INTERNAL: ResponseStatus.HANDLER_ERROR,
}

# Envelope wire keys, in emission order.
_WIRE_KEYS = (
    ("request", "request"),
    ("requestId", "request_id"),
    ("worldId", "world_id"),
    ("itemId", "item_id"),
    ("userId", "user_id"),
    ("timestampMs", "timestamp_ms"),
)


@dataclass(frozen=True)
class TriggerEnvelope:
    """One world-to-gateway callout.

    ``request`` carries the script's payload string verbatim. ``user_id`` is
    "" for item-originated events with no interacting user. ``timestamp_ms``
    is milliseconds since the Unix epoch (world scenarios use virtual time).
    """

    request: str
    request_id: str
    world_id: str = ""
    item_id: str = ""
    user_id: str = ""
    timestamp_ms: int = 0


@dataclass(frozen=True)
class GatewayError:
    """Structured failure value; ``request_id`` is "" when unknown or sent empty."""

    code: ErrorCode
    message: str
    request_id: str = ""

    def to_json_dict(self) -> dict:
        return {
            "error": {
                "code": self.code.value,
                "message": self.message,
                "request_id": self.request_id,
            }
        }


@dataclass(frozen=True)
class HandlerResponse:
    """A handler's result plus its outcome.

    For OK the body is a plain string or any JSON value. For the three error
    outcomes the body is the underlying :class:`GatewayError`.
    """

    status: ResponseStatus
    body: Any

    @classmethod
    def ok(cls, body: Any) -> "HandlerResponse":
        return cls(ResponseStatus.OK, body)

    @classmethod
    def from_error(cls, err: GatewayError, status: ResponseStatus | None = None) -> "HandlerResponse":
        return cls(status or _STATUS_FOR_CODE[err.code], err)


@dataclass(frozen=True)
class SmartHomeRequest:
    """Reflective smart-home command: function name plus call arguments."""

    function_name: str
    args: list = field(default_factory=list)
    kwargs: dict = field(default_factory=dict)


# One encoder per wire format, built once: json.dumps with any non-default
# argument builds a new JSONEncoder on every call. Encoders keep no state
# between calls, so threads share them.
_CANONICAL = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"))
_COMPACT = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    """Canonical text of a JSON value: sorted keys, no whitespace, raw UTF-8."""
    return _CANONICAL.encode(value)


def new_request_id() -> str:
    """Opaque request token, unique within (at least) one process run."""
    return uuid.uuid4().hex


def encode_envelope(env: TriggerEnvelope) -> bytes:
    """Encode an envelope to its UTF-8 JSON wire form with exactly six fields."""
    doc = {wire: getattr(env, attr) for wire, attr in _WIRE_KEYS}
    return _COMPACT.encode(doc).encode("utf-8")


def decode_envelope(raw: bytes) -> Union[TriggerEnvelope, GatewayError]:
    """Decode wire bytes into an envelope.

    ``request`` must be present and a string. Missing metadata defaults
    (``requestId`` is generated, strings default to "", ``timestampMs`` to 0);
    metadata present with a wrong type, or a negative timestamp, is rejected so
    that a successful decode always satisfies the envelope invariants. Other
    metadata is kept as sent, an empty ``requestId`` included, so decoding
    inverts :func:`encode_envelope`. Unknown extra fields are ignored. Total:
    returns a GatewayError rather than raising, whatever the input bytes.
    """
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting, huge ints
        return GatewayError(ErrorCode.MALFORMED_ENVELOPE, f"body is not JSON: {exc}")
    if not isinstance(doc, dict):
        return GatewayError(ErrorCode.MALFORMED_ENVELOPE, "body is not a JSON object")
    if "request" not in doc:
        return GatewayError(ErrorCode.MALFORMED_ENVELOPE, "missing required field 'request'")
    if not isinstance(doc["request"], str):
        return GatewayError(ErrorCode.MALFORMED_ENVELOPE, "'request' must be a string")

    fields: dict[str, Any] = {"request": doc["request"]}
    for wire, attr in _WIRE_KEYS[1:]:
        if wire not in doc:
            continue
        value = doc[wire]
        if attr == "timestamp_ms":
            # bool is an int subclass; reject it explicitly.
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                return GatewayError(
                    ErrorCode.MALFORMED_ENVELOPE, "'timestampMs' must be a non-negative integer"
                )
        elif not isinstance(value, str):
            return GatewayError(ErrorCode.MALFORMED_ENVELOPE, f"'{wire}' must be a string")
        fields[attr] = value
    if "request_id" not in fields:
        fields["request_id"] = new_request_id()
    return TriggerEnvelope(**fields)


def _reject_constant(name: str) -> Any:
    raise ValueError(f"{name} is not a JSON number")


# Built once, like the encoders: json.loads with parse_constant builds a new
# decoder, and reads six of its attributes by name, on every call.
_SMARTHOME_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def parse_smarthome_request(payload: str) -> Union[SmartHomeRequest, GatewayError]:
    """Parse an envelope's ``request`` string as a smart-home command.

    ``args`` and ``kwargs`` default to empty when absent. Key order inside
    ``kwargs`` is not significant. ``NaN`` and ``Infinity`` are rejected: they
    are not JSON, and the cloud API could not be sent them. Total: returns a
    GatewayError rather than raising, whatever the input text.
    """
    try:
        doc = _SMARTHOME_DECODER.decode(payload)
    except (ValueError, RecursionError) as exc:  # bad JSON, NaN, deep nesting, huge ints
        return GatewayError(ErrorCode.MALFORMED_PAYLOAD, f"payload is not JSON: {exc}")
    if not isinstance(doc, dict):
        return GatewayError(ErrorCode.MALFORMED_PAYLOAD, "payload is not a JSON object")
    name = doc.get("function_name")
    if not isinstance(name, str) or not name:
        return GatewayError(
            ErrorCode.MALFORMED_PAYLOAD, "missing or empty 'function_name'"
        )
    args = doc.get("args", [])
    kwargs = doc.get("kwargs", {})
    if not isinstance(args, list):
        return GatewayError(ErrorCode.MALFORMED_PAYLOAD, "'args' must be an array")
    if not isinstance(kwargs, dict):
        return GatewayError(ErrorCode.MALFORMED_PAYLOAD, "'kwargs' must be an object")
    return SmartHomeRequest(name, args, kwargs)


def serialize_response(resp: HandlerResponse) -> tuple[int, bytes]:
    """Map a handler response to its (http_status, body) wire form.

    OK bodies that are not already strings are embedded as their canonical
    JSON text, so an OK document is always ``{"response": <string>}``.
    """
    status = HTTP_STATUS[resp.status]
    if resp.status is ResponseStatus.OK:
        body = resp.body if isinstance(resp.body, str) else canonical_json(resp.body)
        doc = {"response": body}
    else:
        err = resp.body
        if not isinstance(err, GatewayError):
            err = GatewayError(ErrorCode.INTERNAL, str(err))
        doc = err.to_json_dict()
    return status, _COMPACT.encode(doc).encode("utf-8")
