import json
import random

import pytest
from hypothesis import given, strategies as st

from worldhook.devices import DeviceRegistry
from worldhook.envelope import (
    ErrorCode,
    GatewayError,
    HandlerResponse,
    ResponseStatus,
    SmartHomeRequest,
    TriggerEnvelope,
    canonical_json,
    decode_envelope,
    encode_envelope,
    parse_smarthome_request,
    serialize_response,
)
from worldhook.gateway import GatewayConfig, HandlerRegistration, RequestDispatcher
from worldhook.tunnel import TokenRegistry

# Character pool for payload fuzzing: quotes, backslashes, control characters,
# and a spread of non-ASCII codepoints.
_POOL = (
    'abcXYZ0123456789 "\'\\\n\t\r{}[]:,$'
    "éßあ人☃\U0001f600​"
)


def random_text(rng: random.Random, max_len: int = 40) -> str:
    return "".join(rng.choice(_POOL) for _ in range(rng.randrange(max_len)))


def random_envelope(rng: random.Random) -> TriggerEnvelope:
    return TriggerEnvelope(
        request=random_text(rng, 60),
        request_id=f"req-{rng.getrandbits(48):012x}",
        world_id=random_text(rng, 10),
        item_id=random_text(rng, 10),
        user_id=random_text(rng, 10),
        timestamp_ms=rng.randrange(2**40),
    )


class TestEncodeEnvelope:
    def test_exact_wire_form(self):
        env = TriggerEnvelope(request="on", request_id="r1", world_id="w",
                              item_id="fan", user_id="u1", timestamp_ms=0)
        assert encode_envelope(env) == (
            b'{"request":"on","requestId":"r1","worldId":"w","itemId":"fan",'
            b'"userId":"u1","timestampMs":0}'
        )

    def test_empty_request_string(self):
        env = TriggerEnvelope(request="", request_id="r1")
        doc = json.loads(encode_envelope(env))
        assert doc["request"] == ""

    def test_exactly_six_fields(self):
        doc = json.loads(encode_envelope(TriggerEnvelope("x", "r")))
        assert sorted(doc) == sorted(
            ["request", "requestId", "worldId", "itemId", "userId", "timestampMs"])

    def test_round_trip_with_awkward_strings(self):
        # Oracle: decode(encode(e)) must reproduce e field for field, for
        # payloads full of quotes, newlines, and non-ASCII text.
        rng = random.Random(0xE17)
        for _ in range(1000):
            env = random_envelope(rng)
            assert decode_envelope(encode_envelope(env)) == env


class TestDecodeEnvelope:
    def test_metadata_defaults(self):
        env = decode_envelope(b'{"request":"on"}')
        assert isinstance(env, TriggerEnvelope)
        assert env.request == "on"
        assert env.user_id == ""
        assert env.world_id == ""
        assert env.item_id == ""
        assert env.timestamp_ms == 0
        assert env.request_id  # generated, non-empty

    def test_generated_request_ids_are_unique(self):
        ids = {decode_envelope(b'{"request":"x"}').request_id for _ in range(200)}
        assert len(ids) == 200

    def test_empty_request_id_is_kept(self):
        env = decode_envelope(b'{"request":"on","requestId":""}')
        assert isinstance(env, TriggerEnvelope)
        assert env.request_id == ""

    def test_not_json(self):
        err = decode_envelope(b"not json")
        assert isinstance(err, GatewayError)
        assert err.code is ErrorCode.MALFORMED_ENVELOPE

    def test_unknown_fields_ignored(self):
        env = decode_envelope(b'{"request":"on","platformAuth":"xyz","n":1}')
        assert isinstance(env, TriggerEnvelope)
        assert env.request == "on"

    @pytest.mark.parametrize("raw", [
        b'{}',
        b'{"request": 42}',
        b'[1,2]',
        b'"just a string"',
        b'{"request":"ok","timestampMs":"soon"}',
        b'{"request":"ok","timestampMs":-5}',
        b'{"request":"ok","userId":7}',
        b'\xff\xfe garbage',
    ])
    def test_malformed_bodies(self, raw):
        err = decode_envelope(raw)
        assert isinstance(err, GatewayError)
        assert err.code is ErrorCode.MALFORMED_ENVELOPE

    def test_total_on_random_bytes(self):
        rng = random.Random(0xB0B)
        for _ in range(500):
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(30)))
            result = decode_envelope(raw)
            assert isinstance(result, (TriggerEnvelope, GatewayError))


class TestParseSmartHomeRequest:
    def test_positional_args(self):
        req = parse_smarthome_request('{"function_name":"turn_on","args":["bulb-1"],"kwargs":{}}')
        assert req == SmartHomeRequest("turn_on", ["bulb-1"], {})

    def test_kwargs(self):
        req = parse_smarthome_request(
            '{"function_name":"set_brightness","args":["bulb-1"],"kwargs":{"level":50}}')
        assert req.kwargs == {"level": 50}

    def test_missing_function_name(self):
        err = parse_smarthome_request('{"args":[]}')
        assert isinstance(err, GatewayError)
        assert err.code is ErrorCode.MALFORMED_PAYLOAD

    def test_defaults_to_empty_args(self):
        req = parse_smarthome_request('{"function_name":"list_devices"}')
        assert req.args == [] and req.kwargs == {}

    @pytest.mark.parametrize("payload", [
        "not json",
        '{"function_name":""}',
        '{"function_name":"x","args":{}}',
        '{"function_name":"x","kwargs":[]}',
        "[]",
    ])
    def test_malformed_payloads(self, payload):
        err = parse_smarthome_request(payload)
        assert isinstance(err, GatewayError)
        assert err.code is ErrorCode.MALFORMED_PAYLOAD

    def test_reserialize_round_trip(self):
        req = parse_smarthome_request('{"kwargs":{"b":2,"a":1},"function_name":"f","args":[3]}')
        again = parse_smarthome_request(canonical_json(
            {"function_name": req.function_name, "args": req.args, "kwargs": req.kwargs}))
        assert again == req


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
)


def nested(depth: int, opener: str) -> str:
    """``depth`` nested arrays or objects around one number."""
    if opener == "[":
        return "[" * depth + "1" + "]" * depth
    return '{"a":' * depth + "1" + "}" * depth


class TestTotality:
    """Both parsers return a value, never raise, whatever arrives on the wire."""

    @staticmethod
    def check(text: str) -> None:
        assert isinstance(decode_envelope(text.encode("utf-8")),
                          (TriggerEnvelope, GatewayError))
        parsed = parse_smarthome_request(text)
        assert isinstance(parsed, (SmartHomeRequest, GatewayError))
        if isinstance(parsed, SmartHomeRequest):  # what parses can be sent to the cloud
            json.dumps([parsed.args, parsed.kwargs], allow_nan=False)

    @given(st.binary())
    def test_bytes(self, raw):
        assert isinstance(decode_envelope(raw), (TriggerEnvelope, GatewayError))
        assert isinstance(parse_smarthome_request(raw.decode("utf-8", "replace")),
                          (SmartHomeRequest, GatewayError))

    @given(st.text())
    def test_text(self, text):
        self.check(text)

    @given(JSON_VALUES)
    def test_json_documents(self, value):
        self.check(json.dumps(value))
        self.check(json.dumps({"request": json.dumps(value), "timestampMs": value}))
        self.check(json.dumps({"function_name": "f", "args": [value], "kwargs": {"k": value}}))

    @given(st.integers(min_value=0, max_value=200_000), st.sampled_from("[{"))
    def test_deep_nesting(self, depth, opener):
        self.check(nested(depth, opener))
        self.check('{"request":"x","args":' + nested(depth, opener) + "}")


ENVELOPES = st.builds(
    TriggerEnvelope, request=st.text(), request_id=st.text(), world_id=st.text(),
    item_id=st.text(), user_id=st.text(), timestamp_ms=st.integers(min_value=0))

# Path tails that route through an active token: the default route and a device route.
ROUTABLE_TAILS = ["", "/", "/trigger", "/trigger/", "/trigger/fan", "/fan", "/fan/", "/?q=1"]


class TestProperties:
    @given(ENVELOPES)
    def test_decode_inverts_encode(self, env):
        assert decode_envelope(encode_envelope(env)) == env

    @given(st.integers(), st.sampled_from(ROUTABLE_TAILS), st.text())
    def test_revoked_token_routes_nothing(self, seed, tail, junk):
        tokens = TokenRegistry(rng=random.Random(seed))
        revoked, active = tokens.issue(), tokens.issue()
        tokens.revoke(revoked)
        registration = (HandlerRegistration().register_default(lambda p: p)
                        .register_devices(DeviceRegistry.default()))
        dispatcher = RequestDispatcher(GatewayConfig(), registration, tokens)
        assert dispatcher.resolve_route(f"/{active}{tail}") is not None
        for path in (f"/{revoked}{tail}", f"/{revoked}{junk}", f"/{revoked}/{active}{tail}"):
            assert dispatcher.resolve_route(path) is None, path


def compact(doc) -> bytes:
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


class TestEncodersMatchJsonDumps:
    """The module-level encoders give the bytes of ``json.dumps`` with the same arguments."""

    @given(JSON_VALUES)
    def test_canonical_json_and_ok_reply(self, value):
        canonical = json.dumps(value, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        assert canonical_json(value) == canonical
        embedded = value if isinstance(value, str) else canonical
        assert serialize_response(HandlerResponse.ok(value)) == (200, compact({"response": embedded}))

    @given(st.sampled_from(ErrorCode), st.text(), st.text())
    def test_error_reply(self, code, message, request_id):
        err = GatewayError(code, message, request_id)
        assert serialize_response(HandlerResponse.from_error(err))[1] == compact(err.to_json_dict())

    @given(JSON_VALUES)
    def test_smarthome_decoder_matches_json_loads(self, value):
        def reject(name):
            raise ValueError(f"{name} is not a JSON number")

        text = json.dumps({"function_name": "f", "args": [value], "kwargs": {"k": value}})
        try:
            doc = json.loads(text, parse_constant=reject)
        except ValueError as exc:
            expected = GatewayError(ErrorCode.MALFORMED_PAYLOAD, f"payload is not JSON: {exc}")
        else:
            expected = SmartHomeRequest("f", doc["args"], doc["kwargs"])
        assert parse_smarthome_request(text) == expected

    @given(ENVELOPES)
    def test_encode_envelope(self, env):
        assert encode_envelope(env) == compact({
            "request": env.request, "requestId": env.request_id, "worldId": env.world_id,
            "itemId": env.item_id, "userId": env.user_id, "timestampMs": env.timestamp_ms})


class TestSerializeResponse:
    def test_ok_string(self):
        assert serialize_response(HandlerResponse.ok("done")) == (200, b'{"response":"done"}')

    def test_ok_json_value_embedded_as_canonical_text(self):
        status, body = serialize_response(HandlerResponse.ok({"temp": 25}))
        assert status == 200
        assert body == b'{"response":"{\\"temp\\":25}"}'
        # the embedded string parses back to the original value
        assert json.loads(json.loads(body)["response"]) == {"temp": 25}

    def test_handler_error(self):
        err = GatewayError(ErrorCode.INTERNAL, "boom", "r9")
        status, body = serialize_response(
            HandlerResponse.from_error(err, ResponseStatus.HANDLER_ERROR))
        assert status == 500
        doc = json.loads(body)
        assert doc["error"]["message"] == "boom"
        assert doc["error"]["code"] == "Internal"
        assert doc["error"]["request_id"] == "r9"

    def test_status_table_is_exact(self):
        cases = {
            ResponseStatus.OK: 200,
            ResponseStatus.BAD_REQUEST: 400,
            ResponseStatus.NOT_FOUND: 404,
            ResponseStatus.HANDLER_ERROR: 500,
        }
        for status, expected in cases.items():
            body = "x" if status is ResponseStatus.OK else GatewayError(ErrorCode.INTERNAL, "m")
            assert serialize_response(HandlerResponse(status, body))[0] == expected

    def test_error_code_default_statuses(self):
        for code, expected in [
            (ErrorCode.MALFORMED_ENVELOPE, 400),
            (ErrorCode.MALFORMED_PAYLOAD, 400),
            (ErrorCode.UNKNOWN_FUNCTION, 404),
            (ErrorCode.DEVICE_FAULT, 500),
            (ErrorCode.INTERNAL, 500),
        ]:
            assert serialize_response(HandlerResponse.from_error(GatewayError(code, "m")))[0] \
                == expected


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": [1, 2]}) == canonical_json({"a": [1, 2], "b": 1})
