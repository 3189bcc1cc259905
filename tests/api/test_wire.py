"""Fuzz-discipline tests for the API's HTTP parsing and encoding.

Mirrors ``tests/dist/test_protocol.py``: every malformed input must
produce a clean :class:`ApiError` with the right status — never a hang,
an allocation blow-up, or an unhandled exception.
"""

import asyncio
import json

import pytest

from repro.api import wire
from repro.core.sweep import resolve_jobs
from repro.errors import ApiError


def parse(raw: bytes):
    """Drive read_request over an in-memory stream (EOF after ``raw``)."""

    async def go():
        reader = asyncio.StreamReader(limit=wire.MAX_LINE_BYTES)
        reader.feed_data(raw)
        reader.feed_eof()
        return await wire.read_request(reader)

    return asyncio.run(go())


def status_of(raw: bytes) -> int:
    with pytest.raises(ApiError) as excinfo:
        parse(raw)
    return excinfo.value.status


class TestReadRequest:
    def test_simple_get(self):
        request = parse(b"GET /campaigns?since=3 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/campaigns"
        assert request.query == {"since": "3"}
        assert request.headers["host"] == "x"
        assert request.body == b""
        assert request.path_parts() == ("campaigns",)

    def test_post_with_body(self):
        body = b'{"seed": 1}'
        raw = (
            b"POST /campaigns HTTP/1.1\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        request = parse(raw)
        assert request.method == "POST"
        assert request.body == body

    def test_percent_decoded_path(self):
        request = parse(b"GET /campaigns/ab%2012 HTTP/1.1\r\n\r\n")
        assert request.path_parts() == ("campaigns", "ab 12")

    def test_header_names_lowercased(self):
        request = parse(b"GET / HTTP/1.1\r\nX-Api-Key:  k1 \r\n\r\n")
        assert request.headers["x-api-key"] == "k1"

    def test_immediate_eof_is_none(self):
        assert parse(b"") is None

    @pytest.mark.parametrize(
        "line",
        [b"GET\r\n", b"GET /\r\n", b"GET / HTTP/1.1 extra\r\n", b"\xff\xfe oops\r\n"],
    )
    def test_malformed_request_line(self, line):
        assert status_of(line + b"\r\n") == 400

    def test_unsupported_protocol(self):
        assert status_of(b"GET / HTTP/2\r\n\r\n") == 400

    @pytest.mark.parametrize("method", [b"PUT", b"PATCH", b"BREW"])
    def test_unknown_method(self, method):
        assert status_of(method + b" / HTTP/1.1\r\n\r\n") == 405

    def test_eof_inside_headers(self):
        assert status_of(b"GET / HTTP/1.1\r\nHost: x\r\n") == 400

    def test_header_without_colon(self):
        assert status_of(b"GET / HTTP/1.1\r\nnot a header\r\n\r\n") == 400

    def test_header_with_empty_name(self):
        assert status_of(b"GET / HTTP/1.1\r\n: value\r\n\r\n") == 400

    def test_too_many_headers(self):
        headers = b"".join(
            b"H%d: v\r\n" % i for i in range(wire.MAX_HEADER_COUNT + 1)
        )
        assert status_of(b"GET / HTTP/1.1\r\n" + headers + b"\r\n") == 431

    def test_oversized_header_line(self):
        raw = b"GET / HTTP/1.1\r\nX: " + b"a" * (wire.MAX_LINE_BYTES + 10) + b"\r\n\r\n"
        assert status_of(raw) == 431

    def test_chunked_refused(self):
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        assert status_of(raw) == 501

    @pytest.mark.parametrize("value", [b"abc", b"1.5", b""])
    def test_malformed_content_length(self, value):
        raw = b"POST / HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\nx"
        assert status_of(raw) == 400

    def test_negative_content_length(self):
        assert status_of(b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n") == 400

    def test_oversized_body_rejected_before_read(self):
        # The limit check must precede allocation: no body bytes are sent.
        length = wire.MAX_BODY_BYTES + 1
        raw = b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % length
        assert status_of(raw) == 413

    def test_truncated_body(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort"
        assert status_of(raw) == 400


class TestResponses:
    def test_json_response_framing(self):
        raw = wire.json_response(200, {"ok": True})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: close" in head
        assert b"Content-Length: %d" % len(body) in head
        assert json.loads(body) == {"ok": True}

    def test_error_response_carries_status(self):
        raw = wire.error_response(429, "slow down")
        assert raw.startswith(b"HTTP/1.1 429 Too Many Requests\r\n")
        body = raw.partition(b"\r\n\r\n")[2]
        assert json.loads(body) == {"error": "slow down", "status": 429}

    @pytest.mark.parametrize(
        ("name", "content_type"),
        [
            ("campaign.json", b"application/json"),
            ("telemetry.jsonl", b"application/x-ndjson"),
            ("campaign.md", b"text/markdown"),
            ("summary.txt", b"text/plain"),
            ("weird.bin", b"application/octet-stream"),
        ],
    )
    def test_file_response_content_types(self, name, content_type):
        raw = wire.file_response(b"payload", name)
        head = raw.partition(b"\r\n\r\n")[0]
        assert content_type in head
        assert raw.endswith(b"payload")

    def test_ndjson_line_is_one_line(self):
        line = wire.ndjson_line({"event": "x", "seq": 1})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert json.loads(line) == {"event": "x", "seq": 1}


class TestParseSpec:
    def test_valid_spec(self):
        spec = wire.parse_spec(b'{"scale": "smoke", "seed": 3, "jobs": 1}')
        assert spec.scale == "smoke"
        assert spec.seed == 3
        assert spec.jobs == 1

    def test_jobs_up_to_the_usable_cpus(self):
        for jobs in (None, 0, resolve_jobs(0)):
            body = json.dumps({"scale": "smoke", "jobs": jobs}).encode()
            assert wire.parse_spec(body).jobs == jobs

    @pytest.mark.parametrize("excess", [1, 1024])
    def test_jobs_above_the_usable_cpus_is_a_client_error(self, excess):
        # A pool forks all its workers at the first unit: a client must
        # not choose how many processes the server starts.
        body = json.dumps(
            {
                "scale": "smoke",
                "seed": 1,
                "experiments": ["fig07"],
                "jobs": resolve_jobs(0) + excess,
            }
        ).encode()
        with pytest.raises(ApiError, match="jobs") as excinfo:
            wire.parse_spec(body)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "body",
        [
            b"",
            b"not json at all",
            b"\xff\xfe",
            b"[1, 2, 3]",
            b'"a string"',
            b'{"surprise": 1}',
            b'{"scale": 7}',
            b'{"seed": "zero"}',
            b'{"scale": "no-such-preset"}',
            b'{"unit_timeout": -1}',
            b'{"priority": 10000}',
        ],
    )
    def test_malformed_specs_are_client_errors(self, body):
        with pytest.raises(ApiError) as excinfo:
            wire.parse_spec(body)
        assert excinfo.value.status == 400
