#!/usr/bin/env bash
# Campaign-service determinism smoke test.
#
# Runs the same campaign twice — once directly via the CLI, once by
# submitting a spec to a live `repro-bgp api` service over HTTP,
# streaming its NDJSON event log to completion, and downloading the
# served artifacts — and diffs campaign.json / campaign.md byte-for-
# byte.  Any scheduling, serialization, caching, or checkpoint bug in
# the service layer shows up as a diff here.
set -euo pipefail

SCALE=smoke
PORT="${1:-7788}"
WORK="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

export PYTHONPATH=src

echo "== direct campaign (scale=$SCALE) =="
python -m repro.experiments.cli campaign --scale "$SCALE" -o "$WORK/direct"

echo "== campaign service on 127.0.0.1:$PORT =="
python -m repro.experiments.cli api --bind "127.0.0.1:$PORT" \
    --data-dir "$WORK/service" &
API_PID=$!

python - "$PORT" "$SCALE" "$WORK/served" <<'PY'
import http.client
import json
import pathlib
import sys
import time

port, scale, out_dir = int(sys.argv[1]), sys.argv[2], pathlib.Path(sys.argv[3])
out_dir.mkdir(parents=True)


def request(method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# the service may still be binding its port: retry with backoff
for attempt in range(50):
    try:
        status, _ = request("GET", "/healthz")
        if status == 200:
            break
    except OSError:
        pass
    time.sleep(0.2)
else:
    sys.exit("service never became healthy")

status, body = request(
    "POST", "/campaigns", json.dumps({"scale": scale}).encode()
)
reply = json.loads(body)
assert status == 202, (status, reply)
job_id = reply["id"]
print(f"submitted campaign {job_id}")

# stream the NDJSON event log until the terminal event closes the stream
conn = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
conn.request("GET", f"/campaigns/{job_id}/events")
response = conn.getresponse()
assert response.status == 200, response.status
last = None
for raw in response:
    event = json.loads(raw)
    last = event["event"]
    if last in ("job_started", "experiment_done", "job_done", "job_failed"):
        print(f"  event: {json.dumps(event)}")
conn.close()
assert last == "job_done", f"stream ended on {last!r}, wanted job_done"

for name in ("campaign.json", "campaign.md"):
    status, payload = request("GET", f"/campaigns/{job_id}/artifacts/{name}")
    assert status == 200, (name, status)
    (out_dir / name).write_bytes(payload)
print(f"served artifacts downloaded to {out_dir}")
PY

kill "$API_PID"
wait "$API_PID" 2>/dev/null || true

echo "== diffing artifacts =="
diff "$WORK/direct/campaign.json" "$WORK/served/campaign.json"
diff "$WORK/direct/campaign.md" "$WORK/served/campaign.md"
echo "OK: served campaign.json and campaign.md are byte-identical to the direct run"
