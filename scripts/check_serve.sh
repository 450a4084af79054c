#!/usr/bin/env bash
# Serve-daemon smoke gate (docs/serving.md): boots tools/fvdf_serve on a
# throwaway unix socket + ephemeral HTTP port, then drives it through the
# full protocol surface with a stdlib-only python3 NDJSON client:
#
#   1. a concurrent batch of solves including a duplicate case — every
#      event line must be valid JSON with the documented fields, all
#      solves must converge, and the duplicate must report a cache hit
#      with a pressure_hash bitwise identical to its first submission;
#   2. a cancellation and an impossible deadline — both must come back
#      as well-formed {"event":"error"} objects with the documented
#      codes, not connection drops;
#   3. GET /healthz and GET /stats over HTTP;
#   4. SIGTERM mid-transient-run — the daemon must checkpoint the job
#      into the spool, log its shutdown lines and exit 0; a restarted
#      daemon must log the recovery, finish the job from the checkpoint
#      (stats: completed=1, recovered=1) and clean the spool;
#   5. a daemon started without --workers sizes its pool to the usable
#      CPUs: GET /stats reports workers == nproc (which honours the CPU
#      affinity mask), and a malformed numeric flag exits 2.
#
#   scripts/check_serve.sh [build-dir]
#
# The daemon log is kept at $WORK/daemon.log (CI uploads it on failure).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
DAEMON="$BUILD/tools/fvdf_serve"
[[ -x "$DAEMON" ]] || { echo "error: $DAEMON not built" >&2; exit 2; }

WORK="$(mktemp -d /tmp/fvdf_check_serve.XXXXXX)"
SOCKET="$WORK/serve.sock"
SPOOL="$WORK/spool"
LOG="$WORK/daemon.log"
echo "check_serve: work dir $WORK"

DAEMON_PID=""
cleanup() {
  [[ -n "$DAEMON_PID" ]] && kill "$DAEMON_PID" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

# Extra arguments are passed to the daemon.
start_daemon() {
  "$DAEMON" --socket "$SOCKET" --http-port 0 "$@" >>"$LOG" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    [[ -S "$SOCKET" ]] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.1
  done
  echo "FAIL: daemon did not come up; log follows" >&2
  cat "$LOG" >&2
  exit 1
}

# ---- Phase 1: batch + duplicate + cancellation + deadline + HTTP. ----
start_daemon --workers 2 --spool-dir "$SPOOL"
python3 - "$SOCKET" "$LOG" <<'PY'
import json, re, socket, sys, urllib.request

socket_path, log_path = sys.argv[1], sys.argv[2]

CASE = """[mesh]
nx = 12
ny = 12
nz = 2

[perm]
kind = lognormal
sigma = 1.0
seed = %d

[solver]
backend = dataflow
tolerance = 1e-8
"""

TRANSIENT = CASE % 99 + "\n[transient]\nenabled = true\nsteps = 60\ndt = 0.25\n"

class Client:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.file = self.sock.makefile("r", encoding="utf-8")
        self.finished = {}  # terminal events read while waiting for another id

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def read(self):
        line = self.file.readline()
        if not line:
            raise SystemExit("FAIL: daemon closed the connection early")
        event = json.loads(line)  # every line must be valid JSON
        assert isinstance(event, dict) and "event" in event, line
        return event

    def wait_terminal(self, job_id):
        # Concurrent jobs finish in any order: keep the others' terminal
        # events for their own wait_terminal call.
        while job_id not in self.finished:
            event = self.read()
            if event["event"] == "result":
                for field in ("fingerprint", "cache", "converged",
                              "iterations", "pressure_hash",
                              "setup_seconds", "solve_seconds"):
                    assert field in event, f"result missing {field}: {event}"
            elif event["event"] == "error":
                assert "code" in event and "message" in event, event
            else:
                continue
            if "id" in event:
                self.finished[event["id"]] = event
        return self.finished.pop(job_id)

failures = []

def check(ok, what):
    print(("ok:   " if ok else "FAIL: ") + what)
    if not ok:
        failures.append(what)

client = Client(socket_path)
client.send({"op": "ping"})
check(client.read()["event"] == "pong", "ping -> pong")

# Concurrent batch: 4 distinct cases plus a duplicate of the first.
seeds = [1, 2, 3, 4, 1]
for i, seed in enumerate(seeds):
    client.send({"op": "solve", "id": f"batch-{i}", "case": CASE % seed})
results = {f"batch-{i}": client.wait_terminal(f"batch-{i}")
           for i in range(len(seeds))}
for job_id, result in results.items():
    check(result["event"] == "result" and result["converged"],
          f"{job_id} converged")
check(results["batch-0"]["cache"] == "miss", "first submission is a miss")
check(results["batch-4"]["cache"] == "hit",
      "duplicate case is a cache hit")
check(results["batch-4"]["pressure_hash"] == results["batch-0"]["pressure_hash"],
      "duplicate result bitwise identical to first submission")
check(results["batch-4"]["fingerprint"] == results["batch-0"]["fingerprint"],
      "duplicate case shares the fingerprint")

# Cancellation: long transient job, cancelled after its first step event.
client.send({"op": "solve", "id": "doomed", "case": TRANSIENT,
             "stream_residuals": True})
while True:
    event = client.read()
    if event.get("id") == "doomed" and event["event"] in ("step", "result"):
        break
client.send({"op": "cancel", "id": "doomed"})
acked = client.read()
check(acked["event"] == "ok" and acked.get("found") is True,
      "cancel acknowledged")
terminal = client.wait_terminal("doomed")
check(terminal["event"] == "error" and terminal.get("code") == "cancelled",
      f"cancellation is a well-formed error event (got {terminal})")

# Deadline: a budget no solve can meet expires as a deadline error.
client.send({"op": "solve", "id": "late", "case": TRANSIENT,
             "deadline_seconds": 1e-6})
terminal = client.wait_terminal("late")
check(terminal["event"] == "error" and terminal.get("code") == "deadline",
      f"deadline is a well-formed error event (got {terminal})")

# Malformed request: still a connection-level error event, not a drop.
client.send({"op": "no_such_op"})
event = client.read()
check(event["event"] == "error" and event.get("code") == "bad_request",
      "unknown op yields bad_request")

# Stats document shape, and the cache counters saw the duplicate.
client.send({"op": "stats"})
stats = client.read()
check(stats["event"] == "stats" and "cache" in stats and "jobs" in stats,
      "stats document has cache + jobs sections")
check(stats["cache"]["hits"] >= 1, "stats counted the cache hit")

# HTTP: healthz + stats on the ephemeral port the daemon logged.
with open(log_path, encoding="utf-8") as f:
    match = re.search(r"http 127\.0\.0\.1:(\d+)", f.read())
check(match is not None, "daemon logged its HTTP port")
if match:
    port = int(match.group(1))
    body = urllib.request.urlopen(
        f"http://127.0.0.1:{port}/healthz", timeout=10).read()
    check(body == b"ok\n", "GET /healthz")
    doc = json.load(urllib.request.urlopen(
        f"http://127.0.0.1:{port}/stats", timeout=10))
    check("cache" in doc and "jobs" in doc, "GET /stats parses")

if failures:
    raise SystemExit(1)
PY

# ---- Phase 2: SIGTERM mid-run checkpoints; a restart resumes. ----
python3 - "$SOCKET" <<'PY'
import json, socket, sys

sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
sock.connect(sys.argv[1])
file = sock.makefile("r", encoding="utf-8")
case = """[mesh]
nx = 12
ny = 12
nz = 2

[perm]
kind = lognormal
sigma = 1.0
seed = 7

[solver]
backend = dataflow
tolerance = 1e-8

[transient]
enabled = true
steps = 60
dt = 0.25
"""
sock.sendall((json.dumps({"op": "solve", "id": "resumable", "case": case,
                          "stream_residuals": True}) + "\n").encode())
# Wait until a few steps are done (and therefore checkpointed).
while True:
    event = json.loads(file.readline())
    if event.get("id") == "resumable" and event.get("event") == "step" \
            and event.get("step", 0) >= 2:
        break
print("ok:   resumable job is mid-run")
PY

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || { echo "FAIL: daemon exited non-zero on SIGTERM" >&2; exit 1; }
DAEMON_PID=""
grep -q "fvdf_serve stopping" "$LOG" || { echo "FAIL: no shutdown log line" >&2; exit 1; }
grep -q "fvdf_serve stopped" "$LOG" || { echo "FAIL: no stopped log line" >&2; exit 1; }
[[ -f "$SPOOL/resumable.case.ini" && -f "$SPOOL/resumable.ckpt" ]] || {
  echo "FAIL: SIGTERM did not leave the job spooled" >&2; ls -l "$SPOOL" >&2; exit 1; }
echo "ok:   SIGTERM checkpointed the in-flight job and exited 0"

start_daemon --workers 2 --spool-dir "$SPOOL"
grep -q "recovered 1 spooled job" "$LOG" || {
  echo "FAIL: restarted daemon did not log the recovery" >&2
  cat "$LOG" >&2; exit 1; }
echo "ok:   restarted daemon recovered the spooled job"

# The recovered job finishes in the background; poll stats until done.
python3 - "$SOCKET" <<'PY'
import json, socket, sys, time

def stats(path):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(path)
    sock.sendall(b'{"op":"stats"}\n')
    doc = json.loads(sock.makefile("r", encoding="utf-8").readline())
    sock.close()
    return doc

deadline = time.time() + 120
while time.time() < deadline:
    doc = stats(sys.argv[1])
    jobs = doc["jobs"]
    if jobs["completed"] >= 1 and jobs["running"] == 0 \
            and jobs["queued"] == 0:
        assert jobs["recovered"] == 1, doc
        print("ok:   recovered job ran to completion from its checkpoint")
        raise SystemExit(0)
    time.sleep(0.5)
raise SystemExit("FAIL: recovered job did not finish within 120s")
PY

[[ ! -e "$SPOOL/resumable.ckpt" ]] || { echo "FAIL: spool not cleaned" >&2; exit 1; }
echo "ok:   spool cleaned after the recovered job finished"

# Clean daemon stop via the protocol this time.
python3 - "$SOCKET" <<'PY'
import socket, sys
sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
sock.connect(sys.argv[1])
sock.sendall(b'{"op":"shutdown"}\n')
sock.makefile("r").readline()
PY
wait "$DAEMON_PID" || { echo "FAIL: daemon exited non-zero on shutdown op" >&2; exit 1; }
DAEMON_PID=""

# ---- Phase 3: default sizing; bad numeric flags are usage errors. ----
READY_BEFORE="$(grep -c "fvdf_serve ready" "$LOG")"
start_daemon
python3 - "$LOG" "$(nproc)" "$READY_BEFORE" <<'PY'
import json, re, sys, time, urllib.request

# The socket exists before the daemon logs its ready line; wait for it.
deadline = time.time() + 10
while True:
    with open(sys.argv[1], encoding="utf-8") as f:
        ports = re.findall(r"ready \(http 127\.0\.0\.1:(\d+)\)", f.read())
    if len(ports) > int(sys.argv[3]) or time.time() > deadline:
        break
    time.sleep(0.1)
if len(ports) <= int(sys.argv[3]):
    raise SystemExit("FAIL: default daemon did not log its HTTP port")
port = ports[-1]
doc = json.load(urllib.request.urlopen(
    f"http://127.0.0.1:{port}/stats", timeout=10))
workers, nproc = doc["jobs"]["workers"], int(sys.argv[2])
if workers != nproc:
    raise SystemExit(f"FAIL: default daemon runs {workers} workers, nproc is {nproc}")
print(f"ok:   default daemon runs one worker per usable CPU ({workers})")
PY
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || { echo "FAIL: default daemon exited non-zero on SIGTERM" >&2; exit 1; }
DAEMON_PID=""

for bad in -1 abc 99999999999; do
  status=0
  "$DAEMON" --socket "$WORK/unused.sock" --workers "$bad" 2>/dev/null || status=$?
  [[ "$status" == 2 ]] || {
    echo "FAIL: --workers $bad exited $status, expected 2" >&2; exit 1; }
done
echo "ok:   malformed --workers values exit 2"

echo "check_serve: PASS"
