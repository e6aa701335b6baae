#!/usr/bin/env bash
# Holds the observability plane to its contract after an http_loadgen run
# (bench_http_loadgen ... --json [--trace-overhead] must have run in the
# current directory first, leaving BENCH_http.json, METRICS.txt,
# STATS.json, TRACE.json, STEPS.json, and MEMORY.json behind):
#
#   - every expected metric family is present in the /metrics exposition;
#   - the server-side request counters equal the loadgen's own client-side
#     tallies exactly (completed == 200s, rejected == 429s — the metrics
#     plane may not lose or invent a single request), per model: the
#     packed "m" and the continuous "c" are checked separately;
#   - /stats is a view of the /metrics registry: per model ("m" and "c")
#     its completed/failed/rejected/arrivals counts and its continuous
#     splices/steps equal the matching series exactly, and its aggregate
#     equals the sum over the models;
#   - the continuous step accounting balances: splices == completed "c"
#     requests, the active-row histogram sum == the total sequence length
#     the loadgen sent to "c", and steps * slots == active + idle row
#     steps (no row-step invented or lost);
#   - zero 5xx responses were ever counted, and no runner ever stalled;
#   - the /debug/trace export is valid chrome-trace JSON with at least one
#     complete trace (6 spans) and the continuous model's slot timelines;
#   - the /debug/steps export (STEPS.json) is structurally sound and its
#     steps_recorded agrees with nimble_steps_total exactly;
#   - the memory plane holds its post-drain identities: worker live bytes
#     are exactly zero (the CI-level drain-leak sentinel), every copy site
#     on the exercised path recorded traffic, pressure reads 0 under the
#     generous soft limit, and the /debug/memory export (MEMORY.json)
#     agrees with the /metrics exposition byte for byte;
#   - when --trace-overhead ran: telemetry (tracing + memory ledgers) costs
#     <= 3% of peak HTTP req/s, and tracing + the step journal cost <= 3%
#     of the continuous path's burst req/s.
set -eu
for artifact in BENCH_http.json METRICS.txt STATS.json TRACE.json \
                STEPS.json MEMORY.json; do
  if [ ! -s "$artifact" ]; then
    echo "missing or empty artifact: $artifact (run bench_http_loadgen --json first)" >&2
    exit 1
  fi
done

python3 - <<'EOF'
import json
import re
import sys

with open("BENCH_http.json") as f:
    bench = json.load(f)
with open("METRICS.txt") as f:
    metrics = f.read()
with open("STATS.json") as f:
    stats_doc = json.load(f)
with open("TRACE.json") as f:
    trace = json.load(f)
with open("STEPS.json") as f:
    steps_doc = json.load(f)
with open("MEMORY.json") as f:
    memory_doc = json.load(f)

failures = []

# Every family the serving pipeline exports must be present.
families = [
    "nimble_arrivals_total",
    "nimble_requests_total",
    "nimble_http_requests_total",
    "nimble_http_responses_total",
    "nimble_e2e_latency_us",
    "nimble_queue_wait_us",
    "nimble_exec_us",
    "nimble_batch_size",
    "nimble_queue_depth",
    "nimble_tune_events_total",
    "nimble_kernel_threads_busy",
    "nimble_splices_total",
    "nimble_steps_total",
    "nimble_idle_row_steps_total",
    "nimble_step_duration_us",
    "nimble_splice_wait_us",
    "nimble_active_rows",
    "nimble_runner_stalled",
    "nimble_mem_live_bytes",
    "nimble_mem_peak_bytes",
    "nimble_mem_pressure",
    "nimble_pool_events_total",
    "nimble_copied_bytes_total",
]
for family in families:
    if f"# TYPE {family}" not in metrics:
        failures.append(f"family missing from /metrics: {family}")

def series_value(name, labels):
    pattern = re.escape(name) + r"\{" + re.escape(labels) + r"\} (\S+)"
    match = re.search(pattern, metrics)
    return float(match.group(1)) if match else None

# Server-side counters must equal the loadgen's client-side tallies,
# per model ("m" is the packed path, "c" the continuous path).
http = bench["http"]
cont = bench["continuous"]
completed_m = series_value("nimble_requests_total",
                           'model="m",outcome="completed"')
rejected_m = series_value("nimble_requests_total",
                          'model="m",outcome="rejected"')
completed_c = series_value("nimble_requests_total",
                           'model="c",outcome="completed"')
rejected_c = series_value("nimble_requests_total",
                          'model="c",outcome="rejected"')
if completed_m != http["completed"] - cont["completed"]:
    failures.append(f"packed completed counter {completed_m} != loadgen "
                    f"m-only 200s {http['completed'] - cont['completed']}")
if rejected_m != http["rejected_429"] - cont["rejected_429"]:
    failures.append(f"packed rejected counter {rejected_m} != loadgen "
                    f"m-only 429s "
                    f"{http['rejected_429'] - cont['rejected_429']}")
if completed_c != cont["completed"]:
    failures.append(f"continuous completed counter {completed_c} != "
                    f"loadgen \"c\" 200s {cont['completed']}")
if rejected_c != cont["rejected_429"]:
    failures.append(f"continuous rejected counter {rejected_c} != "
                    f"loadgen \"c\" 429s {cont['rejected_429']}")
predict = series_value("nimble_http_requests_total", 'endpoint="predict"')
expected_predicts = http["completed"] + http["rejected_429"]
if predict != expected_predicts:
    failures.append(f"predict endpoint counter {predict} != "
                    f"completed+shed {expected_predicts}")

# /stats reads the same registry series /metrics renders, and the loadgen
# scrapes both after Drain, so they must agree exactly, per model; the
# aggregate is the per-model sum.
def stats_counts(view):
    cont = view.get("continuous", {})
    return {
        "completed": view.get("completed"),
        "failed": view.get("failed"),
        "rejected": view.get("rejected"),
        "arrivals": view.get("arrivals"),
        "splices": cont.get("splices", 0),
        "steps": cont.get("steps", 0),
    }

models_view = stats_doc.get("models", {})
aggregate = stats_counts(stats_doc.get("aggregate", {}))
summed = {key: 0 for key in aggregate}
for model in ("m", "c"):
    if model not in models_view:
        failures.append(f"/stats has no model {model}")
        continue
    counts = stats_counts(models_view[model])
    label = f'model="{model}"'
    exposed = {
        "completed": series_value("nimble_requests_total",
                                  f'{label},outcome="completed"'),
        "failed": series_value("nimble_requests_total",
                               f'{label},outcome="failed"'),
        "rejected": series_value("nimble_requests_total",
                                 f'{label},outcome="rejected"'),
        "arrivals": series_value("nimble_arrivals_total", label),
        "splices": series_value("nimble_splices_total", label),
        "steps": series_value("nimble_steps_total", label),
    }
    for key, value in counts.items():
        if value != exposed[key]:
            failures.append(f"/stats {model}.{key} {value} != /metrics "
                            f"{exposed[key]}")
        summed[key] += value or 0
for key, value in aggregate.items():
    if value != summed[key]:
        failures.append(f"/stats aggregate.{key} {value} != sum over models "
                        f"{summed[key]}")

# Continuous step accounting. The loadgen scrapes after Drain, so every
# counter has settled and these identities must hold EXACTLY:
#   splices == completed "c" requests (each spliced exactly once);
#   Σ active rows over all steps == total sequence length served (each
#   request holds one row for exactly its own length);
#   steps * slots == active + idle row steps (the fixed-B step loop).
splices = series_value("nimble_splices_total", 'model="c"')
steps_total = series_value("nimble_steps_total", 'model="c"')
idle_rows = series_value("nimble_idle_row_steps_total", 'model="c"')
active_sum = series_value("nimble_active_rows_sum", 'model="c"')
stalled = series_value("nimble_runner_stalled", 'model="c"')
if splices != cont["completed"]:
    failures.append(f"splice counter {splices} != completed \"c\" requests "
                    f"{cont['completed']}")
if steps_total is None or steps_total <= 0:
    failures.append(f"nimble_steps_total{{model=c}} is {steps_total}")
if active_sum != cont["rows"]:
    failures.append(f"active-row sum {active_sum} != loadgen rows "
                    f"{cont['rows']}")
if (steps_total is not None and idle_rows is not None and
        active_sum is not None and
        steps_total * cont["slots"] != active_sum + idle_rows):
    failures.append(f"row-step balance broken: {steps_total} steps * "
                    f"{cont['slots']} slots != {active_sum} active + "
                    f"{idle_rows} idle")
if stalled != 0:
    failures.append(f"nimble_runner_stalled{{model=c}} is {stalled}")

# No 5xx, ever.
for code_match in re.finditer(
        r'nimble_http_responses_total\{code="(5\d\d)"\} (\d+)', metrics):
    if int(code_match.group(2)) != 0:
        failures.append(f"nonzero {code_match.group(1)} responses: "
                        f"{code_match.group(2)}")

# The trace export holds at least one complete trace, plus the continuous
# model's slot timelines (per-slot tenancy tracks and counter tracks).
events = trace.get("traceEvents")
if not isinstance(events, list) or len(events) < 6:
    failures.append(f"/debug/trace export has {0 if not events else len(events)}"
                    " events (need >= 6: one full trace)")
else:
    names = {event.get("name") for event in events}
    expected_spans = {"admission", "queue", "pack", "exec", "unpack", "write"}
    if not expected_spans <= names:
        failures.append(f"trace spans missing: {expected_spans - names}")
    slot_processes = {event["args"]["name"] for event in events
                      if event.get("ph") == "M"
                      and event.get("name") == "process_name"}
    if "slots:c" not in slot_processes:
        failures.append("slot-timeline process for model \"c\" missing from "
                        f"/debug/trace (saw {slot_processes or '{}'})")
    if "occupancy" not in names or "step_latency_us" not in names:
        failures.append("slot-timeline counter tracks missing from "
                        "/debug/trace")

# STEPS.json: structurally sound, internally consistent, and in exact
# agreement with the metrics plane on the total step count.
if steps_doc.get("model") != "c" or steps_doc.get("num_slots") != cont["slots"]:
    failures.append(f"STEPS.json header wrong: model "
                    f"{steps_doc.get('model')}, num_slots "
                    f"{steps_doc.get('num_slots')}")
recorded = steps_doc.get("steps_recorded", 0)
if steps_total is not None and recorded != steps_total:
    failures.append(f"STEPS.json steps_recorded {recorded} != "
                    f"nimble_steps_total {steps_total}")
tail = steps_doc.get("steps", [])
if not tail:
    failures.append("STEPS.json has no step records")
last_seq = -1
for record in tail:
    seq = record.get("step", -1)
    if seq <= last_seq:
        failures.append(f"STEPS.json step seqs not increasing at {seq}")
        break
    last_seq = seq
    if not (0 <= record.get("active_rows", -1) <= cont["slots"]):
        failures.append(f"step {seq}: active_rows {record.get('active_rows')} "
                        f"out of [0, {cont['slots']}]")
        break
    if record.get("duration_us", -1) < 0:
        failures.append(f"step {seq}: negative duration")
        break
    for event in record.get("events", []):
        if event.get("kind") not in ("splice", "retire"):
            failures.append(f"step {seq}: unknown event kind "
                            f"{event.get('kind')}")

# Memory plane. The loadgen scrapes MEMORY.json after Drain with every
# result already consumed, so the post-drain identities are exact.
scopes = {s["scope"]: s for s in memory_doc.get("scopes", [])}
copy_sites = {s["site"]: s for s in memory_doc.get("copy_sites", [])}
if not scopes:
    failures.append("MEMORY.json has no allocator scopes")
if not any(name.startswith("worker:") for name in scopes):
    failures.append("MEMORY.json has no worker scope")
if "model:c" not in scopes:
    failures.append("MEMORY.json has no scope for continuous model c")
for name, scope in scopes.items():
    # Drain-leak sentinel at CI level: workers hold nothing once their
    # batches retire and the clients dropped every response.
    if name.startswith("worker:") and scope["live_bytes"] != 0:
        failures.append(f"{name} live_bytes {scope['live_bytes']} != 0 "
                        "after drain (data-path leak)")
    if scope["peak_bytes"] < scope["live_bytes"]:
        failures.append(f"{name} peak {scope['peak_bytes']} < live "
                        f"{scope['live_bytes']}")
    # The gauge exposition and the JSON export sample the same atomics at
    # quiescence, so they must agree exactly.
    gauge = series_value("nimble_mem_live_bytes", f'scope="{name}"')
    if gauge != scope["live_bytes"]:
        failures.append(f"nimble_mem_live_bytes{{scope={name}}} {gauge} != "
                        f"MEMORY.json {scope['live_bytes']}")
# A continuous runner retains only its persistent step arguments (x_t,
# active mask, state rows — a few KB at these widths): far under 128 KiB.
c_live = scopes.get("model:c", {}).get("live_bytes", 0)
if c_live > 131072:
    failures.append(f"model:c live_bytes {c_live} suspiciously large "
                    "(> 128 KiB of persistent step state)")
# Every copy site on the exercised paths must have recorded traffic: the
# packed model covers http_decode/pack/unpack/serialize, the continuous
# model step_state.
for site in ("http_decode", "pack", "unpack", "step_state", "serialize"):
    bytes_ = copy_sites.get(site, {}).get("bytes", 0)
    if bytes_ <= 0:
        failures.append(f"copy site {site} recorded no bytes")
    exposed = series_value("nimble_copied_bytes_total", f'site="{site}"')
    if exposed != bytes_:
        failures.append(f"nimble_copied_bytes_total{{site={site}}} {exposed} "
                        f"!= MEMORY.json {bytes_}")
# The soft limit is configured generously: the pressure plane must be live
# (polling, exporting) yet never have tripped.
pressure = memory_doc.get("pressure", {})
if not pressure.get("configured"):
    failures.append("memory pressure not configured in the loadgen run")
# The gauge carries no labels, so it renders bare (no {} block).
m = re.search(r"^nimble_mem_pressure (\S+)$", metrics, re.M)
mem_pressure = float(m.group(1)) if m else None
if mem_pressure is None or mem_pressure >= 1.0:
    failures.append(f"nimble_mem_pressure is {mem_pressure} (expected a "
                    "settled value < 1 under the 1 GiB soft limit)")

# Always-on telemetry and the step journal must each stay under their 3%
# budget when measured.
if "trace_overhead" in bench:
    for key, what in (("trace_overhead", "telemetry"),
                      ("step_journal_overhead", "step journal + tracing")):
        arm = bench.get(key)
        if arm is None:
            failures.append(f"--trace-overhead ran but {key} is missing")
        elif arm["rps_on"] <= 0 or arm["rps_off"] <= 0:
            failures.append(f"{what} A/B produced no throughput numbers")
        elif arm["overhead_pct"] > 3.0:
            failures.append(f"{what} overhead {arm['overhead_pct']:.2f}% "
                            f"exceeds the 3% budget (on {arm['rps_on']:.1f} "
                            f"vs off {arm['rps_off']:.1f} req/s)")
        else:
            print(f"{what} overhead {arm['overhead_pct']:.2f}% (on "
                  f"{arm['rps_on']:.1f} vs off {arm['rps_off']:.1f} req/s)")

if failures:
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    sys.exit(1)

copied_total = sum(s["bytes"] for s in copy_sites.values())
print(f"metrics plane consistent: {int(completed_m)} packed + "
      f"{int(completed_c)} continuous completed, "
      f"{int(rejected_m + rejected_c)} shed, zero 5xx, "
      f"{len(events)} trace events, {int(recorded)} steps journaled "
      f"({int(splices)} splices, row-step balance exact), /stats == "
      f"/metrics per model and summed, "
      f"{copied_total} bytes copied across {len(copy_sites)} sites, "
      f"workers leak-free after drain")
EOF
