#!/usr/bin/env python3
"""Validate each line of an amdahl_market JSONL trace against the schema.

Usage: check_trace_schema.py [trace.jsonl]   (stdin when omitted)

Checks, per DESIGN.md section 10, one line at a time:
  - every line parses as a JSON object;
  - "seq" is present and strictly increasing from 1;
  - "ev" is present and names a known event type;
  - each event carries that type's required fields;
  - enum fields (degradation reasons, span names, causes and transfer
    outcomes) hold known values, span IDs, parents, ticks and round
    costs are integers, and no span has ID 0;
  - no event carries a wall-clock field (traces must be deterministic;
    timing lives in the metrics histograms).

Checks that span lines, or that follow from the span values (the span
DAG, time order, and each round's cause sum and critical path), belong
to `amdahl_market trace analyze`.

Exit status 0 when the trace is clean, 1 otherwise.
"""

import json
import sys

# Required fields per event type. Extra fields are allowed (the schema
# grows), missing ones are errors.
REQUIRED = {
    "run_start": {"policy", "seed", "users", "servers",
                  "epoch_seconds", "horizon_seconds", "faults",
                  "admission"},
    "run_end": set(),
    "epoch_start": {"epoch", "now"},
    "epoch_end": {"epoch", "in_system", "idle"},
    "bidding_start": {"users", "servers", "damping", "warm_start",
                      "deadline_armed"},
    "bidding_iter": {"iter", "max_delta"},
    "bidding_accel": {"iter", "plain_delta", "accel_delta",
                      "accepted"},
    "bidding_end": {"iterations", "converged", "deadline_expired"},
    "deadline_expired": {"iter", "best_delta"},
    "fallback_serve": {"rung", "reason", "converged", "iterations",
                       "deadline_expired"},
    "degraded_round": {"source", "reason", "round", "quorum", "stale"},
    "fault_schedule": {"server", "crash_epoch", "recover_epoch"},
    "churn": {"epoch", "kind", "server"},
    "checkpoint_rollback": {"epoch", "user", "server", "lost_work"},
    "admission": {"epoch", "action", "user"},
    "log": {"severity", "message"},
    "span": {"name", "id", "parent", "t0", "t1"},
}

FORBIDDEN = {"time", "wall", "elapsed", "timestamp", "duration"}

# Structured degradation taxonomy (obs/degraded.hh). fallback_serve
# additionally allows "none" for a clean primary serve.
DEGRADED_REASONS = {"deadline_expired", "partition", "quorum_floor",
                    "non_converged"}
DEGRADED_SOURCES = {"barrier", "fallback"}

# Causal span taxonomy (obs/span.hh).
SPAN_NAMES = {"epoch", "rung", "round", "barrier", "compute", "fold",
              "price_xfer", "bid_xfer"}
SPAN_CAUSES = {"compute", "net_delay", "retransmit", "partition_wait",
               "quorum_wait"}
SPAN_XFER_OUTCOMES = {"delivered", "lost", "partition_drop",
                      "duplicate"}
SPAN_ROUND_COSTS = ("c_compute", "c_delay", "c_retransmit",
                    "c_partition", "c_quorum", "ticks")


def check_span(event):
    """Return the schema problems of one span event."""
    problems = []
    name = event.get("name")
    if name not in SPAN_NAMES:
        problems.append(
            f"span name {name!r} not in {sorted(SPAN_NAMES)}")
    for key in ("id", "parent", "t0", "t1"):
        if not isinstance(event.get(key), int):
            problems.append(f"span field {key!r} must be an integer")
            return problems
    if event["id"] == 0:
        problems.append("span id 0 is reserved for 'no parent'")
    if name == "round":
        cause = event.get("cause")
        if cause not in SPAN_CAUSES:
            problems.append(
                f"round span cause {cause!r} not in "
                f"{sorted(SPAN_CAUSES)}")
        missing = [key for key in SPAN_ROUND_COSTS
                   if not isinstance(event.get(key), int)]
        if missing:
            problems.append(
                f"round span missing cost field(s): {missing}")
    elif name in ("price_xfer", "bid_xfer"):
        outcome = event.get("outcome")
        if outcome not in SPAN_XFER_OUTCOMES:
            problems.append(
                f"xfer span outcome {outcome!r} not in "
                f"{sorted(SPAN_XFER_OUTCOMES)}")
    return problems


def check_enums(event, ev):
    """Return a list of enum-violation messages for this event."""
    problems = []
    if ev == "degraded_round":
        if event.get("reason") not in DEGRADED_REASONS:
            problems.append(
                f"degraded_round reason {event.get('reason')!r} not in "
                f"{sorted(DEGRADED_REASONS)}")
        if event.get("source") not in DEGRADED_SOURCES:
            problems.append(
                f"degraded_round source {event.get('source')!r} not in "
                f"{sorted(DEGRADED_SOURCES)}")
    elif ev == "fallback_serve":
        reason = event.get("reason")
        if reason not in DEGRADED_REASONS | {"none"}:
            problems.append(
                f"fallback_serve reason {reason!r} not in "
                f"{sorted(DEGRADED_REASONS | {'none'})}")
        if reason == "none" and event.get("rung") != "primary":
            problems.append(
                "fallback_serve: only a primary serve may carry "
                "reason 'none'")
    return problems


def fail(line_no, message):
    print(f"line {line_no}: {message}", file=sys.stderr)
    return 1


def main():
    stream = open(sys.argv[1]) if len(sys.argv) > 1 else sys.stdin
    errors = 0
    expected_seq = 0
    events = 0
    spans = 0
    with stream:
        for line_no, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as err:
                errors += fail(line_no, f"not valid JSON: {err}")
                continue
            if not isinstance(event, dict):
                errors += fail(line_no, "not a JSON object")
                continue
            events += 1
            expected_seq += 1
            seq = event.get("seq")
            if seq != expected_seq:
                errors += fail(
                    line_no,
                    f"seq {seq!r}, expected {expected_seq}")
                expected_seq = seq if isinstance(seq, int) else \
                    expected_seq
            ev = event.get("ev")
            if ev not in REQUIRED:
                errors += fail(line_no, f"unknown event type {ev!r}")
                continue
            missing = REQUIRED[ev] - event.keys()
            if missing:
                errors += fail(
                    line_no,
                    f"{ev} missing field(s): {sorted(missing)}")
            for problem in check_enums(event, ev):
                errors += fail(line_no, problem)
            if ev == "span":
                for problem in check_span(event):
                    errors += fail(line_no, problem)
                spans += 1
            banned = {key for key in event
                      if any(word in key for word in FORBIDDEN)}
            if banned:
                errors += fail(
                    line_no,
                    f"{ev} carries wall-clock field(s): "
                    f"{sorted(banned)}")
    if events == 0:
        print("empty trace", file=sys.stderr)
        return 1
    if errors:
        print(f"{errors} schema error(s) in {events} event(s)",
              file=sys.stderr)
        return 1
    suffix = f", {spans} span(s)" if spans else ""
    print(f"ok: {events} event(s){suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
