#!/usr/bin/env python3
"""Schema checker for the --trace Chrome-trace JSON (common/trace.hpp).

Validates that a trace file written by write_chrome_trace() (or merged from
a multi-worker sweep) is a loadable Chrome-trace-event document:

  * top level is an object with a "traceEvents" list;
  * every event is an object with a string "name", a "ph" in {X, M},
    and integer "pid"/"tid" lanes;
  * 'X' (complete-span) events carry integer "ts" >= 0 and "dur" >= 0 and a
    string "cat";
  * 'M' metadata events are process_name lane titles with args.name;
  * otherData.dropped_events is 0: no span was lost to a full thread buffer
    or to a dispatch worker's wire cap, so the timeline is complete.

Optional coverage gates, used by the CI trace-smoke job:

  --require-cats pool,round_graph,build_cache,dispatch,scheduler
        every listed category must appear on at least one 'X' event — the
        five instrumented layers all made it into the timeline;
  --min-worker-lanes 2
        at least N lanes with pid >= 1 must be *named* (process_name
        metadata) *and* carry at least one 'X' span — the coordinator really
        merged telemetry from N dispatch workers.

Exit codes: 0 valid, 1 validation failure, 2 unreadable/unparsable input.
"""

import argparse
import json
import sys

VALID_PH = {"X", "M"}


def check_events(events, errors):
    """Validate the event list; returns (span_cats, named_lanes, span_pids)."""
    span_cats = set()
    named_lanes = set()
    span_pids = set()
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing/empty 'name'")
            continue
        ph = event.get("ph")
        if ph not in VALID_PH:
            errors.append(f"{where} ({name}): bad 'ph' {ph!r}")
            continue
        for lane in ("pid", "tid"):
            if not isinstance(event.get(lane), int) or event[lane] < 0:
                errors.append(f"{where} ({name}): bad '{lane}' "
                              f"{event.get(lane)!r}")
        if ph == "M":
            if name != "process_name":
                errors.append(f"{where}: unexpected metadata event {name!r}")
            elif not isinstance(event.get("args", {}).get("name"), str):
                errors.append(f"{where}: process_name without args.name")
            else:
                named_lanes.add(event["pid"])
            continue
        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            errors.append(f"{where} ({name}): bad 'ts' {ts!r}")
        dur = event.get("dur")
        if not isinstance(dur, int) or dur < 0:
            errors.append(f"{where} ({name}): bad 'dur' {dur!r}")
        cat = event.get("cat")
        if not isinstance(cat, str) or not cat:
            errors.append(f"{where} ({name}): 'X' event without 'cat'")
        else:
            span_cats.add(cat)
        span_pids.add(event.get("pid"))
    return span_cats, named_lanes, span_pids


def check_document(doc, require_cats, min_worker_lanes):
    errors = []
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing 'traceEvents' list"]
    span_cats, named_lanes, span_pids = check_events(events, errors)
    other = doc.get("otherData")
    dropped = other.get("dropped_events") if isinstance(other, dict) else None
    if not isinstance(dropped, int) or dropped < 0:
        errors.append(f"bad otherData.dropped_events {dropped!r}")
    elif dropped > 0:
        errors.append(f"{dropped} event(s) dropped: the timeline is incomplete")
    for cat in require_cats:
        if cat not in span_cats:
            errors.append(f"required category {cat!r} has no spans "
                          f"(present: {', '.join(sorted(span_cats)) or 'none'})")
    worker_lanes = {pid for pid in named_lanes if pid >= 1 and pid in span_pids}
    if len(worker_lanes) < min_worker_lanes:
        errors.append(f"only {len(worker_lanes)} named worker lane(s) carry "
                      f"spans, need {min_worker_lanes}")
    return errors


def self_test():
    good = {
        "traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "worker 0 (host:1)"}},
            {"name": "span", "cat": "pool", "ph": "X", "pid": 0, "tid": 0,
             "ts": 0, "dur": 5},
            {"name": "span", "cat": "round_graph", "ph": "X", "pid": 1,
             "tid": 2, "ts": 1, "dur": 2},
        ],
        "otherData": {"dropped_events": 0},
    }
    complete = {"otherData": {"dropped_events": 0}}
    cases = [
        ("valid document", good, [], 0, True),
        ("required cats present", good, ["pool", "round_graph"], 1, True),
        ("missing cat fails", good, ["dispatch"], 0, False),
        ("missing worker lane fails", good, [], 2, False),
        ("span without dur fails",
         {"traceEvents": [{"name": "s", "cat": "c", "ph": "X", "pid": 0,
                           "tid": 0, "ts": 0}], **complete}, [], 0, False),
        ("instant fails",
         {"traceEvents": [{"name": "m", "ph": "i", "pid": 0, "tid": 0,
                           "ts": 0, "s": "t"}], **complete}, [], 0, False),
        ("bad ph fails",
         {"traceEvents": [{"name": "x", "ph": "B", "pid": 0, "tid": 0,
                           "ts": 0}], **complete}, [], 0, False),
        ("dropped events fail",
         {**good, "otherData": {"dropped_events": 3}}, [], 0, False),
        ("missing dropped count fails",
         {"traceEvents": good["traceEvents"]}, [], 0, False),
        ("no traceEvents fails", {}, [], 0, False),
    ]
    failed = 0
    for label, doc, cats, lanes, expect_ok in cases:
        errors = check_document(doc, cats, lanes)
        ok = not errors
        verdict = "ok" if ok == expect_ok else "SELF-TEST FAIL"
        if ok != expect_ok:
            failed += 1
        print(f"  {label:<32} {verdict}")
    if failed:
        print(f"check_trace: self-test: {failed} case(s) failed",
              file=sys.stderr)
        return 1
    print("check_trace: self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?", help="trace JSON file to validate")
    parser.add_argument("--require-cats", default="",
                        help="comma-separated span categories that must appear")
    parser.add_argument("--min-worker-lanes", type=int, default=0,
                        help="minimum named worker lanes (pid >= 1) with spans")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixture cases and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.trace is None:
        parser.error("a trace file is required (or --self-test)")

    try:
        with open(args.trace) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_trace: cannot read {args.trace}: {err}", file=sys.stderr)
        return 2

    require_cats = [c for c in args.require_cats.split(",") if c]
    errors = check_document(doc, require_cats, args.min_worker_lanes)
    if errors:
        for error in errors[:20]:
            print(f"check_trace: {args.trace}: {error}", file=sys.stderr)
        if len(errors) > 20:
            print(f"check_trace: ... and {len(errors) - 20} more",
                  file=sys.stderr)
        return 1

    events = doc["traceEvents"]
    spans = sum(1 for e in events if e.get("ph") == "X")
    lanes = len({e["pid"] for e in events})
    print(f"check_trace: {args.trace}: valid ({len(events)} events, "
          f"{spans} spans, {lanes} lane(s), 0 dropped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
