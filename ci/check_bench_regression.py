#!/usr/bin/env python3
"""Gate BENCH_micro_sim_throughput.json against the committed baseline.

Compares only machine-independent metrics, so the gate is robust
across runner hardware generations:

  fastforward.<profile>.ff_speedup   (event-horizon speedup, off/on)
  sm_cycles_per_sec.<tech> / sm_cycles_per_sec.Baseline
                                     (per-technique throughput relative
                                      to Baseline on the same host)
  trace.events                       (events one traced hotspot SM
                                      records: deterministic, so exact)

Absolute times (off_ms/on_ms) and cycles/sec vary with the host and are
reported but never gated. Exits non-zero when any gated ratio drops
more than --max-drop (default 10%) below the baseline, when
trace.events differs from the baseline at all, or when a section
present in the baseline is missing from the new run. The trace section
must always be present: BM_TraceOverheadHotspot fails its "tracing off
slower than on" check by erroring, which drops its run and so the
section.
"""

import argparse
import json
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed baseline JSON")
    ap.add_argument("current", help="freshly measured JSON")
    ap.add_argument("--max-drop", type=float, default=0.10,
                    help="max fractional drop allowed (default 0.10)")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    failures = []
    base_ff = base.get("fastforward", {})
    cur_ff = cur.get("fastforward", {})
    for profile, metrics in sorted(base_ff.items()):
        want = metrics.get("ff_speedup")
        if want is None:
            continue
        got_section = cur_ff.get(profile)
        if got_section is None:
            failures.append(
                f"fastforward.{profile}: missing from current run")
            continue
        got = got_section.get("ff_speedup")
        floor = want * (1.0 - args.max_drop)
        status = "OK" if got >= floor else "FAIL"
        print(f"fastforward.{profile}.ff_speedup: baseline {want:.3f} "
              f"current {got:.3f} floor {floor:.3f} [{status}]")
        if got < floor:
            failures.append(
                f"fastforward.{profile}.ff_speedup regressed: "
                f"{got:.3f} < {floor:.3f} ({want:.3f} - {args.max_drop:.0%})")

    if not base_ff:
        failures.append("baseline has no fastforward section to gate on")

    # Technique-relative throughput: <tech>/Baseline cancels the host
    # speed, leaving only the simulator's per-technique overhead. A drop
    # means a technique's hot path (scheduler, pg controller) got
    # disproportionately slower.
    base_cps = base.get("sm_cycles_per_sec", {})
    cur_cps = cur.get("sm_cycles_per_sec", {})
    base_ref = base_cps.get("Baseline")
    cur_ref = cur_cps.get("Baseline")
    if base_ref and not cur_ref:
        failures.append("sm_cycles_per_sec.Baseline: missing from "
                        "current run")
    for tech in sorted(base_cps):
        if tech == "Baseline" or not base_ref or not cur_ref:
            continue
        want = base_cps[tech] / base_ref
        got_abs = cur_cps.get(tech)
        if got_abs is None:
            failures.append(
                f"sm_cycles_per_sec.{tech}: missing from current run")
            continue
        got = got_abs / cur_ref
        floor = want * (1.0 - args.max_drop)
        status = "OK" if got >= floor else "FAIL"
        print(f"sm_cycles_per_sec.{tech}/Baseline: baseline {want:.3f} "
              f"current {got:.3f} floor {floor:.3f} [{status}]")
        if got < floor:
            failures.append(
                f"sm_cycles_per_sec.{tech}/Baseline regressed: "
                f"{got:.3f} < {floor:.3f} ({want:.3f} - {args.max_drop:.0%})")

    # Event trace: a missing section means BM_TraceOverheadHotspot did
    # not run or failed its check. The event count is a pure function
    # of the hotspot SM 0 simulation, so any change is a regression.
    base_trace = base.get("trace")
    cur_trace = cur.get("trace")
    if cur_trace is None:
        failures.append("trace: missing from current run "
                        "(BM_TraceOverheadHotspot failed or did not run)")
    elif base_trace is None or "events" not in base_trace:
        failures.append("baseline has no trace.events to gate on")
    else:
        want = base_trace["events"]
        got = cur_trace.get("events")
        status = "OK" if got == want else "FAIL"
        print(f"trace.events: baseline {want} current {got} "
              f"(exact) [{status}]")
        if got != want:
            failures.append(
                f"trace.events changed: {got} != {want} (gated exactly)")

    for msg in failures:
        print(f"REGRESSION: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
