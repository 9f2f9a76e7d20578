#!/usr/bin/env python3
"""Distributed-trace analyzer for LTFB Chrome traces (DESIGN.md §11).

Consumes the artifacts a distributed run leaves behind:

  * a Chrome trace (telemetry::Registry::write_trace_json) with one pid per
    rank (pid = 10 + rank), thread_name/process_name metadata, and
    cross-rank flow events (ph "s"/"f", matched by id) for message edges;
  * optionally the metrics_timeseries.jsonl the in-band cluster aggregator
    appends one JSON object per LTFB round.

and reports:

  * per-rank busy/wait breakdown (train compute vs. receive-wait vs. other
    communication),
  * straggler ranking by mean step time, with the cluster max-min gap,
  * the message-wait critical path: the chain of send->recv flow edges
    ending at the latest receive, walked backwards across ranks.

--validate turns the analyzer into a CI gate: it checks structural
invariants of both artifacts (rank pids present, metadata coverage, at
least one matched flow pair, per-line cluster == sum(per-rank) in the
timeseries) and exits non-zero on the first violation. Elastic runs stamp
per-round churn markers ("population", "joined", "left"); validation then
also requires the active population to evolve by exactly the markers.

Stdlib only; no third-party dependencies.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import defaultdict

RANK_PID_BASE = 10  # telemetry::kRankPidBase
METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(/[a-z0-9_]+)+$")

BUSY_SPANS = {"trainer/step"}
WAIT_SPANS = {"comm/recv_wait"}


def load_trace(path):
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        raise ValueError("traceEvents is not a list")
    return events


def rank_of_pid(pid):
    return pid - RANK_PID_BASE if pid >= RANK_PID_BASE else None


class Trace:
    """Indexed view over a Chrome trace's events."""

    def __init__(self, events):
        self.events = events
        self.spans = [e for e in events if e.get("ph") == "X"]
        self.flows = [
            e for e in events if e.get("ph") in ("s", "f")
            and e.get("cat") == "flow"
        ]
        self.metadata = [e for e in events if e.get("ph") == "M"]
        self.process_names = {}
        self.thread_names = {}
        for e in self.metadata:
            args = e.get("args", {})
            if e.get("name") == "process_name":
                self.process_names[e["pid"]] = args.get("name", "")
            elif e.get("name") == "thread_name":
                self.thread_names[(e["pid"], e.get("tid"))] = args.get(
                    "name", "")
        self.ranks = sorted(
            r for r in (rank_of_pid(e["pid"]) for e in self.spans)
            if r is not None)
        self.ranks = sorted(set(self.ranks))

    def rank_spans(self, rank):
        pid = RANK_PID_BASE + rank
        return [s for s in self.spans if s["pid"] == pid]

    def matched_flows(self):
        """Returns [(flow_id, start_event, finish_event)] for every id with
        exactly one 's' and one 'f' endpoint."""
        by_id = defaultdict(lambda: {"s": [], "f": []})
        for f in self.flows:
            by_id[f["id"]][f["ph"]].append(f)
        matched = []
        for flow_id, ends in sorted(by_id.items()):
            if len(ends["s"]) == 1 and len(ends["f"]) == 1:
                matched.append((flow_id, ends["s"][0], ends["f"][0]))
        return matched

    def unmatched_flow_count(self):
        by_id = defaultdict(lambda: [0, 0])
        for f in self.flows:
            by_id[f["id"]][0 if f["ph"] == "s" else 1] += 1
        return sum(1 for s, f in by_id.values() if s != 1 or f != 1)


def per_rank_breakdown(trace):
    """rank -> dict(total_s, busy_s, wait_s, comm_s, steps, step_mean_s)."""
    rows = {}
    for rank in trace.ranks:
        spans = trace.rank_spans(rank)
        if not spans:
            continue
        first = min(s["ts"] for s in spans)
        last = max(s["ts"] + s.get("dur", 0.0) for s in spans)
        busy_us = sum(s.get("dur", 0.0) for s in spans
                      if s["name"] in BUSY_SPANS)
        wait_us = sum(s.get("dur", 0.0) for s in spans
                      if s["name"] in WAIT_SPANS)
        comm_us = sum(s.get("dur", 0.0) for s in spans
                      if s["name"].startswith("comm/")
                      and s["name"] not in WAIT_SPANS)
        steps = [s.get("dur", 0.0) for s in spans if s["name"] in BUSY_SPANS]
        rows[rank] = {
            "total_s": (last - first) * 1e-6,
            "busy_s": busy_us * 1e-6,
            "wait_s": wait_us * 1e-6,
            "comm_s": comm_us * 1e-6,
            "steps": len(steps),
            "step_mean_s": (sum(steps) / len(steps)) * 1e-6 if steps else 0.0,
        }
    return rows


def merge_timeseries_breakdown(rows, rounds):
    """Fill busy/wait/step columns from the timeseries per_rank blocks when
    the trace alone could not provide them. `trainer/step` and
    `comm/recv_wait` are metric timers, not trace spans, so a normal trace
    has no per-step spans — but every round's JSONL line carries each
    rank's busy_s/wait_s/step totals, which is exactly this breakdown."""
    busy = defaultdict(float)
    wait = defaultdict(float)
    steps = defaultdict(int)
    for line in rounds:
        for rank_str, stats in line.get("per_rank", {}).items():
            rank = int(rank_str)
            busy[rank] += stats.get("busy_s", 0.0)
            wait[rank] += stats.get("wait_s", 0.0)
            steps[rank] += int(stats.get("step_count", 0))
    for rank, row in rows.items():
        if row["steps"] == 0 and steps[rank] > 0:
            row["steps"] = steps[rank]
            row["busy_s"] = busy[rank]
            row["step_mean_s"] = busy[rank] / steps[rank]
        if row["wait_s"] == 0.0 and wait[rank] > 0.0:
            row["wait_s"] = wait[rank]
    return rows


def straggler_ranking(breakdown):
    """Ranks ordered slowest-first by mean step time (ranks with steps)."""
    ranked = [(row["step_mean_s"], rank)
              for rank, row in breakdown.items() if row["steps"] > 0]
    ranked.sort(reverse=True)
    return [(rank, mean) for mean, rank in ranked]


def critical_path(trace, max_hops=32):
    """Message-wait critical path: start from the latest receive endpoint,
    then repeatedly hop to the latest receive on the sending rank that
    completed before that message was sent. Approximates the chain of
    cross-rank dependencies that gated the end of the run."""
    matched = trace.matched_flows()
    if not matched:
        return []
    # Latest finish first.
    matched.sort(key=lambda m: m[2]["ts"], reverse=True)
    path = []
    current = matched[0]
    for _ in range(max_hops):
        flow_id, start, finish = current
        path.append({
            "id": flow_id,
            "src_rank": rank_of_pid(start["pid"]),
            "dst_rank": rank_of_pid(finish["pid"]),
            "send_ts_us": start["ts"],
            "recv_ts_us": finish["ts"],
            "latency_us": finish["ts"] - start["ts"],
        })
        predecessors = [
            m for m in matched
            if m[2]["pid"] == start["pid"] and m[2]["ts"] <= start["ts"]
            and m is not current
        ]
        if not predecessors:
            break
        current = max(predecessors, key=lambda m: m[2]["ts"])
    path.reverse()
    return path


def load_timeseries(path):
    rounds = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rounds.append(json.loads(line))
            except json.JSONDecodeError as err:
                raise ValueError(
                    f"{path}:{lineno}: invalid JSON line: {err}") from err
    return rounds


# ---------------------------------------------------------------------------
# Validation (the CI gate)
# ---------------------------------------------------------------------------


class ValidationError(Exception):
    pass


def check(cond, message):
    if not cond:
        raise ValidationError(message)


def validate_trace(trace, min_ranks):
    check(trace.ranks, "trace has no rank-attributed spans")
    check(
        len(trace.ranks) >= min_ranks,
        f"trace covers {len(trace.ranks)} rank(s), expected >= {min_ranks}")
    for rank in trace.ranks:
        pid = RANK_PID_BASE + rank
        check(pid in trace.process_names,
              f"rank pid {pid} has no process_name metadata")
        check(trace.process_names[pid] == f"rank {rank}",
              f"rank pid {pid} is named {trace.process_names[pid]!r}, "
              f"expected 'rank {rank}'")
        check(trace.rank_spans(rank), f"rank {rank} track has no spans")
    for span in trace.spans:
        check(METRIC_NAME_RE.match(span.get("name", "")),
              f"span name {span.get('name')!r} violates subsystem/verb")
        check(span.get("dur", 0.0) >= 0.0,
              f"span {span.get('name')!r} has negative duration")
    for flow in trace.flows:
        check(isinstance(flow.get("id"), str) and flow["id"].startswith("0x"),
              f"flow id {flow.get('id')!r} is not a hex string")
        if flow["ph"] == "f":
            check(flow.get("bp") == "e",
                  "flow finish event missing 'bp': 'e' binding")
    if trace.flows:
        matched = trace.matched_flows()
        check(matched, "trace has flow endpoints but no matched s->f pair")
        for _, start, finish in matched:
            check(finish["ts"] >= start["ts"],
                  "matched flow finishes before it starts")


def validate_timeseries(rounds, trace=None):
    check(rounds, "metrics timeseries is empty")
    prev_round = -1
    prev_population = None
    for entry in rounds:
        rnd = entry.get("round")
        check(isinstance(rnd, int), "timeseries line missing integer 'round'")
        check(rnd > prev_round,
              f"round {rnd} does not increase (previous {prev_round})")
        prev_round = rnd
        expected = entry.get("ranks_expected", 0)
        reporting = entry.get("ranks_reporting", 0)
        check(0 < reporting <= expected,
              f"round {rnd}: ranks_reporting {reporting} outside "
              f"(0, {expected}]")
        check(len(entry.get("reporting_ranks", [])) == reporting,
              f"round {rnd}: reporting_ranks length != ranks_reporting")
        # Cluster aggregates must equal the fold of the per-rank deltas
        # shipped the same round — the "in-band aggregation is honest"
        # invariant.
        per_rank = entry.get("per_rank", {})
        check(len(per_rank) == reporting,
              f"round {rnd}: per_rank holds {len(per_rank)} entries, "
              f"ranks_reporting says {reporting}")
        summed = defaultdict(int)
        for stats in per_rank.values():
            for name, value in stats.get("counters", {}).items():
                summed[name] += value
        cluster = entry.get("counters", {})
        check(dict(summed) == {k: v for k, v in cluster.items() if v},
              f"round {rnd}: cluster counters != sum of per-rank counters")
        # Elastic runs stamp churn markers per round: the post-boundary
        # population plus explicit joined/left trainer lists. The active
        # set must evolve by exactly those lists — a population jump
        # without markers means a round record went missing.
        population = entry.get("population")
        if population is not None:
            joined = entry.get("joined", [])
            left = entry.get("left", [])
            check(isinstance(population, int) and population > 0,
                  f"round {rnd}: population {population!r} is not a "
                  f"positive integer")
            check(isinstance(joined, list) and isinstance(left, list),
                  f"round {rnd}: joined/left churn markers must be lists")
            check(not (set(joined) & set(left)),
                  f"round {rnd}: trainer both joined and left in one round")
            if prev_population is not None:
                check(population == prev_population + len(joined) - len(left),
                      f"round {rnd}: population {population} != previous "
                      f"{prev_population} + {len(joined)} joined - "
                      f"{len(left)} left")
            prev_population = population
        else:
            check(prev_population is None,
                  f"round {rnd}: population marker disappeared mid-run")
        st = entry.get("step_time", {})
        if st.get("mean_s", 0.0) > 0.0:
            check(st["min_s"] <= st["mean_s"] <= st["max_s"],
                  f"round {rnd}: step_time mean outside [min, max]")
            check(abs(st["gap_s"] - (st["max_s"] - st["min_s"])) < 1e-9,
                  f"round {rnd}: step_time gap != max - min")
        if trace is not None:
            for rank in entry.get("reporting_ranks", []):
                check(rank in trace.ranks,
                      f"round {rnd}: reporting rank {rank} has no trace "
                      f"track")


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def format_report(trace, rounds, top):
    lines = []
    breakdown = merge_timeseries_breakdown(per_rank_breakdown(trace), rounds)
    lines.append(f"ranks in trace: {len(trace.ranks)} "
                 f"({', '.join(str(r) for r in trace.ranks)})")
    lines.append("")
    lines.append("per-rank breakdown (seconds):")
    lines.append(f"  {'rank':>4} {'total':>9} {'busy':>9} {'wait':>9} "
                 f"{'comm':>9} {'steps':>6} {'step mean':>10}")
    for rank in trace.ranks:
        row = breakdown.get(rank)
        if row is None:
            continue
        lines.append(
            f"  {rank:>4} {row['total_s']:>9.4f} {row['busy_s']:>9.4f} "
            f"{row['wait_s']:>9.4f} {row['comm_s']:>9.4f} "
            f"{row['steps']:>6} {row['step_mean_s']:>10.6f}")
    ranked = straggler_ranking(breakdown)
    if ranked:
        gap = ranked[0][1] - ranked[-1][1]
        lines.append("")
        lines.append(f"straggler ranking (slowest mean step first; "
                     f"cluster gap {gap * 1e3:.3f} ms):")
        for rank, mean in ranked[:top]:
            lines.append(f"  rank {rank}: {mean * 1e3:.3f} ms/step")
    path = critical_path(trace)
    if path:
        total_us = sum(hop["latency_us"] for hop in path)
        lines.append("")
        lines.append(f"message-wait critical path ({len(path)} hops, "
                     f"{total_us * 1e-3:.3f} ms of message latency):")
        for hop in path[-top:]:
            lines.append(
                f"  rank {hop['src_rank']} -> rank {hop['dst_rank']}  "
                f"latency {hop['latency_us'] * 1e-3:.3f} ms  "
                f"(id {hop['id']})")
    matched = trace.matched_flows()
    lines.append("")
    lines.append(f"flows: {len(matched)} matched send->recv pair(s), "
                 f"{trace.unmatched_flow_count()} unmatched endpoint id(s) "
                 f"(drops / in-flight at export)")
    if rounds:
        last = rounds[-1]
        lines.append("")
        lines.append(
            f"timeseries: {len(rounds)} round(s), last round "
            f"{last.get('round')} with {last.get('ranks_reporting')}/"
            f"{last.get('ranks_expected')} ranks reporting, winner trainer "
            f"{last.get('winner_trainer')}, adoption rate "
            f"{last.get('adoption_rate', 0.0):.2f}")
        joins = sum(len(e.get("joined", [])) for e in rounds)
        leaves = sum(len(e.get("left", [])) for e in rounds)
        if last.get("population") is not None:
            lines.append(
                f"elastic churn: final population {last['population']}, "
                f"{joins} join(s), {leaves} leave(s) across the run")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?",
                        help="Chrome trace JSON from a distributed LTFB "
                        "run (optional when only --timeseries is being "
                        "validated)")
    parser.add_argument("--timeseries",
                        help="metrics_timeseries.jsonl from the in-band "
                        "cluster aggregator")
    parser.add_argument("--top", type=int, default=8,
                        help="rows to show in rankings (default 8)")
    parser.add_argument("--min-ranks", type=int, default=2,
                        help="minimum rank tracks --validate requires")
    parser.add_argument("--validate", action="store_true",
                        help="run structural checks and exit non-zero on "
                        "the first violation (CI gate)")
    parser.add_argument("--json", action="store_true",
                        help="emit the analysis as JSON instead of text")
    args = parser.parse_args(argv)
    if args.trace is None and not args.timeseries:
        parser.error("need a trace, a --timeseries, or both")

    trace = Trace(load_trace(args.trace)) if args.trace else None
    rounds = load_timeseries(args.timeseries) if args.timeseries else []

    if args.validate:
        try:
            if trace is not None:
                validate_trace(trace, args.min_ranks)
            if args.timeseries:
                validate_timeseries(rounds, trace)
        except ValidationError as err:
            print(f"VALIDATION FAILED: {err}", file=sys.stderr)
            return 1
        ranks = len(trace.ranks) if trace is not None else 0
        flows = len(trace.matched_flows()) if trace is not None else 0
        print(f"validation ok: {ranks} rank track(s), "
              f"{flows} matched flow pair(s), "
              f"{len(rounds)} timeseries round(s)")
        return 0

    if trace is None:
        parser.error("the report modes need a trace")

    if args.json:
        breakdown = merge_timeseries_breakdown(
            per_rank_breakdown(trace), rounds)
        print(json.dumps({
            "ranks": trace.ranks,
            "per_rank": breakdown,
            "stragglers": straggler_ranking(breakdown),
            "critical_path": critical_path(trace),
            "matched_flows": len(trace.matched_flows()),
            "unmatched_flow_ids": trace.unmatched_flow_count(),
            "rounds": len(rounds),
        }, indent=2))
    else:
        print(format_report(trace, rounds, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
