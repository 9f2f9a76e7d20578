// In-band cluster metric aggregation for distributed LTFB (DESIGN.md §11).
//
// At every round boundary each rank snapshots its own telemetry rank scope
// (telemetry::Registry::snapshot_rank), diffs it against the previous
// boundary, and ships the delta up a two-hop tree that mirrors the LTFB
// communicator layout: trainer ranks -> their leader over trainer_comm,
// leaders -> the root leader over the (post-shrink) leader communicator.
// The root folds the deltas into per-round cluster aggregates — counter
// sums, timer count/total merges, per-rank step-time statistics via
// telemetry::RunningStats::merge — appends one JSON object per round to a
// metrics_timeseries.jsonl artifact, and optionally emits a live progress
// line through the Logger.
//
// Fault interplay (PR 3 semantics): gathers run under a deadline and catch
// RankFailedError / TimeoutError — a dead or straggling rank is reported
// as missing for the round, never allowed to stall or abort training. The
// leader hop uses the post-shrink leader communicator, so ranks of
// trainers that left the population are excluded by construction.
// Injected faults (FaultInjected) always propagate: aggregation is just
// another op on the victim's schedule.
//
// When inactive (telemetry disabled, or neither a timeseries path nor
// live progress requested) the aggregator performs ZERO communication, so
// deterministic fault schedules over op counters are unperturbed.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>

#include "comm/communicator.hpp"
#include "core/ltfb.hpp"
#include "telemetry/running_stats.hpp"
#include "telemetry/telemetry.hpp"

namespace ltfb::core {

class ClusterMetricsAggregator {
 public:
  struct Options {
    /// JSONL output path, appended one object per round by the root
    /// leader. Empty falls back to the LTFB_METRICS_TIMESERIES environment
    /// variable (so unmodified binaries can produce the artifact); empty
    /// there too disables it.
    std::string timeseries_path;
    /// Emit a one-line per-round cluster summary through the Logger
    /// (component "ltfb") from the root leader.
    bool live_progress = false;
    /// Deadline for each gather hop (the tournament exchange deadline in
    /// practice). Must be positive when the aggregator is active.
    std::chrono::milliseconds gather_deadline{60'000};
    int world_size = 0;
    int world_rank = 0;
  };

  /// Baselines the calling rank's telemetry scope. Active only when the
  /// registry is enabled AND an output (timeseries or live progress) is
  /// requested — the activation predicate is uniform across ranks, which
  /// is what keeps the gather protocol collective.
  explicit ClusterMetricsAggregator(Options options);

  bool active() const noexcept { return active_; }

  /// One rank's step-time summary for the last aggregated round — the
  /// straggler signal the elastic scheduler's migration policy consumes
  /// (core/scheduler.hpp: "migrate the slowest trainer off the slowest
  /// rank").
  struct RankStepStat {
    int world_rank = -1;
    std::uint64_t step_count = 0;
    double step_mean_s = 0.0;
  };

  /// Root leader only: per-rank step statistics from the most recent
  /// round_boundary, sorted by world rank. Empty on non-root ranks, when
  /// inactive, or before the first boundary.
  const std::vector<RankStepStat>& last_round_rank_steps() const noexcept {
    return last_rank_steps_;
  }

  /// Elastic churn markers (PR 8): record the population events applied at
  /// the boundary entering the round whose round_boundary call comes next.
  /// The root leader emits them as `population`/`joined`/`left` fields of
  /// that round's timeseries object, so tools/ltfb_trace.py can track the
  /// active set instead of assuming a fixed one. Call on every rank (only
  /// the root uses it); resets after each boundary.
  void note_churn(std::vector<int> joined, std::vector<int> left,
                  int population);

  /// One aggregation round; called by EVERY participating rank at the
  /// round boundary (after the leader shrink, before the winner
  /// broadcast). `leader_stat` is the leader's tournament stat for the
  /// round (nullptr on non-leaders); `round_wall_s` the caller's measured
  /// round duration. Returns the max-min spread of per-rank mean step
  /// times within the caller's trainer (leaders; 0.0 otherwise) — the
  /// RoundRecord::max_rank_gap_s feed. Swallows RankFailedError and
  /// TimeoutError from dead or straggling peers; FaultInjected and
  /// everything else propagates.
  double round_boundary(std::size_t round, comm::Communicator& trainer_comm,
                        comm::Communicator& leader_comm, bool leader,
                        const TrainerRoundStat* leader_stat,
                        double round_wall_s);

 private:
  telemetry::MetricsSnapshot delta_since_baseline();

  Options options_;
  bool active_ = false;
  int snapshot_rank_ = -1;  // telemetry scope to diff; -1 = none bound
  telemetry::MetricsSnapshot baseline_;
  /// Cumulative per-rank mean-step-time distribution across all rounds,
  /// merged round by round (RunningStats::merge) on the root.
  telemetry::RunningStats cumulative_step_stats_;
  /// Root: per-rank step stats of the last boundary (policy input).
  std::vector<RankStepStat> last_rank_steps_;
  /// Churn markers pending for the next emitted round (note_churn).
  std::vector<int> churn_joined_;
  std::vector<int> churn_left_;
  int churn_population_ = -1;  // -1 = no churn noted for this round
};

}  // namespace ltfb::core
