// Elastic LTFB: cluster scheduler, live trainer migration, and population
// resize under churn (DESIGN.md §14).
//
// The paper's runs are static: N trainers are carved out of the world at
// launch and the population only ever shrinks around failures (PR 3). Real
// cluster allocations breathe — nodes join late, are reclaimed early, or
// degrade into stragglers — so this layer adds an ElasticScheduler that
// runs alongside the tournament loop and reshapes the population at round
// boundaries without restarting the run:
//
//   * Grow / StartTrainer  — a fresh trainer spins up on an idle rank
//     (deterministic warm-up, churn-invariant data shard).
//   * Shrink / StopTrainer — a trainer retires and frees its rank.
//   * MigrateTrainer       — a live trainer moves between ranks: its full
//     state (model + optimizer + reader position + shard manifest) is
//     serialized through the population-checkpoint v3 format and shipped
//     over the comm backend; the destination resumes mid-tournament with
//     round counter and RNG state intact.
//
// Command/ack protocol: world rank 0 is the scheduler (it may also host a
// trainer). At every round boundary it sends each live rank ONE envelope —
// {seq, round, post-boundary roster, commands for that rank} — on the
// dedicated kSchedCmdTagBase namespace and collects one ack per envelope
// on kSchedAckTagBase, each ack carrying per-command status. Every recv is
// deadline-bounded; a timed-out ack is retried exactly once by resending
// the SAME seq (receivers deduplicate on seq, so retries are idempotent),
// and a target that still does not answer maps onto the PR 3 fault model:
// the rank is marked dead (RankFailedError semantics) or its trainer is
// dropped from the roster at the next boundary (TimeoutError semantics) —
// the scheduler never hangs and the tournament degrades exactly like a
// PR 3 round with a dead partner.
//
// Determinism rules (the elasticity contract the replay tests pin down):
//   * A trainer's state is a pure function of (trainer id, config seed,
//     steps taken) — never of the rank hosting it. Migration is therefore
//     placement-transparent: RoundRecord history is bit-identical whether
//     or not a trainer moved.
//   * Data shards are carved with a FIXED max_trainers denominator, so a
//     trainer's partition is churn-invariant; the shard manifest travels
//     in the migration payload and is verified on arrival.
//   * Re-pairing is tournament_pairs(sorted active ids, pairing_seed,
//     round) — a stateless function of the roster, so any churn schedule
//     replays to the same pairings.
//   * Churn events are keyed by round number (fault-schedule grammar
//     join:T@N / leave:T@N / migrate:T@N:D), so CI can replay a schedule
//     and assert bit-identical history.
//
// Straggler policy: when the cluster metrics aggregator is active, the
// scheduler reads its per-rank step statistics (ClusterMetricsAggregator::
// last_round_rank_steps) and migrates the trainer hosted on the slowest
// rank to the lowest-numbered idle rank once the slow/fast step-time ratio
// exceeds straggler_ratio. Policy migrations change placement only, never
// history (see above), so they are safe to drive from wall-clock signals.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/ltfb.hpp"
#include "core/metrics_aggregator.hpp"
#include "data/dataset.hpp"

namespace ltfb::core {

// -- scheduler tag namespaces -------------------------------------------------
//
// Distinct from tournament exchanges (tag = round < 1<<20), gradient
// rings (nn/parallel.cpp, 1<<20) and metric aggregation (1<<24), and far
// below the Communicator's internal bit-62 reserve. Each base gets a
// 1<<20-wide round window; the bases are spaced >= 4M apart so the windows
// can never overlap.
inline constexpr int kSchedCmdTagBase = 1 << 25;    // scheduler -> rank envelope
inline constexpr int kSchedAckTagBase = 3 << 24;    // rank -> scheduler ack
inline constexpr int kSchedXferTagBase = 5 << 23;   // migration payload src -> dst
inline constexpr int kSchedStatTagBase = 7 << 22;   // per-round stats -> scheduler

int sched_cmd_tag(std::uint64_t round);
int sched_ack_tag(std::uint64_t round);
int sched_xfer_tag(std::uint64_t round);
int sched_stat_tag(std::uint64_t round);

// -- typed commands -----------------------------------------------------------

enum class SchedulerCommandKind : std::uint8_t {
  NoOp = 0,         // roster refresh only
  StartTrainer,     // primitive: fresh trainer on dst_rank
  StopTrainer,      // primitive: retire trainer on src_rank
  MigrateTrainer,   // move trainer src_rank -> dst_rank (sent to BOTH ends)
  Grow,             // population resize via StartTrainer (schedule join)
  Shrink,           // population resize via StopTrainer (schedule leave)
};

const char* scheduler_command_name(SchedulerCommandKind kind) noexcept;

/// One typed scheduler command. Grow/Shrink apply exactly like
/// StartTrainer/StopTrainer — the distinct kinds attribute population
/// resizes to the churn schedule in telemetry and acks.
struct SchedulerCommand {
  SchedulerCommandKind kind = SchedulerCommandKind::NoOp;
  int trainer_id = -1;
  int src_rank = -1;  // current host (Stop/Shrink/Migrate)
  int dst_rank = -1;  // new host (Start/Grow/Migrate)
};

/// The per-rank boundary envelope. `seq` is the idempotency key: the
/// scheduler bumps it once per boundary and a retry resends the same
/// value, so receivers that already applied it ack AlreadyApplied without
/// reapplying. The post-boundary roster rides in every envelope — a single
/// envelope fully describes the new population, so commands never depend
/// on the receiver having seen earlier boundaries.
struct SchedulerEnvelope {
  std::uint64_t seq = 0;
  std::uint64_t round = 0;
  std::vector<int> roster_trainers;  // sorted trainer ids
  std::vector<int> roster_hosts;     // parallel: hosting world rank
  std::vector<SchedulerCommand> commands;  // this rank's program (may be empty)
};

enum class SchedulerAckStatus : std::uint8_t {
  Ok = 0,
  AlreadyApplied,  // duplicate seq — retry of an envelope already applied
  Failed,          // apply raised; detail carries the reason
};

/// Ack for one envelope: one status per command (empty for a NoOp
/// envelope), so the scheduler can map a partial failure — e.g. a
/// migration payload lost in flight — onto the fault model per trainer
/// instead of guessing from a single bit.
struct SchedulerAck {
  std::uint64_t seq = 0;
  int rank = -1;
  std::vector<SchedulerAckStatus> statuses;
  std::vector<std::string> details;  // parallel; empty string when Ok
};

// Wire format (comm::Serializer; throws ltfb::FormatError on malformed or
// trailing bytes, mirroring the population-checkpoint reader).
comm::Buffer encode_scheduler_envelope(const SchedulerEnvelope& envelope);
SchedulerEnvelope decode_scheduler_envelope(const comm::Buffer& buffer);
comm::Buffer encode_scheduler_ack(const SchedulerAck& ack);
SchedulerAck decode_scheduler_ack(const comm::Buffer& buffer);

// -- the scheduler ------------------------------------------------------------

/// Runs on world rank 0 next to (not instead of) that rank's trainer.
/// plan_boundary lowers churn-schedule events and the straggler policy
/// into typed commands; issue_boundary drives the command/ack protocol.
/// The class owns the authoritative roster and rank-liveness view.
class ElasticScheduler {
 public:
  struct Options {
    /// Deadline for every command ack (one idempotent retry on timeout).
    std::chrono::milliseconds ack_deadline{60'000};
    /// Fixed data-partition denominator; trainer ids must stay below it.
    int max_trainers = 0;
    /// Enable "migrate the slowest trainer off the slowest rank".
    bool straggler_policy = false;
    /// Slowest/fastest mean-step-time ratio that triggers a policy
    /// migration (> 1.0).
    double straggler_ratio = 1.5;
  };

  /// `world` must be the world communicator of rank 0. `initial` maps
  /// trainer id -> hosting world rank; `churn` supplies join/leave/migrate
  /// events (kill/drop/delay entries are ignored here — the comm layer
  /// owns those).
  ElasticScheduler(comm::Communicator& world, std::map<int, int> initial,
                   comm::FaultSchedule churn, Options options);

  const std::map<int, int>& roster() const noexcept { return roster_; }
  bool rank_alive(int rank) const;
  bool rank_hosting(int rank) const;
  std::size_t migrations() const noexcept { return migrations_; }
  std::size_t joins() const noexcept { return joins_; }
  std::size_t leaves() const noexcept { return leaves_; }

  /// Folds pending fault removals into the roster, lowers the round's
  /// churn events plus (optionally) one straggler migration into per-rank
  /// command programs, and mutates the roster to its post-boundary state.
  /// Deterministic given (roster, schedule, round); `rank_steps` only
  /// influences placement, never membership. Infeasible events (join with
  /// no idle rank, leave of an unknown trainer, migrate onto an occupied
  /// or dead rank) are skipped with a counter, not fatal.
  struct BoundaryPlan {
    std::vector<SchedulerEnvelope> envelopes;  // one per live rank, rank order
    std::vector<int> envelope_ranks;           // parallel: destination rank
    std::vector<int> joined;                   // trainer ids added this boundary
    std::vector<int> left;                     // trainer ids removed this boundary
    std::size_t skipped_events = 0;
  };
  BoundaryPlan plan_boundary(
      std::uint64_t round,
      const std::vector<ClusterMetricsAggregator::RankStepStat>& rank_steps);

  /// Sends every envelope, applies rank 0's own program through
  /// `apply_local` (no self-send), then collects one deadline-bounded ack
  /// per remote envelope with one idempotent retry. Ack failures map onto
  /// the fault model: RankFailedError (or a second timeout) marks the rank
  /// dead; a Failed per-command status drops the affected trainer from the
  /// roster at the NEXT boundary — in between, tournaments degrade exactly
  /// like PR 3 rounds with a dead partner.
  struct BoundaryOutcome {
    std::vector<SchedulerAck> acks;  // remote acks, envelope order
    std::vector<int> dead_ranks;     // ranks newly declared dead
    std::vector<int> lost_trainers;  // trainers queued for removal
  };
  BoundaryOutcome issue_boundary(
      const BoundaryPlan& plan,
      const std::function<SchedulerAck(const SchedulerEnvelope&)>& apply_local);

  /// Queue a trainer for removal at the next boundary (stat collection
  /// uses this when a host stops reporting mid-round).
  void note_lost_trainer(int trainer_id);
  bool trainer_pending_lost(int trainer_id) const;

 private:
  struct Placement {  // one planned command plus its addressees
    SchedulerCommand command;
    std::vector<int> targets;  // world ranks that must apply it
  };
  std::vector<int> idle_alive_ranks() const;

  comm::Communicator& world_;
  comm::FaultSchedule churn_;
  Options options_;
  std::map<int, int> roster_;  // trainer id -> hosting world rank (sorted)
  std::vector<bool> alive_;    // world-rank liveness as the scheduler knows it
  std::set<int> pending_lost_;  // trainers to drop at the next boundary
  std::uint64_t seq_ = 0;
  std::size_t migrations_ = 0;
  std::size_t joins_ = 0;
  std::size_t leaves_ = 0;
  std::size_t skipped_events_ = 0;
};

/// The rank side of the protocol: blocks for the boundary envelope
/// (deadline-bounded), deduplicates retries by seq (AlreadyApplied acks,
/// no reapply), and sends the per-command ack built by the caller.
class SchedulerClient {
 public:
  SchedulerClient(comm::Communicator& world, int scheduler_rank,
                  std::chrono::milliseconds deadline);

  /// Receives this rank's envelope for `round`. Duplicate seqs are acked
  /// AlreadyApplied and skipped internally; the first fresh envelope is
  /// returned. Throws RankFailedError / TimeoutError like a plain recv —
  /// a dead or wedged scheduler must abort the rank, not hang it.
  SchedulerEnvelope await_boundary(std::uint64_t round);

  /// Acks `envelope` with one status per command.
  void ack(const SchedulerEnvelope& envelope,
           std::vector<SchedulerAckStatus> statuses,
           std::vector<std::string> details);

 private:
  comm::Communicator& world_;
  int scheduler_rank_;
  std::chrono::milliseconds deadline_;
  std::uint64_t last_seq_ = 0;  // high-water mark of applied envelopes
};

// -- the elastic driver -------------------------------------------------------

struct ElasticLtfbConfig {
  std::size_t batch_size = 32;
  LtfbConfig ltfb;
  gan::CycleGanConfig model;
  std::uint64_t seed = 1;
  /// Trainers at round 0, hosted on world ranks [0, initial_trainers).
  /// 0 selects the full world.
  int initial_trainers = 0;
  /// Fixed data-partition denominator (trainer ids stay below it, shards
  /// are churn-invariant). 0 selects the world size.
  int max_trainers = 0;
  /// Deadline for tournament exchanges, migration payloads, and stat
  /// collection. Must be positive: the elastic protocol is deadline-based.
  std::chrono::milliseconds comm_timeout{60'000};
  /// Deadline for command acks; 0 derives comm_timeout.
  std::chrono::milliseconds ack_timeout{0};
  /// Churn schedule (join/leave/migrate events; kill/drop/delay entries
  /// are ignored — the comm layer owns those).
  comm::FaultSchedule churn;
  /// Merge churn events from LTFB_FAULT_SCHEDULE when `churn` has none,
  /// so unmodified binaries can be driven by the environment alone.
  bool churn_from_env = true;
  bool straggler_policy = false;
  double straggler_ratio = 1.5;
  /// Cluster metrics (core/metrics_aggregator.hpp); also feeds the
  /// straggler policy. Empty falls back to LTFB_METRICS_TIMESERIES.
  std::string metrics_timeseries_path;
  bool live_progress = false;
};

struct ElasticTrainerResult {
  int trainer_id = -1;
  int host_rank = -1;
  std::uint64_t steps = 0;
  std::uint64_t tournaments_won = 0;
  std::uint64_t adoptions = 0;
  double final_tournament_score = 0.0;
  double final_validation_loss = 0.0;
};

struct ElasticLtfbOutcome {
  int rank = -1;
  bool scheduler = false;        // true on world rank 0
  bool hosting_final = false;    // this rank hosts a trainer at the end
  int final_trainer_id = -1;
  bool aborted = false;          // this rank lost the scheduler and bailed
  // Scheduler-only (authoritative population view):
  std::vector<RoundRecord> history;            // joined/left markers included
  std::vector<ElasticTrainerResult> results;   // final trainers, sorted by id
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t migrations = 0;
};

/// Collective over `world`: every rank calls it with the same
/// configuration. Single-rank trainers (one trainer per rank at most);
/// world rank 0 schedules and may also host trainer 0. The returned
/// history on rank 0 is bit-identical across replays of the same churn
/// schedule (see the determinism rules above).
ElasticLtfbOutcome run_elastic_ltfb(comm::Communicator& world,
                                    const data::Dataset& dataset,
                                    const data::SplitIndices& splits,
                                    const ElasticLtfbConfig& config);

}  // namespace ltfb::core
