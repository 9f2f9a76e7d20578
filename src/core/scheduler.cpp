#include "core/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <optional>
#include <utility>

#include "core/population_checkpoint.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace ltfb::core {

namespace {

// Wire-format ceilings: a corrupted count must fail typed before it can
// drive an allocation (mirrors population_checkpoint.cpp).
constexpr std::uint32_t kMaxRosterEntries = 1u << 16;
constexpr std::uint32_t kMaxEnvelopeCommands = 1u << 12;

std::vector<std::int64_t> widen(const std::vector<int>& values) {
  return {values.begin(), values.end()};
}

std::vector<int> narrow(const std::vector<std::int64_t>& values,
                        const char* what) {
  std::vector<int> out;
  out.reserve(values.size());
  for (const std::int64_t v : values) {
    if (v < INT32_MIN || v > INT32_MAX) {
      throw FormatError(std::string("scheduler wire: ") + what +
                        " out of int range");
    }
    out.push_back(static_cast<int>(v));
  }
  return out;
}

}  // namespace

// -- tags ---------------------------------------------------------------------

namespace {
constexpr int kSchedTagWindow = 1 << 20;  // same round-window width as agg_tag
}  // namespace

int sched_cmd_tag(std::uint64_t round) {
  return kSchedCmdTagBase + static_cast<int>(round % kSchedTagWindow);
}

int sched_ack_tag(std::uint64_t round) {
  return kSchedAckTagBase + static_cast<int>(round % kSchedTagWindow);
}

int sched_xfer_tag(std::uint64_t round) {
  return kSchedXferTagBase + static_cast<int>(round % kSchedTagWindow);
}

int sched_stat_tag(std::uint64_t round) {
  return kSchedStatTagBase + static_cast<int>(round % kSchedTagWindow);
}

const char* scheduler_command_name(SchedulerCommandKind kind) noexcept {
  switch (kind) {
    case SchedulerCommandKind::NoOp: return "NoOp";
    case SchedulerCommandKind::StartTrainer: return "StartTrainer";
    case SchedulerCommandKind::StopTrainer: return "StopTrainer";
    case SchedulerCommandKind::MigrateTrainer: return "MigrateTrainer";
    case SchedulerCommandKind::Grow: return "Grow";
    case SchedulerCommandKind::Shrink: return "Shrink";
  }
  return "?";
}

// -- wire format --------------------------------------------------------------

comm::Buffer encode_scheduler_envelope(const SchedulerEnvelope& envelope) {
  LTFB_CHECK_MSG(
      envelope.roster_trainers.size() == envelope.roster_hosts.size(),
      "envelope roster arrays must be parallel");
  comm::Serializer s;
  s.u64(envelope.seq).u64(envelope.round);
  s.ints(widen(envelope.roster_trainers));
  s.ints(widen(envelope.roster_hosts));
  s.u32(static_cast<std::uint32_t>(envelope.commands.size()));
  for (const SchedulerCommand& c : envelope.commands) {
    s.u8(static_cast<std::uint8_t>(c.kind));
    s.i64(c.trainer_id).i64(c.src_rank).i64(c.dst_rank);
  }
  return s.take();
}

SchedulerEnvelope decode_scheduler_envelope(const comm::Buffer& buffer) {
  comm::Deserializer d(buffer);
  SchedulerEnvelope env;
  env.seq = d.u64();
  env.round = d.u64();
  env.roster_trainers = narrow(d.ints(), "roster trainer id");
  env.roster_hosts = narrow(d.ints(), "roster host rank");
  if (env.roster_trainers.size() != env.roster_hosts.size() ||
      env.roster_trainers.size() > kMaxRosterEntries) {
    throw FormatError("scheduler envelope: malformed roster");
  }
  const std::uint32_t count = d.u32();
  if (count > kMaxEnvelopeCommands) {
    throw FormatError("scheduler envelope: implausible command count");
  }
  env.commands.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    SchedulerCommand c;
    const std::uint8_t kind = d.u8();
    if (kind > static_cast<std::uint8_t>(SchedulerCommandKind::Shrink)) {
      throw FormatError("scheduler envelope: unknown command kind");
    }
    c.kind = static_cast<SchedulerCommandKind>(kind);
    c.trainer_id = static_cast<int>(d.i64());
    c.src_rank = static_cast<int>(d.i64());
    c.dst_rank = static_cast<int>(d.i64());
    env.commands.push_back(c);
  }
  d.expect_end();
  return env;
}

comm::Buffer encode_scheduler_ack(const SchedulerAck& ack) {
  LTFB_CHECK_MSG(ack.statuses.size() == ack.details.size(),
                 "ack status/detail arrays must be parallel");
  comm::Serializer s;
  s.u64(ack.seq).i64(ack.rank);
  s.u32(static_cast<std::uint32_t>(ack.statuses.size()));
  for (std::size_t i = 0; i < ack.statuses.size(); ++i) {
    s.u8(static_cast<std::uint8_t>(ack.statuses[i]));
    s.str(ack.details[i]);
  }
  return s.take();
}

SchedulerAck decode_scheduler_ack(const comm::Buffer& buffer) {
  comm::Deserializer d(buffer);
  SchedulerAck ack;
  ack.seq = d.u64();
  ack.rank = static_cast<int>(d.i64());
  const std::uint32_t count = d.u32();
  if (count > kMaxEnvelopeCommands) {
    throw FormatError("scheduler ack: implausible status count");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t status = d.u8();
    if (status > static_cast<std::uint8_t>(SchedulerAckStatus::Failed)) {
      throw FormatError("scheduler ack: unknown status");
    }
    ack.statuses.push_back(static_cast<SchedulerAckStatus>(status));
    ack.details.push_back(d.str());
  }
  d.expect_end();
  return ack;
}

// -- ElasticScheduler ---------------------------------------------------------

ElasticScheduler::ElasticScheduler(comm::Communicator& world,
                                   std::map<int, int> initial,
                                   comm::FaultSchedule churn, Options options)
    : world_(world),
      churn_(std::move(churn)),
      options_(options),
      roster_(std::move(initial)),
      alive_(static_cast<std::size_t>(world.size()), true) {
  LTFB_CHECK_MSG(world_.rank() == 0,
                 "ElasticScheduler must run on world rank 0, not "
                     << world_.rank());
  LTFB_CHECK_MSG(options_.max_trainers > 0,
                 "ElasticScheduler needs a positive max_trainers");
  LTFB_CHECK_MSG(options_.ack_deadline.count() > 0,
                 "ElasticScheduler needs a positive ack deadline");
  std::vector<bool> used(static_cast<std::size_t>(world_.size()), false);
  for (const auto& [trainer, host] : roster_) {
    LTFB_CHECK_MSG(trainer >= 0 && trainer < options_.max_trainers,
                   "initial trainer id " << trainer << " out of range");
    LTFB_CHECK_MSG(host >= 0 && host < world_.size(),
                   "initial host rank " << host << " out of range");
    LTFB_CHECK_MSG(!used[static_cast<std::size_t>(host)],
                   "rank " << host << " hosts two initial trainers");
    used[static_cast<std::size_t>(host)] = true;
  }
}

bool ElasticScheduler::rank_alive(int rank) const {
  return rank >= 0 && rank < static_cast<int>(alive_.size()) &&
         alive_[static_cast<std::size_t>(rank)];
}

bool ElasticScheduler::rank_hosting(int rank) const {
  for (const auto& [trainer, host] : roster_) {
    if (host == rank) return true;
  }
  return false;
}

void ElasticScheduler::note_lost_trainer(int trainer_id) {
  if (roster_.count(trainer_id) != 0) pending_lost_.insert(trainer_id);
}

bool ElasticScheduler::trainer_pending_lost(int trainer_id) const {
  return pending_lost_.count(trainer_id) != 0;
}

std::vector<int> ElasticScheduler::idle_alive_ranks() const {
  std::vector<int> idle;
  for (int r = 0; r < world_.size(); ++r) {
    if (rank_alive(r) && !rank_hosting(r)) idle.push_back(r);
  }
  return idle;
}

ElasticScheduler::BoundaryPlan ElasticScheduler::plan_boundary(
    std::uint64_t round,
    const std::vector<ClusterMetricsAggregator::RankStepStat>& rank_steps) {
  BoundaryPlan plan;
  std::vector<Placement> placements;

  // 1. Fault removals queued since the last boundary (dead hosts, failed
  // applies). The hosts are gone or have already dropped the trainer, so
  // the removal needs no command — the refreshed roster in every envelope
  // is the announcement.
  for (const int trainer : pending_lost_) {
    if (roster_.erase(trainer) != 0) {
      plan.left.push_back(trainer);
      ++leaves_;
      LTFB_COUNTER_ADD("sched/trainers_lost", 1);
    }
  }
  pending_lost_.clear();

  // 2. Schedule-driven churn, in schedule order. Infeasible events are
  // skipped (counted, never fatal): the schedule replays against whatever
  // the fault history left alive.
  for (const comm::FaultAction& action : churn_.churn_at(round)) {
    const int trainer = action.rank;  // churn grammar: first field = trainer
    switch (action.kind) {
      case comm::FaultAction::Kind::Join: {
        const std::vector<int> idle = idle_alive_ranks();
        if (trainer < 0 || trainer >= options_.max_trainers ||
            roster_.count(trainer) != 0 || idle.empty()) {
          ++plan.skipped_events;
          break;
        }
        const int dst = idle.front();
        roster_[trainer] = dst;
        plan.joined.push_back(trainer);
        ++joins_;
        LTFB_COUNTER_ADD("sched/joins", 1);
        placements.push_back(
            {{SchedulerCommandKind::Grow, trainer, -1, dst}, {dst}});
        break;
      }
      case comm::FaultAction::Kind::Leave: {
        const auto it = roster_.find(trainer);
        if (it == roster_.end()) {
          ++plan.skipped_events;
          break;
        }
        const int src = it->second;
        roster_.erase(it);
        plan.left.push_back(trainer);
        ++leaves_;
        LTFB_COUNTER_ADD("sched/leaves", 1);
        if (rank_alive(src)) {
          placements.push_back(
              {{SchedulerCommandKind::Shrink, trainer, src, -1}, {src}});
        }
        break;
      }
      case comm::FaultAction::Kind::Migrate: {
        const auto it = roster_.find(trainer);
        const int dst = static_cast<int>(action.delay_ms);  // dest rank field
        if (it == roster_.end() || !rank_alive(dst) || rank_hosting(dst) ||
            dst == it->second) {
          ++plan.skipped_events;
          break;
        }
        const int src = it->second;
        it->second = dst;
        ++migrations_;
        LTFB_COUNTER_ADD("sched/migrations", 1);
        placements.push_back(
            {{SchedulerCommandKind::MigrateTrainer, trainer, src, dst},
             {src, dst}});
        break;
      }
      default:
        // kill/drop/delay belong to the comm layer's injector.
        break;
    }
  }

  // 3. Straggler policy: migrate the slowest trainer off the slowest rank
  // onto the lowest-numbered idle rank. Placement-only — membership and
  // therefore RoundRecord history stay schedule-deterministic.
  const bool migrating_already = std::any_of(
      placements.begin(), placements.end(), [](const Placement& p) {
        return p.command.kind == SchedulerCommandKind::MigrateTrainer;
      });
  if (options_.straggler_policy && !migrating_already && !rank_steps.empty()) {
    double slow_mean = 0.0;
    double fast_mean = 0.0;
    int slow_rank = -1;
    for (const auto& step : rank_steps) {
      if (step.step_count == 0 || !rank_alive(step.world_rank) ||
          !rank_hosting(step.world_rank)) {
        continue;
      }
      if (slow_rank < 0 || step.step_mean_s > slow_mean) {
        slow_mean = step.step_mean_s;
        slow_rank = step.world_rank;
      }
      if (fast_mean == 0.0 || step.step_mean_s < fast_mean) {
        fast_mean = step.step_mean_s;
      }
    }
    const std::vector<int> idle = idle_alive_ranks();
    if (slow_rank >= 0 && !idle.empty() && fast_mean > 0.0 &&
        slow_mean > options_.straggler_ratio * fast_mean) {
      for (auto& [trainer, host] : roster_) {
        if (host != slow_rank) continue;
        const int dst = idle.front();
        placements.push_back(
            {{SchedulerCommandKind::MigrateTrainer, trainer, host, dst},
             {host, dst}});
        host = dst;
        ++migrations_;
        LTFB_COUNTER_ADD("sched/migrations", 1);
        LTFB_COUNTER_ADD("sched/straggler_migrations", 1);
        break;
      }
    }
  }

  // 4. One envelope per live rank (a rank with no command still gets the
  // roster refresh), all sharing this boundary's seq so a retry resends
  // the identical idempotency key.
  ++seq_;
  skipped_events_ += plan.skipped_events;
  SchedulerEnvelope base;
  base.seq = seq_;
  base.round = round;
  for (const auto& [trainer, host] : roster_) {
    base.roster_trainers.push_back(trainer);
    base.roster_hosts.push_back(host);
  }
  for (int r = 0; r < world_.size(); ++r) {
    if (!rank_alive(r)) continue;
    SchedulerEnvelope env = base;
    for (const Placement& p : placements) {
      if (std::find(p.targets.begin(), p.targets.end(), r) !=
          p.targets.end()) {
        env.commands.push_back(p.command);
      }
    }
    plan.envelopes.push_back(std::move(env));
    plan.envelope_ranks.push_back(r);
  }
  return plan;
}

ElasticScheduler::BoundaryOutcome ElasticScheduler::issue_boundary(
    const BoundaryPlan& plan,
    const std::function<SchedulerAck(const SchedulerEnvelope&)>& apply_local) {
  BoundaryOutcome out;
  telemetry::flight::heartbeat();
  LTFB_CHECK_MSG(plan.envelopes.size() == plan.envelope_ranks.size(),
                 "boundary plan arrays must be parallel");

  // Send every remote envelope first, then apply rank 0's own program (no
  // self-send): a migration whose source is a remote rank can only start
  // once that rank has its envelope, and rank 0 may be the destination.
  for (std::size_t i = 0; i < plan.envelopes.size(); ++i) {
    const int rank = plan.envelope_ranks[i];
    if (rank == world_.rank()) continue;
    const int cmd_tag = sched_cmd_tag(plan.envelopes[i].round);
    world_.send(rank, cmd_tag, encode_scheduler_envelope(plan.envelopes[i]));
  }

  auto fold_ack = [&](const SchedulerAck& ack, const SchedulerEnvelope& env) {
    for (std::size_t c = 0; c < ack.statuses.size() && c < env.commands.size();
         ++c) {
      if (ack.statuses[c] != SchedulerAckStatus::Failed) continue;
      // A failed apply (e.g. a migration payload lost in flight) loses the
      // trainer: drop it from the roster at the next boundary — the PR 3
      // fault model, not a protocol hang.
      const int trainer = env.commands[c].trainer_id;
      if (roster_.count(trainer) != 0 && pending_lost_.insert(trainer).second) {
        out.lost_trainers.push_back(trainer);
        LTFB_COUNTER_ADD("sched/command_failures", 1);
      }
    }
  };

  for (std::size_t i = 0; i < plan.envelopes.size(); ++i) {
    if (plan.envelope_ranks[i] != world_.rank()) continue;
    fold_ack(apply_local(plan.envelopes[i]), plan.envelopes[i]);
  }

  for (std::size_t i = 0; i < plan.envelopes.size(); ++i) {
    const int rank = plan.envelope_ranks[i];
    if (rank == world_.rank()) continue;
    const SchedulerEnvelope& env = plan.envelopes[i];
    bool dead = false;
    std::optional<SchedulerAck> ack;
    for (int attempt = 0; attempt < 2 && !ack && !dead; ++attempt) {
      try {
        // Drain until this boundary's seq matches: a duplicate ack from a
        // prior retry of the same round is skipped, never misattributed.
        for (;;) {
          const int ack_tag = sched_ack_tag(env.round);
          const comm::Buffer payload =
              world_.recv(rank, ack_tag, options_.ack_deadline);
          SchedulerAck decoded = decode_scheduler_ack(payload);
          if (decoded.seq == env.seq) {
            ack = std::move(decoded);
            break;
          }
        }
      } catch (const TimeoutError&) {
        LTFB_COUNTER_ADD("sched/ack_timeouts", 1);
        if (attempt == 0) {
          // One idempotent retry: same seq, receivers deduplicate.
          const int cmd_tag = sched_cmd_tag(env.round);
          world_.send(rank, cmd_tag, encode_scheduler_envelope(env));
          LTFB_COUNTER_ADD("sched/command_retries", 1);
        } else {
          dead = true;
        }
      } catch (const RankFailedError&) {
        dead = true;
      }
    }
    if (dead) {
      alive_[static_cast<std::size_t>(rank)] = false;
      out.dead_ranks.push_back(rank);
      LTFB_COUNTER_ADD("sched/ranks_declared_dead", 1);
      for (const auto& [trainer, host] : roster_) {
        if (host == rank && pending_lost_.insert(trainer).second) {
          out.lost_trainers.push_back(trainer);
        }
      }
      continue;
    }
    fold_ack(*ack, env);
    out.acks.push_back(std::move(*ack));
  }
  return out;
}

// -- SchedulerClient ----------------------------------------------------------

SchedulerClient::SchedulerClient(comm::Communicator& world, int scheduler_rank,
                                 std::chrono::milliseconds deadline)
    : world_(world), scheduler_rank_(scheduler_rank), deadline_(deadline) {
  LTFB_CHECK_MSG(deadline_.count() > 0,
                 "SchedulerClient needs a positive deadline");
  LTFB_CHECK_MSG(scheduler_rank_ >= 0 && scheduler_rank_ < world_.size(),
                 "scheduler rank " << scheduler_rank_ << " out of range");
}

SchedulerEnvelope SchedulerClient::await_boundary(std::uint64_t round) {
  for (;;) {
    const int cmd_tag = sched_cmd_tag(round);
    const comm::Buffer payload =
        world_.recv(scheduler_rank_, cmd_tag, deadline_);
    SchedulerEnvelope env = decode_scheduler_envelope(payload);
    if (env.seq <= last_seq_) {
      // Retry of an envelope this rank already applied: ack AlreadyApplied
      // (per command) and keep waiting — idempotency, no reapply.
      SchedulerAck dup;
      dup.seq = env.seq;
      dup.rank = world_.rank();
      dup.statuses.assign(env.commands.size(),
                          SchedulerAckStatus::AlreadyApplied);
      dup.details.assign(env.commands.size(), std::string());
      const int ack_tag = sched_ack_tag(round);
      world_.send(scheduler_rank_, ack_tag, encode_scheduler_ack(dup));
      LTFB_COUNTER_ADD("sched/duplicate_envelopes", 1);
      continue;
    }
    last_seq_ = env.seq;
    return env;
  }
}

void SchedulerClient::ack(const SchedulerEnvelope& envelope,
                          std::vector<SchedulerAckStatus> statuses,
                          std::vector<std::string> details) {
  LTFB_CHECK_MSG(statuses.size() == envelope.commands.size() &&
                     details.size() == envelope.commands.size(),
                 "ack must carry one status per command");
  SchedulerAck ack;
  ack.seq = envelope.seq;
  ack.rank = world_.rank();
  ack.statuses = std::move(statuses);
  ack.details = std::move(details);
  const int ack_tag = sched_ack_tag(envelope.round);
  world_.send(scheduler_rank_, ack_tag, encode_scheduler_ack(ack));
}

// -- elastic driver -----------------------------------------------------------

namespace {

/// One rank's live trainer (single-rank trainers: the whole model and the
/// whole mini-batch live here) plus the elastic bookkeeping that travels
/// with it on migration.
struct HostedTrainer {
  std::unique_ptr<GanTrainer> trainer;
  std::uint64_t joined_round = 0;
  std::uint64_t tournaments_won = 0;
  std::uint64_t adoptions = 0;
};

comm::Buffer encode_round_stat(const TrainerRoundStat& stat) {
  comm::Serializer s;
  s.i64(stat.trainer_id).i64(stat.partner_id);
  s.u64(std::bit_cast<std::uint64_t>(stat.own_score));
  s.u64(std::bit_cast<std::uint64_t>(stat.partner_score));
  s.u8(stat.adopted_partner ? 1 : 0).u8(stat.partner_failed ? 1 : 0);
  return s.take();
}

TrainerRoundStat decode_round_stat(const comm::Buffer& buffer) {
  comm::Deserializer d(buffer);
  TrainerRoundStat stat;
  stat.trainer_id = static_cast<int>(d.i64());
  stat.partner_id = static_cast<int>(d.i64());
  stat.own_score = std::bit_cast<double>(d.u64());
  stat.partner_score = std::bit_cast<double>(d.u64());
  stat.adopted_partner = d.u8() != 0;
  stat.partner_failed = d.u8() != 0;
  d.expect_end();
  return stat;
}

comm::Buffer encode_trainer_result(const ElasticTrainerResult& result) {
  comm::Serializer s;
  s.i64(result.trainer_id).i64(result.host_rank);
  s.u64(result.steps).u64(result.tournaments_won).u64(result.adoptions);
  s.u64(std::bit_cast<std::uint64_t>(result.final_tournament_score));
  s.u64(std::bit_cast<std::uint64_t>(result.final_validation_loss));
  return s.take();
}

ElasticTrainerResult decode_trainer_result(const comm::Buffer& buffer) {
  comm::Deserializer d(buffer);
  ElasticTrainerResult result;
  result.trainer_id = static_cast<int>(d.i64());
  result.host_rank = static_cast<int>(d.i64());
  result.steps = d.u64();
  result.tournaments_won = d.u64();
  result.adoptions = d.u64();
  result.final_tournament_score = std::bit_cast<double>(d.u64());
  result.final_validation_loss = std::bit_cast<double>(d.u64());
  d.expect_end();
  return result;
}

}  // namespace

ElasticLtfbOutcome run_elastic_ltfb(comm::Communicator& world,
                                    const data::Dataset& dataset,
                                    const data::SplitIndices& splits,
                                    const ElasticLtfbConfig& config) {
  LTFB_CHECK_MSG(config.comm_timeout.count() > 0,
                 "elastic LTFB is deadline-based: comm_timeout must be > 0");
  LTFB_CHECK_MSG(config.batch_size > 0, "batch size must be positive");
  const int initial = config.initial_trainers > 0 ? config.initial_trainers
                                                  : world.size();
  LTFB_CHECK_MSG(initial > 0 && initial <= world.size(),
                 "initial trainer count " << initial << " exceeds world size "
                                          << world.size());
  const int max_trainers =
      config.max_trainers > 0 ? config.max_trainers
                              : std::max(initial, world.size());
  LTFB_CHECK_MSG(initial <= max_trainers,
                 "initial trainers exceed the max_trainers partition");
  // LtfbConfig fields only LocalLtfbDriver reads: fail rather than ignore.
  LTFB_CHECK_MSG(config.ltfb.checkpoint_path.empty() &&
                     config.ltfb.checkpoint_every == 0,
                 "run_elastic_ltfb ignores ltfb.checkpoint_path and "
                 "ltfb.checkpoint_every; an elastic run does not checkpoint "
                 "(trainer state moves in migration payloads)");
  LTFB_CHECK_MSG(config.ltfb.resume_from.empty(),
                 "run_elastic_ltfb ignores ltfb.resume_from; an elastic run "
                 "always starts fresh");
  LTFB_CHECK_MSG(config.ltfb.lr_perturbation == 0.0f,
                 "run_elastic_ltfb ignores ltfb.lr_perturbation; "
                 "learning-rate inheritance runs in LocalLtfbDriver only");

  telemetry::bind_rank(world.rank() < telemetry::detail::kMaxRankScopes
                           ? world.rank()
                           : -1);

  const std::chrono::milliseconds exchange_deadline = config.comm_timeout;
  const std::chrono::milliseconds ack_deadline =
      config.ack_timeout.count() > 0 ? config.ack_timeout
                                     : config.comm_timeout;

  // Churn schedule: an explicit config wins; otherwise the environment
  // drives unmodified binaries (the same LTFB_FAULT_SCHEDULE variable the
  // comm layer reads — it keeps kill/drop/delay, we keep join/leave/
  // migrate).
  comm::FaultSchedule churn = config.churn;
  if (!churn.has_churn() && config.churn_from_env) {
    if (const char* env = std::getenv("LTFB_FAULT_SCHEDULE")) {
      churn = comm::FaultSchedule::parse(env);
    }
  }

  // Per-rank singleton "trainer" communicator: the aggregation tree
  // degenerates to leaders-only, with every world rank a leader.
  comm::Communicator self_comm = world.split(world.rank(), 0);

  ClusterMetricsAggregator aggregator(
      {.timeseries_path = config.metrics_timeseries_path,
       .live_progress = config.live_progress,
       .gather_deadline = exchange_deadline,
       .world_size = world.size(),
       .world_rank = world.rank()});

  ElasticLtfbOutcome outcome;
  outcome.rank = world.rank();
  outcome.scheduler = world.rank() == 0;

  // -- trainer lifecycle helpers ---------------------------------------------

  // A trainer's shard is churn-invariant (fixed max_trainers denominator).
  auto shard_of = [&](const std::vector<std::size_t>& split, int id) {
    return data::partition_indices(split,
                                   static_cast<std::size_t>(max_trainers),
                                   static_cast<std::size_t>(id));
  };

  auto make_hosted = [&](int id, std::uint64_t joined_round,
                         bool fresh) -> HostedTrainer {
    std::vector<std::size_t> train_view = shard_of(splits.train, id);
    std::vector<std::size_t> tournament_view = shard_of(splits.tournament, id);
    LTFB_CHECK_MSG(!train_view.empty() && !tournament_view.empty(),
                   "trainer " << id << " has an empty data partition (shrink "
                              << "max_trainers or grow the dataset)");
    HostedTrainer h;
    h.joined_round = joined_round;
    h.trainer = std::make_unique<GanTrainer>(
        id, config.model, dataset, std::move(train_view),
        std::move(tournament_view), config.batch_size, config.seed);
    if (fresh) {
      // Deterministic warm-up: a trainer joining at round N runs the same
      // pretraining a round-0 trainer does, so its trajectory is a pure
      // function of (id, seed, steps) regardless of when or where it
      // starts.
      h.trainer->pretrain_autoencoder(config.ltfb.pretrain_steps);
    }
    return h;
  };

  auto capture_slot = [&](const HostedTrainer& h, int dst_rank,
                          std::uint64_t round) {
    PopulationCheckpoint ckpt;
    ckpt.round = round;
    ckpt.pairing_seed = config.ltfb.pairing_seed;
    TrainerSlot slot;
    slot.trainer = h.trainer->capture_state();
    slot.tournaments_won = h.tournaments_won;
    slot.adoptions = h.adoptions;
    slot.host_rank = dst_rank;
    slot.joined_round = h.joined_round;
    const std::vector<std::size_t> shard =
        shard_of(splits.train, h.trainer->id());
    slot.shard_manifest.assign(shard.begin(), shard.end());
    ckpt.trainers.push_back(std::move(slot));
    return ckpt;
  };

  auto restore_hosted = [&](const TrainerSlot& slot) -> HostedTrainer {
    const int id = slot.trainer.trainer_id;
    // The manifest in the payload must reproduce exactly the shard this
    // rank derives locally — a mismatch means the two ends disagree about
    // the partition geometry and the trainer would silently train on the
    // wrong data.
    const std::vector<std::size_t> shard = shard_of(splits.train, id);
    LTFB_CHECK_MSG(
        slot.shard_manifest.size() == shard.size() &&
            std::equal(slot.shard_manifest.begin(), slot.shard_manifest.end(),
                       shard.begin(),
                       [](std::uint64_t a, std::size_t b) {
                         return a == static_cast<std::uint64_t>(b);
                       }),
        "migrated shard manifest does not match the churn-invariant "
        "partition of trainer "
            << id);
    HostedTrainer h = make_hosted(id, slot.joined_round, /*fresh=*/false);
    h.trainer->restore_state(slot.trainer);
    h.tournaments_won = slot.tournaments_won;
    h.adoptions = slot.adoptions;
    return h;
  };

  // -- initial population ------------------------------------------------------
  std::map<int, int> initial_roster;
  for (int t = 0; t < initial; ++t) initial_roster[t] = t;

  std::optional<HostedTrainer> hosted;
  if (world.rank() < initial) {
    hosted = make_hosted(world.rank(), 0, /*fresh=*/true);
  }

  std::optional<ElasticScheduler> sched;
  if (world.rank() == 0) {
    sched.emplace(world, initial_roster, churn,
                  ElasticScheduler::Options{
                      .ack_deadline = ack_deadline,
                      .max_trainers = max_trainers,
                      .straggler_policy = config.straggler_policy,
                      .straggler_ratio = config.straggler_ratio});
  }
  SchedulerClient client(world, 0, ack_deadline);

  // Every rank's view of the population; refreshed from each boundary
  // envelope (the scheduler's copy is authoritative, envelopes replicate
  // it).
  std::map<int, int> roster = initial_roster;

  // Applies one boundary envelope to this rank: roster refresh plus this
  // rank's command program. Per-command failures (a migration payload from
  // a dead source, a timed-out transfer) are reported in the ack, never
  // thrown — the scheduler maps them onto the fault model.
  auto apply_envelope = [&](const SchedulerEnvelope& env) {
    SchedulerAck ack;
    ack.seq = env.seq;
    ack.rank = world.rank();
    roster.clear();
    for (std::size_t i = 0; i < env.roster_trainers.size(); ++i) {
      roster[env.roster_trainers[i]] = env.roster_hosts[i];
    }
    for (const SchedulerCommand& cmd : env.commands) {
      SchedulerAckStatus status = SchedulerAckStatus::Ok;
      std::string detail;
      try {
        switch (cmd.kind) {
          case SchedulerCommandKind::NoOp:
            break;
          case SchedulerCommandKind::StartTrainer:
          case SchedulerCommandKind::Grow:
            if (cmd.dst_rank == world.rank()) {
              LTFB_CHECK_MSG(!hosted, "rank " << world.rank()
                                              << " already hosts trainer "
                                              << hosted->trainer->id());
              hosted = make_hosted(cmd.trainer_id, env.round, /*fresh=*/true);
              LTFB_COUNTER_ADD("sched/trainers_started", 1);
            }
            break;
          case SchedulerCommandKind::StopTrainer:
          case SchedulerCommandKind::Shrink:
            if (cmd.src_rank == world.rank()) {
              LTFB_CHECK_MSG(hosted && hosted->trainer->id() == cmd.trainer_id,
                             "stop for trainer "
                                 << cmd.trainer_id << " but rank hosts "
                                 << (hosted ? hosted->trainer->id() : -1));
              hosted.reset();
              LTFB_COUNTER_ADD("sched/trainers_stopped", 1);
            }
            break;
          case SchedulerCommandKind::MigrateTrainer: {
            if (cmd.src_rank == world.rank()) {
              LTFB_CHECK_MSG(hosted && hosted->trainer->id() == cmd.trainer_id,
                             "migrate source mismatch for trainer "
                                 << cmd.trainer_id);
              const PopulationCheckpoint ckpt =
                  capture_slot(*hosted, cmd.dst_rank, env.round);
              const int xfer_tag = sched_xfer_tag(env.round);
              world.send(cmd.dst_rank, xfer_tag,
                         encode_population_checkpoint(ckpt));
              hosted.reset();
              LTFB_COUNTER_ADD("sched/migrations_sent", 1);
            }
            if (cmd.dst_rank == world.rank()) {
              LTFB_CHECK_MSG(!hosted, "migrate destination already hosts "
                                          << hosted->trainer->id());
              const int xfer_tag = sched_xfer_tag(env.round);
              const comm::Buffer payload =
                  world.recv(cmd.src_rank, xfer_tag, exchange_deadline);
              const PopulationCheckpoint ckpt = decode_population_checkpoint(
                  payload.data(), payload.size(),
                  "migration payload for trainer " +
                      std::to_string(cmd.trainer_id));
              LTFB_CHECK_MSG(ckpt.trainers.size() == 1 &&
                                 ckpt.trainers.front().trainer.trainer_id ==
                                     cmd.trainer_id,
                             "migration payload does not hold trainer "
                                 << cmd.trainer_id);
              LTFB_CHECK_MSG(ckpt.pairing_seed == config.ltfb.pairing_seed,
                             "migration payload pairing seed mismatch");
              hosted = restore_hosted(ckpt.trainers.front());
              LTFB_COUNTER_ADD("sched/migrations_received", 1);
            }
            break;
          }
        }
      } catch (const RankFailedError& e) {
        status = SchedulerAckStatus::Failed;
        detail = e.what();
      } catch (const TimeoutError& e) {
        status = SchedulerAckStatus::Failed;
        detail = e.what();
      }
      ack.statuses.push_back(status);
      ack.details.push_back(std::move(detail));
    }
    return ack;
  };

  // -- rounds ------------------------------------------------------------------
  for (std::uint64_t round = 0; round < config.ltfb.rounds; ++round) {
    LTFB_SPAN("ltfb/round");
    telemetry::flight::heartbeat();
    LTFB_COUNTER_ADD("ltfb/rounds", 1);
    const telemetry::Stopwatch round_clock;

    // Boundary: the scheduler plans and issues; every other rank awaits
    // its envelope, applies, and acks.
    std::vector<int> joined;
    std::vector<int> left;
    if (sched) {
      ElasticScheduler::BoundaryPlan plan =
          sched->plan_boundary(round, aggregator.last_round_rank_steps());
      joined = plan.joined;
      left = plan.left;
      sched->issue_boundary(plan, apply_envelope);
    } else {
      SchedulerEnvelope env;
      if (!survives_peer_faults([&] { env = client.await_boundary(round); })) {
        // The scheduler is gone; without boundaries this rank cannot keep
        // a consistent roster. Leave the population cleanly.
        outcome.aborted = true;
        return outcome;
      }
      SchedulerAck ack = apply_envelope(env);
      client.ack(env, std::move(ack.statuses), std::move(ack.details));
    }
    aggregator.note_churn(joined, left, static_cast<int>(roster.size()));

    // Train phase (single-rank trainers: no intra-trainer communication,
    // so a training step can never lose a peer).
    if (hosted) {
      LTFB_SPAN("ltfb/train_phase");
      hosted->trainer->train_steps(config.ltfb.steps_per_round);
    }

    // Tournament among the active trainers: deterministic re-pairing over
    // the sorted roster ids, exchanges addressed to the partner's CURRENT
    // host (migration is placement-transparent).
    TrainerRoundStat stat;
    bool have_stat = false;
    if (hosted) {
      LTFB_SPAN("ltfb/tournament");
      GanTrainer& trainer = *hosted->trainer;
      stat.trainer_id = trainer.id();
      have_stat = true;
      stat.partner_id = tournament_partner(
          roster, trainer.id(), config.ltfb.pairing_seed,
          static_cast<std::size_t>(round));
      if (stat.partner_id >= 0) {
        tournament_exchange(world, roster.at(stat.partner_id),
                            static_cast<int>(round), trainer, config.ltfb,
                            exchange_deadline, /*fault_aware=*/true, stat);
        if (stat.adopted_partner) {
          ++hosted->adoptions;
        } else if (!stat.partner_failed) {
          ++hosted->tournaments_won;
        }
      }
    }

    // Per-round stats flow to the scheduler, which builds the
    // authoritative RoundRecord history (stats sorted by trainer id — the
    // roster map order — plus this boundary's joined/left markers).
    std::vector<TrainerRoundStat> round_stats;
    if (sched) {
      for (const auto& [trainer, host] : roster) {
        if (sched->trainer_pending_lost(trainer)) continue;
        if (host == world.rank()) {
          if (have_stat && stat.trainer_id == trainer) {
            round_stats.push_back(stat);
          }
          continue;
        }
        const int stat_tag = sched_stat_tag(round);
        if (!survives_peer_faults([&] {
              round_stats.push_back(decode_round_stat(
                  world.recv(host, stat_tag, exchange_deadline)));
            })) {
          sched->note_lost_trainer(trainer);
        }
      }
    } else if (have_stat) {
      const int stat_tag = sched_stat_tag(round);
      world.send(0, stat_tag, encode_round_stat(stat));
    }

    const double round_wall_s = round_clock.elapsed_seconds();
    telemetry::flight::heartbeat();
    const double rank_gap_s = aggregator.round_boundary(
        static_cast<std::size_t>(round), self_comm, world, /*leader=*/true,
        have_stat ? &stat : nullptr, round_wall_s);

    if (sched) {
      RoundRecord record;
      record.round = static_cast<std::size_t>(round);
      record.stats = std::move(round_stats);
      record.joined = std::move(joined);
      record.left = std::move(left);
      record.wall_s = round_wall_s;
      record.max_rank_gap_s = rank_gap_s;
      outcome.history.push_back(std::move(record));
    }
  }

  // -- final results -----------------------------------------------------------
  ElasticTrainerResult own_result;
  if (hosted) {
    GanTrainer& trainer = *hosted->trainer;
    own_result.trainer_id = trainer.id();
    own_result.host_rank = world.rank();
    own_result.steps = trainer.steps_taken();
    own_result.tournaments_won = hosted->tournaments_won;
    own_result.adoptions = hosted->adoptions;
    own_result.final_tournament_score =
        trainer.tournament_score(config.ltfb.metric);
    own_result.final_validation_loss =
        evaluate_gan(trainer.model(), dataset, splits.validation,
                     config.batch_size)
            .total();
    outcome.hosting_final = true;
    outcome.final_trainer_id = trainer.id();
  }
  if (sched) {
    for (const auto& [trainer, host] : roster) {
      if (sched->trainer_pending_lost(trainer)) continue;
      if (host == world.rank()) {
        if (hosted && hosted->trainer->id() == trainer) {
          outcome.results.push_back(own_result);
        }
        continue;
      }
      const int result_tag = sched_stat_tag(config.ltfb.rounds);
      survives_peer_faults([&] {
        outcome.results.push_back(decode_trainer_result(
            world.recv(host, result_tag, exchange_deadline)));
      });
    }
    outcome.joins = sched->joins();
    outcome.leaves = sched->leaves();
    outcome.migrations = sched->migrations();
  } else if (hosted) {
    const int result_tag = sched_stat_tag(config.ltfb.rounds);
    world.send(0, result_tag, encode_trainer_result(own_result));
  }
  return outcome;
}

}  // namespace ltfb::core
