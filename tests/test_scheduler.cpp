// Elastic LTFB scheduler suite (DESIGN.md §14): churn-verb grammar, the
// envelope/ack wire format, boundary planning (churn lowering, infeasible
// skips, fault-driven removals, straggler policy), protocol idempotency
// under retries, churn-invariant datastore shard migration, and the
// acceptance property of the whole stack — a seeded grow + shrink +
// migrate schedule over a 4-rank run replays to bit-identical RoundRecord
// history, explicit joined/left markers included.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>

#include "comm/communicator.hpp"
#include "core/scheduler.hpp"
#include "data/bundle.hpp"
#include "datastore/data_store.hpp"
#include "jag/jag_model.hpp"

namespace {

using namespace ltfb;
using namespace ltfb::core;
using comm::FaultSchedule;
using std::chrono::milliseconds;

constexpr milliseconds kTimeout{1500};

// ---- fixtures ------------------------------------------------------------------------

gan::CycleGanConfig tiny_config() {
  gan::CycleGanConfig config;
  config.image_width = 48;
  config.latent_width = 8;
  config.encoder_hidden = {16};
  config.decoder_hidden = {16};
  config.forward_hidden = {12};
  config.inverse_hidden = {8};
  config.discriminator_hidden = {8};
  config.learning_rate = 2e-3f;
  return config;
}

data::Dataset tiny_dataset(std::size_t n, std::uint64_t seed) {
  jag::JagConfig jag_config;
  jag_config.image_size = 4;
  jag_config.num_views = 3;
  jag_config.num_channels = 1;
  const jag::JagModel model(jag_config);
  data::Dataset dataset = data::generate_jag_dataset(model, n, seed);
  const auto norms = data::fit_normalizers(dataset);
  data::normalize_dataset(dataset, norms);
  return dataset;
}

ElasticScheduler::Options options_for(int max_trainers) {
  ElasticScheduler::Options options;
  options.ack_deadline = kTimeout;
  options.max_trainers = max_trainers;
  return options;
}

const std::vector<ClusterMetricsAggregator::RankStepStat> kNoSteps;

// ---- churn grammar -------------------------------------------------------------------

TEST(ChurnGrammar, ParsesJoinLeaveMigrate) {
  const auto schedule = FaultSchedule::parse("join:3@2; leave:1@4 ;migrate:0@5:3");
  ASSERT_EQ(schedule.actions().size(), 3u);
  EXPECT_TRUE(schedule.has_churn());

  const auto at2 = schedule.churn_at(2);
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_EQ(at2[0].kind, comm::FaultAction::Kind::Join);
  EXPECT_EQ(at2[0].rank, 3);  // trainer id for churn verbs

  const auto at5 = schedule.churn_at(5);
  ASSERT_EQ(at5.size(), 1u);
  EXPECT_EQ(at5[0].kind, comm::FaultAction::Kind::Migrate);
  EXPECT_EQ(at5[0].delay_ms, 3u);  // destination world rank

  EXPECT_TRUE(schedule.churn_at(3).empty());
}

TEST(ChurnGrammar, RoundTripsThroughStr) {
  const std::string spec = "join:3@2;leave:1@4;migrate:0@5:3;kill:2@40";
  const auto schedule = FaultSchedule::parse(spec);
  EXPECT_EQ(schedule.str(), spec);
  EXPECT_EQ(FaultSchedule::parse(schedule.str()).str(), spec);
}

TEST(ChurnGrammar, ChurnEventsNeverMatchMessageActions) {
  // Churn verbs address trainers and rounds; they must be invisible to
  // the comm layer's per-rank message interception.
  const auto schedule = FaultSchedule::parse("join:0@1;leave:1@2;migrate:2@3:0");
  for (int rank = 0; rank < 4; ++rank) {
    for (std::uint64_t message = 0; message < 5; ++message) {
      EXPECT_EQ(schedule.message_action(rank, message), nullptr)
          << "rank " << rank << " message " << message;
    }
  }
  EXPECT_FALSE(schedule.kill_op(0).has_value());
}

TEST(ChurnGrammar, RejectsMalformedChurnSpecs) {
  EXPECT_THROW(FaultSchedule::parse("join:1"), InvalidArgument);
  EXPECT_THROW(FaultSchedule::parse("migrate:1@2"), InvalidArgument);
  EXPECT_THROW(FaultSchedule::parse("leave:x@2"), InvalidArgument);
}

// ---- envelope/ack wire format --------------------------------------------------------

SchedulerEnvelope sample_envelope() {
  SchedulerEnvelope envelope;
  envelope.seq = 9;
  envelope.round = 4;
  envelope.roster_trainers = {0, 1, 3};
  envelope.roster_hosts = {0, 2, 3};
  SchedulerCommand migrate;
  migrate.kind = SchedulerCommandKind::MigrateTrainer;
  migrate.trainer_id = 1;
  migrate.src_rank = 1;
  migrate.dst_rank = 2;
  envelope.commands.push_back(migrate);
  SchedulerCommand grow;
  grow.kind = SchedulerCommandKind::Grow;
  grow.trainer_id = 3;
  grow.dst_rank = 3;
  envelope.commands.push_back(grow);
  return envelope;
}

TEST(SchedulerWire, EnvelopeRoundTrips) {
  const SchedulerEnvelope sent = sample_envelope();
  const SchedulerEnvelope got =
      decode_scheduler_envelope(encode_scheduler_envelope(sent));
  EXPECT_EQ(got.seq, sent.seq);
  EXPECT_EQ(got.round, sent.round);
  EXPECT_EQ(got.roster_trainers, sent.roster_trainers);
  EXPECT_EQ(got.roster_hosts, sent.roster_hosts);
  ASSERT_EQ(got.commands.size(), sent.commands.size());
  for (std::size_t i = 0; i < got.commands.size(); ++i) {
    EXPECT_EQ(got.commands[i].kind, sent.commands[i].kind);
    EXPECT_EQ(got.commands[i].trainer_id, sent.commands[i].trainer_id);
    EXPECT_EQ(got.commands[i].src_rank, sent.commands[i].src_rank);
    EXPECT_EQ(got.commands[i].dst_rank, sent.commands[i].dst_rank);
  }
}

TEST(SchedulerWire, AckRoundTrips) {
  SchedulerAck sent;
  sent.seq = 9;
  sent.rank = 2;
  sent.statuses = {SchedulerAckStatus::Ok, SchedulerAckStatus::Failed};
  sent.details = {"", "migration payload lost"};
  const SchedulerAck got = decode_scheduler_ack(encode_scheduler_ack(sent));
  EXPECT_EQ(got.seq, sent.seq);
  EXPECT_EQ(got.rank, sent.rank);
  EXPECT_EQ(got.statuses, sent.statuses);
  EXPECT_EQ(got.details, sent.details);
}

TEST(SchedulerWire, TruncatedEnvelopeAlwaysFormatError) {
  const comm::Buffer bytes = encode_scheduler_envelope(sample_envelope());
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    const comm::Buffer cut(bytes.begin(),
                           bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)decode_scheduler_envelope(cut), FormatError)
        << "truncated to " << keep << " of " << bytes.size();
  }
}

TEST(SchedulerWire, ByteFlippedEnvelopeNeverCrashes) {
  const comm::Buffer pristine = encode_scheduler_envelope(sample_envelope());
  comm::Buffer bytes = pristine;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    bytes[pos] ^= 0xff;
    try {
      (void)decode_scheduler_envelope(bytes);
    } catch (const FormatError&) {
      // The one sanctioned rejection.
    }
    bytes[pos] = pristine[pos];
  }
}

TEST(SchedulerWire, TruncatedAckThrowsFormatError) {
  SchedulerAck ack;
  ack.seq = 1;
  ack.rank = 3;
  ack.statuses = {SchedulerAckStatus::Ok};
  ack.details = {""};
  const comm::Buffer bytes = encode_scheduler_ack(ack);
  for (std::size_t keep = 0; keep + 1 < bytes.size(); ++keep) {
    const comm::Buffer cut(bytes.begin(),
                           bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)decode_scheduler_ack(cut), FormatError);
  }
}

// ---- boundary planning ---------------------------------------------------------------
//
// plan_boundary needs only rank 0's communicator; the other ranks of the
// world just park so the world can be constructed.

void on_rank0(int world_size, const std::function<void(comm::Communicator&)>& fn) {
  comm::World world(world_size);
  for (const std::exception_ptr& error :
       world.run_ranks([&](comm::Communicator& comm) {
         if (comm.rank() == 0) fn(comm);
       })) {
    if (error) std::rethrow_exception(error);
  }
}

TEST(BoundaryPlan, JoinLowersToGrowOnLowestIdleRank) {
  on_rank0(4, [](comm::Communicator& comm) {
    ElasticScheduler sched(comm, {{0, 0}, {1, 1}},
                           FaultSchedule().join(2, 1), options_for(4));
    const auto quiet = sched.plan_boundary(0, kNoSteps);
    EXPECT_TRUE(quiet.joined.empty());
    EXPECT_TRUE(quiet.left.empty());

    const auto plan = sched.plan_boundary(1, kNoSteps);
    ASSERT_EQ(plan.joined, std::vector<int>{2});
    EXPECT_EQ(sched.roster().at(2), 2);  // lowest idle alive rank
    EXPECT_EQ(sched.joins(), 1u);
    // The Grow command targets the new host's envelope.
    bool found = false;
    for (std::size_t i = 0; i < plan.envelopes.size(); ++i) {
      for (const SchedulerCommand& cmd : plan.envelopes[i].commands) {
        if (cmd.kind == SchedulerCommandKind::Grow) {
          EXPECT_EQ(plan.envelope_ranks[i], 2);
          EXPECT_EQ(cmd.trainer_id, 2);
          EXPECT_EQ(cmd.dst_rank, 2);
          found = true;
        }
      }
    }
    EXPECT_TRUE(found);
    // Every envelope carries the full post-boundary roster.
    for (const SchedulerEnvelope& envelope : plan.envelopes) {
      EXPECT_EQ(envelope.roster_trainers, (std::vector<int>{0, 1, 2}));
    }
  });
}

TEST(BoundaryPlan, LeaveLowersToShrinkAndFreesTheRank) {
  on_rank0(4, [](comm::Communicator& comm) {
    ElasticScheduler sched(comm, {{0, 0}, {1, 1}, {2, 2}},
                           FaultSchedule().leave(1, 1), options_for(4));
    const auto plan = sched.plan_boundary(1, kNoSteps);
    ASSERT_EQ(plan.left, std::vector<int>{1});
    EXPECT_EQ(sched.roster().count(1), 0u);
    EXPECT_FALSE(sched.rank_hosting(1));
    EXPECT_EQ(sched.leaves(), 1u);
  });
}

TEST(BoundaryPlan, MigrateTargetsBothEndsAndMovesHost) {
  on_rank0(4, [](comm::Communicator& comm) {
    ElasticScheduler sched(comm, {{0, 0}, {1, 1}},
                           FaultSchedule().migrate(1, 1, 3), options_for(4));
    const auto plan = sched.plan_boundary(1, kNoSteps);
    EXPECT_TRUE(plan.joined.empty());
    EXPECT_TRUE(plan.left.empty());  // membership unchanged
    EXPECT_EQ(sched.roster().at(1), 3);
    EXPECT_EQ(sched.migrations(), 1u);
    std::set<int> targets;
    for (std::size_t i = 0; i < plan.envelopes.size(); ++i) {
      for (const SchedulerCommand& cmd : plan.envelopes[i].commands) {
        if (cmd.kind == SchedulerCommandKind::MigrateTrainer) {
          EXPECT_EQ(cmd.src_rank, 1);
          EXPECT_EQ(cmd.dst_rank, 3);
          targets.insert(plan.envelope_ranks[i]);
        }
      }
    }
    EXPECT_EQ(targets, (std::set<int>{1, 3}));
  });
}

TEST(BoundaryPlan, InfeasibleEventsAreSkippedNotFatal) {
  on_rank0(2, [](comm::Communicator& comm) {
    // join of a trainer already present; leave of an unknown trainer;
    // migrate onto an occupied rank — all at the same boundary.
    const auto churn = FaultSchedule()
                           .join(0, 1)
                           .leave(7, 1)
                           .migrate(0, 1, 1);
    ElasticScheduler sched(comm, {{0, 0}, {1, 1}}, churn, options_for(2));
    const auto plan = sched.plan_boundary(1, kNoSteps);
    EXPECT_EQ(plan.skipped_events, 3u);
    EXPECT_TRUE(plan.joined.empty());
    EXPECT_TRUE(plan.left.empty());
    EXPECT_EQ(sched.roster().at(0), 0);
    EXPECT_EQ(sched.roster().at(1), 1);
  });
}

TEST(BoundaryPlan, PendingLostTrainerDrainsIntoLeftList) {
  on_rank0(3, [](comm::Communicator& comm) {
    ElasticScheduler sched(comm, {{0, 0}, {1, 1}, {2, 2}}, FaultSchedule(),
                           options_for(3));
    sched.note_lost_trainer(2);
    EXPECT_TRUE(sched.trainer_pending_lost(2));
    const auto plan = sched.plan_boundary(1, kNoSteps);
    ASSERT_EQ(plan.left, std::vector<int>{2});
    EXPECT_FALSE(sched.trainer_pending_lost(2));
    EXPECT_EQ(sched.roster().count(2), 0u);
  });
}

TEST(BoundaryPlan, StragglerPolicyMigratesSlowestHostToIdleRank) {
  on_rank0(4, [](comm::Communicator& comm) {
    auto options = options_for(4);
    options.straggler_policy = true;
    options.straggler_ratio = 1.5;
    ElasticScheduler sched(comm, {{0, 0}, {1, 1}, {2, 2}}, FaultSchedule(),
                           options);
    std::vector<ClusterMetricsAggregator::RankStepStat> steps(3);
    for (int r = 0; r < 3; ++r) {
      steps[static_cast<std::size_t>(r)].world_rank = r;
      steps[static_cast<std::size_t>(r)].step_count = 4;
      steps[static_cast<std::size_t>(r)].step_mean_s = 0.01;
    }
    steps[1].step_mean_s = 0.2;  // rank 1 is 20x slower than its peers
    const auto plan = sched.plan_boundary(1, steps);
    EXPECT_TRUE(plan.joined.empty());
    EXPECT_TRUE(plan.left.empty());  // placement only, never membership
    EXPECT_EQ(sched.roster().at(1), 3);  // moved to the idle rank
    EXPECT_EQ(sched.migrations(), 1u);
  });
}

TEST(BoundaryPlan, StragglerPolicyQuietWhenRatioNotExceeded) {
  on_rank0(4, [](comm::Communicator& comm) {
    auto options = options_for(4);
    options.straggler_policy = true;
    options.straggler_ratio = 1.5;
    ElasticScheduler sched(comm, {{0, 0}, {1, 1}, {2, 2}}, FaultSchedule(),
                           options);
    std::vector<ClusterMetricsAggregator::RankStepStat> steps(3);
    for (int r = 0; r < 3; ++r) {
      steps[static_cast<std::size_t>(r)].world_rank = r;
      steps[static_cast<std::size_t>(r)].step_count = 4;
      steps[static_cast<std::size_t>(r)].step_mean_s = 0.01;
    }
    const auto plan = sched.plan_boundary(1, steps);
    EXPECT_EQ(sched.migrations(), 0u);
    EXPECT_EQ(sched.roster().at(1), 1);
    EXPECT_EQ(plan.skipped_events, 0u);
  });
}

// ---- protocol idempotency ------------------------------------------------------------

TEST(SchedulerProtocol, DuplicateEnvelopeAcksAlreadyApplied) {
  comm::World world(2);
  for (const std::exception_ptr& error :
       world.run_ranks([](comm::Communicator& comm) {
         const std::uint64_t round = 0;
         if (comm.rank() == 0) {
           SchedulerEnvelope envelope;
           envelope.seq = 1;
           envelope.round = round;
           envelope.roster_trainers = {0, 1};
           envelope.roster_hosts = {0, 1};
           envelope.commands.emplace_back();  // one NoOp => one ack status
           const int cmd_tag = sched_cmd_tag(round);
           const int ack_tag = sched_ack_tag(round);
           // Original + retry of the same seq, then the next boundary's
           // envelope on the same round tag.
           comm.send(1, cmd_tag, encode_scheduler_envelope(envelope));
           comm.send(1, cmd_tag, encode_scheduler_envelope(envelope));
           SchedulerEnvelope next = envelope;
           next.seq = 2;
           comm.send(1, cmd_tag, encode_scheduler_envelope(next));

           const SchedulerAck first =
               decode_scheduler_ack(comm.recv(1, ack_tag, kTimeout));
           EXPECT_EQ(first.seq, 1u);
           ASSERT_EQ(first.statuses.size(), 1u);
           EXPECT_EQ(first.statuses[0], SchedulerAckStatus::Ok);

           const SchedulerAck dup =
               decode_scheduler_ack(comm.recv(1, ack_tag, kTimeout));
           EXPECT_EQ(dup.seq, 1u);
           ASSERT_EQ(dup.statuses.size(), 1u);
           EXPECT_EQ(dup.statuses[0], SchedulerAckStatus::AlreadyApplied);

           const SchedulerAck second =
               decode_scheduler_ack(comm.recv(1, ack_tag, kTimeout));
           EXPECT_EQ(second.seq, 2u);
         } else {
           SchedulerClient client(comm, 0, kTimeout);
           const SchedulerEnvelope first = client.await_boundary(round);
           EXPECT_EQ(first.seq, 1u);
           client.ack(first, {SchedulerAckStatus::Ok}, {""});
           // The retry must be absorbed internally (AlreadyApplied ack,
           // no reapply): the next fresh envelope is seq 2.
           const SchedulerEnvelope second = client.await_boundary(round);
           EXPECT_EQ(second.seq, 2u);
           client.ack(second, {SchedulerAckStatus::Ok}, {""});
         }
       })) {
    if (error) std::rethrow_exception(error);
  }
}

// ---- datastore shard migration -------------------------------------------------------

TEST(ShardMigration, ManifestMovesToNewOwnerAndFetchStillServes) {
  const auto dir =
      std::filesystem::temp_directory_path() / "ltfb_sched_shard";
  std::filesystem::remove_all(dir);
  data::SampleSchema schema;
  schema.input_width = 5;
  schema.scalar_width = 15;
  schema.image_width = 6;
  std::vector<data::Sample> samples;
  for (data::SampleId id = 0; id < 24; ++id) {
    data::Sample sample;
    sample.id = id;
    sample.input.assign(5, static_cast<float>(id));
    sample.scalars.assign(15, static_cast<float>(id) * 2.0f);
    sample.images.assign(6, static_cast<float>(id) * 3.0f);
    samples.push_back(std::move(sample));
  }
  const auto paths = data::write_bundle_set(dir, schema, samples, 4);
  datastore::BundleCatalog catalog(paths);

  std::mutex mutex;
  std::map<int, std::vector<data::SampleId>> manifests;
  comm::World::run(2, [&](comm::Communicator& comm) {
    datastore::DataStore store(comm, &catalog,
                               datastore::PopulateMode::Preloaded);
    store.preload();
    {
      const std::scoped_lock lock(mutex);
      manifests[comm.rank()] = store.shard_manifest();
    }
    comm.barrier();
    // Rank 0 hands its whole shard to rank 1 — every rank applies the
    // identical reassignment (the scheduler's roster broadcast is what
    // guarantees the agreement in the real driver).
    std::vector<data::SampleId> rank0_shard;
    {
      const std::scoped_lock lock(mutex);
      rank0_shard = manifests.at(0);
    }
    store.migrate_shard(rank0_shard, 1);
    if (comm.rank() == 0) {
      EXPECT_TRUE(store.shard_manifest().empty());
    } else {
      EXPECT_EQ(store.shard_manifest().size(), 24u);
    }
    // The directory stays convergent: any rank can still fetch anything.
    std::vector<data::SampleId> wanted{0, 7, 13, 23};
    const auto got = store.fetch(wanted);
    ASSERT_EQ(got.size(), wanted.size());
    for (std::size_t i = 0; i < wanted.size(); ++i) {
      EXPECT_EQ(got[i].id, wanted[i]);
    }
  });
}

// ---- the acceptance property ---------------------------------------------------------

/// Runs a 4-rank elastic tournament under `churn` and returns rank 0's
/// authoritative history plus outcome counters.
ElasticLtfbOutcome run_elastic(const data::Dataset& dataset,
                               const data::SplitIndices& splits,
                               const FaultSchedule& churn) {
  ElasticLtfbConfig config;
  config.batch_size = 16;
  config.ltfb.steps_per_round = 2;
  config.ltfb.rounds = 6;
  config.ltfb.pretrain_steps = 2;
  config.model = tiny_config();
  config.seed = 77;
  config.initial_trainers = 3;
  config.max_trainers = 4;
  config.comm_timeout = kTimeout;
  config.churn = churn;
  config.churn_from_env = false;

  ElasticLtfbOutcome scheduler_outcome;
  std::mutex mutex;
  comm::World world(4);
  for (const std::exception_ptr& error :
       world.run_ranks([&](comm::Communicator& comm) {
         const auto outcome =
             run_elastic_ltfb(comm, dataset, splits, config);
         EXPECT_FALSE(outcome.aborted) << "rank " << outcome.rank;
         if (outcome.scheduler) {
           const std::scoped_lock lock(mutex);
           scheduler_outcome = outcome;
         }
       })) {
    if (error) std::rethrow_exception(error);
  }
  return scheduler_outcome;
}

void expect_identical_history(const std::vector<RoundRecord>& a,
                              const std::vector<RoundRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].round, b[r].round);
    ASSERT_EQ(a[r].stats.size(), b[r].stats.size()) << "round " << r;
    for (std::size_t s = 0; s < a[r].stats.size(); ++s) {
      const TrainerRoundStat& x = a[r].stats[s];
      const TrainerRoundStat& y = b[r].stats[s];
      EXPECT_EQ(x.trainer_id, y.trainer_id);
      EXPECT_EQ(x.partner_id, y.partner_id);
      // Bit-identical, not approximately equal: the elasticity contract
      // says churn replays the exact floating-point trajectory.
      EXPECT_EQ(x.own_score, y.own_score) << "round " << r << " stat " << s;
      EXPECT_EQ(x.partner_score, y.partner_score);
      EXPECT_EQ(x.adopted_partner, y.adopted_partner);
      EXPECT_EQ(x.partner_failed, y.partner_failed);
    }
    EXPECT_EQ(a[r].joined, b[r].joined) << "round " << r;
    EXPECT_EQ(a[r].left, b[r].left) << "round " << r;
  }
}

TEST(ElasticDeterminism, ChurnScheduleReplaysBitIdentically) {
  const data::Dataset dataset = tiny_dataset(200, 41);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 42);
  // Grow, shrink, AND a live migration in one schedule — the acceptance
  // criterion of DESIGN.md §14.
  // Trainer 3 joins on the idle rank 3 at round 2; trainer 1 leaves at
  // round 4 freeing rank 1; trainer 0 then migrates onto it at round 5.
  const auto churn = FaultSchedule::parse("join:3@2;leave:1@4;migrate:0@5:1");

  const auto first = run_elastic(dataset, splits, churn);
  const auto second = run_elastic(dataset, splits, churn);

  ASSERT_EQ(first.history.size(), 6u);
  expect_identical_history(first.history, second.history);

  // The churn markers land exactly where the schedule fired.
  EXPECT_EQ(first.history[2].joined, std::vector<int>{3});
  EXPECT_EQ(first.history[4].left, std::vector<int>{1});
  for (std::size_t r = 0; r < first.history.size(); ++r) {
    if (r != 2) {
      EXPECT_TRUE(first.history[r].joined.empty()) << r;
    }
    if (r != 4) {
      EXPECT_TRUE(first.history[r].left.empty()) << r;
    }
  }
  EXPECT_EQ(first.joins, 1u);
  EXPECT_EQ(first.leaves, 1u);
  EXPECT_EQ(first.migrations, 1u);

  // Population sizes visible in the per-round stat counts: 3, 3, then 4
  // after the join, 4, then 3 after the leave.
  EXPECT_EQ(first.history[1].stats.size(), 3u);
  EXPECT_EQ(first.history[2].stats.size(), 4u);
  EXPECT_EQ(first.history[4].stats.size(), 3u);
}

TEST(ElasticLtfb, InvalidConfigurationThrows) {
  const data::Dataset dataset = tiny_dataset(120, 43);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 44);
  auto rejects = [&](const ElasticLtfbConfig& config) {
    EXPECT_THROW(comm::World::run(2,
                                  [&](comm::Communicator& world) {
                                    (void)run_elastic_ltfb(world, dataset,
                                                           splits, config);
                                  }),
                 InvalidArgument);
  };
  ElasticLtfbConfig base;
  base.batch_size = 8;
  base.ltfb.rounds = 1;
  base.ltfb.steps_per_round = 1;
  base.model = tiny_config();
  base.comm_timeout = kTimeout;
  base.churn_from_env = false;

  ElasticLtfbConfig config = base;
  config.comm_timeout = milliseconds(0);  // the protocol is deadline-based
  rejects(config);
  // LtfbConfig fields only LocalLtfbDriver reads fail instead of being
  // silently ignored.
  config = base;
  config.ltfb.checkpoint_path = "ignored.pop";
  rejects(config);
  config = base;
  config.ltfb.checkpoint_every = 1;
  rejects(config);
  config = base;
  config.ltfb.resume_from = "ignored.pop";
  rejects(config);
  config = base;
  config.ltfb.lr_perturbation = 0.1f;
  rejects(config);
}

TEST(ElasticDeterminism, MigrationIsPlacementTransparent) {
  const data::Dataset dataset = tiny_dataset(200, 41);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 42);
  // Same membership trajectory with and without a migration: history must
  // be bit-identical because trainer state is a pure function of
  // (trainer id, seed, steps), never of the hosting rank.
  const auto still = run_elastic(dataset, splits, FaultSchedule());
  const auto moved =
      run_elastic(dataset, splits, FaultSchedule().migrate(1, 2, 3));
  EXPECT_EQ(moved.migrations, 1u);
  expect_identical_history(still.history, moved.history);
}

}  // namespace
