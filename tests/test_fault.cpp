// Chaos harness for the fault-tolerance stack: deterministic fault
// injection (schedule grammar, kill/drop/delay), failure-aware comm
// primitives (deadlines, survivor detection, shrink), survivor
// tournaments, data-store directory repair, and population
// checkpoint/restart with bit-identical resumed history.
//
// The sweep contract: every seeded chaos run either completes with a
// surviving-population result or fails fast with a typed error
// (FaultInjected on the victim, RankFailedError/TimeoutError on
// survivors) — it never hangs and never surfaces an untyped failure.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>

#include "comm/communicator.hpp"
#include "core/ltfb_comm.hpp"
#include "core/population.hpp"
#include "core/population_checkpoint.hpp"
#include "datastore/data_store.hpp"
#include "nn/model.hpp"
#include "nn/parallel.hpp"
#include "tensor/half.hpp"

namespace {

using namespace ltfb;
using namespace ltfb::core;
using comm::FaultSchedule;
using std::chrono::milliseconds;

// Generous enough that healthy runs never brush the deadline, even under
// TSan's slowdown; failures are detected via liveness flags (fast), not by
// waiting out the clock.
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

struct BundleFixture {
  std::filesystem::path dir;
  std::vector<std::filesystem::path> paths;
  data::SampleSchema schema;
  std::vector<data::Sample> samples;
};

BundleFixture make_bundles(const std::string& name, std::size_t total,
                           std::size_t files) {
  BundleFixture fx;
  fx.dir = std::filesystem::temp_directory_path() / ("ltfb_fault_" + name);
  std::filesystem::remove_all(fx.dir);
  fx.schema.input_width = 5;
  fx.schema.scalar_width = 15;
  fx.schema.image_width = 6;
  for (data::SampleId id = 0; id < total; ++id) {
    data::Sample sample;
    sample.id = id;
    sample.input.assign(5, static_cast<float>(id));
    sample.scalars.assign(15, static_cast<float>(id) * 2.0f);
    sample.images.assign(6, static_cast<float>(id) * 3.0f);
    fx.samples.push_back(std::move(sample));
  }
  fx.paths = data::write_bundle_set(fx.dir, fx.schema, fx.samples, files);
  return fx;
}

/// A chaos-run rank outcome must be clean or carry one of the typed fault
/// errors; anything else (untyped, wrong category) fails the harness.
void expect_typed_or_clean(const std::exception_ptr& error, int rank) {
  if (!error) return;
  try {
    std::rethrow_exception(error);
  } catch (const comm::FaultInjected&) {
  } catch (const RankFailedError&) {
  } catch (const TimeoutError&) {
  } catch (const std::exception& ex) {
    ADD_FAILURE() << "rank " << rank << " died with untyped error: "
                  << ex.what();
  }
}

void expect_identical_history(const std::vector<RoundRecord>& a,
                              const std::vector<RoundRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].round, b[r].round);
    ASSERT_EQ(a[r].stats.size(), b[r].stats.size());
    for (std::size_t s = 0; s < a[r].stats.size(); ++s) {
      const TrainerRoundStat& x = a[r].stats[s];
      const TrainerRoundStat& y = b[r].stats[s];
      EXPECT_EQ(x.trainer_id, y.trainer_id);
      EXPECT_EQ(x.partner_id, y.partner_id);
      // Bit-identical, not approximately equal: resume must replay the
      // exact floating-point trajectory.
      EXPECT_EQ(x.own_score, y.own_score);
      EXPECT_EQ(x.partner_score, y.partner_score);
      EXPECT_EQ(x.adopted_partner, y.adopted_partner);
      EXPECT_EQ(x.partner_failed, y.partner_failed);
    }
    EXPECT_EQ(a[r].joined, b[r].joined);
    EXPECT_EQ(a[r].left, b[r].left);
  }
}

// ---- fault schedule grammar ----------------------------------------------------------

TEST(FaultSchedule, ParsesGrammar) {
  const auto schedule =
      FaultSchedule::parse("kill:2@40; drop:0@3 ;delay:1@5:20");
  ASSERT_EQ(schedule.actions().size(), 3u);
  ASSERT_TRUE(schedule.kill_op(2).has_value());
  EXPECT_EQ(*schedule.kill_op(2), 40u);
  EXPECT_FALSE(schedule.kill_op(0).has_value());

  const auto* drop = schedule.message_action(0, 3);
  ASSERT_NE(drop, nullptr);
  EXPECT_EQ(drop->kind, comm::FaultAction::Kind::Drop);

  const auto* delay = schedule.message_action(1, 5);
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->kind, comm::FaultAction::Kind::Delay);
  EXPECT_EQ(delay->delay_ms, 20u);

  EXPECT_EQ(schedule.message_action(1, 4), nullptr);
  EXPECT_EQ(schedule.message_action(2, 3), nullptr);
}

TEST(FaultSchedule, RoundTripsThroughStr) {
  const std::string spec = "kill:2@40;drop:0@3;delay:1@5:20";
  const auto schedule = FaultSchedule::parse(spec);
  EXPECT_EQ(schedule.str(), spec);
  EXPECT_EQ(FaultSchedule::parse(schedule.str()).str(), spec);
}

TEST(FaultSchedule, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultSchedule::parse("boom:1@2"), InvalidArgument);
  EXPECT_THROW(FaultSchedule::parse("kill:x@2"), InvalidArgument);
  EXPECT_THROW(FaultSchedule::parse("kill:1"), InvalidArgument);
  EXPECT_THROW(FaultSchedule::parse("delay:1@2"), InvalidArgument);
  EXPECT_THROW(FaultSchedule::parse("kill:1@2@3"), InvalidArgument);
}

TEST(FaultSchedule, RandomKillIsDeterministic) {
  const auto a = FaultSchedule::random_kill(7, 4, 100);
  const auto b = FaultSchedule::random_kill(7, 4, 100);
  EXPECT_EQ(a.str(), b.str());
  ASSERT_EQ(a.actions().size(), 1u);
  EXPECT_EQ(a.actions()[0].kind, comm::FaultAction::Kind::Kill);
  EXPECT_GE(a.actions()[0].rank, 0);
  EXPECT_LT(a.actions()[0].rank, 4);
  EXPECT_LT(a.actions()[0].index, 100u);
}

// ---- failure-aware primitives --------------------------------------------------------

TEST(FailureAwareComm, RecvTimesOutThenLateMessageStillArrives) {
  comm::World world(2);
  auto errors = world.run_ranks([&](comm::Communicator& comm) {
    if (comm.rank() == 0) {
      // Nothing sent yet: the deadline fires. The receive is not consumed
      // by timing out — the later message is still claimable.
      EXPECT_THROW((void)comm.recv(1, 7, milliseconds(50)), TimeoutError);
      comm.send(1, 8, comm::Serializer::pack_floats(std::vector<float>{1.0f}));
      const comm::Buffer late = comm.recv(1, 7, kTimeout);
      EXPECT_EQ(comm::Deserializer::unpack_floats(late),
                std::vector<float>({4.0f, 2.0f}));
    } else {
      // Wait for rank 0's go-signal (sent only after its timeout), then
      // deliver the message it was originally waiting for.
      (void)comm.recv(0, 8, kTimeout);
      comm.send(0, 7, comm::Serializer::pack_floats(std::vector<float>{4.0f, 2.0f}));
    }
  });
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(errors[static_cast<std::size_t>(r)], nullptr) << "rank " << r;
  }
}

TEST(FailureAwareComm, SurvivorDetectsKilledPeer) {
  comm::World world(2);
  world.set_fault_schedule(FaultSchedule().kill(1, 0));
  auto errors = world.run_ranks([&](comm::Communicator& comm) {
    if (comm.rank() == 1) {
      comm.barrier();  // op 0: the injected kill fires here
      ADD_FAILURE() << "rank 1 survived its scheduled kill";
    } else {
      // The peer is dead, not slow: detection is immediate via the
      // liveness flag, well before the deadline.
      EXPECT_THROW((void)comm.recv(1, 3, kTimeout), RankFailedError);
    }
  });
  EXPECT_EQ(errors[0], nullptr);
  ASSERT_NE(errors[1], nullptr);
  EXPECT_THROW(std::rethrow_exception(errors[1]), comm::FaultInjected);
}

TEST(FailureAwareComm, ShrinkAgreesOnSurvivorsAndRebuiltCommWorks) {
  comm::World world(4);
  world.set_fault_schedule(FaultSchedule().kill(2, 0));
  std::mutex mutex;
  std::set<int> survivor_sizes;
  auto errors = world.run_ranks([&](comm::Communicator& comm) {
    if (comm.rank() == 2) {
      comm.barrier();  // dies here
      return;
    }
    comm::Communicator shrunk = comm.shrink(kTimeout);
    EXPECT_EQ(shrunk.size(), 3);
    // The rebuilt communicator is fully functional over the survivors.
    float value[1] = {1.0f};
    shrunk.allreduce(std::span<float>(value, 1));
    EXPECT_FLOAT_EQ(value[0], 3.0f);
    const std::scoped_lock lock(mutex);
    survivor_sizes.insert(shrunk.size());
  });
  EXPECT_EQ(survivor_sizes, std::set<int>({3}));
  ASSERT_NE(errors[2], nullptr);
  EXPECT_THROW(std::rethrow_exception(errors[2]), comm::FaultInjected);
}

TEST(FailureAwareComm, DroppedMessageTimesOutAndResendSucceeds) {
  comm::World world(2);
  world.set_fault_schedule(FaultSchedule().drop(0, 0));
  auto errors = world.run_ranks([&](comm::Communicator& comm) {
    if (comm.rank() == 0) {
      // User message 0: silently dropped by the schedule.
      comm.send(1, 5, comm::Serializer::pack_floats(std::vector<float>{1.0f}));
      // Wait until the receiver observed the timeout, then resend.
      (void)comm.recv(1, 6, kTimeout);
      comm.send(1, 5, comm::Serializer::pack_floats(std::vector<float>{2.0f}));
    } else {
      EXPECT_THROW((void)comm.recv(0, 5, milliseconds(100)), TimeoutError);
      comm.send(0, 6, comm::Buffer{});
      const comm::Buffer buffer = comm.recv(0, 5, kTimeout);
      EXPECT_EQ(comm::Deserializer::unpack_floats(buffer),
                std::vector<float>({2.0f}));
    }
  });
  EXPECT_EQ(errors[0], nullptr);
  EXPECT_EQ(errors[1], nullptr);
}

TEST(FailureAwareComm, DelayedMessageIsDeliveredIntact) {
  comm::World world(2);
  world.set_fault_schedule(FaultSchedule().delay(0, 0, 100));
  auto errors = world.run_ranks([&](comm::Communicator& comm) {
    if (comm.rank() == 0) {
      const auto before = std::chrono::steady_clock::now();
      comm.send(1, 9, comm::Serializer::pack_floats(std::vector<float>{7.0f}));
      const auto elapsed = std::chrono::steady_clock::now() - before;
      EXPECT_GE(elapsed, milliseconds(100));
    } else {
      const comm::Buffer buffer = comm.recv(0, 9, kTimeout);
      EXPECT_EQ(comm::Deserializer::unpack_floats(buffer),
                std::vector<float>({7.0f}));
    }
  });
  EXPECT_EQ(errors[0], nullptr);
  EXPECT_EQ(errors[1], nullptr);
}

// ---- bucketed all-reduce under faults ------------------------------------------------

// Small multi-layer model, all of its gradients averaged by one ring
// (2 * (p - 1) steps of one send then one receive), so an injected fault
// lands mid-protocol.
void run_bucketed_sync(comm::Communicator& comm, milliseconds timeout) {
  nn::Model model("m", 100);  // same seed -> same structure on every rank
  const nn::LayerId in = model.add_input(6);
  const nn::LayerId hidden = model.add_dense(in, 16, nn::ActivationKind::Relu);
  model.add_linear(hidden, 4);
  std::vector<float> grads(model.parameter_count(),
                           static_cast<float>(comm.rank() + 1));
  model.load_flat_gradients(grads);
  nn::GradientBucketer bucketer(comm);
  const auto weights = model.weights();
  for (std::size_t i = weights.size(); i-- > 0;) {
    bucketer.on_layer_backward(*weights[i]);
  }
  bucketer.finish({&model}, timeout);
}

TEST(BucketerFault, RankKilledMidBucketSurfacesAsRankFailed) {
  comm::World world(3);
  // Each ring step costs two ops (send, recv), so op 4 is rank 1's first
  // all-gather send, step 2 of 4: rank 1 dies mid-ring.
  world.set_fault_schedule(FaultSchedule().kill(1, 4));
  auto errors = world.run_ranks([&](comm::Communicator& comm) {
    if (comm.rank() == 1) {
      run_bucketed_sync(comm, kTimeout);  // killed mid-way by the schedule
      ADD_FAILURE() << "rank 1 survived its scheduled kill";
    } else {
      // Survivors must fail fast (liveness detection, not deadline) and
      // typed — never hang inside finish().
      EXPECT_THROW(run_bucketed_sync(comm, kTimeout), RankFailedError);
    }
  });
  EXPECT_EQ(errors[0], nullptr);
  ASSERT_NE(errors[1], nullptr);
  EXPECT_THROW(std::rethrow_exception(errors[1]), comm::FaultInjected);
  EXPECT_EQ(errors[2], nullptr);
}

TEST(BucketerFault, DroppedBucketChunkHitsDeadlineNotAHang) {
  comm::World world(2);
  // Bucketer sends are user-level messages, so drop schedules apply: rank
  // 0's first message (its reduce-scatter chunk) vanishes, rank 1 waits
  // on it at once and rank 0 waits on rank 1's all-gather chunk, so the
  // ring can never complete. Both ranks must exit their finish() within
  // the deadline — with TimeoutError, or RankFailedError when the
  // partner's own timeout already made it depart. Returning at all is the
  // no-hang assertion.
  world.set_fault_schedule(FaultSchedule().drop(0, 0));
  auto errors = world.run_ranks([&](comm::Communicator& comm) {
    try {
      run_bucketed_sync(comm, milliseconds(300));
      ADD_FAILURE() << "rank " << comm.rank()
                    << " completed despite the dropped chunk";
    } catch (const TimeoutError&) {
    } catch (const RankFailedError&) {
    }
  });
  EXPECT_EQ(errors[0], nullptr);
  EXPECT_EQ(errors[1], nullptr);
}

TEST(BucketerFault, SpentDeadlineThrowsTimeoutError) {
  // Rank 0 gets a 1 ms budget and a peer that enters its sync 50 ms late.
  // Less than a whole millisecond is left by its first receive, and
  // finish() must report the spent budget as a TimeoutError, never build
  // an invalid zero-length wait.
  comm::World world(2);
  auto errors = world.run_ranks([&](comm::Communicator& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(run_bucketed_sync(comm, milliseconds(1)), TimeoutError);
    } else {
      std::this_thread::sleep_for(milliseconds(50));
      try {
        run_bucketed_sync(comm, kTimeout);
      } catch (const TimeoutError&) {
      } catch (const RankFailedError&) {
      }
    }
  });
  EXPECT_EQ(errors[0], nullptr);
  EXPECT_EQ(errors[1], nullptr);
}

// ---- chaos sweep ---------------------------------------------------------------------
//
// >= 12 seeded schedules across the four failure windows (mid-step,
// mid-tournament, mid-fetch, mid-preload). Every rank either completes or
// dies with a typed error; the harness itself terminating is the no-hang
// assertion (deadlines bound every blocking path).

std::uint64_t chaos_seed_base() {
  // The CI chaos job sweeps different seed planes via LTFB_CHAOS_SEED.
  const char* env = std::getenv("LTFB_CHAOS_SEED");
  return env == nullptr
             ? 0
             : static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10)) *
                   1000;
}

void chaos_ltfb_run(int world_size, int rpt, const FaultSchedule& schedule) {
  const data::Dataset dataset = tiny_dataset(240, 81);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 82);
  DistributedLtfbConfig config;
  config.ranks_per_trainer = rpt;
  config.batch_size = 8;
  config.ltfb.steps_per_round = 2;
  config.ltfb.rounds = 2;
  config.ltfb.pretrain_steps = 1;
  config.model = tiny_config();
  config.seed = 83;
  config.comm_timeout = kTimeout;

  comm::World world(world_size);
  world.set_fault_schedule(schedule);
  std::mutex mutex;
  std::vector<DistributedLtfbOutcome> outcomes;
  auto errors = world.run_ranks([&](comm::Communicator& comm) {
    const auto outcome = run_distributed_ltfb(comm, dataset, splits, config);
    const std::scoped_lock lock(mutex);
    outcomes.push_back(outcome);
  });
  for (int r = 0; r < world_size; ++r) {
    expect_typed_or_clean(errors[static_cast<std::size_t>(r)], r);
  }
  for (const auto& outcome : outcomes) {
    if (outcome.aborted) continue;
    EXPECT_TRUE(std::isfinite(outcome.final_validation_loss))
        << "trainer " << outcome.trainer_id;
  }
}

void chaos_datastore_run(const BundleFixture& fx, const FaultSchedule& schedule,
                         bool kill_during_preload) {
  datastore::BundleCatalog catalog(fx.paths);
  comm::World world(4);
  world.set_fault_schedule(schedule);
  auto errors = world.run_ranks([&](comm::Communicator& comm) {
    // Explicit repair-rendezvous deadline (instead of the derived default)
    // to exercise the configurable shrink budget under chaos.
    datastore::DataStore store(comm, &catalog,
                               datastore::PopulateMode::Preloaded, 0, {},
                               kTimeout, 6 * kTimeout);
    store.preload();
    for (int step = 0; step < 6; ++step) {
      const std::vector<data::SampleId> wanted{
          static_cast<data::SampleId>(comm.rank()),
          static_cast<data::SampleId>(39 - comm.rank()),
          static_cast<data::SampleId>((comm.rank() * 7 + step) % 40)};
      const auto got = store.fetch(wanted);
      ASSERT_EQ(got.size(), wanted.size());
      for (std::size_t i = 0; i < wanted.size(); ++i) {
        EXPECT_EQ(got[i].id, wanted[i]);
        EXPECT_FLOAT_EQ(got[i].images[0],
                        static_cast<float>(wanted[i]) * 3.0f);
      }
    }
  });
  (void)kill_during_preload;
  for (int r = 0; r < 4; ++r) {
    expect_typed_or_clean(errors[static_cast<std::size_t>(r)], r);
  }
}

TEST(ChaosSweep, KillDuringDataParallelStep) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // rpt=2: deaths land mostly inside gradient all-reduces.
    chaos_ltfb_run(4, 2,
                   FaultSchedule::random_kill(chaos_seed_base() + seed, 4, 40));
  }
}

TEST(ChaosSweep, KillDuringTournament) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // rpt=1: every comm op is a tournament exchange, split, or shrink.
    chaos_ltfb_run(4, 1,
                   FaultSchedule::random_kill(chaos_seed_base() + 100 + seed,
                                              4, 8));
  }
}

TEST(ChaosSweep, KillDuringFetchExchange) {
  const BundleFixture fx = make_bundles("chaos_fetch", 40, 8);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    chaos_datastore_run(
        fx, FaultSchedule::random_kill(chaos_seed_base() + 200 + seed, 4, 60),
        false);
  }
}

TEST(ChaosSweep, KillDuringPreload) {
  const BundleFixture fx = make_bundles("chaos_preload", 40, 8);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Max op 5: deaths land in the preload / directory-build broadcasts.
    chaos_datastore_run(
        fx, FaultSchedule::random_kill(chaos_seed_base() + 300 + seed, 4, 5),
        true);
  }
}

// ---- survivor tournaments ------------------------------------------------------------

TEST(SurvivorTournament, PopulationRoutesAroundDeadLeader) {
  const data::Dataset dataset = tiny_dataset(240, 84);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 85);
  DistributedLtfbConfig config;
  config.ranks_per_trainer = 1;
  config.batch_size = 8;
  config.ltfb.steps_per_round = 2;
  config.ltfb.rounds = 3;
  config.ltfb.pretrain_steps = 1;
  config.model = tiny_config();
  config.seed = 86;
  config.comm_timeout = kTimeout;
  // Explicit survivor-agreement budget (default would derive 4x) so the
  // configurable rendezvous deadline is exercised under a real kill.
  config.shrink_timeout = 6 * kTimeout;

  // Per-rank op sequence (rpt=1): split, split, then per round
  // sendrecv + shrink. Op 4 is rank 2's round-1 exchange: it dies
  // mid-tournament, after a full healthy round.
  comm::World world(4);
  world.set_fault_schedule(FaultSchedule().kill(2, 4));
  std::mutex mutex;
  std::vector<DistributedLtfbOutcome> outcomes;
  auto errors = world.run_ranks([&](comm::Communicator& comm) {
    const auto outcome = run_distributed_ltfb(comm, dataset, splits, config);
    const std::scoped_lock lock(mutex);
    outcomes.push_back(outcome);
  });

  ASSERT_NE(errors[2], nullptr);
  EXPECT_THROW(std::rethrow_exception(errors[2]), comm::FaultInjected);
  ASSERT_EQ(outcomes.size(), 3u);

  std::size_t degraded = 0;
  for (const auto& outcome : outcomes) {
    EXPECT_FALSE(outcome.aborted);
    EXPECT_NE(outcome.trainer_id, 2);
    EXPECT_TRUE(std::isfinite(outcome.final_validation_loss));
    degraded += outcome.partner_failures;
    // Every completed round either dueled, sat out, or was degraded.
    EXPECT_LE(outcome.tournaments_won + outcome.adoptions +
                  outcome.partner_failures,
              config.ltfb.rounds);
    ASSERT_EQ(outcome.history.size(), config.ltfb.rounds);
    for (const auto& record : outcome.history) {
      ASSERT_EQ(record.stats.size(), 1u);
      EXPECT_EQ(record.stats[0].trainer_id, outcome.trainer_id);
    }
  }
  // Exactly one survivor was mid-exchange with the victim.
  EXPECT_EQ(degraded, 1u);
}

// ---- data store repair ---------------------------------------------------------------

TEST(DataStoreRepair, CapacityBoundAdoptionServesOrphansFromFiles) {
  const BundleFixture fx = make_bundles("capacity_repair", 30, 6);
  datastore::BundleCatalog catalog(fx.paths);
  const std::size_t sample_bytes = fx.samples[0].byte_size();

  std::mutex mutex;
  std::size_t total_disk_resident = 0;
  std::size_t total_faults = 0;
  comm::World::run(3, [&](comm::Communicator& comm) {
    // Room for the 10 preloaded samples plus ONE adopted orphan per rank.
    datastore::DataStore store(comm, &catalog,
                               datastore::PopulateMode::Preloaded,
                               11 * sample_bytes + 1, {}, milliseconds(300));
    store.preload();
    if (comm.rank() == 2) {
      return;  // departs; its 10 samples become orphans
    }
    // Survivors request the departed rank's samples: the exchange times
    // out, the directory repairs (shrink + re-adoption), and the fetch
    // retry succeeds. Each survivor can adopt only 1 of its 5 orphans in
    // memory; the other 4 are disk-resident, served by file reads.
    const std::vector<data::SampleId> wanted{2, 5, 8, 11, 14, 17, 20, 23,
                                             26, 29};
    const auto got = store.fetch(wanted);
    ASSERT_EQ(got.size(), wanted.size());
    for (std::size_t i = 0; i < wanted.size(); ++i) {
      EXPECT_EQ(got[i].id, wanted[i]);
      EXPECT_FLOAT_EQ(got[i].scalars[0], static_cast<float>(wanted[i]) * 2.0f);
    }
    // A second fetch of disk-resident samples works too (fresh reads).
    const auto again = store.fetch(wanted);
    ASSERT_EQ(again.size(), wanted.size());
    const std::scoped_lock lock(mutex);
    total_disk_resident += store.disk_resident_samples();
    total_faults += store.stats().faults;
  });
  // 10 orphans, 2 survivors, 1 in-memory adoption each: 8 disk-resident.
  EXPECT_EQ(total_disk_resident, 8u);
  EXPECT_GE(total_faults, 2u);
}

// ---- population checkpoint format ----------------------------------------------------

PopulationCheckpoint synthetic_checkpoint() {
  PopulationCheckpoint ckpt;
  ckpt.round = 7;
  ckpt.pairing_seed = 0xabcdef01ull;
  TrainerSlot slot;
  slot.trainer.trainer_id = 3;
  slot.trainer.learning_rate = 1.5e-3f;
  slot.trainer.steps = 42;
  slot.trainer.reader_epoch = 2;
  slot.trainer.reader_cursor = 9;
  slot.trainer.generator = {1.0f, -2.5f, 3.25f};
  slot.trainer.discriminator = {0.5f};
  slot.trainer.optimizer_state = {4.0f, 5.0f};
  slot.tournaments_won = 4;
  slot.adoptions = 3;
  slot.host_rank = 2;
  slot.joined_round = 5;
  slot.shard_manifest = {11, 22, 33, 44};
  ckpt.trainers.push_back(slot);
  RoundRecord record;
  record.round = 6;
  record.stats = {{3, 1, 0.25, 0.75, false, true}};
  record.joined = {3};
  record.left = {1, 2};
  ckpt.history.push_back(record);
  return ckpt;
}

TEST(PopulationCheckpointFormat, RoundTripsAllFields) {
  const auto path =
      std::filesystem::temp_directory_path() / "ltfb_pop_roundtrip.pop";
  const PopulationCheckpoint saved = synthetic_checkpoint();
  save_population_checkpoint(path, saved);
  const PopulationCheckpoint loaded = load_population_checkpoint(path);
  EXPECT_EQ(loaded.round, saved.round);
  EXPECT_EQ(loaded.pairing_seed, saved.pairing_seed);
  ASSERT_EQ(loaded.trainers.size(), 1u);
  const TrainerSlot& slot = loaded.trainers[0];
  EXPECT_EQ(slot.trainer.trainer_id, 3);
  EXPECT_EQ(slot.trainer.learning_rate, 1.5e-3f);
  EXPECT_EQ(slot.trainer.steps, 42u);
  EXPECT_EQ(slot.trainer.reader_epoch, 2u);
  EXPECT_EQ(slot.trainer.reader_cursor, 9u);
  EXPECT_EQ(slot.trainer.generator, saved.trainers[0].trainer.generator);
  EXPECT_EQ(slot.trainer.discriminator,
            saved.trainers[0].trainer.discriminator);
  EXPECT_EQ(slot.trainer.optimizer_state,
            saved.trainers[0].trainer.optimizer_state);
  EXPECT_EQ(slot.tournaments_won, 4u);
  EXPECT_EQ(slot.adoptions, 3u);
  EXPECT_EQ(slot.host_rank, 2);
  EXPECT_EQ(slot.joined_round, 5u);
  EXPECT_EQ(slot.shard_manifest, saved.trainers[0].shard_manifest);
  expect_identical_history(loaded.history, saved.history);
  // Atomic write: no temp sibling survives a successful save.
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
}

TEST(PopulationCheckpointFormat, TruncationThrowsFormatError) {
  const auto path =
      std::filesystem::temp_directory_path() / "ltfb_pop_truncated.pop";
  save_population_checkpoint(path, synthetic_checkpoint());
  const auto full = std::filesystem::file_size(path);
  for (const std::uintmax_t keep :
       {std::uintmax_t{4}, std::uintmax_t{21}, full / 2, full - 1}) {
    std::filesystem::resize_file(path, keep);
    EXPECT_THROW((void)load_population_checkpoint(path), FormatError)
        << "truncated to " << keep << " bytes";
  }
}

TEST(PopulationCheckpointFormat, BadMagicThrowsFormatError) {
  const auto path =
      std::filesystem::temp_directory_path() / "ltfb_pop_badmagic.pop";
  save_population_checkpoint(path, synthetic_checkpoint());
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(0);
  file.put('X');
  file.close();
  EXPECT_THROW((void)load_population_checkpoint(path), FormatError);
}

TEST(PopulationCheckpointFormat, MemoryEncodeDecodeRoundTrips) {
  const PopulationCheckpoint saved = synthetic_checkpoint();
  const std::vector<std::uint8_t> bytes = encode_population_checkpoint(saved);
  const PopulationCheckpoint loaded =
      decode_population_checkpoint(bytes.data(), bytes.size(), "<test>");
  EXPECT_EQ(loaded.round, saved.round);
  EXPECT_EQ(loaded.pairing_seed, saved.pairing_seed);
  ASSERT_EQ(loaded.trainers.size(), 1u);
  EXPECT_EQ(loaded.trainers[0].host_rank, saved.trainers[0].host_rank);
  EXPECT_EQ(loaded.trainers[0].joined_round, saved.trainers[0].joined_round);
  EXPECT_EQ(loaded.trainers[0].shard_manifest,
            saved.trainers[0].shard_manifest);
  EXPECT_EQ(loaded.trainers[0].trainer.generator,
            saved.trainers[0].trainer.generator);
  expect_identical_history(loaded.history, saved.history);
}

// Reduced-precision image (v4): weight arrays quantized to bf16/fp16,
// optimizer state always exact fp32 (Adam moments need the range, and the
// float-encoded length prefixes must survive exactly).
TEST(PopulationCheckpointFormat, ReducedPrecisionV4RoundTrips) {
  const PopulationCheckpoint saved = synthetic_checkpoint();
  for (const auto dtype : {nn::WeightsDtype::Bf16, nn::WeightsDtype::Fp16}) {
    const auto kind = nn::half_kind(dtype);
    const std::vector<std::uint8_t> bytes =
        encode_population_checkpoint(saved, dtype);
    EXPECT_EQ(bytes[8], 4u);  // version byte: reduced-precision revision
    const PopulationCheckpoint loaded =
        decode_population_checkpoint(bytes.data(), bytes.size(), "<v4>");
    EXPECT_EQ(loaded.round, saved.round);
    EXPECT_EQ(loaded.pairing_seed, saved.pairing_seed);
    ASSERT_EQ(loaded.trainers.size(), 1u);
    const GanTrainerState& got = loaded.trainers[0].trainer;
    const GanTrainerState& want = saved.trainers[0].trainer;
    EXPECT_EQ(got.learning_rate, want.learning_rate);
    EXPECT_EQ(got.steps, want.steps);
    ASSERT_EQ(got.generator.size(), want.generator.size());
    for (std::size_t i = 0; i < want.generator.size(); ++i) {
      EXPECT_EQ(got.generator[i], tensor::quantize(want.generator[i], kind));
    }
    ASSERT_EQ(got.discriminator.size(), want.discriminator.size());
    for (std::size_t i = 0; i < want.discriminator.size(); ++i) {
      EXPECT_EQ(got.discriminator[i],
                tensor::quantize(want.discriminator[i], kind));
    }
    // Optimizer state is never reduced.
    EXPECT_EQ(got.optimizer_state, want.optimizer_state);
    expect_identical_history(loaded.history, saved.history);
    // Lossless at stored precision: re-encoding the loaded population at
    // the same dtype reproduces the image byte for byte.
    EXPECT_EQ(encode_population_checkpoint(loaded, dtype), bytes);
  }
  // The defaulted (fp32) encoding still writes the legacy v3 image.
  EXPECT_EQ(encode_population_checkpoint(saved)[8], 3u);
}

TEST(PopulationCheckpointFormat, ReducedPrecisionV4FileRoundTrips) {
  const auto path =
      std::filesystem::temp_directory_path() / "ltfb_pop_half.pop";
  const PopulationCheckpoint saved = synthetic_checkpoint();
  save_population_checkpoint(path, saved, nn::WeightsDtype::Bf16);
  const PopulationCheckpoint loaded = load_population_checkpoint(path);
  ASSERT_EQ(loaded.trainers.size(), 1u);
  EXPECT_EQ(loaded.trainers[0].trainer.generator,
            std::vector<float>({1.0f, -2.5f, 3.25f}));  // bf16-exact values
  EXPECT_EQ(loaded.trainers[0].trainer.optimizer_state,
            saved.trainers[0].trainer.optimizer_state);
}

// Forward compatibility: a writer newer than this reader (version 5, which
// does not exist yet) must be rejected with a clear FormatError naming the
// version — never misparsed as if the new fields weren't there.
TEST(PopulationCheckpointFormat, FutureVersionFailsWithClearError) {
  std::vector<std::uint8_t> bytes =
      encode_population_checkpoint(synthetic_checkpoint());
  // Layout: 8 magic bytes, then the u32 version. Version 5 is one past
  // the newest supported revision (v4, reduced-precision weights).
  ASSERT_GE(bytes.size(), 12u);
  bytes[8] = 5;
  bytes[9] = bytes[10] = bytes[11] = 0;
  try {
    (void)decode_population_checkpoint(bytes.data(), bytes.size(), "<v5>");
    FAIL() << "future version decoded without error";
  } catch (const FormatError& err) {
    EXPECT_NE(std::string(err.what())
                  .find("unsupported population checkpoint version"),
              std::string::npos)
        << err.what();
  }
}

// Every truncation point must throw FormatError — in particular the ones
// that land inside the v3 migration fields (host_rank / joined_round /
// shard_manifest and the per-record joined/left lists), which a predating
// reader never parsed.
TEST(PopulationCheckpointFormat, TruncationFuzzAlwaysFormatError) {
  const std::vector<std::uint8_t> bytes =
      encode_population_checkpoint(synthetic_checkpoint());
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_THROW(
        (void)decode_population_checkpoint(bytes.data(), keep, "<trunc>"),
        FormatError)
        << "truncated to " << keep << " of " << bytes.size() << " bytes";
  }
}

// Single-byte corruption anywhere in the image must either still decode
// (the flip landed in payload data) or throw FormatError — never crash,
// hang, or throw anything else. Exercises the sanity ceilings on the v3
// manifest/churn-list counts.
TEST(PopulationCheckpointFormat, ByteFlipFuzzNeverCrashes) {
  const std::vector<std::uint8_t> pristine =
      encode_population_checkpoint(synthetic_checkpoint());
  std::vector<std::uint8_t> bytes = pristine;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    bytes[pos] ^= 0xff;
    try {
      (void)decode_population_checkpoint(bytes.data(), bytes.size(),
                                         "<flip>");
    } catch (const FormatError&) {
      // Rejected with the one sanctioned error type: fine.
    }
    bytes[pos] = pristine[pos];
  }
}

// ---- local driver checkpoint/resume --------------------------------------------------

LocalLtfbDriver make_local_driver(const data::Dataset& dataset,
                                  const data::SplitIndices& splits,
                                  LtfbConfig ltfb) {
  PopulationConfig population;
  population.num_trainers = 4;
  population.batch_size = 16;
  population.model = tiny_config();
  population.seed = 91;
  return LocalLtfbDriver(build_population(dataset, splits, population),
                         std::move(ltfb));
}

TEST(LocalResume, RestartReproducesBitIdenticalHistory) {
  const data::Dataset dataset = tiny_dataset(400, 90);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 92);
  const auto path =
      (std::filesystem::temp_directory_path() / "ltfb_local_resume.pop")
          .string();

  LtfbConfig ltfb;
  ltfb.steps_per_round = 2;
  ltfb.rounds = 4;
  ltfb.pretrain_steps = 2;

  // Uninterrupted reference run, checkpointing mid-flight at round 2.
  LtfbConfig with_ckpt = ltfb;
  with_ckpt.checkpoint_path = path;
  with_ckpt.checkpoint_every = 2;
  LocalLtfbDriver full = make_local_driver(dataset, splits, with_ckpt);
  full.pretrain();
  full.run_round();
  full.run_round();
  // Simulated crash here: the round-2 checkpoint is on disk. Snapshot it
  // (the reference run keeps going and will overwrite `path` at round 4),
  // then finish the reference run to know the ground-truth history.
  const PopulationCheckpoint at_crash = load_population_checkpoint(path);
  EXPECT_EQ(at_crash.round, 2u);
  const auto crash_path =
      (std::filesystem::temp_directory_path() / "ltfb_local_resume_crash.pop")
          .string();
  std::filesystem::copy_file(path, crash_path,
                             std::filesystem::copy_options::overwrite_existing);
  full.run_round();
  full.run_round();
  ASSERT_EQ(full.history().size(), 4u);

  // Restarted run: fresh trainers, state restored from the checkpoint.
  LtfbConfig resumed_config = ltfb;
  resumed_config.resume_from = crash_path;
  LocalLtfbDriver resumed = make_local_driver(dataset, splits, resumed_config);
  EXPECT_TRUE(resumed.resumed());
  EXPECT_EQ(resumed.rounds_completed(), 2u);
  resumed.run();  // skips pretrain, runs rounds 2 and 3

  expect_identical_history(resumed.history(), full.history());
  // The models themselves are bit-identical too, not just the scores.
  for (std::size_t t = 0; t < full.population(); ++t) {
    EXPECT_EQ(resumed.trainer(t).model().generator_weights(),
              full.trainer(t).model().generator_weights());
    EXPECT_EQ(resumed.trainer(t).model().discriminator_weights(),
              full.trainer(t).model().discriminator_weights());
  }
}

TEST(LocalResume, MismatchedPairingSeedIsRejected) {
  const data::Dataset dataset = tiny_dataset(240, 93);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 94);
  const auto path =
      (std::filesystem::temp_directory_path() / "ltfb_seed_mismatch.pop")
          .string();
  LtfbConfig ltfb;
  ltfb.steps_per_round = 1;
  ltfb.rounds = 1;
  LocalLtfbDriver driver = make_local_driver(dataset, splits, ltfb);
  driver.run_round();
  driver.save_checkpoint(path);

  LtfbConfig wrong = ltfb;
  wrong.resume_from = path;
  wrong.pairing_seed = 12345;  // different tournament trajectory
  EXPECT_THROW(make_local_driver(dataset, splits, wrong), InvalidArgument);
}

// ---- distributed kill + restart ------------------------------------------------------

TEST(DistributedResume, KilledRunResumesBitIdentically) {
  const data::Dataset dataset = tiny_dataset(240, 95);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 96);
  const auto dir = std::filesystem::temp_directory_path() / "ltfb_dist_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  DistributedLtfbConfig config;
  config.ranks_per_trainer = 1;
  config.batch_size = 8;
  config.ltfb.steps_per_round = 2;
  config.ltfb.rounds = 4;
  config.ltfb.pretrain_steps = 1;
  config.model = tiny_config();
  config.seed = 97;
  config.comm_timeout = kTimeout;

  // Ground truth: the same run, never interrupted.
  std::mutex mutex;
  std::vector<DistributedLtfbOutcome> reference;
  comm::World::run(2, [&](comm::Communicator& comm) {
    const auto outcome = run_distributed_ltfb(comm, dataset, splits, config);
    const std::scoped_lock lock(mutex);
    reference.push_back(outcome);
  });
  ASSERT_EQ(reference.size(), 2u);

  // Doomed run: slot checkpoints at round 2, both ranks killed in round 2.
  // Per-rank op sequence (rpt=1): split, split, then sendrecv + shrink per
  // round — op 6 is the round-2 exchange, after the checkpoints landed.
  DistributedLtfbConfig doomed = config;
  doomed.checkpoint_dir = dir.string();
  doomed.checkpoint_every = 2;
  {
    comm::World world(2);
    world.set_fault_schedule(FaultSchedule().kill(0, 6).kill(1, 6));
    auto errors = world.run_ranks([&](comm::Communicator& comm) {
      (void)run_distributed_ltfb(comm, dataset, splits, doomed);
    });
    for (int r = 0; r < 2; ++r) {
      ASSERT_NE(errors[static_cast<std::size_t>(r)], nullptr);
      EXPECT_THROW(std::rethrow_exception(errors[static_cast<std::size_t>(r)]),
                   comm::FaultInjected);
    }
  }
  EXPECT_TRUE(std::filesystem::exists(dir / "trainer_0.pop"));
  EXPECT_TRUE(std::filesystem::exists(dir / "trainer_1.pop"));

  // Restart from the slot checkpoints: history must match the
  // uninterrupted reference bit for bit.
  DistributedLtfbConfig restart = config;
  restart.resume_from = dir.string();
  std::vector<DistributedLtfbOutcome> resumed;
  comm::World::run(2, [&](comm::Communicator& comm) {
    const auto outcome = run_distributed_ltfb(comm, dataset, splits, restart);
    const std::scoped_lock lock(mutex);
    resumed.push_back(outcome);
  });
  ASSERT_EQ(resumed.size(), 2u);

  for (const auto& outcome : resumed) {
    const auto match =
        std::find_if(reference.begin(), reference.end(), [&](const auto& ref) {
          return ref.trainer_id == outcome.trainer_id;
        });
    ASSERT_NE(match, reference.end());
    EXPECT_EQ(outcome.final_validation_loss, match->final_validation_loss);
    EXPECT_EQ(outcome.tournaments_won, match->tournaments_won);
    EXPECT_EQ(outcome.adoptions, match->adoptions);
    expect_identical_history(outcome.history, match->history);
  }
}

// ---- atomic history export -----------------------------------------------------------

TEST(HistoryCsvAtomicity, FailedWriteLeavesNoPartialFile) {
  std::vector<RoundRecord> history(1);
  history[0].round = 0;
  history[0].stats = {{0, 1, 0.5, 0.4, true, false}};
  const std::string path =
      (std::filesystem::temp_directory_path() / "ltfb_no_such_dir" /
       "history.csv")
          .string();
  std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                              "ltfb_no_such_dir");
  EXPECT_FALSE(export_history_csv(history, path));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(HistoryCsvAtomicity, SuccessfulWriteReplacesTempFile) {
  std::vector<RoundRecord> history(1);
  history[0].round = 0;
  history[0].stats = {{0, 1, 0.5, 0.4, true, true}};
  const std::string path =
      (std::filesystem::temp_directory_path() / "ltfb_history_atomic.csv")
          .string();
  ASSERT_TRUE(export_history_csv(history, path));
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  std::getline(in, line);
  EXPECT_EQ(line, "0,round,0,1,0.500000,0.400000,1,1,0.000000,0.000000");
}

}  // namespace
