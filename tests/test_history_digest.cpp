// Pins the exact numerics of every tournament driver across commits.
//
// The bit-identity suites elsewhere (LocalResume, DistributedResume,
// ElasticDeterminism) compare two runs of the same binary, so a change
// that moves the numerics of every run alike still passes them. This suite
// hashes each driver's RoundRecord history (partner, the bit patterns of
// both scores, adopted, failed, joined, left) and its final weights with
// FNV-1a, and compares the digests against constants recorded from the
// reference implementation. Results are bit-identical across pool sizes
// at a fixed SIMD width (DESIGN.md §15), so the table is keyed by
// tensor::simd::kNativeWidth: one column for the scalar build and one for
// avx2, the two widths of the CI simd-matrix. The avx2 column also needs
// mul_add_fused(): GCC contracts the kernels' a*b + c into an FMA only at
// -O2 and above, and an unoptimized (Debug) avx2 build reproduces the
// scalar column on every configuration below. A driver refactor must leave
// every digest unchanged; a change that is meant to move the numerics
// re-records the table and says why.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/classic_trainer.hpp"
#include "core/ltfb_comm.hpp"
#include "core/population.hpp"
#include "core/population_checkpoint.hpp"
#include "core/scheduler.hpp"
#include "jag/jag_model.hpp"
#include "tensor/simd.hpp"

namespace {

using namespace ltfb;
using namespace ltfb::core;

// ---- digest ----------------------------------------------------------------------------

class Fnv1a {
 public:
  void u64(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= kPrime;
    }
  }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void floats(const std::vector<float>& values) {
    u64(values.size());
    for (const float v : values) u64(std::bit_cast<std::uint32_t>(v));
  }
  void ints(const std::vector<int>& values) {
    u64(values.size());
    for (const int v : values) i64(v);
  }
  void history(const std::vector<RoundRecord>& history) {
    u64(history.size());
    for (const RoundRecord& record : history) {
      u64(record.round);
      u64(record.stats.size());
      for (const TrainerRoundStat& stat : record.stats) {
        i64(stat.trainer_id);
        i64(stat.partner_id);
        f64(stat.own_score);
        f64(stat.partner_score);
        u64(stat.adopted_partner ? 1 : 0);
        u64(stat.partner_failed ? 1 : 0);
      }
      ints(record.joined);
      ints(record.left);
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Digests recorded from the reference implementation (GCC), per SIMD
/// configuration.
struct Pinned {
  const char* name;
  std::uint64_t scalar;  // LTFB_SIMD=scalar, any build type; unoptimized avx2
  std::uint64_t avx2;    // LTFB_SIMD=avx2, optimized (mul_add fused)
};

constexpr Pinned kPinned[] = {
    {"local_generator_only", 0x0133350b8ce4b597, 0xddff9d5a07d2c771},
    {"local_full_model", 0xeef231cff4f78b0b, 0x1dfd8217b61ab93b},
    // Equal to local_generator_only: evaluate_gan does not average
    // EvalMetrics::generator_adversarial, so the adversarial charge is
    // always zero (ROADMAP open item). Fixing that re-records this row.
    {"local_adversarial_metric", 0x0133350b8ce4b597, 0xddff9d5a07d2c771},
    {"local_lr_perturbation", 0x367615e3571a367b, 0x7c1cf9ced5dafb04},
    {"k_independent", 0xec8495c9022325eb, 0x9570304c9d2d9c58},
    {"classic", 0xcd70144fa0e0c174, 0x6a44a3c246432ef0},
    {"distributed_4x1", 0x1bb3474eb9596ac8, 0xe5d4d87678ba7d0c},
    {"distributed_2x2", 0x9e20a988bcfed9ad, 0xed9186b6ae07ff98},
    {"elastic_churn", 0x85a967b92cc6d848, 0x3b4af9af95491c1a},
};

/// Whether this build's vf::mul_add rounds once (fused multiply-add).
/// Probed on operands where the two roundings differ: a*a is exactly
/// 1 + 2^-11 + 2^-24, whose last term is lost when the product is rounded
/// before the add. The volatile keeps the probe out of constant folding.
bool mul_add_fused() {
  using tensor::simd::vf;
  volatile float eps = 0x1p-12f;
  const vf a = vf::broadcast(1.0f + eps);
  return vf::broadcast(-(1.0f + 2.0f * eps)).mul_add(a, a).lane(0) != 0.0f;
}

/// The digests were recorded from GCC builds; other compilers contract
/// floating-point expressions under different rules.
#if defined(__GNUC__) && !defined(__clang__)
constexpr bool kRecordedCompiler = true;
#else
constexpr bool kRecordedCompiler = false;
#endif

void expect_pinned(const std::string& name, std::uint64_t actual) {
  constexpr std::size_t width = tensor::simd::kNativeWidth;
  const bool fused = mul_add_fused();
  if (!kRecordedCompiler) {
    GTEST_SKIP() << "digests are recorded for GCC builds only";
  }
  if (width != 1 && width != 8) {
    GTEST_SKIP() << "no digests recorded for SIMD width " << width;
  }
  for (const Pinned& pinned : kPinned) {
    if (name != pinned.name) continue;
    const std::uint64_t expected = fused ? pinned.avx2 : pinned.scalar;
    EXPECT_EQ(actual, expected)
        << name << " at SIMD width " << width << (fused ? " (fused)" : "")
        << ": digest 0x" << std::hex << actual << ", pinned 0x" << expected;
    return;
  }
  FAIL() << "no pinned digest named " << name;
}

// ---- fixtures --------------------------------------------------------------------------

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

PopulationConfig population_config(float lr_spread = 0.0f) {
  PopulationConfig config;
  config.num_trainers = 4;
  config.batch_size = 16;
  config.model = tiny_config();
  config.seed = 32;
  config.lr_spread = lr_spread;
  return config;
}

LtfbConfig ltfb_config() {
  LtfbConfig ltfb;
  ltfb.steps_per_round = 2;
  ltfb.rounds = 3;
  ltfb.pretrain_steps = 2;
  return ltfb;
}

void digest_trainer(Fnv1a& fnv, const GanTrainer& trainer) {
  fnv.i64(trainer.id());
  fnv.u64(trainer.steps_taken());
  fnv.f64(trainer.model().learning_rate());
  fnv.floats(trainer.model().generator_weights());
  fnv.floats(trainer.model().discriminator_weights());
}

std::uint64_t local_digest(const LtfbConfig& ltfb, float lr_spread = 0.0f) {
  const data::Dataset dataset = tiny_dataset(400, 30);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 31);
  LocalLtfbDriver driver(
      build_population(dataset, splits, population_config(lr_spread)), ltfb);
  driver.run();
  Fnv1a fnv;
  fnv.history(driver.history());
  for (std::size_t t = 0; t < driver.population(); ++t) {
    digest_trainer(fnv, driver.trainer(t));
  }
  return fnv.value();
}

// ---- the local lockstep driver ---------------------------------------------------------

TEST(HistoryDigest, LocalGeneratorOnly) {
  expect_pinned("local_generator_only", local_digest(ltfb_config()));
}

TEST(HistoryDigest, LocalFullModel) {
  LtfbConfig ltfb = ltfb_config();
  ltfb.scope = ExchangeScope::FullModel;
  expect_pinned("local_full_model", local_digest(ltfb));
}

TEST(HistoryDigest, LocalAdversarialMetric) {
  LtfbConfig ltfb = ltfb_config();
  ltfb.metric = TournamentMetric::ForwardInverseAdversarial;
  expect_pinned("local_adversarial_metric", local_digest(ltfb));
}

TEST(HistoryDigest, LocalLrPerturbation) {
  LtfbConfig ltfb = ltfb_config();
  ltfb.lr_perturbation = 0.2f;
  expect_pinned("local_lr_perturbation",
                local_digest(ltfb, /*lr_spread=*/0.5f));
}

// ---- the K-independent baseline --------------------------------------------------------

TEST(HistoryDigest, KIndependentBaseline) {
  const data::Dataset dataset = tiny_dataset(400, 30);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 31);
  const LtfbConfig ltfb = ltfb_config();
  // No driver: the same reader and optimizer sequence as an LTFB run with
  // the tournaments left out.
  auto trainers = build_population(dataset, splits, population_config());
  Fnv1a fnv;
  for (auto& trainer : trainers) {
    trainer->pretrain_autoencoder(ltfb.pretrain_steps);
    trainer->train_steps(ltfb.rounds * ltfb.steps_per_round);
    digest_trainer(fnv, *trainer);
  }
  expect_pinned("k_independent", fnv.value());
}

// ---- classic (non-GAN) LTFB ------------------------------------------------------------

TEST(HistoryDigest, ClassicDriver) {
  jag::JagConfig jag_config;
  jag_config.image_size = 4;
  jag_config.num_channels = 1;
  const jag::JagModel model(jag_config);
  data::Dataset dataset = data::generate_jag_dataset(model, 300, 501);
  data::normalize_dataset(dataset, data::fit_normalizers(dataset));
  const auto splits = data::split_dataset(dataset.size(), 0.6, 0.2, 502);
  const SupervisedData holdout = make_ignition_task(dataset, splits.tournament);
  std::vector<SupervisedData> silos;
  for (std::size_t i = 0; i < 3; ++i) {
    silos.push_back(make_ignition_task(
        dataset, data::partition_indices(splits.train, 3, i)));
  }
  ClassicModelConfig model_config;
  model_config.input_width = holdout.features.cols();
  model_config.hidden = {24, 12};
  model_config.learning_rate = 3e-3f;
  std::vector<std::unique_ptr<ClassicTrainer>> trainers;
  for (std::size_t i = 0; i < silos.size(); ++i) {
    trainers.push_back(std::make_unique<ClassicTrainer>(
        static_cast<int>(i), model_config, &silos[i], &holdout, 16, 505 + i));
  }
  ClassicLtfbConfig config;
  config.steps_per_round = 5;
  config.rounds = 4;
  ClassicLtfbDriver driver(std::move(trainers), config);
  driver.run();
  Fnv1a fnv;
  fnv.u64(driver.tournaments_played());
  for (std::size_t t = 0; t < driver.population(); ++t) {
    fnv.u64(driver.trainer(t).steps_taken());
    fnv.floats(driver.trainer(t).model().flatten_weights());
  }
  expect_pinned("classic", fnv.value());
}

// ---- rank-parallel LTFB ----------------------------------------------------------------

std::uint64_t distributed_digest(int world_size, int ranks_per_trainer,
                                 const std::string& label) {
  const data::Dataset dataset = tiny_dataset(240, 95);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 96);
  const auto dir =
      std::filesystem::temp_directory_path() / ("ltfb_digest_" + label);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  DistributedLtfbConfig config;
  config.ranks_per_trainer = ranks_per_trainer;
  config.batch_size = 8;
  config.ltfb.steps_per_round = 2;
  config.ltfb.rounds = 3;
  config.ltfb.pretrain_steps = 1;
  config.model = tiny_config();
  config.seed = 97;
  // The final slot checkpoint carries each trainer's final weights.
  config.checkpoint_dir = dir.string();
  config.checkpoint_every = config.ltfb.rounds;

  std::mutex mutex;
  std::vector<DistributedLtfbOutcome> outcomes;
  comm::World::run(world_size, [&](comm::Communicator& world) {
    auto outcome = run_distributed_ltfb(world, dataset, splits, config);
    const std::scoped_lock lock(mutex);
    outcomes.push_back(std::move(outcome));
  });
  std::sort(outcomes.begin(), outcomes.end(), [](const auto& a, const auto& b) {
    return std::pair(a.trainer_id, a.trainer_rank) <
           std::pair(b.trainer_id, b.trainer_rank);
  });

  Fnv1a fnv;
  for (const DistributedLtfbOutcome& outcome : outcomes) {
    fnv.i64(outcome.trainer_id);
    fnv.i64(outcome.trainer_rank);
    fnv.u64(outcome.tournaments_won);
    fnv.u64(outcome.adoptions);
    fnv.u64(outcome.partner_failures);
    fnv.u64(outcome.aborted ? 1 : 0);
    fnv.f64(outcome.final_tournament_score);
    fnv.f64(outcome.final_validation_loss);
    fnv.history(outcome.history);
  }
  for (int t = 0; t < world_size / ranks_per_trainer; ++t) {
    const PopulationCheckpoint ckpt = load_population_checkpoint(
        dir / ("trainer_" + std::to_string(t) + ".pop"));
    for (const TrainerSlot& slot : ckpt.trainers) {
      fnv.u64(slot.trainer.steps);
      fnv.floats(slot.trainer.generator);
      fnv.floats(slot.trainer.discriminator);
    }
  }
  std::filesystem::remove_all(dir);
  return fnv.value();
}

TEST(HistoryDigest, DistributedFourSingleRankTrainers) {
  expect_pinned("distributed_4x1", distributed_digest(4, 1, "4x1"));
}

TEST(HistoryDigest, DistributedTwoByTwo) {
  expect_pinned("distributed_2x2", distributed_digest(4, 2, "2x2"));
}

// ---- elastic LTFB under churn ----------------------------------------------------------

TEST(HistoryDigest, ElasticJoinLeaveMigrate) {
  const data::Dataset dataset = tiny_dataset(200, 41);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 42);
  ElasticLtfbConfig config;
  config.batch_size = 16;
  config.ltfb.steps_per_round = 2;
  config.ltfb.rounds = 6;
  config.ltfb.pretrain_steps = 2;
  config.model = tiny_config();
  config.seed = 77;
  config.initial_trainers = 3;
  config.max_trainers = 4;
  config.comm_timeout = std::chrono::milliseconds(30'000);
  config.churn = comm::FaultSchedule::parse("join:3@2;leave:1@4;migrate:0@5:1");
  config.churn_from_env = false;

  std::mutex mutex;
  ElasticLtfbOutcome scheduler;
  comm::World::run(4, [&](comm::Communicator& world) {
    auto outcome = run_elastic_ltfb(world, dataset, splits, config);
    EXPECT_FALSE(outcome.aborted) << "rank " << outcome.rank;
    if (outcome.scheduler) {
      const std::scoped_lock lock(mutex);
      scheduler = std::move(outcome);
    }
  });

  Fnv1a fnv;
  fnv.history(scheduler.history);
  for (const ElasticTrainerResult& result : scheduler.results) {
    fnv.i64(result.trainer_id);
    fnv.i64(result.host_rank);
    fnv.u64(result.steps);
    fnv.u64(result.tournaments_won);
    fnv.u64(result.adoptions);
    fnv.f64(result.final_tournament_score);
    fnv.f64(result.final_validation_loss);
  }
  fnv.u64(scheduler.joins);
  fnv.u64(scheduler.leaves);
  fnv.u64(scheduler.migrations);
  expect_pinned("elastic_churn", fnv.value());
}

}  // namespace
