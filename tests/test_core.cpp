// Tests for the LTFB core: tournament pairing, the shared duel, the
// lockstep driver's adoption semantics, the K-independent baseline, and the
// paper's headline algorithmic property (LTFB >= K-independent at equal
// budgets).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "core/ltfb.hpp"
#include "core/population.hpp"

namespace {

using namespace ltfb;
using namespace ltfb::core;

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

// ---- pairing -------------------------------------------------------------------

TEST(Pairing, CoversAllTrainersWhenEven) {
  const auto pairs = tournament_pairs(8, 1, 0);
  EXPECT_EQ(pairs.size(), 4u);
  std::set<int> seen;
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(a, b);
    EXPECT_TRUE(seen.insert(a).second);
    EXPECT_TRUE(seen.insert(b).second);
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Pairing, OddTrainerSitsOut) {
  const auto pairs = tournament_pairs(5, 1, 0);
  EXPECT_EQ(pairs.size(), 2u);
}

TEST(Pairing, DeterministicPerRound) {
  EXPECT_EQ(tournament_pairs(6, 2, 3), tournament_pairs(6, 2, 3));
}

TEST(Pairing, VariesAcrossRounds) {
  // Over several rounds the pairings must not be constant.
  bool differs = false;
  const auto first = tournament_pairs(8, 2, 0);
  for (std::size_t round = 1; round < 5; ++round) {
    if (tournament_pairs(8, 2, round) != first) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Pairing, SingleTrainerHasNoPairs) {
  EXPECT_TRUE(tournament_pairs(1, 1, 0).empty());
}

// ---- population builder ----------------------------------------------------------

TEST(Population, BuildsDisjointPartitions) {
  const data::Dataset dataset = tiny_dataset(300, 20);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 21);
  PopulationConfig config;
  config.num_trainers = 3;
  config.batch_size = 16;
  config.model = tiny_config();
  config.seed = 22;
  const auto trainers = build_population(dataset, splits, config);
  ASSERT_EQ(trainers.size(), 3u);
  // Models differ (independent seeds); partition sizes are balanced.
  EXPECT_NE(trainers[0]->model().generator_weights(),
            trainers[1]->model().generator_weights());
  for (const auto& trainer : trainers) {
    EXPECT_GE(trainer->partition_size(), 64u);
    EXPECT_FALSE(trainer->tournament_view().empty());
  }
}

// ---- GanTrainer -----------------------------------------------------------------

TEST(TournamentDuel, LosingPartnerLeavesOwnModelLoaded) {
  const data::Dataset dataset = tiny_dataset(200, 23);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 24);
  PopulationConfig config;
  config.num_trainers = 2;
  config.batch_size = 16;
  config.model = tiny_config();
  config.seed = 25;
  auto trainers = build_population(dataset, splits, config);
  GanTrainer& local = *trainers[0];
  const std::vector<float> own = local.model().generator_weights();
  // A candidate no finite model can lose to: every weight NaN.
  const std::vector<float> candidate(
      own.size(), std::numeric_limits<float>::quiet_NaN());

  TrainerRoundStat stat;
  EXPECT_FALSE(gan_duel(local, LtfbConfig{}, own, candidate, stat));
  EXPECT_TRUE(std::isfinite(stat.own_score));
  EXPECT_TRUE(std::isnan(stat.partner_score));
  EXPECT_EQ(local.model().generator_weights(), own);
}

TEST(TournamentDuel, AdoptsOnlyFiniteStrictlyBetterScores) {
  // Scripted scores: the first call scores the own model, the second the
  // received one; the load callable records which weights end up loaded.
  auto run = [](double own_score, double partner_score) {
    const std::vector<float> own{1.0f};
    const std::vector<float> received{2.0f};
    std::vector<double> scores{own_score, partner_score};
    std::size_t next = 0;
    float loaded = own.front();
    TrainerRoundStat stat;
    const bool adopted = duel(
        [&] { return scores[next++]; },
        [&](std::span<const float> w) { loaded = w.front(); }, own, received,
        stat);
    EXPECT_EQ(adopted, stat.adopted_partner);
    EXPECT_EQ(loaded, adopted ? received.front() : own.front());
    return adopted;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(run(2.0, 1.0));
  EXPECT_FALSE(run(1.0, 2.0));
  EXPECT_FALSE(run(1.0, 1.0));  // ties keep the own model
  EXPECT_TRUE(run(nan, 1.0));   // a non-finite own score always loses
  EXPECT_TRUE(run(inf, 1.0));
  EXPECT_FALSE(run(1.0, nan));  // a non-finite partner never wins
  EXPECT_FALSE(run(1.0, -inf));
  EXPECT_FALSE(run(nan, nan));
}

TEST(GanTrainer, TrainStepsAdvanceCounter) {
  const data::Dataset dataset = tiny_dataset(100, 26);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 27);
  PopulationConfig config;
  config.num_trainers = 1;
  config.batch_size = 8;
  config.model = tiny_config();
  auto trainers = build_population(dataset, splits, config);
  trainers[0]->train_steps(5);
  EXPECT_EQ(trainers[0]->steps_taken(), 5u);
}

// ---- LocalLtfbDriver ----------------------------------------------------------------

struct DriverFixture {
  data::Dataset dataset = tiny_dataset(400, 30);
  data::SplitIndices splits =
      data::split_dataset(dataset.size(), 0.7, 0.15, 31);

  LocalLtfbDriver make_driver(std::size_t trainers, LtfbConfig ltfb) {
    PopulationConfig config;
    config.num_trainers = trainers;
    config.batch_size = 16;
    config.model = tiny_config();
    config.seed = 32;
    return LocalLtfbDriver(build_population(dataset, splits, config), ltfb);
  }
};

TEST(LocalDriver, RoundRecordsPairings) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 3;
  ltfb.rounds = 2;
  ltfb.pretrain_steps = 2;
  LocalLtfbDriver driver = fx.make_driver(4, ltfb);
  driver.pretrain();
  const RoundRecord& record = driver.run_round();
  EXPECT_EQ(record.round, 0u);
  ASSERT_EQ(record.stats.size(), 4u);
  int paired = 0;
  for (const auto& stat : record.stats) {
    if (stat.partner_id >= 0) {
      ++paired;
      EXPECT_TRUE(std::isfinite(stat.own_score));
      EXPECT_TRUE(std::isfinite(stat.partner_score));
      // Adoption must be consistent with the scores.
      EXPECT_EQ(stat.adopted_partner,
                stat.partner_score < stat.own_score);
    }
  }
  EXPECT_EQ(paired, 4);
}

TEST(LocalDriver, RoundRecordsCarryTimingColumns) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 3;
  ltfb.rounds = 1;
  LtfbConfig config = ltfb;
  LocalLtfbDriver driver = fx.make_driver(2, config);
  const RoundRecord& record = driver.run_round();
  // Wall clock covers train + tournament, so it is strictly positive and
  // at least the straggler gap (gap = slowest - fastest train time, both
  // inside the same round).
  EXPECT_GT(record.wall_s, 0.0);
  EXPECT_GE(record.max_rank_gap_s, 0.0);
  EXPECT_LE(record.max_rank_gap_s, record.wall_s);

  const std::string path =
      (std::filesystem::temp_directory_path() / "ltfb_core_timing.csv")
          .string();
  ASSERT_TRUE(export_history_csv(driver.history(), path));
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("round_wall_s"), std::string::npos);
  EXPECT_NE(header.find("max_rank_gap_s"), std::string::npos);
  std::string row;
  std::getline(in, row);
  // The timing columns repeat per stat row of the round — both present.
  EXPECT_EQ(std::count(row.begin(), row.end(), ','), 9);
}

TEST(LocalDriver, AdoptionCopiesBetterGenerator) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 2;
  ltfb.rounds = 1;
  LocalLtfbDriver driver = fx.make_driver(2, ltfb);
  const RoundRecord& record = driver.run_round();
  const auto& s0 = record.stats[0];
  const auto& s1 = record.stats[1];
  const auto w0 = driver.trainer(0).model().generator_weights();
  const auto w1 = driver.trainer(1).model().generator_weights();
  if (s0.adopted_partner != s1.adopted_partner) {
    // Exactly one side adopted: both now hold the same generator.
    EXPECT_EQ(w0, w1);
  } else if (!s0.adopted_partner) {
    // Both kept their own: generators stay distinct.
    EXPECT_NE(w0, w1);
  }
  // Both adopting (a swap) is legitimate: each local tournament set can
  // prefer the other's model; no equality constraint then.
}

TEST(LocalDriver, FullModelExchangeMovesDiscriminator) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 2;
  ltfb.rounds = 1;
  ltfb.scope = ExchangeScope::FullModel;
  LocalLtfbDriver driver = fx.make_driver(2, ltfb);
  driver.run_round();
  const auto& record = driver.history().back();
  if (record.stats[0].adopted_partner != record.stats[1].adopted_partner) {
    EXPECT_EQ(driver.trainer(0).model().discriminator_weights(),
              driver.trainer(1).model().discriminator_weights());
  }
}

TEST(LocalDriver, GeneratorOnlyExchangeKeepsDiscriminatorsDistinct) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 2;
  ltfb.rounds = 3;
  LocalLtfbDriver driver = fx.make_driver(2, ltfb);
  driver.run();
  // Discriminators were seeded differently and never exchanged.
  EXPECT_NE(driver.trainer(0).model().discriminator_weights(),
            driver.trainer(1).model().discriminator_weights());
}

TEST(LocalDriver, HistoryAccumulates) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 2;
  ltfb.rounds = 3;
  LocalLtfbDriver driver = fx.make_driver(3, ltfb);
  driver.run();
  EXPECT_EQ(driver.history().size(), 3u);
  EXPECT_EQ(driver.history()[2].round, 2u);
}

TEST(LocalDriver, BestTrainerIndexValid) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 2;
  ltfb.rounds = 1;
  LocalLtfbDriver driver = fx.make_driver(3, ltfb);
  driver.run();
  const std::size_t best = driver.best_trainer(fx.splits.validation, 16);
  EXPECT_LT(best, 3u);
}

TEST(LocalDriver, NonFiniteModelIsNeverAdoptedAndIsReplaced) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 0;  // tournaments only: keep the poison in place
  ltfb.rounds = 3;
  LocalLtfbDriver driver = fx.make_driver(4, ltfb);
  const int poisoned = 2;
  GanTrainer& victim = driver.trainer(poisoned);
  victim.model().load_generator_weights(
      std::vector<float>(victim.model().generator_parameter_count(),
                         std::numeric_limits<float>::quiet_NaN()));
  driver.run();

  bool replaced = false;
  for (const RoundRecord& record : driver.history()) {
    for (const TrainerRoundStat& stat : record.stats) {
      if (stat.adopted_partner) {
        EXPECT_TRUE(std::isfinite(stat.partner_score))
            << "trainer " << stat.trainer_id << " adopted a non-finite model";
      }
      if (stat.trainer_id == poisoned && stat.partner_id >= 0 && !replaced) {
        EXPECT_TRUE(std::isnan(stat.own_score));
        EXPECT_TRUE(stat.adopted_partner);
        replaced = true;
      }
    }
  }
  EXPECT_TRUE(replaced);
  for (std::size_t t = 0; t < driver.population(); ++t) {
    for (const float w : driver.trainer(t).model().generator_weights()) {
      ASSERT_TRUE(std::isfinite(w)) << "trainer " << t;
    }
  }
}

TEST(LocalDriver, EmptyPopulationThrows) {
  EXPECT_THROW(LocalLtfbDriver({}, LtfbConfig{}), InvalidArgument);
}

// ---- K-independent baseline -----------------------------------------------------------

/// The Sec. IV-E baseline needs no driver: each trainer pretrains, then
/// takes every step of the LTFB budget on its own shard.
void train_independently(std::vector<std::unique_ptr<GanTrainer>>& trainers,
                         const LtfbConfig& ltfb) {
  for (auto& trainer : trainers) {
    trainer->pretrain_autoencoder(ltfb.pretrain_steps);
    trainer->train_steps(ltfb.rounds * ltfb.steps_per_round);
  }
}

TEST(KIndependent, RunsWithoutExchange) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 2;
  ltfb.rounds = 2;
  PopulationConfig config;
  config.num_trainers = 2;
  config.batch_size = 16;
  config.model = tiny_config();
  config.seed = 40;
  auto trainers = build_population(fx.dataset, fx.splits, config);
  train_independently(trainers, ltfb);
  EXPECT_EQ(trainers[0]->steps_taken(), 4u);
  // No exchange ever happens: generators stay distinct.
  EXPECT_NE(trainers[0]->model().generator_weights(),
            trainers[1]->model().generator_weights());
  const std::size_t best = best_trainer(trainers, fx.splits.validation, 16);
  EXPECT_LT(best, 2u);
}

// ---- the headline algorithmic property -------------------------------------------------

TEST(LtfbVsKIndependent, LtfbAtLeastAsGoodAtEqualBudget) {
  // Small-scale version of the paper's Sec. IV-E claim: with the same
  // per-trainer step budget and the same partitions, LTFB's best model
  // generalizes at least as well as the best of K independent trainers
  // (allowing a small tolerance at this tiny scale).
  const data::Dataset dataset = tiny_dataset(600, 50);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 51);

  PopulationConfig config;
  config.num_trainers = 4;
  config.batch_size = 16;
  config.model = tiny_config();
  config.seed = 52;

  LtfbConfig ltfb;
  ltfb.steps_per_round = 15;
  ltfb.rounds = 6;
  ltfb.pretrain_steps = 20;

  LocalLtfbDriver ltfb_driver(build_population(dataset, splits, config),
                              ltfb);
  ltfb_driver.run();
  const std::size_t ltfb_best =
      ltfb_driver.best_trainer(splits.validation, 16);
  const double ltfb_loss =
      evaluate_gan(ltfb_driver.trainer(ltfb_best).model(), dataset,
                   splits.validation, 16)
          .total();

  auto independent = build_population(dataset, splits, config);
  train_independently(independent, ltfb);
  const std::size_t kind_best =
      best_trainer(independent, splits.validation, 16);
  const double kind_loss = evaluate_gan(independent[kind_best]->model(),
                                        dataset, splits.validation, 16)
                               .total();

  EXPECT_LT(ltfb_loss, kind_loss * 1.10);
}

}  // namespace
