// Tests for the extension features: the classic (non-GAN) LTFB path with
// softmax classification, weight checkpointing, and the data store's
// nonblocking background-thread prefetch.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <set>

#include "comm/communicator.hpp"
#include "core/classic_trainer.hpp"
#include "core/ltfb.hpp"
#include "core/population.hpp"
#include "data/dataset.hpp"
#include "datastore/data_store.hpp"
#include "gan/cyclegan.hpp"
#include "nn/checkpoint.hpp"

namespace {

using namespace ltfb;
using namespace ltfb::core;

// ---- softmax cross-entropy --------------------------------------------------

TEST(SoftmaxCe, UniformLogitsGiveLogClasses) {
  tensor::Tensor logits(2, 4);  // all zeros
  const std::vector<int> labels{0, 3};
  EXPECT_NEAR(nn::softmax_cross_entropy(logits, labels, nullptr),
              std::log(4.0), 1e-9);
}

TEST(SoftmaxCe, ConfidentCorrectIsNearZero) {
  tensor::Tensor logits({1, 3}, {20.0f, 0.0f, 0.0f});
  const std::vector<int> labels{0};
  EXPECT_NEAR(nn::softmax_cross_entropy(logits, labels, nullptr), 0.0, 1e-6);
}

TEST(SoftmaxCe, GradientSumsToZeroPerRow) {
  util::Rng rng(3);
  tensor::Tensor logits(4, 5);
  for (auto& v : logits.data()) v = static_cast<float>(rng.uniform(-2, 2));
  const std::vector<int> labels{0, 1, 2, 3};
  tensor::Tensor grad;
  nn::softmax_cross_entropy(logits, labels, &grad);
  for (std::size_t r = 0; r < 4; ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < 5; ++c) row_sum += grad.at(r, c);
    EXPECT_NEAR(row_sum, 0.0, 1e-6);
  }
}

TEST(SoftmaxCe, FiniteDifferenceGradient) {
  util::Rng rng(4);
  tensor::Tensor logits(3, 4);
  for (auto& v : logits.data()) v = static_cast<float>(rng.uniform(-1, 1));
  const std::vector<int> labels{1, 0, 3};
  tensor::Tensor grad;
  nn::softmax_cross_entropy(logits, labels, &grad);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float saved = logits[i];
    logits[i] = saved + eps;
    const double up = nn::softmax_cross_entropy(logits, labels, nullptr);
    logits[i] = saved - eps;
    const double down = nn::softmax_cross_entropy(logits, labels, nullptr);
    logits[i] = saved;
    EXPECT_NEAR(grad[i], (up - down) / (2.0 * eps), 1e-3);
  }
}

TEST(SoftmaxCe, StableAtExtremeLogits) {
  tensor::Tensor logits({1, 3}, {1000.0f, -1000.0f, 0.0f});
  const std::vector<int> labels{0};
  const double loss = nn::softmax_cross_entropy(logits, labels, nullptr);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-6);
}

TEST(SoftmaxCe, OutOfRangeLabelThrows) {
  tensor::Tensor logits(1, 3);
  EXPECT_THROW(
      nn::softmax_cross_entropy(logits, std::vector<int>{3}, nullptr),
      InvalidArgument);
}

TEST(Accuracy, CountsArgmaxMatches) {
  tensor::Tensor logits({2, 3}, {3, 1, 2, 0, 5, 1});
  EXPECT_DOUBLE_EQ(
      nn::classification_accuracy(logits, std::vector<int>{0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(
      nn::classification_accuracy(logits, std::vector<int>{1, 1}), 0.5);
}

// ---- classic LTFB -------------------------------------------------------------

struct ClassicFixture {
  data::Dataset dataset;
  data::SplitIndices splits;
  SupervisedData train, holdout, validation;

  ClassicFixture() {
    jag::JagConfig config;
    config.image_size = 4;
    config.num_channels = 1;
    const jag::JagModel model(config);
    dataset = data::generate_jag_dataset(model, 600, 501);
    const auto norms = data::fit_normalizers(dataset);
    data::normalize_dataset(dataset, norms);
    splits = data::split_dataset(dataset.size(), 0.6, 0.2, 502);
    train = make_ignition_task(dataset, splits.train);
    holdout = make_ignition_task(dataset, splits.tournament);
    validation = make_ignition_task(dataset, splits.validation);
  }

  ClassicModelConfig model_config() const {
    ClassicModelConfig config;
    config.input_width = train.features.cols();
    config.hidden = {24, 12};
    config.output_width = 3;
    config.learning_rate = 3e-3f;
    return config;
  }
};

TEST(IgnitionTask, LabelsSpanRegimes) {
  ClassicFixture fx;
  std::array<int, 3> counts{0, 0, 0};
  for (const int label : fx.train.labels) {
    ASSERT_GE(label, 0);
    ASSERT_LE(label, 2);
    ++counts[static_cast<std::size_t>(label)];
  }
  // The ignition cliff puts mass in the failed and ignited classes.
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[2], 0);
}

TEST(IgnitionTask, FeatureWidthIsOutputBundle) {
  ClassicFixture fx;
  EXPECT_EQ(fx.train.features.cols(), fx.dataset.schema().output_width());
  EXPECT_EQ(fx.train.size(), fx.splits.train.size());
}

TEST(ClassicTrainer, LearnsIgnitionRegime) {
  ClassicFixture fx;
  ClassicTrainer trainer(0, fx.model_config(), &fx.train, &fx.holdout, 32,
                         503);
  const double before = trainer.accuracy(fx.validation);
  trainer.train_steps(300);
  const double after = trainer.accuracy(fx.validation);
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.7);  // three-class task; chance ~ majority class
  EXPECT_EQ(trainer.steps_taken(), 300u);
}

TEST(ClassicTrainer, RegressionTaskSupported) {
  ClassicFixture fx;
  // Regress the (normalized) scalar outputs from themselves via a
  // bottleneck — loss must fall.
  SupervisedData regression;
  regression.features = fx.train.features;
  regression.targets = fx.train.features;
  ClassicModelConfig config = fx.model_config();
  config.task = ClassicTask::Regression;
  config.output_width = regression.features.cols();
  ClassicTrainer trainer(0, config, &regression, &regression, 32, 504);
  const double before = trainer.loss_on(regression);
  trainer.train_steps(200);
  EXPECT_LT(trainer.loss_on(regression), before);
}

TEST(ClassicLtfb, RunsAndImproves) {
  ClassicFixture fx;
  std::vector<std::unique_ptr<ClassicTrainer>> trainers;
  // Partition the training set into 3 silos.
  std::vector<SupervisedData> silos;
  std::vector<std::size_t> all(fx.splits.train.size());
  std::iota(all.begin(), all.end(), 0);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto part = data::partition_indices(fx.splits.train, 3, i);
    silos.push_back(make_ignition_task(fx.dataset, part));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    trainers.push_back(std::make_unique<ClassicTrainer>(
        static_cast<int>(i), fx.model_config(), &silos[i], &fx.holdout, 16,
        505 + i));
  }
  ClassicLtfbConfig config;
  config.steps_per_round = 30;
  config.rounds = 6;
  ClassicLtfbDriver driver(std::move(trainers), config);

  const double before = driver.trainer(0).accuracy(fx.validation);
  driver.run();
  EXPECT_GT(driver.tournaments_played(), 0u);
  const std::size_t best = driver.best_trainer(fx.validation);
  const double after = driver.trainer(best).accuracy(fx.validation);
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.7);
}

TEST(ClassicLtfb, FullModelExchangeSemantics) {
  // After a duel where one side adopts, the two models are identical.
  ClassicFixture fx;
  std::vector<std::unique_ptr<ClassicTrainer>> trainers;
  for (std::size_t i = 0; i < 2; ++i) {
    trainers.push_back(std::make_unique<ClassicTrainer>(
        static_cast<int>(i), fx.model_config(), &fx.train, &fx.holdout, 16,
        600 + i));
  }
  ClassicLtfbConfig config;
  config.steps_per_round = 5;
  config.rounds = 1;
  ClassicLtfbDriver driver(std::move(trainers), config);
  driver.run_round();
  // Same hold-out on both sides -> the duel has one winner; both trainers
  // end up with that winner's weights.
  EXPECT_EQ(driver.trainer(0).model().flatten_weights(),
            driver.trainer(1).model().flatten_weights());
}

TEST(ClassicLtfb, NonFiniteModelIsNeverAdoptedAndIsReplaced) {
  ClassicFixture fx;
  std::vector<std::unique_ptr<ClassicTrainer>> trainers;
  for (std::size_t i = 0; i < 2; ++i) {
    trainers.push_back(std::make_unique<ClassicTrainer>(
        static_cast<int>(i), fx.model_config(), &fx.train, &fx.holdout, 16,
        610 + i));
  }
  // Trainer 0 diverged: every weight NaN, so its hold-out loss is NaN.
  nn::Model& victim = trainers[0]->model();
  victim.load_flat_weights(
      std::vector<float>(victim.flatten_weights().size(),
                         std::numeric_limits<float>::quiet_NaN()));
  const std::vector<float> healthy = trainers[1]->model().flatten_weights();
  ClassicLtfbConfig config;
  config.steps_per_round = 0;  // tournaments only
  config.rounds = 2;
  ClassicLtfbDriver driver(std::move(trainers), config);
  driver.run();
  // The healthy trainer never adopts the poisoned model, and the poisoned
  // one is replaced by its finite partner.
  EXPECT_EQ(driver.trainer(1).model().flatten_weights(), healthy);
  EXPECT_EQ(driver.trainer(0).model().flatten_weights(), healthy);
}

// ---- checkpointing -------------------------------------------------------------

TEST(Checkpoint, WeightsRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "ltfb_ckpt.bin";
  const std::vector<float> weights{1.5f, -2.25f, 3.75f};
  nn::save_weights(path, "my-model", weights);
  std::string name;
  EXPECT_EQ(nn::load_weights(path, &name), weights);
  EXPECT_EQ(name, "my-model");
}

TEST(Checkpoint, ModelRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "ltfb_ckpt_model.bin";
  nn::Model a("net", 7);
  const auto in = a.add_input(4);
  a.add_dense(in, 8, nn::ActivationKind::Tanh);
  nn::save_model(path, a);

  nn::Model b("net", 8);  // different seed -> different weights
  const auto in_b = b.add_input(4);
  b.add_dense(in_b, 8, nn::ActivationKind::Tanh);
  ASSERT_NE(a.flatten_weights(), b.flatten_weights());
  nn::load_model(path, b);
  EXPECT_EQ(a.flatten_weights(), b.flatten_weights());
}

TEST(Checkpoint, SizeMismatchThrows) {
  const auto path =
      std::filesystem::temp_directory_path() / "ltfb_ckpt_bad.bin";
  nn::save_weights(path, "tiny", std::vector<float>{1.0f});
  nn::Model model("net", 9);
  const auto in = model.add_input(2);
  model.add_linear(in, 2);
  EXPECT_THROW(nn::load_model(path, model), InvalidArgument);
}

TEST(Checkpoint, GarbageFileRejected) {
  const auto path =
      std::filesystem::temp_directory_path() / "ltfb_ckpt_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint";
  }
  EXPECT_THROW(nn::load_weights(path), FormatError);
}

TEST(Checkpoint, MissingFileRejected) {
  EXPECT_THROW(nn::load_weights("/nonexistent/ckpt.bin"), FormatError);
}

TEST(Checkpoint, CycleGanRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "ltfb_ckpt_gan.bin";
  gan::CycleGanConfig config;
  config.image_width = 12;
  config.latent_width = 4;
  config.encoder_hidden = {8};
  config.decoder_hidden = {8};
  config.forward_hidden = {6};
  config.inverse_hidden = {4};
  config.discriminator_hidden = {4};
  gan::CycleGan a(config, 11);
  gan::CycleGan b(config, 12);
  a.save_checkpoint(path);
  b.load_checkpoint(path);
  EXPECT_EQ(a.generator_weights(), b.generator_weights());
  EXPECT_EQ(a.discriminator_weights(), b.discriminator_weights());
}

// ---- history export ------------------------------------------------------------------

TEST(HistoryExport, WritesOneRowPerDuelingTrainer) {
  std::vector<RoundRecord> history(2);
  history[0].round = 0;
  history[0].stats = {{0, 1, 0.5, 0.4, true, false},
                      {1, 0, 0.4, 0.5, false, false}};
  history[1].round = 1;
  history[1].stats = {{0, -1, 0.0, 0.0, false, false}};
  const std::string path =
      (std::filesystem::temp_directory_path() / "ltfb_history.csv").string();
  ASSERT_TRUE(export_history_csv(history, path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line,
            "round,event,trainer,partner,own_score,partner_score,adopted,"
            "partner_failed,round_wall_s,max_rank_gap_s");
  std::getline(in, line);
  EXPECT_EQ(line, "0,round,0,1,0.500000,0.400000,1,0,0.000000,0.000000");
  int rows = 1;
  while (std::getline(in, line) && !line.empty()) ++rows;
  EXPECT_EQ(rows, 3);
}

TEST(HistoryExport, ChurnRoundsEmitExplicitEventRows) {
  // A population resize mid-run must surface as `joined`/`left` marker
  // rows, not as silently misaligned per-trainer columns.
  std::vector<RoundRecord> history(2);
  history[0].round = 0;
  history[0].stats = {{0, 1, 0.5, 0.4, true, false},
                      {1, 0, 0.4, 0.5, false, false}};
  history[1].round = 1;
  history[1].joined = {2};
  history[1].left = {1};
  history[1].stats = {{0, 2, 0.3, 0.6, false, false},
                      {2, 0, 0.6, 0.3, true, false}};
  const std::string path =
      (std::filesystem::temp_directory_path() / "ltfb_history_churn.csv")
          .string();
  ASSERT_TRUE(export_history_csv(history, path));
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line) && !line.empty()) lines.push_back(line);
  ASSERT_EQ(lines.size(), 7u);  // header + 2 stats + 2 events + 2 stats
  EXPECT_EQ(lines[3], "1,joined,2,,,,,,,");
  EXPECT_EQ(lines[4], "1,left,1,,,,,,,");
  EXPECT_EQ(lines[5].rfind("1,round,0,2,", 0), 0u);
}

// ---- PBT-style hyperparameter exploration -------------------------------------------

TEST(Pbt, LearningRateSpreadDiversifiesPopulation) {
  jag::JagConfig jag_config;
  jag_config.image_size = 4;
  jag_config.num_channels = 1;
  const jag::JagModel model(jag_config);
  data::Dataset dataset = data::generate_jag_dataset(model, 300, 700);
  const auto norms = data::fit_normalizers(dataset);
  data::normalize_dataset(dataset, norms);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 701);

  PopulationConfig config;
  config.num_trainers = 4;
  config.batch_size = 16;
  config.model.image_width = jag_config.image_features();
  config.model.latent_width = 8;
  config.model.encoder_hidden = {12};
  config.model.decoder_hidden = {12};
  config.model.forward_hidden = {8};
  config.model.inverse_hidden = {6};
  config.model.discriminator_hidden = {6};
  config.lr_spread = 0.5f;
  const auto trainers = build_population(dataset, splits, config);
  std::set<float> rates;
  for (const auto& trainer : trainers) {
    const float lr = trainer->model().learning_rate();
    EXPECT_GT(lr, config.model.learning_rate / 1.6f);
    EXPECT_LT(lr, config.model.learning_rate * 1.6f);
    rates.insert(lr);
  }
  EXPECT_GT(rates.size(), 1u);  // genuinely diverse
}

TEST(Pbt, AdoptionInheritsPerturbedLearningRate) {
  jag::JagConfig jag_config;
  jag_config.image_size = 4;
  jag_config.num_channels = 1;
  const jag::JagModel model(jag_config);
  data::Dataset dataset = data::generate_jag_dataset(model, 300, 702);
  const auto norms = data::fit_normalizers(dataset);
  data::normalize_dataset(dataset, norms);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 703);

  PopulationConfig population;
  population.num_trainers = 2;
  population.batch_size = 16;
  population.model.image_width = jag_config.image_features();
  population.model.latent_width = 8;
  population.model.encoder_hidden = {12};
  population.model.decoder_hidden = {12};
  population.model.forward_hidden = {8};
  population.model.inverse_hidden = {6};
  population.model.discriminator_hidden = {6};
  population.lr_spread = 0.5f;

  LtfbConfig ltfb;
  ltfb.steps_per_round = 3;
  ltfb.rounds = 4;
  ltfb.lr_perturbation = 0.2f;

  LocalLtfbDriver driver(build_population(dataset, splits, population),
                         ltfb);
  const float lr0_before = driver.trainer(0).model().learning_rate();
  const float lr1_before = driver.trainer(1).model().learning_rate();
  driver.run();
  // Some adoption happened across 4 rounds (near-certain with diverse
  // seeds); the adopter's learning rate moved.
  bool any_adoption = false;
  for (const auto& record : driver.history()) {
    for (const auto& stat : record.stats) {
      any_adoption |= stat.adopted_partner;
    }
  }
  if (any_adoption) {
    const bool lr_changed =
        driver.trainer(0).model().learning_rate() != lr0_before ||
        driver.trainer(1).model().learning_rate() != lr1_before;
    EXPECT_TRUE(lr_changed);
  }
}

TEST(Pbt, SetLearningRatePropagatesToOptimizers) {
  gan::CycleGanConfig config;
  config.image_width = 12;
  config.latent_width = 4;
  config.encoder_hidden = {8};
  config.decoder_hidden = {8};
  config.forward_hidden = {6};
  config.inverse_hidden = {4};
  config.discriminator_hidden = {4};
  gan::CycleGan model(config, 30);
  model.set_learning_rate(5e-4f);
  EXPECT_FLOAT_EQ(model.learning_rate(), 5e-4f);
  for (nn::Model* component : model.components()) {
    for (nn::Weights* weights : component->weights()) {
      ASSERT_NE(weights->optimizer(), nullptr);
      EXPECT_FLOAT_EQ(weights->optimizer()->learning_rate(), 5e-4f);
    }
  }
  EXPECT_THROW(model.set_learning_rate(0.0f), InvalidArgument);
}

// ---- prefetch ---------------------------------------------------------------------

TEST(Prefetch, OverlapsAndReturnsSameAsFetch) {
  // Build a small bundle set.
  const auto dir =
      std::filesystem::temp_directory_path() / "ltfb_prefetch_test";
  std::filesystem::remove_all(dir);
  data::SampleSchema schema;
  schema.input_width = 5;
  schema.scalar_width = 15;
  schema.image_width = 4;
  std::vector<data::Sample> samples;
  for (data::SampleId id = 0; id < 24; ++id) {
    data::Sample sample;
    sample.id = id;
    sample.input.assign(5, static_cast<float>(id));
    sample.scalars.assign(15, 1.0f);
    sample.images.assign(4, 2.0f);
    samples.push_back(std::move(sample));
  }
  const auto paths = data::write_bundle_set(dir, schema, samples, 4);
  datastore::BundleCatalog catalog(paths);

  comm::World::run(2, [&](comm::Communicator& comm) {
    datastore::DataStore store(comm, &catalog,
                               datastore::PopulateMode::Preloaded);
    store.preload();
    // Pipeline three "steps": prefetch batch i+1 while "computing" on i.
    std::vector<std::vector<data::SampleId>> wants = {
        {0, 13, 7}, {23, 1, 11}, {5, 18, 2}};
    std::vector<data::Sample> current = store.fetch(wants[0]);
    for (std::size_t step = 1; step < wants.size(); ++step) {
      store.begin_fetch(wants[step]);
      EXPECT_TRUE(store.fetch_in_flight());
      // ... mini-batch compute would happen here ...
      for (std::size_t i = 0; i < current.size(); ++i) {
        EXPECT_EQ(current[i].id, wants[step - 1][i]);
      }
      current = store.collect_fetch();
      EXPECT_FALSE(store.fetch_in_flight());
    }
    for (std::size_t i = 0; i < current.size(); ++i) {
      EXPECT_EQ(current[i].id, wants.back()[i]);
    }
  });
}

TEST(Prefetch, CollectWithoutBeginThrows) {
  const auto dir =
      std::filesystem::temp_directory_path() / "ltfb_prefetch_bad";
  std::filesystem::remove_all(dir);
  data::SampleSchema schema;
  schema.input_width = 1;
  schema.scalar_width = 1;
  schema.image_width = 1;
  std::vector<data::Sample> samples(2);
  samples[0].id = 0;
  samples[1].id = 1;
  for (auto& sample : samples) {
    sample.input.assign(1, 0.0f);
    sample.scalars.assign(1, 0.0f);
    sample.images.assign(1, 0.0f);
  }
  const auto paths = data::write_bundle_set(dir, schema, samples, 1);
  datastore::BundleCatalog catalog(paths);
  comm::World::run(1, [&](comm::Communicator& comm) {
    datastore::DataStore store(comm, &catalog,
                               datastore::PopulateMode::Preloaded);
    store.preload();
    EXPECT_THROW((void)store.collect_fetch(), InvalidArgument);
    store.begin_fetch({0});
    EXPECT_THROW(store.begin_fetch({1}), InvalidArgument);
    (void)store.collect_fetch();
  });
}

}  // namespace
