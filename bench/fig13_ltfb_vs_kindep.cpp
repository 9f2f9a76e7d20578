// Figure 13 reproduction: LTFB vs partitioned K-independent training.
//
// Both sides get identical populations, identical data partitions (1/k of
// the training set each) and identical step budgets; the only difference
// is the tournament. The paper's findings: (a) LTFB consistently achieves
// better validation loss, and (b) the gap WIDENS with k, because each
// independent trainer is marooned on an ever smaller shard while LTFB's
// model exchange effectively composes the shards.
#include <iostream>

#include "core/ltfb.hpp"
#include "bench_telemetry.hpp"
#include "quality_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ltfb;
  bench::BenchTelemetry bench_telemetry("fig13_ltfb_vs_kindep");
  LTFB_SPAN("bench/run");

  // --exchange=full runs the full-model-exchange ablation (discriminators
  // travel too) instead of the paper's generator-only scheme.
  core::ExchangeScope scope = core::ExchangeScope::GeneratorOnly;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--exchange=full") {
      scope = core::ExchangeScope::FullModel;
    }
  }

  telemetry::Stopwatch setup_watch;
  const std::size_t samples = bench::env_size("LTFB_BENCH_SAMPLES", 2400);
  bench::QualitySetup setup(samples, 1301);
  LTFB_TIMER_RECORD("bench/setup", setup_watch.elapsed_seconds());

  const std::size_t steps_per_round =
      bench::env_size("LTFB_BENCH_STEPS", 50);
  const std::size_t rounds = bench::env_size("LTFB_BENCH_ROUNDS", 8);
  const std::vector<std::size_t> trainer_counts{2, 4, 8};

  std::cout << "Figure 13 — LTFB vs partitioned K-independent training\n"
            << "(equal iterations and memory footprint; lower validation "
               "loss is better; exchange scope: "
            << (scope == core::ExchangeScope::GeneratorOnly
                    ? "generator-only"
                    : "full-model")
            << ")\n\n";

  util::TablePrinter table({"k", "LTFB val loss", "K-indep val loss",
                            "LTFB advantage"});
  std::vector<double> advantages;
  for (const std::size_t k : trainer_counts) {
    core::PopulationConfig population;
    population.num_trainers = k;
    population.batch_size = 32;
    population.model = bench::bench_gan_config(setup.jag_config);
    population.seed = 1302;

    core::LtfbConfig config;
    config.steps_per_round = steps_per_round;
    config.rounds = rounds;
    config.pretrain_steps = 100;
    config.scope = scope;

    core::LocalLtfbDriver ltfb_driver(
        core::build_population(setup.dataset, setup.splits, population),
        config);
    ltfb_driver.run();
    const std::size_t ltfb_best =
        ltfb_driver.best_trainer(setup.splits.validation, 32);
    const double ltfb_loss =
        core::evaluate_gan(ltfb_driver.trainer(ltfb_best).model(),
                           setup.dataset, setup.splits.validation, 32)
            .total();

    // K-independent is LTFB without the tournaments: every trainer spends
    // the same pretraining and step budget marooned on its own shard.
    auto independent =
        core::build_population(setup.dataset, setup.splits, population);
    for (auto& trainer : independent) {
      trainer->pretrain_autoencoder(config.pretrain_steps);
      trainer->train_steps(config.rounds * config.steps_per_round);
    }
    const std::size_t kind_best =
        core::best_trainer(independent, setup.splits.validation, 32);
    const double kind_loss =
        core::evaluate_gan(independent[kind_best]->model(), setup.dataset,
                           setup.splits.validation, 32)
            .total();

    const double advantage = kind_loss / ltfb_loss;
    advantages.push_back(advantage);
    table.add_row({std::to_string(k), util::format_double(ltfb_loss, 4),
                   util::format_double(kind_loss, 4),
                   util::format_double(advantage, 3) + "x"});
    std::cout << "  finished k=" << k << "\n";
  }
  std::cout << '\n';
  table.print();

  std::cout << "\npaper vs reproduced:\n";
  util::TablePrinter compare({"metric", "paper", "reproduced"});
  compare.add_row({"LTFB beats K-independent", "yes, at every k (Fig. 13)",
                   advantages.back() > 1.0 ? "yes" : "no"});
  compare.add_row({"gap widens with k", "yes",
                   advantages.back() > advantages.front() ? "yes" : "no"});
  compare.print();

  // Shape checks kept tolerant at this tiny scale: LTFB must win at the
  // largest k, where partition starvation hits the baseline hardest.
  if (advantages.back() < 1.0) {
    std::cerr << "FAIL: K-independent beat LTFB at the largest k\n";
    return 1;
  }
  std::cout << "\nshape check: OK\n";
  return 0;
}
