// LTFB benchmark: end-to-end throughput and round time of real LTFB and
// data-parallel training runs, plus a per-layer breakdown from a traced
// replay (README.md has the metric and workload definitions).
//
//   ltfb_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--workdir DIR] [--result FILE] [--trace-dir DIR]
//              [--source-id ID]
//   ltfb_bench --smoke [--workdir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is 0 only when every correctness gate held.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "data/bundle.hpp"
#include "datastore/bundle_catalog.hpp"
#include "jag/jag_model.hpp"
#include "tensor/gemm.hpp"
#include "tensor/simd.hpp"
#include "util/compute_pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace {

using namespace ltfb;
using namespace ltfb_bench;
namespace fs = std::filesystem;

constexpr std::size_t kBatch = 128;  // global per-trainer mini-batch
constexpr std::size_t kStepsPerRound = 25;
constexpr std::size_t kPretrainSteps = 25;
constexpr std::size_t kBundleFiles = 32;
constexpr std::size_t kValidationSamples = 1024;
/// --seed generates the data (samples, splits, bundle files); model init,
/// batch order and pairing keep this fixed seed. Init dominates the spread
/// of the final loss across seeds (~9% IQR against ~3% from the data), and
/// the data is what a workload's input is.
constexpr std::uint64_t kTrainingSeed = 1;

struct Workload {
  const char* name;
  int trainers;
  int ranks_per_trainer;
  bool spawn;            // one OS process per rank over AF_UNIX sockets
  bool mixed_precision;  // bf16 allreduce wire + loss scaling
  bool checkpoint;       // slot checkpoint after every round
  bool datastore;        // data-parallel trainer fed by the DataStore
  std::size_t samples;
  std::size_t image_size;  // JAG image side; 3 views x 1 channel

  int ranks() const { return trainers * ranks_per_trainer; }
};

// Each workload stresses different layers; README.md says which and why.
constexpr Workload kWorkloads[] = {
    {"single_1x1", 1, 1, false, false, false, false, 8192, 8},
    {"ltfb_pop4", 4, 1, false, false, false, false, 8192, 8},
    {"ltfb_2x2_socket_bf16", 2, 2, true, true, true, false, 8192, 8},
    {"dp4_datastore", 1, 4, false, false, false, true, 32768, 16},
};

/// Run sizes. The full run measures 40-round reps; --smoke shrinks
/// everything so all four workloads and both modes finish in seconds.
struct Sizes {
  std::size_t rounds = 40;
  std::size_t warmup_rounds = 4;
  std::size_t setup_runs = 11;
  /// Timed reps run until --seconds is used up, but never fewer than
  /// this: 3 x 40 rounds keep at least 10 rounds beyond the p90.
  std::size_t min_reps = 3;
  std::size_t probe_reps = 20;
  std::size_t dp_samples = 0;  // 0 keeps the workload's sample count
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  fs::path workdir = "ltfb_bench_work";
  fs::path result_path;
  fs::path trace_dir = ".";
  std::string source_id = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload's verdict: correctness gates, trainer-round accounting and
/// the metrics of the requested mode.
struct Outcome {
  std::vector<std::string> problems;
  std::size_t attempted = 0;  // trainer-rounds
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::size_t reps = 0;
  std::size_t rounds_measured = 0;
  bool trace_valid = true;

  bool correct() const { return problems.empty() && failed == 0; }
};

std::size_t nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Compute threads per process so rank threads x pool ~ cores (capped at
/// the 64 workers util::ComputePool accepts).
std::size_t pool_size(const Workload& w) {
  return std::clamp<std::size_t>(
      nproc() / static_cast<std::size_t>(w.ranks()), 1, 64);
}

// -- statistics ----------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);  // reaped spawned ranks
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// -- environment ---------------------------------------------------------------

/// Every LTFB_* knob is cleared so a run measures only what its workload
/// sets (fault schedules, backends, pool size, telemetry, wire dtype...).
void clear_ltfb_env() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view kv(*entry);
    if (kv.starts_with("LTFB_")) {
      names.emplace_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

// -- inputs --------------------------------------------------------------------

struct Inputs {
  data::Dataset dataset;  // run_distributed_ltfb workloads
  data::SplitIndices splits;
  std::vector<fs::path> bundles;  // data-parallel workload
  data::Dataset validation;
  gan::CycleGanConfig model;
};

/// The quality benches' CycleGAN (~35.6k parameters at 8x8 images).
gan::CycleGanConfig model_config(std::size_t image_width, bool mixed) {
  gan::CycleGanConfig config;
  config.image_width = image_width;
  config.latent_width = 20;
  config.encoder_hidden = {64, 32};
  config.decoder_hidden = {32, 64};
  config.forward_hidden = {32, 32};
  config.inverse_hidden = {24};
  config.discriminator_hidden = {24, 12};
  config.learning_rate = 1e-3f;
  config.mixed_precision = mixed;
  return config;
}

Inputs make_inputs(const Workload& w, std::size_t samples, std::uint64_t seed,
                   const fs::path& workdir) {
  jag::JagConfig jag_config;
  jag_config.image_size = w.image_size;
  jag_config.num_views = 3;
  jag_config.num_channels = 1;
  jag_config.noise_level = 0.01;
  const jag::JagModel jag(jag_config);

  Inputs in;
  in.model = model_config(jag_config.image_features(), w.mixed_precision);
  if (!w.datastore) {
    in.dataset = data::generate_jag_dataset(
        jag, samples, util::derive_seed(seed, "dataset"));
    data::normalize_dataset(in.dataset, data::fit_normalizers(in.dataset));
    in.splits = data::split_dataset(in.dataset.size(), 0.7, 0.15,
                                    util::derive_seed(seed, "split"));
    return in;
  }
  // One file at a time keeps set-up memory at one file's samples; the
  // normalizers come from the first file.
  const fs::path dir = workdir / "bundles";
  fs::create_directories(dir);
  const std::size_t per_file = samples / kBundleFiles;
  data::DatasetNormalizers norms;
  for (std::size_t f = 0; f < kBundleFiles; ++f) {
    data::Dataset part = data::generate_jag_dataset(
        jag, per_file, util::derive_seed(seed, "bundle", f), f * per_file);
    if (f == 0) norms = data::fit_normalizers(part);
    data::normalize_dataset(part, norms);
    const fs::path path = dir / ("bundle_" + std::to_string(f) + ".ltfb");
    data::BundleWriter writer(path, part.schema());
    for (const data::Sample& sample : part.samples()) writer.append(sample);
    writer.close();
    in.bundles.push_back(path);
  }
  in.validation = data::generate_jag_dataset(
      jag, kValidationSamples, util::derive_seed(seed, "validation"),
      per_file * kBundleFiles);
  data::normalize_dataset(in.validation, norms);
  return in;
}

// -- one call of a workload ------------------------------------------------------

struct Run {
  double wall_s = 0.0;    // the whole call, set-up included
  double launch_s = 0.0;  // World::run/spawn_processes until the last rank entered
  int unclean = 0;        // spawned ranks that did not exit kExitClean
  std::vector<RankResult> ranks;  // by world rank
};

Run execute(const Workload& w, const Inputs& in, std::size_t rounds,
            bool traced, const fs::path& workdir) {
  const int n = w.ranks();
  Run run;
  run.ranks.resize(static_cast<std::size_t>(n));

  core::DistributedLtfbConfig config;
  config.ranks_per_trainer = w.ranks_per_trainer;
  config.batch_size = kBatch;
  config.ltfb.steps_per_round = kStepsPerRound;
  config.ltfb.rounds = rounds;
  config.ltfb.pretrain_steps = kPretrainSteps;
  config.model = in.model;
  config.seed = kTrainingSeed;
  if (w.checkpoint) {
    config.checkpoint_dir = (workdir / "checkpoints").string();
    config.checkpoint_every = 1;
    fs::create_directories(config.checkpoint_dir);
  }
  const std::size_t pool = pool_size(w);
  if (w.spawn) {
    // Forked children inherit no worker threads; each sizes its own pool.
    util::ComputePool::instance().resize(1);
  } else {
    util::ComputePool::instance().resize(pool);
  }

  const double t0 = now_s();
  // The catalog scan is set-up work of the data-parallel call.
  std::optional<datastore::BundleCatalog> catalog;
  DataParallelConfig dp;
  if (w.datastore) {
    catalog.emplace(in.bundles);
    dp.catalog = &*catalog;
    dp.validation = &in.validation;
    dp.model = in.model;
    dp.batch_size = kBatch;
    dp.pretrain_steps = kPretrainSteps;
    dp.steps_per_block = kStepsPerRound;
    dp.blocks = rounds;
    dp.seed = kTrainingSeed;
  }
  auto body = [&](comm::Communicator& world) -> RankResult {
    if (w.datastore) return train_data_parallel(world, dp, traced, workdir);
    if (traced) {
      return replay_distributed_ltfb(world, in.dataset, in.splits, config,
                                     workdir);
    }
    RankResult r;
    r.rank = world.rank();
    r.enter_s = now_s();
    const core::DistributedLtfbOutcome o =
        core::run_distributed_ltfb(world, in.dataset, in.splits, config);
    r.aborted = o.aborted;
    r.final_val_loss = o.final_validation_loss;
    r.history = o.history;
    return r;
  };

  const double launch_t0 = now_s();
  if (w.spawn) {
    auto rank_file = [&](int r) {
      return workdir / ("rank" + std::to_string(r) + ".txt");
    };
    for (int r = 0; r < n; ++r) fs::remove(rank_file(r));
    std::cout.flush();
    const auto statuses =
        comm::World::spawn_processes(n, [&](comm::Communicator& world) {
          util::ComputePool::instance().resize(pool);
          write_rank_result(rank_file(world.rank()), body(world));
        });
    run.wall_s = now_s() - t0;
    for (const comm::World::ProcessStatus& status : statuses) {
      RankResult& slot = run.ranks[static_cast<std::size_t>(status.rank)];
      if (status.clean()) {
        slot = read_rank_result(rank_file(status.rank));
      } else {
        ++run.unclean;
        slot.rank = status.rank;
        slot.aborted = true;
      }
    }
  } else {
    comm::World::run(n, [&](comm::Communicator& world) {
      run.ranks[static_cast<std::size_t>(world.rank())] = body(world);
    });
    run.wall_s = now_s() - t0;
  }
  double last_enter = launch_t0;
  for (const RankResult& r : run.ranks) {
    last_enter = std::max(last_enter, r.enter_s);
  }
  run.launch_s = last_enter - launch_t0;
  return run;
}

// -- correctness gates -------------------------------------------------------------

/// The deterministic part of a run: every leader's tournament rows (or the
/// data-parallel block losses) and final validation loss.
struct Signature {
  std::vector<std::tuple<int, int, double, double, bool, bool>> rows;
  std::vector<double> losses;
  bool operator==(const Signature&) const = default;
};

Signature signature(const Workload& w, const Run& run) {
  Signature sig;
  for (int t = 0; t < w.trainers; ++t) {
    const RankResult& leader =
        run.ranks[static_cast<std::size_t>(t * w.ranks_per_trainer)];
    for (const core::RoundRecord& record : leader.history) {
      const core::TrainerRoundStat& s = record.stats.front();
      sig.rows.emplace_back(s.trainer_id, s.partner_id, s.own_score,
                            s.partner_score, s.adopted_partner,
                            s.partner_failed);
    }
    sig.losses.push_back(leader.final_val_loss);
  }
  return sig;
}

double best_val_loss(const Signature& sig) {
  return *std::min_element(sig.losses.begin(), sig.losses.end());
}

/// Counts trainer-rounds attempted and lost (aborted trainers, degraded
/// tournaments, spawned ranks that did not exit clean) and records every
/// failed in-run check.
void check_run(const Workload& w, const Run& run, std::size_t rounds,
               const char* what, Outcome& out) {
  out.attempted += static_cast<std::size_t>(w.trainers) * rounds;
  for (int t = 0; t < w.trainers; ++t) {
    const auto first = static_cast<std::size_t>(t * w.ranks_per_trainer);
    const RankResult& leader = run.ranks[first];
    bool lost = false;
    for (int r = 0; r < w.ranks_per_trainer; ++r) {
      lost = lost || run.ranks[first + static_cast<std::size_t>(r)].aborted;
    }
    if (lost) out.failed += rounds - std::min(rounds, leader.history.size());
    for (const core::RoundRecord& record : leader.history) {
      if (record.stats.front().partner_failed) ++out.failed;
    }
    if (!lost && !std::isfinite(leader.final_val_loss)) {
      out.problems.push_back(std::string(what) + ": trainer " +
                             std::to_string(t) + " final loss not finite");
    }
  }
  if (run.unclean > 0) {
    out.problems.push_back(std::string(what) + ": " +
                           std::to_string(run.unclean) +
                           " spawned rank(s) did not exit clean");
  }
  for (const RankResult& r : run.ranks) {
    if (!r.error.empty()) {
      out.problems.push_back(std::string(what) + ": rank " +
                             std::to_string(r.rank) + ": " + r.error);
    }
  }
}

std::vector<double> root_round_walls(const Run& run) {
  std::vector<double> walls;
  for (const core::RoundRecord& record : run.ranks.front().history) {
    walls.push_back(record.wall_s);
  }
  return walls;
}

// -- end-to-end mode -------------------------------------------------------------

Outcome measure_end_to_end(const Workload& w, const Inputs& in,
                           const Options& opt, const Sizes& sz,
                           const fs::path& workdir) {
  Outcome out;
  // Caches fill and lazy set-up finishes before anything is timed.
  check_run(w, execute(w, in, sz.warmup_rounds, false, workdir),
            sz.warmup_rounds, "warm-up", out);

  // Set-up alone: the same call with zero rounds (launch, split, model
  // init, warm-up steps, final evaluation; catalog + store for the store).
  std::vector<double> setups;
  for (std::size_t i = 0; i < sz.setup_runs; ++i) {
    const Run run = execute(w, in, 0, false, workdir);
    check_run(w, run, 0, "set-up", out);
    setups.push_back(run.wall_s);
  }

  std::vector<double> throughput;
  std::vector<double> walls;
  std::optional<Signature> first;
  const double start = now_s();
  double last = 0.0;
  while (out.reps < sz.min_reps || now_s() - start + last <= opt.seconds) {
    const Run run = execute(w, in, sz.rounds, false, workdir);
    last = run.wall_s;
    ++out.reps;
    check_run(w, run, sz.rounds, "timed rep", out);
    const Signature sig = signature(w, run);
    if (!first) {
      first = sig;
    } else if (!(sig == *first)) {
      out.problems.push_back("rep " + std::to_string(out.reps) +
                             ": history or final loss differs from rep 1");
    }
    const double samples = static_cast<double>(w.trainers) *
                           static_cast<double>(sz.rounds * kStepsPerRound *
                                               kBatch);
    throughput.push_back(samples / run.wall_s);
    const auto rep_walls = root_round_walls(run);
    walls.insert(walls.end(), rep_walls.begin(), rep_walls.end());
  }
  out.rounds_measured = walls.size();
  out.metrics = {
      {"samples_per_s", median(throughput), "samples/s"},
      {"round_wall_p50_s", quantile(walls, 0.5), "s"},
      {"round_wall_p90_s", quantile(walls, 0.9), "s"},
      {"setup_s", median(setups), "s"},
      {"final_val_loss", best_val_loss(*first), "loss"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  return out;
}

// -- compute probe -----------------------------------------------------------------

struct Probe {
  double gemm_gflops = 0.0;
  double peak_gflops = 0.0;
  double forward_s = 0.0;
  double backward_s = 0.0;
  double optimizer_s = 0.0;
  double flops = 0.0;  // forward + backward GEMM FLOPs, all components
};

tensor::Tensor random_tensor(std::size_t rows, std::size_t cols,
                             util::Rng& rng) {
  tensor::Tensor t(rows, cols);
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// Calls Model::forward/backward/apply_optimizer_step on each CycleGAN
/// component, and tensor::gemm at every dense layer's three shapes, at the
/// workload's per-rank batch; then a serial 512^3 GEMM as the ceiling.
Probe compute_probe(const gan::CycleGanConfig& config, std::size_t batch,
                    std::size_t reps, std::size_t pool) {
  // The ranks' pool size; a spawning parent kept 1 while it forked.
  util::ComputePool::instance().resize(pool);
  Probe probe;
  util::Rng rng(7);
  gan::CycleGan model(config, 11);
  std::vector<std::pair<std::size_t, std::size_t>> dense;  // (in, out)
  for (nn::Model* m : model.components()) {
    const std::size_t out_id = m->layer_count() - 1;
    const tensor::Tensor x = random_tensor(batch, m->layer(0).output_width(),
                                           rng);
    const tensor::Tensor g =
        random_tensor(batch, m->layer(out_id).output_width(), rng);
    std::vector<double> fwd, bwd, opt;
    for (std::size_t i = 0; i < reps; ++i) {
      double t = now_s();
      m->forward({&x}, true);
      fwd.push_back(now_s() - t);
      m->zero_gradients();
      m->add_output_gradient(out_id, g);
      t = now_s();
      m->backward();
      bwd.push_back(now_s() - t);
      t = now_s();
      m->apply_optimizer_step();
      opt.push_back(now_s() - t);
    }
    probe.forward_s += median(fwd);
    probe.backward_s += median(bwd);
    probe.optimizer_s += median(opt);
    for (nn::Weights* weights : m->weights()) {
      if (weights->shape().size() == 2) {
        dense.emplace_back(weights->shape()[0], weights->shape()[1]);
      }
    }
  }

  // The three GEMMs of a dense layer: Y = XW, dW = X^T dZ, dX = dZ W^T.
  struct Operands {
    tensor::Tensor x, w, dz, y, dw, dx;
  };
  std::vector<Operands> ops;
  for (const auto& [in, out] : dense) {
    ops.push_back({random_tensor(batch, in, rng), random_tensor(in, out, rng),
                   random_tensor(batch, out, rng), tensor::Tensor(batch, out),
                   tensor::Tensor(in, out), tensor::Tensor(batch, in)});
    probe.flops += 3.0 * tensor::gemm_flops(batch, out, in);
  }
  using tensor::Op;
  std::vector<double> sweeps;
  for (std::size_t i = 0; i < reps; ++i) {
    const double t = now_s();
    for (Operands& o : ops) {
      tensor::gemm(Op::None, Op::None, 1.0f, o.x, o.w, 0.0f, o.y);
      tensor::gemm(Op::Transpose, Op::None, 1.0f, o.x, o.dz, 0.0f, o.dw);
      tensor::gemm(Op::None, Op::Transpose, 1.0f, o.dz, o.w, 0.0f, o.dx);
    }
    sweeps.push_back(now_s() - t);
  }
  probe.gemm_gflops = probe.flops / median(sweeps) * 1e-9;

  util::ComputePool::instance().resize(1);
  constexpr std::size_t kPeak = 512;
  const tensor::Tensor a = random_tensor(kPeak, kPeak, rng);
  const tensor::Tensor b = random_tensor(kPeak, kPeak, rng);
  tensor::Tensor c(kPeak, kPeak);
  double best = 0.0;
  for (int i = 0; i < 3; ++i) {
    const double t = now_s();
    tensor::gemm(Op::None, Op::None, 1.0f, a, b, 0.0f, c);
    const double dt = now_s() - t;
    if (i == 0 || dt < best) best = dt;
  }
  util::ComputePool::instance().resize(pool);
  probe.peak_gflops = tensor::gemm_flops(kPeak, kPeak, kPeak) / best * 1e-9;
  return probe;
}

// -- per-layer mode ----------------------------------------------------------------

/// Series pooled over every rank of every traced run.
class SeriesPool {
 public:
  void add(const Run& run) {
    for (const RankResult& r : run.ranks) {
      for (const auto& [name, values] : r.rec.series) {
        auto& dst = series_[name];
        dst.insert(dst.end(), values.begin(), values.end());
      }
    }
  }
  const std::vector<double>& get(const std::string& name) const {
    static const std::vector<double> kEmpty;
    const auto it = series_.find(name);
    return it == series_.end() ? kEmpty : it->second;
  }
  double sum(const std::string& name) const {
    const auto& v = get(name);
    return std::accumulate(v.begin(), v.end(), 0.0);
  }
  double mean(const std::string& name) const {
    const auto& v = get(name);
    return v.empty() ? 0.0 : sum(name) / static_cast<double>(v.size());
  }

 private:
  std::map<std::string, std::vector<double>> series_;
};

/// Mean over rounds of (slowest - fastest) / slowest train-phase time
/// across the ranks of a traced run.
double straggler_frac(const std::vector<Run>& runs) {
  std::vector<double> gaps;
  for (const Run& run : runs) {
    std::vector<const std::vector<double>*> phases;
    for (const RankResult& r : run.ranks) {
      const auto it = r.rec.series.find("round.train_phase");
      if (it != r.rec.series.end()) phases.push_back(&it->second);
    }
    if (phases.empty()) continue;
    std::size_t rounds = phases.front()->size();
    for (const auto* p : phases) rounds = std::min(rounds, p->size());
    for (std::size_t i = 0; i < rounds; ++i) {
      double lo = (*phases.front())[i];
      double hi = lo;
      for (const auto* p : phases) {
        lo = std::min(lo, (*p)[i]);
        hi = std::max(hi, (*p)[i]);
      }
      gaps.push_back(ratio(hi - lo, hi));
    }
  }
  return gaps.empty() ? 0.0
                      : std::accumulate(gaps.begin(), gaps.end(), 0.0) /
                            static_cast<double>(gaps.size());
}

void write_chrome_trace(const fs::path& path, const Run& run) {
  double origin = std::numeric_limits<double>::max();
  for (const RankResult& r : run.ranks) {
    for (const Span& s : r.rec.spans) origin = std::min(origin, s.start_s);
  }
  std::ofstream out(path, std::ios::trunc);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const RankResult& r : run.ranks) {
    out << (first ? "" : ",\n") << "{\"name\": \"process_name\", \"ph\": "
        << "\"M\", \"pid\": " << r.rank << ", \"args\": {\"name\": \"rank "
        << r.rank << "\"}}";
    first = false;
    for (const Span& s : r.rec.spans) {
      out << ",\n{\"name\": \"" << s.name << "\", \"cat\": \""
          << s.name.substr(0, s.name.find('.')) << "\", \"ph\": \"X\", "
          << "\"ts\": " << std::fixed << std::setprecision(3)
          << (s.start_s - origin) * 1e6 << ", \"dur\": " << s.dur_s * 1e6
          << ", \"pid\": " << s.rank << ", \"tid\": 0}";
    }
  }
  out << "\n]}\n";
  if (!out) std::cerr << "ltfb_bench: cannot write " << path << "\n";
}

Outcome measure_layers(const Workload& w, const Inputs& in,
                       const Options& opt, const Sizes& sz,
                       const fs::path& workdir) {
  Outcome out;
  check_run(w, execute(w, in, sz.warmup_rounds, false, workdir),
            sz.warmup_rounds, "warm-up", out);

  const double start = now_s();
  const Run reference = execute(w, in, sz.rounds, false, workdir);
  check_run(w, reference, sz.rounds, "untraced reference", out);
  const Signature expected = signature(w, reference);

  std::vector<Run> traced;
  SeriesPool pool;
  double last = 0.0;
  std::vector<double> launches = {reference.launch_s};
  while (traced.empty() || now_s() - start + last <= opt.seconds) {
    Run run = execute(w, in, sz.rounds, true, workdir);
    last = run.wall_s;
    check_run(w, run, sz.rounds, "traced replay", out);
    if (!(signature(w, run) == expected)) {
      out.problems.push_back(
          "traced replay's history differs from the untraced run");
    }
    launches.push_back(run.launch_s);
    pool.add(run);
    traced.push_back(std::move(run));
  }
  out.reps = traced.size();
  std::vector<double> traced_walls;
  for (const Run& run : traced) {
    const auto walls = root_round_walls(run);
    traced_walls.insert(traced_walls.end(), walls.begin(), walls.end());
  }
  out.rounds_measured = traced_walls.size();
  const double wall_ratio =
      ratio(quantile(traced_walls, 0.5),
            quantile(root_round_walls(reference), 0.5));
  // Replay fidelity: a traced round more than 15% off the untraced one means
  // the per-layer numbers describe a different run.
  out.trace_valid = wall_ratio >= 0.85 && wall_ratio <= 1.15;
  write_chrome_trace(
      opt.trace_dir / (std::string("ltfb_bench_trace_") + w.name + ".json"),
      traced.front());

  std::size_t tournaments = 0;
  std::size_t adoptions = 0;
  for (const Run& run : traced) {
    for (const RankResult& r : run.ranks) {
      for (const core::RoundRecord& record : r.history) {
        const core::TrainerRoundStat& s = record.stats.front();
        if (s.partner_id >= 0 && !s.partner_failed) {
          ++tournaments;
          if (s.adopted_partner) ++adoptions;
        }
      }
    }
  }

  const std::size_t per_rank_batch =
      kBatch / static_cast<std::size_t>(w.ranks_per_trainer);
  const Probe probe =
      compute_probe(in.model, per_rank_batch, sz.probe_reps, pool_size(w));
  const double train_s = pool.sum("gan.train_step");
  const double round_s = pool.sum("round.full");
  const double synced = pool.sum("allreduce.synced_steps");
  const auto& train_steps = pool.get("gan.train_step");
  out.metrics = {
      {"tensor.gemm_gflops", probe.gemm_gflops, "GFLOP/s"},
      {"tensor.gemm_peak_frac", ratio(probe.gemm_gflops, probe.peak_gflops),
       "ratio"},
      {"nn.forward_s", probe.forward_s, "s"},
      {"nn.backward_s", probe.backward_s, "s"},
      {"nn.optimizer_s", probe.optimizer_s, "s"},
      {"nn.flops_per_step", probe.flops, "count"},
      {"gan.train_step_p50_s", quantile(train_steps, 0.5), "s"},
      {"gan.train_step_p95_s", quantile(train_steps, 0.95), "s"},
      {"gan.compute_s_per_step", pool.mean("gan.compute"), "s"},
      {"gan.pretrain_step_s", pool.mean("gan.pretrain_step"), "s"},
      {"gan.eval_s", pool.mean("gan.eval"), "s"},
      {"data.next_batch_s", pool.mean("data.next_batch"), "s"},
      {"allreduce.hook_frac", ratio(pool.sum("allreduce.hook"), train_s),
       "ratio"},
      {"allreduce.exposed_frac", ratio(pool.sum("allreduce.finish"), train_s),
       "ratio"},
      {"allreduce.overlap_frac", pool.mean("allreduce.overlap"), "ratio"},
      {"allreduce.wire_bytes_per_step",
       ratio(pool.sum("allreduce.wire_bytes"), synced), "bytes"},
      {"allreduce.buckets_per_step",
       ratio(pool.sum("allreduce.buckets"), synced), "count"},
      {"tournament.frac", ratio(pool.sum("tournament"), round_s), "ratio"},
      {"tournament.exchange_frac",
       ratio(pool.sum("tournament.exchange"), round_s), "ratio"},
      {"tournament.exchange_bytes", pool.mean("tournament.exchange_bytes"),
       "bytes"},
      {"tournament.adopt_frac",
       ratio(static_cast<double>(adoptions), static_cast<double>(tournaments)),
       "ratio"},
      {"round.train_phase_s", pool.mean("round.train_phase"), "s"},
      {"round.winner_bcast_frac",
       ratio(pool.sum("round.winner_bcast"), round_s), "ratio"},
      {"round.straggler_frac", straggler_frac(traced), "ratio"},
      {"round.wait_frac", ratio(pool.sum("round.wait"), round_s), "ratio"},
      {"checkpoint.save_s", pool.mean("checkpoint.save"), "s"},
      {"checkpoint.bytes", pool.mean("checkpoint.bytes"), "bytes"},
      {"checkpoint.stall_frac",
       ratio(pool.sum("checkpoint.save") - pool.sum("checkpoint.probe"),
             round_s),
       "ratio"},
      {"comm.launch_s", median(launches), "s"},
      {"comm.split_s", pool.mean("comm.split"), "s"},
      {"datastore.collect_wait_frac",
       ratio(pool.sum("datastore.collect_fetch"), pool.sum("datastore.step")),
       "ratio"},
      {"datastore.fetch_files_samples_per_s",
       ratio(pool.sum("datastore.fetch_pass_samples"),
             pool.sum("datastore.fetch_files")),
       "samples/s"},
      {"datastore.fetch_memory_samples_per_s",
       ratio(pool.sum("datastore.fetch_pass_samples"),
             pool.sum("datastore.fetch_memory")),
       "samples/s"},
      {"datastore.build_directory_samples_per_s",
       ratio(pool.sum("datastore.build_directory_samples"),
             pool.sum("datastore.build_directory")),
       "samples/s"},
      {"datastore.remote_frac",
       ratio(pool.sum("datastore.remote_fetches"),
             pool.sum("datastore.memory_requests")),
       "ratio"},
      {"datastore.bytes_exchanged_per_step",
       ratio(pool.sum("datastore.bytes_exchanged"),
             pool.sum("datastore.steps")), "bytes"},
      {"datastore.file_opens",
       ratio(pool.sum("datastore.file_opens"),
             static_cast<double>(traced.size())),
       "count"},
      {"trace.round_wall_ratio", wall_ratio, "ratio"},
  };
  return out;
}

// -- output ------------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

void write_result_file(const fs::path& path, const Workload& w,
                       const Options& opt, const Sizes& sz,
                       const Outcome& out) {
  std::ofstream file(path, std::ios::trunc);
  file << "{\"workload\": " << json_string(w.name)
       << ", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
       << ", \"seconds\": " << json_number(opt.seconds)
       << ", \"source_id\": " << json_string(opt.source_id)
       << ", \"simd_width\": " << tensor::simd::kNativeWidth
       << ", \"nproc\": " << nproc() << ", \"pool\": " << pool_size(w)
       << ", \"rounds_per_rep\": " << sz.rounds << ", \"reps\": " << out.reps
       << ", \"rounds_measured\": " << out.rounds_measured
       << ", \"trace_valid\": " << (out.trace_valid ? "true" : "false")
       << ", \"correct\": " << (out.correct() ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"problems\": [";
  for (std::size_t i = 0; i < out.problems.size(); ++i) {
    file << (i == 0 ? "" : ", ") << json_string(out.problems[i]);
  }
  file << "], \"metrics\": " << metrics_json(out.metrics) << "}\n";
  if (!file) std::cerr << "ltfb_bench: cannot write " << path << "\n";
}

void print_outcome(const Workload& w, const Options& opt, const Outcome& out) {
  std::cout << "ltfb_bench " << w.name << " seed=" << opt.seed
            << " trace=" << opt.trace << " nproc=" << nproc()
            << " pool=" << pool_size(w)
            << " simd_width=" << tensor::simd::kNativeWidth
            << " reps=" << out.reps << " rounds=" << out.rounds_measured
            << "\n";
  for (const Metric& m : out.metrics) {
    std::cout << "  " << std::left << std::setw(40) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << m.unit << "\n";
  }
  if (!out.trace_valid) {
    std::cout << "  WARNING: traced round wall is outside 0.85-1.15 of the "
                 "untraced one; per-layer numbers are unreliable\n";
  }
  for (const std::string& p : out.problems) std::cout << "  FAIL: " << p << "\n";
  if (out.failed > 0) {
    std::cout << "  FAIL: " << out.failed << " of " << out.attempted
              << " trainer-rounds lost\n";
  }
}

Outcome run_workload(const Workload& w, const Options& opt, const Sizes& sz,
                     const fs::path& workdir) {
  clear_ltfb_env();
  // run_distributed_ltfb takes the allreduce wire dtype from here only.
  if (w.mixed_precision) setenv("LTFB_MIXED_PRECISION", "1", 1);
  const std::size_t samples = sz.dp_samples > 0 && w.datastore
                                  ? sz.dp_samples
                                  : w.samples;
  const Inputs in = make_inputs(w, samples, opt.seed, workdir);
  Outcome out = opt.trace ? measure_layers(w, in, opt, sz, workdir)
                          : measure_end_to_end(w, in, opt, sz, workdir);
  clear_ltfb_env();
  return out;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload NAME --seed N --seconds S --trace 0|1"
               " [--workdir DIR] [--result FILE] [--trace-dir DIR]"
               " [--source-id ID]\n       "
            << argv0 << " --smoke [--workdir DIR]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

int smoke(Options opt) {
  Sizes sz;
  sz.rounds = 4;
  sz.warmup_rounds = 1;
  sz.setup_runs = 1;
  sz.min_reps = 1;
  sz.probe_reps = 2;
  sz.dp_samples = 4096;
  opt.seconds = 0.0;
  opt.trace_dir = opt.workdir;
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    for (const bool trace : {false, true}) {
      opt.trace = trace;
      const Outcome out = run_workload(w, opt, sz, opt.workdir);
      print_outcome(w, opt, out);
      ok = ok && out.correct();
    }
  }
  std::cout << (ok ? "smoke: OK" : "smoke: FAILED") << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage(argv[0]);
      opt.trace = value == "1";
    } else if (arg == "--workdir") {
      opt.workdir = value;
    } else if (arg == "--result") {
      opt.result_path = value;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value;
    } else if (arg == "--source-id") {
      opt.source_id = value;
    } else {
      return usage(argv[0]);
    }
  }
  // Everything this process writes lives under one directory it owns.
  opt.workdir /= "ltfb_bench_" + std::to_string(getpid());
  try {
    fs::create_directories(opt.workdir);
    int code = 0;
    if (opt.smoke) {
      code = smoke(opt);
    } else {
      const Workload* w = have_workload ? find_workload(opt.workload) : nullptr;
      if (w == nullptr) {
        fs::remove_all(opt.workdir);
        return usage(argv[0]);
      }
      const Sizes sz;
      const Outcome out = run_workload(*w, opt, sz, opt.workdir);
      print_outcome(*w, opt, out);
      if (!opt.result_path.empty()) {
        write_result_file(opt.result_path, *w, opt, sz, out);
      }
      std::cout << "{\"correct\": " << (out.correct() ? "true" : "false")
                << ", \"attempted\": " << out.attempted
                << ", \"failed\": " << out.failed
                << ", \"metrics\": " << metrics_json(out.metrics) << "}"
                << std::endl;
      code = out.correct() ? 0 : 1;
    }
    fs::remove_all(opt.workdir);
    return code;
  } catch (const std::exception& e) {
    std::cerr << "ltfb_bench: " << e.what() << "\n";
    std::error_code ec;
    fs::remove_all(opt.workdir, ec);
    return 1;
  }
}
