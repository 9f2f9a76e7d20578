// Shared pieces of the LTFB benchmark: the bench-side recorder that times
// calls into each layer's public functions, the per-rank result a workload
// run hands back (in memory for rank threads, through a file for spawned
// rank processes), and the two bench-owned training loops — the traced
// replay of core::run_distributed_ltfb and the data-parallel trainer fed by
// the data store.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/ltfb_comm.hpp"
#include "data/dataset.hpp"
#include "datastore/bundle_catalog.hpp"

namespace ltfb_bench {

/// Seconds on the steady clock. On Linux this is CLOCK_MONOTONIC, one time
/// base for every process of a spawned world.
double now_s();

struct Span {
  std::string name;
  int rank = 0;
  double start_s = 0.0;
  double dur_s = 0.0;
};

/// Spans plus named sample series, filled by one rank's thread only.
class Recorder {
 public:
  explicit Recorder(int rank = 0) : rank_(rank) {}

  /// Records the span [start_s, now) as `name`, appends its duration to the
  /// series of the same name and returns it.
  double close(const std::string& name, double start_s);
  void add(const std::string& name, double value) {
    series[name].push_back(value);
  }

  std::map<std::string, std::vector<double>> series;
  std::vector<Span> spans;

 private:
  int rank_;
};

/// What one rank reports after a run. History rows come from trainer
/// leaders; for the data-parallel trainer rank 0 reports one row per
/// 25-step block (own_score/partner_score carry the block's last fidelity
/// and cycle loss, the determinism signature of a run).
struct RankResult {
  int rank = 0;
  bool aborted = false;
  double enter_s = 0.0;  // when the rank function started (launch timing)
  double final_val_loss = 0.0;
  std::vector<ltfb::core::RoundRecord> history;
  std::string error;  // a failed in-run check; empty when all held
  Recorder rec;
};

void write_rank_result(const std::filesystem::path& path,
                       const RankResult& result);
RankResult read_rank_result(const std::filesystem::path& path);

/// The per-round calls of core::run_distributed_ltfb, issued through the
/// same public functions in the same order with the same seeds, each timed
/// into `RankResult::rec`. Must reproduce its tournament history
/// bit for bit. When the config writes no checkpoints, the leader saves its
/// final slot once into `probe_dir` so checkpoint cost is known for every
/// workload.
RankResult replay_distributed_ltfb(
    ltfb::comm::Communicator& world, const ltfb::data::Dataset& dataset,
    const ltfb::data::SplitIndices& splits,
    const ltfb::core::DistributedLtfbConfig& config,
    const std::filesystem::path& probe_dir);

struct DataParallelConfig {
  const ltfb::datastore::BundleCatalog* catalog = nullptr;
  const ltfb::data::Dataset* validation = nullptr;
  ltfb::gan::CycleGanConfig model;
  std::size_t batch_size = 128;  // global, split evenly over the ranks
  std::size_t pretrain_steps = 25;
  std::size_t steps_per_block = 25;
  std::size_t blocks = 40;
  std::uint64_t seed = 1;
};

/// One trainer over every rank of `world`: a Dynamic-mode DataStore on a
/// split communicator serves each rank's shard of the global batch through
/// begin_fetch/collect_fetch (files in epoch 1, then build_directory and
/// in-memory exchange), and a GradientBucketer averages gradients. With
/// `traced` every layer call is timed, and a fetch-only pass over the same
/// id sequence on a fresh store measures file and memory fetch rates.
RankResult train_data_parallel(ltfb::comm::Communicator& world,
                               const DataParallelConfig& config, bool traced,
                               const std::filesystem::path& probe_dir);

}  // namespace ltfb_bench
