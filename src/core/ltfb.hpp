// "Let a Thousand Flowers Bloom" — the tournament training algorithm
// (Sec. III-C), this repository's primary contribution reproduction.
//
// A population of trainers trains loosely coupled: each trainer sees only
// its private partition of the data. Periodically, trainers are randomly
// paired and exchange models; each evaluates its own and its partner's
// model on a *local* tournament hold-out set and keeps the better one.
// Surviving models have effectively been educated on many partitions, so
// quality matches whole-dataset training while each trainer's working set
// stays small — the mechanism behind the paper's strong scaling.
//
// GAN extension (the paper's novelty): only the generator bundle is
// exchanged; discriminators stay local, acting as a panel of independent
// teachers. Full-model exchange is retained as an ablation.
//
// This file is the tournament engine (DESIGN.md §17): every tournament
// decision lives here once, and every driver calls it.
//   * LocalLtfbDriver — deterministic single-thread lockstep over in-process
//     trainers (used by the quality benches, Figs. 12/13).
//   * run_distributed_ltfb (ltfb_comm.hpp) — rank-parallel trainers over
//     ltfb::comm with data parallelism inside each trainer (LBANN's shape).
//   * run_elastic_ltfb (scheduler.hpp) — single-rank trainers under churn.
//   * ClassicLtfbDriver (classic_trainer.hpp) — non-GAN LTFB, via duel().
// The K-independent baseline (Sec. IV-E) is no driver at all: it is
// build_population plus pretrain_autoencoder and train_steps(rounds x
// steps_per_round) on every trainer, then best_trainer.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/gan_trainer.hpp"

namespace ltfb::comm {
class Communicator;
}  // namespace ltfb::comm

namespace ltfb::core {

/// What a tournament exchanges.
enum class ExchangeScope {
  GeneratorOnly,  // paper default for GANs: E, Dec, F, G — not the critic
  FullModel       // ablation: critic travels too
};

struct LtfbConfig {
  std::size_t steps_per_round = 50;  // mini-batch steps between tournaments
  std::size_t rounds = 20;
  std::size_t pretrain_steps = 0;  // autoencoder warm-up before round 0
  ExchangeScope scope = ExchangeScope::GeneratorOnly;
  TournamentMetric metric = TournamentMetric::ForwardInverse;
  std::uint64_t pairing_seed = 0x7031'13fbull;
  // The four fields below are read by LocalLtfbDriver only; the
  // rank-parallel drivers reject a config that sets any of them.
  /// PBT-style hyperparameter exploration (Jaderberg et al., the
  /// population-based-training cousin the paper cites): when a trainer
  /// adopts its partner's model it also inherits the partner's learning
  /// rate, perturbed by a factor in [1-x, 1+x] — exploit plus explore.
  /// 0 disables (the paper's LTFB keeps hyperparameters fixed).
  float lr_perturbation = 0.0f;
  /// Population checkpointing: when `checkpoint_every` > 0, the driver
  /// writes a v2 population checkpoint to `checkpoint_path` after every K
  /// completed rounds (atomically — see core/population_checkpoint.hpp).
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;
  /// When non-empty, the constructor restores the full population state
  /// (weights, optimizer moments, reader positions, round counter, history)
  /// from this checkpoint; run() then skips pretraining and continues from
  /// the recorded round. The restarted history is bit-identical to an
  /// uninterrupted run.
  std::string resume_from;
};

/// Deterministic random pairing for a round: a seeded permutation of
/// [0, n), paired consecutively. With odd n the last trainer sits out.
std::vector<std::pair<int, int>> tournament_pairs(std::size_t n,
                                                  std::uint64_t seed,
                                                  std::size_t round);

/// The trainer tournament_pairs pairs with trainer `self` this round, over
/// the live `population` (trainer id -> its address, iterated in id
/// order), or -1 when `self` sits out. Throws when `self` is not live.
int tournament_partner(const std::map<int, int>& population, int self,
                       std::uint64_t seed, std::size_t round);

/// The flat weights a tournament exchanges: the generator bundle, followed
/// by the critic under FullModel.
std::vector<float> exchange_weights(const gan::CycleGan& model,
                                    ExchangeScope scope);

/// Loads weights laid out by exchange_weights under the same scope.
void load_exchange_weights(gan::CycleGan& model, std::span<const float> flat,
                           ExchangeScope scope);

struct TrainerRoundStat {
  int trainer_id = 0;
  int partner_id = -1;          // -1 when sitting out
  double own_score = 0.0;       // tournament metric of the local model
  double partner_score = 0.0;   // tournament metric of the received model
  bool adopted_partner = false;
  /// True when the paired partner died mid-tournament (distributed runs):
  /// the survivor kept its own model and the round counts as degraded.
  bool partner_failed = false;
};

struct RoundRecord {
  std::size_t round = 0;
  std::vector<TrainerRoundStat> stats;
  /// Elastic churn markers (PR 8): trainer ids that joined / left the
  /// population at the boundary ENTERING this round. Part of the v3
  /// checkpoint format and exported as explicit `joined`/`left` event rows
  /// in the history CSV, so offline analysis never misreads a resized
  /// round as misaligned columns.
  std::vector<int> joined;
  std::vector<int> left;
  /// Wall-clock duration of the whole round (train + tournament). Not part
  /// of the checkpoint format: timings are not reproducible across runs.
  double wall_s = 0.0;
  /// Straggler spread: max - min per-trainer (local driver) or per-rank
  /// (distributed) train-phase time within the round, seconds.
  double max_rank_gap_s = 0.0;
};

/// The one tournament decision (Sec. III-C), for any trainer kind: score
/// the own model, load the received weights, score them on the same local
/// tournament set, and keep them iff the partner's score is finite and
/// either the own score is not or the partner's is strictly lower. A
/// non-finite score therefore always loses. Otherwise the own weights are
/// loaded back. Fills stat's scores and adopted flag; returns the flag.
template <typename Score, typename Load>
bool duel(Score&& score, Load&& load, std::span<const float> own,
          std::span<const float> received, TrainerRoundStat& stat) {
  stat.own_score = score();
  load(received);
  stat.partner_score = score();
  stat.adopted_partner =
      std::isfinite(stat.partner_score) &&
      (!std::isfinite(stat.own_score) || stat.partner_score < stat.own_score);
  if (!stat.adopted_partner) load(own);
  return stat.adopted_partner;
}

/// duel() for a GAN trainer under `config`'s exchange scope and tournament
/// metric; counts the adoption in telemetry.
bool gan_duel(GanTrainer& trainer, const LtfbConfig& config,
              std::span<const float> own, std::span<const float> received,
              TrainerRoundStat& stat);

/// Runs `op` and reports whether it completed. A peer that is dead
/// (RankFailedError) or silent past its deadline (TimeoutError) makes it
/// count ltfb/faults_detected and return false instead — the two faults
/// the survivor protocols route around. Every other error propagates, and
/// so do these two when `fault_aware` is false (fail-stop).
bool survives_peer_faults(const std::function<void()>& op,
                          bool fault_aware = true);

/// A leader's side of one rank-parallel tournament: swaps exchange weights
/// with `partner_rank` over `comm` under `tag`, bounded by `deadline`, then
/// runs gan_duel. When the partner is dead or silent (survives_peer_faults)
/// the own model stays loaded, stat.partner_failed is set and the round is
/// counted as degraded.
void tournament_exchange(comm::Communicator& comm, int partner_rank, int tag,
                         GanTrainer& trainer, const LtfbConfig& config,
                         std::chrono::milliseconds deadline, bool fault_aware,
                         TrainerRoundStat& stat);

/// Index of the trainer whose model scores best (lowest forward+inverse
/// loss) on `validation_view` — how a population's final model is chosen.
std::size_t best_trainer(
    const std::vector<std::unique_ptr<GanTrainer>>& trainers,
    const std::vector<std::size_t>& validation_view, std::size_t batch_size);

class LocalLtfbDriver {
 public:
  LocalLtfbDriver(std::vector<std::unique_ptr<GanTrainer>> trainers,
                  LtfbConfig config);

  std::size_t population() const noexcept { return trainers_.size(); }
  GanTrainer& trainer(std::size_t index);
  const LtfbConfig& config() const noexcept { return config_; }
  const std::vector<RoundRecord>& history() const noexcept { return history_; }

  /// Autoencoder warm-up on every trainer (config.pretrain_steps each).
  void pretrain();

  /// One LTFB round: every trainer takes steps_per_round training steps,
  /// then the tournament runs.
  const RoundRecord& run_round();

  /// pretrain() + config.rounds tournament rounds. When the driver was
  /// resumed from a checkpoint, pretraining is skipped (it happened before
  /// the checkpoint was written) and only the remaining rounds run.
  void run();

  /// core::best_trainer over this population.
  std::size_t best_trainer(const std::vector<std::size_t>& validation_view,
                           std::size_t batch_size) {
    return core::best_trainer(trainers_, validation_view, batch_size);
  }

  /// Writes the whole population atomically to `path` (checkpoint v2).
  void save_checkpoint(const std::string& path) const;

  /// Rounds completed so far (resumes mid-sequence after restore).
  std::size_t rounds_completed() const noexcept { return round_counter_; }
  bool resumed() const noexcept { return resumed_; }

 private:
  std::vector<std::unique_ptr<GanTrainer>> trainers_;
  LtfbConfig config_;
  std::vector<RoundRecord> history_;
  std::size_t round_counter_ = 0;
  bool resumed_ = false;
};

/// Writes a tournament history to CSV (round, event, trainer, partner,
/// scores, adopted, partner_failed, plus the per-round round_wall_s /
/// max_rank_gap_s timing columns consumed by tools/ltfb_trace.py) for
/// offline analysis / plotting. The `event` column is `round` for
/// tournament stat rows and `joined`/`left` for explicit population-churn
/// marker rows (elastic runs), so a resized population never produces
/// misaligned columns — the
/// experiment-tracking artifact a production run would archive. The write
/// is atomic: rows land in a temp sibling that is renamed over `path` only
/// after a healthy flush+close, so a full disk or I/O error returns false
/// and leaves no partial file at `path`.
bool export_history_csv(const std::vector<RoundRecord>& history,
                        const std::string& path);

}  // namespace ltfb::core
