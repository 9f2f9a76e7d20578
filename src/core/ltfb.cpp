#include "core/ltfb.hpp"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <limits>
#include <numeric>

#include "comm/communicator.hpp"
#include "core/population_checkpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ltfb::core {

std::vector<std::pair<int, int>> tournament_pairs(std::size_t n,
                                                  std::uint64_t seed,
                                                  std::size_t round) {
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(util::derive_seed(seed, round, 0x9a1bull));
  rng.shuffle(order);
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(n / 2);
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    pairs.emplace_back(order[i], order[i + 1]);
  }
  return pairs;
}

int tournament_partner(const std::map<int, int>& population, int self,
                       std::uint64_t seed, std::size_t round) {
  const auto mine = population.find(self);
  LTFB_CHECK_MSG(mine != population.end(),
                 "trainer " << self << " is not in this round's population");
  const auto position =
      static_cast<int>(std::distance(population.begin(), mine));
  for (const auto& [a, b] : tournament_pairs(population.size(), seed, round)) {
    if (a == position || b == position) {
      return std::next(population.begin(), a == position ? b : a)->first;
    }
  }
  return -1;
}

std::vector<float> exchange_weights(const gan::CycleGan& model,
                                    ExchangeScope scope) {
  std::vector<float> flat = model.generator_weights();
  if (scope == ExchangeScope::FullModel) {
    const auto disc = model.discriminator_weights();
    flat.insert(flat.end(), disc.begin(), disc.end());
  }
  return flat;
}

void load_exchange_weights(gan::CycleGan& model, std::span<const float> flat,
                           ExchangeScope scope) {
  const std::size_t gen = model.generator_parameter_count();
  model.load_generator_weights(flat.subspan(0, gen));
  if (scope == ExchangeScope::FullModel) {
    model.load_discriminator_weights(flat.subspan(gen));
  }
}

bool gan_duel(GanTrainer& trainer, const LtfbConfig& config,
              std::span<const float> own, std::span<const float> received,
              TrainerRoundStat& stat) {
  const bool adopted = duel(
      [&] { return trainer.tournament_score(config.metric); },
      [&](std::span<const float> weights) {
        load_exchange_weights(trainer.model(), weights, config.scope);
      },
      own, received, stat);
  if (adopted) LTFB_COUNTER_ADD("ltfb/adoptions", 1);
  return adopted;
}

bool survives_peer_faults(const std::function<void()>& op,
                          bool fault_aware) {
  try {
    op();
    return true;
  } catch (const RankFailedError&) {
    if (!fault_aware) throw;
  } catch (const TimeoutError&) {
    if (!fault_aware) throw;
  }
  LTFB_COUNTER_ADD("ltfb/faults_detected", 1);
  return false;
}

void tournament_exchange(comm::Communicator& comm, int partner_rank, int tag,
                         GanTrainer& trainer, const LtfbConfig& config,
                         std::chrono::milliseconds deadline, bool fault_aware,
                         TrainerRoundStat& stat) {
  LTFB_CHECK_MSG(partner_rank >= 0 && partner_rank < comm.size() &&
                     partner_rank != comm.rank(),
                 "tournament partner rank " << partner_rank
                                            << " is not another rank of a "
                                            << comm.size() << "-rank comm");
  const std::vector<float> own =
      exchange_weights(trainer.model(), config.scope);
  // A failed exchange throws before any load: the own model stays put.
  stat.partner_failed = !survives_peer_faults(
      [&] {
        comm::Buffer received;
        {
          LTFB_SPAN("ltfb/exchange");
          received =
              comm.sendrecv(partner_rank, tag,
                            comm::Serializer::pack_floats(own), deadline);
        }
        gan_duel(trainer, config, own,
                 comm::Deserializer::unpack_floats(received), stat);
      },
      fault_aware);
  if (stat.partner_failed) LTFB_COUNTER_ADD("ltfb/rounds_degraded", 1);
}

std::size_t best_trainer(
    const std::vector<std::unique_ptr<GanTrainer>>& trainers,
    const std::vector<std::size_t>& validation_view, std::size_t batch_size) {
  LTFB_CHECK_MSG(!trainers.empty(), "best_trainer needs a population");
  std::size_t best = 0;
  double best_loss = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < trainers.size(); ++i) {
    const double loss = evaluate_gan(trainers[i]->model(),
                                     trainers[i]->dataset(), validation_view,
                                     batch_size)
                            .total();
    if (loss < best_loss) {
      best_loss = loss;
      best = i;
    }
  }
  return best;
}

LocalLtfbDriver::LocalLtfbDriver(
    std::vector<std::unique_ptr<GanTrainer>> trainers, LtfbConfig config)
    : trainers_(std::move(trainers)), config_(std::move(config)) {
  LTFB_CHECK_MSG(!trainers_.empty(), "LTFB needs at least one trainer");
  for (const auto& trainer : trainers_) {
    LTFB_CHECK(trainer != nullptr);
  }
  if (!config_.resume_from.empty()) {
    const PopulationCheckpoint checkpoint =
        load_population_checkpoint(config_.resume_from);
    LTFB_CHECK_MSG(checkpoint.trainers.size() == trainers_.size(),
                   "checkpoint holds " << checkpoint.trainers.size()
                                       << " trainers, driver has "
                                       << trainers_.size());
    LTFB_CHECK_MSG(checkpoint.pairing_seed == config_.pairing_seed,
                   "checkpoint pairing seed " << checkpoint.pairing_seed
                                              << " != configured seed "
                                              << config_.pairing_seed
                                              << "; resume would repair "
                                                 "trainers differently");
    for (std::size_t i = 0; i < trainers_.size(); ++i) {
      trainers_[i]->restore_state(checkpoint.trainers[i].trainer);
    }
    round_counter_ = static_cast<std::size_t>(checkpoint.round);
    history_ = checkpoint.history;
    resumed_ = true;
  }
}

GanTrainer& LocalLtfbDriver::trainer(std::size_t index) {
  LTFB_CHECK(index < trainers_.size());
  return *trainers_[index];
}

void LocalLtfbDriver::pretrain() {
  for (auto& trainer : trainers_) {
    trainer->pretrain_autoencoder(config_.pretrain_steps);
  }
}

const RoundRecord& LocalLtfbDriver::run_round() {
  LTFB_SPAN("ltfb/round");
  LTFB_COUNTER_ADD("ltfb/rounds", 1);
  const telemetry::Stopwatch round_clock;
  double fastest_train_s = std::numeric_limits<double>::infinity();
  double slowest_train_s = 0.0;
  // Independent training phase (lockstep stands in for parallel trainers).
  {
    LTFB_SPAN("ltfb/train_phase");
    for (auto& trainer : trainers_) {
      const telemetry::Stopwatch train_clock;
      trainer->train_steps(config_.steps_per_round);
      const double train_s = train_clock.elapsed_seconds();
      fastest_train_s = std::min(fastest_train_s, train_s);
      slowest_train_s = std::max(slowest_train_s, train_s);
    }
  }

  RoundRecord record;
  record.round = round_counter_;
  record.max_rank_gap_s =
      trainers_.empty() ? 0.0 : slowest_train_s - fastest_train_s;
  record.stats.resize(trainers_.size());
  for (std::size_t i = 0; i < trainers_.size(); ++i) {
    record.stats[i].trainer_id = trainers_[i]->id();
  }

  // Tournament: pair up, exchange, evaluate on the LOCAL tournament set,
  // keep the better model. Both sides snapshot before either adopts so the
  // exchange is symmetric (as if the messages crossed on the wire).
  LTFB_SPAN("ltfb/tournament");
  const auto pairs = tournament_pairs(trainers_.size(), config_.pairing_seed,
                                      round_counter_);
  for (const auto& [a, b] : pairs) {
    GanTrainer& ta = *trainers_[static_cast<std::size_t>(a)];
    GanTrainer& tb = *trainers_[static_cast<std::size_t>(b)];
    const std::vector<float> wa = exchange_weights(ta.model(), config_.scope);
    const std::vector<float> wb = exchange_weights(tb.model(), config_.scope);

    const float lr_a = ta.model().learning_rate();
    const float lr_b = tb.model().learning_rate();
    auto duel_side = [&](GanTrainer& local, const std::vector<float>& own,
                         const std::vector<float>& received, float partner_lr,
                         TrainerRoundStat& stat) {
      if (gan_duel(local, config_, own, received, stat) &&
          config_.lr_perturbation > 0.0f) {
        // PBT exploit/explore: inherit the winner's learning rate with a
        // deterministic perturbation.
        util::Rng rng(
            util::derive_seed(config_.pairing_seed, round_counter_,
                              static_cast<std::uint64_t>(local.id())));
        const float factor = static_cast<float>(rng.uniform(
            1.0 - config_.lr_perturbation, 1.0 + config_.lr_perturbation));
        local.model().set_learning_rate(partner_lr * factor);
      }
    };

    auto& stat_a = record.stats[static_cast<std::size_t>(a)];
    auto& stat_b = record.stats[static_cast<std::size_t>(b)];
    stat_a.partner_id = tb.id();
    stat_b.partner_id = ta.id();
    duel_side(ta, wa, wb, lr_b, stat_a);
    duel_side(tb, wb, wa, lr_a, stat_b);
  }

  ++round_counter_;
  record.wall_s = round_clock.elapsed_seconds();
  history_.push_back(std::move(record));
  if (config_.checkpoint_every > 0 && !config_.checkpoint_path.empty() &&
      round_counter_ % config_.checkpoint_every == 0) {
    save_checkpoint(config_.checkpoint_path);
  }
  return history_.back();
}

void LocalLtfbDriver::run() {
  if (!resumed_) pretrain();
  while (round_counter_ < config_.rounds) {
    run_round();
  }
}

void LocalLtfbDriver::save_checkpoint(const std::string& path) const {
  LTFB_SPAN("ltfb/checkpoint");
  PopulationCheckpoint checkpoint;
  checkpoint.round = round_counter_;
  checkpoint.pairing_seed = config_.pairing_seed;
  checkpoint.trainers.reserve(trainers_.size());
  for (const auto& trainer : trainers_) {
    TrainerSlot slot;
    slot.trainer = trainer->capture_state();
    for (const RoundRecord& record : history_) {
      for (const TrainerRoundStat& stat : record.stats) {
        if (stat.trainer_id != trainer->id() || stat.partner_id < 0) continue;
        if (stat.adopted_partner) {
          ++slot.adoptions;
        } else if (!stat.partner_failed) {
          ++slot.tournaments_won;
        }
      }
    }
    checkpoint.trainers.push_back(std::move(slot));
  }
  checkpoint.history = history_;
  save_population_checkpoint(path, checkpoint);
  LTFB_COUNTER_ADD("ltfb/checkpoints_written", 1);
}

bool export_history_csv(const std::vector<RoundRecord>& history,
                        const std::string& path) {
  // Atomic export: rows go to a temp sibling; only after a healthy
  // flush+close is it renamed over the target. An I/O failure (full disk,
  // unwritable directory) leaves no partial CSV behind.
  const std::string tmp = path + ".tmp";
  {
    util::CsvWriter csv(tmp, {"round", "event", "trainer", "partner",
                              "own_score", "partner_score", "adopted",
                              "partner_failed", "round_wall_s",
                              "max_rank_gap_s"});
    if (!csv.ok()) return false;
    for (const auto& record : history) {
      // Elastic churn (PR 8): population resizes are explicit `joined` /
      // `left` event rows, never silently misaligned per-trainer columns.
      // Event rows carry the round and the trainer; the tournament fields
      // are empty.
      for (const int trainer : record.joined) {
        csv.add_row({std::to_string(record.round), "joined",
                     std::to_string(trainer), "", "", "", "", "", "", ""});
      }
      for (const int trainer : record.left) {
        csv.add_row({std::to_string(record.round), "left",
                     std::to_string(trainer), "", "", "", "", "", "", ""});
      }
      for (const auto& stat : record.stats) {
        csv.add_row({std::to_string(record.round), "round",
                     std::to_string(stat.trainer_id),
                     std::to_string(stat.partner_id),
                     util::format_double(stat.own_score, 6),
                     util::format_double(stat.partner_score, 6),
                     stat.adopted_partner ? "1" : "0",
                     stat.partner_failed ? "1" : "0",
                     util::format_double(record.wall_s, 6),
                     util::format_double(record.max_rank_gap_s, 6)});
      }
    }
    if (!csv.close()) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace ltfb::core
