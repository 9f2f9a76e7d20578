#include "core/ltfb_comm.hpp"

#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "core/metrics_aggregator.hpp"
#include "core/population_checkpoint.hpp"
#include "nn/parallel.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace ltfb::core {

DistributedLtfbOutcome run_distributed_ltfb(
    comm::Communicator& world, const data::Dataset& dataset,
    const data::SplitIndices& splits, const DistributedLtfbConfig& config) {
  const int rpt = config.ranks_per_trainer;
  LTFB_CHECK_MSG(rpt > 0 && world.size() % rpt == 0,
                 "world size " << world.size()
                               << " is not a multiple of ranks_per_trainer "
                               << rpt);
  LTFB_CHECK_MSG(config.batch_size % static_cast<std::size_t>(rpt) == 0,
                 "batch size must divide evenly across a trainer's ranks");
  // LtfbConfig fields only LocalLtfbDriver reads: fail rather than ignore.
  LTFB_CHECK_MSG(config.ltfb.checkpoint_path.empty(),
                 "run_distributed_ltfb ignores ltfb.checkpoint_path; set "
                 "DistributedLtfbConfig::checkpoint_dir instead");
  LTFB_CHECK_MSG(config.ltfb.checkpoint_every == 0,
                 "run_distributed_ltfb ignores ltfb.checkpoint_every; set "
                 "DistributedLtfbConfig::checkpoint_every instead");
  LTFB_CHECK_MSG(config.ltfb.resume_from.empty(),
                 "run_distributed_ltfb ignores ltfb.resume_from; set "
                 "DistributedLtfbConfig::resume_from instead");
  LTFB_CHECK_MSG(config.ltfb.lr_perturbation == 0.0f,
                 "run_distributed_ltfb ignores ltfb.lr_perturbation; "
                 "learning-rate inheritance runs in LocalLtfbDriver only");
  const int num_trainers = world.size() / rpt;
  const int trainer_id = world.rank() / rpt;

  // Attribute this rank's telemetry (spans, metrics) to its world rank.
  // World::run_ranks already binds rank threads; binding here too keeps
  // direct callers (custom harnesses, single-rank drivers) attributed.
  telemetry::bind_rank(world.rank() < telemetry::detail::kMaxRankScopes
                           ? world.rank()
                           : -1);

  comm::Communicator trainer_comm = world.split(trainer_id, world.rank());
  const bool leader = trainer_comm.rank() == 0;
  comm::Communicator leader_comm = world.split(leader ? 0 : 1, trainer_id);

  // -- per-trainer state (identical across the trainer's ranks) -------------
  // Every rank of a trainer draws the SAME global mini-batch (shared seed)
  // and trains on its own row shard — LBANN's data-parallel layout.
  const auto parts = static_cast<std::size_t>(num_trainers);
  const auto part = static_cast<std::size_t>(trainer_id);
  GanTrainer trainer(trainer_id, config.model, dataset,
                     data::partition_indices(splits.train, parts, part),
                     data::partition_indices(splits.tournament, parts, part),
                     config.batch_size, config.seed);
  const std::size_t shard = config.batch_size / static_cast<std::size_t>(rpt);
  trainer.set_row_shard(static_cast<std::size_t>(trainer_comm.rank()) * shard,
                        shard);

  DistributedLtfbOutcome outcome;
  outcome.trainer_id = trainer_id;
  outcome.trainer_rank = trainer_comm.rank();

  // Fault-aware mode: exchanges carry deadlines and the leader population
  // shrinks around dead trainers. comm_timeout == 0 selects the legacy
  // fail-stop lockstep (no deadlines, errors propagate).
  const bool fault_aware = config.comm_timeout.count() > 0;
  const std::chrono::milliseconds exchange_deadline =
      fault_aware ? config.comm_timeout
                  : std::chrono::milliseconds(std::chrono::hours(24));
  const std::chrono::milliseconds shrink_deadline =
      config.shrink_timeout.count() > 0 ? config.shrink_timeout
                                        : 4 * config.comm_timeout;

  // In-band cluster metric aggregation at round boundaries (DESIGN.md §11).
  // The activation predicate (telemetry enabled + an output requested) is
  // uniform across ranks, so the gather stays collective; when inactive the
  // aggregator performs zero communication and fault-injection op counters
  // are unperturbed.
  ClusterMetricsAggregator aggregator(
      {.timeseries_path = config.metrics_timeseries_path,
       .live_progress = config.live_progress,
       .gather_deadline = exchange_deadline,
       .world_size = world.size(),
       .world_rank = world.rank()});

  // Data-parallel gradient averaging across the trainer's ranks: each
  // model's final backward pass packs its gradients into the bucketer, and
  // the optimizer-step sync averages them with one ring all-reduce under
  // the exchange deadline.
  std::optional<nn::GradientBucketer> bucketer;
  if (rpt > 1) {
    bucketer.emplace(trainer_comm);
    trainer.set_backward_hook(
        [&bucketer](nn::Weights& w) { bucketer->on_layer_backward(w); });
    trainer.set_gradient_sync(
        [&bucketer, exchange_deadline](const std::vector<nn::Model*>& ms) {
          bucketer->finish(ms, exchange_deadline);
        });
  }

  // -- restore or warm up -----------------------------------------------------
  std::size_t start_round = 0;
  if (!config.resume_from.empty()) {
    // Trainer state is replicated across a trainer's ranks, so the slot
    // checkpoint its leader wrote restores every rank of the trainer.
    const std::filesystem::path slot_path =
        std::filesystem::path(config.resume_from) /
        ("trainer_" + std::to_string(trainer_id) + ".pop");
    const PopulationCheckpoint ckpt = load_population_checkpoint(slot_path);
    LTFB_CHECK_MSG(ckpt.trainers.size() == 1,
                   "distributed slot checkpoint must hold exactly one "
                   "trainer, found "
                       << ckpt.trainers.size());
    LTFB_CHECK_MSG(ckpt.pairing_seed == config.ltfb.pairing_seed,
                   "checkpoint pairing seed does not match configuration");
    const TrainerSlot& slot = ckpt.trainers.front();
    trainer.restore_state(slot.trainer);
    outcome.tournaments_won = static_cast<std::size_t>(slot.tournaments_won);
    outcome.adoptions = static_cast<std::size_t>(slot.adoptions);
    if (leader) outcome.history = ckpt.history;
    start_round = static_cast<std::size_t>(ckpt.round);
  } else {
    trainer.pretrain_autoencoder(config.ltfb.pretrain_steps);
  }

  // -- LTFB rounds -------------------------------------------------------------
  for (std::size_t round = start_round; round < config.ltfb.rounds; ++round) {
    LTFB_SPAN("ltfb/round");
    telemetry::flight::heartbeat();
    LTFB_COUNTER_ADD("ltfb/rounds", 1);
    const telemetry::Stopwatch round_clock;
    const bool trained = survives_peer_faults(
        [&] {
          LTFB_SPAN("ltfb/train_phase");
          trainer.train_steps(config.ltfb.steps_per_round);
        },
        fault_aware);
    if (!trained) {
      // A rank of THIS trainer died mid-step (gradient all-reduce hit the
      // corpse) or its bucket traffic was lost past the deadline. The
      // trainer cannot continue data-parallel training; its survivors leave
      // the population and the other trainers route around them.
      outcome.aborted = true;
      return outcome;
    }

    TrainerRoundStat stat;
    stat.trainer_id = trainer_id;
    if (leader) {
      LTFB_SPAN("ltfb/tournament");
      // Pair only LIVE trainers: the leader communicator (post-shrink) is
      // the authoritative membership list. With no failures this reduces
      // exactly to the legacy all-trainer pairing.
      std::map<int, int> live;  // trainer id -> leader_comm rank
      for (int r = 0; r < leader_comm.size(); ++r) {
        live[leader_comm.world_rank_of(r) / rpt] = r;
      }
      stat.partner_id =
          tournament_partner(live, trainer_id, config.ltfb.pairing_seed, round);
      if (stat.partner_id >= 0) {
        tournament_exchange(leader_comm, live.at(stat.partner_id),
                            static_cast<int>(round), trainer, config.ltfb,
                            exchange_deadline, fault_aware, stat);
        if (stat.partner_failed) {
          ++outcome.partner_failures;
        } else if (stat.adopted_partner) {
          ++outcome.adoptions;
        } else {
          ++outcome.tournaments_won;
        }
      }

      // Survivor agreement: shrink the leader communicator around any
      // trainer that died this round, so the next round's pairing draws
      // from live trainers only (ULFM MPI_Comm_shrink in miniature).
      if (fault_aware) {
        leader_comm = leader_comm.shrink(shrink_deadline);
      }
    }

    // Round boundary: every surviving rank ships its telemetry delta up
    // the aggregation tree (leaders gather their trainer, the root leader
    // gathers the cluster — no-op when the aggregator is inactive). The
    // leader's return value is its trainer's step-time straggler spread.
    const double round_wall_s = round_clock.elapsed_seconds();
    telemetry::flight::heartbeat();
    const double rank_gap_s = aggregator.round_boundary(
        round, trainer_comm, leader_comm, leader, leader ? &stat : nullptr,
        round_wall_s);
    if (leader) {
      RoundRecord record;
      record.round = round;
      record.stats = {stat};
      record.wall_s = round_wall_s;
      record.max_rank_gap_s = rank_gap_s;
      outcome.history.push_back(std::move(record));
    }

    // Winner propagation within the trainer: the leader's current weights
    // become the trainer's weights.
    if (rpt > 1) {
      try {
        LTFB_SPAN("ltfb/broadcast_winner");
        comm::Buffer payload =
            leader ? comm::Serializer::pack_floats(exchange_weights(
                         trainer.model(), config.ltfb.scope))
                   : comm::Buffer{};
        trainer_comm.broadcast(0, payload);
        if (!leader) {
          load_exchange_weights(trainer.model(),
                                comm::Deserializer::unpack_floats(payload),
                                config.ltfb.scope);
        }
      } catch (const RankFailedError&) {
        if (!fault_aware) throw;
        LTFB_COUNTER_ADD("ltfb/faults_detected", 1);
        outcome.aborted = true;
        return outcome;
      }
    }

    // Slot checkpoint: the leader's state is the trainer's state (replicas
    // are identical after the winner broadcast), so one file per trainer
    // suffices for a full-population restart.
    if (leader && config.checkpoint_every > 0 &&
        !config.checkpoint_dir.empty() &&
        (round + 1) % config.checkpoint_every == 0) {
      PopulationCheckpoint ckpt;
      ckpt.round = round + 1;
      ckpt.pairing_seed = config.ltfb.pairing_seed;
      TrainerSlot slot;
      slot.trainer = trainer.capture_state();
      slot.tournaments_won = outcome.tournaments_won;
      slot.adoptions = outcome.adoptions;
      ckpt.trainers.push_back(std::move(slot));
      ckpt.history = outcome.history;
      save_population_checkpoint(
          std::filesystem::path(config.checkpoint_dir) /
              ("trainer_" + std::to_string(trainer_id) + ".pop"),
          ckpt);
      LTFB_COUNTER_ADD("ltfb/checkpoints_written", 1);
    }
  }

  // -- final evaluation ---------------------------------------------------------
  float results[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  if (leader) {
    outcome.final_tournament_score =
        trainer.tournament_score(config.ltfb.metric);
    outcome.final_validation_loss =
        evaluate_gan(trainer.model(), dataset, splits.validation,
                     config.batch_size)
            .total();
    results[0] = static_cast<float>(outcome.final_tournament_score);
    results[1] = static_cast<float>(outcome.final_validation_loss);
    results[2] = static_cast<float>(outcome.tournaments_won);
    results[3] = static_cast<float>(outcome.adoptions);
  }
  if (rpt > 1) {
    trainer_comm.broadcast(0, std::span<float>(results, 4));
    outcome.final_tournament_score = results[0];
    outcome.final_validation_loss = results[1];
    outcome.tournaments_won = static_cast<std::size_t>(results[2]);
    outcome.adoptions = static_cast<std::size_t>(results[3]);
  }
  return outcome;
}

}  // namespace ltfb::core
