#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>

#include "bench.hpp"
#include "core/population_checkpoint.hpp"
#include "datastore/data_store.hpp"
#include "nn/parallel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ltfb_bench {

using namespace ltfb;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Recorder::close(const std::string& name, double start_s) {
  const double dur = now_s() - start_s;
  spans.push_back(Span{name, rank_, start_s, dur});
  series[name].push_back(dur);
  return dur;
}

// -- rank result files (spawned ranks) ----------------------------------------
//
// Line-oriented text; doubles in hexfloat so every value round-trips
// exactly (the determinism gates compare scores bit for bit).

namespace {

std::string hex(double value) {
  std::ostringstream out;
  out << std::hexfloat << value;
  return out.str();
}

double parse_double(const std::string& token) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  LTFB_CHECK_MSG(end != token.c_str() && *end == '\0',
                 "bad number '" << token << "' in rank result");
  return value;
}

}  // namespace

void write_rank_result(const std::filesystem::path& path,
                       const RankResult& result) {
  std::ofstream out(path, std::ios::trunc);
  LTFB_CHECK_MSG(out, "cannot write " << path);
  out << "rank " << result.rank << " " << result.aborted << " "
      << hex(result.enter_s) << " "
      << hex(result.final_val_loss) << "\n";
  if (!result.error.empty()) out << "error " << result.error << "\n";
  for (const core::RoundRecord& record : result.history) {
    const core::TrainerRoundStat& stat = record.stats.front();
    out << "round " << record.round << " " << stat.trainer_id << " "
        << stat.partner_id << " " << hex(stat.own_score) << " "
        << hex(stat.partner_score) << " " << stat.adopted_partner << " "
        << stat.partner_failed << " " << hex(record.wall_s) << "\n";
  }
  for (const auto& [name, values] : result.rec.series) {
    out << "series " << name << " " << values.size();
    for (const double v : values) out << " " << hex(v);
    out << "\n";
  }
  for (const Span& span : result.rec.spans) {
    out << "span " << span.name << " " << hex(span.start_s) << " "
        << hex(span.dur_s) << "\n";
  }
  out << "end\n";
  out.flush();
  LTFB_CHECK_MSG(out, "short write to " << path);
}

RankResult read_rank_result(const std::filesystem::path& path) {
  std::ifstream in(path);
  LTFB_CHECK_MSG(in, "missing rank result " << path);
  RankResult result;
  bool complete = false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "end") {
      complete = true;
      break;
    }
    if (kind == "error") {
      result.error = line.substr(6);
      continue;
    }
    std::vector<std::string> tok;
    for (std::string t; fields >> t;) tok.push_back(t);
    if (kind == "rank" && tok.size() == 4) {
      result.rank = std::stoi(tok[0]);
      result.aborted = tok[1] == "1";
      result.enter_s = parse_double(tok[2]);
      result.final_val_loss = parse_double(tok[3]);
    } else if (kind == "round" && tok.size() == 8) {
      core::TrainerRoundStat stat;
      stat.trainer_id = std::stoi(tok[1]);
      stat.partner_id = std::stoi(tok[2]);
      stat.own_score = parse_double(tok[3]);
      stat.partner_score = parse_double(tok[4]);
      stat.adopted_partner = tok[5] == "1";
      stat.partner_failed = tok[6] == "1";
      core::RoundRecord record;
      record.round = static_cast<std::size_t>(std::stoull(tok[0]));
      record.stats = {stat};
      record.wall_s = parse_double(tok[7]);
      result.history.push_back(std::move(record));
    } else if (kind == "series" && tok.size() >= 2) {
      const std::size_t n = static_cast<std::size_t>(std::stoull(tok[1]));
      LTFB_CHECK_MSG(tok.size() == n + 2, "truncated series in " << path);
      std::vector<double>& values = result.rec.series[tok[0]];
      for (std::size_t i = 0; i < n; ++i) {
        values.push_back(parse_double(tok[i + 2]));
      }
    } else if (kind == "span" && tok.size() == 3) {
      result.rec.spans.push_back(Span{tok[0], result.rank,
                                      parse_double(tok[1]),
                                      parse_double(tok[2])});
    } else {
      LTFB_CHECK_MSG(false, "malformed line '" << line << "' in " << path);
    }
  }
  LTFB_CHECK_MSG(complete, "rank result " << path << " is truncated");
  return result;
}

// -- traced replay of core::run_distributed_ltfb -----------------------------

namespace {

/// Rows [begin, end) of a batch (ltfb_comm.cpp's private slice_batch).
data::Batch slice_batch(const data::Batch& batch, std::size_t begin,
                        std::size_t end) {
  const std::size_t rows = end - begin;
  data::Batch shard;
  auto slice = [&](const tensor::Tensor& src, tensor::Tensor& dst) {
    const std::size_t width = src.cols();
    dst.resize({rows, width});
    std::copy_n(src.raw() + begin * width, rows * width, dst.raw());
  };
  slice(batch.inputs, shard.inputs);
  slice(batch.scalars, shard.scalars);
  slice(batch.images, shard.images);
  slice(batch.outputs, shard.outputs);
  shard.ids.assign(batch.ids.begin() + static_cast<std::ptrdiff_t>(begin),
                   batch.ids.begin() + static_cast<std::ptrdiff_t>(end));
  return shard;
}

/// Saves a one-slot population checkpoint, timing it as checkpoint.save;
/// a `probe` save (outside any round) is also summed as checkpoint.probe.
void save_slot(Recorder& rec, bool probe, const std::filesystem::path& path,
               core::GanTrainerState state, std::uint64_t round,
               std::uint64_t pairing_seed, std::size_t won,
               std::size_t adoptions,
               const std::vector<core::RoundRecord>& history) {
  const double t = now_s();
  core::PopulationCheckpoint ckpt;
  ckpt.round = round;
  ckpt.pairing_seed = pairing_seed;
  core::TrainerSlot slot;
  slot.trainer = std::move(state);
  slot.tournaments_won = won;
  slot.adoptions = adoptions;
  ckpt.trainers.push_back(std::move(slot));
  ckpt.history = history;
  core::save_population_checkpoint(path, ckpt);
  const double dur = rec.close("checkpoint.save", t);
  if (probe) rec.add("checkpoint.probe", dur);
  rec.add("checkpoint.bytes",
          static_cast<double>(std::filesystem::file_size(path)));
}

/// Bucketer wired into a model with the hook and the sync each timed into
/// per-step accumulators (a span per hook call would dwarf the trace).
struct TimedBucketer {
  TimedBucketer(comm::Communicator& comm, gan::CycleGan& model,
                std::chrono::milliseconds deadline)
      : bucketer(comm) {
    model.set_backward_hook([this](nn::Weights& w) {
      const double t = now_s();
      bucketer.on_layer_backward(w);
      hook_s += now_s() - t;
    });
    model.set_gradient_sync(
        [this, deadline](const std::vector<nn::Model*>& models) {
          const double t = now_s();
          bucketer.finish(models, deadline);
          finish_s += now_s() - t;
        });
  }
  TimedBucketer(const TimedBucketer&) = delete;
  TimedBucketer& operator=(const TimedBucketer&) = delete;

  /// Splits one step's duration into hook, finish and compute (recorded
  /// when `rec` is set), resets the accumulators and returns the time the
  /// step spent blocked in finish.
  double end_step(Recorder* rec, double step_s) {
    const double blocked = finish_s;
    if (rec != nullptr) {
      rec->add("allreduce.hook", hook_s);
      rec->add("allreduce.finish", finish_s);
      rec->add("gan.compute", step_s - hook_s - finish_s);
    }
    hook_s = 0.0;
    finish_s = 0.0;
    return blocked;
  }

  void record_totals(Recorder& rec, std::size_t synced_steps) {
    rec.add("allreduce.wire_bytes",
            static_cast<double>(bucketer.wire_bytes_sent()));
    rec.add("allreduce.buckets",
            static_cast<double>(bucketer.buckets_completed()));
    rec.add("allreduce.overlap", bucketer.overlap_fraction());
    rec.add("allreduce.synced_steps", static_cast<double>(synced_steps));
  }

  nn::GradientBucketer bucketer;
  double hook_s = 0.0;
  double finish_s = 0.0;
};

}  // namespace

RankResult replay_distributed_ltfb(comm::Communicator& world,
                                   const data::Dataset& dataset,
                                   const data::SplitIndices& splits,
                                   const core::DistributedLtfbConfig& config,
                                   const std::filesystem::path& probe_dir) {
  // run_distributed_ltfb's paths for the benchmark's configuration only:
  // generator exchange scored by forward+inverse loss, fault-aware
  // deadlines at their defaults, no resume.
  LTFB_CHECK(config.ltfb.scope == core::ExchangeScope::GeneratorOnly &&
             config.ltfb.metric == core::TournamentMetric::ForwardInverse &&
             config.comm_timeout.count() > 0 &&
             config.shrink_timeout.count() == 0 && config.resume_from.empty());
  const std::chrono::milliseconds exchange_deadline = config.comm_timeout;
  const std::chrono::milliseconds shrink_deadline = 4 * config.comm_timeout;

  RankResult out;
  out.rank = world.rank();
  out.enter_s = now_s();
  out.rec = Recorder(world.rank());
  Recorder& rec = out.rec;

  const int rpt = config.ranks_per_trainer;
  const int num_trainers = world.size() / rpt;
  const int trainer_id = world.rank() / rpt;

  double t = now_s();
  comm::Communicator trainer_comm = world.split(trainer_id, world.rank());
  rec.close("comm.split", t);
  const bool leader = trainer_comm.rank() == 0;
  t = now_s();
  comm::Communicator leader_comm = world.split(leader ? 0 : 1, trainer_id);
  rec.close("comm.split", t);

  const auto train_view = data::partition_indices(
      splits.train, static_cast<std::size_t>(num_trainers),
      static_cast<std::size_t>(trainer_id));
  const auto tournament_view = data::partition_indices(
      splits.tournament, static_cast<std::size_t>(num_trainers),
      static_cast<std::size_t>(trainer_id));

  gan::CycleGan model(config.model,
                      util::derive_seed(config.seed, "model",
                                        static_cast<std::uint64_t>(trainer_id)));
  data::MiniBatchReader reader(
      dataset, train_view, config.batch_size,
      util::derive_seed(config.seed, "reader",
                        static_cast<std::uint64_t>(trainer_id)),
      /*drop_last=*/true);
  const std::size_t shard = config.batch_size / static_cast<std::size_t>(rpt);
  const auto my_shard_begin =
      static_cast<std::size_t>(trainer_comm.rank()) * shard;

  auto score = [&](const std::vector<std::size_t>& view) {
    const double t0 = now_s();
    const double loss =
        core::evaluate_gan(model, dataset, view, config.batch_size).total();
    rec.close("gan.eval", t0);
    return loss;
  };
  auto load_generator = [&](std::span<const float> weights) {
    const double t0 = now_s();
    model.load_generator_weights(weights);
    rec.close("tournament.load_weights", t0);
  };
  auto next_shard = [&]() {
    const double t0 = now_s();
    const data::Batch batch = reader.next();
    data::Batch mine =
        slice_batch(batch, my_shard_begin, my_shard_begin + shard);
    rec.close("data.next_batch", t0);
    return mine;
  };

  std::optional<TimedBucketer> bucketer;
  if (rpt > 1) bucketer.emplace(trainer_comm, model, exchange_deadline);

  std::size_t won = 0;
  std::size_t adoptions = 0;
  std::uint64_t steps_taken = 0;
  auto capture = [&]() {
    core::GanTrainerState state;
    state.trainer_id = trainer_id;
    state.learning_rate = model.learning_rate();
    state.steps = steps_taken;
    state.reader_epoch = reader.epoch();
    state.reader_cursor = reader.cursor();
    state.generator = model.generator_weights();
    state.discriminator = model.discriminator_weights();
    state.optimizer_state = model.optimizer_state();
    return state;
  };

  for (std::size_t s = 0; s < config.ltfb.pretrain_steps; ++s) {
    const data::Batch mine = next_shard();
    t = now_s();
    model.pretrain_autoencoder_step(mine);
    const double step_s = rec.close("gan.pretrain_step", t);
    if (bucketer) bucketer->end_step(nullptr, step_s);
  }

  for (std::size_t round = 0; round < config.ltfb.rounds; ++round) {
    const double round_start = now_s();
    double round_wait = 0.0;  // blocked in finish/sendrecv/shrink/broadcast
    try {
      for (std::size_t s = 0; s < config.ltfb.steps_per_round; ++s) {
        const data::Batch mine = next_shard();
        t = now_s();
        model.train_step(mine);
        const double step_s = rec.close("gan.train_step", t);
        if (bucketer) {
          round_wait += bucketer->end_step(&rec, step_s);
        } else {
          rec.add("gan.compute", step_s);
        }
        ++steps_taken;
      }
    } catch (const RankFailedError&) {
      out.aborted = true;
      return out;
    } catch (const TimeoutError&) {
      out.aborted = true;
      return out;
    }
    rec.close("round.train_phase", round_start);

    core::TrainerRoundStat stat;
    stat.trainer_id = trainer_id;
    if (leader) {
      const double tour_start = now_s();
      std::vector<std::pair<int, int>> live;
      for (int r = 0; r < leader_comm.size(); ++r) {
        live.emplace_back(leader_comm.world_rank_of(r) / rpt, r);
      }
      std::sort(live.begin(), live.end());
      std::size_t my_pos = live.size();
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].first == trainer_id) my_pos = i;
      }
      LTFB_CHECK(my_pos < live.size());
      const auto pairs =
          core::tournament_pairs(live.size(), config.ltfb.pairing_seed, round);
      std::size_t partner_pos = live.size();
      for (const auto& [a, b] : pairs) {
        if (static_cast<std::size_t>(a) == my_pos) {
          partner_pos = static_cast<std::size_t>(b);
        }
        if (static_cast<std::size_t>(b) == my_pos) {
          partner_pos = static_cast<std::size_t>(a);
        }
      }
      if (partner_pos < live.size()) {
        stat.partner_id = live[partner_pos].first;
        const std::vector<float> own = model.generator_weights();
        try {
          t = now_s();
          const comm::Buffer received = leader_comm.sendrecv(
              live[partner_pos].second, static_cast<int>(round),
              comm::Serializer::pack_floats(own), exchange_deadline);
          round_wait += rec.close("tournament.exchange", t);
          rec.add("tournament.exchange_bytes",
                  static_cast<double>(received.size()));
          const std::vector<float> candidate =
              comm::Deserializer::unpack_floats(received);
          stat.own_score = score(tournament_view);
          load_generator(candidate);
          stat.partner_score = score(tournament_view);
          if (stat.partner_score < stat.own_score) {
            stat.adopted_partner = true;
            ++adoptions;
          } else {
            load_generator(own);
            ++won;
          }
        } catch (const RankFailedError&) {
          stat.partner_failed = true;
        } catch (const TimeoutError&) {
          stat.partner_failed = true;
        }
      }
      t = now_s();
      leader_comm = leader_comm.shrink(shrink_deadline);
      round_wait += rec.close("tournament.shrink", t);
      rec.close("tournament", tour_start);
    }

    if (leader) {
      core::RoundRecord record;
      record.round = round;
      record.stats = {stat};
      record.wall_s = now_s() - round_start;
      out.history.push_back(std::move(record));
    }

    if (rpt > 1) {
      t = now_s();
      try {
        comm::Buffer payload =
            leader ? comm::Serializer::pack_floats(model.generator_weights())
                   : comm::Buffer{};
        trainer_comm.broadcast(0, payload);
        if (!leader) {
          model.load_generator_weights(
              comm::Deserializer::unpack_floats(payload));
        }
      } catch (const RankFailedError&) {
        out.aborted = true;
        return out;
      }
      round_wait += rec.close("round.winner_bcast", t);
    }

    if (leader && config.checkpoint_every > 0 &&
        !config.checkpoint_dir.empty() &&
        (round + 1) % config.checkpoint_every == 0) {
      save_slot(rec, false,
                std::filesystem::path(config.checkpoint_dir) /
                    ("trainer_" + std::to_string(trainer_id) + ".pop"),
                capture(), round + 1, config.ltfb.pairing_seed, won,
                adoptions, out.history);
    }
    rec.close("round.full", round_start);
    rec.add("round.wait", round_wait);
  }

  float results[2] = {0.0f, 0.0f};
  double final_val_loss = 0.0;
  if (leader) {
    score(tournament_view);  // run_distributed_ltfb's final tournament score
    final_val_loss = score(splits.validation);
    results[1] = static_cast<float>(final_val_loss);
  }
  if (rpt > 1) {
    trainer_comm.broadcast(0, std::span<float>(results, 2));
    final_val_loss = results[1];
  }
  out.final_val_loss = final_val_loss;

  if (bucketer) {
    bucketer->record_totals(
        rec, config.ltfb.pretrain_steps + config.ltfb.rounds *
                                              config.ltfb.steps_per_round);
  }
  if (leader && config.checkpoint_every == 0) {
    save_slot(rec, true,
              probe_dir / ("probe_trainer_" + std::to_string(trainer_id) +
                           ".pop"),
              capture(), config.ltfb.rounds, config.ltfb.pairing_seed, won,
              adoptions, out.history);
  }
  return out;
}

// -- data-parallel trainer fed by the data store ------------------------------

namespace {

/// Epoch `epoch`'s shuffled visiting order over sample ids [0, n).
std::vector<data::SampleId> epoch_order(std::size_t n, std::uint64_t seed,
                                        std::size_t epoch) {
  std::vector<data::SampleId> order(n);
  std::iota(order.begin(), order.end(), data::SampleId{0});
  util::Rng rng(util::derive_seed(seed, "order", epoch));
  rng.shuffle(order);
  return order;
}

/// This rank's shard of each global batch, step after step.
class ShardSequence {
 public:
  ShardSequence(std::size_t samples, std::size_t batch, int ranks, int rank,
                std::uint64_t seed)
      : samples_(samples),
        batch_(batch),
        shard_(batch / static_cast<std::size_t>(ranks)),
        offset_(static_cast<std::size_t>(rank) * shard_),
        seed_(seed) {}

  std::size_t steps_per_epoch() const { return samples_ / batch_; }
  std::size_t shard() const { return shard_; }

  std::vector<data::SampleId> ids(std::size_t step) {
    const std::size_t epoch = step / steps_per_epoch();
    if (epoch != order_epoch_) {
      order_ = epoch_order(samples_, seed_, epoch);
      order_epoch_ = epoch;
    }
    const std::size_t begin = (step % steps_per_epoch()) * batch_ + offset_;
    return {order_.begin() + static_cast<std::ptrdiff_t>(begin),
            order_.begin() + static_cast<std::ptrdiff_t>(begin + shard_)};
  }

 private:
  std::size_t samples_, batch_, shard_, offset_;
  std::uint64_t seed_;
  std::vector<data::SampleId> order_;
  std::size_t order_epoch_ = static_cast<std::size_t>(-1);
};

/// Empty when the store returned exactly the requested ids, in order.
std::string check_ids(const std::vector<data::Sample>& samples,
                      const std::vector<data::SampleId>& wanted) {
  if (samples.size() != wanted.size()) return "fetch returned wrong count";
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    if (samples[i].id != wanted[i]) {
      return "fetch returned id " + std::to_string(samples[i].id) +
             " for requested id " + std::to_string(wanted[i]);
    }
  }
  return {};
}

/// Synchronous fetch over two epochs of the same id sequence on a fresh
/// store: files, then build_directory, then in-memory exchange.
void fetch_only_pass(comm::Communicator& world,
                     const DataParallelConfig& config, Recorder& rec,
                     std::string& error) {
  comm::Communicator store_comm = world.split(0, world.rank());
  datastore::DataStore store(store_comm, config.catalog,
                             datastore::PopulateMode::Dynamic);
  ShardSequence seq(config.catalog->total_samples(), config.batch_size,
                    world.size(), world.rank(), config.seed);
  const std::size_t steps = seq.steps_per_epoch();
  double t = now_s();
  for (std::size_t s = 0; s < steps && error.empty(); ++s) {
    const auto ids = seq.ids(s);
    error = check_ids(store.fetch(ids), ids);
  }
  rec.add("datastore.fetch_files", now_s() - t);
  t = now_s();
  store.build_directory();
  rec.add("datastore.build_directory", now_s() - t);
  rec.add("datastore.build_directory_samples",
          static_cast<double>(config.catalog->total_samples()));
  t = now_s();
  for (std::size_t s = steps; s < 2 * steps && error.empty(); ++s) {
    const auto ids = seq.ids(s);
    error = check_ids(store.fetch(ids), ids);
  }
  rec.add("datastore.fetch_memory", now_s() - t);
  rec.add("datastore.fetch_pass_samples",
          static_cast<double>(steps * seq.shard()));
}

}  // namespace

RankResult train_data_parallel(comm::Communicator& world,
                               const DataParallelConfig& config, bool traced,
                               const std::filesystem::path& probe_dir) {
  RankResult out;
  out.rank = world.rank();
  const bool root = world.rank() == 0;
  out.enter_s = now_s();
  out.rec = Recorder(world.rank());
  Recorder& rec = out.rec;
  // Untraced runs only keep the block walls; every other mark is dropped.
  auto mark = [&](const char* name, double t0) {
    return traced ? rec.close(name, t0) : now_s() - t0;
  };

  LTFB_CHECK(config.batch_size % static_cast<std::size_t>(world.size()) == 0);
  double t = now_s();
  // The store owns its own communicator: its prefetch thread exchanges
  // samples while this thread's bucketer all-reduces over `world`.
  comm::Communicator store_comm = world.split(0, world.rank());
  mark("comm.split", t);
  datastore::DataStore store(store_comm, config.catalog,
                             datastore::PopulateMode::Dynamic);
  gan::CycleGan model(config.model, util::derive_seed(config.seed, "model"));
  TimedBucketer bucketer(world, model, std::chrono::milliseconds(60'000));
  ShardSequence seq(config.catalog->total_samples(), config.batch_size,
                    world.size(), world.rank(), config.seed);
  std::vector<std::size_t> positions(seq.shard());
  std::iota(positions.begin(), positions.end(), std::size_t{0});

  const std::size_t total_steps =
      config.pretrain_steps + config.blocks * config.steps_per_block;
  std::vector<data::SampleId> pending = seq.ids(0);
  if (total_steps > 0) store.begin_fetch(pending);
  double block_start = 0.0;
  double block_wait = 0.0;  // blocked in collect_fetch and bucketer finish
  gan::StepMetrics last;
  std::size_t memory_requests = 0;
  for (std::size_t step = 0; step < total_steps; ++step) {
    const double step_start = now_s();
    if (step == config.pretrain_steps) {
      block_start = step_start;
      block_wait = 0.0;
    }
    if (store.has_directory()) memory_requests += pending.size();
    t = now_s();
    std::vector<data::Sample> samples = store.collect_fetch();
    block_wait += mark("datastore.collect_fetch", t);
    if (out.error.empty()) out.error = check_ids(samples, pending);
    // Epoch 1 ends: freeze sample ownership before the next fetch.
    if (!store.has_directory() && step + 1 == seq.steps_per_epoch()) {
      t = now_s();
      store.build_directory();
      mark("datastore.build_directory", t);
      if (traced) {
        rec.add("datastore.build_directory_samples",
                static_cast<double>(config.catalog->total_samples()));
      }
    }
    if (step + 1 < total_steps) {
      pending = seq.ids(step + 1);
      store.begin_fetch(pending);
    }

    t = now_s();
    const data::Dataset fetched(config.catalog->schema(), std::move(samples));
    const data::Batch batch = data::make_batch(fetched, positions);
    mark("data.next_batch", t);

    t = now_s();
    if (step < config.pretrain_steps) {
      model.pretrain_autoencoder_step(batch);
      bucketer.end_step(nullptr, mark("gan.pretrain_step", t));
      mark("datastore.step", step_start);
      continue;
    }
    last = model.train_step(batch);
    block_wait += bucketer.end_step(traced ? &rec : nullptr,
                                    mark("gan.train_step", t));
    mark("datastore.step", step_start);

    const std::size_t done = step + 1 - config.pretrain_steps;
    if (done % config.steps_per_block == 0) {
      const double block_wall = now_s() - block_start;
      if (traced) {
        rec.close("round.train_phase", block_start);
        rec.close("round.full", block_start);
        rec.add("round.wait", block_wait);
      }
      if (root) {
        core::TrainerRoundStat stat;
        stat.own_score = last.fidelity_loss;
        stat.partner_score = last.cycle_loss;
        core::RoundRecord record;
        record.round = done / config.steps_per_block - 1;
        record.stats = {stat};
        record.wall_s = block_wall;
        out.history.push_back(std::move(record));
      }
      block_start = now_s();
      block_wait = 0.0;
    }
  }

  for (nn::Model* component : model.components()) {
    if (!nn::weights_in_sync(*component, world) && out.error.empty()) {
      out.error = "replica weights diverged in " + component->name();
    }
  }
  if (root) {
    std::vector<std::size_t> all(config.validation->size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    t = now_s();
    out.final_val_loss =
        core::evaluate_gan(model, *config.validation, all, config.batch_size)
            .total();
    mark("gan.eval", t);
  }
  if (!traced) return out;

  const datastore::DataStoreStats& stats = store.stats();
  rec.add("datastore.remote_fetches", static_cast<double>(stats.remote_fetches));
  rec.add("datastore.memory_requests", static_cast<double>(memory_requests));
  rec.add("datastore.bytes_exchanged",
          static_cast<double>(stats.bytes_exchanged));
  rec.add("datastore.steps", static_cast<double>(total_steps));
  world.barrier();  // every rank's reads are in the catalog counters
  if (root) {
    rec.add("datastore.file_opens",
            static_cast<double>(config.catalog->stats().file_opens));
  }
  bucketer.record_totals(rec, total_steps);
  fetch_only_pass(world, config, rec, out.error);
  if (root) {
    core::GanTrainerState state;
    state.learning_rate = model.learning_rate();
    state.steps = config.blocks * config.steps_per_block;
    state.generator = model.generator_weights();
    state.discriminator = model.discriminator_weights();
    state.optimizer_state = model.optimizer_state();
    save_slot(rec, true, probe_dir / "probe_data_parallel.pop", std::move(state),
              config.blocks, 0, 0, 0, out.history);
  }
  return out;
}

}  // namespace ltfb_bench
