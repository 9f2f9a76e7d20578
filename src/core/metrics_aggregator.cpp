#include "core/metrics_aggregator.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "util/logging.hpp"

namespace ltfb::core {

namespace {

// User-tag namespace for aggregation traffic: far above the tournament
// tags (the round number) and the gradient-bucket tags (1<<20 + seq).
constexpr int kAggTagBase = 1 << 24;

int agg_tag(std::size_t round) {
  return kAggTagBase + static_cast<int>(round % (1 << 20));
}

// -- payload (de)serialization ----------------------------------------------
//
// One rank's round delta:
//   u32 world_rank | u8 has_stat
//   [i32 trainer, i32 partner, f64 own, f64 partner, u8 adopted,
//    u8 partner_failed, f64 round_wall_s]        (when has_stat)
//   u32 n_counters  { u16 len, name, u64 delta }
//   u32 n_timers    { u16 len, name, u64 dcount, f64 dtotal }
//   u32 n_gauges    { u16 len, name, f64 value }
// A leader bundle is u32 n_payloads of length-prefixed rank deltas.

template <typename T>
void put(comm::Buffer& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

void put_string(comm::Buffer& out, const std::string& s) {
  LTFB_CHECK_MSG(s.size() <= 0xffff,
                 "metric name too long to serialize: " << s.size()
                                                       << " bytes");
  put<std::uint16_t>(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

struct ByteReader {
  const comm::Buffer& buffer;
  std::size_t pos = 0;

  template <typename T>
  T take() {
    static_assert(std::is_trivially_copyable_v<T>);
    LTFB_CHECK_MSG(pos + sizeof(T) <= buffer.size(),
                   "metrics payload truncated at offset " << pos);
    T value;
    std::memcpy(&value, buffer.data() + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }

  std::string take_string() {
    const auto len = take<std::uint16_t>();
    LTFB_CHECK_MSG(pos + len <= buffer.size(),
                   "metrics payload truncated at offset " << pos);
    std::string s(reinterpret_cast<const char*>(buffer.data() + pos), len);
    pos += len;
    return s;
  }
};

struct TimerDelta {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
};

/// One rank's decoded round delta.
struct RankDelta {
  int world_rank = -1;
  bool has_stat = false;
  TrainerRoundStat stat;
  double round_wall_s = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<TimerDelta> timers;
  std::vector<std::pair<std::string, double>> gauges;

  double timer_total(std::string_view name) const {
    for (const auto& t : timers) {
      if (t.name == name) return t.total_s;
    }
    return 0.0;
  }
  std::uint64_t timer_count(std::string_view name) const {
    for (const auto& t : timers) {
      if (t.name == name) return t.count;
    }
    return 0;
  }
  /// Mean duration of this rank's "trainer/step" samples this round, or a
  /// negative sentinel when the rank took no steps.
  double step_mean_s() const {
    const std::uint64_t count = timer_count("trainer/step");
    if (count == 0) return -1.0;
    return timer_total("trainer/step") / static_cast<double>(count);
  }
};

comm::Buffer encode_delta(int world_rank, const TrainerRoundStat* stat,
                          double round_wall_s,
                          const telemetry::MetricsSnapshot& delta) {
  comm::Buffer out;
  put<std::uint32_t>(out, static_cast<std::uint32_t>(world_rank));
  put<std::uint8_t>(out, stat != nullptr ? 1 : 0);
  if (stat != nullptr) {
    put<std::int32_t>(out, stat->trainer_id);
    put<std::int32_t>(out, stat->partner_id);
    put<double>(out, stat->own_score);
    put<double>(out, stat->partner_score);
    put<std::uint8_t>(out, stat->adopted_partner ? 1 : 0);
    put<std::uint8_t>(out, stat->partner_failed ? 1 : 0);
    put<double>(out, round_wall_s);
  }
  std::uint32_t n = 0;
  for (const auto& c : delta.counters) n += c.value > 0 ? 1 : 0;
  put<std::uint32_t>(out, n);
  for (const auto& c : delta.counters) {
    if (c.value == 0) continue;
    put_string(out, c.name);
    put<std::uint64_t>(out, c.value);
  }
  n = 0;
  for (const auto& t : delta.timers) n += t.count > 0 ? 1 : 0;
  put<std::uint32_t>(out, n);
  for (const auto& t : delta.timers) {
    if (t.count == 0) continue;
    put_string(out, t.name);
    put<std::uint64_t>(out, t.count);
    put<double>(out, t.total_s);
  }
  n = 0;
  for (const auto& g : delta.gauges) n += g.sets > 0 ? 1 : 0;
  put<std::uint32_t>(out, n);
  for (const auto& g : delta.gauges) {
    if (g.sets == 0) continue;
    put_string(out, g.name);
    put<double>(out, g.value);
  }
  return out;
}

RankDelta decode_delta(ByteReader& reader) {
  RankDelta delta;
  delta.world_rank = static_cast<int>(reader.take<std::uint32_t>());
  delta.has_stat = reader.take<std::uint8_t>() != 0;
  if (delta.has_stat) {
    delta.stat.trainer_id = reader.take<std::int32_t>();
    delta.stat.partner_id = reader.take<std::int32_t>();
    delta.stat.own_score = reader.take<double>();
    delta.stat.partner_score = reader.take<double>();
    delta.stat.adopted_partner = reader.take<std::uint8_t>() != 0;
    delta.stat.partner_failed = reader.take<std::uint8_t>() != 0;
    delta.round_wall_s = reader.take<double>();
  }
  auto n = reader.take<std::uint32_t>();
  delta.counters.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = reader.take_string();
    const auto value = reader.take<std::uint64_t>();
    delta.counters.emplace_back(std::move(name), value);
  }
  n = reader.take<std::uint32_t>();
  delta.timers.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    TimerDelta t;
    t.name = reader.take_string();
    t.count = reader.take<std::uint64_t>();
    t.total_s = reader.take<double>();
    delta.timers.push_back(std::move(t));
  }
  n = reader.take<std::uint32_t>();
  delta.gauges.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = reader.take_string();
    const auto value = reader.take<double>();
    delta.gauges.emplace_back(std::move(name), value);
  }
  return delta;
}

comm::Buffer encode_bundle(const std::vector<comm::Buffer>& payloads) {
  comm::Buffer out;
  put<std::uint32_t>(out, static_cast<std::uint32_t>(payloads.size()));
  for (const auto& payload : payloads) {
    put<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

std::vector<RankDelta> decode_bundle(const comm::Buffer& bundle) {
  ByteReader outer{bundle};
  const auto count = outer.take<std::uint32_t>();
  std::vector<RankDelta> deltas;
  deltas.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto len = outer.take<std::uint32_t>();
    LTFB_CHECK_MSG(outer.pos + len <= bundle.size(),
                   "metrics bundle truncated at offset " << outer.pos);
    const comm::Buffer payload(
        bundle.begin() + static_cast<std::ptrdiff_t>(outer.pos),
        bundle.begin() + static_cast<std::ptrdiff_t>(outer.pos + len));
    outer.pos += len;
    ByteReader inner{payload};
    deltas.push_back(decode_delta(inner));
  }
  return deltas;
}

/// Max-min spread of per-rank mean step times over a delta set (ranks
/// that took no steps this round are excluded).
double step_gap_s(const std::vector<RankDelta>& deltas) {
  double fastest = 0.0;
  double slowest = 0.0;
  bool any = false;
  for (const auto& delta : deltas) {
    const double mean = delta.step_mean_s();
    if (mean < 0.0) continue;
    fastest = any ? std::min(fastest, mean) : mean;
    slowest = any ? std::max(slowest, mean) : mean;
    any = true;
  }
  return any ? slowest - fastest : 0.0;
}

}  // namespace

ClusterMetricsAggregator::ClusterMetricsAggregator(Options options)
    : options_(std::move(options)) {
  if (options_.timeseries_path.empty()) {
    if (const char* env = std::getenv("LTFB_METRICS_TIMESERIES")) {
      options_.timeseries_path = env;
    }
  }
  active_ = telemetry::enabled() &&
            (!options_.timeseries_path.empty() || options_.live_progress);
  if (!active_) return;
  LTFB_CHECK_MSG(options_.gather_deadline.count() > 0,
                 "metrics aggregation needs a positive gather deadline, got "
                     << options_.gather_deadline.count() << "ms");
  LTFB_CHECK_MSG(options_.world_size > 0 && options_.world_rank >= 0 &&
                     options_.world_rank < options_.world_size,
                 "metrics aggregator rank " << options_.world_rank
                                            << " out of range for world "
                                            << options_.world_size);
  if (options_.world_rank < telemetry::detail::kMaxRankScopes) {
    snapshot_rank_ = options_.world_rank;
    baseline_ = telemetry::Registry::instance().snapshot_rank(snapshot_rank_);
  }
}

void ClusterMetricsAggregator::note_churn(std::vector<int> joined,
                                          std::vector<int> left,
                                          int population) {
  LTFB_CHECK_MSG(population >= 0,
                 "note_churn population must be non-negative, got "
                     << population);
  churn_joined_ = std::move(joined);
  churn_left_ = std::move(left);
  churn_population_ = population;
}

telemetry::MetricsSnapshot ClusterMetricsAggregator::delta_since_baseline() {
  telemetry::MetricsSnapshot delta;
  if (snapshot_rank_ < 0) return delta;  // unattributed rank: empty delta
  telemetry::MetricsSnapshot current =
      telemetry::Registry::instance().snapshot_rank(snapshot_rank_);
  // Diff by name against the previous boundary. Metrics registered since
  // the baseline simply have no entry there (delta = full value).
  std::map<std::string, std::uint64_t> prev_counters;
  for (const auto& c : baseline_.counters) prev_counters[c.name] = c.value;
  std::map<std::string, std::pair<std::uint64_t, double>> prev_timers;
  for (const auto& t : baseline_.timers) {
    prev_timers[t.name] = {t.count, t.total_s};
  }
  for (const auto& c : current.counters) {
    const auto it = prev_counters.find(c.name);
    const std::uint64_t prev = it == prev_counters.end() ? 0 : it->second;
    delta.counters.push_back({c.name, c.value - prev});
  }
  for (const auto& t : current.timers) {
    const auto it = prev_timers.find(t.name);
    const std::uint64_t prev_count =
        it == prev_timers.end() ? 0 : it->second.first;
    const double prev_total = it == prev_timers.end() ? 0.0 : it->second.second;
    telemetry::TimerStat stat;
    stat.name = t.name;
    stat.count = t.count - prev_count;
    stat.total_s = t.total_s - prev_total;
    // Interval min/max/percentiles are not derivable from two cumulative
    // snapshots; count and total are what the aggregates consume.
    delta.timers.push_back(std::move(stat));
  }
  // Gauges are levels, not accumulators: ship the current value for any
  // gauge this rank has ever set.
  delta.gauges = current.gauges;
  baseline_ = std::move(current);
  return delta;
}

double ClusterMetricsAggregator::round_boundary(
    std::size_t round, comm::Communicator& trainer_comm,
    comm::Communicator& leader_comm, bool leader,
    const TrainerRoundStat* leader_stat, double round_wall_s) {
  if (!active_) return 0.0;
  LTFB_SPAN("ltfb/metrics_aggregation");
  const telemetry::MetricsSnapshot delta = delta_since_baseline();
  const comm::Buffer my_payload = encode_delta(
      options_.world_rank, leader ? leader_stat : nullptr, round_wall_s,
      delta);
  const int tag = agg_tag(round);

  // Hop 1: trainer ranks -> leader. Sends are non-blocking mailbox pushes,
  // so non-leaders fire and return to the winner broadcast.
  if (!leader) {
    try {
      trainer_comm.send(0, tag, my_payload);
    } catch (const RankFailedError&) {
      // Leader died; this trainer is about to abort in the broadcast.
    }
    return 0.0;
  }
  std::vector<comm::Buffer> trainer_payloads;
  trainer_payloads.push_back(my_payload);
  for (int r = 1; r < trainer_comm.size(); ++r) {
    try {
      trainer_payloads.push_back(
          trainer_comm.recv(r, tag, options_.gather_deadline));
    } catch (const RankFailedError&) {
      LTFB_COUNTER_ADD("ltfb/metrics_ranks_missing", 1);
    } catch (const TimeoutError&) {
      LTFB_COUNTER_ADD("ltfb/metrics_ranks_missing", 1);
    }
  }
  std::vector<RankDelta> my_trainer;
  my_trainer.reserve(trainer_payloads.size());
  for (const auto& payload : trainer_payloads) {
    ByteReader reader{payload};
    my_trainer.push_back(decode_delta(reader));
  }
  const double trainer_gap_s = step_gap_s(my_trainer);

  // Hop 2: leaders -> root leader, over the post-shrink leader
  // communicator (dead trainers are already excluded).
  if (leader_comm.rank() != 0) {
    try {
      leader_comm.send(0, tag, encode_bundle(trainer_payloads));
    } catch (const RankFailedError&) {
      LTFB_COUNTER_ADD("ltfb/metrics_ranks_missing", 1);
    }
    return trainer_gap_s;
  }
  std::vector<RankDelta> cluster = my_trainer;
  for (int r = 1; r < leader_comm.size(); ++r) {
    try {
      const comm::Buffer bundle =
          leader_comm.recv(r, tag, options_.gather_deadline);
      std::vector<RankDelta> deltas = decode_bundle(bundle);
      cluster.insert(cluster.end(),
                     std::make_move_iterator(deltas.begin()),
                     std::make_move_iterator(deltas.end()));
    } catch (const RankFailedError&) {
      LTFB_COUNTER_ADD("ltfb/metrics_ranks_missing", 1);
    } catch (const TimeoutError&) {
      LTFB_COUNTER_ADD("ltfb/metrics_ranks_missing", 1);
    }
  }

  // -- fold ----------------------------------------------------------------
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<std::uint64_t, double>> timers;
  telemetry::RunningStats round_steps;
  std::vector<int> reporting;
  int winner_trainer = -1;
  double winner_score = 0.0;
  std::size_t leader_stats = 0;
  std::size_t adoptions = 0;
  double max_round_wall_s = 0.0;
  for (const auto& delta : cluster) {
    reporting.push_back(delta.world_rank);
    for (const auto& [name, value] : delta.counters) {
      counters[name] += value;
    }
    for (const auto& t : delta.timers) {
      auto& [count, total_s] = timers[t.name];
      count += t.count;
      total_s += t.total_s;
    }
    const double mean = delta.step_mean_s();
    if (mean >= 0.0) round_steps.add(mean);
    if (delta.has_stat) {
      ++leader_stats;
      adoptions += delta.stat.adopted_partner ? 1 : 0;
      max_round_wall_s = std::max(max_round_wall_s, delta.round_wall_s);
      // The score of the model the trainer KEPT this round.
      const double kept = delta.stat.adopted_partner
                              ? delta.stat.partner_score
                              : delta.stat.own_score;
      if (winner_trainer < 0 || kept < winner_score) {
        winner_trainer = delta.stat.trainer_id;
        winner_score = kept;
      }
    }
  }
  std::sort(reporting.begin(), reporting.end());
  cumulative_step_stats_.merge(round_steps);
  last_rank_steps_.clear();
  for (const auto& delta : cluster) {
    RankStepStat stat;
    stat.world_rank = delta.world_rank;
    stat.step_count = delta.timer_count("trainer/step");
    stat.step_mean_s = std::max(0.0, delta.step_mean_s());
    last_rank_steps_.push_back(stat);
  }
  std::sort(last_rank_steps_.begin(), last_rank_steps_.end(),
            [](const RankStepStat& a, const RankStepStat& b) {
              return a.world_rank < b.world_rank;
            });
  const double adoption_rate =
      leader_stats > 0
          ? static_cast<double>(adoptions) / static_cast<double>(leader_stats)
          : 0.0;
  const double cluster_gap_s =
      round_steps.count() > 0 ? round_steps.max() - round_steps.min() : 0.0;

  // -- emit ----------------------------------------------------------------
  if (!options_.timeseries_path.empty()) {
    using telemetry::json_double;
    using telemetry::json_escape;
    std::ostringstream line;
    line << "{\"round\": " << round
         << ", \"ranks_expected\": " << options_.world_size
         << ", \"ranks_reporting\": " << reporting.size()
         << ", \"reporting_ranks\": [";
    for (std::size_t i = 0; i < reporting.size(); ++i) {
      line << (i ? ", " : "") << reporting[i];
    }
    line << "]";
    if (churn_population_ >= 0) {
      // Elastic churn markers: explicit joined/left trainer lists plus the
      // post-churn population, so analyzers track the active set per round
      // instead of assuming a fixed one.
      line << ", \"population\": " << churn_population_ << ", \"joined\": [";
      for (std::size_t i = 0; i < churn_joined_.size(); ++i) {
        line << (i ? ", " : "") << churn_joined_[i];
      }
      line << "], \"left\": [";
      for (std::size_t i = 0; i < churn_left_.size(); ++i) {
        line << (i ? ", " : "") << churn_left_[i];
      }
      line << "]";
    }
    line << ", \"winner_trainer\": " << winner_trainer
         << ", \"adoption_rate\": " << json_double(adoption_rate)
         << ", \"round_wall_s\": " << json_double(max_round_wall_s)
         << ", \"step_time\": {\"mean_s\": "
         << json_double(round_steps.count() ? round_steps.mean() : 0.0)
         << ", \"min_s\": "
         << json_double(round_steps.count() ? round_steps.min() : 0.0)
         << ", \"max_s\": "
         << json_double(round_steps.count() ? round_steps.max() : 0.0)
         << ", \"gap_s\": " << json_double(cluster_gap_s)
         << ", \"cumulative_mean_s\": "
         << json_double(cumulative_step_stats_.count()
                            ? cumulative_step_stats_.mean()
                            : 0.0)
         << ", \"cumulative_stddev_s\": "
         << json_double(cumulative_step_stats_.count() > 1
                            ? cumulative_step_stats_.stddev()
                            : 0.0)
         << "}, \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters) {
      line << (first ? "" : ", ") << "\"" << json_escape(name)
           << "\": " << value;
      first = false;
    }
    line << "}, \"timers\": {";
    first = true;
    for (const auto& [name, stat] : timers) {
      const auto& [count, total_s] = stat;
      line << (first ? "" : ", ") << "\"" << json_escape(name)
           << "\": {\"count\": " << count
           << ", \"total_s\": " << json_double(total_s) << ", \"mean_s\": "
           << json_double(count ? total_s / static_cast<double>(count) : 0.0)
           << "}";
      first = false;
    }
    line << "}, \"per_rank\": {";
    first = true;
    for (const auto& delta : cluster) {
      line << (first ? "" : ", ") << "\"" << delta.world_rank
           << "\": {\"step_count\": " << delta.timer_count("trainer/step")
           << ", \"step_mean_s\": "
           << json_double(std::max(0.0, delta.step_mean_s()))
           << ", \"busy_s\": " << json_double(delta.timer_total("trainer/step"))
           << ", \"wait_s\": "
           << json_double(delta.timer_total("comm/recv_wait"))
           << ", \"counters\": {";
      bool inner_first = true;
      for (const auto& [name, value] : delta.counters) {
        line << (inner_first ? "" : ", ") << "\"" << json_escape(name)
             << "\": " << value;
        inner_first = false;
      }
      line << "}, \"gauges\": {";
      inner_first = true;
      for (const auto& [name, value] : delta.gauges) {
        line << (inner_first ? "" : ", ") << "\"" << json_escape(name)
             << "\": " << json_double(value);
        inner_first = false;
      }
      line << "}}";
      first = false;
    }
    line << "}}";
    std::ofstream out(options_.timeseries_path, std::ios::app);
    if (out) {
      out << line.str() << "\n";
    } else {
      LTFB_LOG_WARN("ltfb", "failed to append metrics timeseries to "
                                << options_.timeseries_path);
    }
  }
  if (options_.live_progress) {
    std::ostringstream msg;
    msg << "round " << round << ": " << reporting.size() << "/"
        << options_.world_size << " ranks, winner trainer " << winner_trainer
        << ", adoption " << static_cast<int>(adoption_rate * 100.0 + 0.5)
        << "%, step mean "
        << (round_steps.count() ? round_steps.mean() * 1e3 : 0.0)
        << "ms, rank gap " << cluster_gap_s * 1e3 << "ms";
    LTFB_LOG_INFO("ltfb", msg.str());
  }
  LTFB_COUNTER_ADD("ltfb/metrics_rounds_aggregated", 1);
  // Churn markers are per-round; a round without a note_churn call must
  // not inherit the previous round's lists.
  churn_joined_.clear();
  churn_left_.clear();
  churn_population_ = -1;
  return trainer_gap_s;
}

}  // namespace ltfb::core
