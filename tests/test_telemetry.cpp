// Telemetry subsystem tests: registry semantics (idempotent registration,
// naming convention, kind conflicts), counter/gauge/timer accumulation
// hammered concurrently from the ThreadPool (exact totals — run under
// LTFB_SANITIZE=thread in CI), span nesting, disabled-mode no-ops, the
// Logger-sink metrics path, rank attribution (per-rank metric scopes,
// per-rank trace pids, thread_name metadata, flow events), and golden
// checks that end-to-end runs produce structurally valid Chrome traces.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/gan_trainer.hpp"
#include "data/bundle.hpp"
#include "data/dataset.hpp"
#include "datastore/data_store.hpp"
#include "jag/jag_model.hpp"
#include "minijson.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace {

using ltfb::telemetry::Registry;
using testjson::JsonParser;
using testjson::JsonValue;

/// Re-arms the registry for one test and restores the quiet default after.
class TelemetryGuard {
 public:
  TelemetryGuard() {
    auto& registry = Registry::instance();
    registry.clear_trace();
    registry.reset_metrics();
    registry.set_enabled(true);
  }
  ~TelemetryGuard() {
    auto& registry = Registry::instance();
    registry.set_enabled(false);
    registry.clear_trace();
    registry.reset_metrics();
  }
};

// ---------------------------------------------------------------------------
// Naming and registration
// ---------------------------------------------------------------------------

TEST(TelemetryNames, ConventionIsEnforced) {
  using ltfb::telemetry::valid_metric_name;
  EXPECT_TRUE(valid_metric_name("comm/send_bytes"));
  EXPECT_TRUE(valid_metric_name("a/b/c"));
  EXPECT_TRUE(valid_metric_name("sim2/reader_0"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("noslash"));
  EXPECT_FALSE(valid_metric_name("/leading"));
  EXPECT_FALSE(valid_metric_name("trailing/"));
  EXPECT_FALSE(valid_metric_name("double//slash"));
  EXPECT_FALSE(valid_metric_name("Upper/case"));
  EXPECT_FALSE(valid_metric_name("with space/x"));
  EXPECT_FALSE(valid_metric_name("dash-es/x"));
}

TEST(TelemetryNames, BadNamesThrowOnRegistration) {
  auto& registry = Registry::instance();
  EXPECT_THROW(registry.counter("NoSlash"), ltfb::InvalidArgument);
  EXPECT_THROW(registry.gauge("bad name/x"), ltfb::InvalidArgument);
  EXPECT_THROW(registry.timer("x/"), ltfb::InvalidArgument);
}

TEST(TelemetryNames, KindConflictThrows) {
  auto& registry = Registry::instance();
  registry.counter("testnames/kind_conflict");
  EXPECT_THROW(registry.gauge("testnames/kind_conflict"),
               ltfb::InvalidArgument);
  EXPECT_THROW(registry.timer("testnames/kind_conflict"),
               ltfb::InvalidArgument);
}

TEST(TelemetryNames, RegistrationIsIdempotent) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  auto a = registry.counter("testnames/idempotent");
  auto b = registry.counter("testnames/idempotent");
  a.add(2);
  b.add(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
}

// ---------------------------------------------------------------------------
// Counters / gauges / timers
// ---------------------------------------------------------------------------

TEST(TelemetryMetrics, CounterAccumulates) {
  TelemetryGuard guard;
  auto counter = Registry::instance().counter("testmetrics/counter");
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(TelemetryMetrics, DisabledRecordingIsANoOp) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  auto counter = registry.counter("testmetrics/disabled_counter");
  auto gauge = registry.gauge("testmetrics/disabled_gauge");
  auto timer = registry.timer("testmetrics/disabled_timer");
  registry.set_enabled(false);
  counter.add(7);
  gauge.set(3.0);
  timer.record(0.5);
  {
    LTFB_SPAN("testmetrics/disabled_span");
    LTFB_COUNTER_ADD("testmetrics/disabled_counter", 9);
  }
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(timer.count(), 0u);
  EXPECT_EQ(registry.span_count(), 0u);
}

TEST(TelemetryMetrics, ResetZeroesButKeepsHandles) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  auto counter = registry.counter("testmetrics/reset_counter");
  auto timer = registry.timer("testmetrics/reset_timer");
  counter.add(5);
  timer.record(0.25);
  registry.reset_metrics();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(timer.count(), 0u);
  counter.add(1);  // handle still live after reset
  timer.record(0.5);
  EXPECT_EQ(counter.value(), 1u);
  EXPECT_EQ(timer.count(), 1u);
}

TEST(TelemetryMetrics, GaugeTracksLastAndMax) {
  TelemetryGuard guard;
  auto gauge = Registry::instance().gauge("testmetrics/gauge");
  gauge.set(2.0);
  gauge.set(9.0);
  gauge.set(4.0);
  EXPECT_EQ(gauge.value(), 4.0);
  EXPECT_EQ(gauge.max(), 9.0);
}

TEST(TelemetryMetrics, TimerSnapshotStats) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  auto timer = registry.timer("testmetrics/timer");
  timer.record(0.001);
  timer.record(0.002);
  timer.record(0.004);
  const auto snapshot = registry.snapshot();
  const ltfb::telemetry::TimerStat* stat = nullptr;
  for (const auto& t : snapshot.timers) {
    if (t.name == "testmetrics/timer") stat = &t;
  }
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count, 3u);
  EXPECT_NEAR(stat->total_s, 0.007, 1e-9);
  EXPECT_NEAR(stat->min_s, 0.001, 1e-9);
  EXPECT_NEAR(stat->max_s, 0.004, 1e-9);
  EXPECT_NEAR(stat->mean_s, 0.007 / 3.0, 1e-9);
  // Percentiles come from log2 buckets: upper bounds, monotone.
  EXPECT_GE(stat->p50_s, stat->min_s);
  EXPECT_LE(stat->p50_s, stat->p95_s);
}

TEST(TelemetryMetrics, ScopedTimerRecordsElapsed) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  auto timer = registry.timer("testmetrics/scoped");
  { ltfb::telemetry::ScopedTimer scope(timer); }
  EXPECT_EQ(timer.count(), 1u);
}

// ---------------------------------------------------------------------------
// Concurrency (exact totals, TSan-clean)
// ---------------------------------------------------------------------------

TEST(TelemetryConcurrency, ThreadPoolHammerExactCounts) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  auto counter = registry.counter("testconc/hits");
  auto timer = registry.timer("testconc/latency");
  constexpr int kTasks = 64;
  constexpr int kIters = 500;
  {
    ltfb::util::ThreadPool pool(8);
    for (int t = 0; t < kTasks; ++t) {
      pool.submit([counter, timer]() mutable {
        for (int i = 0; i < kIters; ++i) {
          counter.add(1);
          timer.record(1e-6);
          LTFB_COUNTER_ADD("testconc/macro_hits", 1);
          LTFB_SPAN("testconc/span");
        }
      });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kTasks) * kIters);
  EXPECT_EQ(timer.count(), static_cast<std::uint64_t>(kTasks) * kIters);
  EXPECT_EQ(registry.counter("testconc/macro_hits").value(),
            static_cast<std::uint64_t>(kTasks) * kIters);
  // One span per iteration plus the pool's own threadpool/task spans.
  EXPECT_GE(registry.span_count(),
            static_cast<std::size_t>(kTasks) * kIters);
  EXPECT_EQ(registry.dropped_spans(), 0u);
}

TEST(TelemetryConcurrency, GaugeMaxIsMonotone) {
  TelemetryGuard guard;
  auto gauge = Registry::instance().gauge("testconc/gauge");
  {
    ltfb::util::ThreadPool pool(4);
    for (int t = 1; t <= 32; ++t) {
      pool.submit([gauge, t]() mutable { gauge.set(t); });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(gauge.max(), 32.0);
}

// ---------------------------------------------------------------------------
// Spans and trace export
// ---------------------------------------------------------------------------

TEST(TelemetrySpans, NestedSpansAreContained) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  {
    LTFB_SPAN("testspan/outer");
    LTFB_SPAN("testspan/inner");
  }
  EXPECT_EQ(registry.span_count(), 2u);

  const std::string json = registry.trace_json();
  const JsonValue trace = JsonParser(json).parse();
  const auto& events = trace.at("traceEvents").array;
  double outer_start = -1.0, outer_end = -1.0;
  double inner_start = -1.0, inner_end = -1.0;
  double outer_tid = -1.0, inner_tid = -2.0;
  for (const auto& event : events) {
    if (event.at("ph").string != "X") continue;
    const std::string& name = event.at("name").string;
    const double ts = event.at("ts").number;
    const double dur = event.at("dur").number;
    if (name == "testspan/outer") {
      outer_start = ts;
      outer_end = ts + dur;
      outer_tid = event.at("tid").number;
    } else if (name == "testspan/inner") {
      inner_start = ts;
      inner_end = ts + dur;
      inner_tid = event.at("tid").number;
    }
  }
  ASSERT_GE(outer_start, 0.0);
  ASSERT_GE(inner_start, 0.0);
  EXPECT_EQ(outer_tid, inner_tid);
  EXPECT_LE(outer_start, inner_start);
  EXPECT_GE(outer_end, inner_end);
}

TEST(TelemetrySpans, SimSpansLandOnVirtualTimeTrack) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  registry.record_sim_span("testsim/reader", 1.5, 2.0, 3);
  EXPECT_EQ(registry.sim_span_count(), 1u);

  const JsonValue trace = JsonParser(registry.trace_json()).parse();
  bool found = false;
  for (const auto& event : trace.at("traceEvents").array) {
    if (event.at("ph").string == "X" &&
        event.at("name").string == "testsim/reader") {
      found = true;
      EXPECT_EQ(event.at("pid").number, 2.0);  // virtual-time process
      EXPECT_EQ(event.at("tid").number, 3.0);
      EXPECT_NEAR(event.at("ts").number, 1.5e6, 1.0);  // seconds -> us
      EXPECT_NEAR(event.at("dur").number, 2.0e6, 1.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(TelemetrySpans, SimSpanValidatesArguments) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  EXPECT_THROW(registry.record_sim_span("BadName", 0.0, 1.0, 0),
               ltfb::InvalidArgument);
  EXPECT_THROW(registry.record_sim_span("testsim/x", -1.0, 1.0, 0),
               ltfb::InvalidArgument);
  EXPECT_THROW(registry.record_sim_span("testsim/x", 0.0, -1.0, 0),
               ltfb::InvalidArgument);
}

// ---------------------------------------------------------------------------
// End-to-end golden trace: all four runtime subsystems in one trace.json
// ---------------------------------------------------------------------------

TEST(TelemetryTrace, EndToEndChromeTraceFromFourSubsystems) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();

  // comm + datastore: two ranks preload a bundled catalog and fetch across
  // the rank boundary (collectives inside build_directory hit comm spans).
  const auto bundle_dir =
      std::filesystem::temp_directory_path() / "ltfb_telemetry_trace";
  std::filesystem::remove_all(bundle_dir);
  ltfb::data::SampleSchema schema;
  schema.input_width = 5;
  schema.scalar_width = 15;
  schema.image_width = 6;
  std::vector<ltfb::data::Sample> bundle_samples;
  for (ltfb::data::SampleId id = 0; id < 24; ++id) {
    ltfb::data::Sample sample;
    sample.id = id;
    sample.input.assign(5, static_cast<float>(id));
    sample.scalars.assign(15, static_cast<float>(id));
    sample.images.assign(6, static_cast<float>(id));
    bundle_samples.push_back(std::move(sample));
  }
  const auto paths =
      ltfb::data::write_bundle_set(bundle_dir, schema, bundle_samples, 6);
  const ltfb::datastore::BundleCatalog catalog(paths);
  ltfb::comm::World::run(2, [&](ltfb::comm::Communicator& comm) {
    ltfb::datastore::DataStore store(
        comm, &catalog, ltfb::datastore::PopulateMode::Preloaded,
        /*capacity_bytes_per_rank=*/0, {});
    store.preload();
    std::vector<ltfb::data::SampleId> wanted{0, 7, 13, 23};
    const auto samples = store.fetch(wanted);
    ASSERT_EQ(samples.size(), wanted.size());
    float one[1] = {1.0f};
    comm.allreduce(std::span<float>(one, 1), ltfb::comm::ReduceOp::Sum);
  });

  // threadpool: a task span.
  {
    ltfb::util::ThreadPool pool(2);
    pool.submit([] {}).get();
    pool.wait_idle();
  }

  // trainer: a couple of real (tiny) GAN steps.
  {
    ltfb::jag::JagConfig jag_config;
    jag_config.image_size = 4;
    jag_config.num_views = 1;
    jag_config.num_channels = 1;
    const ltfb::jag::JagModel jag(jag_config);
    const auto dataset = ltfb::data::generate_jag_dataset(jag, 24, 515);
    ltfb::gan::CycleGanConfig model_config;
    model_config.image_width = jag_config.image_features();
    model_config.latent_width = 4;
    model_config.encoder_hidden = {8};
    model_config.decoder_hidden = {8};
    model_config.forward_hidden = {8};
    model_config.inverse_hidden = {8};
    model_config.discriminator_hidden = {8};
    std::vector<std::size_t> view(dataset.size());
    for (std::size_t i = 0; i < view.size(); ++i) view[i] = i;
    ltfb::core::GanTrainer trainer(0, model_config, dataset, view, view,
                                   /*batch_size=*/8, 516);
    trainer.train_steps(2);
  }

  const std::string path =
      (::testing::TempDir().empty() ? std::string(".")
                                    : ::testing::TempDir()) +
      "/ltfb_test_trace.json";
  ASSERT_TRUE(registry.write_trace_json(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();

  // Golden structure: parses as JSON, has traceEvents, every event carries
  // the Chrome-required keys, complete events have non-negative ts/dur.
  const JsonValue trace = JsonParser(buffer.str()).parse();
  ASSERT_TRUE(trace.has("traceEvents"));
  const auto& events = trace.at("traceEvents").array;
  ASSERT_FALSE(events.empty());
  std::set<std::string> subsystems;
  bool saw_process_metadata = false;
  for (const auto& event : events) {
    ASSERT_TRUE(event.has("ph"));
    ASSERT_TRUE(event.has("name"));
    ASSERT_TRUE(event.has("pid"));
    const std::string& ph = event.at("ph").string;
    if (ph == "M") {
      saw_process_metadata |= event.at("name").string == "process_name";
      continue;
    }
    if (ph == "s" || ph == "f") {
      // Cross-rank flow endpoints from the comm layer's correlation ids.
      ASSERT_TRUE(event.has("id"));
      ASSERT_TRUE(event.has("ts"));
      continue;
    }
    ASSERT_EQ(ph, "X");
    ASSERT_TRUE(event.has("tid"));
    ASSERT_TRUE(event.has("ts"));
    ASSERT_TRUE(event.has("dur"));
    EXPECT_GE(event.at("ts").number, 0.0);
    EXPECT_GE(event.at("dur").number, 0.0);
    const std::string& name = event.at("name").string;
    subsystems.insert(name.substr(0, name.find('/')));
  }
  EXPECT_TRUE(saw_process_metadata);
  EXPECT_TRUE(subsystems.count("comm")) << "no comm spans in trace";
  EXPECT_TRUE(subsystems.count("datastore")) << "no datastore spans";
  EXPECT_TRUE(subsystems.count("threadpool")) << "no threadpool spans";
  EXPECT_TRUE(subsystems.count("trainer")) << "no trainer spans";
}

// ---------------------------------------------------------------------------
// Rank attribution: per-rank metric scopes, thread names, rank trace pids,
// cross-rank flow correlation
// ---------------------------------------------------------------------------

TEST(TelemetryRank, RankScopedMetricsLandInBoundScope) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  auto counter = registry.counter("testrank/hits");
  auto gauge = registry.gauge("testrank/depth");
  auto timer = registry.timer("testrank/lat");
  {
    const ltfb::telemetry::RankBinding bind(3);
    counter.add(5);
    gauge.set(2.5);
    timer.record(0.25);
  }
  counter.add(2);  // unbound: global only

  const auto rank3 = registry.snapshot_rank(3);
  const auto rank0 = registry.snapshot_rank(0);
  auto find_counter = [](const ltfb::telemetry::MetricsSnapshot& snap,
                         const std::string& name) -> std::uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  EXPECT_EQ(find_counter(rank3, "testrank/hits"), 5u);
  EXPECT_EQ(find_counter(rank0, "testrank/hits"), 0u);
  EXPECT_EQ(counter.value(), 7u);  // global scope sees both
  bool timer_found = false;
  for (const auto& t : rank3.timers) {
    if (t.name != "testrank/lat") continue;
    timer_found = true;
    EXPECT_EQ(t.count, 1u);
    EXPECT_NEAR(t.total_s, 0.25, 1e-9);
  }
  EXPECT_TRUE(timer_found);
  bool gauge_found = false;
  for (const auto& g : rank3.gauges) {
    if (g.name != "testrank/depth") continue;
    gauge_found = true;
    EXPECT_EQ(g.value, 2.5);
    EXPECT_EQ(g.sets, 1u);
  }
  EXPECT_TRUE(gauge_found);
}

TEST(TelemetryRank, RankBindingRestoresPreviousBinding) {
  TelemetryGuard guard;
  ltfb::telemetry::bind_rank(2);
  {
    const ltfb::telemetry::RankBinding inner(7);
    EXPECT_EQ(ltfb::telemetry::bound_rank(), 7);
  }
  EXPECT_EQ(ltfb::telemetry::bound_rank(), 2);
  ltfb::telemetry::bind_rank(-1);
  EXPECT_EQ(ltfb::telemetry::bound_rank(), -1);
}

TEST(TelemetryRank, BindRankValidatesRange) {
  EXPECT_THROW(ltfb::telemetry::bind_rank(-2), ltfb::InvalidArgument);
  EXPECT_THROW(
      ltfb::telemetry::bind_rank(ltfb::telemetry::detail::kMaxRankScopes),
      ltfb::InvalidArgument);
}

TEST(TelemetryRank, SetThreadNameAppearsInTraceMetadata) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  // A named worker thread (pool workers name themselves the same way).
  std::thread worker([] {
    ltfb::telemetry::set_thread_name("testrank/worker");
    LTFB_SPAN("testrank/work");
  });
  worker.join();

  const JsonValue trace = JsonParser(registry.trace_json()).parse();
  bool named = false;
  for (const auto& event : trace.at("traceEvents").array) {
    if (event.at("ph").string == "M" &&
        event.at("name").string == "thread_name" &&
        event.at("args").at("name").string == "testrank/worker") {
      named = true;
    }
  }
  EXPECT_TRUE(named) << "thread_name metadata missing from trace";
}

// Regression: write_trace_json used to stash a pointer to the buffer's
// thread_name and dereference it after releasing the buffer lock, racing a
// concurrent set_thread_name. The exporter copies the name under the lock
// now; renaming mid-export must yield a parseable trace every round (run
// under LTFB_SANITIZE=thread in CI to make the old race fatal). The
// renamer renames without pause until the last export is done, but records
// only a bounded number of spans, so the trace every export serializes
// stays small.
TEST(TelemetryRank, ThreadRenameDuringTraceExportIsSafe) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  constexpr int kMaxTicks = 256;
  std::atomic<bool> stop{false};
  std::atomic<int> renames{0};
  std::thread renamer([&stop, &renames] {
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ltfb::telemetry::set_thread_name(
          i % 2 == 0 ? "stress/alpha" : "stress/beta_much_longer_name");
      if (i < kMaxTicks) {
        LTFB_SPAN("stress/tick");
      }
      renames.store(++i, std::memory_order_release);
    }
  });
  for (int round = 0; round < 20; ++round) {
    // Start each export only once the renamer has renamed since the last.
    const int seen = renames.load(std::memory_order_acquire);
    while (renames.load(std::memory_order_acquire) == seen) {
      std::this_thread::yield();
    }
    const std::string json = registry.trace_json();
    EXPECT_FALSE(json.empty());
  }
  stop.store(true, std::memory_order_release);
  renamer.join();
  const JsonValue trace = JsonParser(registry.trace_json()).parse();
  EXPECT_FALSE(trace.at("traceEvents").array.empty());
}

TEST(TelemetryRank, MultiRankTraceGoldenWithFlows) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();

  // Two ranks, one message each way: World::run_ranks binds the rank
  // scopes; the comm layer stamps flow correlation ids on both endpoints.
  ltfb::comm::World::run(2, [](ltfb::comm::Communicator& comm) {
    LTFB_SPAN("testrank/rank_main");
    const ltfb::comm::Buffer payload{1, 2, 3};
    if (comm.rank() == 0) {
      comm.send(1, 42, payload);
      (void)comm.recv(1, 43);
    } else {
      (void)comm.recv(0, 42);
      comm.send(0, 43, payload);
    }
  });

  const JsonValue trace = JsonParser(registry.trace_json()).parse();
  const auto& events = trace.at("traceEvents").array;

  // One pid per rank, with "rank N" process metadata.
  std::map<double, std::string> process_names;
  std::set<double> span_pids;
  std::map<std::string, std::vector<const JsonValue*>> flow_starts;
  std::map<std::string, std::vector<const JsonValue*>> flow_finishes;
  for (const auto& event : events) {
    const std::string& ph = event.at("ph").string;
    if (ph == "M" && event.at("name").string == "process_name") {
      process_names[event.at("pid").number] =
          event.at("args").at("name").string;
    } else if (ph == "X") {
      span_pids.insert(event.at("pid").number);
    } else if (ph == "s") {
      flow_starts[event.at("id").string].push_back(&event);
    } else if (ph == "f") {
      flow_finishes[event.at("id").string].push_back(&event);
      EXPECT_EQ(event.at("bp").string, "e");
    }
  }
  const double pid0 = ltfb::telemetry::kRankPidBase + 0;
  const double pid1 = ltfb::telemetry::kRankPidBase + 1;
  EXPECT_TRUE(span_pids.count(pid0)) << "no spans on rank 0's pid";
  EXPECT_TRUE(span_pids.count(pid1)) << "no spans on rank 1's pid";
  ASSERT_TRUE(process_names.count(pid0));
  ASSERT_TRUE(process_names.count(pid1));
  EXPECT_EQ(process_names[pid0], "rank 0");
  EXPECT_EQ(process_names[pid1], "rank 1");

  // At least one matched send->recv flow pair, crossing rank pids, with
  // the receive at or after the send.
  std::size_t matched = 0;
  for (const auto& [id, starts] : flow_starts) {
    const auto it = flow_finishes.find(id);
    if (it == flow_finishes.end()) continue;
    ASSERT_EQ(starts.size(), 1u) << "duplicate flow id " << id;
    ASSERT_EQ(it->second.size(), 1u) << "duplicate flow id " << id;
    const JsonValue& start = *starts.front();
    const JsonValue& finish = *it->second.front();
    EXPECT_NE(start.at("pid").number, finish.at("pid").number);
    EXPECT_GE(finish.at("ts").number, start.at("ts").number);
    ++matched;
  }
  EXPECT_GE(matched, 2u) << "expected both messages to produce flow pairs";
  EXPECT_GE(registry.flow_count(), 4u);  // two s + two f endpoints
}

TEST(TelemetryRank, FlowIdsAreDeterministicPerDirection) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  auto run_once = [&] {
    registry.clear_trace();
    ltfb::comm::World::run(2, [](ltfb::comm::Communicator& comm) {
      const ltfb::comm::Buffer payload{9};
      if (comm.rank() == 0) {
        comm.send(1, 7, payload);
        comm.send(1, 7, payload);
      } else {
        (void)comm.recv(0, 7);
        (void)comm.recv(0, 7);
      }
    });
    std::set<std::string> ids;
    const JsonValue trace = JsonParser(registry.trace_json()).parse();
    for (const auto& event : trace.at("traceEvents").array) {
      if (event.at("ph").string == "s") ids.insert(event.at("id").string);
    }
    return ids;
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.size(), 2u) << "per-pair sequence should split the ids";
  // Same (comm, tag, src, dst, seq) inputs on a fresh world -> same ids:
  // both sides of a real wire could derive them independently.
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Metrics JSON and the Logger sink path
// ---------------------------------------------------------------------------

TEST(TelemetryExport, MetricsJsonRoundTrips) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  registry.counter("testexport/hits").add(3);
  registry.gauge("testexport/depth").set(2.5);
  registry.timer("testexport/lat").record(0.5);

  const JsonValue metrics = JsonParser(registry.metrics_json()).parse();
  EXPECT_EQ(metrics.at("counters").at("testexport/hits").number, 3.0);
  EXPECT_EQ(metrics.at("gauges").at("testexport/depth").at("value").number,
            2.5);
  const auto& timer = metrics.at("timers").at("testexport/lat");
  EXPECT_EQ(timer.at("count").number, 1.0);
  EXPECT_NEAR(timer.at("total_s").number, 0.5, 1e-9);
}

TEST(TelemetryExport, TimerJsonCarriesP99AndRate) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  auto timer = registry.timer("testexport/p99_timer");
  for (int i = 0; i < 100; ++i) timer.record(0.001);
  timer.record(0.5);  // tail sample

  const JsonValue metrics = JsonParser(registry.metrics_json()).parse();
  const auto& stat = metrics.at("timers").at("testexport/p99_timer");
  ASSERT_TRUE(stat.has("p99_s"));
  ASSERT_TRUE(stat.has("rate_per_s"));
  // p99 is a log2-bucket upper bound: monotone over lower percentiles and
  // at least the bulk latency.
  EXPECT_GE(stat.at("p99_s").number, stat.at("p95_s").number);
  EXPECT_GE(stat.at("p99_s").number, 0.001);
  // 101 records within the window since reset_metrics: a positive rate.
  EXPECT_GT(stat.at("rate_per_s").number, 0.0);

  const auto snapshot = registry.snapshot();
  for (const auto& t : snapshot.timers) {
    if (t.name != "testexport/p99_timer") continue;
    EXPECT_GE(t.p99_s, t.p95_s);
    EXPECT_GT(t.rate_per_s, 0.0);
  }
}

TEST(TelemetryExport, JsonEscapeControlCharsAndNonAscii) {
  using ltfb::telemetry::json_escape;
  // Named escapes.
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  // Unnamed control characters become \u00XX.
  EXPECT_EQ(json_escape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(json_escape(std::string("\x00", 1)), "\\u0000");
  EXPECT_EQ(json_escape("\x1f"), "\\u001f");
  // Non-ASCII UTF-8 passes through byte-for-byte (valid JSON as long as
  // the document stays UTF-8, which ofstream preserves).
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");

  // Round-trip: a JSON document built with json_escape parses back to the
  // original string, including \uXXXX decoding in the parser.
  const std::string nasty = "tab\t quote\" back\\ bell\x07 utf8 \xc3\xa9";
  const std::string doc = "{\"k\": \"" + json_escape(nasty) + "\"}";
  const JsonValue parsed = JsonParser(doc).parse();
  EXPECT_EQ(parsed.at("k").string, nasty);
}

TEST(TelemetryExport, LogMetricsFlowsThroughLoggerSinks) {
  TelemetryGuard guard;
  auto& registry = Registry::instance();
  registry.counter("testexport/sinkhits").add(7);

  auto& logger = ltfb::util::Logger::instance();
  const auto saved_level = logger.level();
  logger.set_level(ltfb::util::LogLevel::Info);
  std::vector<std::string> captured;
  const int sink_id =
      logger.add_sink([&captured](const ltfb::util::LogRecord& record) {
        if (record.component == "telemetry") {
          captured.emplace_back(record.message);
        }
      });
  registry.log_metrics();
  logger.remove_sink(sink_id);
  logger.set_level(saved_level);

  bool found = false;
  for (const auto& line : captured) {
    if (line.find("testexport/sinkhits") != std::string::npos &&
        line.find('7') != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "metrics dump never reached the installed sink";
}

}  // namespace
