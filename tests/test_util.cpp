// Unit tests for src/util: RNG determinism and quality, statistics,
// formatting, tables, the thread pool, and the compute team.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "tensor/gemm.hpp"
#include "util/compute_pool.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ltfb;
using namespace ltfb::util;

// ---- rng --------------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.engine()() == b.engine()()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DeriveSeedIsDeterministic) {
  EXPECT_EQ(derive_seed(7, 3), derive_seed(7, 3));
  EXPECT_NE(derive_seed(7, 3), derive_seed(7, 4));
  EXPECT_NE(derive_seed(7, 3), derive_seed(8, 3));
}

TEST(Rng, DeriveSeedLabelOverloads) {
  EXPECT_EQ(derive_seed(1, "model"), derive_seed(1, "model"));
  EXPECT_NE(derive_seed(1, "model"), derive_seed(1, "reader"));
  EXPECT_EQ(derive_seed(1, "model", 2), derive_seed(1, "model", 2));
  EXPECT_NE(derive_seed(1, "model", 2), derive_seed(1, "model", 3));
}

TEST(Rng, AdjacentSeedsAreUnrelated) {
  // SplitMix expansion: streams from seeds s and s+1 must not correlate.
  Rng a(100), b(101);
  double dot = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    dot += (a.uniform() - 0.5) * (b.uniform() - 0.5);
  }
  EXPECT_LT(std::abs(dot / n), 0.01);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(5);
  for (std::uint64_t n : {1ull, 2ull, 7ull, 100ull, 12345ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.uniform_index(n), n);
    }
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(6);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(rng.uniform_index(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(rng.normal());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(rng.normal(5.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, BernoulliRate) {
  Rng rng(10);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleDeterministicPerSeed) {
  std::vector<int> a{1, 2, 3, 4, 5}, b{1, 2, 3, 4, 5};
  Rng r1(12), r2(12);
  r1.shuffle(a);
  r2.shuffle(b);
  EXPECT_EQ(a, b);
}

TEST(Rng, ChildStreamsIndependent) {
  Rng parent(13);
  Rng c1 = parent.child(1);
  Rng c2 = parent.child(2);
  EXPECT_NE(c1.engine()(), c2.engine()());
}

TEST(Rng, LongJumpChangesState) {
  Xoshiro256 a(55), b(55);
  b.long_jump();
  EXPECT_NE(a(), b());
}

// ---- stats ------------------------------------------------------------------

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSinglePass) {
  Rng rng(14);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 1.5);
    whole.add(v);
    (i < 400 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<float> a{1, 2, 3, 4, 5};
  const std::vector<float> b{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(std::span<const float>(a), std::span<const float>(b)),
              1.0, 1e-9);
}

TEST(Stats, PearsonAntiCorrelation) {
  const std::vector<float> a{1, 2, 3};
  const std::vector<float> b{3, 2, 1};
  EXPECT_NEAR(pearson(std::span<const float>(a), std::span<const float>(b)),
              -1.0, 1e-9);
}

TEST(Stats, PearsonConstantInputIsZero) {
  const std::vector<float> a{1, 1, 1};
  const std::vector<float> b{1, 2, 3};
  EXPECT_EQ(pearson(std::span<const float>(a), std::span<const float>(b)),
            0.0);
}

TEST(Stats, MaeAndRmse) {
  const std::vector<float> a{0, 0, 0, 0};
  const std::vector<float> b{1, -1, 2, -2};
  EXPECT_DOUBLE_EQ(
      mean_absolute_error(std::span<const float>(a), std::span<const float>(b)),
      1.5);
  EXPECT_NEAR(rmse(std::span<const float>(a), std::span<const float>(b)),
              std::sqrt(2.5), 1e-6);
}

TEST(Stats, PsnrIdenticalIsLarge) {
  const std::vector<float> a{1, 2, 3};
  EXPECT_DOUBLE_EQ(psnr(std::span<const float>(a), std::span<const float>(a),
                        1.0),
                   99.0);
}

TEST(Stats, PsnrKnownValue) {
  const std::vector<float> a{0, 0};
  const std::vector<float> b{1, 1};  // rmse = 1, peak = 10 -> 20 dB
  EXPECT_NEAR(psnr(std::span<const float>(a), std::span<const float>(b), 10.0),
              20.0, 1e-9);
}

TEST(Stats, Percentile) {
  std::vector<double> data{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(data, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(data, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(data, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(data, 25), 2.0);
}

TEST(Stats, PercentileEmptyThrows) {
  EXPECT_THROW(percentile({}, 50), InvalidArgument);
}

// ---- error ------------------------------------------------------------------

TEST(Error, CheckThrowsWithMessage) {
  try {
    LTFB_CHECK_MSG(false, "context " << 42);
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Error, CheckPassesQuietly) {
  EXPECT_NO_THROW(LTFB_CHECK(1 + 1 == 2));
}

// ---- table / formatting -------------------------------------------------------

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Table, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.0005), "500.0 us");
  EXPECT_EQ(format_seconds(0.25), "250.0 ms");
  EXPECT_EQ(format_seconds(12.0), "12.0 s");
  EXPECT_EQ(format_seconds(1200.0), "20.0 min");
  EXPECT_EQ(format_seconds(7200.0 + 1800.0), "2.50 h");
}

TEST(Table, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(2.0 * 1024 * 1024 * 1024), "2.00 GiB");
}

TEST(Table, RenderAlignsColumns) {
  TablePrinter table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"long-name", "12345"});
  const std::string out = table.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, RowArityMismatchThrows) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, CsvWriterWritesRows) {
  const std::string path = testing::TempDir() + "/ltfb_test.csv";
  {
    CsvWriter csv(path, {"x", "y"});
    ASSERT_TRUE(csv.ok());
    csv.add_row({"1", "2"});
    csv.add_row({"3", "4"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
}

// ---- thread pool ---------------------------------------------------------------

TEST(ThreadPool, ExecutesSubmittedWork) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, WaitIdleBlocksUntilDrained) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ++counter;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroRequestedStillHasOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(1);
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    pool.submit([gate] { gate.wait(); });
    // These queue up behind the blocked worker; the destructor must run
    // them all before joining — accepted work is never dropped.
    for (int i = 0; i < 20; ++i) {
      pool.submit([&executed] { ++executed; });
    }
    release.set_value();
  }
  EXPECT_EQ(executed.load(), 20);
}

TEST(ThreadPool, SubmitDuringShutdownThrowsInsteadOfDeadlocking) {
  auto pool = std::make_unique<ThreadPool>(1);
  ThreadPool* p = pool.get();
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  p->submit([gate] { gate.wait(); });
  // The destructor flags shutdown under the pool mutex almost immediately,
  // then parks in join() on the gate-blocked worker — so the pool object
  // stays alive while we probe submit() from this thread.
  std::thread destroyer([&pool] { pool.reset(); });
  bool threw = false;
  for (int i = 0; i < 200000 && !threw; ++i) {
    if (i % 64 == 0) std::this_thread::yield();
    try {
      p->submit([] {});
    } catch (const Error&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
  release.set_value();
  destroyer.join();
}

// ---- compute pool --------------------------------------------------------------

// Pins the process-wide team to `threads` for one test, then restores the
// environment default so later tests see the usual team.
class ScopedTeamSize {
 public:
  explicit ScopedTeamSize(std::size_t threads) {
    ComputePool::instance().resize(threads);
  }
  ~ScopedTeamSize() {
    ComputePool::instance().resize(ComputePool::env_threads());
  }
  ScopedTeamSize(const ScopedTeamSize&) = delete;
  ScopedTeamSize& operator=(const ScopedTeamSize&) = delete;
};

TEST(ComputePool, ExceptionIsRethrownOnlyAfterEveryShareFinishes) {
  const ScopedTeamSize team(4);
  // One task per share: task 0 (the caller's share) throws at once while
  // the workers' tasks are still sleeping, and task 2's later throw loses
  // to the lower share's.
  std::array<std::atomic<bool>, 4> finished{};
  try {
    ComputePool::instance().run_tasks(4, [&finished](std::size_t t) {
      if (t == 0) throw std::runtime_error("share 0");
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      finished[t] = true;
      if (t == 2) throw std::runtime_error("share 2");
    });
    FAIL() << "run_tasks swallowed the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "share 0");
  }
  for (std::size_t t = 1; t < finished.size(); ++t) {
    EXPECT_TRUE(finished[t]) << "task " << t
                             << " still running when run_tasks threw";
  }
}

TEST(ComputePool, TasksAreClaimedNotAssigned) {
  // A slow task holds up only itself. Had the 8 tasks been cut into one
  // fixed share per member of a team of 4, task 3 would have waited behind
  // task 2 in the same share.
  const ScopedTeamSize team(4);
  using Clock = std::chrono::steady_clock;
  std::array<Clock::time_point, 8> finished{};
  ComputePool::instance().run_tasks(finished.size(), [&](std::size_t t) {
    if (t == 2) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    finished[t] = Clock::now();
  });
  EXPECT_LT(finished[3], finished[2]);
}

TEST(ComputePool, NestedRunTasksRunsInline) {
  const ScopedTeamSize team(4);
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 16;
  std::array<std::thread::id, kOuter> outer_thread{};
  std::array<std::array<std::thread::id, kInner>, kOuter> inner_thread{};
  std::array<std::array<std::size_t, kInner>, kOuter> value{};
  ComputePool::instance().run_tasks(kOuter, [&](std::size_t t) {
    outer_thread[t] = std::this_thread::get_id();
    ComputePool::instance().run_tasks(kInner, [&, t](std::size_t u) {
      inner_thread[t][u] = std::this_thread::get_id();
      value[t][u] = t * kInner + u;
    });
  });
  EXPECT_EQ(outer_thread[0], std::this_thread::get_id())
      << "the caller runs the first share itself";
  for (std::size_t t = 0; t < kOuter; ++t) {
    for (std::size_t u = 0; u < kInner; ++u) {
      EXPECT_EQ(inner_thread[t][u], outer_thread[t]);
      EXPECT_EQ(value[t][u], t * kInner + u);
    }
  }
}

TEST(ComputePool, ConcurrentCallersAllGetCorrectResults) {
  // In-process rank threads share the one team: whoever finds it busy runs
  // inline, and every caller must still get exactly its own results.
  const ScopedTeamSize team(4);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kTasks = 64;
  constexpr int kRounds = 200;
  std::array<bool, kCallers> ok{};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &ok] {
      std::vector<std::size_t> out(kTasks);
      bool all_right = true;
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t salt = c * 1000 + static_cast<std::size_t>(round);
        ComputePool::instance().run_tasks(
            kTasks, [&out, salt](std::size_t t) { out[t] = t * 7 + salt; });
        for (std::size_t t = 0; t < kTasks; ++t) {
          all_right = all_right && out[t] == t * 7 + salt;
        }
      }
      ok[c] = all_right;
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(ok[c]) << "caller " << c;
  }
}

TEST(ComputePool, ResizeBetweenCallsWorks) {
  const ScopedTeamSize restore(ComputePool::env_threads());
  ComputePool& pool = ComputePool::instance();
  for (const std::size_t threads : {1u, 3u, 2u, 8u, 1u, 4u}) {
    pool.resize(threads);
    EXPECT_EQ(pool.size(), threads);
    constexpr std::size_t kTasks = 37;
    std::vector<std::size_t> out(kTasks, 0);
    std::vector<std::thread::id> ran_on(kTasks);
    pool.run_tasks(kTasks, [&](std::size_t t) {
      out[t] = t + threads;
      ran_on[t] = std::this_thread::get_id();
    });
    for (std::size_t t = 0; t < kTasks; ++t) {
      EXPECT_EQ(out[t], t + threads) << "threads=" << threads;
    }
    EXPECT_EQ(ran_on[0], std::this_thread::get_id());
    const std::set<std::thread::id> distinct(ran_on.begin(), ran_on.end());
    EXPECT_LE(distinct.size(), threads);
  }
  EXPECT_THROW(pool.resize(0), Error);
}

// The team belongs to the process that started it. The process launcher
// forks from a team of one, so a child of a process whose team has workers
// inherits none of them: its fan-out GEMM runs inline, and its resize
// starts a team of its own. The parent forks single-threaded, which also
// lets a thread sanitizer follow the child.
TEST(ComputePool, ForkedChildRunsInlineThenStartsItsOwnTeam) {
  constexpr std::size_t kN = 128;  // 128^3 multiply-adds: the GEMM fans out
  tensor::Tensor a(kN, kN), b(kN, kN), serial(kN, kN);
  Rng rng(5);
  for (float& v : a.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : b.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  {
    const ScopedTeamSize team(1);
    tensor::matmul(a, b, serial);
  }
  const ScopedTeamSize team(4);
  const auto statuses =
      comm::World::spawn_processes(2, [&](comm::Communicator&) {
        // A child stuck waiting on its parent's workers dies of SIGALRM
        // instead of hanging the test.
        ::alarm(10);
        const auto matches_serial = [&] {
          tensor::Tensor c(kN, kN);
          tensor::matmul(a, b, c);
          return std::memcmp(c.raw(), serial.raw(),
                             kN * kN * sizeof(float)) == 0;
        };
        if (!matches_serial()) {
          throw std::runtime_error("GEMM on the inherited team differs");
        }
        ComputePool::instance().resize(2);
        if (!matches_serial()) {
          throw std::runtime_error("GEMM on the child's own team differs");
        }
      });
  ASSERT_EQ(statuses.size(), 2u);
  for (const auto& status : statuses) {
    EXPECT_EQ(status.code, comm::World::kExitClean) << "rank " << status.rank;
  }
  EXPECT_EQ(ComputePool::instance().size(), 4u)
      << "the parent gets its team back after the last fork";
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(sw.elapsed_seconds(), 0.005);
  sw.reset();
  EXPECT_LT(sw.elapsed_seconds(), 0.5);
}

TEST(Stopwatch, ShimAliasesTelemetryStopwatch) {
  // util/stopwatch.hpp is a compatibility shim over the telemetry clock.
  static_assert(
      std::is_same_v<util::Stopwatch, ltfb::telemetry::Stopwatch>);
}

// ---- logger sinks -----------------------------------------------------------

TEST(Logger, DefaultSinkIsInstalled) {
  auto& logger = Logger::instance();
  EXPECT_GE(logger.sink_count(), 1u);
}

TEST(Logger, SinksReceiveStructuredRecords) {
  auto& logger = Logger::instance();
  const auto saved_level = logger.level();
  logger.set_level(LogLevel::Info);
  std::vector<std::pair<std::string, std::string>> seen;
  const int id = logger.add_sink([&seen](const LogRecord& record) {
    seen.emplace_back(std::string(record.component),
                      std::string(record.message));
  });
  LTFB_LOG_INFO("testsink", "hello " << 42);
  LTFB_LOG_DEBUG("testsink", "suppressed");  // below Info: never dispatched
  logger.remove_sink(id);
  LTFB_LOG_INFO("testsink", "after removal");
  logger.set_level(saved_level);

  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, "testsink");
  EXPECT_EQ(seen[0].second, "hello 42");
}

TEST(Logger, RemoveSinkIgnoresUnknownIds) {
  auto& logger = Logger::instance();
  const std::size_t before = logger.sink_count();
  logger.remove_sink(123456);
  EXPECT_EQ(logger.sink_count(), before);
}

TEST(Logger, SinksStackAndRemoveIndependently) {
  auto& logger = Logger::instance();
  const auto saved_level = logger.level();
  logger.set_level(LogLevel::Warn);
  int first_hits = 0, second_hits = 0;
  const int first = logger.add_sink([&first_hits](const LogRecord&) {
    ++first_hits;
  });
  const int second = logger.add_sink([&second_hits](const LogRecord&) {
    ++second_hits;
  });
  LTFB_LOG_WARN("testsink", "both");
  logger.remove_sink(first);
  LTFB_LOG_WARN("testsink", "second only");
  logger.remove_sink(second);
  logger.set_level(saved_level);
  EXPECT_EQ(first_hits, 1);
  EXPECT_EQ(second_hits, 2);
}

// Regression: level_ used to be a plain enum guarded by nothing — enabled()
// read it while set_level() wrote it, a data race. It is atomic now; readers
// must only ever observe a value some thread actually stored (run under
// LTFB_SANITIZE=thread in CI to make the old race fatal).
TEST(Logger, LevelChangesAreThreadSafe) {
  auto& logger = Logger::instance();
  const auto saved_level = logger.level();
  logger.set_level(LogLevel::Debug);
  std::atomic<bool> stop{false};
  std::atomic<int> torn_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const LogLevel seen = logger.level();
        if (seen != LogLevel::Debug && seen != LogLevel::Error) {
          torn_reads.fetch_add(1);
        }
        (void)logger.enabled(LogLevel::Warn);
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    logger.set_level(i % 2 == 0 ? LogLevel::Error : LogLevel::Debug);
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(torn_reads.load(), 0);
  logger.set_level(saved_level);
}

}  // namespace
