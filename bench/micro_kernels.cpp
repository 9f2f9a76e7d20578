// google-benchmark microbenches for the performance-critical kernels:
// blocked GEMM (the fully-connected workhorse), steady-state comm (a
// ping-pong and the gradient ring over both transports), the data-store
// exchange, a full CycleGAN training step, and the JAG simulator itself.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_telemetry.hpp"
#include "comm/communicator.hpp"
#include "data/data_reader.hpp"
#include "data/dataset.hpp"
#include "datastore/data_store.hpp"
#include "gan/cyclegan.hpp"
#include "jag/jag_model.hpp"
#include "nn/parallel.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "util/compute_pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace ltfb;

void fill_random(tensor::Tensor& t, std::uint64_t seed) {
  util::Rng rng(seed);
  for (auto& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
}

// User plus system CPU time of the whole process, every thread included.
double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Tensor a(n, n), b(n, n), c(n, n);
  fill_random(a, 1);
  fill_random(b, 2);
  for (auto _ : state) {
    tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      tensor::gemm_flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// GEMM thread scaling at a fixed shape: pool size is pinned per run so the
// numbers are comparable regardless of LTFB_COMPUTE_THREADS in the
// environment.
void BM_GemmPool(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  util::ComputePool::instance().resize(threads);
  tensor::Tensor a(n, n), b(n, n), c(n, n);
  fill_random(a, 1);
  fill_random(b, 2);
  for (auto _ : state) {
    tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      tensor::gemm_flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
  util::ComputePool::instance().resize(util::ComputePool::env_threads());
}
// Real time, not CPU time: the work runs on pool workers, so the calling
// thread's CPU clock under-counts by ~the thread count.
BENCHMARK(BM_GemmPool)->Args({512, 1})->Args({512, 4})->UseRealTime();

// Fork-join cost of the compute team alone: one empty task per thread, so
// the time is dispatch plus join. Kernels fan out only above a work
// threshold; this is the overhead that threshold has to pay for.
// Back-to-back calls find the workers still spinning from the last one.
void BM_PoolDispatch(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  util::ComputePool& pool = util::ComputePool::instance();
  pool.resize(threads);
  for (auto _ : state) {
    pool.run_tasks(threads, [](std::size_t t) { benchmark::DoNotOptimize(t); });
  }
  pool.resize(util::ComputePool::env_threads());
}
BENCHMARK(BM_PoolDispatch)->Arg(2)->Arg(4)->UseRealTime();

// The same fork-join when every worker has parked: each call comes 1 ms
// after the last, well past the workers' spin window, so the time includes
// the wake path. Only the call itself is timed, and the iteration count is
// fixed because the sleeps do not count toward the benchmark's time budget.
void BM_PoolDispatchParked(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  util::ComputePool& pool = util::ComputePool::instance();
  pool.resize(threads);
  for (auto _ : state) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t start = telemetry::now_ns();
    pool.run_tasks(threads, [](std::size_t t) { benchmark::DoNotOptimize(t); });
    state.SetIterationTime(
        static_cast<double>(telemetry::now_ns() - start) * 1e-9);
  }
  pool.resize(util::ComputePool::env_threads());
}
BENCHMARK(BM_PoolDispatchParked)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Iterations(1000);

void BM_GemmTransposed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Tensor a(n, n), b(n, n), c(n, n);
  fill_random(a, 3);
  fill_random(b, 4);
  for (auto _ : state) {
    tensor::gemm(tensor::Op::Transpose, tensor::Op::None, 1.0f, a, b, 0.0f,
                 c);
    benchmark::DoNotOptimize(c.raw());
  }
}
BENCHMARK(BM_GemmTransposed)->Arg(128);

// Steady-state comm cost inside one World: the rank threads start once per
// benchmark run, outside the timed loop, and rank 0's loop is the one that
// is timed. Every rank runs the same number of operations (a few untimed
// warm-up ones, then state.max_iterations), so a ring or a ping-pong stays
// in lockstep. The compute team is sized 1, as for the bench workloads'
// data-parallel ranks, and telemetry is off, as in ltfb_bench's
// end-to-end runs, so the numbers are comm alone: with it on, every send
// also mints a flow id under its rank's lock and appends trace flow events.
constexpr std::int64_t kCommWarmup = 16;

enum CommArg : std::int64_t { kInProc = 0, kSocket = 1, kFp32 = 0, kBf16 = 1 };

comm::BackendKind backend_arg(std::int64_t arg) {
  return arg == kSocket ? comm::BackendKind::Socket : comm::BackendKind::InProc;
}

/// Runs one operation per iteration on every rank of a `ranks`-rank World
/// on `backend`; `setup(comm)` builds each rank's operation on that rank's
/// thread.
void run_steady_state(
    benchmark::State& state, int ranks, comm::BackendKind backend,
    const std::function<std::function<void()>(comm::Communicator&)>& setup) {
  util::ComputePool::instance().resize(1);
  telemetry::Registry& registry = telemetry::Registry::instance();
  const bool traced = registry.is_enabled();
  registry.set_enabled(false);
  comm::World world(ranks, backend);
  const auto iterations = static_cast<std::int64_t>(state.max_iterations);
  const std::vector<std::exception_ptr> errors =
      world.run_ranks([&](comm::Communicator& comm) {
        const std::function<void()> op = setup(comm);
        for (std::int64_t i = 0; i < kCommWarmup; ++i) op();
        if (comm.rank() == 0) {
          for (auto _ : state) op();
        } else {
          for (std::int64_t i = 0; i < iterations; ++i) op();
        }
      });
  registry.set_enabled(traced);
  util::ComputePool::instance().resize(util::ComputePool::env_threads());
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

// Round trip of an 8-byte message between two ranks.
void BM_CommPingPong(benchmark::State& state) {
  const comm::BackendKind backend = backend_arg(state.range(0));
  state.SetLabel(comm::backend_name(backend));
  run_steady_state(state, 2, backend, [](comm::Communicator& comm) {
    return [&comm] {
      if (comm.rank() == 0) {
        comm.send(1, 1, comm::Buffer(8));
        benchmark::DoNotOptimize(comm.recv(1, 2).data());
      } else {
        benchmark::DoNotOptimize(comm.recv(0, 1).data());
        comm.send(0, 2, comm::Buffer(8));
      }
    };
  });
}
BENCHMARK(BM_CommPingPong)->Arg(kInProc)->Arg(kSocket)->UseRealTime();

// One model per sync group, each with exactly its group's parameter count
// (one linear layer of `floats` parameters), and a bucketer that packs and
// syncs them the way a trainer's backward hook and gradient sync do.
struct SyncGroups {
  SyncGroups(comm::Communicator& comm, const std::vector<std::int64_t>& sizes,
             nn::WireDtype dtype)
      : bucketer(comm, dtype) {
    util::Rng rng(static_cast<std::uint64_t>(comm.rank()) + 1);
    for (const std::int64_t floats : sizes) {
      auto model = std::make_unique<nn::Model>("sync", 1);
      const nn::LayerId in =
          model->add_input(static_cast<std::size_t>(floats - 1));
      model->add_linear(in, 1);
      std::vector<float> grads(model->parameter_count());
      for (auto& g : grads) g = static_cast<float>(rng.uniform(-1.0, 1.0));
      model->load_flat_gradients(grads);
      models.push_back(std::move(model));
    }
  }

  void sync() {
    for (const auto& model : models) {
      const auto weights = model->weights();
      for (std::size_t i = weights.size(); i-- > 0;) {
        bucketer.on_layer_backward(*weights[i]);
      }
      bucketer.finish({model.get()});
    }
  }

  nn::GradientBucketer bucketer;
  std::vector<std::unique_ptr<nn::Model>> models;
};

void run_sync_groups(benchmark::State& state, int ranks,
                     const std::vector<std::int64_t>& sizes,
                     std::int64_t backend, std::int64_t dtype) {
  const nn::WireDtype wire =
      dtype == kBf16 ? nn::WireDtype::Bf16 : nn::WireDtype::Fp32;
  state.SetLabel(std::string(comm::backend_name(backend_arg(backend))) + " " +
                 nn::to_string(wire));
  run_steady_state(state, ranks, backend_arg(backend),
                   [&sizes, wire](comm::Communicator& comm) {
                     auto groups =
                         std::make_shared<SyncGroups>(comm, sizes, wire);
                     return [groups] { groups->sync(); };
                   });
  state.counters["floats"] = static_cast<double>(
      std::accumulate(sizes.begin(), sizes.end(), std::int64_t{0}));
}

// One GradientBucketer::finish over each of the bench CycleGAN's sync
// groups: critic (817 floats), generator (2,537), and autoencoder at 8x8
// (32,291) and 16x16 (106,595) images.
// Args: ranks, floats, backend (0 inproc, 1 socket), wire (0 fp32, 1 bf16).
void BM_BucketerSync(benchmark::State& state) {
  run_sync_groups(state, static_cast<int>(state.range(0)), {state.range(1)},
                  state.range(2), state.range(3));
}
BENCHMARK(BM_BucketerSync)
    ->ArgsProduct({{2, 4}, {817, 2537, 32291, 106595}, {kInProc, kSocket},
                   {kFp32, kBf16}})
    ->UseRealTime();

// The three syncs of one data-parallel CycleGAN step: the shapes of
// dp4_datastore (p=4, in-proc, fp32, 16x16 images) and of
// ltfb_2x2_socket_bf16's trainers (p=2, socket, bf16, 8x8 images).
void BM_BucketerStep(benchmark::State& state) {
  const bool dp4 = state.range(0) == 4;
  run_sync_groups(state, static_cast<int>(state.range(0)),
                  {dp4 ? 106595 : 32291, 817, 2537}, state.range(1),
                  state.range(2));
}
BENCHMARK(BM_BucketerStep)
    ->Args({4, kInProc, kFp32})
    ->Args({2, kSocket, kBf16})
    ->UseRealTime();

void BM_JagSimulation(benchmark::State& state) {
  jag::JagConfig config;
  config.image_size = static_cast<std::size_t>(state.range(0));
  const jag::JagModel model(config);
  util::Rng rng(7);
  for (auto _ : state) {
    std::array<double, jag::kNumInputs> point{};
    for (auto& c : point) c = rng.uniform();
    const auto out = model.run(point);
    benchmark::DoNotOptimize(out.scalars.data());
  }
}
BENCHMARK(BM_JagSimulation)->Arg(16)->Arg(64);

void BM_CycleGanTrainStep(benchmark::State& state) {
  jag::JagConfig jag_config;
  jag_config.image_size = 8;
  jag_config.num_channels = 1;
  const jag::JagModel jag_model(jag_config);
  data::Dataset dataset = data::generate_jag_dataset(jag_model, 256, 5);
  const auto norms = data::fit_normalizers(dataset);
  data::normalize_dataset(dataset, norms);

  gan::CycleGanConfig config;
  config.image_width = jag_config.image_features();
  config.latent_width = 20;
  config.encoder_hidden = {64, 32};
  config.decoder_hidden = {32, 64};
  config.forward_hidden = {32, 32};
  config.inverse_hidden = {24};
  config.discriminator_hidden = {24, 12};
  gan::CycleGan model(config, 6);

  std::vector<std::size_t> view(dataset.size());
  std::iota(view.begin(), view.end(), 0);
  data::MiniBatchReader reader(dataset, view, 128, 7);
  util::ComputePool::instance().resize(
      static_cast<std::size_t>(state.range(0)));
  const double cpu_start = process_cpu_seconds();
  for (auto _ : state) {
    const auto metrics = model.train_step(reader.next());
    benchmark::DoNotOptimize(metrics.fidelity_loss);
  }
  // The whole process's CPU time, workers included, next to the real time
  // a step took: what the team's speed costs in cores.
  state.counters["cpu_s_per_step"] =
      (process_cpu_seconds() - cpu_start) /
      static_cast<double>(state.iterations());
  state.counters["params"] = static_cast<double>(model.parameter_count());
  util::ComputePool::instance().resize(util::ComputePool::env_threads());
}
// Team sizes 1 and the default; real time, since the workers' time does
// not show on the calling thread's CPU clock.
BENCHMARK(BM_CycleGanTrainStep)
    ->Apply([](benchmark::internal::Benchmark* b) {
      b->Arg(1);
      const std::size_t team = util::ComputePool::env_threads();
      if (team != 1) b->Arg(static_cast<std::int64_t>(team));
    })
    ->UseRealTime();

void BM_DataStoreFetch(benchmark::State& state) {
  const auto dir =
      std::filesystem::temp_directory_path() / "ltfb_bench_store";
  std::filesystem::remove_all(dir);
  data::SampleSchema schema;
  schema.input_width = 5;
  schema.scalar_width = 15;
  schema.image_width = 192;
  std::vector<data::Sample> samples;
  for (data::SampleId id = 0; id < 512; ++id) {
    data::Sample sample;
    sample.id = id;
    sample.input.assign(5, 1.0f);
    sample.scalars.assign(15, 2.0f);
    sample.images.assign(192, 3.0f);
    samples.push_back(std::move(sample));
  }
  const auto paths = data::write_bundle_set(dir, schema, samples, 8);
  datastore::BundleCatalog catalog(paths);

  for (auto _ : state) {
    comm::World::run(2, [&](comm::Communicator& comm) {
      datastore::DataStore store(comm, &catalog,
                                 datastore::PopulateMode::Preloaded);
      store.preload();
      util::Rng rng(static_cast<std::uint64_t>(comm.rank()) + 11);
      for (int step = 0; step < 8; ++step) {
        std::vector<data::SampleId> wanted(32);
        for (auto& id : wanted) id = rng.uniform_index(512);
        const auto got = store.fetch(wanted);
        benchmark::DoNotOptimize(got.data());
      }
    });
  }
}
BENCHMARK(BM_DataStoreFetch);

// Explicit GEMM thread-scaling measurement for the regression gate
// (tools/bench_check.py): GFLOP/s at 512^3 serial and with a 4-worker pool,
// recorded as gauges in BENCH_micro_kernels.json. Separate from the
// google-benchmark runs so the gate reads stable, purpose-named numbers.
// Also records the SIMD build configuration (bench/simd_width, which the
// gate maps to a per-configuration floor key like "simd=avx2") and the
// FLOP + bytes-moved totals each measurement pushed through the kernel,
// plus an ungated serial gauge over the CycleGAN's skinny layer shapes.
// Serial GFLOP/s over the GEMMs of a batch-128 step through the CycleGAN's
// 207->64 and 64->32 dense layers: forward (X W), weight gradient (X^T dZ)
// and input gradient (dZ W^T) of each, issued exactly as nn::FullyConnected
// issues them. These narrow shapes are mostly padded edge tiles and B-panel
// packing, which the square 512^3 gauge never shows. Reported, not gated.
void record_layer_gemm_gauge() {
  using tensor::Op;
  using tensor::Tensor;
  constexpr std::size_t kBatch = 128;
  constexpr int kIters = 200;
  struct Layer {
    Tensor x, w, z, dw, dx;
  };
  std::vector<Layer> layers;
  double flops = 0.0;
  for (const auto& [in, out] : {std::pair<std::size_t, std::size_t>{207, 64},
                                std::pair<std::size_t, std::size_t>{64, 32}}) {
    Layer layer{Tensor(kBatch, in), Tensor(in, out), Tensor(kBatch, out),
                Tensor(in, out), Tensor(kBatch, in)};
    fill_random(layer.x, 5);
    fill_random(layer.w, 6);
    fill_random(layer.z, 7);
    layers.push_back(std::move(layer));
    flops += 3.0 * tensor::gemm_flops(kBatch, out, in);
  }
  auto step = [&layers] {
    for (Layer& l : layers) {
      tensor::gemm(Op::None, Op::None, 1.0f, l.x, l.w, 0.0f, l.z);
      tensor::gemm(Op::Transpose, Op::None, 1.0f, l.x, l.z, 1.0f, l.dw);
      tensor::gemm(Op::None, Op::Transpose, 1.0f, l.z, l.w, 0.0f, l.dx);
      benchmark::DoNotOptimize(l.dx.raw());
    }
  };
  util::ComputePool::instance().resize(1);
  step();  // warm-up (pack buffers, page faults)
  const std::uint64_t start = telemetry::now_ns();
  for (int i = 0; i < kIters; ++i) step();
  const double seconds =
      static_cast<double>(telemetry::now_ns() - start) * 1e-9;
  util::ComputePool::instance().resize(util::ComputePool::env_threads());
  const double gflops = flops * kIters / seconds / 1e9;
  LTFB_GAUGE_SET("bench/gemm_layers_serial_gflops", gflops);
  std::cout << "gemm batch-128 layers 207->64, 64->32 (fwd, dW, dX): serial "
            << gflops << " GFLOP/s\n";
}

void record_gemm_scaling_gauges() {
  constexpr std::size_t kN = 512;
  // Each side is the median of kCalls timed calls, so one call that the
  // host descheduled cannot move the ratio the gate reads.
  constexpr int kCalls = 15;
  tensor::Tensor a(kN, kN), b(kN, kN), c(kN, kN);
  fill_random(a, 1);
  fill_random(b, 2);
  const double flops = tensor::gemm_flops(kN, kN, kN);
  // Logical traffic per GEMM call: read A and B once, write C once. The
  // blocked kernel re-reads packed tiles from cache, so this is the
  // algorithmic (compulsory) byte count, not the memory-bus count.
  const double gemm_bytes = 3.0 * kN * kN * sizeof(float);
  auto measure = [&](std::size_t threads) {
    util::ComputePool::instance().resize(threads);
    tensor::matmul(a, b, c);  // warm-up (pack buffers, page faults)
    std::vector<double> seconds;
    for (int i = 0; i < kCalls; ++i) {
      const std::uint64_t start = telemetry::now_ns();
      tensor::matmul(a, b, c);
      benchmark::DoNotOptimize(c.raw());
      seconds.push_back(static_cast<double>(telemetry::now_ns() - start) *
                        1e-9);
    }
    std::nth_element(seconds.begin(), seconds.begin() + kCalls / 2,
                     seconds.end());
    return flops / seconds[kCalls / 2] / 1e9;
  };
  const double serial = measure(1);
  const double pool4 = measure(4);
  util::ComputePool::instance().resize(util::ComputePool::env_threads());
  LTFB_GAUGE_SET("bench/simd_width",
                 static_cast<double>(tensor::simd::kNativeWidth));
  LTFB_GAUGE_SET("bench/gemm_serial_gflops", serial);
  LTFB_GAUGE_SET("bench/gemm_pool4_gflops", pool4);
  LTFB_GAUGE_SET("bench/gemm_speedup_4t", pool4 / serial);
  LTFB_GAUGE_SET("bench/gemm_flops_per_call", flops);
  LTFB_GAUGE_SET("bench/gemm_bytes_moved_per_call", gemm_bytes);
  std::cout << "gemm 512^3 (simd width " << tensor::simd::kNativeWidth
            << "): serial " << serial << " GFLOP/s, pool(4) " << pool4
            << " GFLOP/s, speedup " << pool4 / serial << "x\n";
  record_layer_gemm_gauge();
}

// Streaming-kernel bandwidth gauge: axpy moves 3 floats of traffic per
// element (read x, read y, write y); the SIMD rewrite should keep this at
// memory bandwidth regardless of width. Recorded as GB/s plus the
// bytes-moved total so the regression gate can sanity-check the rate.
void record_axpy_bandwidth_gauge() {
  constexpr std::size_t kElems = 1u << 22;  // 16 MiB per vector
  constexpr int kIters = 8;
  std::vector<float> x(kElems, 1.5f), y(kElems, 0.25f);
  util::ComputePool::instance().resize(1);
  tensor::axpy(0.5f, x, y);  // warm-up
  const std::uint64_t start = telemetry::now_ns();
  for (int i = 0; i < kIters; ++i) {
    tensor::axpy(0.5f, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  const double seconds =
      static_cast<double>(telemetry::now_ns() - start) * 1e-9;
  util::ComputePool::instance().resize(util::ComputePool::env_threads());
  const double bytes_moved =
      3.0 * kElems * sizeof(float) * static_cast<double>(kIters);
  LTFB_GAUGE_SET("bench/axpy_bytes_moved", bytes_moved);
  LTFB_GAUGE_SET("bench/axpy_gbps", bytes_moved / seconds / 1e9);
  std::cout << "axpy " << kElems << " elems: "
            << bytes_moved / seconds / 1e9 << " GB/s\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchTelemetry telemetry("micro_kernels");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  record_gemm_scaling_gauges();
  record_axpy_bandwidth_gauge();
  return 0;
}
