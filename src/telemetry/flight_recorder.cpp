#include "telemetry/flight_recorder.hpp"

#include <fcntl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string_view>
#include <thread>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace ltfb::telemetry::flight {

namespace {

// Every field a snapshotting reader (watchdog / crash handler, possibly a
// different thread) may touch is an atomic accessed relaxed: on the
// producer side a relaxed store compiles to a plain store on x86/arm, and
// atomics keep the cross-thread snapshot race TSan-clean and
// async-signal-safe (lock-free atomics are safe to read from a handler).
// Publication ordering is carried by the head/depth release stores alone.

constexpr int kMaxThreads = 256;
constexpr std::uint64_t kRingSize = 1024;  // power of two, events per thread
constexpr int kMaxSpanDepth = 64;
constexpr int kMaxPending = 128;
constexpr int kThreadNameLen = 32;
constexpr int kMaxDirLen = 224;

constexpr int kHeartbeatSlots = telemetry::detail::kMaxRankScopes + 1;

struct Event {
  std::atomic<std::uint64_t> ts_ns{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
  std::atomic<std::uint64_t> c{0};
  std::atomic<std::uint8_t> kind{0};
};

struct SpanFrame {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> start_ns{0};
};

struct ThreadState {
  std::atomic<bool> active{false};  // currently claimed by a live thread
  std::atomic<bool> used{false};    // ever claimed since the last reclaim
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint32_t> depth{0};
  std::atomic<std::uint32_t> overflow_spans{0};  // frames past kMaxSpanDepth
  std::atomic<int> rank{-1};
  std::atomic<unsigned long> tid{0};
  std::atomic<char> name[kThreadNameLen]{};
  Event ring[kRingSize];
  SpanFrame stack[kMaxSpanDepth];
};

ThreadState g_threads[kMaxThreads];
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint64_t> g_heartbeats[kHeartbeatSlots];

struct PendingSlot {
  // 0 = free, 1 = being written by the claimer, 2 = active (published).
  std::atomic<int> state{0};
  std::atomic<const char*> op{nullptr};
  std::atomic<std::int64_t> tag{0};
  std::atomic<int> peer{-1};
  std::atomic<int> rank{-1};
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> hb_at_entry{0};
  std::atomic<bool> dumped{false};
};

PendingSlot g_pending[kMaxPending];
std::atomic<std::uint64_t> g_pending_dropped{0};

std::atomic<int> g_process_rank{-1};

// Postmortem directory, captured before the crash handler can fire
// (getenv and std::string are both off-limits inside the handler). Null
// terminated; writes happen in init paths only.
std::atomic<char> g_postmortem_dir[kMaxDirLen + 1]{};

std::atomic<bool> g_crash_handler_installed{false};
std::atomic<int> g_in_dump{0};

// Watchdog machinery. The mutex/cv pair exists only to make stop() prompt;
// all stall detection reads the lock-free structures above.
std::mutex g_watchdog_mutex;
std::condition_variable g_watchdog_cv;
std::thread g_watchdog_thread;
std::atomic<bool> g_watchdog_running{false};
bool g_watchdog_stop = false;  // guarded by g_watchdog_mutex
std::atomic<double> g_watchdog_window_s{0.0};
std::atomic<std::uint64_t> g_stalls_detected{0};

int heartbeat_index(int rank) noexcept {
  return (rank >= 0 && rank < telemetry::detail::kMaxRankScopes) ? rank + 1
                                                                 : 0;
}

unsigned long current_tid() noexcept {
  return static_cast<unsigned long>(::syscall(SYS_gettid));
}

void store_dir(const char* dir) noexcept {
  int i = 0;
  for (; i < kMaxDirLen && dir[i] != '\0'; ++i) {
    g_postmortem_dir[i].store(dir[i], std::memory_order_relaxed);
  }
  g_postmortem_dir[i].store('\0', std::memory_order_release);
}

/// Claims one ThreadState slot per thread for its lifetime; the slot is
/// recycled (history reset) after the thread exits. Claim order scans the
/// static pool, so slot exhaustion degrades to counted drops, never UB.
struct SlotHolder {
  ThreadState* slot = nullptr;

  SlotHolder() noexcept {
    for (auto& candidate : g_threads) {
      bool expected = false;
      if (candidate.active.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel)) {
        candidate.head.store(0, std::memory_order_relaxed);
        candidate.depth.store(0, std::memory_order_relaxed);
        candidate.overflow_spans.store(0, std::memory_order_relaxed);
        candidate.rank.store(telemetry::bound_rank(),
                             std::memory_order_relaxed);
        candidate.tid.store(current_tid(), std::memory_order_relaxed);
        candidate.name[0].store('\0', std::memory_order_relaxed);
        candidate.used.store(true, std::memory_order_release);
        slot = &candidate;
        break;
      }
    }
  }

  ~SlotHolder() {
    // Keep the ring contents visible to later dumps (a thread that died
    // mid-run is exactly what a postmortem wants to show); only the claim
    // is released so a future thread may recycle the slot.
    if (slot != nullptr) slot->active.store(false, std::memory_order_release);
  }
};

ThreadState* local_slot() noexcept {
  thread_local SlotHolder holder;
  return holder.slot;
}

void append_event(ThreadState& ts, EventKind kind, const char* name,
                  std::uint64_t a, std::uint64_t b, std::uint64_t c) noexcept {
  const std::uint64_t head = ts.head.load(std::memory_order_relaxed);
  Event& event = ts.ring[head % kRingSize];
  event.ts_ns.store(now_ns(), std::memory_order_relaxed);
  event.name.store(name, std::memory_order_relaxed);
  event.a.store(a, std::memory_order_relaxed);
  event.b.store(b, std::memory_order_relaxed);
  event.c.store(c, std::memory_order_relaxed);
  event.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  ts.rank.store(telemetry::bound_rank(), std::memory_order_relaxed);
  ts.head.store(head + 1, std::memory_order_release);
}

// -------------------------------------------------------------------------
// Async-signal-safe JSON sink: open()/write() plus static formatting only.
// -------------------------------------------------------------------------

ssize_t write_all(int fd, const char* data, size_t len) noexcept {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

struct Sink {
  int fd = -1;
  char buf[4096];
  size_t len = 0;

  void flush() noexcept {
    if (len > 0) write_all(fd, buf, len);
    len = 0;
  }
  void put(char c) noexcept {
    if (len == sizeof(buf)) flush();
    buf[len++] = c;
  }
  void raw(const char* s) noexcept {
    while (*s != '\0') put(*s++);
  }
  void u64(std::uint64_t v) noexcept {
    char tmp[24];
    int i = 0;
    do {
      tmp[i++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (i > 0) put(tmp[--i]);
  }
  void i64(std::int64_t v) noexcept {
    if (v < 0) {
      put('-');
      u64(static_cast<std::uint64_t>(-(v + 1)) + 1);
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }
  void hex(std::uint64_t v) noexcept {
    raw("0x");
    char tmp[16];
    int i = 0;
    do {
      tmp[i++] = "0123456789abcdef"[v % 16];
      v /= 16;
    } while (v != 0);
    while (i > 0) put(tmp[--i]);
  }
  void qstr(const char* s) noexcept {
    put('"');
    if (s != nullptr) {
      for (; *s != '\0'; ++s) {
        const char c = *s;
        if (c == '"' || c == '\\') {
          put('\\');
          put(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
          put(' ');
        } else {
          put(c);
        }
      }
    }
    put('"');
  }
};

const char* signal_name(int sig) noexcept {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    case SIGBUS:
      return "SIGBUS";
    default:
      return "signal";
  }
}

/// Builds the postmortem file path into `out` (size >= kMaxDirLen + 64)
/// without allocating. rank < 0 falls back to postmortem_proc.json.
void build_path(char* out, int rank) noexcept {
  size_t n = 0;
  for (int i = 0; i < kMaxDirLen; ++i) {
    const char c = g_postmortem_dir[i].load(std::memory_order_acquire);
    if (c == '\0') break;
    out[n++] = c;
  }
  if (n == 0) out[n++] = '.';
  out[n++] = '/';
  const char* stem = "postmortem_";
  for (const char* p = stem; *p != '\0'; ++p) out[n++] = *p;
  if (rank >= 0) {
    const char* word = "rank";
    for (const char* p = word; *p != '\0'; ++p) out[n++] = *p;
    char digits[16];
    int d = 0;
    unsigned value = static_cast<unsigned>(rank);
    do {
      digits[d++] = static_cast<char>('0' + value % 10);
      value /= 10;
    } while (value != 0);
    while (d > 0) out[n++] = digits[--d];
  } else {
    const char* word = "proc";
    for (const char* p = word; *p != '\0'; ++p) out[n++] = *p;
  }
  const char* ext = ".json";
  for (const char* p = ext; *p != '\0'; ++p) out[n++] = *p;
  out[n] = '\0';
}

struct StallBlame {
  const char* op;
  std::int64_t tag;
  int peer;
  int rank;
  std::uint64_t age_ns;
};

void dump_thread(Sink& sink, const ThreadState& ts) {
  sink.raw("{\"tid\": ");
  sink.u64(ts.tid.load(std::memory_order_relaxed));
  sink.raw(", \"name\": ");
  char name[kThreadNameLen];
  for (int i = 0; i < kThreadNameLen; ++i) {
    name[i] = ts.name[i].load(std::memory_order_relaxed);
  }
  name[kThreadNameLen - 1] = '\0';
  sink.qstr(name);
  sink.raw(", \"rank\": ");
  sink.i64(ts.rank.load(std::memory_order_relaxed));
  sink.raw(", \"alive\": ");
  sink.raw(ts.active.load(std::memory_order_relaxed) ? "true" : "false");

  // Live span stack, outermost first. depth is the release-published
  // count; frames beyond kMaxSpanDepth were counted, not stored.
  std::uint32_t depth = ts.depth.load(std::memory_order_acquire);
  if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
  sink.raw(", \"span_stack\": [");
  for (std::uint32_t i = 0; i < depth; ++i) {
    if (i > 0) sink.raw(", ");
    sink.raw("{\"name\": ");
    sink.qstr(ts.stack[i].name.load(std::memory_order_relaxed));
    sink.raw(", \"start_ns\": ");
    sink.u64(ts.stack[i].start_ns.load(std::memory_order_relaxed));
    sink.put('}');
  }
  sink.put(']');
  sink.raw(", \"truncated_spans\": ");
  sink.u64(ts.overflow_spans.load(std::memory_order_relaxed));

  // Recent ring events, oldest first. The owning thread may still be
  // writing: at most the oldest event can be torn (see header contract).
  const std::uint64_t head = ts.head.load(std::memory_order_acquire);
  std::uint64_t first = head > kRingSize ? head - kRingSize : 0;
  sink.raw(", \"events\": [");
  for (std::uint64_t seq = first; seq < head; ++seq) {
    const Event& event = ts.ring[seq % kRingSize];
    if (seq > first) sink.raw(", ");
    sink.raw("{\"kind\": ");
    sink.qstr(event_kind_name(
        static_cast<EventKind>(event.kind.load(std::memory_order_relaxed))));
    sink.raw(", \"name\": ");
    sink.qstr(event.name.load(std::memory_order_relaxed));
    sink.raw(", \"ts_ns\": ");
    sink.u64(event.ts_ns.load(std::memory_order_relaxed));
    sink.raw(", \"a\": ");
    sink.u64(event.a.load(std::memory_order_relaxed));
    sink.raw(", \"b\": ");
    sink.u64(event.b.load(std::memory_order_relaxed));
    sink.raw(", \"c\": \"");
    sink.hex(event.c.load(std::memory_order_relaxed));
    sink.raw("\"}");
  }
  sink.raw("]}");
}

bool write_postmortem_impl(const char* kind, const char* reason, int rank,
                           int signal, const StallBlame* blame) noexcept {
  // One dump at a time: a crash inside the dump (or a concurrent watchdog
  // dump racing a crash) must not recurse or interleave output.
  if (g_in_dump.exchange(1) != 0) return false;

  if (rank < 0) rank = g_process_rank.load(std::memory_order_relaxed);
  if (rank < 0) rank = telemetry::bound_rank();

  // Write `<path>.tmp`, then rename() it into place (both calls are
  // async-signal-safe): a reader polling for the final path never sees a
  // partial dump.
  char path[kMaxDirLen + 64];
  build_path(path, rank);
  char tmp_path[sizeof(path) + 4];
  std::size_t len = 0;
  while ((tmp_path[len] = path[len]) != '\0') ++len;
  const char suffix[] = ".tmp";
  for (std::size_t i = 0; i < sizeof(suffix); ++i) {
    tmp_path[len + i] = suffix[i];
  }
  const int fd = ::open(tmp_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    g_in_dump.store(0, std::memory_order_relaxed);
    return false;
  }

  Sink sink;
  sink.fd = fd;
  sink.raw("{\"schema\": \"ltfb-postmortem-v1\",\n \"kind\": ");
  sink.qstr(kind);
  sink.raw(",\n \"reason\": ");
  sink.qstr(reason);
  sink.raw(",\n \"rank\": ");
  sink.i64(rank);
  sink.raw(",\n \"signal\": ");
  sink.i64(signal);
  if (signal != 0) {
    sink.raw(",\n \"signal_name\": ");
    sink.qstr(signal_name(signal));
  }
  sink.raw(",\n \"ts_ns\": ");
  sink.u64(now_ns());
  sink.raw(",\n \"watchdog_sec\": ");
  const double window = g_watchdog_window_s.load(std::memory_order_relaxed);
  sink.u64(static_cast<std::uint64_t>(window * 1e3));
  sink.raw("e-3,\n \"dropped_events\": ");
  sink.u64(g_dropped.load(std::memory_order_relaxed));
  sink.raw(",\n \"pending_dropped\": ");
  sink.u64(g_pending_dropped.load(std::memory_order_relaxed));

  if (blame != nullptr) {
    sink.raw(",\n \"blame\": {\"op\": ");
    sink.qstr(blame->op);
    sink.raw(", \"tag\": ");
    sink.i64(blame->tag);
    sink.raw(", \"peer\": ");
    sink.i64(blame->peer);
    sink.raw(", \"rank\": ");
    sink.i64(blame->rank);
    sink.raw(", \"age_ns\": ");
    sink.u64(blame->age_ns);
    sink.put('}');
  }

  sink.raw(",\n \"heartbeats\": [");
  bool first_hb = true;
  for (int i = 0; i < kHeartbeatSlots; ++i) {
    const std::uint64_t count = g_heartbeats[i].load(std::memory_order_relaxed);
    if (count == 0) continue;
    if (!first_hb) sink.raw(", ");
    first_hb = false;
    sink.raw("{\"rank\": ");
    sink.i64(i - 1);
    sink.raw(", \"count\": ");
    sink.u64(count);
    sink.put('}');
  }
  sink.put(']');

  sink.raw(",\n \"pending_ops\": [");
  bool first_op = true;
  const std::uint64_t now = now_ns();
  for (const auto& slot : g_pending) {
    if (slot.state.load(std::memory_order_acquire) != 2) continue;
    if (!first_op) sink.raw(", ");
    first_op = false;
    sink.raw("{\"op\": ");
    sink.qstr(slot.op.load(std::memory_order_relaxed));
    sink.raw(", \"tag\": ");
    sink.i64(slot.tag.load(std::memory_order_relaxed));
    sink.raw(", \"peer\": ");
    sink.i64(slot.peer.load(std::memory_order_relaxed));
    sink.raw(", \"rank\": ");
    sink.i64(slot.rank.load(std::memory_order_relaxed));
    sink.raw(", \"age_ns\": ");
    const std::uint64_t start = slot.start_ns.load(std::memory_order_relaxed);
    sink.u64(now > start ? now - start : 0);
    sink.put('}');
  }
  sink.put(']');

  sink.raw(",\n \"threads\": [");
  bool first_thread = true;
  for (const auto& ts : g_threads) {
    if (!ts.used.load(std::memory_order_acquire)) continue;
    if (!first_thread) sink.raw(",\n  ");
    first_thread = false;
    dump_thread(sink, ts);
  }
  sink.raw("]}\n");
  sink.flush();
  ::close(fd);
  const bool placed = ::rename(tmp_path, path) == 0;
  g_in_dump.store(0, std::memory_order_relaxed);
  return placed;
}

extern "C" void ltfb_flight_crash_handler(int sig) {
  write_postmortem_impl("crash", signal_name(sig), -1, sig, nullptr);
  // Restore the default disposition and re-raise so the process still dies
  // by the original signal — the supervisor's WIFSIGNALED attribution (and
  // core dumps, if enabled) survive the detour through the recorder.
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = SIG_DFL;
  ::sigaction(sig, &action, nullptr);
  ::raise(sig);
}

void watchdog_scan(std::uint64_t window_ns) {
  const std::uint64_t now = now_ns();
  for (auto& slot : g_pending) {
    if (slot.state.load(std::memory_order_acquire) != 2) continue;
    const std::uint64_t start = slot.start_ns.load(std::memory_order_relaxed);
    if (now < start + window_ns) continue;
    const int rank = slot.rank.load(std::memory_order_relaxed);
    const std::uint64_t hb_now =
        g_heartbeats[heartbeat_index(rank)].load(std::memory_order_relaxed);
    if (hb_now != slot.hb_at_entry.load(std::memory_order_relaxed)) {
      // The owning rank made progress elsewhere (compute pool, datastore,
      // round boundary) while this op waited: not a stall. Re-arm the
      // window from now so a later wedge is still caught.
      slot.hb_at_entry.store(hb_now, std::memory_order_relaxed);
      slot.start_ns.store(now, std::memory_order_relaxed);
      continue;
    }
    if (slot.dumped.exchange(true, std::memory_order_acq_rel)) continue;

    StallBlame blame{slot.op.load(std::memory_order_relaxed),
                     slot.tag.load(std::memory_order_relaxed),
                     slot.peer.load(std::memory_order_relaxed), rank,
                     now - start};
    g_stalls_detected.fetch_add(1, std::memory_order_relaxed);
    LTFB_COUNTER_ADD("watchdog/stall_detected", 1);
    LTFB_LOG_WARN("flight",
                  "watchdog/stall_detected op="
                      << (blame.op != nullptr ? blame.op : "?")
                      << " tag=" << blame.tag << " peer=" << blame.peer
                      << " rank=" << blame.rank
                      << " age_ms=" << blame.age_ns / 1000000
                      << " window_ms=" << window_ns / 1000000 << " dump="
                      << postmortem_path(rank));
    write_postmortem_impl("stall", "watchdog/stall_detected", rank, 0, &blame);
  }
}

void watchdog_main(double window_s) {
  telemetry::set_thread_name("telemetry/watchdog");
  const auto window_ns = static_cast<std::uint64_t>(window_s * 1e9);
  // Wake ~4x per window so a stall is declared within window + period
  // <= 2x the configured window (the acceptance bound), clamped so
  // sub-second test windows stay responsive without busy-waiting.
  auto period = std::chrono::duration<double>(window_s / 4.0);
  if (period < std::chrono::milliseconds(10)) {
    period = std::chrono::milliseconds(10);
  }
  if (period > std::chrono::seconds(1)) period = std::chrono::seconds(1);

  std::unique_lock<std::mutex> lock(g_watchdog_mutex);
  while (!g_watchdog_stop) {
    g_watchdog_cv.wait_for(lock, period);
    if (g_watchdog_stop) break;
    lock.unlock();
    watchdog_scan(window_ns);
    lock.lock();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Hot-path sinks (declared in flight_recorder.hpp / telemetry.hpp detail)
// ---------------------------------------------------------------------------

namespace detail {

void flight_record(EventKind kind, const char* name, std::uint64_t a,
                   std::uint64_t b, std::uint64_t c) noexcept {
  ThreadState* ts = local_slot();
  if (ts == nullptr) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  append_event(*ts, kind, name, a, b, c);
}

void flight_heartbeat() noexcept {
  // A heartbeat only needs to CHANGE while the rank makes progress, so a
  // rate-limited timestamp store beats a counter: an unconditional
  // fetch_add on the shared rank slot from compute workers measured >10%
  // of step time in bench/telemetry_overhead. The read-mostly load keeps
  // the cache line shared between ticks; at most one writer per ms
  // dirties it.
  std::atomic<std::uint64_t>& slot =
      g_heartbeats[heartbeat_index(telemetry::bound_rank())];
  const std::uint64_t now = now_ns();
  const std::uint64_t prev = slot.load(std::memory_order_relaxed);
  if (prev != 0 && now - prev < 1'000'000) return;
  // 0 means "never ticked" — the first tick lands even when the telemetry
  // epoch was primed microseconds ago (now ~ 0).
  slot.store(now != 0 ? now : 1, std::memory_order_relaxed);
}

void flight_heartbeat_hot() noexcept {
  // The per-pool-job variant: called thousands of times per train step, so
  // even the clock read above is too hot (~4% of step time). A
  // thread-local counter decimates to ~1/64 of calls. Decimation only
  // delays liveness on slowly-progressing threads — a stalled rank makes
  // no calls at all, so no stall is ever masked — and every low-frequency
  // site (comm op entry, round boundaries) uses the precise tick.
  thread_local unsigned tl_decimate = 0;
  if ((++tl_decimate & 63u) != 0) return;
  flight_heartbeat();
}

void flight_thread_name(std::string_view name) noexcept {
  ThreadState* ts = local_slot();
  if (ts == nullptr) return;
  int i = 0;
  for (; i < kThreadNameLen - 1 && i < static_cast<int>(name.size()); ++i) {
    ts->name[i].store(name[i], std::memory_order_relaxed);
  }
  ts->name[i].store('\0', std::memory_order_relaxed);
}

void flight_span_push(const char* name) noexcept {
  ThreadState* ts = local_slot();
  if (ts == nullptr) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint32_t depth = ts->depth.load(std::memory_order_relaxed);
  if (depth < kMaxSpanDepth) {
    ts->stack[depth].name.store(name, std::memory_order_relaxed);
    ts->stack[depth].start_ns.store(now_ns(), std::memory_order_relaxed);
    ts->depth.store(depth + 1, std::memory_order_release);
  } else {
    // Frames past the fixed stack are counted, not stored — the pop path
    // drains the overflow count before touching stored frames.
    ts->overflow_spans.fetch_add(1, std::memory_order_relaxed);
  }
  append_event(*ts, EventKind::SpanBegin, name, 0, 0, 0);
}

void flight_span_pop() noexcept {
  ThreadState* ts = local_slot();
  if (ts == nullptr) return;
  const char* name = "span";
  const std::uint32_t overflow =
      ts->overflow_spans.load(std::memory_order_relaxed);
  if (overflow > 0) {
    ts->overflow_spans.store(overflow - 1, std::memory_order_relaxed);
  } else {
    const std::uint32_t depth = ts->depth.load(std::memory_order_relaxed);
    if (depth == 0) return;
    const std::uint32_t top = depth <= kMaxSpanDepth ? depth : kMaxSpanDepth;
    name = ts->stack[top - 1].name.load(std::memory_order_relaxed);
    ts->depth.store(depth - 1, std::memory_order_release);
  }
  append_event(*ts, EventKind::SpanEnd, name, 0, 0, 0);
}

}  // namespace detail

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::SpanBegin:
      return "span_begin";
    case EventKind::SpanEnd:
      return "span_end";
    case EventKind::CommOp:
      return "comm_op";
    case EventKind::CommSend:
      return "comm_send";
    case EventKind::CommRecv:
      return "comm_recv";
    case EventKind::WaitBegin:
      return "wait_begin";
    case EventKind::WaitEnd:
      return "wait_end";
    case EventKind::Fault:
      return "fault";
  }
  return "unknown";
}

void set_enabled(bool on) noexcept {
  if (on) {
    // Prime the telemetry epoch outside any signal context: now_ns()
    // initializes a function-local static on first use, which must never
    // happen inside the crash handler.
    (void)now_ns();
    (void)local_slot();
  }
  telemetry::detail::g_flight_enabled.store(on, std::memory_order_relaxed);
}

bool init_from_env() {
  if (const char* dir = std::getenv("LTFB_POSTMORTEM_DIR");
      dir != nullptr && dir[0] != '\0') {
    if (std::strlen(dir) > kMaxDirLen) {
      LTFB_LOG_WARN("flight", "LTFB_POSTMORTEM_DIR longer than "
                                  << kMaxDirLen
                                  << " chars, keeping previous directory");
    } else {
      store_dir(dir);
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);  // best effort
    }
  }

  const char* flag = std::getenv("LTFB_FLIGHT_RECORDER");
  const bool on =
      flag != nullptr && flag[0] != '\0' && std::string_view(flag) != "0";
  if (on) {
    set_enabled(true);
    install_crash_handler();
  }

  if (const char* window = std::getenv("LTFB_WATCHDOG_SEC");
      window != nullptr && window[0] != '\0') {
    char* end = nullptr;
    const double seconds = std::strtod(window, &end);
    if (end == window || !(seconds > 0.0) || !std::isfinite(seconds)) {
      LTFB_LOG_WARN("flight",
                    "ignoring invalid LTFB_WATCHDOG_SEC=" << window);
    } else if (!g_watchdog_running.load(std::memory_order_acquire)) {
      start_watchdog(seconds);
    }
  }
  return enabled();
}

std::uint64_t heartbeat_count(int rank) noexcept {
  if (rank >= telemetry::detail::kMaxRankScopes) return 0;
  return g_heartbeats[heartbeat_index(rank)].load(std::memory_order_relaxed);
}

std::uint64_t dropped_events() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Pending-op registry
// ---------------------------------------------------------------------------

PendingOp::PendingOp(const char* op, std::int64_t tag, int peer) noexcept {
  if (!enabled()) return;
  for (auto& slot : g_pending) {
    int expected = 0;
    if (!slot.state.compare_exchange_strong(expected, 1,
                                            std::memory_order_acq_rel)) {
      continue;
    }
    const int rank = telemetry::bound_rank();
    slot.op.store(op, std::memory_order_relaxed);
    slot.tag.store(tag, std::memory_order_relaxed);
    slot.peer.store(peer, std::memory_order_relaxed);
    slot.rank.store(rank, std::memory_order_relaxed);
    slot.start_ns.store(now_ns(), std::memory_order_relaxed);
    slot.hb_at_entry.store(
        g_heartbeats[heartbeat_index(rank)].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    slot.dumped.store(false, std::memory_order_relaxed);
    slot.state.store(2, std::memory_order_release);
    slot_ = &slot;
    break;
  }
  if (slot_ == nullptr) {
    g_pending_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  record(EventKind::WaitBegin, op, static_cast<std::uint64_t>(tag),
         static_cast<std::uint64_t>(static_cast<std::int64_t>(peer)));
}

PendingOp::~PendingOp() noexcept {
  if (slot_ == nullptr) return;
  auto* slot = static_cast<PendingSlot*>(slot_);
  record(EventKind::WaitEnd, slot->op.load(std::memory_order_relaxed),
         static_cast<std::uint64_t>(slot->tag.load(std::memory_order_relaxed)),
         static_cast<std::uint64_t>(static_cast<std::int64_t>(
             slot->peer.load(std::memory_order_relaxed))));
  slot->state.store(0, std::memory_order_release);
}

std::vector<PendingOpInfo> pending_ops() {
  std::vector<PendingOpInfo> out;
  const std::uint64_t now = now_ns();
  for (auto& slot : g_pending) {
    if (slot.state.load(std::memory_order_acquire) != 2) continue;
    PendingOpInfo info;
    info.op = slot.op.load(std::memory_order_relaxed);
    info.tag = slot.tag.load(std::memory_order_relaxed);
    info.peer = slot.peer.load(std::memory_order_relaxed);
    info.rank = slot.rank.load(std::memory_order_relaxed);
    const std::uint64_t start = slot.start_ns.load(std::memory_order_relaxed);
    info.age_ns = now > start ? now - start : 0;
    // Drop rows whose slot was released mid-copy; the fields above may
    // belong to a newer claim, and a released op is not pending anyway.
    if (slot.state.load(std::memory_order_acquire) == 2) out.push_back(info);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Process identity + postmortems
// ---------------------------------------------------------------------------

void set_process_rank(int rank) {
  if (rank < -1) {
    throw ltfb::InvalidArgument("flight recorder: process rank below -1");
  }
  g_process_rank.store(rank, std::memory_order_relaxed);
}

int process_rank() noexcept {
  return g_process_rank.load(std::memory_order_relaxed);
}

void set_postmortem_dir(const std::string& dir) {
  if (dir.empty() || dir.size() > kMaxDirLen) {
    throw ltfb::InvalidArgument(
        "flight recorder: postmortem dir empty or too long");
  }
  store_dir(dir.c_str());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort
}

std::string postmortem_path(int rank) {
  char path[kMaxDirLen + 64];
  build_path(path, rank >= 0 ? rank
                             : g_process_rank.load(std::memory_order_relaxed));
  return std::string(path);
}

bool write_postmortem(const char* kind, const char* reason, int rank,
                      int signal) noexcept {
  return write_postmortem_impl(kind, reason, rank, signal, nullptr);
}

void install_crash_handler() {
  if (g_crash_handler_installed.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = ltfb_flight_crash_handler;
  sigemptyset(&action.sa_mask);
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS}) {
    ::sigaction(sig, &action, nullptr);
  }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

bool start_watchdog(double seconds) {
  if (!(seconds > 0.0) || !std::isfinite(seconds)) {
    throw ltfb::InvalidArgument(
        "flight recorder: watchdog window must be positive and finite");
  }
  bool expected = false;
  if (!g_watchdog_running.compare_exchange_strong(expected, true,
                                                  std::memory_order_acq_rel)) {
    return false;
  }
  set_enabled(true);
  {
    std::lock_guard<std::mutex> lock(g_watchdog_mutex);
    g_watchdog_stop = false;
  }
  g_watchdog_window_s.store(seconds, std::memory_order_relaxed);
  g_watchdog_thread = std::thread([seconds] { watchdog_main(seconds); });
  return true;
}

void stop_watchdog() noexcept {
  if (!g_watchdog_running.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(g_watchdog_mutex);
    g_watchdog_stop = true;
  }
  g_watchdog_cv.notify_all();
  if (g_watchdog_thread.joinable()) g_watchdog_thread.join();
  g_watchdog_window_s.store(0.0, std::memory_order_relaxed);
  g_watchdog_running.store(false, std::memory_order_release);
}

double watchdog_window_seconds() noexcept {
  return g_watchdog_running.load(std::memory_order_acquire)
             ? g_watchdog_window_s.load(std::memory_order_relaxed)
             : 0.0;
}

// ---------------------------------------------------------------------------
// Test hooks
// ---------------------------------------------------------------------------

void reset_for_tests() {
  for (auto& ts : g_threads) {
    ts.head.store(0, std::memory_order_relaxed);
    ts.depth.store(0, std::memory_order_relaxed);
    ts.overflow_spans.store(0, std::memory_order_relaxed);
  }
  for (auto& slot : g_pending) {
    slot.state.store(0, std::memory_order_relaxed);
    slot.dumped.store(false, std::memory_order_relaxed);
  }
  for (auto& hb : g_heartbeats) hb.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_pending_dropped.store(0, std::memory_order_relaxed);
  g_stalls_detected.store(0, std::memory_order_relaxed);
}

}  // namespace ltfb::telemetry::flight

// ---------------------------------------------------------------------------
// Span-stack hooks (declared in telemetry.hpp so Span can call them)
// ---------------------------------------------------------------------------

namespace ltfb::telemetry::detail {

void flight_span_begin(const char* name) noexcept {
  flight::detail::flight_span_push(name);
}

void flight_span_end() noexcept { flight::detail::flight_span_pop(); }

}  // namespace ltfb::telemetry::detail
