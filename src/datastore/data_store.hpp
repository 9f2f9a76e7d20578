// Distributed in-memory data store (Sec. III-B of the paper).
//
// Each rank of a trainer caches a subset of the dataset in host memory; at
// every mini-batch step the ranks exchange exactly the samples the others
// need. Two population modes mirror the paper:
//
//   * Dynamic — the first epoch reads samples from bundle files on demand
//     (same cost as naive ingestion) and caches them as they are used; a
//     directory of sample ownership is then agreed collectively and every
//     later epoch is served from memory + exchange.
//   * Preloaded — each rank reads a disjoint round-robin subset of the
//     bundle files in full before training (one open per file, sequential
//     I/O), then the directory is built and no file is touched again.
//
// Capacity accounting is enforced: inserting past the per-rank budget
// throws CapacityError. This reproduces the paper's memory-capacity
// observations (preload impossible on 1-2 GPUs' worth of nodes in Fig. 10;
// the 1-trainer Fig. 11 baseline needing 16 nodes).
//
// All fetch/preload/finish_epoch calls are collective over the trainer
// communicator: every rank must participate each step (the request/reply
// exchange expects one message from each peer).
// Fault tolerance: exchange receives carry a deadline. When a peer dies
// (RankFailedError) or stalls past it (TimeoutError) mid-fetch, the store
// repairs its directory — the communicator shrinks around the corpse, the
// dead rank's samples are re-adopted by survivors (id % survivors) via
// bundle-file re-reads, and samples a survivor cannot adopt within its
// memory budget stay disk-resident, served by fresh file reads — then the
// fetch retries once on the repaired directory.
#pragma once

#include <chrono>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "comm/communicator.hpp"
#include "datastore/bundle_catalog.hpp"
#include "util/annotations.hpp"

namespace ltfb::datastore {

enum class PopulateMode { Dynamic, Preloaded };

struct DataStoreStats {
  std::size_t local_hits = 0;
  std::size_t remote_fetches = 0;
  std::size_t file_reads = 0;       // samples pulled from bundle files
  std::size_t bytes_exchanged = 0;  // payload bytes moved between ranks
  std::size_t cached_samples = 0;
  std::size_t cached_bytes = 0;
  std::size_t faults = 0;  // peer failures detected (and repaired) in fetch
};

class DataStore {
 public:
  /// `capacity_bytes_per_rank` = 0 means unlimited. `universe` restricts
  /// the store to a subset of the catalog's sample ids — the trainer's data
  /// partition (empty = every catalog sample). Preload still reads whole
  /// files (that is the point of the mode) but only caches universe
  /// members, and directory completion only adopts universe members.
  /// `exchange_timeout` bounds every receive of the fetch exchange; a peer
  /// that exceeds it is treated as failed and the directory is repaired.
  /// `shrink_timeout` bounds the repair's survivor agreement; zero derives
  /// the legacy default of 4x exchange_timeout (stragglers may only notice
  /// a failure on their NEXT fetch and join the rendezvous late).
  DataStore(comm::Communicator comm, const BundleCatalog* catalog,
            PopulateMode mode, std::size_t capacity_bytes_per_rank = 0,
            std::vector<data::SampleId> universe = {},
            std::chrono::milliseconds exchange_timeout =
                std::chrono::milliseconds(60'000),
            std::chrono::milliseconds shrink_timeout =
                std::chrono::milliseconds(0));

  /// Joins any in-flight prefetch (its result is discarded).
  ~DataStore();

  DataStore(const DataStore&) = delete;
  DataStore& operator=(const DataStore&) = delete;

  PopulateMode mode() const noexcept { return mode_; }

  /// Counters are updated by whichever thread is executing a fetch, so
  /// reading them while a begin_fetch is in flight would race; throws
  /// ltfb::InvalidArgument in that case (call collect_fetch first).
  const DataStoreStats& stats() const;

  bool has_directory() const noexcept { return !directory_.empty(); }
  std::size_t owned_samples() const noexcept { return cache_.size(); }

  /// Samples this rank owns in the directory but serves from bundle-file
  /// reads because adopting them in memory would burst its budget (only
  /// populated by post-failure repair).
  std::size_t disk_resident_samples() const noexcept {
    return disk_resident_.size();
  }

  /// Preloaded mode only. Collective: reads this rank's files, then builds
  /// the ownership directory.
  void preload();

  /// Collective per training step: returns the requested samples, pulling
  /// remote ones from their owner ranks (or from files during the first
  /// dynamic epoch). Request lists may differ per rank but every rank must
  /// call fetch the same number of times.
  std::vector<data::Sample> fetch(const std::vector<data::SampleId>& ids);

  /// Collective. Dynamic mode: call after the first epoch to freeze
  /// ownership and build the directory; later epochs never touch files.
  void build_directory();

  // -- elastic shard migration (PR 8) ------------------------------------------
  //
  // When the scheduler migrates a trainer, its datastore shard moves with
  // it. The source captures shard_manifest() into the migration payload
  // (population checkpoint v3); every rank of the store then applies
  // migrate_shard with the same arguments — the scheduler's roster
  // broadcast guarantees agreement — so directories stay convergent
  // without a collective round of their own.

  /// The sample ids this rank currently owns (cached + disk-resident),
  /// sorted — the shard manifest a migrating trainer carries.
  std::vector<data::SampleId> shard_manifest() const;

  /// Reassigns ownership of `ids` to `new_owner` (a comm rank). The old
  /// owner hands off: its cached copies are evicted and the capacity
  /// returns to budget. The new owner re-adopts from bundle files — within
  /// its memory budget samples are cached, past it they stay disk-resident
  /// (exactly the post-failure repair policy). Every rank must call this
  /// with identical arguments between steps; it performs no communication.
  void migrate_shard(const std::vector<data::SampleId>& ids, int new_owner);

  // -- nonblocking prefetch ----------------------------------------------------
  //
  // Sec. III-B: "shuffling is done with non-blocking communication on
  // background threads, so it efficiently overlaps with other
  // computation." begin_fetch launches the collective exchange for the
  // NEXT mini-batch on a helper thread while the caller trains on the
  // current one; collect_fetch joins and returns the samples. Between the
  // two calls the caller must not use the trainer communicator (the helper
  // owns it for the duration), and every rank must pair begin/collect in
  // lockstep exactly like fetch(). The contract is enforced: fetch(),
  // preload(), build_directory(), and stats() throw while a prefetch is in
  // flight rather than racing with the helper thread.

  void begin_fetch(std::vector<data::SampleId> ids);
  std::vector<data::Sample> collect_fetch();
  bool fetch_in_flight() const noexcept { return prefetch_active_; }

 private:
  void insert_local(data::Sample sample);
  /// Shared implementation of fetch(); also run by the prefetch helper
  /// thread (which must bypass the prefetch-in-flight entry check).
  std::vector<data::Sample> fetch_now(const std::vector<data::SampleId>& ids);
  std::vector<data::Sample> fetch_via_exchange(
      const std::vector<data::SampleId>& ids);
  std::vector<data::Sample> fetch_from_files(
      const std::vector<data::SampleId>& ids);
  /// Post-failure recovery: shrinks the communicator around dead ranks,
  /// remaps surviving owners, and re-adopts the dead ranks' samples from
  /// bundle files (within capacity; the rest become disk-resident).
  void repair_directory();
  /// A sample this rank owns: the cached copy itself, or — when the sample
  /// is disk-resident — a bundle-file read into `disk_copy`.
  const data::Sample& owned_sample(data::SampleId id, data::Sample& disk_copy);
  /// Fails fast if called while a begin_fetch helper owns the communicator
  /// and the store's internal state.
  void check_no_fetch_in_flight(const char* what) const;

  bool in_universe(data::SampleId id) const {
    return universe_.empty() || universe_set_.count(id) != 0;
  }

  comm::Communicator comm_;
  const BundleCatalog* catalog_;
  PopulateMode mode_;
  std::size_t capacity_bytes_;
  std::chrono::milliseconds timeout_;
  std::chrono::milliseconds shrink_timeout_;  // repair rendezvous deadline
  std::vector<data::SampleId> universe_;
  std::unordered_set<data::SampleId> universe_set_;
  std::unordered_map<data::SampleId, data::Sample> cache_;
  std::unordered_map<data::SampleId, int> directory_;  // id -> owner rank
  std::unordered_set<data::SampleId> disk_resident_;   // owned, not cached
  DataStoreStats stats_;
  int step_seq_ = 0;

  // The prefetch hand-off: the helper thread writes result/error, the
  // owning thread reads them in collect_fetch. The join() already sequences
  // the hand-off, but the mutex makes the contract checkable — any new
  // reader that skips the join (or a second writer) trips TSA / TSan
  // instead of silently racing. prefetch_active_ stays unguarded: it is
  // only ever touched by the owning thread (the store's single-thread
  // contract), never by the helper.
  std::thread prefetch_thread_;
  util::Mutex prefetch_mutex_;
  std::vector<data::Sample> prefetch_result_ LTFB_GUARDED_BY(prefetch_mutex_);
  std::exception_ptr prefetch_error_ LTFB_GUARDED_BY(prefetch_mutex_);
  bool prefetch_active_ = false;
};

}  // namespace ltfb::datastore
