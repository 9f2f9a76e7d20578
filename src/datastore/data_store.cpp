#include "datastore/data_store.hpp"

#include <algorithm>
#include <cstring>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace ltfb::datastore {

namespace {

comm::Buffer encode_ids(const std::vector<data::SampleId>& ids) {
  comm::Buffer buffer(ids.size() * sizeof(data::SampleId));
  if (!ids.empty()) {
    std::memcpy(buffer.data(), ids.data(), buffer.size());
  }
  return buffer;
}

std::vector<data::SampleId> decode_ids(const comm::Buffer& buffer) {
  LTFB_CHECK(buffer.size() % sizeof(data::SampleId) == 0);
  std::vector<data::SampleId> ids(buffer.size() / sizeof(data::SampleId));
  if (!ids.empty()) {
    std::memcpy(ids.data(), buffer.data(), buffer.size());
  }
  return ids;
}

}  // namespace

DataStore::DataStore(comm::Communicator comm, const BundleCatalog* catalog,
                     PopulateMode mode, std::size_t capacity_bytes_per_rank,
                     std::vector<data::SampleId> universe,
                     std::chrono::milliseconds exchange_timeout,
                     std::chrono::milliseconds shrink_timeout)
    : comm_(std::move(comm)),
      catalog_(catalog),
      mode_(mode),
      capacity_bytes_(capacity_bytes_per_rank),
      timeout_(exchange_timeout),
      shrink_timeout_(shrink_timeout.count() > 0 ? shrink_timeout
                                                 : 4 * exchange_timeout),
      universe_(std::move(universe)),
      universe_set_(universe_.begin(), universe_.end()) {
  LTFB_CHECK_MSG(timeout_.count() > 0, "exchange timeout must be positive");
  LTFB_CHECK_MSG(shrink_timeout.count() >= 0,
                 "shrink timeout must be non-negative (0 = 4x exchange)");
  LTFB_CHECK_MSG(catalog_ != nullptr, "data store requires a catalog");
  for (const data::SampleId id : universe_) {
    LTFB_CHECK_MSG(id < catalog_->total_samples(),
                   "universe id " << id << " not in catalog");
  }
}

DataStore::~DataStore() {
  if (prefetch_thread_.joinable()) {
    prefetch_thread_.join();
  }
}

void DataStore::insert_local(data::Sample sample) {
  const std::size_t bytes = sample.byte_size();
  if (capacity_bytes_ > 0 && stats_.cached_bytes + bytes > capacity_bytes_) {
    throw CapacityError(
        "data store rank " + std::to_string(comm_.rank()) +
        " exceeded its memory budget: " +
        std::to_string(stats_.cached_bytes + bytes) + " > " +
        std::to_string(capacity_bytes_) + " bytes");
  }
  stats_.cached_bytes += bytes;
  ++stats_.cached_samples;
  cache_.emplace(sample.id, std::move(sample));
}

const DataStoreStats& DataStore::stats() const {
  check_no_fetch_in_flight("stats");
  return stats_;
}

void DataStore::check_no_fetch_in_flight(const char* what) const {
  LTFB_CHECK_MSG(!prefetch_active_,
                 "DataStore::" << what
                               << " while a begin_fetch is in flight; call "
                                  "collect_fetch first");
}

void DataStore::preload() {
  check_no_fetch_in_flight("preload");
  LTFB_SPAN("datastore/preload");
  LTFB_CHECK_MSG(mode_ == PopulateMode::Preloaded,
                 "preload() requires Preloaded mode");
  LTFB_CHECK_MSG(!has_directory(), "preload() called twice");
  const int ranks = comm_.size();
  for (std::size_t file = 0; file < catalog_->file_count(); ++file) {
    // A long ingest (many bundle files) is progress, not a hang: tick the
    // watchdog heartbeat per file so a short stall window stays quiet.
    telemetry::flight::heartbeat();
    if (static_cast<int>(file % static_cast<std::size_t>(ranks)) !=
        comm_.rank()) {
      continue;
    }
    for (auto& sample : catalog_->read_file(file)) {
      ++stats_.file_reads;
      LTFB_COUNTER_ADD("datastore/file_reads", 1);
      if (in_universe(sample.id)) {
        insert_local(std::move(sample));
      }
    }
  }
  build_directory();
}

void DataStore::build_directory() {
  check_no_fetch_in_flight("build_directory");
  LTFB_SPAN("datastore/build_directory");
  directory_.clear();
  const int ranks = comm_.size();

  // Each rank broadcasts the list of ids it owns.
  for (int root = 0; root < ranks; ++root) {
    comm::Buffer buffer;
    if (root == comm_.rank()) {
      std::vector<data::SampleId> mine;
      mine.reserve(cache_.size());
      for (const auto& [id, sample] : cache_) mine.push_back(id);
      std::sort(mine.begin(), mine.end());
      buffer = encode_ids(mine);
    }
    comm_.broadcast(root, buffer);
    for (const data::SampleId id : decode_ids(buffer)) {
      const auto [it, inserted] = directory_.emplace(id, root);
      LTFB_CHECK_MSG(inserted || it->second == root,
                     "sample " << id << " owned by both rank " << it->second
                               << " and rank " << root);
    }
  }

  // Samples never touched during the first dynamic epoch (e.g. dropped
  // short batches) are adopted by id % ranks so the directory is total.
  std::vector<data::SampleId> orphans;
  if (universe_.empty()) {
    for (data::SampleId id = 0; id < catalog_->total_samples(); ++id) {
      if (directory_.find(id) == directory_.end()) orphans.push_back(id);
    }
  } else {
    for (const data::SampleId id : universe_) {
      if (directory_.find(id) == directory_.end()) orphans.push_back(id);
    }
    std::sort(orphans.begin(), orphans.end());
  }
  for (const data::SampleId id : orphans) {
    const int owner = static_cast<int>(id % static_cast<std::size_t>(ranks));
    directory_.emplace(id, owner);
    if (owner == comm_.rank()) {
      ++stats_.file_reads;
      LTFB_COUNTER_ADD("datastore/file_reads", 1);
      insert_local(catalog_->read(id));
    }
  }
}

std::vector<data::Sample> DataStore::fetch(
    const std::vector<data::SampleId>& ids) {
  check_no_fetch_in_flight("fetch");
  LTFB_SPAN("datastore/fetch");
  LTFB_TIMED_SCOPE("datastore/fetch");
  telemetry::flight::heartbeat();
  return fetch_now(ids);
}

std::vector<data::Sample> DataStore::fetch_now(
    const std::vector<data::SampleId>& ids) {
  if (!has_directory()) {
    LTFB_CHECK_MSG(mode_ == PopulateMode::Dynamic,
                   "preloaded store used before preload()");
    return fetch_from_files(ids);
  }
  try {
    return fetch_via_exchange(ids);
  } catch (const RankFailedError&) {
    ++stats_.faults;
    LTFB_COUNTER_ADD("datastore/faults", 1);
  } catch (const TimeoutError&) {
    ++stats_.faults;
    LTFB_COUNTER_ADD("datastore/faults", 1);
  }
  // A peer died or stalled mid-exchange. Repair the directory around the
  // survivors and retry exactly once; a second failure propagates to the
  // caller (injected faults — FaultInjected — are never caught: the killed
  // rank itself must unwind).
  repair_directory();
  return fetch_via_exchange(ids);
}

std::vector<data::Sample> DataStore::fetch_from_files(
    const std::vector<data::SampleId>& ids) {
  std::vector<data::Sample> result;
  result.reserve(ids.size());
  for (const data::SampleId id : ids) {
    const auto it = cache_.find(id);
    if (it != cache_.end()) {
      ++stats_.local_hits;
      LTFB_COUNTER_ADD("datastore/local_hits", 1);
      result.push_back(it->second);
      continue;
    }
    // Naive-ingestion cost: one file open + record read, then cache so the
    // next epoch is served from memory.
    data::Sample sample = catalog_->read(id);
    ++stats_.file_reads;
    LTFB_COUNTER_ADD("datastore/file_reads", 1);
    result.push_back(sample);
    insert_local(std::move(sample));
  }
  return result;
}

void DataStore::begin_fetch(std::vector<data::SampleId> ids) {
  LTFB_CHECK_MSG(!prefetch_active_, "begin_fetch while a fetch is in flight");
  prefetch_active_ = true;
  {
    const util::MutexLock lock(prefetch_mutex_);
    prefetch_error_ = nullptr;
    prefetch_result_.clear();
  }
  // The helper thread works on behalf of the calling rank: carry the
  // caller's telemetry rank scope across so prefetch spans and counters
  // are attributed to the owning rank's trace track.
  const int caller_rank = telemetry::bound_rank();
  prefetch_thread_ = std::thread([this, caller_rank, ids = std::move(ids)] {
    const telemetry::RankBinding bind_rank(caller_rank);
    telemetry::set_thread_name("datastore/prefetch");
    LTFB_SPAN("datastore/prefetch");
    LTFB_TIMED_SCOPE("datastore/prefetch");
    telemetry::flight::heartbeat();
    try {
      std::vector<data::Sample> fetched = fetch_now(ids);
      const util::MutexLock lock(prefetch_mutex_);
      prefetch_result_ = std::move(fetched);
    } catch (...) {
      const util::MutexLock lock(prefetch_mutex_);
      prefetch_error_ = std::current_exception();
    }
  });
}

std::vector<data::Sample> DataStore::collect_fetch() {
  LTFB_CHECK_MSG(prefetch_active_, "collect_fetch without begin_fetch");
  prefetch_thread_.join();
  prefetch_active_ = false;
  const util::MutexLock lock(prefetch_mutex_);
  if (prefetch_error_) {
    std::exception_ptr error = std::exchange(prefetch_error_, nullptr);
    std::rethrow_exception(error);
  }
  return std::move(prefetch_result_);
}

const data::Sample& DataStore::owned_sample(data::SampleId id,
                                            data::Sample& disk_copy) {
  const auto it = cache_.find(id);
  if (it != cache_.end()) {
    ++stats_.local_hits;
    LTFB_COUNTER_ADD("datastore/local_hits", 1);
    return it->second;
  }
  // Disk-resident: adopted after a failure but over the memory budget, so
  // every access is a fresh bundle-file read (degraded but correct).
  LTFB_CHECK_MSG(disk_resident_.count(id) != 0,
                 "directory claims rank owns sample " << id
                                                      << " but cache misses");
  ++stats_.file_reads;
  LTFB_COUNTER_ADD("datastore/file_reads", 1);
  disk_copy = catalog_->read(id);
  return disk_copy;
}

void DataStore::repair_directory() {
  LTFB_SPAN("datastore/repair");
  // Orphan re-adoption reads from bundle files; without a catalog the
  // dead ranks' samples would be unrecoverable.
  LTFB_CHECK_MSG(catalog_ != nullptr,
                 "directory repair requires a bundle catalog");
  // World identities of the current owners, before the communicator is
  // replaced: directory values are comm ranks, which renumber on shrink.
  std::vector<int> owner_world(static_cast<std::size_t>(comm_.size()));
  for (int r = 0; r < comm_.size(); ++r) {
    owner_world[static_cast<std::size_t>(r)] = comm_.world_rank_of(r);
  }

  // Survivor agreement. The shrink deadline is generous (stragglers may
  // only notice the failure on their NEXT fetch and join late); it is
  // configurable through the constructor's shrink_timeout.
  comm_ = comm_.shrink(shrink_timeout_);

  std::unordered_map<int, int> world_to_new;
  for (int r = 0; r < comm_.size(); ++r) {
    world_to_new.emplace(comm_.world_rank_of(r), r);
  }
  const auto ranks = static_cast<std::size_t>(comm_.size());

  // Remap surviving owners; everything owned by a dead rank is orphaned.
  std::vector<data::SampleId> orphans;
  for (auto& [id, owner] : directory_) {
    const auto it =
        world_to_new.find(owner_world[static_cast<std::size_t>(owner)]);
    if (it != world_to_new.end()) {
      owner = it->second;
    } else {
      orphans.push_back(id);
    }
  }
  std::sort(orphans.begin(), orphans.end());

  // Deterministic re-adoption (every survivor computes the same mapping):
  // orphans fall back to bundle-file re-reads by their new owner. Within
  // the memory budget they are re-cached; past it they stay disk-resident
  // and are served by per-access file reads.
  for (const data::SampleId id : orphans) {
    const int owner = static_cast<int>(id % ranks);
    directory_[id] = owner;
    if (owner != comm_.rank()) continue;
    if (cache_.count(id) != 0 || disk_resident_.count(id) != 0) continue;
    try {
      data::Sample sample = catalog_->read(id);
      ++stats_.file_reads;
      LTFB_COUNTER_ADD("datastore/file_reads", 1);
      insert_local(std::move(sample));
    } catch (const CapacityError&) {
      disk_resident_.insert(id);
    }
  }

  // Fresh communicator, fresh tag space: restart the step sequence so a
  // straggler's retry pairs with ours regardless of how many exchanges
  // each survivor completed before noticing the failure.
  step_seq_ = 0;
  LTFB_COUNTER_ADD("datastore/repairs", 1);
}

std::vector<data::SampleId> DataStore::shard_manifest() const {
  check_no_fetch_in_flight("shard_manifest");
  std::vector<data::SampleId> mine;
  mine.reserve(cache_.size() + disk_resident_.size());
  for (const auto& [id, sample] : cache_) mine.push_back(id);
  for (const data::SampleId id : disk_resident_) mine.push_back(id);
  std::sort(mine.begin(), mine.end());
  return mine;
}

void DataStore::migrate_shard(const std::vector<data::SampleId>& ids,
                              int new_owner) {
  check_no_fetch_in_flight("migrate_shard");
  LTFB_SPAN("datastore/migrate_shard");
  LTFB_CHECK_MSG(new_owner >= 0 && new_owner < comm_.size(),
                 "migrate_shard owner rank " << new_owner
                                             << " out of range for comm size "
                                             << comm_.size());
  LTFB_CHECK_MSG(has_directory(),
                 "migrate_shard needs a built directory (preload or "
                 "build_directory first)");
  for (const data::SampleId id : ids) {
    const auto it = directory_.find(id);
    LTFB_CHECK_MSG(it != directory_.end(),
                   "migrate_shard: sample " << id << " is not in the "
                                               "directory");
    const int old_owner = it->second;
    if (old_owner == new_owner) continue;
    it->second = new_owner;

    // Source hand-off: evict the local copy, return its bytes to budget.
    if (old_owner == comm_.rank()) {
      const auto cached = cache_.find(id);
      if (cached != cache_.end()) {
        stats_.cached_bytes -= cached->second.byte_size();
        --stats_.cached_samples;
        cache_.erase(cached);
      }
      disk_resident_.erase(id);
    }

    // Destination re-adoption: cache from bundle files within budget, the
    // repair policy; past budget the sample stays disk-resident.
    if (new_owner == comm_.rank() && cache_.count(id) == 0) {
      LTFB_CHECK_MSG(catalog_ != nullptr,
                     "shard re-adoption requires a bundle catalog");
      try {
        data::Sample sample = catalog_->read(id);
        ++stats_.file_reads;
        LTFB_COUNTER_ADD("datastore/file_reads", 1);
        insert_local(std::move(sample));
        disk_resident_.erase(id);
      } catch (const CapacityError&) {
        disk_resident_.insert(id);
      }
    }
  }
  LTFB_COUNTER_ADD("datastore/shards_migrated", 1);
}

std::vector<data::Sample> DataStore::fetch_via_exchange(
    const std::vector<data::SampleId>& ids) {
  LTFB_SPAN("datastore/exchange");
  telemetry::flight::heartbeat();
  const int ranks = comm_.size();
  const int req_tag = step_seq_ * 2;
  const int rep_tag = step_seq_ * 2 + 1;
  ++step_seq_;

  // Partition the wanted ids by owner. Each distinct id lands in the result
  // slot of its first occurrence; repeated ids are copied from that slot
  // at the end, so no sample is copied more than once on the way in.
  std::vector<data::Sample> result(ids.size());
  std::unordered_map<data::SampleId, std::size_t> first_slot;
  first_slot.reserve(ids.size());
  std::vector<std::size_t> repeats;
  std::vector<std::vector<data::SampleId>> needs(
      static_cast<std::size_t>(ranks));
  for (std::size_t slot = 0; slot < ids.size(); ++slot) {
    const data::SampleId id = ids[slot];
    if (!first_slot.emplace(id, slot).second) {
      repeats.push_back(slot);
      continue;
    }
    const auto dir_it = directory_.find(id);
    LTFB_CHECK_MSG(dir_it != directory_.end(),
                   "sample " << id << " missing from data store directory");
    const int owner = dir_it->second;
    if (owner == comm_.rank()) {
      data::Sample disk_copy;
      result[slot] = owned_sample(id, disk_copy);
    } else {
      needs[static_cast<std::size_t>(owner)].push_back(id);
    }
  }

  if (ranks > 1) {
    const data::SampleSchema& schema = catalog_->schema();
    const std::size_t record = data::packed_sample_bytes(schema);
    // 1. Send a request list (possibly empty) to every peer.
    for (int peer = 0; peer < ranks; ++peer) {
      if (peer == comm_.rank()) continue;
      comm_.send(peer, req_tag,
                 encode_ids(needs[static_cast<std::size_t>(peer)]));
    }
    // 2. Serve every peer's request: each sample is packed straight from
    // the cache (or, when disk-resident, from a fresh bundle-file read)
    // into one reply buffer, which the send then moves.
    for (int i = 0; i < ranks - 1; ++i) {
      int requester = -1;
      const std::vector<data::SampleId> wanted = decode_ids(
          comm_.recv(comm::kAnySource, req_tag, timeout_, &requester));
      comm::Buffer reply(wanted.size() * record);
      data::Sample disk_copy;
      for (std::size_t k = 0; k < wanted.size(); ++k) {
        data::pack_sample(owned_sample(wanted[k], disk_copy), schema,
                          std::span<std::uint8_t>(reply).subspan(k * record,
                                                                 record));
      }
      comm_.send(requester, rep_tag, std::move(reply));
    }
    // 3. Collect replies (every peer answers, possibly with nothing) and
    // unpack each sample straight from the payload into its result slot.
    for (int i = 0; i < ranks - 1; ++i) {
      const comm::Buffer raw = comm_.recv(comm::kAnySource, rep_tag, timeout_);
      LTFB_CHECK(raw.size() % record == 0);
      stats_.bytes_exchanged += raw.size();
      LTFB_COUNTER_ADD("datastore/bytes_exchanged", raw.size());
      for (std::size_t offset = 0; offset < raw.size(); offset += record) {
        data::Sample sample = data::unpack_sample(
            std::span<const std::uint8_t>(raw).subspan(offset, record),
            schema);
        ++stats_.remote_fetches;
        LTFB_COUNTER_ADD("datastore/remote_fetches", 1);
        const auto slot = first_slot.find(sample.id);
        LTFB_CHECK_MSG(slot != first_slot.end(),
                       "peer sent sample " << sample.id
                                           << " that was never requested");
        result[slot->second] = std::move(sample);
      }
    }
  }

  for (const std::size_t slot : repeats) {
    result[slot] = result[first_slot.at(ids[slot])];
  }
  return result;
}

}  // namespace ltfb::datastore
