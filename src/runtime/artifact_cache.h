/**
 * @file
 * Content-addressed artifact cache.
 *
 * Artifacts are strings (PIR module dumps, serialized profiles,
 * serialized measurements) addressed by the hex digest of everything
 * that determined them — see runtime/digest.h. Two tiers:
 *
 *  - in-memory: always on, shared within one process/run, LRU-evicted
 *    under an optional byte budget (long-running daemons stay bounded);
 *  - on-disk (optional): a directory of `<key>.art` files (default
 *    `~/.cache/pibe-artifacts/`, or `--cache-dir`), which is what
 *    makes re-runs, cross-table, and cross-*process* sharing near-free.
 *
 * The disk tier is safe to share between processes (`pibe serve`
 * workers, concurrent CLI runs):
 *
 *  - publishes are atomic: value bytes go to a unique temp file
 *    (pid + sequence) that is fsync'd, verified, and rename(2)d into
 *    place, so a reader can never observe a truncated artifact and a
 *    crashed writer leaves only a temp file behind;
 *  - eviction holds an exclusive flock(2) on `<dir>/.lock`, so two
 *    processes trimming the same directory serialize instead of
 *    double-deleting;
 *  - under a byte budget (setDiskBudget) the least-recently-used
 *    artifacts are evicted; disk hits touch the file mtime so recency
 *    survives across processes.
 *
 * Content addressing makes same-key races harmless either way: both
 * writers produced identical bytes.
 */
#ifndef PIBE_RUNTIME_ARTIFACT_CACHE_H_
#define PIBE_RUNTIME_ARTIFACT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace pibe::runtime {

/** Counters, cumulative over the cache's lifetime (gauges excepted). */
struct CacheStats
{
    uint64_t mem_hits = 0;
    uint64_t disk_hits = 0;
    uint64_t misses = 0;
    uint64_t puts = 0;
    /** Artifacts get() returned that the caller could not decode
     *  (reported through noteCorrupt()). get() counted each in its
     *  tier's hits; hits() and hitRate() count each as a miss. */
    uint64_t corrupt = 0;

    uint64_t mem_evictions = 0;  ///< Entries LRU-evicted from memory.
    uint64_t disk_evictions = 0; ///< Files LRU-evicted from disk.
    uint64_t evicted_bytes = 0;  ///< Bytes reclaimed by disk eviction.

    uint64_t mem_bytes = 0;  ///< Gauge: current memory-tier payload.
    uint64_t disk_bytes = 0; ///< Gauge: disk-tier size (last estimate).

    double get_ms_total = 0; ///< Wall time spent inside get().
    double put_ms_total = 0; ///< Wall time spent inside put().

    uint32_t inflight = 0;      ///< Gauge: get/put calls in progress.
    uint32_t peak_inflight = 0; ///< High-water mark of `inflight`.

    /** Lookups answered with a usable artifact (every corrupt one
     *  was first counted in a tier's hits). */
    uint64_t hits() const { return mem_hits + disk_hits - corrupt; }
    uint64_t lookups() const { return mem_hits + disk_hits + misses; }

    double
    hitRate() const
    {
        return lookups() == 0
                   ? 0.0
                   : static_cast<double>(hits()) /
                         static_cast<double>(lookups());
    }
};

/** Thread-safe two-tier (memory + optional disk) artifact store. */
class ArtifactCache
{
  public:
    ArtifactCache() = default;

    /**
     * Enable the disk tier rooted at `dir` (created if missing) and
     * take an initial size estimate.
     * @return The error if the directory cannot be created (the disk
     *         tier then stays off), nullopt on success.
     */
    std::optional<std::string> setDiskDir(const std::string& dir);

    /** Default on-disk location: $HOME/.cache/pibe-artifacts. */
    static std::string defaultDiskDir();

    /**
     * Cap the disk tier at `bytes` (0 = unlimited). When a put pushes
     * the tier over budget, least-recently-used artifacts are evicted
     * under the directory lock until it fits again.
     */
    void setDiskBudget(uint64_t bytes);

    /** Cap the memory tier at `bytes` (0 = unlimited), LRU-evicted. */
    void setMemoryBudget(uint64_t bytes);

    /** Look up `key` (memory first, then disk). */
    std::optional<std::string> get(const std::string& key);

    /** Store `value` under `key` in every enabled tier. */
    void put(const std::string& key, const std::string& value);

    /** Count an artifact that get() returned but that did not decode
     *  (CacheStats::corrupt); the caller recomputes or rejects it. */
    void noteCorrupt();

    CacheStats stats() const;

    bool diskEnabled() const;

  private:
    std::string diskPath(const std::string& key) const;
    /** Insert into the memory LRU; evicts over-budget entries.
     *  Called with mu_ held. */
    void memoryInsert(const std::string& key, const std::string& value);
    /** Trim the disk tier to budget under the directory lock. */
    void evictDiskOverBudget();

    mutable std::mutex mu_;
    /** Front = most recently used. */
    std::list<std::pair<std::string, std::string>> lru_;
    std::unordered_map<std::string, decltype(lru_)::iterator> index_;
    std::string disk_dir_;
    uint64_t disk_budget_ = 0;
    uint64_t mem_budget_ = 0;
    CacheStats stats_;
};

} // namespace pibe::runtime

#endif // PIBE_RUNTIME_ARTIFACT_CACHE_H_
