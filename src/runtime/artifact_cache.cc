#include "runtime/artifact_cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include "support/logging.h"

namespace pibe::runtime {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/**
 * RAII exclusive flock(2) on `<dir>/.lock`. Advisory, so it only
 * coordinates cooperating pibe processes — which is exactly the shared
 * cache-directory case. Degrades to a no-op (with a warning) if the
 * lock file cannot be opened; eviction then proceeds unlocked, which
 * is safe (deleting a file another process already deleted is ignored)
 * just not minimal.
 */
class DirLock
{
  public:
    explicit DirLock(const std::string& dir)
    {
        const std::string path = dir + "/.lock";
        fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
        if (fd_ < 0) {
            warn("artifact cache: cannot open ", path,
                 "; proceeding unlocked");
            return;
        }
        while (::flock(fd_, LOCK_EX) != 0 && errno == EINTR) {
        }
    }

    ~DirLock()
    {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }

    DirLock(const DirLock&) = delete;
    DirLock& operator=(const DirLock&) = delete;

  private:
    int fd_ = -1;
};

/** Sum of `.art` payload bytes currently in `dir`. */
uint64_t
scanDiskBytes(const std::string& dir)
{
    uint64_t total = 0;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".art")
            total += entry.file_size(ec);
    }
    return total;
}

} // namespace

std::optional<std::string>
ArtifactCache::setDiskDir(const std::string& dir)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        return "cannot create cache directory " + dir + ": " +
               ec.message();
    const uint64_t bytes = scanDiskBytes(dir);
    std::lock_guard<std::mutex> lock(mu_);
    disk_dir_ = dir;
    stats_.disk_bytes = bytes;
    return std::nullopt;
}

std::string
ArtifactCache::defaultDiskDir()
{
    const char* home = std::getenv("HOME");
    if (home == nullptr || home[0] == '\0')
        return "/tmp/pibe-artifacts";
    return std::string(home) + "/.cache/pibe-artifacts";
}

void
ArtifactCache::setDiskBudget(uint64_t bytes)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        disk_budget_ = bytes;
    }
    evictDiskOverBudget();
}

void
ArtifactCache::setMemoryBudget(uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    mem_budget_ = bytes;
    while (mem_budget_ != 0 && stats_.mem_bytes > mem_budget_ &&
           !lru_.empty()) {
        stats_.mem_bytes -= lru_.back().second.size();
        ++stats_.mem_evictions;
        index_.erase(lru_.back().first);
        lru_.pop_back();
    }
}

bool
ArtifactCache::diskEnabled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return !disk_dir_.empty();
}

std::string
ArtifactCache::diskPath(const std::string& key) const
{
    return disk_dir_ + "/" + key + ".art";
}

void
ArtifactCache::memoryInsert(const std::string& key,
                            const std::string& value)
{
    auto it = index_.find(key);
    if (it != index_.end()) {
        stats_.mem_bytes -= it->second->second.size();
        lru_.erase(it->second);
        index_.erase(it);
    }
    lru_.emplace_front(key, value);
    index_[key] = lru_.begin();
    stats_.mem_bytes += value.size();
    while (mem_budget_ != 0 && stats_.mem_bytes > mem_budget_ &&
           lru_.size() > 1) {
        stats_.mem_bytes -= lru_.back().second.size();
        ++stats_.mem_evictions;
        index_.erase(lru_.back().first);
        lru_.pop_back();
    }
}

std::optional<std::string>
ArtifactCache::get(const std::string& key)
{
    const Clock::time_point t0 = Clock::now();
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.peak_inflight =
            std::max(stats_.peak_inflight, ++stats_.inflight);
        auto it = index_.find(key);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second); // touch
            ++stats_.mem_hits;
            std::string value = it->second->second;
            --stats_.inflight;
            stats_.get_ms_total += msSince(t0);
            return value;
        }
        dir = disk_dir_;
    }
    // Disk I/O runs outside the cache mutex so concurrent callers
    // (daemon sessions) overlap instead of serializing.
    std::optional<std::string> value;
    if (!dir.empty()) {
        const std::string path = diskPath(key);
        std::ifstream in(path, std::ios::binary);
        if (in) {
            std::ostringstream os;
            os << in.rdbuf();
            if (in.good() || in.eof())
                value = os.str();
        }
        if (value) {
            // Touch for cross-process LRU recency; best effort.
            std::error_code ec;
            fs::last_write_time(
                path, fs::file_time_type::clock::now(), ec);
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (value) {
        memoryInsert(key, *value); // promote for this process
        ++stats_.disk_hits;
    } else {
        ++stats_.misses;
    }
    --stats_.inflight;
    stats_.get_ms_total += msSince(t0);
    return value;
}

void
ArtifactCache::put(const std::string& key, const std::string& value)
{
    const Clock::time_point t0 = Clock::now();
    std::string dir;
    uint64_t budget = 0;
    uint64_t disk_estimate = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.peak_inflight =
            std::max(stats_.peak_inflight, ++stats_.inflight);
        ++stats_.puts;
        memoryInsert(key, value);
        dir = disk_dir_;
        budget = disk_budget_;
        if (!dir.empty()) {
            stats_.disk_bytes += value.size();
            disk_estimate = stats_.disk_bytes;
        }
    }
    if (!dir.empty()) {
        // Atomic publish: write to a temp name unique across threads
        // *and processes* (pid + sequence), verify the stream, then
        // rename into place — a reader can never see partial bytes,
        // and a crashed writer cannot publish a truncated artifact.
        // Losers of a same-key race overwrite with identical content.
        static std::atomic<uint64_t> seq{0};
        std::ostringstream tmp_name;
        tmp_name << diskPath(key) << ".tmp." << ::getpid() << "."
                 << seq.fetch_add(1, std::memory_order_relaxed);
        bool written = false;
        {
            std::ofstream out(tmp_name.str(), std::ios::binary);
            if (out) {
                out << value;
                out.flush();
                written = out.good();
            }
        }
        if (!written) {
            warn("artifact cache: cannot write ", tmp_name.str(),
                 "; disk tier skipped for this artifact");
            std::error_code ec;
            fs::remove(tmp_name.str(), ec);
        } else {
            std::error_code ec;
            fs::rename(tmp_name.str(), diskPath(key), ec);
            if (ec) {
                warn("artifact cache: rename failed for ",
                     diskPath(key), ": ", ec.message());
                fs::remove(tmp_name.str(), ec);
            }
        }
        if (budget != 0 && disk_estimate > budget)
            evictDiskOverBudget();
    }
    std::lock_guard<std::mutex> lock(mu_);
    --stats_.inflight;
    stats_.put_ms_total += msSince(t0);
}

void
ArtifactCache::evictDiskOverBudget()
{
    std::string dir;
    uint64_t budget = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        dir = disk_dir_;
        budget = disk_budget_;
    }
    if (dir.empty() || budget == 0)
        return;

    DirLock lock(dir);
    // Rescan under the lock: the estimate drifts when other processes
    // share the directory, and the scan is the authoritative total.
    struct Entry
    {
        fs::file_time_type mtime;
        uint64_t size;
        fs::path path;
    };
    std::vector<Entry> entries;
    uint64_t total = 0;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(dir, ec)) {
        if (e.path().extension() != ".art")
            continue;
        std::error_code fec;
        const uint64_t size = e.file_size(fec);
        const auto mtime = fs::last_write_time(e.path(), fec);
        if (fec)
            continue; // concurrently evicted by another process
        entries.push_back({mtime, size, e.path()});
        total += size;
    }
    uint64_t evicted_files = 0, evicted_bytes = 0;
    if (total > budget) {
        std::sort(entries.begin(), entries.end(),
                  [](const Entry& a, const Entry& b) {
                      return a.mtime < b.mtime;
                  });
        for (const Entry& e : entries) {
            if (total <= budget)
                break;
            std::error_code rec;
            if (fs::remove(e.path, rec) && !rec) {
                total -= e.size;
                ++evicted_files;
                evicted_bytes += e.size;
            }
        }
    }
    std::lock_guard<std::mutex> slock(mu_);
    stats_.disk_bytes = total;
    stats_.disk_evictions += evicted_files;
    stats_.evicted_bytes += evicted_bytes;
}

void
ArtifactCache::noteCorrupt()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.corrupt;
}

CacheStats
ArtifactCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace pibe::runtime
