#include "serve/metrics.h"

#include <algorithm>
#include <chrono>
#include <sstream>

namespace pibe::serve {

namespace {

constexpr size_t kReservoirCap = 1u << 16;

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Percentile over an unsorted copy (nearest-rank). */
double
percentileOf(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const size_t rank = std::min(
        samples.size() - 1,
        static_cast<size_t>(p * static_cast<double>(samples.size())));
    return samples[rank];
}

} // namespace

ServeMetrics::ServeMetrics()
    : reservoir_rng_(0x5e4e5e4e), boot_epoch_ms_(nowMs())
{
    latency_ms_.reserve(1024);
}

void
ServeMetrics::recordRequest(const std::string& op, bool ok, double ms,
                            bool coalesced)
{
    std::lock_guard<std::mutex> lock(mu_);
    OpStats& s = by_op_[op];
    ++s.requests;
    if (!ok)
        ++s.failures;
    if (coalesced)
        ++s.coalesced;
    s.ms_total += ms;
    // Uniform reservoir: every sample has cap/seen probability of
    // being retained, so percentiles stay unbiased after millions of
    // requests.
    ++samples_seen_;
    if (latency_ms_.size() < kReservoirCap) {
        latency_ms_.push_back(ms);
    } else {
        const uint64_t slot = reservoir_rng_.next() % samples_seen_;
        if (slot < kReservoirCap)
            latency_ms_[slot] = ms;
    }
}

void
ServeMetrics::recordAdmissionWait(double ms)
{
    std::lock_guard<std::mutex> lock(mu_);
    admission_wait_ms_total_ += ms;
}

void
ServeMetrics::recordConnection()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++connections_;
}

void
ServeMetrics::recordAuthReject()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++auth_rejected_;
}

void
ServeMetrics::enterRequest()
{
    std::lock_guard<std::mutex> lock(mu_);
    peak_inflight_ = std::max(peak_inflight_, ++inflight_);
}

void
ServeMetrics::leaveRequest()
{
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
}

MetricsSnapshot
ServeMetrics::snapshot(const runtime::CacheStats& cache) const
{
    std::lock_guard<std::mutex> lock(mu_);
    MetricsSnapshot snap;
    snap.by_op = by_op_;
    for (const auto& [op, s] : by_op_) {
        (void)op;
        snap.requests += s.requests;
        snap.failures += s.failures;
        snap.coalesced += s.coalesced;
    }
    snap.connections = connections_;
    snap.auth_rejected = auth_rejected_;
    snap.inflight = inflight_;
    snap.peak_inflight = peak_inflight_;
    snap.admission_wait_ms_total = admission_wait_ms_total_;
    snap.uptime_s = (nowMs() - boot_epoch_ms_) / 1e3;
    snap.p50_ms = percentileOf(latency_ms_, 0.50);
    snap.p99_ms = percentileOf(latency_ms_, 0.99);
    snap.cache = cache;
    return snap;
}

Json
MetricsSnapshot::toJson() const
{
    Json ops = Json::object();
    for (const auto& [op, s] : by_op) {
        Json o = Json::object();
        o.set("requests", s.requests);
        o.set("failures", s.failures);
        o.set("coalesced", s.coalesced);
        o.set("ms_total", s.ms_total);
        ops.set(op, std::move(o));
    }
    Json c = Json::object();
    c.set("mem_hits", cache.mem_hits);
    c.set("disk_hits", cache.disk_hits);
    c.set("misses", cache.misses);
    c.set("puts", cache.puts);
    c.set("corrupt", cache.corrupt);
    c.set("mem_evictions", cache.mem_evictions);
    c.set("disk_evictions", cache.disk_evictions);
    c.set("evicted_bytes", cache.evicted_bytes);
    c.set("mem_bytes", cache.mem_bytes);
    c.set("disk_bytes", cache.disk_bytes);
    c.set("get_ms_total", cache.get_ms_total);
    c.set("put_ms_total", cache.put_ms_total);
    c.set("inflight", static_cast<int64_t>(cache.inflight));
    c.set("peak_inflight", static_cast<int64_t>(cache.peak_inflight));
    c.set("hit_rate", cache.hitRate());

    Json j = Json::object();
    j.set("requests", requests);
    j.set("failures", failures);
    j.set("coalesced", coalesced);
    j.set("connections", connections);
    j.set("auth_rejected", auth_rejected);
    j.set("inflight", static_cast<int64_t>(inflight));
    j.set("peak_inflight", static_cast<int64_t>(peak_inflight));
    j.set("admission_wait_ms_total", admission_wait_ms_total);
    j.set("uptime_s", uptime_s);
    j.set("p50_ms", p50_ms);
    j.set("p99_ms", p99_ms);
    j.set("by_op", std::move(ops));
    j.set("cache", std::move(c));
    return j;
}

std::string
MetricsSnapshot::renderText() const
{
    std::ostringstream os;
    os << "pibe_serve_uptime_seconds " << uptime_s << "\n";
    os << "pibe_serve_requests_total " << requests << "\n";
    os << "pibe_serve_failures_total " << failures << "\n";
    os << "pibe_serve_coalesced_total " << coalesced << "\n";
    os << "pibe_serve_connections_total " << connections << "\n";
    os << "pibe_serve_auth_rejected_total " << auth_rejected << "\n";
    os << "pibe_serve_inflight " << inflight << "\n";
    os << "pibe_serve_inflight_peak " << peak_inflight << "\n";
    os << "pibe_serve_admission_wait_ms_total "
       << admission_wait_ms_total << "\n";
    os << "pibe_serve_latency_ms{quantile=\"0.5\"} " << p50_ms << "\n";
    os << "pibe_serve_latency_ms{quantile=\"0.99\"} " << p99_ms
       << "\n";
    for (const auto& [op, s] : by_op) {
        os << "pibe_serve_op_requests_total{op=\"" << op << "\"} "
           << s.requests << "\n";
        os << "pibe_serve_op_failures_total{op=\"" << op << "\"} "
           << s.failures << "\n";
        os << "pibe_serve_op_coalesced_total{op=\"" << op << "\"} "
           << s.coalesced << "\n";
        os << "pibe_serve_op_ms_total{op=\"" << op << "\"} "
           << s.ms_total << "\n";
    }
    os << "pibe_cache_hits_total{tier=\"memory\"} " << cache.mem_hits
       << "\n";
    os << "pibe_cache_hits_total{tier=\"disk\"} " << cache.disk_hits
       << "\n";
    os << "pibe_cache_misses_total " << cache.misses << "\n";
    os << "pibe_cache_puts_total " << cache.puts << "\n";
    os << "pibe_cache_corrupt_total " << cache.corrupt << "\n";
    os << "pibe_cache_evictions_total{tier=\"memory\"} "
       << cache.mem_evictions << "\n";
    os << "pibe_cache_evictions_total{tier=\"disk\"} "
       << cache.disk_evictions << "\n";
    os << "pibe_cache_evicted_bytes_total " << cache.evicted_bytes
       << "\n";
    os << "pibe_cache_bytes{tier=\"memory\"} " << cache.mem_bytes
       << "\n";
    os << "pibe_cache_bytes{tier=\"disk\"} " << cache.disk_bytes
       << "\n";
    os << "pibe_cache_get_ms_total " << cache.get_ms_total << "\n";
    os << "pibe_cache_put_ms_total " << cache.put_ms_total << "\n";
    os << "pibe_cache_inflight " << cache.inflight << "\n";
    os << "pibe_cache_inflight_peak " << cache.peak_inflight << "\n";
    return os.str();
}

} // namespace pibe::serve
