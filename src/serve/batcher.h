/**
 * @file
 * Request batching by single-flight coalescing.
 *
 * Two requests are "compatible" when they resolve to the same cache
 * key — same kernel, same profile, same (OptConfig, DefenseConfig)
 * point, same workload. The batcher merges every concurrent group of
 * compatible requests into one execution: the first arrival (the
 * leader) computes; the rest (followers) block on the leader's
 * shared_future and receive the same value. Combined with the
 * artifact cache this gives the full batching ladder:
 *
 *   memory/disk cache hit        -> no work at all (request was seen
 *                                   before, any process);
 *   single-flight follower       -> no work, waits for the in-flight
 *                                   leader (concurrent duplicates);
 *   single-flight leader         -> computes once.
 *
 * Leaders run the computation on the *calling* (session) thread; a
 * follower blocks on its own session thread. Both already hold an
 * admission slot, and a leader needs no other to finish, so the
 * flight cannot deadlock on the gate.
 */
#ifndef PIBE_SERVE_BATCHER_H_
#define PIBE_SERVE_BATCHER_H_

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace pibe::serve {

/** Outcome of one Batcher::run call. */
enum class BatchRole {
    kLeader,   ///< This call computed the value.
    kFollower, ///< This call joined an in-flight computation.
};

/**
 * Keyed single-flight executor. `V` must be copyable (results are
 * fanned out to every follower).
 */
template <typename V>
class Batcher
{
  public:
    /**
     * Return the value for `key`, computing it via `compute` if no
     * compatible computation is in flight, else joining the one that
     * is. Exceptions from the leader's compute propagate to the
     * leader AND every follower of that flight.
     */
    V
    run(const std::string& key, const std::function<V()>& compute,
        BatchRole* role = nullptr)
    {
        std::shared_ptr<Flight> flight;
        bool leader = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = inflight_.find(key);
            if (it == inflight_.end()) {
                flight = std::make_shared<Flight>();
                flight->future = flight->promise.get_future().share();
                inflight_[key] = flight;
                leader = true;
                ++flights_;
            } else {
                flight = it->second;
                ++coalesced_;
            }
        }
        if (role)
            *role = leader ? BatchRole::kLeader : BatchRole::kFollower;
        if (!leader)
            return flight->future.get();
        try {
            flight->promise.set_value(compute());
        } catch (...) {
            flight->promise.set_exception(std::current_exception());
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            inflight_.erase(key);
        }
        return flight->future.get();
    }

    /** Computations led (one per coalesced group). */
    uint64_t
    flights() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return flights_;
    }

    /** Calls served by joining an in-flight leader. */
    uint64_t
    coalescedCalls() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return coalesced_;
    }

  private:
    struct Flight
    {
        std::promise<V> promise;
        std::shared_future<V> future;
    };

    mutable std::mutex mu_;
    std::map<std::string, std::shared_ptr<Flight>> inflight_;
    uint64_t flights_ = 0;
    uint64_t coalesced_ = 0;
};

} // namespace pibe::serve

#endif // PIBE_SERVE_BATCHER_H_
