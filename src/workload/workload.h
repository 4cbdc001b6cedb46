/**
 * @file
 * Workload framework: user programs that drive the synthetic kernel
 * through its syscall interface, standing in for LMBench (latency
 * microbenchmarks, §8), ApacheBench (the §8.4 robustness profile), and
 * the macrobenchmarks of §8.5.
 */
#ifndef PIBE_WORKLOAD_WORKLOAD_H_
#define PIBE_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "uarch/simulator.h"

namespace pibe::workload {

/** A running kernel instance as seen by user code. */
class KernelHandle
{
  public:
    KernelHandle(uarch::Simulator& sim, const kernel::KernelInfo& info)
        : sim_(sim), info_(info)
    {
    }

    /** Issue a syscall through the kernel's dispatch entry point. */
    int64_t
    syscall(int64_t nr, int64_t a0 = 0, int64_t a1 = 0, int64_t a2 = 0)
    {
        return sim_.run(info_.sys_dispatch, {nr, a0, a1, a2});
    }

    /** Run the boot-time initialization (idempotent). */
    void boot() { sim_.run(info_.kernel_init, {}); }

    uarch::Simulator& sim() { return sim_; }
    const kernel::KernelInfo& info() const { return info_; }

    /** Externally visible path hash of synthetic file `index` (0-63). */
    static int64_t pathHash(int64_t index) { return 1000 + 97 * index; }

  private:
    uarch::Simulator& sim_;
    const kernel::KernelInfo& info_;
};

/** One benchmark workload: optional setup plus a repeatable unit. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short name matching the paper's tables (e.g. "select_tcp"). */
    virtual const std::string& name() const = 0;

    /** One-time preparation (open fds, connect sockets...). */
    virtual void setup(KernelHandle& k) { (void)k; }

    /** One measured operation; `i` is the iteration index. */
    virtual void iteration(KernelHandle& k, uint64_t i) = 0;

    /**
     * Relative weight of one iteration when normalizing latency (the
     * fork tests do more work per iteration; LMBench reports the
     * latency of the whole unit, so this is 1 for all tests).
     */
    virtual double opsPerIteration() const { return 1.0; }
};

/** Workload assembled from closures; covers nearly every benchmark. */
class SimpleWorkload : public Workload
{
  public:
    using SetupFn = std::function<void(KernelHandle&)>;
    using IterFn = std::function<void(KernelHandle&, uint64_t)>;

    SimpleWorkload(std::string name, SetupFn setup, IterFn iter)
        : name_(std::move(name)),
          setup_(std::move(setup)),
          iter_(std::move(iter))
    {
    }

    const std::string& name() const override { return name_; }

    void
    setup(KernelHandle& k) override
    {
        if (setup_)
            setup_(k);
    }

    void
    iteration(KernelHandle& k, uint64_t i) override
    {
        iter_(k, i);
    }

  private:
    std::string name_;
    SetupFn setup_;
    IterFn iter_;
};

/** The 20 LMBench latency tests of Table 2, in table order. */
std::vector<std::unique_ptr<Workload>> makeLmbenchSuite();

/** The LMBench subset of Table 3 (retpoline-sensitive tests). */
std::vector<std::string> lmbenchRetpolineSubset();

/** One LMBench test by name; nullptr if unknown. */
std::unique_ptr<Workload> makeLmbenchTest(const std::string& name);

/** Macrobenchmarks of Table 7. */
std::unique_ptr<Workload> makeNginxWorkload();
std::unique_ptr<Workload> makeApacheWorkload();
std::unique_ptr<Workload> makeDbenchWorkload();

/** An LMBench test or "nginx" / "apache" / "dbench" by name; nullptr
 *  if unknown. The one name table of the engine, serve and the CLI. */
std::unique_ptr<Workload> makeWorkload(const std::string& name);

} // namespace pibe::workload

#endif // PIBE_WORKLOAD_WORKLOAD_H_
