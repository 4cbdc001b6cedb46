#include "pibe/experiment.h"

namespace pibe::core {

namespace {

/** Setup + warmup + measured phase on an already-booted simulator. */
Measurement
measureOnBooted(uarch::Simulator& sim, const kernel::KernelInfo& info,
                workload::Workload& wl, const MeasureConfig& config)
{
    workload::KernelHandle handle(sim, info);
    wl.setup(handle);
    for (uint32_t i = 0; i < config.warmup_iters; ++i)
        wl.iteration(handle, i);

    sim.clearStats();
    for (uint32_t i = 0; i < config.measure_iters; ++i)
        wl.iteration(handle, config.warmup_iters + i);

    Measurement m;
    m.stats = sim.stats();
    const double cycles_per_iter =
        static_cast<double>(m.stats.cycles) /
        static_cast<double>(config.measure_iters);
    m.latency_us =
        cycles_per_iter / static_cast<double>(config.params.cycles_per_us);
    // Simulated clock: cycles_per_us * 1e6 cycles per second.
    m.ops_per_sec =
        cycles_per_iter > 0
            ? static_cast<double>(config.params.cycles_per_us) * 1e6 /
                  cycles_per_iter
            : 0;
    return m;
}

} // namespace

std::unique_ptr<const uarch::Simulator>
bootImage(std::shared_ptr<const uarch::DecodedModule> decoded,
          const kernel::KernelInfo& info, const uarch::CostParams& params)
{
    auto sim = std::make_unique<uarch::Simulator>(std::move(decoded), params);
    workload::KernelHandle(*sim, info).boot();
    return sim;
}

Measurement
measureWorkload(const uarch::Simulator& booted,
                const kernel::KernelInfo& info, workload::Workload& wl,
                const MeasureConfig& config)
{
    PIBE_ASSERT(booted.params() == config.params,
                "prototype booted with other cost params than measured");
    uarch::Simulator sim(booted);
    return measureOnBooted(sim, info, wl, config);
}

Measurement
measureWorkload(const ir::Module& image, const kernel::KernelInfo& info,
                workload::Workload& wl, const MeasureConfig& config)
{
    return measureWorkload(
        std::make_shared<const uarch::DecodedModule>(image), info, wl,
        config);
}

Measurement
measureWorkload(std::shared_ptr<const uarch::DecodedModule> decoded,
                const kernel::KernelInfo& info, workload::Workload& wl,
                const MeasureConfig& config)
{
    return measureWorkload(
        *bootImage(std::move(decoded), info, config.params), info, wl,
        config);
}

profile::EdgeProfile
collectProfileRuns(const ir::Module& linked,
                   const kernel::KernelInfo& info,
                   std::span<const ProfileRun> runs, uint32_t repeats)
{
    // The boot's own edges belong to every run's profile, so the
    // boot is profiled once and each run starts from a copy of those
    // counts: the merged profile equals one fresh boot per run.
    profile::EdgeProfile boot_profile;
    uarch::Simulator booted(
        std::make_shared<const uarch::DecodedModule>(linked));
    booted.setTimingEnabled(false);
    booted.setProfiler(&boot_profile);
    workload::KernelHandle(booted, info).boot();
    booted.setProfiler(nullptr);

    profile::EdgeProfile profile;
    for (uint32_t round = 0; round < repeats; ++round) {
        for (const ProfileRun& run : runs) {
            // Fresh kernel state per test so descriptor/socket tables
            // do not leak across setups.
            uarch::Simulator sim(booted);
            profile::EdgeProfile test_profile(boot_profile);
            sim.setProfiler(&test_profile);
            workload::KernelHandle handle(sim, info);
            run.wl->setup(handle);
            for (uint32_t i = 0; i < run.iters; ++i)
                run.wl->iteration(handle, i);
            profile.merge(test_profile);
        }
    }
    return profile;
}

profile::EdgeProfile
collectProfile(const ir::Module& linked, const kernel::KernelInfo& info,
               const std::vector<std::unique_ptr<workload::Workload>>& suite,
               uint32_t iters_per_test, uint32_t repeats)
{
    std::vector<ProfileRun> runs;
    for (const auto& wl : suite)
        runs.push_back({wl.get(), iters_per_test});
    return collectProfileRuns(linked, info, runs, repeats);
}

} // namespace pibe::core
