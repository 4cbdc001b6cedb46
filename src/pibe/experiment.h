/**
 * @file
 * Measurement harness shared by the benchmark binaries and examples:
 * profiling runs, latency/throughput measurement, and overhead math.
 */
#ifndef PIBE_PIBE_EXPERIMENT_H_
#define PIBE_PIBE_EXPERIMENT_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "profile/edge_profile.h"
#include "uarch/cost_model.h"
#include "uarch/simulator.h"
#include "workload/workload.h"

namespace pibe::core {

/** Knobs of one latency/throughput measurement. */
struct MeasureConfig
{
    uint32_t warmup_iters = 150; ///< Train predictors and i-cache.
    uint32_t measure_iters = 400;
    uarch::CostParams params;
};

/** Result of measuring one workload on one image. */
struct Measurement
{
    double latency_us = 0;       ///< Cycles per iteration / 1000.
    double ops_per_sec = 0;      ///< Iterations per simulated second.
    uarch::RunStats stats;       ///< Counters over the measured phase.
};

/**
 * Decode-once, boot-once prototype of an image: a simulator with the
 * given cost parameters that has run `kernel_init`. Boot is
 * deterministic and independent of the workload, so a copy of the
 * prototype runs exactly like a fresh boot (DESIGN §5); every
 * measurement below runs on such a copy and never on the prototype.
 */
std::unique_ptr<const uarch::Simulator>
bootImage(std::shared_ptr<const uarch::DecodedModule> decoded,
          const kernel::KernelInfo& info,
          const uarch::CostParams& params = {});

/**
 * Measure on a copy of `booted` (from bootImage with
 * `config.params`; asserted): run the workload's setup and warmup,
 * then measure `measure_iters` iterations. The prototype is not
 * touched, so any number of threads may measure from one `const`
 * prototype at once.
 */
Measurement measureWorkload(const uarch::Simulator& booted,
                            const kernel::KernelInfo& info,
                            workload::Workload& wl,
                            const MeasureConfig& config = {});

/** Same, decoding and booting `image` first. */
Measurement measureWorkload(const ir::Module& image,
                            const kernel::KernelInfo& info,
                            workload::Workload& wl,
                            const MeasureConfig& config = {});

/** Same, booting a pre-decoded image first. */
Measurement
measureWorkload(std::shared_ptr<const uarch::DecodedModule> decoded,
                const kernel::KernelInfo& info, workload::Workload& wl,
                const MeasureConfig& config = {});

/** One profiled test: its setup, then `iters` iterations. */
struct ProfileRun
{
    workload::Workload* wl = nullptr;
    uint32_t iters = 0;
};

/**
 * Phase-1 profiling: execute each run with the edge profiler
 * attached, `repeats` times over (the paper's 11 profiling rounds),
 * and merge the counts; timing is irrelevant and disabled. Every run
 * starts from a fresh boot, as each LMBench binary is a new process
 * on the kernel: the image is decoded and booted once, and each run
 * copies the booted simulator and the boot's own edge counts.
 */
profile::EdgeProfile
collectProfileRuns(const ir::Module& linked,
                   const kernel::KernelInfo& info,
                   std::span<const ProfileRun> runs, uint32_t repeats = 1);

/** collectProfileRuns with `iters_per_test` iterations of each test. */
profile::EdgeProfile
collectProfile(const ir::Module& linked, const kernel::KernelInfo& info,
               const std::vector<std::unique_ptr<workload::Workload>>& suite,
               uint32_t iters_per_test = 300, uint32_t repeats = 1);

} // namespace pibe::core

#endif // PIBE_PIBE_EXPERIMENT_H_
