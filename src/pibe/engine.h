/**
 * @file
 * The parallel experiment-execution engine.
 *
 * Every evaluation table runs the same pipeline: build the synthetic
 * kernel, collect the LMBench profile, derive production images for a
 * set of (OptConfig, DefenseConfig) points, and measure workloads on
 * each image. runExperiments() expresses one such plan as a DAG of
 * jobs on a thread pool (src/runtime), with every stage memoized in a
 * content-addressed artifact cache:
 *
 *   kernel ──> profile ──> image(c1) ──> measure(c1, wl1..wlN)
 *                     └──> image(c2) ──> measure(c2, wl1..wlN)  ...
 *
 * Artifacts are canonical texts (module print, profile serialization,
 * measurement dump) keyed by the digest of everything that produced
 * them, so re-runs and cross-table runs sharing a cache directory skip
 * the expensive stages entirely.
 *
 * The engine, `pibe serve` and the CLI load kernels and images through
 * one loader each (loadKernel, loadImage), and every stage has one
 * corrupt-artifact policy: a cached artifact that does not decode is
 * counted in CacheStats::corrupt, recomputed, and put over the bad
 * entry. No cache artifact can fail or end a process.
 *
 * Determinism: every stage consumes the *parsed canonical text* of its
 * inputs (never the in-memory object that produced the text), and each
 * job's stochastic state is seeded from its job key — so results are
 * bit-identical across serial/parallel and cold/warm-cache runs.
 */
#ifndef PIBE_PIBE_ENGINE_H_
#define PIBE_PIBE_ENGINE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harden/harden.h"
#include "pibe/experiment.h"
#include "pibe/pipeline.h"
#include "runtime/artifact_cache.h"
#include "runtime/job_graph.h"
#include "support/table.h"

namespace pibe::core {

/** One table's worth of work: images to build, measurements to take. */
struct ExperimentPlan
{
    kernel::KernelConfig kernel;
    /** Base iteration count of the skewed LMBench training profile. */
    uint32_t profile_base_iters = 120;
    MeasureConfig measure;

    /** One production image: a named (OptConfig, DefenseConfig) point. */
    struct ImageSpec
    {
        std::string name;
        OptConfig opt;
        harden::DefenseConfig defense;
    };
    std::vector<ImageSpec> images;

    /** One measurement: a workload (LMBench test name, or "nginx" /
     *  "apache" / "dbench") on a named image. */
    struct MeasureSpec
    {
        std::string image;
        std::string workload;
    };
    std::vector<MeasureSpec> runs;

    /** Add an image spec (returns its name for chaining). */
    const std::string& addImage(std::string name, const OptConfig& opt,
                                const harden::DefenseConfig& defense);

    /** Schedule one workload on `image`. */
    void measureOn(const std::string& image, const std::string& workload);

    /** Schedule every LMBench test of the suite on `image`. */
    void measureLmbenchOn(const std::string& image);
};

/** Execution knobs of runExperiments(). */
struct EngineOptions
{
    /** Worker threads for the job graph (1 = serial). */
    unsigned jobs = 1;
    /** Memoize artifacts (in-memory; plus disk when cache_dir set). */
    bool use_cache = true;
    /** On-disk cache directory; empty = in-memory only. */
    std::string cache_dir;
};

/** Everything a table formatter needs after the graph has drained. */
struct ExperimentResults
{
    /** image name -> workload name -> measurement. */
    std::map<std::string, std::map<std::string, Measurement>>
        measurements;

    runtime::CacheStats cache;
    std::vector<runtime::JobMetrics> jobs;
    double wall_ms = 0;

    const Measurement& at(const std::string& image,
                          const std::string& workload) const;

    /** latency_us per workload for one image (bench table input). */
    std::map<std::string, double>
    latencies(const std::string& image) const;
};

/**
 * Execute `plan` on a pool of `opts.jobs` workers. Parallel results
 * are bit-identical to `jobs = 1`. Throws std::runtime_error if
 * `opts.cache_dir` cannot be used, and rethrows the first job's
 * exception (e.g. an image build that failed its audit).
 */
ExperimentResults runExperiments(const ExperimentPlan& plan,
                                 const EngineOptions& opts = {});

// ---------------------------------------------------------------------
// Staged entry points. Each pipeline stage is exposed as a cached
// function over *canonical artifact text* so any caller — the
// runExperiments() job graph, the CLI, or a long-running `pibe serve`
// daemon — computes bit-identical artifacts through the same code and
// the same cache keys. `cache` may be null (no memoization).

/**
 * The content digest of one artifact text: runtime::Digest over the
 * length-prefixed text, as 32 hex chars. Each text is hashed once, and
 * the key of every artifact derived from it chains the digest instead
 * of re-hashing the text:
 *
 *   pibe-profile-v2  = (kernel digest, base iters)
 *   pibe-image-v3    = (kernel digest, profile digest, opt, defense)
 *   pibe-measure-v3  = (decoded format version, image digest,
 *                       workload, MeasureConfig)
 *
 * Each staged entry point below takes either the digests or the texts;
 * a text overload digests its texts and delegates, so both derive the
 * same key.
 */
struct ArtifactDigest
{
    std::string hex;

    static ArtifactDigest of(std::string_view text);
};

/**
 * A kernel (or production image) artifact: its text's digest, the
 * parse and the kernel handles. The module is on the heap, so it keeps
 * its address when the artifact moves (simulators refer to it).
 */
struct KernelArtifact
{
    ArtifactDigest digest;
    std::unique_ptr<const ir::Module> module;
    kernel::KernelInfo info;
};

/**
 * Canonical kernel module text for `cfg`, memoized in `cache`. A hit
 * must parse into a synthetic kernel. `parsed`, when non-null,
 * receives that parse, or on a miss the parse of the printed text, so
 * hits and misses run the same module.
 */
std::string kernelTextCached(const kernel::KernelConfig& cfg,
                             runtime::ArtifactCache* cache,
                             KernelArtifact* parsed = nullptr);

/** The kernel for `cfg`, through kernelTextCached(). */
KernelArtifact loadKernel(const kernel::KernelConfig& cfg,
                          runtime::ArtifactCache* cache);

/**
 * Canonical serialized LMBench training profile for `kernel` (which
 * must be the parse of the text `kernel_digest` digests — the digest
 * keys the cache, the module is the execution input). A hit must
 * lift onto `kernel`. When `lifted` is non-null it receives that
 * lift, so a fetch lifts the profile once.
 */
std::string profileTextCached(const ArtifactDigest& kernel_digest,
                              const ir::Module& kernel,
                              const kernel::KernelInfo& info,
                              uint32_t base_iters,
                              runtime::ArtifactCache* cache,
                              profile::EdgeProfile* lifted = nullptr);
std::string profileTextCached(const std::string& kernel_text,
                              const ir::Module& kernel,
                              const kernel::KernelInfo& info,
                              uint32_t base_iters,
                              runtime::ArtifactCache* cache,
                              profile::EdgeProfile* lifted = nullptr);

/** Cache key of the production image for one (opt, defense) point. */
std::string imageCacheKey(const ArtifactDigest& kernel_digest,
                          const ArtifactDigest& profile_digest,
                          const OptConfig& opt,
                          const harden::DefenseConfig& defense);
std::string imageCacheKey(const std::string& kernel_text,
                          const std::string& profile_text,
                          const OptConfig& opt,
                          const harden::DefenseConfig& defense);

/**
 * Canonical production-image text for one (opt, defense) point.
 * `kernel`/`profile` must be the parses of the two digested texts. A
 * build that fails its audit (tryBuildImage's error) is thrown as
 * std::runtime_error, which a job graph carries to its caller (serve
 * answers it with an error response). Hits and `parsed` are as in
 * kernelTextCached().
 */
std::string imageTextCached(const ArtifactDigest& kernel_digest,
                            const ir::Module& kernel,
                            const ArtifactDigest& profile_digest,
                            const profile::EdgeProfile& profile,
                            const OptConfig& opt,
                            const harden::DefenseConfig& defense,
                            runtime::ArtifactCache* cache,
                            KernelArtifact* parsed = nullptr);
std::string imageTextCached(const std::string& kernel_text,
                            const ir::Module& kernel,
                            const std::string& profile_text,
                            const profile::EdgeProfile& profile,
                            const OptConfig& opt,
                            const harden::DefenseConfig& defense,
                            runtime::ArtifactCache* cache);

/** An image artifact, decoded and booted once (bootImage()): every
 *  measurement of the image runs on a copy of `booted`. */
struct ImageArtifact : KernelArtifact
{
    std::unique_ptr<const uarch::Simulator> booted;
};

/** The image for one (opt, defense) point, through imageTextCached(),
 *  booted with `params`; `text`, when non-null, receives its text. */
ImageArtifact
loadImage(const KernelArtifact& kernel, const ArtifactDigest& profile_digest,
          const profile::EdgeProfile& profile, const OptConfig& opt,
          const harden::DefenseConfig& defense,
          const uarch::CostParams& params, runtime::ArtifactCache* cache,
          std::string* text = nullptr);

/** An image from text outside the cache (`pibe measure`'s files):
 *  parsed, verified, decoded and booted with the default cost params;
 *  or nullopt, with the parse or verifier error in `error`. */
std::optional<ImageArtifact> loadImageText(std::string_view text,
                                           std::string& error);

/**
 * One cached measurement. Key = (decoded-stream format version, image
 * digest, workload name, MeasureConfig incl. cost params); value = the
 * serialized Measurement, doubles stored as bit patterns so a hit
 * reproduces the computed result exactly. A miss measures on a copy of
 * `booted`, the image's prototype from bootImage() with
 * `config.params` (decode and boot once, pass to every measurement of
 * the same image). `workload_name` is an LMBench test name or "nginx" /
 * "apache" / "dbench" (workload::makeWorkload); any other name is
 * thrown as std::runtime_error. `cache` may be null (no memoization).
 * A hit must parse. Shared by runExperiments(), serve and `pibe
 * measure --jobs`.
 */
Measurement
measureWorkloadCached(const ArtifactDigest& image_digest,
                      const uarch::Simulator& booted,
                      const kernel::KernelInfo& info,
                      const std::string& workload_name,
                      const MeasureConfig& config,
                      runtime::ArtifactCache* cache);
/** Same, keyed by the image's text, booting `decoded` first. */
Measurement
measureWorkloadCached(const std::string& image_text,
                      std::shared_ptr<const uarch::DecodedModule> decoded,
                      const kernel::KernelInfo& info,
                      const std::string& workload_name,
                      const MeasureConfig& config,
                      runtime::ArtifactCache* cache);

/**
 * The canonical LMBench training profile: each test contributes
 * iterations scaled like LMBench's fixed-wall-time loops (cheap tests
 * run many more iterations), which produces the orders-of-magnitude
 * weight spread PIBE's budgets rely on.
 */
profile::EdgeProfile
collectLmbenchProfile(const ir::Module& kernel,
                      const kernel::KernelInfo& info,
                      uint32_t base_iters = 120);

/** Per-job metrics + cache counters as a printable table. */
Table engineMetricsTable(const ExperimentResults& results);

} // namespace pibe::core

#endif // PIBE_PIBE_ENGINE_H_
