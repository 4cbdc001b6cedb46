/**
 * @file
 * The PIBE pipeline — the paper's §4 overview as an API.
 *
 * Phase 1 (profiling): collectProfile() (pibe/experiment.h) boots the
 * linked module once, runs each workload on a copy of the booted
 * kernel with the edge profiler attached, and returns the merged
 * call-graph edge profile.
 *
 * Phase 2 (production build): buildImage() takes the linked module and
 * a profile and derives a production image by running, in order,
 * profile-guided indirect call promotion, profile-guided inlining
 * (PIBE's or the LLVM-like comparator), and the hardening pass for the
 * requested defense combination. A BuildReport captures every audit
 * the evaluation tables need.
 */
#ifndef PIBE_PIBE_PIPELINE_H_
#define PIBE_PIBE_PIPELINE_H_

#include <optional>
#include <string>

#include "check/diagnostic.h"
#include "harden/harden.h"
#include "ir/module.h"
#include "opt/icp.h"
#include "opt/inliner.h"
#include "profile/edge_profile.h"

namespace pibe::core {

/** Which inlining algorithm to run. */
enum class InlinerKind {
    kPibe,        ///< §5.2 greedy weight-ordered inliner.
    kDefaultLlvm, ///< §8.4 bottom-up size-based comparator.
    kNone,        ///< Skip inlining.
};

/** Optimization configuration for one production image. */
struct OptConfig
{
    bool enable_icp = true;
    /** ICP cumulative-weight budget (§5.3). */
    double icp_budget = 0.99999;
    /** Per-site promotion cap (0 = unlimited). When a cap truncates a
     *  guard chain the residual fallback icall is counted in
     *  CoverageReport::capped_residual_icalls. */
    uint32_t icp_max_targets = 0;
    /**
     * Total promotion: compute the interprocedural feasible-target
     * sets (check/target_sets.h), and at sites whose set is complete
     * and small, promote every feasible target and drop the fallback
     * indirect call (Switchpoline precondition). The eliminated sites
     * are counted in CoverageReport::elided_icalls.
     */
    bool icp_total_promotion = false;
    /** Feasible-set size bound for total promotion. */
    uint32_t icp_total_promotion_max_targets = 8;

    InlinerKind inliner = InlinerKind::kPibe;
    /** Inlining cumulative-weight budget (§5.2 Rule 1). */
    double inline_budget = 0.999;
    /** §8.3 "lax heuristics": drop Rules 2-3 inside `lax_budget`. */
    bool lax_heuristics = false;
    double lax_budget = 0.99;
    /** Rule 2 caller-complexity threshold. */
    int64_t rule2_caller_threshold = 12000;
    /** Rule 3 callee-complexity threshold. */
    int64_t rule3_callee_threshold = 3000;

    /**
     * Pass-sandwich mode: run the `src/check` audit suite on the
     * pipeline input and again after every pass, record fresh findings
     * in BuildReport::sandwich, and fail the build if a pass
     * *introduces* error-severity findings (see check::PassSandwich).
     * The input module's own pre-existing lint findings never fail it.
     */
    bool sandwich = true;

    /** Convenience: no optimization at all (the LTO baseline). */
    static OptConfig
    none()
    {
        OptConfig c;
        c.enable_icp = false;
        c.inliner = InlinerKind::kNone;
        return c;
    }

    /** ICP only, at `budget` (Table 3 configurations). */
    static OptConfig
    icpOnly(double budget)
    {
        OptConfig c;
        c.enable_icp = true;
        c.icp_budget = budget;
        c.inliner = InlinerKind::kNone;
        return c;
    }

    /** ICP at 99.999% plus PIBE inlining at `budget` (Table 5). */
    static OptConfig
    icpAndInline(double inline_budget, bool lax = false)
    {
        OptConfig c;
        c.icp_budget = 0.99999;
        c.inline_budget = inline_budget;
        c.lax_heuristics = lax;
        return c;
    }
};

/** Everything the evaluation tables read out of one image build. */
struct BuildReport
{
    opt::IcpAudit icp;
    opt::InlineAudit inlining;
    harden::CoverageReport coverage;
    uint64_t image_size = 0;          ///< Bytes after all passes.
    uint64_t baseline_image_size = 0; ///< Bytes of the input module.
    /**
     * Incremental-audit effectiveness (sandwich mode only): analyses
     * recomputed vs. served from cache across all sandwich stages. The
     * pipeline keeps one check::AnalysisManager alive for the whole
     * pass sequence and invalidates exactly the functions each pass
     * reports as touched (for hardening: the functions whose switches
     * were lowered; retagging schemes touches nothing), so the verify
     * and lint findings and the analyses of functions no pass mutated
     * are served from cache at every stage.
     */
    size_t analyses_computed = 0;
    size_t analyses_reused = 0;
    /** Wall time of the sandwich stages, summed (sandwich mode only;
     *  the rest of the build is passes and layout). */
    double audit_ms = 0;
    /** Their work: audit_ms with each per-function sweep's wall time
     *  replaced by the busy time of every thread it used, so
     *  audit_work_ms / audit_ms is the audit's achieved parallelism. */
    double audit_work_ms = 0;
    /** The profile as transformed by the passes (promoted weights
     *  moved to direct edges, inherited sites added). */
    profile::EdgeProfile final_profile;
    /** Fresh audit findings per pipeline stage (sandwich mode only),
     *  each Diagnostic::pass naming the stage that introduced it. */
    std::vector<check::Diagnostic> sandwich;
};

/** The outcome of tryBuildImage(): an image or the failed audit. */
struct BuildResult
{
    std::optional<ir::Module> image; ///< Engaged iff the build passed.
    /** Otherwise "pass sandwich: ..." naming the failing stage and its
     *  first finding (or the verifier's first problem when the
     *  sandwich is off). */
    std::string error;
};

/**
 * Derive a production image from `linked` using `profile`. The input
 * module is copied; the profile is copied and transformed internally.
 * A stage that fails structural verification, or a pass that
 * introduces error findings, ends the build with an error value, never
 * a crash or an exit, so long-running processes can answer it.
 */
BuildResult tryBuildImage(const ir::Module& linked,
                          const profile::EdgeProfile& profile,
                          const OptConfig& opt,
                          const harden::DefenseConfig& defenses,
                          BuildReport* report = nullptr);

/**
 * tryBuildImage() for callers that cannot continue without the image:
 * fatal (PIBE_FATAL) with the same message if the build fails.
 */
ir::Module buildImage(const ir::Module& linked,
                      const profile::EdgeProfile& profile,
                      const OptConfig& opt,
                      const harden::DefenseConfig& defenses,
                      BuildReport* report = nullptr);

} // namespace pibe::core

#endif // PIBE_PIBE_PIPELINE_H_
