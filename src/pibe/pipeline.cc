#include "pibe/pipeline.h"

#include <chrono>

#include "analysis/layout.h"
#include "check/sandwich.h"
#include "check/target_sets.h"
#include "ir/verifier.h"

namespace pibe::core {

namespace {

/**
 * One sandwich stage: audit `image` after `pass` and return the error
 * that ends the build, if the pass regressed the module. Structural
 * (verify.*) errors always end it — they did before this suite
 * existed, via verifyOrDie — while lint/coverage findings only end it
 * when a pass *introduced* them, so modules that enter the pipeline
 * with pre-existing lint findings still build.
 */
std::optional<std::string>
auditStage(check::PassSandwich& sandwich, const std::string& pass,
           const ir::Module& image, const check::CheckOptions& opts,
           BuildReport& rep, check::AnalysisManager& am)
{
    const auto t0 = std::chrono::steady_clock::now();
    const check::StageResult& stage =
        sandwich.afterPass(pass, image, opts, &am);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    rep.audit_ms += ms;
    rep.audit_work_ms += ms;
    for (const check::GroupTime& g : stage.group_ms)
        rep.audit_work_ms += g.work_ms - g.ms;
    rep.sandwich.insert(rep.sandwich.end(), stage.fresh.begin(),
                        stage.fresh.end());
    for (const check::Diagnostic& d : stage.fresh) {
        if (d.severity == check::Severity::kError &&
            d.check_id.rfind("verify.", 0) == 0) {
            return "pass sandwich: structural verification failed at "
                   "stage '" +
                   pass + "': " + d.render();
        }
    }
    if (stage.regressed()) {
        const check::Diagnostic* first = stage.firstFreshError();
        return "pass sandwich: pass '" + pass + "' introduced " +
               std::to_string(stage.regressed_checks.size()) +
               " regressed check(s), first: " +
               (first ? first->render()
                      : "(error counts rose without a fresh location; "
                        "likely a duplicated finding)");
    }
    return std::nullopt;
}

} // namespace

BuildResult
tryBuildImage(const ir::Module& linked, const profile::EdgeProfile& profile,
              const OptConfig& opt, const harden::DefenseConfig& defenses,
              BuildReport* report)
{
    ir::Module image = linked; // snapshot
    profile::EdgeProfile working = profile;
    BuildReport local;
    BuildReport& rep = report ? *report : local;

    rep.baseline_image_size = analysis::imageSizeOf(linked);

    // One analysis cache spans the whole pass sequence. Each pass
    // reports the functions it mutated; only those are invalidated
    // before the next audit, so the sandwich re-derives analyses and
    // verify/lint findings for exactly the code that changed.
    check::PassSandwich sandwich;
    check::AnalysisManager am(image);
    // Returns the error that ends the build, if the stage failed.
    auto audit = [&](const std::string& pass, bool coverage,
                     bool profile_flow) -> std::optional<std::string> {
        if (!opt.sandwich)
            return std::nullopt;
        check::CheckOptions copts;
        copts.coverage = coverage;
        copts.defense = defenses;
        // Feasible-target validation at every stage: ICP guard chains
        // and op-table entries must stay inside the statically
        // feasible sets (fresh verify.targets errors end the build).
        copts.targets = true;
        // Flow conservation only holds for the profile as collected;
        // the inliners inherit edge weights into cloned sites without
        // subtracting them from the originals, so the invariants are
        // checked once, against the unmodified pipeline input.
        copts.profile_flow = profile_flow;
        copts.profile = &profile;
        return auditStage(sandwich, pass, image, copts, rep, am);
    };
    auto invalidateTouched = [&](const std::vector<ir::FuncId>& touched) {
        for (ir::FuncId f : touched)
            am.invalidate(f);
    };

    if (auto error =
            audit("input", /*coverage=*/false, /*profile_flow=*/true))
        return {std::nullopt, std::move(*error)};

    // Promotion first: it turns hot indirect edges into direct ones,
    // creating inlining candidates (§5.3).
    if (opt.enable_icp) {
        opt::IcpConfig cfg;
        cfg.budget = opt.icp_budget;
        cfg.max_targets_per_site = opt.icp_max_targets;
        opt::FeasibilityMap feas;
        if (opt.icp_total_promotion) {
            // Snapshot the pre-ICP feasible sets; the planner drops
            // fallback icalls only where the set is complete and
            // fully covered by guarded direct calls.
            feas = check::feasibilityMap(am.targetSets());
            cfg.feasibility = &feas;
            cfg.total_promotion = true;
            cfg.total_promotion_max_targets =
                opt.icp_total_promotion_max_targets;
        }
        rep.icp = opt::runIcp(image, working, cfg);
        invalidateTouched(rep.icp.touched);
        if (auto error = audit("icp", false, false))
            return {std::nullopt, std::move(*error)};
    }

    switch (opt.inliner) {
      case InlinerKind::kPibe: {
        opt::PibeInlinerConfig cfg;
        cfg.budget = opt.inline_budget;
        cfg.lax_heuristics = opt.lax_heuristics;
        cfg.lax_budget = opt.lax_budget;
        cfg.rule2_caller_threshold = opt.rule2_caller_threshold;
        cfg.rule3_callee_threshold = opt.rule3_callee_threshold;
        rep.inlining = opt::runPibeInliner(image, working, cfg);
        invalidateTouched(rep.inlining.touched);
        if (auto error = audit("inline", false, false))
            return {std::nullopt, std::move(*error)};
        break;
      }
      case InlinerKind::kDefaultLlvm: {
        opt::DefaultInlinerConfig cfg;
        cfg.budget = opt.inline_budget;
        rep.inlining = opt::runDefaultInliner(image, working, cfg);
        invalidateTouched(rep.inlining.touched);
        if (auto error = audit("inline", false, false))
            return {std::nullopt, std::move(*error)};
        break;
      }
      case InlinerKind::kNone:
        break;
    }

    std::vector<ir::FuncId> harden_touched;
    rep.coverage = harden::applyDefenses(image, defenses, &harden_touched);
    // ICP residue accounting: analyzeCoverage cannot recover these
    // from the module alone, so the pipeline fills them from the
    // promotion audit (satisfying Table 6/11's surface columns).
    rep.coverage.capped_residual_icalls = rep.icp.capped_sites;
    rep.coverage.elided_icalls = rep.icp.fallbacks_dropped;
    invalidateTouched(harden_touched);
    if (auto error =
            audit("harden", /*coverage=*/true, /*profile_flow=*/false))
        return {std::nullopt, std::move(*error)};

    rep.analyses_computed = am.computations();
    rep.analyses_reused = am.hits();
    rep.image_size = analysis::imageSizeOf(image);
    rep.final_profile = std::move(working);

    if (!opt.sandwich) {
        const std::vector<std::string> problems = ir::verifyModule(image);
        if (!problems.empty())
            return {std::nullopt,
                    "module verification failed (buildImage(" +
                        defenses.name() + ")): " + problems.front() +
                        " [" + std::to_string(problems.size()) +
                        " problem(s)]"};
    }
    return {std::move(image), {}};
}

ir::Module
buildImage(const ir::Module& linked, const profile::EdgeProfile& profile,
           const OptConfig& opt, const harden::DefenseConfig& defenses,
           BuildReport* report)
{
    BuildResult built = tryBuildImage(linked, profile, opt, defenses, report);
    if (!built.image)
        PIBE_FATAL(built.error);
    return std::move(*built.image);
}

} // namespace pibe::core
