/**
 * @file
 * Per-function analysis cache.
 *
 * Checkers share analyses (the coverage auditor and the lints both
 * want reachability; the dead-store and use-before-def lints both sit
 * on liveness/assignment facts), so the manager computes each analysis
 * lazily, once per function, and hands out const references. A pass
 * that mutates a function must invalidate() it (or invalidateAll()
 * after a module-wide pass) before querying again.
 *
 * Next to the analyses the manager caches each function's verify and
 * lint findings, so a pass sandwich re-audits only the functions a
 * pass touched. Those findings also read a little of the rest of the
 * module (the function and global counts, callees' parameter counts);
 * runChecks() calls syncShape() first, which drops every cached
 * finding when that shape changed.
 */
#ifndef PIBE_CHECK_ANALYSIS_MANAGER_H_
#define PIBE_CHECK_ANALYSIS_MANAGER_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "check/cfg.h"
#include "check/dataflow.h"
#include "check/diagnostic.h"
#include "check/dominators.h"
#include "check/target_sets.h"

namespace pibe::check {

class AnalysisManager
{
  public:
    explicit AnalysisManager(const ir::Module& module)
        : module_(module), entries_(module.numFunctions())
    {
    }

    const ir::Module& module() const { return module_; }

    /** @pre func has a body (declarations have no analyses). */
    const Cfg& cfg(ir::FuncId f);
    const DomTree& domTree(ir::FuncId f);
    const Liveness& liveness(ir::FuncId f);
    const FrameLiveness& frameLiveness(ir::FuncId f);
    const ReachingDefs& reachingDefs(ir::FuncId f);
    const DefiniteAssignment& definiteAssignment(ir::FuncId f);

    /**
     * The module-level feasible-target analysis (built lazily once,
     * then kept incrementally up to date through invalidate()). When
     * `roots` differs from the cached instance's roots the analysis is
     * rebuilt from scratch.
     */
    TargetSetAnalysis&
    targetSets(const std::vector<std::string>& roots = {})
    {
        if (targets_ && targets_->roots() != roots)
            targets_.reset();
        if (!targets_) {
            targets_ =
                std::make_unique<TargetSetAnalysis>(module_, roots);
            ++computations_;
        } else {
            ++hits_;
        }
        return *targets_;
    }

    /**
     * The structural verifier's problems with `f` (ir::verifyFunction)
     * as `verify.function` diagnostics, cached. Empty for declarations.
     */
    std::span<const Diagnostic> verifyFindings(ir::FuncId f);

    /** True if `f` verifies, so its analyses may run. */
    bool analyzable(ir::FuncId f) { return verifyFindings(f).empty(); }

    /**
     * The `lint.*` findings recorded for `f` by storeLintFindings()
     * since it was last invalidated, or nullopt.
     * @pre analyzable(f) and f has a body.
     */
    std::optional<std::span<const Diagnostic>> lintFindings(ir::FuncId f);

    /**
     * Record the lint findings of `f` (see lintFindings()) and drop
     * the dataflow analyses only the lint sweep reads (liveness, frame
     * liveness, reaching defs, definite assignment): until `f` is
     * invalidated its findings are served from here, so nothing reads
     * them. A later query recomputes them.
     */
    void storeLintFindings(ir::FuncId f, std::span<const Diagnostic> diags);

    /**
     * Drop every cached finding if the function count, the global
     * count or any function's parameter count changed since the last
     * call. One O(functions) compare; runChecks() calls it first.
     */
    void syncShape();

    /** Drop every cached analysis and finding of `f` (call after
     *  mutating it). */
    void
    invalidate(ir::FuncId f)
    {
        // Functions added after construction have nothing cached yet.
        if (f < entries_.size())
            entries_[f] = Entry{};
        if (targets_)
            targets_->invalidateFunction(f);
    }

    /** Drop all cached analyses and findings (call after a
     *  module-wide pass). */
    void
    invalidateAll()
    {
        for (Entry& e : entries_)
            e = Entry{};
        if (targets_)
            targets_->invalidateAll();
    }

    /** Analyses computed since construction (cache-miss counter). */
    size_t computations() const { return computations_; }

    /** Cached results served since construction (cache-hit counter). */
    size_t hits() const { return hits_; }

  private:
    struct Entry
    {
        std::unique_ptr<Cfg> cfg;
        std::unique_ptr<DomTree> dom;
        std::unique_ptr<Liveness> live;
        std::unique_ptr<FrameLiveness> frame_live;
        std::unique_ptr<ReachingDefs> reaching;
        std::unique_ptr<DefiniteAssignment> assigned;
        /** verify.function findings, then (once linted) lint.* ones.
         *  Most functions have none: an empty vector allocates
         *  nothing. */
        std::vector<Diagnostic> findings;
        uint32_t num_verify = 0;
        bool verified = false;
        bool linted = false;
    };

    Entry&
    entry(ir::FuncId f)
    {
        PIBE_ASSERT(f < module_.numFunctions(), "bad FuncId ", f);
        PIBE_ASSERT(!module_.func(f).isDeclaration(),
                    "analysis of declaration ", module_.func(f).name);
        // Passes may add functions (ICP continuation splits never do,
        // but future passes might); grow rather than assert so one
        // manager can span a whole pass pipeline.
        if (f >= entries_.size())
            entries_.resize(module_.numFunctions());
        return entries_[f];
    }

    const ir::Module& module_;
    std::vector<Entry> entries_;
    std::unique_ptr<TargetSetAnalysis> targets_;
    /** Shape at the last syncShape(): the global count and every
     *  function's parameter count (one per function). */
    size_t shape_globals_ = 0;
    std::vector<uint32_t> shape_params_;
    size_t computations_ = 0;
    size_t hits_ = 0;
};

} // namespace pibe::check

#endif // PIBE_CHECK_ANALYSIS_MANAGER_H_
