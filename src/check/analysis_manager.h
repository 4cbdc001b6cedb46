/**
 * @file
 * Per-function analysis cache.
 *
 * Checkers share analyses (the coverage auditor and the lints both
 * want reachability; the dead-store and use-before-def lints both sit
 * on liveness/assignment facts), so the manager computes each analysis
 * lazily, once per function, and hands out const references. A pass
 * that mutates a function must invalidate() it before querying again.
 *
 * Next to the analyses the manager caches each function's verify and
 * lint findings, so a pass sandwich re-audits only the functions a
 * pass touched. Those findings also read a little of the rest of the
 * module (the function and global counts, callees' parameter counts);
 * runChecks() calls syncShape() first, which drops every cached
 * finding when that shape changed.
 *
 * Thread safety: the per-function queries (cfg() through
 * definiteAssignment(), verifyFindings(), analyzable(), lintFindings())
 * and storeLintFindings() may run concurrently on *distinct* functions
 * (each function owns one slot, pre-sized by the constructor and
 * syncShape(); the hit and computation counters are atomic). Everything
 * else — targetSets(), invalidate(), syncShape() —
 * is caller-only: no other call may be in flight. runChecks() fills the
 * slots of cache-missed functions on a runtime::parallelFor sweep and
 * then reads them back in FuncId order on the calling thread.
 */
#ifndef PIBE_CHECK_ANALYSIS_MANAGER_H_
#define PIBE_CHECK_ANALYSIS_MANAGER_H_

#include <atomic>
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
            count(computations_);
        } else {
            count(hits_);
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

    /** True if verifyFindings(f) would be served from the cache. */
    bool
    verifyCached(ir::FuncId f) const
    {
        return module_.func(f).isDeclaration() ||
               (f < entries_.size() && entries_[f].verified);
    }

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
     * @pre analyzable(f) and f has a body.
     */
    void storeLintFindings(ir::FuncId f, std::vector<Diagnostic> diags);

    /**
     * Drop every cached finding if the function count, the global
     * count or any function's parameter count changed since the last
     * call, and size the per-function slots to the module. One
     * O(functions) compare; runChecks() calls it first, and a caller
     * that added functions calls it before querying them.
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

    /** Analyses computed since construction (cache-miss counter). */
    size_t computations() const { return computations_.load(); }

    /** Cached results served since construction (cache-hit counter). */
    size_t hits() const { return hits_.load(); }

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
        // Slots never grow here: that would race with the other
        // functions' queries. syncShape() sizes them to the module.
        PIBE_ASSERT(f < entries_.size(), "FuncId ", f,
                    " added since the last syncShape()");
        PIBE_ASSERT(!module_.func(f).isDeclaration(),
                    "analysis of declaration ", module_.func(f).name);
        return entries_[f];
    }

    static void
    count(std::atomic<size_t>& counter)
    {
        counter.fetch_add(1, std::memory_order_relaxed);
    }

    const ir::Module& module_;
    std::vector<Entry> entries_;
    std::unique_ptr<TargetSetAnalysis> targets_;
    /** Shape at the last syncShape(): the global count and every
     *  function's parameter count (one per function). */
    size_t shape_globals_ = 0;
    std::vector<uint32_t> shape_params_;
    std::atomic<size_t> computations_{0};
    std::atomic<size_t> hits_{0};
};

} // namespace pibe::check

#endif // PIBE_CHECK_ANALYSIS_MANAGER_H_
