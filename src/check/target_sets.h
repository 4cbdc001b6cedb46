/**
 * @file
 * Interprocedural function-pointer target-set analysis.
 *
 * An Andersen-style, flow- and field-insensitive points-to analysis
 * over the function-pointer fragment of PIR: the only abstract values
 * tracked are function addresses (ir::funcAddrValue). For every
 * indirect call site it computes the set of functions the call can
 * feasibly reach, plus a completeness bit that records whether every
 * flow into the site's pointer was resolved.
 *
 * Abstract locations ("nodes"): one per (function, register), one per
 * (function, frame slot), one per function return value, and one per
 * Global (arrays are collapsed to a single node — field-insensitive,
 * which matches how op-tables are used: any slot may reach any load).
 *
 * Constraint rules (see DESIGN.md §10 for the soundness argument):
 *  - kConst of a func-addr value and kFuncAddr seed pts(dst);
 *  - kMove / kFrameLoad / kFrameStore add copy edges;
 *  - kLoad adds global -> dst, kStore adds src -> global (indices
 *    ignored: field-insensitive);
 *  - kCall adds arg -> param and ret(callee) -> dst edges; callees
 *    without bodies (declarations / kAttrExternal) make dst incomplete;
 *  - kICall wires arg/ret edges dynamically as pts(ptr) grows, for
 *    targets whose arity matches;
 *  - arithmetic kBinOp taints: if an operand may hold a func addr the
 *    result is incomplete (pointer bits escaped into math we do not
 *    model); comparisons yield 0/1 and are ignored;
 *  - root function parameters (module entry points) are incomplete:
 *    the caller is outside the module;
 *  - an icall through an incomplete pointer may invoke any
 *    address-taken function, so it taints every address-taken
 *    function's parameters and its own result.
 *
 * Incompleteness is sticky and propagates along the same edges as
 * target sets. The analysis is a least fixpoint of a monotone
 * constraint system, so the solution is independent of solve order.
 *
 * The analysis is incremental at summary granularity: constraints are
 * extracted per function and cached; invalidateFunction(f) marks one
 * summary dirty and the next query re-extracts only that summary
 * before re-running the module-wide fixpoint. Dirty summaries are
 * extracted on runtime::parallelFor (one helper per
 * runtime::kInstsPerHelper instructions to extract), each worker
 * writing only the summaries of its own functions. When every
 * re-extracted summary equals the one it replaces (a pass changed
 * nothing the analysis reads, as when hardening lowers a switch), the
 * previous fixpoint is kept, its nodes re-laid out if register counts
 * changed. Global initializers are read by the fixpoint, not by a
 * summary: a pass that changes one calls invalidateAll().
 *
 * One worklist solver computes the fixpoint (see DESIGN.md §11):
 * whole sets travel along subset edges until nothing changes. Static
 * copy and taint edges sit in flat compressed-sparse-row arrays;
 * icall edges wired as pointer sets grow go to per-source lists. Only
 * the seeded nodes start on the worklist. Each node holds a shared
 * handle to an immutable sorted set, so a set that flows along a copy
 * edge is shared, not copied; a union allocates only when neither
 * side covers the other.
 *
 * Icall sites share call hubs: sites whose pointers provably hold the
 * same set (a chain of single-inflow copies back to one
 * representative node) and that pass the same number of arguments
 * copy their arguments into one hub and its result out, and only the
 * hub is wired to the targets. Wiring then grows as hubs x targets,
 * not sites x targets, and every set and bit is the one per-site
 * wiring gives. SolverStats::dynamic_edges counts the site->hub and
 * hub->target edges; SolverStats::nodes stays the count of abstract
 * locations.
 */
#ifndef PIBE_CHECK_TARGET_SETS_H_
#define PIBE_CHECK_TARGET_SETS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
#include "opt/icp.h"

namespace pibe::check {

/** Feasible targets of one abstract location. */
struct TargetSet
{
    /** Sorted, unique function ids. */
    std::vector<ir::FuncId> targets;
    /** True if some flow into the location was not resolved; the set
     *  is then a lower bound and must be treated as "any address-taken
     *  function". */
    bool incomplete = false;

    bool
    contains(ir::FuncId f) const
    {
        for (ir::FuncId t : targets)
            if (t == f)
                return true;
        return false;
    }
};

/** Resolved feasible-target facts for one indirect call site. */
struct SiteTargets
{
    ir::SiteId site = ir::kNoSite;
    ir::FuncId func = ir::kInvalidFunc;
    ir::BlockId block = 0;
    uint32_t index = 0;       ///< Instruction index within the block.
    ir::Reg ptr = ir::kNoReg; ///< The called pointer register.
    bool is_asm = false;
    bool incomplete = false;
    /** Sorted, unique feasible targets (meaningful even when
     *  incomplete: the resolved lower bound). */
    std::vector<ir::FuncId> targets;

    bool complete() const { return !incomplete; }
};

/** A global initializer slot that decodes to a nonexistent function. */
struct BadGlobalSlot
{
    ir::GlobalId global = ir::kInvalidGlobal;
    size_t slot = 0;
    int64_t value = 0;
};

/** Counters from the most recent solve. A solve that keeps the
 *  previous fixpoint updates only the two extraction times. */
struct SolverStats
{
    uint32_t nodes = 0;         ///< Abstract locations (no hub nodes).
    uint32_t static_edges = 0;  ///< Subset edges from summaries.
    /** Icall edges wired in: site -> hub (arguments, result) and
     *  hub -> target (parameters, returns). */
    uint32_t dynamic_edges = 0;
    /** Call hubs: sites grouped by (representative pointer, arity). */
    uint32_t call_hubs = 0;
    uint64_t pops = 0;          ///< Worklist pops to fixpoint.
    /** Wall time after extraction: edges, fixpoint, publish. */
    double solve_ms = 0.0;
    /** Wall time of re-extracting the dirty summaries (the span). */
    double extract_ms = 0.0;
    /** Busy time of that extraction summed over every thread that
     *  took part (the work). */
    double extract_work_ms = 0.0;
};

class TargetSetAnalysis
{
  public:
    /**
     * @param roots Entry-point function names whose parameters are
     *        supplied from outside the module (incomplete). Empty =
     *        the conventional entries: kernel_init, sys_dispatch, main.
     */
    explicit TargetSetAnalysis(const ir::Module& module,
                               std::vector<std::string> roots = {});

    const ir::Module& module() const { return module_; }
    const std::vector<std::string>& roots() const { return roots_; }

    /** Mark one function's constraint summary stale (call after
     *  mutating it). The next query re-extracts only this summary. */
    void invalidateFunction(ir::FuncId f);

    /** Mark every summary stale (call after a module-wide pass); the
     *  next query always re-runs the fixpoint. */
    void invalidateAll();

    /** Per-site feasible targets, keyed by SiteId (solves lazily). */
    const std::map<ir::SiteId, SiteTargets>& sites();

    /** One site's facts; nullptr if the site id is not an icall. */
    const SiteTargets* site(ir::SiteId s);

    /** Feasible targets of register `r` in function `f`. */
    TargetSet regTargets(ir::FuncId f, ir::Reg r);

    /** Sorted ids of every address-taken function (the pool an
     *  unresolved pointer may range over). */
    const std::vector<ir::FuncId>& addressTaken();

    /** Global initializer slots holding invalid function addresses. */
    const std::vector<BadGlobalSlot>& badGlobalSlots();

    /**
     * Force the lazy fixpoint now. After this returns — and until the
     * next invalidateFunction/invalidateAll call — the
     * query methods (sites, site, regTargets, addressTaken,
     * badGlobalSlots) only read solved state and are safe to call
     * from multiple threads concurrently.
     */
    void ensureSolved() { sites(); }

    /** Solves run so far (grows on query-after-invalidate), counting
     *  the ones that kept the previous fixpoint. */
    size_t solves() const { return solves_; }

    /** Solves that kept the previous fixpoint because no re-extracted
     *  summary changed. */
    size_t solutionsKept() const { return solutions_kept_; }

    /** Function summaries (re)extracted so far. The incremental
     *  contract: after invalidateFunction(f), the next solve grows
     *  this by exactly one. */
    size_t summariesExtracted() const { return summaries_extracted_; }

    /** Counters from the most recent solve (pibe check --timing). */
    const SolverStats& solverStats() const { return stats_; }

  private:
    // One abstract-location constraint, extracted per function.
    struct Constraint
    {
        enum class Kind : uint8_t {
            kSeed,       // pts(dst reg) += {target}
            kCopy,       // dst reg ⊇ src reg
            kTaint,      // pts(src reg) ≠ ∅ or incomplete => dst incomplete
            kLoadGlobal, // dst reg ⊇ global
            kStoreGlobal,// global ⊇ src reg
            kFrameLoad,  // dst reg ⊇ frame slot
            kFrameStore, // frame slot ⊇ src reg
            kCallArg,    // param reg of callee ⊇ src reg
            kCallRet,    // dst reg ⊇ ret(callee)
            kRet,        // ret(this function) ⊇ src reg
            kIncomplete, // dst reg incomplete
        };
        Kind kind;
        uint32_t dst = 0; // reg / frame slot / global id / param index
        uint32_t src = 0; // reg
        ir::FuncId callee = ir::kInvalidFunc;
        ir::FuncId target = ir::kInvalidFunc;

        bool operator==(const Constraint&) const = default;
    };

    // One indirect call site, recorded during summary extraction.
    struct IcallRecord
    {
        ir::SiteId site = ir::kNoSite;
        ir::BlockId block = 0;
        uint32_t index = 0;
        ir::Reg ptr = ir::kNoReg;
        ir::Reg dst = ir::kNoReg;
        std::vector<ir::Reg> args;
        bool is_asm = false;

        bool operator==(const IcallRecord&) const = default;
    };

    struct FuncSummary
    {
        std::vector<Constraint> constraints;
        std::vector<IcallRecord> icalls;
        /** What the fixpoint reads of the function itself. */
        uint32_t num_params = 0;
        uint32_t num_regs = 0;
        bool declaration = false;
        bool dirty = true;
    };

    /** An immutable sorted target set, shared by every node it flows
     *  to unchanged; null is the empty set. */
    using SetHandle = std::shared_ptr<const std::vector<ir::FuncId>>;

    /** Rebuild summaries_[f] from the module, collecting constraints
     *  in `scratch` so the summary keeps an exact-size copy. Reads
     *  only the module and writes only summaries_[f], so distinct
     *  functions extract concurrently. */
    void extractSummary(ir::FuncId f, std::vector<Constraint>& scratch);
    /**
     * Re-extract every dirty summary on a parallelFor sweep.
     * @param keep Whether the last fixpoint may still be kept; if so,
     *        the dirty summaries are saved first and compared after.
     * @return `keep` and every re-extracted summary leaves the
     *         fixpoint as it was (sameFixpoint).
     */
    bool extractDirty(bool keep);
    static bool sameFixpoint(const FuncSummary& before,
                             const FuncSummary& now);
    void layoutNodes();
    void relayoutNodes();
    void solve();
    uint32_t regNode(ir::FuncId f, ir::Reg r) const;
    uint32_t retNode(ir::FuncId f) const;
    uint32_t globalNode(ir::GlobalId g) const;

    const ir::Module& module_;
    std::vector<std::string> roots_;

    std::vector<FuncSummary> summaries_;
    bool solved_ = false;
    /** Set by invalidateAll(): the next solve re-runs the fixpoint. */
    bool resolve_all_ = true;
    size_t solves_ = 0;
    size_t solutions_kept_ = 0;
    size_t summaries_extracted_ = 0;

    // Node layout of the last solve.
    std::vector<uint32_t> reg_base_;
    std::vector<uint32_t> frame_base_;
    std::vector<uint32_t> ret_node_;
    uint32_t global_base_ = 0;
    uint32_t num_nodes_ = 0;

    // Solution of the last solve, indexed by node.
    std::vector<SetHandle> pts_;
    std::vector<bool> incomplete_;
    std::map<ir::SiteId, SiteTargets> sites_;
    std::vector<ir::FuncId> address_taken_;
    std::vector<BadGlobalSlot> bad_slots_;

    SolverStats stats_;
};

/**
 * Extract an opt::FeasibilityMap (per-site complete bit + feasible
 * targets) for the ICP planner's total-promotion precondition.
 */
opt::FeasibilityMap feasibilityMap(TargetSetAnalysis& analysis);

// --- residual-attack-surface report (`pibe surface`) ---

/** Surface metrics for one DefenseConfig. */
struct SurfaceDefenseRow
{
    std::string defense;
    uint32_t protected_icalls = 0;   ///< Sites behind a fwd scheme.
    uint32_t unprotected_icalls = 0; ///< Asm sites / no fwd scheme.
    /** Σ allowed targets per site: |pts| where complete and protected,
     *  else the whole address-taken pool. */
    uint64_t residual_target_pairs = 0;
    /** AIR-style score: 1 - avg(allowed_i / pool). 1.0 = every site
     *  fully constrained; 0.0 = every site may reach the whole pool. */
    double air = 0.0;
};

/** The full `pibe surface` report. */
struct SurfaceReport
{
    std::string module_name;
    uint32_t functions = 0;
    uint32_t address_taken = 0;
    uint32_t icall_sites = 0;
    uint32_t asm_sites = 0;
    uint32_t complete_sites = 0;
    uint32_t incomplete_sites = 0;
    /** Complete sites with 0 < |set| <= max_targets — candidates for
     *  total promotion / Switchpoline conversion. */
    uint32_t switchpoline_eligible = 0;
    uint32_t max_targets = 0; ///< The eligibility knob used above.
    double avg_targets = 0.0; ///< Mean |set| over complete sites.
    /** Histogram over complete sites: |set| -> number of sites. */
    std::map<uint32_t, uint32_t> set_size_hist;
    std::vector<SurfaceDefenseRow> defenses;
};

/** Compute the report over the canonical DefenseConfigs. */
SurfaceReport buildSurfaceReport(TargetSetAnalysis& analysis,
                                 uint32_t max_targets);

/** Human-readable report (tables). */
std::string renderSurfaceText(const SurfaceReport& rep);

/** One JSON object (the BENCH_surface.json payload). */
std::string renderSurfaceJson(const SurfaceReport& rep);

} // namespace pibe::check

#endif // PIBE_CHECK_TARGET_SETS_H_
