/**
 * @file
 * Per-function control-flow graph over PIR.
 *
 * The Cfg is the substrate of every analysis in src/check: it exposes
 * predecessor/successor maps, entry reachability, and a reverse
 * post-order over the reachable blocks (the iteration order that makes
 * forward dataflow converge in few passes). It is a pure view: it
 * never mutates the function and is invalidated by the
 * AnalysisManager when the function changes.
 */
#ifndef PIBE_CHECK_CFG_H_
#define PIBE_CHECK_CFG_H_

#include <vector>

#include "ir/module.h"

namespace pibe::check {

/** Successor block ids of `term`, a terminator of `func` (empty for
 *  kRet). */
std::vector<ir::BlockId> terminatorSuccessors(const ir::Function& func,
                                              const ir::Instruction& term);

/** Control-flow graph of one function body. */
class Cfg
{
  public:
    /** Build the graph by scanning `func`'s terminators.
     *  @pre `func` has a body and every block ends in a terminator
     *  with in-range targets (run the verifier first). */
    explicit Cfg(const ir::Function& func);

    size_t numBlocks() const { return succs_.size(); }

    const std::vector<ir::BlockId>& succs(ir::BlockId b) const
    {
        return succs_[b];
    }
    const std::vector<ir::BlockId>& preds(ir::BlockId b) const
    {
        return preds_[b];
    }

    /** True if `b` is reachable from the entry block. */
    bool isReachable(ir::BlockId b) const { return reachable_[b]; }

    /** Number of blocks reachable from entry. */
    size_t numReachable() const { return rpo_.size(); }

    /** Reverse post-order over the reachable blocks (entry first). */
    const std::vector<ir::BlockId>& reversePostOrder() const
    {
        return rpo_;
    }

    /** Position of `b` in the RPO; SIZE_MAX for unreachable blocks. */
    size_t rpoIndex(ir::BlockId b) const { return rpo_index_[b]; }

    /**
     * True if `b` can execute more than once per function activation,
     * i.e. it lies on a CFG cycle (computed as: some block reachable
     * from a successor of `b` reaches `b` again).
     */
    bool inCycle(ir::BlockId b) const { return in_cycle_[b]; }

  private:
    std::vector<std::vector<ir::BlockId>> succs_;
    std::vector<std::vector<ir::BlockId>> preds_;
    std::vector<bool> reachable_;
    std::vector<bool> in_cycle_;
    std::vector<ir::BlockId> rpo_;
    std::vector<size_t> rpo_index_;
};

} // namespace pibe::check

#endif // PIBE_CHECK_CFG_H_
