/**
 * @file
 * Jump-table lowering (§5.1).
 *
 * Compilers lower dense switches to bounds-checked indexed jumps
 * (jump tables); the indexed jump is an indirect branch whose bounds
 * check transient execution can bypass. When any transient defense is
 * enabled, LLVM disables jump-table generation — and so does PIBE. We
 * model that by rewriting kSwitch terminators into trees of compares
 * and conditional branches. Switches flagged `is_asm` (hand-written
 * assembly dispatch) cannot be rewritten and remain vulnerable
 * indirect jumps (the "Vuln. IJumps" row of Table 11).
 */
#ifndef PIBE_OPT_JUMP_TABLES_H_
#define PIBE_OPT_JUMP_TABLES_H_

#include <cstdint>

#include "ir/module.h"

namespace pibe::opt {

/**
 * Lower all non-asm kSwitch terminators in `module` to compare trees
 * (linear chains for <= `linear_limit` cases, balanced binary search
 * trees above). Returns the number of switches lowered.
 */
uint32_t lowerJumpTables(ir::Module& module, uint32_t linear_limit = 4);

/**
 * Lower the non-asm kSwitch terminators of a single function. The
 * rewrite only ever touches `f` (new blocks/registers are appended to
 * it). Returns the number of switches lowered in `f`.
 */
uint32_t lowerJumpTablesInFunction(ir::Function& f,
                                   uint32_t linear_limit = 4);

/** Count kSwitch terminators remaining in the module. */
uint32_t countSwitches(const ir::Module& module);

} // namespace pibe::opt

#endif // PIBE_OPT_JUMP_TABLES_H_
