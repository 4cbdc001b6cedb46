/**
 * @file
 * Textual dump of PIR functions and modules, for debugging and for
 * golden tests of transformation passes.
 */
#ifndef PIBE_IR_PRINTER_H_
#define PIBE_IR_PRINTER_H_

#include <string>

#include "ir/module.h"

namespace pibe::ir {

/** Render one instruction of `func`, e.g.
 *  "r3 = call @foo(r1, r2) !site 17". */
std::string printInstruction(const Module& module, const Function& func,
                             const Instruction& inst);

/** Render a function with block labels. */
std::string printFunction(const Module& module, const Function& func);

/** Render all globals and functions of a module. */
std::string printModule(const Module& module);

/** Human-readable scheme names (for tables and dumps). */
const char* fwdSchemeName(FwdScheme scheme);
const char* retSchemeName(RetScheme scheme);
const char* binKindName(BinKind kind);
const char* opcodeName(Opcode op);

} // namespace pibe::ir

#endif // PIBE_IR_PRINTER_H_
