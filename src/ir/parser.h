/**
 * @file
 * Textual PIR parser — the inverse of printer.h.
 *
 * parseModule(printModule(m)) reconstructs a module equivalent to `m`
 * (same globals incl. initializers, same functions/blocks/instructions,
 * same attributes, schemes, asm flags, and site ids). This is what
 * makes PIR a complete offline toolkit: kernels, intermediate images,
 * and test cases can be dumped, inspected, edited, and reloaded — the
 * role LLVM's .ll text format plays for the original system.
 */
#ifndef PIBE_IR_PARSER_H_
#define PIBE_IR_PARSER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "ir/module.h"

namespace pibe::ir {

/** The most slots a PIR text may declare for one global. Larger sizes
 *  are parse errors, so a hostile text cannot demand unbounded memory
 *  (the default kernel's largest global has 131072 slots). */
inline constexpr int64_t kMaxGlobalSlots = int64_t{1} << 24;

/** The outcome of tryParseModule(): a module or a parse error. */
struct ParseResult
{
    std::optional<Module> module; ///< Engaged iff the text parsed.
    /** Otherwise "PIR parse error at line N: <what> near '<text>'". */
    std::string error;
    /** The parse's work: its parallel sweeps' busy time, summed over
     *  every thread, plus its serial steps. Its span is the wall time
     *  of the call. */
    double work_ms = 0;
};

/**
 * Parse the textual module format produced by printModule(), reading
 * `text` in place. Malformed input is returned as an error value,
 * never a crash or an exit, so long-running processes can answer it;
 * with several errors it is the first in line order among the `global`
 * and `func` header lines if any fails, else the first in the bodies.
 * Large texts are parsed on runtime::parallelFor; the result does not
 * depend on how many threads took part.
 */
ParseResult tryParseModule(std::string_view text);

/**
 * tryParseModule() for callers that cannot continue without the
 * module: fatal (PIBE_FATAL) with the same message on malformed input.
 */
Module parseModule(std::string_view text);

} // namespace pibe::ir

#endif // PIBE_IR_PARSER_H_
