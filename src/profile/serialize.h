/**
 * @file
 * Profile serialization and lifting.
 *
 * The paper's profiler emits a binary-level profile which is then
 * "lifted" to an LLVM-IR-friendly form: indirect targets are recorded
 * by *function name* (recovered from the binary address) so counts can
 * be remapped onto the IR of a later build even if function numbering
 * changed (§7, "Kernel Profiling"). We mirror that: the on-disk format
 * names targets and functions symbolically, and lifting resolves names
 * against the destination module, warning about (and dropping) edges
 * that no longer resolve.
 */
#ifndef PIBE_PROFILE_SERIALIZE_H_
#define PIBE_PROFILE_SERIALIZE_H_

#include <optional>
#include <string>

#include "profile/edge_profile.h"

namespace pibe::profile {

/**
 * Serialize `profile` (collected on `module`) to the textual exchange
 * format. Indirect targets and invocation counts are written by
 * function name.
 */
std::string serializeProfile(const ir::Module& module,
                             const EdgeProfile& profile);

/** The outcome of tryLiftProfile(): a profile or why the text is bad. */
struct LiftResult
{
    std::optional<EdgeProfile> profile; ///< Engaged iff the text lifted.
    /** Otherwise "bad profile header: ...", "bad profile line N: ..."
     *  or "bad profile record kind ...". */
    std::string error;
    size_t dropped = 0; ///< Entries whose names did not resolve.
};

/**
 * Parse the textual format and lift it onto `module`. Entries whose
 * function names do not resolve in `module` are dropped and counted.
 * Malformed input is an error value, never a crash or an exit.
 */
LiftResult tryLiftProfile(const ir::Module& module,
                          const std::string& text);

/**
 * tryLiftProfile() for callers that cannot continue without the
 * profile: fatal (PIBE_FATAL) with the same message on malformed
 * input. The drop count is returned via `dropped`, if non-null.
 */
EdgeProfile liftProfile(const ir::Module& module, const std::string& text,
                        size_t* dropped = nullptr);

} // namespace pibe::profile

#endif // PIBE_PROFILE_SERIALIZE_H_
