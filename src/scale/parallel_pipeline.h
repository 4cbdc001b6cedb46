/**
 * @file
 * Content digest of a module.
 *
 * moduleDigest() is what the Linux-scale tooling (`pibe scalebench`,
 * perfbench's linux-scale workload) records to prove that two builds
 * produced the same image. The header keeps its historical path
 * because the benchmark in perfbench/ includes it; it moves to a
 * better name together with the next change to the benchmark.
 */
#ifndef PIBE_SCALE_PARALLEL_PIPELINE_H_
#define PIBE_SCALE_PARALLEL_PIPELINE_H_

#include <string>

#include "ir/module.h"

namespace pibe::scale {

/**
 * Content digest of a module (32 hex chars): every function header,
 * instruction operand, global, and the site-id bound, streamed through
 * runtime::Digest in one walk — O(1) extra memory. Two modules with
 * equal digests are structurally identical for all pipeline purposes.
 */
std::string moduleDigest(const ir::Module& module);

} // namespace pibe::scale

#endif // PIBE_SCALE_PARALLEL_PIPELINE_H_
