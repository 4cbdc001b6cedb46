/**
 * @file
 * Structured findings of the checker suite.
 *
 * Every checker emits Diagnostics rather than strings so that
 * consumers can filter by id/severity, attribute findings to pipeline
 * passes, reconcile counts, and render either human-readable text or
 * machine-readable JSON (`pibe check --json`).
 */
#ifndef PIBE_CHECK_DIAGNOSTIC_H_
#define PIBE_CHECK_DIAGNOSTIC_H_

#include <string>
#include <vector>

#include "ir/module.h"

namespace pibe::check {

enum class Severity : uint8_t {
    kNote,    ///< Informational; never fails a check run.
    kWarning, ///< Suspicious but semantically defined (lints).
    kError,   ///< Violated invariant; the image must not ship.
};

const char* severityName(Severity s);

/** One finding. */
struct Diagnostic
{
    /** Stable dotted id, e.g. "coverage.fwd-missing". */
    std::string check_id;
    Severity severity = Severity::kError;

    /** Pipeline pass that introduced the finding ("" outside the
     *  pass sandwich). */
    std::string pass;

    /** Location. func == kInvalidFunc means module scope; inst < 0
     *  means block scope. */
    ir::FuncId func = ir::kInvalidFunc;
    std::string func_name;
    ir::BlockId block = 0;
    int32_t inst = -1;
    ir::SiteId site = ir::kNoSite;

    std::string message;
    /** Optional remediation hint. */
    std::string hint;

    /** "error[coverage.fwd-missing] sys_read bb2[3] (site 17): ..." */
    std::string render() const;

    /** One JSON object (stable key order, escaped strings). */
    std::string renderJson() const;
};

/** Count of diagnostics at exactly `s`. */
size_t countSeverity(const std::vector<Diagnostic>& diags, Severity s);

/**
 * Sort diagnostics into the canonical emission order: (function,
 * block, instruction, check id, site, message), module-scoped
 * findings last. Checkers emit group by group, in whatever order they
 * traverse; sorting at the output boundary makes `pibe check --json`
 * and sandwich reports diff cleanly. Stable, so equal-keyed findings
 * keep their emission order.
 */
void sortDiagnostics(std::vector<Diagnostic>& diags);

/** Render one diagnostic per line. */
std::string renderText(const std::vector<Diagnostic>& diags);

/** Render a JSON array of diagnostic objects. */
std::string renderJson(const std::vector<Diagnostic>& diags);

} // namespace pibe::check

#endif // PIBE_CHECK_DIAGNOSTIC_H_
