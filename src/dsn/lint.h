// StreamLoader: whole-program linting of DSN documents (sl-lint).
//
// Runs the full static-analysis stack over one DSN source text: lexing
// and parsing (SL0xxx), lifting to a conceptual dataflow, then the
// Validator's type/granularity/graph checks (SL1xxx/SL2xxx/SL3xxx),
// and — when requested — the sl-analyze abstract interpretation pass
// (SL4xxx, with per-edge inferred value facts). Expression-relative
// spans reported by the validator and the analyzer are re-anchored into
// the DSN document via the property-value spans the parser records, so
// every caret points at the offending bytes of the file the user
// actually wrote.

#ifndef STREAMLOADER_DSN_LINT_H_
#define STREAMLOADER_DSN_LINT_H_

#include <optional>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "diag/diagnostic.h"
#include "pubsub/broker.h"

namespace sl::dsn {

/// \brief Knobs for LintDsnProgram.
struct LintOptions {
  /// Also run the whole-pipeline abstract interpretation (SL4xxx) and
  /// export its per-edge facts. Runs only when the program has no
  /// error-severity findings (the analysis needs validated schemas).
  bool analyze = false;
};

/// \brief Outcome of linting one DSN document.
struct LintResult {
  /// All findings, sorted by position; sources/spans refer to the
  /// document (falling back to the raw expression text when a construct
  /// cannot be located in it).
  std::vector<diag::Diagnostic> diags;

  /// The abstract-interpretation result (per-edge inferred facts);
  /// engaged only when LintOptions::analyze was set and the program
  /// reached the analysis stage. Its diagnostics are already merged
  /// into `diags`.
  std::optional<analyze::Analysis> analysis;

  /// True iff no error-severity diagnostic was produced.
  bool ok() const { return !diag::HasErrors(diags); }
};

/// \brief Lints `source` end to end. `broker` resolves sensors and
/// trigger targets; pass nullptr to lint without a registry (source
/// resolution then reports SL2002).
LintResult LintDsnProgram(const std::string& source,
                          const pubsub::Broker* broker,
                          const LintOptions& options = {});

/// \brief Process exit codes of the sl_lint CLI, derived from a lint
/// run's findings. Kept here (not in the tool) so lint_test can pin
/// them as a contract.
enum class LintExit : int {
  kClean = 0,         ///< no findings, or only unpromoted warnings
  kFindings = 1,      ///< at least one error-severity lint finding
  kUsage = 2,         ///< bad invocation / unreadable input (CLI only)
  kParseFailure = 3,  ///< the document did not parse (any SL00xx error)
  kWerror = 4,        ///< warnings only, promoted to failure by --werror
};

/// The exit code a lint run over `diags` maps to. Parse failures
/// (SL00xx errors) dominate other errors; `werror` promotes a
/// warnings-only outcome to kWerror.
LintExit ExitCodeFor(const std::vector<diag::Diagnostic>& diags, bool werror);

}  // namespace sl::dsn

#endif  // STREAMLOADER_DSN_LINT_H_
