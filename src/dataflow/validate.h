// StreamLoader: semantic validation of conceptual dataflows.
//
// "The user interface provides different checks in order to draw only
// dataflows that can be soundly translated in the DSN/SCN specification"
// (§3). The Validator performs those checks as a static-analysis pass:
// it resolves sources against the sensor registry, propagates schemas
// through every operation, type-checks all conditions/specifications
// (expr/typecheck), enforces the STT granularity-consistency constraints
// on composition, and lints for suspicious-but-deployable constructs
// (unreachable nodes, dead virtual properties, windows that silently
// drop data, constant predicates). Every finding carries a stable
// diagnostic code and, where the construct came from an expression, a
// byte-offset span into that expression for caret rendering.

#ifndef STREAMLOADER_DATAFLOW_VALIDATE_H_
#define STREAMLOADER_DATAFLOW_VALIDATE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dataflow/graph.h"
#include "diag/diagnostic.h"
#include "expr/eval.h"
#include "pubsub/broker.h"
#include "stt/schema.h"

namespace sl::dataflow {

/// \brief One finding of the checker.
struct Issue {
  enum class Severity { kError, kWarning };
  Severity severity = Severity::kError;
  diag::Code code = diag::Code::kNone;
  std::string node;     ///< offending node name ("" = whole dataflow)
  std::string message;
  diag::Span span;      ///< into `source` ({0,0} = no location)
  std::string source;   ///< the expression/spec text the span points into
  std::vector<std::string> notes;

  /// One-liner: "[error SL1001] f: unknown column 'wind'".
  std::string ToString() const;

  /// ToString plus a caret snippet into `source` and any notes.
  std::string Render() const;

  /// The diag-layer view of this issue (for JSON emission).
  diag::Diagnostic ToDiagnostic() const;
};

/// \brief What the check of one operation decided, and the only place
/// that decides it: ops::MakeOperator builds the operator from it and
/// sl-analyze reads it, so neither parses, binds or splits a spec again.
struct CheckedOp {
  /// The derived output schema.
  stt::SchemaPtr schema;
  /// The bound condition (filter, trigger), expression (transform),
  /// specification (virtual property) or predicate (join, over the
  /// joined schema); unbound for the other kinds.
  expr::BoundExpr expr;
  /// Transform: the index of the rewritten attribute.
  size_t attribute = 0;
  /// Join: the number of joined-schema columns the left input gives.
  size_t split = 0;
  /// Join: the predicate's equality conjuncts, the hash keys.
  std::vector<EquiConjunct> equi;
  /// Join with keys: the rest of the predicate, bound over the joined
  /// schema; unset when every conjunct is a key.
  std::optional<expr::BoundExpr> residual;
  /// Key-range columns per input (side-local for a join) when
  /// parallelism > 1; empty otherwise.
  std::vector<std::vector<size_t>> partition_cols;
};

/// \brief Outcome of validation: the issues found plus, for every node
/// whose inputs checked out, its derived output schema — exactly what
/// the design environment displays under the canvas — and, for every
/// operator whose check found no error, what the check bound.
struct ValidationReport {
  std::vector<Issue> issues;
  std::map<std::string, stt::SchemaPtr> schemas;
  std::map<std::string, CheckedOp> ops;

  /// True iff no error-severity issue was found (warnings allowed).
  bool ok() const;

  size_t error_count() const;
  size_t warning_count() const;

  /// Multi-line report (one line per issue).
  std::string ToString() const;

  /// Multi-line report with caret snippets where spans are available.
  std::string Render() const;
};

/// The first error among `issues` as a ValidationError status
/// ("[SL2011] message"); OK when there is none.
Status FirstError(const std::vector<Issue>& issues);

/// \brief The dataflow soundness checker.
class Validator {
 public:
  /// `broker` resolves source sensors and trigger targets; must outlive
  /// the validator.
  explicit Validator(const pubsub::Broker* broker) : broker_(broker) {}

  /// Runs all checks. The returned report contains every issue found
  /// (it does not stop at the first); a Status error is returned only on
  /// internal failures.
  Result<ValidationReport> Validate(const Dataflow& dataflow) const;

  /// \brief Checks one operation against its input schemas, appending
  /// coded issues (node names left empty) to `issues`. Each expression
  /// is parsed and walked once, and a join predicate split once. Returns
  /// what the check bound, which ops::MakeOperator builds from; an empty
  /// CheckedOp (null schema) when an error was found. `input_names`
  /// disambiguate join column collisions.
  static CheckedOp CheckOp(OpKind op, const OpSpec& spec,
                           const std::vector<stt::SchemaPtr>& inputs,
                           const std::vector<std::string>& input_names,
                           std::vector<Issue>* issues);

  /// \brief The output schema CheckOp derives, or its first error as a
  /// ValidationError status.
  static Result<stt::SchemaPtr> DeriveSchema(
      OpKind op, const OpSpec& spec,
      const std::vector<stt::SchemaPtr>& inputs,
      const std::vector<std::string>& input_names);

 private:
  const pubsub::Broker* broker_;
};

}  // namespace sl::dataflow

#endif  // STREAMLOADER_DATAFLOW_VALIDATE_H_
