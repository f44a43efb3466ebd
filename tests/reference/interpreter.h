// StreamLoader test-only reference: a tree-walking interpreter for the
// expression language.
//
// It walks the parsed syntax tree a BoundExpr keeps (BoundExpr::expr(),
// before bind-time constant folding) against the schema it was bound
// to. Node types come from the typing rules in expr/typecheck.h, and
// operators and calls evaluate through the shared expr/program.h
// helpers and the function registry. The compiled scalar program and
// the vectorized program are property-tested against it; because it
// never sees the folded tree, it checks bind-time folding too.

#ifndef STREAMLOADER_TESTS_REFERENCE_INTERPRETER_H_
#define STREAMLOADER_TESTS_REFERENCE_INTERPRETER_H_

#include "expr/eval.h"
#include "stt/tuple.h"
#include "util/result.h"

namespace sl::reference {

/// Evaluates `bound` on `tuple` (which must conform to the bound
/// schema) with BoundExpr::Eval's semantics: SQL nulls, Kleene and/or
/// with short circuit, domain errors as null, and per-tuple type errors
/// for attribute values that contradict the schema.
Result<stt::Value> Interpret(const expr::BoundExpr& bound,
                             const stt::Tuple& tuple);

}  // namespace sl::reference

#endif  // STREAMLOADER_TESTS_REFERENCE_INTERPRETER_H_
