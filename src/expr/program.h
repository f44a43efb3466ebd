// StreamLoader: compiled expression programs.
//
// BoundExpr lowers its type-annotated tree into a flat postorder
// instruction array evaluated over a value stack — the single evaluator
// every non-blocking operator (filter, transform, virtual property) and
// the join residual run per tuple. A flat program touches one contiguous
// allocation instead of chasing child pointers, pre-folds literal
// subtrees at bind time, and implements Kleene and/or short-circuiting
// with forward jumps, so its observable semantics (results, null
// propagation, error surfacing order) are exactly those of a recursive
// walk of the unfolded tree (the test-only reference in tests/reference
// is one).
//
// The program evaluates against a *row*, not only a materialized tuple:
// a PairView presents a prospective (left, right) join pair as if it
// were the concatenated joined tuple, so a join can run its residual
// predicate without copying either side's values (the pair is
// materialized only on a match).

#ifndef STREAMLOADER_EXPR_PROGRAM_H_
#define STREAMLOADER_EXPR_PROGRAM_H_

#include <vector>

#include "diag/diagnostic.h"
#include "expr/ast.h"
#include "expr/functions.h"
#include "stt/schema.h"
#include "stt/tuple.h"

namespace sl::expr {

// ---------------------------------------------------------------------
// Shared evaluation semantics. The compiled program, the vectorized
// program (expr/vector_program.h) and the test-only reference
// interpreter all call these helpers, so the evaluators can never
// disagree on null propagation, numeric promotion, domain errors, or
// comparison rules.

/// int64 + - * % (the divisor of % must be non-zero). + - * wrap in
/// two's complement, keeping the low 64 bits of the exact result (what
/// x86 computes), and a % -1 is 0 for every a, INT64_MIN included (the
/// machine instruction traps there). SL4004 warns about possible
/// overflow at design time.
inline int64_t IntArith(BinaryOp op, int64_t a, int64_t b) {
  const uint64_t ua = static_cast<uint64_t>(a);
  const uint64_t ub = static_cast<uint64_t>(b);
  switch (op) {
    case BinaryOp::kAdd: return static_cast<int64_t>(ua + ub);
    case BinaryOp::kSub: return static_cast<int64_t>(ua - ub);
    case BinaryOp::kMul: return static_cast<int64_t>(ua * ub);
    default: return b == -1 ? 0 : a % b;  // kMod
  }
}

/// Unary - on int64, wrapping the same way: -INT64_MIN is INT64_MIN.
inline int64_t IntNeg(int64_t a) { return IntArith(BinaryOp::kSub, 0, a); }

/// Defense in depth on attribute access: a tuple value whose type does
/// not match the schema the expression was bound against (a misbehaving
/// sensor) is a per-tuple type error, not silently-ordered garbage.
Status CheckAttrValueType(const stt::Value& v, stt::ValueType declared);

/// Unary - / not over a non-null operand.
stt::Value EvalUnaryOp(UnaryOp op, const stt::Value& v);

/// + - * / % over non-null operands: string concatenation, timestamp
/// arithmetic, int arithmetic (except /), double fallback with
/// division/modulo by zero and non-finite results yielding null.
/// `result_type` is the static type the binder derived for the node.
stt::Value EvalArithOp(BinaryOp op, stt::ValueType result_type,
                       const stt::Value& l, const stt::Value& r);

/// == != < <= > >= over non-null operands (numerics compare across
/// int/double through double).
stt::Value EvalCompareOp(BinaryOp op, const stt::Value& l,
                         const stt::Value& r);

// ---------------------------------------------------------------------
// Pair view.

/// \brief Zero-copy view of a prospective joined tuple: the first
/// `split` attributes read from `left`, the rest from `right`, and the
/// metadata pseudo-attributes mirror exactly what the materialized
/// joined tuple would carry (ts = the pre-truncated pair time, location
/// = left's if present else right's, sensor = "", theme = the output
/// schema's). Evaluating a predicate over a PairView is
/// indistinguishable from materializing the concatenated tuple first.
struct PairView {
  const stt::Tuple* left = nullptr;
  const stt::Tuple* right = nullptr;
  size_t split = 0;           ///< number of attributes taken from `left`
  Timestamp ts = 0;           ///< pair event time, already granule-truncated
  const stt::Schema* schema = nullptr;  ///< joined output schema ($theme)
};

// ---------------------------------------------------------------------
// The instruction set.

/// One instruction of a compiled expression program. Postorder: operand
/// instructions push onto the value stack, operator instructions pop
/// their operands and push one result.
struct ExprInsn {
  enum class Op : uint8_t {
    kPushLiteral,   ///< push `literal`
    kPushAttr,      ///< push row attribute `index` (type-checked)
    kPushMeta,      ///< push metadata pseudo-attribute `meta`
    kUnary,         ///< pop v, push uop(v) (null -> null)
    kArith,         ///< pop r, l; push l bop r (null -> null)
    kCompare,       ///< pop r, l; push l bop r (null -> null)
    kShortCircuit,  ///< peek top; if it decides the and/or, replace it
                    ///< with the dominant bool and jump to `jump`
    kLogicalMerge,  ///< pop r, l; push the Kleene and/or combination
    kCall,          ///< pop `index` args, push fn(args)
  };

  Op op = Op::kPushLiteral;
  stt::ValueType type = stt::ValueType::kNull;  ///< static result type
  stt::Value literal;                           ///< kPushLiteral
  uint32_t index = 0;     ///< kPushAttr: attribute; kCall: argument count
  MetaAttr meta = MetaAttr::kTimestamp;         ///< kPushMeta
  UnaryOp uop = UnaryOp::kNeg;                  ///< kUnary
  BinaryOp bop = BinaryOp::kAdd;                ///< kArith/kCompare/logical
  const FunctionDef* fn = nullptr;              ///< kCall
  uint32_t jump = 0;      ///< kShortCircuit: target instruction index
  /// Source span of the AST node this instruction was lowered from
  /// (expression-relative byte offsets). Never read on the evaluation
  /// hot path; carried for static analysis so sl-analyze can point a
  /// caret at, e.g., the divisor of a provable division by zero.
  diag::Span span;
};

/// \brief A compiled (flattened) expression. Built by BoundExpr at bind
/// time; immutable afterwards and safe to share across evaluations
/// (evaluation state lives on a per-call stack segment, so re-entrant
/// evaluation — an operator emitting into a downstream operator that
/// evaluates its own expression — is safe).
class ExprProgram {
 public:
  std::vector<ExprInsn>& insns() { return insns_; }
  const std::vector<ExprInsn>& insns() const { return insns_; }
  bool empty() const { return insns_.empty(); }

  /// Evaluates against a materialized tuple.
  Result<stt::Value> Run(const stt::Tuple& t) const;

  /// Evaluates against a prospective join pair without materializing it.
  Result<stt::Value> RunPair(const PairView& pair) const;

 private:
  std::vector<ExprInsn> insns_;
};

}  // namespace sl::expr

#endif  // STREAMLOADER_EXPR_PROGRAM_H_
