// StreamLoader: vectorized evaluation of compiled expression programs.
//
// A VectorProgram executes the same flat postorder ExprProgram the
// scalar VM runs — but over a ColumnBatch, one instruction at a time as
// a tight loop over the selection vector instead of one tuple at a
// time. Numeric arithmetic and comparisons run over typed column
// vectors (SIMD-friendly, branch-free null masks); strings, geo points
// and function calls fall back to a boxed per-row loop through the
// *shared* semantic helpers (EvalArithOp / EvalCompareOp / EvalUnaryOp),
// so the evaluators (scalar VM, vectorized VM, reference interpreter) can
// never disagree on null propagation, domain errors or comparison
// quirks (NaN three-ways "equal", -0.0 == +0.0).
//
// Kleene short-circuits vectorize as selection narrowing: rows the left
// operand already decides receive the dominant bool and leave the
// active set; the right arm runs only over the undecided rows, and a
// divergence frame restores the active set at the merge target. A row
// that was decided therefore never observes the right arm's errors —
// exactly the scalar short-circuit contract.
//
// Per-tuple type errors stay per-tuple: a row whose attribute value
// contradicts the schema (or whose function call fails) is diverted to
// a RowError carrying the identical Status the scalar VM would have
// returned, and drops out of the batch; the remaining rows keep going.

#ifndef STREAMLOADER_EXPR_VECTOR_PROGRAM_H_
#define STREAMLOADER_EXPR_VECTOR_PROGRAM_H_

#include <vector>

#include "expr/program.h"
#include "stt/column_batch.h"

namespace sl::expr {

/// \brief Reusable vectorized evaluator for one compiled program.
///
/// Holds the register pool across calls, so steady-state evaluation
/// allocates nothing on the typed paths. One instance per operator;
/// not safe for concurrent calls (operators are single-threaded).
class VectorProgram {
 public:
  /// `program` must outlive this evaluator (operators own their
  /// BoundExpr, whose program the evaluator references).
  explicit VectorProgram(const ExprProgram* program) : program_(program) {}

  /// One row that failed with the per-tuple error the scalar VM would
  /// have surfaced. `row` indexes the batch's rows (not the selection).
  struct RowError {
    uint32_t row;
    Status status;
  };

  /// \brief Predicate evaluation over the batch's selected rows:
  /// narrows the selection in place to the rows where the result is
  /// non-null true (EvalPredicate semantics — null is false). Errored
  /// rows are appended to `errors` and removed. Returns non-OK only for
  /// whole-program failures (unbalanced stack), which a bound program
  /// never produces.
  Status RunPredicate(stt::ColumnBatch* batch, std::vector<RowError>* errors);

  /// \brief Value evaluation over the batch's selected rows: errored
  /// rows are removed from the selection (and reported), and `out`
  /// receives one result value per remaining selected row, aligned with
  /// the narrowed selection.
  Status RunValues(stt::ColumnBatch* batch, std::vector<stt::Value>* out,
                   std::vector<RowError>* errors);

 private:
  /// One vector register: a value per selection position, in exactly
  /// one representation. kNullReg is the statically-null register (a
  /// folded null literal) — no payload, every row null.
  struct VReg {
    enum class Kind : uint8_t { kI64, kF64, kB8, kBoxed, kNullReg };
    Kind kind = Kind::kNullReg;
    stt::ValueType etype = stt::ValueType::kNull;  ///< non-null element type
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<uint8_t> b8;
    std::vector<stt::Value> boxed;
    std::vector<uint8_t> null8;  ///< 1 = this row's value is null
  };

  /// Saved active set for one short-circuit divergence; restored when
  /// pc reaches `resume` (the instruction after the kLogicalMerge).
  struct Frame {
    uint32_t resume;
    std::vector<uint32_t> saved_active;
  };

  Status Run(stt::ColumnBatch* batch, std::vector<RowError>* errors);

  VReg& Push();
  void Pop() { --sp_; }
  VReg& Top() { return stack_[sp_ - 1]; }
  VReg& Under() { return stack_[sp_ - 2]; }

  /// Records the per-row failure and schedules the row's removal from
  /// the active set (performed by the caller's compaction pass).
  void RowFail(uint32_t pos, Status status, std::vector<RowError>* errors);

  /// Materializes one register element as a boxed value.
  stt::Value RegValue(const VReg& reg, uint32_t pos) const;

  /// Converts a logic operand register to b8 representation in place
  /// (no-op for b8; null-register and boxed-bool convert; anything else
  /// is an internal error for a bound program).
  Status ToB8(VReg* reg);

  void PushLiteral(const ExprInsn& in);
  Status PushAttr(const ExprInsn& in, stt::ColumnBatch* batch,
                  std::vector<RowError>* errors);
  void PushMeta(const ExprInsn& in, stt::ColumnBatch* batch);
  Status ApplyUnary(const ExprInsn& in);
  void ApplyArith(const ExprInsn& in);
  void ApplyCompare(const ExprInsn& in);
  Status ApplyCall(const ExprInsn& in, std::vector<RowError>* errors);

  /// Drops positions whose row has errored from `active_`.
  void CompactActive();

  const ExprProgram* program_;

  // Evaluation state (reused across calls; valid during Run only).
  std::vector<VReg> stack_;
  size_t sp_ = 0;
  std::vector<uint32_t> active_;
  std::vector<uint32_t> scratch_active_;
  std::vector<uint8_t> errored_;
  bool any_errored_ = false;
  std::vector<Frame> frames_;
  std::vector<stt::Value> args_;
  // Result scratch for kind-changing instructions (swapped into the
  // destination register; reused across calls).
  std::vector<double> res_f64_;
  std::vector<uint8_t> res_b8_;
  std::vector<stt::Value> res_boxed_;
  std::vector<uint8_t> res_null8_;
  const std::vector<uint32_t>* sel_ = nullptr;  ///< selection at entry
  size_t width_ = 0;
};

}  // namespace sl::expr

#endif  // STREAMLOADER_EXPR_VECTOR_PROGRAM_H_
