#include "expr/eval.h"

#include <cmath>

#include "expr/parser.h"
#include "expr/typecheck.h"
#include "util/strings.h"

namespace sl::expr {

using stt::Value;
using stt::ValueType;

namespace {

/// One node of the bound (type-annotated, index-resolved) tree. It
/// lives only while Bind folds and lowers it into the program.
struct Node {
  ExprKind kind;
  ValueType type = ValueType::kNull;
  // kLiteral
  Value literal;
  // kAttr
  size_t attr_index = 0;
  // kMeta
  MetaAttr meta = MetaAttr::kTimestamp;
  // kUnary / kBinary
  UnaryOp uop = UnaryOp::kNeg;
  BinaryOp bop = BinaryOp::kAdd;
  // kCall
  const FunctionDef* fn = nullptr;
  std::vector<Node> children;
  /// Source span of the AST node (expression-relative); survives
  /// constant folding so a folded literal still points at its origin.
  diag::Span span;
};

void Lower(const Node& node, ExprProgram* program);

}  // namespace

// The typing rules themselves live in expr/typecheck.{h,cc}, shared
// with the static analyzer so binding and linting can never disagree.

Result<BoundExpr> BoundExpr::Bind(ExprPtr expr, stt::SchemaPtr schema) {
  if (expr == nullptr) return Status::InvalidArgument("null expression");
  if (schema == nullptr) return Status::InvalidArgument("null schema");

  // Recursive binder building the bound tree bottom-up. Literal
  // subtrees are folded in place (the typecheck folders, so binding and
  // linting agree); folding is attempted only when every operand is
  // itself a literal — literals cannot raise per-tuple errors, so the
  // rewrite can never hide an error evaluation would surface.
  struct Binder {
    const stt::Schema& schema;

    static bool IsLit(const Node& n) { return n.kind == ExprKind::kLiteral; }

    /// Rewrites `node` into a literal holding `folded`, keeping the
    /// statically derived type (a null fold result must not widen the
    /// parent's typing).
    static Node FoldTo(Node node, Value folded) {
      node.kind = ExprKind::kLiteral;
      node.literal = std::move(folded);
      node.children.clear();
      return node;
    }

    Result<Node> Build(const Expr& e) {
      Node node;
      node.kind = e.kind();
      node.span = e.span();
      switch (e.kind()) {
        case ExprKind::kLiteral: {
          node.literal = static_cast<const LiteralExpr&>(e).value();
          node.type = node.literal.type();
          return node;
        }
        case ExprKind::kAttr: {
          const auto& attr = static_cast<const AttrExpr&>(e);
          SL_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(attr.name()));
          node.attr_index = idx;
          node.type = schema.fields()[idx].type;
          return node;
        }
        case ExprKind::kMeta: {
          node.meta = static_cast<const MetaExpr&>(e).attr();
          node.type = MetaAttrType(node.meta);
          return node;
        }
        case ExprKind::kUnary: {
          const auto& u = static_cast<const UnaryExpr&>(e);
          SL_ASSIGN_OR_RETURN(Node child, Build(*u.operand()));
          node.uop = u.op();
          SL_ASSIGN_OR_RETURN(node.type, UnaryResultType(u.op(), child.type));
          if (IsLit(child)) {
            if (auto folded = FoldUnary(u.op(), child.literal)) {
              return FoldTo(std::move(node), std::move(*folded));
            }
          }
          node.children.push_back(std::move(child));
          return node;
        }
        case ExprKind::kBinary: {
          const auto& b = static_cast<const BinaryExpr&>(e);
          SL_ASSIGN_OR_RETURN(Node left, Build(*b.left()));
          SL_ASSIGN_OR_RETURN(Node right, Build(*b.right()));
          node.bop = b.op();
          switch (b.op()) {
            case BinaryOp::kAdd: case BinaryOp::kSub: case BinaryOp::kMul:
            case BinaryOp::kDiv: case BinaryOp::kMod: {
              SL_ASSIGN_OR_RETURN(
                  node.type,
                  ArithmeticResultType(b.op(), left.type, right.type));
              break;
            }
            case BinaryOp::kEq: case BinaryOp::kNe: case BinaryOp::kLt:
            case BinaryOp::kLe: case BinaryOp::kGt: case BinaryOp::kGe: {
              SL_ASSIGN_OR_RETURN(
                  node.type,
                  ComparisonResultType(b.op(), left.type, right.type));
              break;
            }
            case BinaryOp::kAnd: case BinaryOp::kOr: {
              SL_ASSIGN_OR_RETURN(
                  node.type,
                  LogicalResultType(b.op(), left.type, right.type));
              break;
            }
          }
          if (IsLit(left) && IsLit(right)) {
            std::optional<Value> folded;
            switch (b.op()) {
              case BinaryOp::kAdd: case BinaryOp::kSub: case BinaryOp::kMul:
              case BinaryOp::kDiv: case BinaryOp::kMod:
                folded = FoldArithmetic(b.op(), node.type, left.literal,
                                        right.literal);
                break;
              case BinaryOp::kEq: case BinaryOp::kNe: case BinaryOp::kLt:
              case BinaryOp::kLe: case BinaryOp::kGt: case BinaryOp::kGe:
                folded = FoldComparison(b.op(), left.literal, right.literal);
                break;
              case BinaryOp::kAnd: case BinaryOp::kOr:
                folded = FoldLogical(b.op(), left.literal, right.literal);
                break;
            }
            if (folded.has_value()) {
              return FoldTo(std::move(node), std::move(*folded));
            }
          }
          node.children.push_back(std::move(left));
          node.children.push_back(std::move(right));
          return node;
        }
        case ExprKind::kCall: {
          const auto& c = static_cast<const CallExpr&>(e);
          SL_ASSIGN_OR_RETURN(const FunctionDef* fn,
                              FunctionRegistry::Global().Find(c.name()));
          if (c.args().size() < fn->min_args ||
              c.args().size() > fn->max_args) {
            return Status::TypeError(StrFormat(
                "%s expects %zu..%zu arguments, got %zu  [%s]",
                fn->name.c_str(), fn->min_args,
                fn->max_args == SIZE_MAX ? c.args().size() : fn->max_args,
                c.args().size(), fn->signature.c_str()));
          }
          std::vector<ValueType> arg_types;
          for (const auto& arg : c.args()) {
            SL_ASSIGN_OR_RETURN(Node child, Build(*arg));
            arg_types.push_back(child.type);
            node.children.push_back(std::move(child));
          }
          SL_ASSIGN_OR_RETURN(node.type, fn->check(arg_types));
          node.fn = fn;
          return node;
        }
      }
      return Status::Internal("unreachable expression kind");
    }
  };

  Binder binder{*schema};
  SL_ASSIGN_OR_RETURN(Node root, binder.Build(*expr));

  BoundExpr bound;
  bound.expr_ = std::move(expr);
  bound.schema_ = std::move(schema);
  bound.type_ = root.type;
  Lower(root, &bound.program_);
  return bound;
}

namespace {

/// Lowers the bound tree into postorder: operands first, then the
/// operator instruction. and/or compile to
///   <left>  ShortCircuit(->end)  <right>  LogicalMerge  end:
/// which keeps the short circuit (the right operand — and any error it
/// would surface — is only reached when the left did not decide) and
/// the Kleene merge.
void Lower(const Node& node, ExprProgram* program) {
  std::vector<ExprInsn>& insns = program->insns();
  ExprInsn insn;
  insn.type = node.type;
  insn.span = node.span;
  switch (node.kind) {
    case ExprKind::kLiteral:
      insn.op = ExprInsn::Op::kPushLiteral;
      insn.literal = node.literal;
      insns.push_back(std::move(insn));
      return;
    case ExprKind::kAttr:
      insn.op = ExprInsn::Op::kPushAttr;
      insn.index = static_cast<uint32_t>(node.attr_index);
      insns.push_back(std::move(insn));
      return;
    case ExprKind::kMeta:
      insn.op = ExprInsn::Op::kPushMeta;
      insn.meta = node.meta;
      insns.push_back(std::move(insn));
      return;
    case ExprKind::kUnary:
      Lower(node.children[0], program);
      insn.op = ExprInsn::Op::kUnary;
      insn.uop = node.uop;
      insns.push_back(std::move(insn));
      return;
    case ExprKind::kBinary: {
      if (node.bop == BinaryOp::kAnd || node.bop == BinaryOp::kOr) {
        Lower(node.children[0], program);
        size_t sc = insns.size();
        ExprInsn jump;
        jump.op = ExprInsn::Op::kShortCircuit;
        jump.type = node.type;
        jump.bop = node.bop;
        jump.span = node.span;
        insns.push_back(std::move(jump));
        Lower(node.children[1], program);
        insn.op = ExprInsn::Op::kLogicalMerge;
        insn.bop = node.bop;
        insns.push_back(std::move(insn));
        insns[sc].jump = static_cast<uint32_t>(insns.size());
        return;
      }
      Lower(node.children[0], program);
      Lower(node.children[1], program);
      switch (node.bop) {
        case BinaryOp::kAdd: case BinaryOp::kSub: case BinaryOp::kMul:
        case BinaryOp::kDiv: case BinaryOp::kMod:
          insn.op = ExprInsn::Op::kArith;
          break;
        default:
          insn.op = ExprInsn::Op::kCompare;
          break;
      }
      insn.bop = node.bop;
      insns.push_back(std::move(insn));
      return;
    }
    case ExprKind::kCall:
      for (const Node& child : node.children) Lower(child, program);
      insn.op = ExprInsn::Op::kCall;
      insn.index = static_cast<uint32_t>(node.children.size());
      insn.fn = node.fn;
      insns.push_back(std::move(insn));
      return;
  }
}

}  // namespace

Result<BoundExpr> BoundExpr::Parse(const std::string& source,
                                   stt::SchemaPtr schema) {
  SL_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpression(source));
  return Bind(std::move(expr), std::move(schema));
}

Result<Value> BoundExpr::Eval(const stt::Tuple& tuple) const {
  if (!bound()) {
    return Status::FailedPrecondition("expression not bound");
  }
  return program_.Run(tuple);
}

Result<Value> BoundExpr::EvalPair(const PairView& pair) const {
  if (!bound()) {
    return Status::FailedPrecondition("expression not bound");
  }
  return program_.RunPair(pair);
}

Result<bool> BoundExpr::AsPredicate(Result<Value> value) const {
  if (type_ != ValueType::kBool && type_ != ValueType::kNull) {
    return Status::TypeError(
        StrFormat("condition has type %s, expected bool",
                  stt::ValueTypeToString(type_)));
  }
  SL_ASSIGN_OR_RETURN(Value v, std::move(value));
  if (v.is_null()) return false;
  if (v.type() != ValueType::kBool) {
    return Status::Internal("predicate evaluated to non-bool");
  }
  return v.AsBool();
}

Result<bool> BoundExpr::EvalPredicate(const stt::Tuple& tuple) const {
  return AsPredicate(Eval(tuple));
}

Result<bool> BoundExpr::EvalPredicatePair(const PairView& pair) const {
  return AsPredicate(EvalPair(pair));
}

}  // namespace sl::expr
