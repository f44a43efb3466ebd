// StreamLoader: abstract syntax of the condition / specification language.
//
// Filter conditions, join predicates, trigger conditions, virtual-property
// specifications and transform expressions (§2, Table 1) are all written
// in one small expression language over the attributes of a stream's
// schema plus the STT metadata pseudo-attributes $ts, $lat, $lon, $sensor
// and $theme.

#ifndef STREAMLOADER_EXPR_AST_H_
#define STREAMLOADER_EXPR_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "diag/diagnostic.h"
#include "stt/value.h"

namespace sl::expr {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Node kind discriminator.
enum class ExprKind {
  kLiteral,
  kAttr,
  kMeta,
  kUnary,
  kBinary,
  kCall,
};

/// STT metadata pseudo-attributes.
enum class MetaAttr {
  kTimestamp,  ///< $ts : timestamp
  kLat,        ///< $lat : double (null when the tuple has no location)
  kLon,        ///< $lon : double (null when the tuple has no location)
  kSensor,     ///< $sensor : string
  kTheme,      ///< $theme : string (the stream theme)
};

const char* MetaAttrToString(MetaAttr m);

enum class UnaryOp { kNeg, kNot };
enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

const char* BinaryOpToString(BinaryOp op);

/// \brief Immutable expression tree node.
class Expr {
 public:
  virtual ~Expr() = default;
  ExprKind kind() const { return kind_; }

  /// Byte range of the node in the text it was parsed from ({0,0} for
  /// synthesized nodes). Set once by the parser before the node is
  /// shared as `ExprPtr` (const), then immutable like the rest.
  const diag::Span& span() const { return span_; }
  void set_span(diag::Span span) { span_ = span; }

  /// Source form, normalized (fully parenthesized where precedence is not
  /// obvious). Parsing the result reproduces an equivalent tree.
  virtual std::string ToString() const = 0;

 protected:
  explicit Expr(ExprKind kind) : kind_(kind) {}

 private:
  ExprKind kind_;
  diag::Span span_;
};

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(stt::Value value)
      : Expr(ExprKind::kLiteral), value_(std::move(value)) {}
  const stt::Value& value() const { return value_; }
  std::string ToString() const override;

 private:
  stt::Value value_;
};

class AttrExpr : public Expr {
 public:
  explicit AttrExpr(std::string name)
      : Expr(ExprKind::kAttr), name_(std::move(name)) {}
  const std::string& name() const { return name_; }
  std::string ToString() const override { return name_; }

 private:
  std::string name_;
};

class MetaExpr : public Expr {
 public:
  explicit MetaExpr(MetaAttr attr) : Expr(ExprKind::kMeta), attr_(attr) {}
  MetaAttr attr() const { return attr_; }
  std::string ToString() const override;

 private:
  MetaAttr attr_;
};

class UnaryExpr : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : Expr(ExprKind::kUnary), op_(op), operand_(std::move(operand)) {}
  UnaryOp op() const { return op_; }
  const ExprPtr& operand() const { return operand_; }
  std::string ToString() const override;

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kBinary),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}
  BinaryOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  std::string ToString() const override;

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class CallExpr : public Expr {
 public:
  CallExpr(std::string name, std::vector<ExprPtr> args)
      : Expr(ExprKind::kCall), name_(std::move(name)), args_(std::move(args)) {}
  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }
  std::string ToString() const override;

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
};

/// \brief Collects the plain attribute names referenced by `expr`
/// (deduplicated, in first-occurrence order). Used by the dataflow
/// checker to verify conditions against upstream schemas.
std::vector<std::string> ReferencedAttributes(const ExprPtr& expr);

}  // namespace sl::expr

#endif  // STREAMLOADER_EXPR_AST_H_
