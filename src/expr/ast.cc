#include "expr/ast.h"

#include <algorithm>

#include "util/strings.h"

namespace sl::expr {

const char* MetaAttrToString(MetaAttr m) {
  switch (m) {
    case MetaAttr::kTimestamp: return "ts";
    case MetaAttr::kLat: return "lat";
    case MetaAttr::kLon: return "lon";
    case MetaAttr::kSensor: return "sensor";
    case MetaAttr::kTheme: return "theme";
  }
  return "?";
}

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "and";
    case BinaryOp::kOr: return "or";
  }
  return "?";
}

std::string LiteralExpr::ToString() const {
  if (value_.type() == stt::ValueType::kString) {
    return QuoteString(value_.AsString());
  }
  if (value_.type() == stt::ValueType::kTimestamp) {
    return "time(" + QuoteString(FormatTimestamp(value_.AsTime())) + ")";
  }
  if (value_.type() == stt::ValueType::kGeoPoint) {
    const auto& p = value_.AsGeo();
    return StrFormat("point(%.10g, %.10g)", p.lat, p.lon);
  }
  return value_.ToString();
}

std::string MetaExpr::ToString() const {
  return std::string("$") + MetaAttrToString(attr_);
}

std::string UnaryExpr::ToString() const {
  std::string out = op_ == UnaryOp::kNot ? "(not " : "(-";
  out += operand_->ToString();
  out += ')';
  return out;
}

std::string BinaryExpr::ToString() const {
  std::string out = "(";
  out += left_->ToString();
  out += ' ';
  out += BinaryOpToString(op_);
  out += ' ';
  out += right_->ToString();
  out += ')';
  return out;
}

std::string CallExpr::ToString() const {
  std::string out = name_ + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  out += ")";
  return out;
}

namespace {
void CollectAttrs(const ExprPtr& expr, std::vector<std::string>* out) {
  switch (expr->kind()) {
    case ExprKind::kAttr: {
      const auto& name = static_cast<const AttrExpr&>(*expr).name();
      if (std::find(out->begin(), out->end(), name) == out->end()) {
        out->push_back(name);
      }
      break;
    }
    case ExprKind::kUnary:
      CollectAttrs(static_cast<const UnaryExpr&>(*expr).operand(), out);
      break;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(*expr);
      CollectAttrs(b.left(), out);
      CollectAttrs(b.right(), out);
      break;
    }
    case ExprKind::kCall:
      for (const auto& a : static_cast<const CallExpr&>(*expr).args()) {
        CollectAttrs(a, out);
      }
      break;
    case ExprKind::kLiteral:
    case ExprKind::kMeta:
      break;
  }
}
}  // namespace

std::vector<std::string> ReferencedAttributes(const ExprPtr& expr) {
  std::vector<std::string> out;
  if (expr != nullptr) CollectAttrs(expr, &out);
  return out;
}

}  // namespace sl::expr
