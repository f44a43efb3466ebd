#include "pubsub/registry_text.h"

#include "expr/lexer.h"
#include "stt/granularity.h"
#include "stt/schema_text.h"
#include "util/strings.h"

namespace sl::pubsub {

namespace {

using expr::Token;
using expr::TokenKind;

class RegistryParser : public expr::TokenCursor {
 public:
  using TokenCursor::TokenCursor;

  Result<std::vector<SensorInfo>> Parse() {
    std::vector<SensorInfo> sensors;
    while (Peek().kind != TokenKind::kEnd) {
      SL_ASSIGN_OR_RETURN(SensorInfo info, ParseSensor());
      sensors.push_back(std::move(info));
    }
    return sensors;
  }

 private:
  Result<SensorInfo> ParseSensor() {
    SL_RETURN_IF_ERROR(ExpectKeyword("sensor"));
    SensorInfo info;
    SL_ASSIGN_OR_RETURN(info.id, ExpectString());
    SL_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    bool has_schema = false;
    while (Peek().kind != TokenKind::kRBrace) {
      SL_ASSIGN_OR_RETURN(std::string key, ExpectIdent());
      SL_RETURN_IF_ERROR(Expect(TokenKind::kColon));
      if (key == "type") {
        SL_ASSIGN_OR_RETURN(info.type, ExpectString());
      } else if (key == "period") {
        SL_ASSIGN_OR_RETURN(std::string text, ExpectString());
        if (!ParseDuration(text, &info.period)) {
          return Error("cannot parse period '" + text + "'");
        }
      } else if (key == "schema") {
        SL_ASSIGN_OR_RETURN(std::string text, ExpectString());
        SL_ASSIGN_OR_RETURN(info.schema, stt::ParseSchemaText(text));
        has_schema = true;
      } else if (key == "location") {
        SL_ASSIGN_OR_RETURN(double lat, ExpectNumber());
        SL_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        SL_ASSIGN_OR_RETURN(double lon, ExpectNumber());
        info.location = stt::GeoPoint{lat, lon};
      } else if (key == "node") {
        SL_ASSIGN_OR_RETURN(info.node_id, ExpectString());
      } else if (key == "owner") {
        SL_ASSIGN_OR_RETURN(info.owner, ExpectString());
      } else if (key == "provides_timestamp") {
        SL_ASSIGN_OR_RETURN(info.provides_timestamp, ExpectBool());
      } else if (key == "provides_location") {
        SL_ASSIGN_OR_RETURN(info.provides_location, ExpectBool());
      } else if (key == "range") {
        PropertyRange range;
        SL_ASSIGN_OR_RETURN(range.property, ExpectIdent());
        SL_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        SL_ASSIGN_OR_RETURN(range.lo, ExpectNumber());
        SL_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        SL_ASSIGN_OR_RETURN(range.hi, ExpectNumber());
        info.ranges.push_back(std::move(range));
      } else if (key == "max_delay") {
        SL_ASSIGN_OR_RETURN(std::string text, ExpectString());
        if (!ParseDuration(text, &info.max_delay)) {
          return Error("cannot parse max_delay '" + text + "'");
        }
      } else {
        return Error("unknown sensor property '" + key + "'");
      }
      SL_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    }
    SL_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
    if (!has_schema) {
      return Error("sensor '" + info.id + "' declares no schema");
    }
    SL_RETURN_IF_ERROR(ValidateSensorInfo(info));
    return info;
  }

  Status Error(const std::string& msg) const override {
    return Status::ParseError(
        StrFormat("registry: %s (at offset %zu)", msg.c_str(),
                  Peek().offset));
  }
};

}  // namespace

Result<std::vector<SensorInfo>> ParseSensorRegistry(const std::string& text) {
  SL_ASSIGN_OR_RETURN(std::vector<Token> tokens, expr::Tokenize(text));
  RegistryParser parser(tokens);
  return parser.Parse();
}

}  // namespace sl::pubsub
