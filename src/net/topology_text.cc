#include "net/topology_text.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "expr/lexer.h"
#include "util/strings.h"

namespace sl::net {

using expr::Token;
using expr::TokenKind;

namespace {

constexpr double kBytesPerMsPerMbps = 125.0;  // 1 Mbps = 125 B/ms

/// Small recursive-descent parser over the shared lexical grammar.
class TopologyParser : public expr::TokenCursor {
 public:
  using TokenCursor::TokenCursor;

  Status Parse(std::vector<NodeConfig>* nodes, std::vector<LinkConfig>* links) {
    SL_RETURN_IF_ERROR(ExpectKeyword("network"));
    SL_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    (void)name;
    SL_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    while (Peek().kind != TokenKind::kRBrace) {
      if (IsKeyword("node")) {
        SL_ASSIGN_OR_RETURN(NodeConfig node, ParseNode());
        nodes->push_back(std::move(node));
      } else if (IsKeyword("link")) {
        SL_ASSIGN_OR_RETURN(LinkConfig link, ParseLink());
        links->push_back(std::move(link));
      } else {
        return Error("expected 'node' or 'link'");
      }
    }
    SL_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input after network block");
    }
    return Status::OK();
  }

 private:
  Result<NodeConfig> ParseNode() {
    Advance();  // 'node'
    NodeConfig config;
    SL_ASSIGN_OR_RETURN(config.id, ExpectIdent());
    SL_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    while (Peek().kind != TokenKind::kRBrace) {
      SL_ASSIGN_OR_RETURN(std::string key, ExpectIdent());
      SL_RETURN_IF_ERROR(Expect(TokenKind::kColon));
      if (key == "capacity") {
        SL_ASSIGN_OR_RETURN(config.capacity_per_sec, ExpectNumber());
      } else if (key == "location") {
        SL_ASSIGN_OR_RETURN(config.location.lat, ExpectNumber());
        SL_RETURN_IF_ERROR(Expect(TokenKind::kComma));
        SL_ASSIGN_OR_RETURN(config.location.lon, ExpectNumber());
      } else {
        return Error("unknown node property '" + key + "'");
      }
      SL_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    }
    SL_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
    return config;
  }

  Result<LinkConfig> ParseLink() {
    Advance();  // 'link'
    LinkConfig config;
    SL_ASSIGN_OR_RETURN(config.a, ExpectIdent());
    SL_RETURN_IF_ERROR(Expect(TokenKind::kMinus));
    SL_RETURN_IF_ERROR(Expect(TokenKind::kMinus));
    SL_ASSIGN_OR_RETURN(config.b, ExpectIdent());
    if (Peek().kind == TokenKind::kLBracket) {
      Advance();
      while (Peek().kind != TokenKind::kRBracket) {
        SL_ASSIGN_OR_RETURN(std::string key, ExpectIdent());
        SL_RETURN_IF_ERROR(Expect(TokenKind::kColon));
        if (key == "latency") {
          if (Peek().kind == TokenKind::kString) {
            if (!ParseDuration(Peek().text, &config.latency)) {
              return Error("cannot parse latency '" + Peek().text + "'");
            }
            Advance();
          } else {
            SL_ASSIGN_OR_RETURN(double ms, ExpectNumber());
            config.latency = static_cast<Duration>(ms);
          }
        } else if (key == "bandwidth_mbps") {
          SL_ASSIGN_OR_RETURN(double mbps, ExpectNumber());
          config.bandwidth_bytes_per_ms = mbps * kBytesPerMsPerMbps;
        } else {
          return Error("unknown link property '" + key + "'");
        }
        if (Peek().kind == TokenKind::kSemicolon) {
          Advance();
        } else if (Peek().kind != TokenKind::kRBracket) {
          return Error("expected ';' or ']' after link property");
        }
      }
      SL_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    }
    SL_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    return config;
  }

  Status Error(const std::string& msg) const override {
    return Status::ParseError(StrFormat("topology: %s (at offset %zu)",
                                        msg.c_str(), Peek().offset));
  }
};

}  // namespace

Status BuildTopologyFromText(Network* net, const std::string& text) {
  if (net == nullptr) return Status::InvalidArgument("null network");
  SL_ASSIGN_OR_RETURN(std::vector<Token> tokens, expr::Tokenize(text));
  std::vector<NodeConfig> nodes;
  std::vector<LinkConfig> links;
  TopologyParser parser(tokens);
  SL_RETURN_IF_ERROR(parser.Parse(&nodes, &links));
  // Validate the whole document against existing state before mutating
  // anything, so failures leave the network untouched.
  std::set<std::string> known;
  for (const auto& id : net->NodeIds()) known.insert(id);
  for (const auto& node : nodes) {
    if (!IsIdentifier(node.id) || node.capacity_per_sec <= 0) {
      return Status::InvalidArgument("invalid node '" + node.id + "'");
    }
    if (!known.insert(node.id).second) {
      return Status::AlreadyExists("node '" + node.id +
                                   "' already exists in the network");
    }
  }
  std::set<std::pair<std::string, std::string>> edges;
  for (const auto& link : net->links()) {
    edges.insert({std::min(link.config.a, link.config.b),
                  std::max(link.config.a, link.config.b)});
  }
  for (const auto& link : links) {
    if (known.count(link.a) == 0 || known.count(link.b) == 0) {
      return Status::NotFound(StrFormat("link %s -- %s references an unknown node",
                                        link.a.c_str(), link.b.c_str()));
    }
    if (link.a == link.b || link.latency < 0 ||
        link.bandwidth_bytes_per_ms <= 0) {
      return Status::InvalidArgument(StrFormat("invalid link %s -- %s",
                                               link.a.c_str(),
                                               link.b.c_str()));
    }
    if (!edges.insert({std::min(link.a, link.b), std::max(link.a, link.b)})
             .second) {
      return Status::AlreadyExists(StrFormat("duplicate link %s -- %s",
                                             link.a.c_str(), link.b.c_str()));
    }
  }
  for (const auto& node : nodes) {
    SL_RETURN_IF_ERROR(net->AddNode(node));
  }
  for (const auto& link : links) {
    SL_RETURN_IF_ERROR(net->AddLink(link));
  }
  return Status::OK();
}

Result<std::string> SerializeTopology(const Network& net,
                                      const std::string& name) {
  if (!IsIdentifier(name)) {
    return Status::InvalidArgument("network name '" + name +
                                   "' is not a valid identifier");
  }
  std::string out = "network " + name + " {\n";
  for (const auto& id : net.NodeIds()) {
    const NodeState* state = *net.node(id);
    out += StrFormat("  node %s { capacity: %.10g; location: %.10g, %.10g; }\n",
                     id.c_str(), state->config.capacity_per_sec,
                     state->config.location.lat, state->config.location.lon);
  }
  for (const auto& link : net.links()) {
    out += StrFormat(
        "  link %s -- %s [latency: \"%s\"; bandwidth_mbps: %.10g];\n",
        link.config.a.c_str(), link.config.b.c_str(),
        FormatDuration(link.config.latency).c_str(),
        link.config.bandwidth_bytes_per_ms / kBytesPerMsPerMbps);
  }
  out += "}\n";
  return out;
}

}  // namespace sl::net
