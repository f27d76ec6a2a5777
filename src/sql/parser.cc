#include "sql/parser.h"

#include <cctype>

#include "sql/lexer.h"

namespace cloudviews {
namespace sql {

namespace {

std::string ToUpper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(c));
  return out;
}

}  // namespace

Result<std::unique_ptr<SelectStatement>> Parser::Parse(const std::string& sql) {
  Lexer lexer(sql);
  auto tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  auto stmt = parser.ParseSelect();
  if (!stmt.ok()) return stmt.status();
  if (parser.Peek().type != TokenType::kEnd) {
    return parser.ErrorAt(parser.Peek(), "unexpected trailing tokens");
  }
  return stmt;
}

const Token& Parser::Peek(size_t ahead) const {
  size_t i = pos_ + ahead;
  if (i >= tokens_.size()) i = tokens_.size() - 1;  // kEnd sentinel
  return tokens_[i];
}

Token Parser::Advance() {
  Token tok = Peek();
  if (pos_ + 1 < tokens_.size()) pos_ += 1;
  return tok;
}

bool Parser::Match(TokenType type) {
  if (Peek().type == type) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenType type, const char* context) {
  if (Peek().type != type) {
    return ErrorAt(Peek(), std::string("expected ") + TokenTypeName(type) +
                               " in " + context);
  }
  Advance();
  return Status::OK();
}

Status Parser::ErrorAt(const Token& tok, const std::string& message) const {
  return Status::InvalidArgument(message + " (got " +
                                 TokenTypeName(tok.type) +
                                 (tok.text.empty() ? "" : " '" + tok.text + "'") +
                                 " at offset " + std::to_string(tok.position) +
                                 ")");
}

Status Parser::TooDeep() const {
  return ErrorAt(Peek(), "nesting deeper than " + std::to_string(kMaxDepth) +
                             " levels");
}

Result<TableRef> Parser::ParseTableRef() {
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorAt(Peek(), "expected table name");
  }
  TableRef ref;
  ref.table_name = Advance().text;
  if (Peek().type == TokenType::kIdentifier) {
    ref.alias = Advance().text;
  } else if (Match(TokenType::kAs)) {
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorAt(Peek(), "expected alias after AS");
    }
    ref.alias = Advance().text;
  }
  return ref;
}

Result<std::unique_ptr<SelectStatement>> Parser::ParseSelect() {
  Nesting nesting(&depth_);
  if (depth_ > kMaxDepth) return TooDeep();
  CLOUDVIEWS_RETURN_NOT_OK(Expect(TokenType::kSelect, "query"));
  auto stmt = std::make_unique<SelectStatement>();
  stmt->distinct = Match(TokenType::kDistinct);

  // Select list.
  while (true) {
    SelectItem item;
    if (Peek().type == TokenType::kStar) {
      Advance();
      item.expr = AstExpr::Star();
    } else {
      auto expr = ParseExpr();
      if (!expr.ok()) return expr.status();
      item.expr = std::move(expr).value();
    }
    if (Match(TokenType::kAs)) {
      if (Peek().type != TokenType::kIdentifier) {
        return ErrorAt(Peek(), "expected alias after AS");
      }
      item.alias = Advance().text;
    } else if (Peek().type == TokenType::kIdentifier) {
      item.alias = Advance().text;
    }
    stmt->select_list.push_back(std::move(item));
    if (!Match(TokenType::kComma)) break;
  }

  CLOUDVIEWS_RETURN_NOT_OK(Expect(TokenType::kFrom, "query"));
  auto from = ParseTableRef();
  if (!from.ok()) return from.status();
  stmt->from = std::move(from).value();

  // Joins.
  while (true) {
    JoinKind kind = JoinKind::kInner;
    if (Match(TokenType::kInner)) {
      CLOUDVIEWS_RETURN_NOT_OK(Expect(TokenType::kJoin, "INNER JOIN"));
    } else if (Match(TokenType::kLeft)) {
      CLOUDVIEWS_RETURN_NOT_OK(Expect(TokenType::kJoin, "LEFT JOIN"));
      kind = JoinKind::kLeft;
    } else if (!Match(TokenType::kJoin)) {
      break;
    }
    JoinClause join;
    join.kind = kind;
    auto table = ParseTableRef();
    if (!table.ok()) return table.status();
    join.table = std::move(table).value();
    if (Match(TokenType::kOn)) {
      auto cond = ParseExpr();
      if (!cond.ok()) return cond.status();
      join.condition = std::move(cond).value();
    }
    stmt->joins.push_back(std::move(join));
  }

  if (Match(TokenType::kWhere)) {
    auto where = ParseExpr();
    if (!where.ok()) return where.status();
    stmt->where = std::move(where).value();
  }

  if (Match(TokenType::kGroup)) {
    CLOUDVIEWS_RETURN_NOT_OK(Expect(TokenType::kBy, "GROUP BY"));
    while (true) {
      auto expr = ParseExpr();
      if (!expr.ok()) return expr.status();
      stmt->group_by.push_back(std::move(expr).value());
      if (!Match(TokenType::kComma)) break;
    }
  }

  if (Match(TokenType::kHaving)) {
    auto having = ParseExpr();
    if (!having.ok()) return having.status();
    stmt->having = std::move(having).value();
  }

  if (Match(TokenType::kOrder)) {
    CLOUDVIEWS_RETURN_NOT_OK(Expect(TokenType::kBy, "ORDER BY"));
    while (true) {
      OrderItem item;
      auto expr = ParseExpr();
      if (!expr.ok()) return expr.status();
      item.expr = std::move(expr).value();
      if (Match(TokenType::kDesc)) {
        item.ascending = false;
      } else {
        Match(TokenType::kAsc);
      }
      stmt->order_by.push_back(std::move(item));
      if (!Match(TokenType::kComma)) break;
    }
  }

  if (Match(TokenType::kLimit)) {
    if (Peek().type != TokenType::kIntLiteral) {
      return ErrorAt(Peek(), "expected integer after LIMIT");
    }
    stmt->limit = Advance().int_value;
  }

  if (Match(TokenType::kUnion)) {
    CLOUDVIEWS_RETURN_NOT_OK(Expect(TokenType::kAll, "UNION ALL"));
    auto next = ParseSelect();
    if (!next.ok()) return next.status();
    stmt->union_all_next = std::move(next).value();
  }

  return stmt;
}

Result<AstExprPtr> Parser::ParseExpr() {
  Nesting nesting(&depth_);
  if (depth_ > kMaxDepth) return TooDeep();
  return ParseOr();
}

Result<AstExprPtr> Parser::ParseOr() {
  auto lhs = ParseAnd();
  if (!lhs.ok()) return lhs.status();
  AstExprPtr expr = std::move(lhs).value();
  while (Match(TokenType::kOr)) {
    auto rhs = ParseAnd();
    if (!rhs.ok()) return rhs.status();
    expr = AstExpr::Binary(BinaryOp::kOr, std::move(expr),
                           std::move(rhs).value());
  }
  return expr;
}

Result<AstExprPtr> Parser::ParseAnd() {
  auto lhs = ParseNot();
  if (!lhs.ok()) return lhs.status();
  AstExprPtr expr = std::move(lhs).value();
  while (Match(TokenType::kAnd)) {
    auto rhs = ParseNot();
    if (!rhs.ok()) return rhs.status();
    expr = AstExpr::Binary(BinaryOp::kAnd, std::move(expr),
                           std::move(rhs).value());
  }
  return expr;
}

Result<AstExprPtr> Parser::ParseNot() {
  if (Match(TokenType::kNot)) {
    Nesting nesting(&depth_);
    if (depth_ > kMaxDepth) return TooDeep();
    auto operand = ParseNot();
    if (!operand.ok()) return operand.status();
    return AstExpr::Unary(UnaryOp::kNot, std::move(operand).value());
  }
  return ParseComparison();
}

Result<AstExprPtr> Parser::ParseComparison() {
  auto lhs = ParseAdditive();
  if (!lhs.ok()) return lhs.status();
  AstExprPtr expr = std::move(lhs).value();

  // IS [NOT] NULL
  if (Match(TokenType::kIs)) {
    bool negated = Match(TokenType::kNot);
    CLOUDVIEWS_RETURN_NOT_OK(Expect(TokenType::kNull, "IS NULL"));
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kIsNull;
    e->negated = negated;
    e->children.push_back(std::move(expr));
    return AstExprPtr(std::move(e));
  }

  // [NOT] BETWEEN / IN / LIKE
  bool negated = false;
  if (Peek().type == TokenType::kNot &&
      (Peek(1).type == TokenType::kBetween || Peek(1).type == TokenType::kIn ||
       Peek(1).type == TokenType::kLike)) {
    Advance();
    negated = true;
  }

  if (Match(TokenType::kBetween)) {
    auto lo = ParseAdditive();
    if (!lo.ok()) return lo.status();
    CLOUDVIEWS_RETURN_NOT_OK(Expect(TokenType::kAnd, "BETWEEN"));
    auto hi = ParseAdditive();
    if (!hi.ok()) return hi.status();
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kBetween;
    e->negated = negated;
    e->children.push_back(std::move(expr));
    e->children.push_back(std::move(lo).value());
    e->children.push_back(std::move(hi).value());
    return AstExprPtr(std::move(e));
  }

  if (Match(TokenType::kIn)) {
    CLOUDVIEWS_RETURN_NOT_OK(Expect(TokenType::kLParen, "IN list"));
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kInList;
    e->negated = negated;
    e->children.push_back(std::move(expr));
    while (true) {
      auto item = ParseAdditive();
      if (!item.ok()) return item.status();
      e->children.push_back(std::move(item).value());
      if (!Match(TokenType::kComma)) break;
    }
    CLOUDVIEWS_RETURN_NOT_OK(Expect(TokenType::kRParen, "IN list"));
    return AstExprPtr(std::move(e));
  }

  if (Match(TokenType::kLike)) {
    if (Peek().type != TokenType::kStringLiteral) {
      return ErrorAt(Peek(), "expected string pattern after LIKE");
    }
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kLike;
    e->negated = negated;
    e->like_pattern = Advance().text;
    e->children.push_back(std::move(expr));
    return AstExprPtr(std::move(e));
  }

  BinaryOp op;
  switch (Peek().type) {
    case TokenType::kEq:
      op = BinaryOp::kEq;
      break;
    case TokenType::kNe:
      op = BinaryOp::kNe;
      break;
    case TokenType::kLt:
      op = BinaryOp::kLt;
      break;
    case TokenType::kLe:
      op = BinaryOp::kLe;
      break;
    case TokenType::kGt:
      op = BinaryOp::kGt;
      break;
    case TokenType::kGe:
      op = BinaryOp::kGe;
      break;
    default:
      return expr;
  }
  Advance();
  auto rhs = ParseAdditive();
  if (!rhs.ok()) return rhs.status();
  return AstExpr::Binary(op, std::move(expr), std::move(rhs).value());
}

Result<AstExprPtr> Parser::ParseAdditive() {
  auto lhs = ParseMultiplicative();
  if (!lhs.ok()) return lhs.status();
  AstExprPtr expr = std::move(lhs).value();
  while (true) {
    BinaryOp op;
    if (Peek().type == TokenType::kPlus) {
      op = BinaryOp::kAdd;
    } else if (Peek().type == TokenType::kMinus) {
      op = BinaryOp::kSubtract;
    } else {
      break;
    }
    Advance();
    auto rhs = ParseMultiplicative();
    if (!rhs.ok()) return rhs.status();
    expr = AstExpr::Binary(op, std::move(expr), std::move(rhs).value());
  }
  return expr;
}

Result<AstExprPtr> Parser::ParseMultiplicative() {
  auto lhs = ParseUnary();
  if (!lhs.ok()) return lhs.status();
  AstExprPtr expr = std::move(lhs).value();
  while (true) {
    BinaryOp op;
    if (Peek().type == TokenType::kStar) {
      op = BinaryOp::kMultiply;
    } else if (Peek().type == TokenType::kSlash) {
      op = BinaryOp::kDivide;
    } else if (Peek().type == TokenType::kPercent) {
      op = BinaryOp::kModulo;
    } else {
      break;
    }
    Advance();
    auto rhs = ParseUnary();
    if (!rhs.ok()) return rhs.status();
    expr = AstExpr::Binary(op, std::move(expr), std::move(rhs).value());
  }
  return expr;
}

Result<AstExprPtr> Parser::ParseUnary() {
  const bool negate = Peek().type == TokenType::kMinus;
  if (!negate && Peek().type != TokenType::kPlus) return ParsePrimary();
  Advance();
  Nesting nesting(&depth_);
  if (depth_ > kMaxDepth) return TooDeep();
  auto operand = ParseUnary();
  if (!operand.ok() || !negate) return operand;
  return AstExpr::Unary(UnaryOp::kNegate, std::move(operand).value());
}

Result<AstExprPtr> Parser::ParsePrimary() {
  const Token& tok = Peek();
  switch (tok.type) {
    case TokenType::kIntLiteral: {
      Token t = Advance();
      return AstExpr::Literal(Value(t.int_value));
    }
    case TokenType::kDoubleLiteral: {
      Token t = Advance();
      return AstExpr::Literal(Value(t.double_value));
    }
    case TokenType::kStringLiteral: {
      Token t = Advance();
      return AstExpr::Literal(Value(std::move(t.text)));
    }
    case TokenType::kTrue:
      Advance();
      return AstExpr::Literal(Value(true));
    case TokenType::kFalse:
      Advance();
      return AstExpr::Literal(Value(false));
    case TokenType::kNull:
      Advance();
      return AstExpr::Literal(Value::Null());
    case TokenType::kLParen: {
      Advance();
      auto inner = ParseExpr();
      if (!inner.ok()) return inner.status();
      CLOUDVIEWS_RETURN_NOT_OK(Expect(TokenType::kRParen, "parenthesized expr"));
      return inner;
    }
    case TokenType::kIdentifier: {
      Token name = Advance();
      // Function call?
      if (Peek().type == TokenType::kLParen) {
        Advance();
        auto call = std::make_unique<AstExpr>();
        call->kind = AstExprKind::kFunctionCall;
        call->function_name = ToUpper(name.text);
        if (Match(TokenType::kDistinct)) call->distinct = true;
        if (Peek().type == TokenType::kStar) {
          Advance();
          call->children.push_back(AstExpr::Star());
        } else if (Peek().type != TokenType::kRParen) {
          while (true) {
            auto arg = ParseExpr();
            if (!arg.ok()) return arg.status();
            call->children.push_back(std::move(arg).value());
            if (!Match(TokenType::kComma)) break;
          }
        }
        CLOUDVIEWS_RETURN_NOT_OK(Expect(TokenType::kRParen, "function call"));
        return AstExprPtr(std::move(call));
      }
      // Qualified column?
      if (Peek().type == TokenType::kDot) {
        Advance();
        if (Peek().type != TokenType::kIdentifier) {
          return ErrorAt(Peek(), "expected column name after '.'");
        }
        Token col = Advance();
        return AstExpr::Column(name.text, col.text);
      }
      return AstExpr::Column("", name.text);
    }
    default:
      return ErrorAt(tok, "expected expression");
  }
}

}  // namespace sql
}  // namespace cloudviews
