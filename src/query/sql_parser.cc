#include "query/sql_parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace streamlake::query {

namespace {

enum class TokenKind {
  kIdent,    // bare word (keywords resolved by comparison)
  kInteger,
  kDouble,
  kString,   // 'quoted'
  kSymbol,   // ( ) , * . = != <> <= >= < >
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;  // uppercased for idents; verbatim for strings
  std::string raw;   // original spelling
  size_t pos = 0;    // byte offset into the input
};

/// Words that terminate a table-alias position (so `FROM t WHERE ...`
/// never reads WHERE as an alias).
bool IsKeyword(const std::string& upper) {
  static const char* kKeywords[] = {
      "SELECT", "FROM",  "WHERE",  "GROUP", "ORDER", "BY",     "LIMIT",
      "JOIN",   "INNER", "ON",     "AS",    "AND",   "BETWEEN", "IN",
      "EXISTS", "SET",   "VALUES", "ASC",   "DESC",  "INTO"};
  for (const char* k : kKeywords) {
    if (upper == k) return true;
  }
  return false;
}

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    size_t i = 0;
    const size_t n = input_.size();
    while (i < n) {
      char c = input_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '-' && i + 1 < n && input_[i + 1] == '-') {
        while (i < n && input_[i] != '\n') ++i;  // -- comment
        continue;
      }
      if (c == '\'') {
        size_t end = input_.find('\'', i + 1);
        if (end == std::string::npos) {
          return Status::InvalidArgument(
              "unterminated string literal at position " + std::to_string(i));
        }
        Token token;
        token.kind = TokenKind::kString;
        token.text = input_.substr(i + 1, end - i - 1);
        token.raw = token.text;
        token.pos = i;
        tokens.push_back(std::move(token));
        i = end + 1;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i + 1 < n &&
           std::isdigit(static_cast<unsigned char>(input_[i + 1])))) {
        size_t start = i;
        if (c == '-') ++i;
        bool is_double = false;
        while (i < n && (std::isdigit(static_cast<unsigned char>(input_[i])) ||
                         input_[i] == '.')) {
          if (input_[i] == '.') is_double = true;
          ++i;
        }
        Token token;
        token.kind = is_double ? TokenKind::kDouble : TokenKind::kInteger;
        token.text = input_.substr(start, i - start);
        token.raw = token.text;
        token.pos = start;
        tokens.push_back(std::move(token));
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = i;
        while (i < n && (std::isalnum(static_cast<unsigned char>(input_[i])) ||
                         input_[i] == '_')) {
          ++i;
        }
        Token token;
        token.kind = TokenKind::kIdent;
        token.raw = input_.substr(start, i - start);
        token.text = token.raw;
        token.pos = start;
        std::transform(token.text.begin(), token.text.end(),
                       token.text.begin(), ::toupper);
        tokens.push_back(std::move(token));
        continue;
      }
      // Symbols, including two-character comparators (<= >= != <>).
      if (((c == '<' || c == '>' || c == '!') && i + 1 < n &&
           input_[i + 1] == '=') ||
          (c == '<' && i + 1 < n && input_[i + 1] == '>')) {
        tokens.push_back(Token{TokenKind::kSymbol, input_.substr(i, 2),
                               input_.substr(i, 2), i});
        i += 2;
        continue;
      }
      if (std::string("(),*.=<>").find(c) != std::string::npos) {
        tokens.push_back(Token{TokenKind::kSymbol, std::string(1, c),
                               std::string(1, c), i});
        ++i;
        continue;
      }
      return Status::InvalidArgument(std::string("unexpected character '") +
                                     c + "' in SQL at position " +
                                     std::to_string(i));
    }
    Token end;
    end.pos = n;
    tokens.push_back(std::move(end));
    return tokens;
  }

 private:
  const std::string& input_;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SqlStatement> Parse() {
    SqlStatement statement;
    if (Accept("SELECT")) {
      statement.kind = SqlStatement::Kind::kSelect;
      SL_RETURN_NOT_OK(ParseSelect(&statement));
    } else if (Accept("INSERT")) {
      statement.kind = SqlStatement::Kind::kInsert;
      SL_RETURN_NOT_OK(ParseInsert(&statement));
    } else if (Accept("DELETE")) {
      statement.kind = SqlStatement::Kind::kDelete;
      SL_RETURN_NOT_OK(ParseDelete(&statement));
    } else if (Accept("UPDATE")) {
      statement.kind = SqlStatement::Kind::kUpdate;
      SL_RETURN_NOT_OK(ParseUpdate(&statement));
    } else {
      return ErrorHere("expected SELECT/INSERT/DELETE/UPDATE");
    }
    if (Peek().kind != TokenKind::kEnd) {
      return ErrorHere("trailing tokens after statement");
    }
    return statement;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t at = pos_ + ahead;
    return tokens_[std::min(at, tokens_.size() - 1)];
  }
  const Token& Next() { return tokens_[pos_++]; }

  /// Build an InvalidArgument pointing at the current token and its byte
  /// position, so callers can locate the offending input.
  Status ErrorHere(const std::string& msg) const {
    const Token& t = Peek();
    if (t.kind == TokenKind::kEnd) {
      return Status::InvalidArgument(msg + " at end of input (position " +
                                     std::to_string(t.pos) + ")");
    }
    return Status::InvalidArgument(msg + " near '" + t.raw +
                                   "' at position " + std::to_string(t.pos));
  }

  bool Accept(std::string_view keyword) {
    if (Peek().kind == TokenKind::kIdent && Peek().text == keyword) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptSymbol(std::string_view symbol) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == symbol) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(std::string_view keyword) {
    if (!Accept(keyword)) {
      return ErrorHere("expected " + std::string(keyword));
    }
    return Status::OK();
  }
  Status ExpectSymbol(std::string_view symbol) {
    if (!AcceptSymbol(symbol)) {
      return ErrorHere("expected '" + std::string(symbol) + "'");
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdent() {
    if (Peek().kind != TokenKind::kIdent) {
      return ErrorHere("expected identifier");
    }
    return Next().raw;
  }

  /// column or alias.column, returned in its original spelling.
  Result<std::string> ParseColumnRef() {
    SL_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    if (AcceptSymbol(".")) {
      SL_ASSIGN_OR_RETURN(std::string field, ExpectIdent());
      return name + "." + field;
    }
    return name;
  }

  /// Optional table alias: `AS name`, or a bare non-keyword identifier.
  /// A bare identifier at the very end of the input is NOT an alias —
  /// an alias nothing can reference is indistinguishable from trailing
  /// garbage (`SELECT * FROM t garbage`), which must stay diagnosed.
  Result<std::string> OptionalAlias(const std::string& fallback) {
    if (Accept("AS")) return ExpectIdent();
    if (Peek().kind == TokenKind::kIdent && !IsKeyword(Peek().text) &&
        Peek(1).kind != TokenKind::kEnd) {
      return Next().raw;
    }
    return fallback;
  }

  /// True when the upcoming tokens are `= colref` (a column-to-column
  /// comparison, i.e. a correlation) rather than `= literal`.
  bool PeekCorrelation() const {
    return Peek().kind == TokenKind::kSymbol && Peek().text == "=" &&
           Peek(1).kind == TokenKind::kIdent && Peek(1).text != "TRUE" &&
           Peek(1).text != "FALSE";
  }

  /// The value of the current numeric token, which must parse as a whole
  /// and fit in T: `1.2.3`, an out-of-range number and a negative LIMIT are
  /// errors at the token's position.
  template <typename T>
  Result<T> ParseNumber() {
    const std::string& text = Peek().text;
    const char* end = text.data() + text.size();
    T value{};
    auto [parsed_end, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || parsed_end != end) {
      return ErrorHere("invalid number");
    }
    ++pos_;
    return value;
  }

  Result<format::Value> ParseLiteral() {
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kInteger: {
        SL_ASSIGN_OR_RETURN(int64_t v, ParseNumber<int64_t>());
        return format::Value(v);
      }
      case TokenKind::kDouble: {
        SL_ASSIGN_OR_RETURN(double v, ParseNumber<double>());
        return format::Value(v);
      }
      case TokenKind::kString:
        return format::Value(Next().raw);
      case TokenKind::kIdent:
        if (Accept("TRUE")) return format::Value(true);
        if (Accept("FALSE")) return format::Value(false);
        return ErrorHere("expected literal");
      default:
        return ErrorHere("expected literal");
    }
  }

  /// Everything after the column of a literal predicate: comparison
  /// operator + literal, IN literal list, or BETWEEN lo AND hi (desugared
  /// to >= lo AND <= hi).
  Status ParsePredicateTail(const std::string& column, Conjunction* where) {
    if (Accept("IN")) {
      SL_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<format::Value> values;
      do {
        SL_ASSIGN_OR_RETURN(format::Value v, ParseLiteral());
        values.push_back(std::move(v));
      } while (AcceptSymbol(","));
      SL_RETURN_NOT_OK(ExpectSymbol(")"));
      where->Add(Predicate::In(column, std::move(values)));
      return Status::OK();
    }
    if (Accept("BETWEEN")) {
      SL_ASSIGN_OR_RETURN(format::Value lo, ParseLiteral());
      SL_RETURN_NOT_OK(Expect("AND"));
      SL_ASSIGN_OR_RETURN(format::Value hi, ParseLiteral());
      where->Add(Predicate::Ge(column, std::move(lo)));
      where->Add(Predicate::Le(column, std::move(hi)));
      return Status::OK();
    }
    using Make = Predicate (*)(std::string, format::Value);
    static const std::pair<std::string_view, Make> kOps[] = {
        {"=", Predicate::Eq},  {"!=", Predicate::Ne}, {"<>", Predicate::Ne},
        {"<=", Predicate::Le}, {">=", Predicate::Ge}, {"<", Predicate::Lt},
        {">", Predicate::Gt}};
    for (const auto& [symbol, make] : kOps) {
      if (!AcceptSymbol(symbol)) continue;
      SL_ASSIGN_OR_RETURN(format::Value literal, ParseLiteral());
      where->Add(make(column, std::move(literal)));
      return Status::OK();
    }
    return ErrorHere("expected comparison operator");
  }

  /// `col IN (SELECT col FROM t [alias] [WHERE literal-preds])`, the
  /// SELECT keyword already consumed. Desugars to a semi join.
  Status ParseInSubquery(const std::string& outer_column,
                         std::vector<JoinSpec>* joins) {
    JoinSpec join;
    join.kind = JoinSpec::Kind::kSemi;
    join.left_key = outer_column;
    SL_ASSIGN_OR_RETURN(join.right_key, ParseColumnRef());
    SL_RETURN_NOT_OK(Expect("FROM"));
    SL_ASSIGN_OR_RETURN(join.table, ExpectIdent());
    SL_ASSIGN_OR_RETURN(join.alias, OptionalAlias(join.table));
    if (Accept("WHERE")) {
      do {
        SL_ASSIGN_OR_RETURN(std::string column, ParseColumnRef());
        if (PeekCorrelation()) {
          return ErrorHere("correlated IN subqueries are not supported");
        }
        SL_RETURN_NOT_OK(ParsePredicateTail(column, &join.where));
      } while (Accept("AND"));
    }
    joins->push_back(std::move(join));
    return Status::OK();
  }

  /// `EXISTS (SELECT ... FROM t [alias] WHERE ...)`, the EXISTS and `(`
  /// already consumed. Requires exactly one correlation `a.x = b.y` with
  /// both sides qualified; other conjuncts become build-side filters.
  Status ParseExistsSubquery(std::vector<JoinSpec>* joins) {
    SL_RETURN_NOT_OK(Expect("SELECT"));
    if (!AcceptSymbol("*")) {
      SL_ASSIGN_OR_RETURN([[maybe_unused]] std::string ignored,
                          ParseColumnRef());
    }
    SL_RETURN_NOT_OK(Expect("FROM"));
    JoinSpec join;
    join.kind = JoinSpec::Kind::kSemi;
    SL_ASSIGN_OR_RETURN(join.table, ExpectIdent());
    SL_ASSIGN_OR_RETURN(join.alias, OptionalAlias(join.table));
    SL_RETURN_NOT_OK(Expect("WHERE"));
    bool have_correlation = false;
    do {
      SL_ASSIGN_OR_RETURN(std::string column, ParseColumnRef());
      if (!PeekCorrelation()) {
        SL_RETURN_NOT_OK(ParsePredicateTail(column, &join.where));
        continue;
      }
      Next();  // =
      SL_ASSIGN_OR_RETURN(std::string rhs, ParseColumnRef());
      if (have_correlation) {
        return ErrorHere("EXISTS subquery supports a single correlation");
      }
      have_correlation = true;
      // The side qualified with the subquery's alias (or table name) is
      // the build key; the other side belongs to the outer query.
      auto qualifier = [](const std::string& ref) {
        size_t dot = ref.find('.');
        return dot == std::string::npos ? std::string() : ref.substr(0, dot);
      };
      bool lhs_inner = qualifier(column) == join.alias ||
                       qualifier(column) == join.table;
      bool rhs_inner =
          qualifier(rhs) == join.alias || qualifier(rhs) == join.table;
      if (lhs_inner == rhs_inner) {
        return Status::InvalidArgument(
            "EXISTS correlation must compare one subquery column with one "
            "outer column, both alias-qualified: " +
            column + " = " + rhs);
      }
      join.right_key = lhs_inner ? column : rhs;
      join.left_key = lhs_inner ? rhs : column;
    } while (Accept("AND"));
    if (!have_correlation) {
      return Status::InvalidArgument(
          "EXISTS subquery needs a correlation predicate joining it to the "
          "outer query");
    }
    joins->push_back(std::move(join));
    return Status::OK();
  }

  /// WHERE conjunction. `joins` is non-null only for SELECT, where
  /// IN (SELECT ...) / EXISTS terms desugar into semi joins; DELETE and
  /// UPDATE predicates are serialized into commits and must stay plain.
  Status ParseWhere(Conjunction* where, std::vector<JoinSpec>* joins) {
    do {
      if (Peek().kind == TokenKind::kIdent && Peek().text == "EXISTS") {
        if (joins == nullptr) {
          return ErrorHere(
              "subqueries are only supported in SELECT statements");
        }
        Next();  // EXISTS
        SL_RETURN_NOT_OK(ExpectSymbol("("));
        SL_RETURN_NOT_OK(ParseExistsSubquery(joins));
        SL_RETURN_NOT_OK(ExpectSymbol(")"));
        continue;
      }
      SL_ASSIGN_OR_RETURN(std::string column, ParseColumnRef());
      if (Peek().kind == TokenKind::kIdent && Peek().text == "IN" &&
          Peek(1).kind == TokenKind::kSymbol && Peek(1).text == "(" &&
          Peek(2).kind == TokenKind::kIdent && Peek(2).text == "SELECT") {
        if (joins == nullptr) {
          return ErrorHere(
              "subqueries are only supported in SELECT statements");
        }
        Next();  // IN
        Next();  // (
        Next();  // SELECT
        SL_RETURN_NOT_OK(ParseInSubquery(column, joins));
        SL_RETURN_NOT_OK(ExpectSymbol(")"));
        continue;
      }
      SL_RETURN_NOT_OK(ParsePredicateTail(column, where));
    } while (Accept("AND"));
    return Status::OK();
  }

  Status ParseSelectItem(SqlStatement* statement) {
    QuerySpec& spec = statement->select;
    if (AcceptSymbol("*")) return Status::OK();  // all columns

    using Make = AggregateSpec (*)(std::string, std::string);
    static const std::pair<std::string_view, Make> kAggs[] = {
        {"COUNT", AggregateSpec::Count}, {"SUM", AggregateSpec::Sum},
        {"MIN", AggregateSpec::Min},     {"MAX", AggregateSpec::Max},
        {"AVG", AggregateSpec::Avg},
    };
    for (const auto& [name, make] : kAggs) {
      if (Peek().kind == TokenKind::kIdent && Peek().text == name &&
          Peek(1).kind == TokenKind::kSymbol && Peek(1).text == "(") {
        Next();  // agg name
        Next();  // (
        AggregateSpec agg;
        if (AcceptSymbol("*")) {
          if (name != "COUNT") {
            return Status::InvalidArgument("only COUNT accepts *");
          }
          agg = AggregateSpec::CountStar();
        } else {
          SL_ASSIGN_OR_RETURN(std::string column, ParseColumnRef());
          agg = make(std::move(column), "");
        }
        SL_RETURN_NOT_OK(ExpectSymbol(")"));
        if (Accept("AS")) {
          SL_ASSIGN_OR_RETURN(agg.alias, ExpectIdent());
        }
        spec.aggregates.push_back(std::move(agg));
        return Status::OK();
      }
    }
    // Plain column (optionally aliased — alias ignored for projections).
    SL_ASSIGN_OR_RETURN(std::string column, ParseColumnRef());
    if (Accept("AS")) {
      SL_ASSIGN_OR_RETURN([[maybe_unused]] std::string alias, ExpectIdent());
    }
    spec.projection.push_back(std::move(column));
    return Status::OK();
  }

  Status ParseSelect(SqlStatement* statement) {
    do {
      SL_RETURN_NOT_OK(ParseSelectItem(statement));
    } while (AcceptSymbol(","));
    SL_RETURN_NOT_OK(Expect("FROM"));
    SL_ASSIGN_OR_RETURN(statement->table, ExpectIdent());
    SL_ASSIGN_OR_RETURN(statement->table_alias,
                        OptionalAlias(statement->table));
    while (true) {
      if (Accept("INNER")) {
        SL_RETURN_NOT_OK(Expect("JOIN"));
      } else if (!Accept("JOIN")) {
        break;
      }
      JoinSpec join;
      join.kind = JoinSpec::Kind::kInner;
      SL_ASSIGN_OR_RETURN(join.table, ExpectIdent());
      SL_ASSIGN_OR_RETURN(join.alias, OptionalAlias(join.table));
      SL_RETURN_NOT_OK(Expect("ON"));
      SL_ASSIGN_OR_RETURN(join.left_key, ParseColumnRef());
      SL_RETURN_NOT_OK(ExpectSymbol("="));
      SL_ASSIGN_OR_RETURN(join.right_key, ParseColumnRef());
      statement->joins.push_back(std::move(join));
    }
    if (Accept("WHERE")) {
      SL_RETURN_NOT_OK(
          ParseWhere(&statement->select.where, &statement->joins));
    }
    if (Accept("GROUP")) {
      SL_RETURN_NOT_OK(Expect("BY"));
      do {
        SL_ASSIGN_OR_RETURN(std::string column, ParseColumnRef());
        statement->select.group_by.push_back(std::move(column));
      } while (AcceptSymbol(","));
    }
    if (Accept("ORDER")) {
      SL_RETURN_NOT_OK(Expect("BY"));
      SL_ASSIGN_OR_RETURN(statement->select.order_by, ParseColumnRef());
      if (Accept("DESC")) {
        statement->select.order_descending = true;
      } else {
        Accept("ASC");
      }
    }
    if (Accept("LIMIT")) {
      if (Peek().kind != TokenKind::kInteger) {
        return ErrorHere("LIMIT needs an integer");
      }
      SL_ASSIGN_OR_RETURN(statement->select.limit, ParseNumber<uint64_t>());
    }
    // GROUP BY columns are part of the aggregate output; a projection of
    // the same names is implied and must not also be requested.
    if (!statement->select.aggregates.empty() &&
        !statement->select.projection.empty()) {
      // Allow "SELECT province, COUNT(*) ... GROUP BY province": drop
      // projections that are group-by columns.
      auto& projection = statement->select.projection;
      auto& groups = statement->select.group_by;
      projection.erase(
          std::remove_if(projection.begin(), projection.end(),
                         [&](const std::string& column) {
                           return std::find(groups.begin(), groups.end(),
                                            column) != groups.end();
                         }),
          projection.end());
      if (!projection.empty()) {
        return Status::InvalidArgument(
            "non-aggregated column '" + projection.front() +
            "' must appear in GROUP BY");
      }
    }
    return Status::OK();
  }

  Status ParseInsert(SqlStatement* statement) {
    SL_RETURN_NOT_OK(Expect("INTO"));
    SL_ASSIGN_OR_RETURN(statement->table, ExpectIdent());
    SL_RETURN_NOT_OK(Expect("VALUES"));
    do {
      SL_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<format::Value> row;
      do {
        SL_ASSIGN_OR_RETURN(format::Value v, ParseLiteral());
        row.push_back(std::move(v));
      } while (AcceptSymbol(","));
      SL_RETURN_NOT_OK(ExpectSymbol(")"));
      statement->insert_rows.push_back(std::move(row));
    } while (AcceptSymbol(","));
    return Status::OK();
  }

  Status ParseDelete(SqlStatement* statement) {
    SL_RETURN_NOT_OK(Expect("FROM"));
    SL_ASSIGN_OR_RETURN(statement->table, ExpectIdent());
    if (Accept("WHERE")) {
      SL_RETURN_NOT_OK(ParseWhere(&statement->where, nullptr));
    }
    return Status::OK();
  }

  Status ParseUpdate(SqlStatement* statement) {
    SL_ASSIGN_OR_RETURN(statement->table, ExpectIdent());
    SL_RETURN_NOT_OK(Expect("SET"));
    SL_ASSIGN_OR_RETURN(statement->set_column, ExpectIdent());
    SL_RETURN_NOT_OK(ExpectSymbol("="));
    SL_ASSIGN_OR_RETURN(statement->set_value, ParseLiteral());
    if (Accept("WHERE")) {
      SL_RETURN_NOT_OK(ParseWhere(&statement->where, nullptr));
    }
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SqlStatement> ParseSql(const std::string& sql) {
  Lexer lexer(sql);
  SL_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace streamlake::query
