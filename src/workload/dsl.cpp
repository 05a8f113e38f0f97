#include "workload/dsl.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

namespace pio::workload {

namespace {

/// Expansion budget, summed over every rank: each statement executed and
/// each loop iteration is one step, so a loop with an empty body is bounded
/// too. The largest program in the repository (bench C-6's file-per-process
/// app at 32 ranks) expands to 2,272 ops in 4,608 steps.
constexpr std::uint64_t kMaxExpansionSteps = std::uint64_t{1} << 20;

/// Deepest nesting of parentheses, loop bodies and operator chains: parsing,
/// evaluation, expansion and teardown each recurse once per level, so an
/// unbounded depth overflows the stack.
constexpr int kMaxDepth = 1024;

/// Checked int64 arithmetic: a result outside int64 is a DslError, never
/// wrapped (signed overflow is undefined behaviour).
std::int64_t checked(char op, std::int64_t a, std::int64_t b, std::size_t line) {
  std::int64_t r = 0;
  bool overflow = false;
  switch (op) {
    case '+': overflow = __builtin_add_overflow(a, b, &r); break;
    case '-': overflow = __builtin_sub_overflow(a, b, &r); break;
    case '*': overflow = __builtin_mul_overflow(a, b, &r); break;
    case '/':
    case '%':
      if (b == 0) throw DslError(line, op == '/' ? "division by zero" : "modulo by zero");
      overflow = a == std::numeric_limits<std::int64_t>::min() && b == -1;
      if (!overflow) r = op == '/' ? a / b : a % b;
      break;
    default: throw DslError(line, "bad operator");
  }
  if (overflow) throw DslError(line, "integer overflow");
  return r;
}

// ------------------------------------------------------------------- lexer

enum class TokKind : std::uint8_t {
  kIdent,
  kNumber,  // value already scaled by its unit suffix
  kString,
  kLBrace,
  kRBrace,
  kLParen,
  kRParen,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kPercent,
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;        // ident / string payload
  std::int64_t number = 0; // scaled numeric value
  std::size_t line = 1;
};

[[nodiscard]] std::int64_t unit_multiplier(const std::string& unit, std::size_t line) {
  if (unit.empty() || unit == "B") return 1;
  if (unit == "KiB") return 1024;
  if (unit == "MiB") return 1024LL * 1024;
  if (unit == "GiB") return 1024LL * 1024 * 1024;
  if (unit == "ns") return 1;
  if (unit == "us") return 1000;
  if (unit == "ms") return 1000LL * 1000;
  if (unit == "s") return 1000LL * 1000 * 1000;
  throw DslError(line, "unknown unit suffix '" + unit + "'");
}

class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) { advance(); }

  [[nodiscard]] const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

 private:
  void advance() {
    skip_ws_and_comments();
    current_ = Token{};
    current_.line = line_;
    if (pos_ >= src_.size()) {
      current_.kind = TokKind::kEnd;
      return;
    }
    const char c = src_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::int64_t value = 0;
      while (pos_ < src_.size() && std::isdigit(static_cast<unsigned char>(src_[pos_])) != 0) {
        value = checked('+', checked('*', value, 10, line_), src_[pos_++] - '0', line_);
      }
      // Optional unit suffix glued to the number: 4MiB, 50ms.
      std::string unit;
      while (pos_ < src_.size() && std::isalpha(static_cast<unsigned char>(src_[pos_])) != 0) {
        unit += src_[pos_++];
      }
      current_.kind = TokKind::kNumber;
      current_.number = checked('*', value, unit_multiplier(unit, line_), line_);
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::string ident;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) != 0 || src_[pos_] == '_')) {
        ident += src_[pos_++];
      }
      current_.kind = TokKind::kIdent;
      current_.text = std::move(ident);
      return;
    }
    if (c == '"') {
      ++pos_;
      std::string s;
      while (pos_ < src_.size() && src_[pos_] != '"') {
        if (src_[pos_] == '\n') throw DslError(line_, "unterminated string");
        s += src_[pos_++];
      }
      if (pos_ >= src_.size()) throw DslError(line_, "unterminated string");
      ++pos_;  // closing quote
      current_.kind = TokKind::kString;
      current_.text = std::move(s);
      return;
    }
    ++pos_;
    switch (c) {
      case '{': current_.kind = TokKind::kLBrace; return;
      case '}': current_.kind = TokKind::kRBrace; return;
      case '(': current_.kind = TokKind::kLParen; return;
      case ')': current_.kind = TokKind::kRParen; return;
      case '+': current_.kind = TokKind::kPlus; return;
      case '-': current_.kind = TokKind::kMinus; return;
      case '*': current_.kind = TokKind::kStar; return;
      case '/': current_.kind = TokKind::kSlash; return;
      case '%': current_.kind = TokKind::kPercent; return;
      default: throw DslError(line_, std::string("unexpected character '") + c + "'");
    }
  }

  void skip_ws_and_comments() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  Token current_;
};

// --------------------------------------------------------------------- AST

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind : std::uint8_t { kConst, kVar, kBinary } kind = Kind::kConst;
  std::int64_t value = 0;   // kConst
  std::string var;          // kVar
  char op = '+';            // kBinary
  ExprPtr lhs;
  ExprPtr rhs;
  std::size_t line = 1;
  int depth = 1;  ///< levels of the tree rooted here
};

/// A path template: literal segments interleaved with expressions.
struct PathTemplate {
  std::vector<std::string> literals;  // size == exprs.size() + 1
  std::vector<ExprPtr> exprs;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  enum class Kind : std::uint8_t {
    kCreate, kOpen, kClose, kStat, kUnlink, kMkdir, kReaddir, kFsync,
    kRead, kWrite, kCompute, kBarrier, kLoop,
  } kind = Kind::kBarrier;
  PathTemplate path;     // file ops
  ExprPtr offset;        // read/write
  ExprPtr size;          // read/write
  ExprPtr duration;      // compute
  std::string loop_var;  // loop
  std::int64_t loop_count = 0;
  std::vector<StmtPtr> body;  // loop
  std::size_t line = 1;
};

struct Program {
  std::string name = "dsl";
  std::int32_t ranks = 1;
  std::vector<StmtPtr> stmts;
};

// ------------------------------------------------------------------ parser

class Parser {
 public:
  explicit Parser(std::string_view source) : lexer_(source) {}

  Program parse() {
    Program program;
    bool ranks_seen = false;
    while (lexer_.peek().kind != TokKind::kEnd) {
      const Token& t = lexer_.peek();
      if (t.kind == TokKind::kIdent && t.text == "name") {
        lexer_.take();
        program.name = expect(TokKind::kString, "workload name string").text;
      } else if (t.kind == TokKind::kIdent && t.text == "ranks") {
        lexer_.take();
        const Token n = expect(TokKind::kNumber, "rank count");
        if (n.number <= 0 || n.number > 1'000'000) throw DslError(n.line, "bad rank count");
        program.ranks = static_cast<std::int32_t>(n.number);
        ranks_seen = true;
      } else {
        program.stmts.push_back(parse_stmt());
      }
    }
    if (!ranks_seen) throw DslError(1, "program must declare 'ranks N'");
    return program;
  }

 private:
  Token expect(TokKind kind, const std::string& what) {
    const Token t = lexer_.take();
    if (t.kind != kind) throw DslError(t.line, "expected " + what);
    return t;
  }

  Token expect_ident(const std::string& word) {
    const Token t = lexer_.take();
    if (t.kind != TokKind::kIdent || t.text != word) {
      throw DslError(t.line, "expected '" + word + "'");
    }
    return t;
  }

  StmtPtr parse_stmt() {
    const Token t = lexer_.take();
    if (t.kind != TokKind::kIdent) throw DslError(t.line, "expected a statement keyword");
    auto stmt = std::make_unique<Stmt>();
    stmt->line = t.line;
    const std::string& kw = t.text;
    using K = Stmt::Kind;
    static const std::map<std::string, K> path_ops{
        {"create", K::kCreate}, {"open", K::kOpen},     {"close", K::kClose},
        {"stat", K::kStat},     {"unlink", K::kUnlink}, {"mkdir", K::kMkdir},
        {"readdir", K::kReaddir}, {"fsync", K::kFsync},
    };
    if (const auto it = path_ops.find(kw); it != path_ops.end()) {
      stmt->kind = it->second;
      stmt->path = parse_path();
      return stmt;
    }
    if (kw == "read" || kw == "write") {
      stmt->kind = kw == "read" ? K::kRead : K::kWrite;
      stmt->path = parse_path();
      expect_ident("at");
      stmt->offset = parse_expr();
      expect_ident("size");
      stmt->size = parse_expr();
      return stmt;
    }
    if (kw == "compute") {
      stmt->kind = K::kCompute;
      stmt->duration = parse_expr();
      return stmt;
    }
    if (kw == "barrier") {
      stmt->kind = K::kBarrier;
      return stmt;
    }
    if (kw == "loop") {
      stmt->kind = K::kLoop;
      stmt->loop_var = expect(TokKind::kIdent, "loop variable name").text;
      const Token n = expect(TokKind::kNumber, "loop count");
      if (n.number < 0) throw DslError(n.line, "negative loop count");
      stmt->loop_count = n.number;
      expect(TokKind::kLBrace, "'{'");
      descend(t.line);
      while (lexer_.peek().kind != TokKind::kRBrace) {
        if (lexer_.peek().kind == TokKind::kEnd) throw DslError(t.line, "unterminated loop body");
        stmt->body.push_back(parse_stmt());
      }
      lexer_.take();  // '}'
      --depth_;
      return stmt;
    }
    throw DslError(t.line, "unknown statement '" + kw + "'");
  }

  /// Parse a quoted path and split out `{expr}` substitutions.
  PathTemplate parse_path() {
    const Token t = expect(TokKind::kString, "a quoted path");
    PathTemplate tpl;
    std::string literal;
    std::size_t i = 0;
    const std::string& s = t.text;
    while (i < s.size()) {
      if (s[i] == '{') {
        const auto close = s.find('}', i);
        if (close == std::string::npos) throw DslError(t.line, "unterminated '{' in path");
        tpl.literals.push_back(literal);
        literal.clear();
        Parser sub{std::string_view{s}.substr(i + 1, close - i - 1)};
        tpl.exprs.push_back(sub.parse_expr_to_end(t.line));
        i = close + 1;
      } else {
        literal += s[i++];
      }
    }
    tpl.literals.push_back(literal);
    return tpl;
  }

  ExprPtr parse_expr_to_end(std::size_t line) {
    auto e = parse_expr();
    if (lexer_.peek().kind != TokKind::kEnd) throw DslError(line, "trailing tokens in {expr}");
    return e;
  }

  ExprPtr parse_expr() {
    auto lhs = parse_term();
    for (;;) {
      const TokKind k = lexer_.peek().kind;
      if (k != TokKind::kPlus && k != TokKind::kMinus) return lhs;
      const Token op = lexer_.take();
      auto rhs = parse_term();
      lhs = binary(k == TokKind::kPlus ? '+' : '-', op.line, std::move(lhs), std::move(rhs));
    }
  }

  ExprPtr parse_term() {
    auto lhs = parse_factor();
    for (;;) {
      const TokKind k = lexer_.peek().kind;
      if (k != TokKind::kStar && k != TokKind::kSlash && k != TokKind::kPercent) return lhs;
      const Token op = lexer_.take();
      auto rhs = parse_factor();
      const char c = k == TokKind::kStar ? '*' : k == TokKind::kSlash ? '/' : '%';
      lhs = binary(c, op.line, std::move(lhs), std::move(rhs));
    }
  }

  ExprPtr parse_factor() {
    const Token t = lexer_.take();
    auto node = std::make_unique<Expr>();
    node->line = t.line;
    switch (t.kind) {
      case TokKind::kNumber:
        node->kind = Expr::Kind::kConst;
        node->value = t.number;
        return node;
      case TokKind::kIdent:
        node->kind = Expr::Kind::kVar;
        node->var = t.text;
        return node;
      case TokKind::kLParen: {
        descend(t.line);
        auto inner = parse_expr();
        expect(TokKind::kRParen, "')'");
        --depth_;
        return inner;
      }
      default:
        throw DslError(t.line, "expected a number, variable, or '('");
    }
  }

  /// Enter a parenthesis or loop body (the caller leaves with --depth_).
  void descend(std::size_t line) {
    if (++depth_ > kMaxDepth) throw DslError(line, "nesting too deep");
  }

  /// The node `lhs op rhs`, refused past kMaxDepth levels.
  static ExprPtr binary(char op, std::size_t line, ExprPtr lhs, ExprPtr rhs) {
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kBinary;
    node->op = op;
    node->line = line;
    node->depth = 1 + std::max(lhs->depth, rhs->depth);
    if (node->depth > kMaxDepth) throw DslError(line, "expression too deep");
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  Lexer lexer_;
  int depth_ = 0;
};

// ---------------------------------------------------------------- expander

using Env = std::map<std::string, std::int64_t>;

std::int64_t eval(const Expr& expr, const Env& env) {
  switch (expr.kind) {
    case Expr::Kind::kConst:
      return expr.value;
    case Expr::Kind::kVar: {
      const auto it = env.find(expr.var);
      if (it == env.end()) throw DslError(expr.line, "unknown variable '" + expr.var + "'");
      return it->second;
    }
    case Expr::Kind::kBinary:
      return checked(expr.op, eval(*expr.lhs, env), eval(*expr.rhs, env), expr.line);
  }
  throw DslError(expr.line, "bad expression");
}

std::string expand_path(const PathTemplate& tpl, const Env& env) {
  std::string out = tpl.literals.front();
  for (std::size_t i = 0; i < tpl.exprs.size(); ++i) {
    out += std::to_string(eval(*tpl.exprs[i], env));
    out += tpl.literals[i + 1];
  }
  return out;
}

std::uint64_t to_unsigned(std::int64_t v, std::size_t line, const char* what) {
  if (v < 0) throw DslError(line, std::string("negative ") + what);
  return static_cast<std::uint64_t>(v);
}

/// Charge one expansion step against `steps`, the program's remaining budget.
void spend(std::uint64_t& steps, std::size_t line) {
  if (steps-- == 0) {
    throw DslError(line, "expands past " + std::to_string(kMaxExpansionSteps) + " steps");
  }
}

void expand(const std::vector<StmtPtr>& stmts, Env& env, PathTable& paths, std::vector<Op>& out,
            std::uint64_t& steps) {
  using K = Stmt::Kind;
  const auto file = [&](const Stmt& stmt) { return paths.intern(expand_path(stmt.path, env)); };
  for (const auto& stmt : stmts) {
    spend(steps, stmt->line);
    switch (stmt->kind) {
      case K::kCreate: out.push_back(Op::create(file(*stmt))); break;
      case K::kOpen: out.push_back(Op::open(file(*stmt))); break;
      case K::kClose: out.push_back(Op::close(file(*stmt))); break;
      case K::kStat: out.push_back(Op::stat(file(*stmt))); break;
      case K::kUnlink: out.push_back(Op::unlink(file(*stmt))); break;
      case K::kMkdir: out.push_back(Op::mkdir(file(*stmt))); break;
      case K::kReaddir: out.push_back(Op::readdir(file(*stmt))); break;
      case K::kFsync: out.push_back(Op::fsync(file(*stmt))); break;
      case K::kRead:
        out.push_back(Op::read(file(*stmt),
                               to_unsigned(eval(*stmt->offset, env), stmt->line, "offset"),
                               Bytes{to_unsigned(eval(*stmt->size, env), stmt->line, "size")}));
        break;
      case K::kWrite:
        out.push_back(Op::write(file(*stmt),
                                to_unsigned(eval(*stmt->offset, env), stmt->line, "offset"),
                                Bytes{to_unsigned(eval(*stmt->size, env), stmt->line, "size")}));
        break;
      case K::kCompute:
        out.push_back(Op::compute(SimTime::from_ns(
            static_cast<std::int64_t>(to_unsigned(eval(*stmt->duration, env), stmt->line,
                                                  "compute duration")))));
        break;
      case K::kBarrier: out.push_back(Op::barrier()); break;
      case K::kLoop: {
        if (env.contains(stmt->loop_var)) {
          throw DslError(stmt->line, "loop variable '" + stmt->loop_var + "' shadows another");
        }
        for (std::int64_t i = 0; i < stmt->loop_count; ++i) {
          spend(steps, stmt->line);
          env[stmt->loop_var] = i;
          expand(stmt->body, env, paths, out, steps);
        }
        env.erase(stmt->loop_var);
        break;
      }
    }
  }
}

}  // namespace

std::unique_ptr<Workload> parse_dsl(std::string_view source) {
  Parser parser{source};
  const Program program = parser.parse();
  std::vector<std::vector<Op>> per_rank(static_cast<std::size_t>(program.ranks));
  PathTable paths;
  std::uint64_t steps = kMaxExpansionSteps;
  // Loops erase their variable on the way out, so after each rank the
  // environment holds only these two bindings again.
  Env env{{"rank", 0}, {"ranks", program.ranks}};
  std::int64_t& rank = env.at("rank");
  for (std::int32_t r = 0; r < program.ranks; ++r) {
    rank = r;
    expand(program.stmts, env, paths, per_rank[static_cast<std::size_t>(r)], steps);
  }
  return std::make_unique<Workload>(program.name, std::move(paths), std::move(per_rank));
}

}  // namespace pio::workload
