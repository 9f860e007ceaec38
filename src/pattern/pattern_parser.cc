#include "pattern/pattern_parser.h"

#include <cctype>

#include "regex/regex_parser.h"

namespace rtp::pattern {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

class DslParser {
 public:
  DslParser(Alphabet* alphabet, std::string_view input)
      : alphabet_(alphabet), input_(input) {}

  StatusOr<ParsedPattern> Parse() {
    RTP_ASSIGN_OR_RETURN(std::string kw, ParseIdent());
    if (kw != "root") return Error("pattern must start with 'root'");
    RTP_RETURN_IF_ERROR(ParseBlock(TreePattern::kRoot));
    // Trailing clauses.
    while (true) {
      SkipSpace();
      if (Eof()) break;
      RTP_ASSIGN_OR_RETURN(std::string clause, ParseIdent());
      if (clause == "select") {
        RTP_RETURN_IF_ERROR(ParseSelect());
      } else if (clause == "context") {
        RTP_ASSIGN_OR_RETURN(std::string name, ParseIdent());
        RTP_ASSIGN_OR_RETURN(PatternNodeId node, Resolve(name));
        result_.context = node;
        if (!Eat(';')) return Error("expected ';' after context clause");
      } else {
        return Error("unknown clause '" + clause + "'");
      }
    }
    RTP_RETURN_IF_ERROR(result_.pattern.Validate());
    return std::move(result_);
  }

 private:
  bool Eof() {
    SkipSpace();
    return pos_ >= input_.size();
  }

  Status Error(std::string msg) const {
    return ParseError("pattern: " + msg + " at offset " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#' && input_.substr(pos_, 5) != "#text") {
        // '#' starts a comment — except the reserved '#text' label, the
        // only label beginning with '#'.
        while (pos_ < input_.size() && input_[pos_] != '\n') ++pos_;
      } else {
        return;
      }
    }
  }

  bool Eat(char c) {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  char Peek() {
    SkipSpace();
    return pos_ < input_.size() ? input_[pos_] : '\0';
  }

  StatusOr<std::string> ParseIdent() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < input_.size() && IsIdentChar(input_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected an identifier");
    return std::string(input_.substr(start, pos_ - start));
  }

  StatusOr<PatternNodeId> Resolve(const std::string& name) {
    auto it = result_.names.find(name);
    if (it == result_.names.end()) {
      // The template root needs no declaration; "root" resolves to it
      // unless shadowed by an explicitly named node.
      if (name == "root") return TreePattern::kRoot;
      return Error("unknown node name '" + name + "'");
    }
    return it->second;
  }

  // Parses "{ child* }" under `parent`. Blocks recurse through ParseChild,
  // so nesting is capped to keep adversarially deep input off the call
  // stack (edge regexes have their own cap in the regex parser).
  Status ParseBlock(PatternNodeId parent) {
    if (++depth_ > kMaxNestingDepth) {
      return ResourceExhaustedError(
          "pattern: block nesting depth exceeds " +
          std::to_string(kMaxNestingDepth) + " at offset " +
          std::to_string(pos_));
    }
    Status status = ParseBlockBody(parent);
    --depth_;
    return status;
  }

  Status ParseBlockBody(PatternNodeId parent) {
    if (!Eat('{')) return Error("expected '{'");
    while (!Eat('}')) {
      if (Eof()) return Error("unterminated '{'");
      RTP_RETURN_IF_ERROR(ParseChild(parent));
    }
    return Status::OK();
  }

  // Parses "[NAME =] REGEX ( '{' ... '}' | ';' )".
  Status ParseChild(PatternNodeId parent) {
    SkipSpace();
    // Look ahead for "NAME =" (regexes never contain '=').
    std::string name;
    size_t save = pos_;
    size_t p = pos_;
    while (p < input_.size() && IsIdentChar(input_[p])) ++p;
    size_t after_ident = p;
    while (p < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[p]))) {
      ++p;
    }
    if (after_ident > pos_ && p < input_.size() && input_[p] == '=') {
      name = std::string(input_.substr(pos_, after_ident - pos_));
      pos_ = p + 1;
    } else {
      pos_ = save;
    }
    // Regex text runs to the first '{' or ';' (comments cannot appear
    // inside an edge expression; '#text' is a label, not a comment).
    SkipSpace();
    size_t regex_start = pos_;
    while (pos_ < input_.size() && input_[pos_] != '{' && input_[pos_] != ';') {
      ++pos_;
    }
    std::string_view regex_text =
        input_.substr(regex_start, pos_ - regex_start);
    RTP_ASSIGN_OR_RETURN(regex::RegexAst ast,
                         regex::ParseRegex(alphabet_, regex_text));
    PatternNodeId node = result_.pattern.AddChild(
        parent, regex::Regex::FromAst(std::move(ast)));
    if (!name.empty()) {
      if (!result_.names.emplace(name, node).second) {
        return Error("duplicate node name '" + name + "'");
      }
    }
    if (Peek() == '{') return ParseBlock(node);
    if (!Eat(';')) return Error("expected ';' or '{' after edge expression");
    return Status::OK();
  }

  Status ParseSelect() {
    std::vector<SelectedNode> selected;
    while (true) {
      RTP_ASSIGN_OR_RETURN(std::string name, ParseIdent());
      RTP_ASSIGN_OR_RETURN(PatternNodeId node, Resolve(name));
      EqualityType eq = EqualityType::kValue;
      if (Eat('[')) {
        RTP_ASSIGN_OR_RETURN(std::string type, ParseIdent());
        if (type == "V") {
          eq = EqualityType::kValue;
        } else if (type == "N") {
          eq = EqualityType::kNode;
        } else {
          return Error("equality type must be V or N, got '" + type + "'");
        }
        if (!Eat(']')) return Error("expected ']'");
      }
      selected.push_back(SelectedNode{node, eq});
      if (Eat(',')) continue;
      if (Eat(';')) break;
      return Error("expected ',' or ';' in select clause");
    }
    result_.pattern.set_selected(std::move(selected));
    return Status::OK();
  }

  static constexpr int kMaxNestingDepth = 256;

  Alphabet* alphabet_;
  std::string_view input_;
  size_t pos_ = 0;
  int depth_ = 0;
  ParsedPattern result_;
};

}  // namespace

StatusOr<ParsedPattern> ParsePattern(Alphabet* alphabet,
                                     std::string_view input) {
  return DslParser(alphabet, input).Parse();
}

}  // namespace rtp::pattern
