#ifndef RTP_REGEX_REGEX_H_
#define RTP_REGEX_REGEX_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "regex/dense_dfa.h"
#include "regex/dfa.h"
#include "regex/regex_ast.h"
#include "regex/regex_parser.h"

namespace rtp::regex {

// A compiled regular expression: AST, minimized DFA, and the frozen dense
// transition table the evaluation hot path runs on. Copyable (clones the
// AST; the immutable dense table is shared). This is the value attached to
// pattern edges.
class Regex {
 public:
  // Parses and compiles. Fails on syntax errors.
  static StatusOr<Regex> Parse(Alphabet* alphabet, std::string_view text);

  // Compiles a programmatic AST.
  static Regex FromAst(RegexAst ast);

  // Like FromAst but skips DFA minimization (ablation experiments only;
  // semantics are identical, sizes are not).
  static Regex FromAstUnminimized(RegexAst ast);

  Regex(const Regex& other) { *this = other; }
  Regex& operator=(const Regex& other) {
    ast_ = CloneAst(*other.ast_);
    dfa_ = other.dfa_;
    dense_ = other.dense_;  // immutable, shared across copies
    return *this;
  }
  Regex(Regex&&) = default;
  Regex& operator=(Regex&&) = default;

  const RegexNode& ast() const { return *ast_; }
  const Dfa& dfa() const { return dfa_; }

  // Dense table compiled from dfa() at construction, shared by all copies.
  const DenseDfa& dense_dfa() const { return *dense_; }

  // A pattern edge label must be proper: the empty word is not in the
  // language (Definition 1).
  bool IsProper() const { return !dfa_.AcceptsEmptyWord(); }

  bool Matches(std::span<const LabelId> word) const { return dfa_.Accepts(word); }

  std::string ToString(const Alphabet& alphabet) const {
    return regex::ToString(*ast_, alphabet);
  }

  // Size |A_e| used in the paper's |R| definition: DFA state count.
  int32_t AutomatonSize() const { return dfa_.NumStates(); }

 private:
  Regex(RegexAst ast, Dfa dfa)
      : ast_(std::move(ast)),
        dfa_(std::move(dfa)),
        dense_(std::make_shared<const DenseDfa>(DenseDfa::Build(dfa_))) {}

  RegexAst ast_;
  Dfa dfa_;
  std::shared_ptr<const DenseDfa> dense_;
};

}  // namespace rtp::regex

#endif  // RTP_REGEX_REGEX_H_
