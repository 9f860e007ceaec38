#include "regex/regex.h"

#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace rtp::regex {

StatusOr<Regex> Regex::Parse(Alphabet* alphabet, std::string_view text) {
  RTP_OBS_COUNT("regex.compilations");
  RTP_OBS_SCOPED_TIMER("regex.compile_ns");
  RTP_ASSIGN_OR_RETURN(RegexAst ast, ParseRegex(alphabet, text));
  Dfa dfa = Dfa::FromAst(*ast).Minimize();
  return Regex(std::move(ast), std::move(dfa));
}

Regex Regex::FromAst(RegexAst ast) {
  RTP_OBS_COUNT("regex.compilations");
  RTP_OBS_SCOPED_TIMER("regex.compile_ns");
  Dfa dfa = Dfa::FromAst(*ast).Minimize();
  return Regex(std::move(ast), std::move(dfa));
}

Regex Regex::FromAstUnminimized(RegexAst ast) {
  Dfa dfa = Dfa::FromAst(*ast);
  return Regex(std::move(ast), std::move(dfa));
}

}  // namespace rtp::regex
