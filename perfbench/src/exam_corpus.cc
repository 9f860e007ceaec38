#include "exam_corpus.h"

#include <algorithm>
#include <array>
#include <random>

#include "pattern/pattern_writer.h"

#include "xml/document.h"
#include "xml/xml_io.h"

namespace perfbench {

std::string DisciplineName(int d) {
  std::string name = "d";
  return name + std::to_string(d);
}

std::string DateText(int day) {
  std::string date = "2009-06-";
  return date + std::to_string(day + 1);
}

std::string RankFor(int discipline, int mark) {
  return std::to_string((discipline * 31 + mark * 7) % 20 + 1);
}

std::string LevelText(int level) {
  return std::string(1, static_cast<char>('A' + level));
}

std::string YearFor(int level) { return std::to_string(2010 + 2 * level); }

namespace {

void AddTextElement(rtp::xml::Document* doc, rtp::xml::NodeId parent,
                    const char* label, const std::string& text) {
  doc->AddText(doc->AddElement(parent, label), text);
}

}  // namespace

std::string GenerateExamXml(uint32_t candidates, uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto draw = [&rng](int n) { return static_cast<int>(rng() % n); };
  rtp::Alphabet alphabet;
  rtp::xml::Document doc(&alphabet);
  rtp::xml::NodeId session = doc.AddElement(doc.root(), "session");
  std::array<int, kDisciplines> disciplines;
  for (int d = 0; d < kDisciplines; ++d) disciplines[d] = d;
  for (uint32_t i = 0; i < candidates; ++i) {
    rtp::xml::NodeId candidate = doc.AddElement(session, "candidate");
    char idn[16];
    std::snprintf(idn, sizeof(idn), "%06u", i);
    doc.AddAttribute(candidate, "@IDN", idn);
    std::shuffle(disciplines.begin(), disciplines.end(), rng);
    for (int e = 0; e < kExamsPerCandidate; ++e) {
      int mark = draw(kMarks);
      rtp::xml::NodeId exam = doc.AddElement(candidate, "exam");
      AddTextElement(&doc, exam, "discipline", DisciplineName(disciplines[e]));
      AddTextElement(&doc, exam, "date", DateText(draw(kDates)));
      AddTextElement(&doc, exam, "mark", std::to_string(mark));
      AddTextElement(&doc, exam, "rank", RankFor(disciplines[e], mark));
    }
    int level = draw(kLevels);
    AddTextElement(&doc, candidate, "level", LevelText(level));
    if (draw(2) == 0) {
      rtp::xml::NodeId tbp = doc.AddElement(candidate, "toBePassed");
      AddTextElement(&doc, tbp, "discipline",
                     DisciplineName(draw(kDisciplines)));
    } else {
      AddTextElement(&doc, candidate, "firstJob-Year", YearFor(level));
    }
  }
  return rtp::xml::WriteXml(doc, /*indent=*/false);
}

std::string PatternText(PatternMaker make) {
  rtp::Alphabet alphabet;
  rtp::pattern::ParsedPattern parsed = make(&alphabet);
  return rtp::pattern::PatternToDsl(parsed.pattern, alphabet, parsed.context);
}

std::optional<rtp::fd::FunctionalDependency> MakeFd(
    rtp::pattern::ParsedPattern parsed) {
  auto fd = rtp::fd::FunctionalDependency::FromParsed(std::move(parsed));
  if (!fd.ok()) return std::nullopt;
  return std::move(fd).value();
}

std::optional<rtp::update::UpdateClass> MakeUpdateClass(
    rtp::pattern::ParsedPattern parsed) {
  auto cls = rtp::update::UpdateClass::FromParsed(std::move(parsed));
  if (!cls.ok()) return std::nullopt;
  return std::move(cls).value();
}

std::optional<rtp::fd::FunctionalDependency> ParseFd(rtp::Alphabet* alphabet,
                                                     const std::string& text) {
  auto parsed = rtp::pattern::ParsePattern(alphabet, text);
  if (!parsed.ok()) return std::nullopt;
  return MakeFd(std::move(parsed).value());
}

std::optional<rtp::update::UpdateClass> ParseUpdateClass(
    rtp::Alphabet* alphabet, const std::string& text) {
  auto parsed = rtp::pattern::ParsePattern(alphabet, text);
  if (!parsed.ok()) return std::nullopt;
  return MakeUpdateClass(std::move(parsed).value());
}

}  // namespace perfbench
