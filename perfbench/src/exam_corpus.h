#ifndef PERFBENCH_EXAM_CORPUS_H_
#define PERFBENCH_EXAM_CORPUS_H_

// Seeded exam-session inputs (the shape of the paper's Figure 1) on which
// fd1, fd2 and fd5 hold, and stay holding under the benchmark's updates:
//   fd1  rank is a function of (discipline, mark)      -> RankFor
//   fd2  a candidate's exams have distinct disciplines
//   fd5  a graduated candidate's firstJob-Year is a function of level
//                                                      -> YearFor
// A violated FD would let CheckFd stop at the first violation and make an
// op's cost depend on the draw.

#include <cstdint>
#include <optional>
#include <string>

#include "fd/functional_dependency.h"
#include "pattern/pattern_parser.h"
#include "update/update_class.h"

namespace perfbench {

inline constexpr int kDisciplines = 8;
inline constexpr int kExamsPerCandidate = 4;
inline constexpr int kMarks = 21;
inline constexpr int kDates = 30;
inline constexpr int kLevels = 5;

std::string DisciplineName(int d);
std::string DateText(int day);
std::string RankFor(int discipline, int mark);
std::string LevelText(int level);
std::string YearFor(int level);

// XML text of an exam document with `candidates` candidates (about 42
// nodes each): candidate{@IDN, exam{discipline,date,mark,rank}x4, level,
// toBePassed{discipline} | firstJob-Year}.
std::string GenerateExamXml(uint32_t candidates, uint64_t seed);

// The paper's patterns as the library defines them
// (workload/paper_patterns.h), e.g. rtp::workload::PaperFd1.
using PatternMaker = rtp::pattern::ParsedPattern (*)(rtp::Alphabet*);

// The DSL text of a paper pattern, as sent to rtpd.
std::string PatternText(PatternMaker make);

// FD / update class of a pattern or its text; nullopt when rejected.
std::optional<rtp::fd::FunctionalDependency> MakeFd(
    rtp::pattern::ParsedPattern parsed);
std::optional<rtp::update::UpdateClass> MakeUpdateClass(
    rtp::pattern::ParsedPattern parsed);
std::optional<rtp::fd::FunctionalDependency> ParseFd(rtp::Alphabet* alphabet,
                                                     const std::string& text);
std::optional<rtp::update::UpdateClass> ParseUpdateClass(
    rtp::Alphabet* alphabet, const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_EXAM_CORPUS_H_
