#include "automata/hedge_automaton.h"

#include <algorithm>
#include <deque>
#include <set>

#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "regex/regex_ast.h"

namespace rtp::automata {

using xml::Document;
using xml::kInvalidNode;
using xml::NodeId;

Guard Guard::AnyExcept(std::vector<LabelId> excluded) {
  std::sort(excluded.begin(), excluded.end());
  excluded.erase(std::unique(excluded.begin(), excluded.end()),
                 excluded.end());
  return Guard{Kind::kAnyExcept, kInvalidLabel, std::move(excluded)};
}

bool Guard::Admits(LabelId l) const {
  if (kind == Kind::kLabel) return l == label;
  return !std::binary_search(excluded.begin(), excluded.end(), l);
}

std::optional<Guard> Guard::Intersect(const Guard& a, const Guard& b) {
  if (a.kind == Kind::kLabel) {
    if (!b.Admits(a.label)) return std::nullopt;
    return a;
  }
  if (b.kind == Kind::kLabel) {
    if (!a.Admits(b.label)) return std::nullopt;
    return b;
  }
  std::vector<LabelId> merged = a.excluded;
  merged.insert(merged.end(), b.excluded.begin(), b.excluded.end());
  return AnyExcept(std::move(merged));
}

LabelId Guard::RepresentativeElementLabel(Alphabet* alphabet) const {
  if (kind == Kind::kLabel) return label;
  for (LabelId id = 0; id < alphabet->size(); ++id) {
    if (id == Alphabet::kRootLabel) continue;
    if (alphabet->Kind(id) != LabelKind::kElement) continue;
    if (Admits(id)) return id;
  }
  // Every interned element label is excluded: intern a fresh one.
  for (int i = 0;; ++i) {
    std::string name = "anyElem" + (i == 0 ? "" : std::to_string(i));
    LabelId id = alphabet->Intern(name);
    if (Admits(id)) return id;
  }
}

int64_t HedgeAutomaton::TotalSize() const {
  int64_t size = NumStates();
  for (const Transition& t : transitions_) {
    size += 1 + t.horizontal.NumStates();
  }
  return size;
}

std::vector<std::vector<StateId>> HedgeAutomaton::Run(
    const Document& doc) const {
  RTP_OBS_COUNT("automata.run.documents");
  RTP_OBS_SCOPED_TIMER("automata.run.ns");
  std::vector<std::vector<StateId>> assigned(doc.ArenaSize());

  // Postorder traversal.
  std::vector<NodeId> postorder;
  {
    std::vector<NodeId> stack = {doc.root()};
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      postorder.push_back(v);
      for (NodeId c = doc.first_child(v); c != kInvalidNode;
           c = doc.next_sibling(c)) {
        stack.push_back(c);
      }
    }
    std::reverse(postorder.begin(), postorder.end());
  }

  std::vector<StateId> h_states;  // scratch: current horizontal NFA set
  std::vector<StateId> h_next;
  for (NodeId v : postorder) {
    if (!guard::KeepGoing()) break;
    LabelId label = doc.label(v);
    std::vector<StateId>& out = assigned[v];
    for (const Transition& t : transitions_) {
      if (!t.guard.Admits(label)) continue;
      // Simulate the horizontal DFA over children state *sets*.
      h_states.assign(1, t.horizontal.initial());
      bool dead = false;
      for (NodeId c = doc.first_child(v); c != kInvalidNode && !dead;
           c = doc.next_sibling(c)) {
        h_next.clear();
        for (StateId h : h_states) {
          for (StateId q : assigned[c]) {
            int32_t nh = t.horizontal.Next(h, static_cast<LabelId>(q));
            if (nh != regex::kDeadState) h_next.push_back(nh);
          }
        }
        std::sort(h_next.begin(), h_next.end());
        h_next.erase(std::unique(h_next.begin(), h_next.end()), h_next.end());
        h_states.swap(h_next);
        dead = h_states.empty();
      }
      if (dead) continue;
      bool accepted = false;
      for (StateId h : h_states) {
        if (t.horizontal.accepting(h)) {
          accepted = true;
          break;
        }
      }
      if (accepted) out.push_back(t.target);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return assigned;
}

bool HedgeAutomaton::Accepts(const Document& doc) const {
  std::vector<std::vector<StateId>> assigned = Run(doc);
  const std::vector<StateId>& root_states = assigned[doc.root()];
  for (StateId q : root_accepting_) {
    if (std::binary_search(root_states.begin(), root_states.end(), q)) {
      return true;
    }
  }
  return false;
}

std::optional<std::vector<StateId>> HedgeAutomaton::AcceptedWordOver(
    const regex::Dfa& dfa, const std::vector<bool>& inhabited) {
  // BFS over DFA states; edges labeled by inhabited state symbols.
  struct Step {
    int32_t prev;
    StateId symbol;
  };
  std::vector<Step> steps(dfa.NumStates(), Step{-1, -1});
  std::vector<bool> seen(dfa.NumStates(), false);
  std::deque<int32_t> work = {dfa.initial()};
  seen[dfa.initial()] = true;
  int32_t found = -1;
  while (!work.empty()) {
    if (!guard::KeepGoing()) return std::nullopt;
    int32_t h = work.front();
    work.pop_front();
    if (dfa.accepting(h)) {
      found = h;
      break;
    }
    for (size_t q = 0; q < inhabited.size(); ++q) {
      if (!inhabited[q]) continue;
      int32_t nh = dfa.Next(h, static_cast<LabelId>(q));
      if (nh == regex::kDeadState || seen[nh]) continue;
      seen[nh] = true;
      steps[nh] = Step{h, static_cast<StateId>(q)};
      work.push_back(nh);
    }
  }
  if (found == -1) return std::nullopt;
  std::vector<StateId> word;
  for (int32_t h = found; h != dfa.initial(); h = steps[h].prev) {
    word.push_back(steps[h].symbol);
  }
  std::reverse(word.begin(), word.end());
  return word;
}

std::vector<std::optional<HedgeAutomaton::Recipe>> HedgeAutomaton::Saturate()
    const {
  RTP_OBS_SCOPED_TIMER("automata.emptiness.saturate_ns");
  std::vector<std::optional<Recipe>> recipes(NumStates());
  std::vector<bool> inhabited(NumStates(), false);
  size_t iterations = 0;
  size_t num_inhabited = 0;
  bool changed = true;
  while (changed && guard::Ok()) {
    changed = false;
    ++iterations;
    for (size_t i = 0; i < transitions_.size(); ++i) {
      if (!guard::KeepGoing()) break;
      const Transition& t = transitions_[i];
      if (inhabited[t.target]) continue;
      auto word = AcceptedWordOver(t.horizontal, inhabited);
      if (!word.has_value()) continue;
      inhabited[t.target] = true;
      ++num_inhabited;
      recipes[t.target] =
          Recipe{static_cast<int32_t>(i), std::move(*word)};
      changed = true;
    }
  }
  RTP_OBS_COUNT_N("automata.emptiness.fixpoint_iterations", iterations);
  RTP_OBS_COUNT_N("automata.emptiness.states_inhabited", num_inhabited);
  RTP_OBS_COUNT_N("automata.emptiness.states_pruned",
                  static_cast<size_t>(NumStates()) - num_inhabited);
  return recipes;
}

std::optional<std::vector<StateId>> HedgeAutomaton::RootChildWord(
    std::vector<std::optional<Recipe>>* recipes) const {
  *recipes = Saturate();
  std::vector<bool> inhabited(NumStates(), false);
  for (StateId q = 0; q < NumStates(); ++q) {
    inhabited[q] = (*recipes)[q].has_value();
  }
  for (const Transition& t : transitions_) {
    if (!t.guard.Admits(Alphabet::kRootLabel)) continue;
    if (std::find(root_accepting_.begin(), root_accepting_.end(), t.target) ==
        root_accepting_.end()) {
      continue;
    }
    auto word = AcceptedWordOver(t.horizontal, inhabited);
    if (word.has_value()) return word;
  }
  return std::nullopt;
}

bool HedgeAutomaton::IsEmptyLanguage() const {
  RTP_OBS_COUNT("automata.emptiness.checks");
  RTP_OBS_SCOPED_TIMER("automata.emptiness.ns");
  RTP_OBS_TRACE_SPAN("automata.IsEmptyLanguage");
  std::vector<std::optional<Recipe>> recipes;
  return !RootChildWord(&recipes).has_value();
}

StatusOr<Document> HedgeAutomaton::FindWitnessDocument(
    Alphabet* alphabet) const {
  std::vector<std::optional<Recipe>> recipes;
  std::optional<std::vector<StateId>> root_word = RootChildWord(&recipes);
  if (!root_word.has_value()) {
    return NotFoundError("the automaton's language is empty");
  }

  Document doc(alphabet);
  // Recursively materialize each state of the word under `parent`.
  // (Recursion depth is bounded by the saturation order: recipes only
  // reference states inhabited strictly earlier.)
  struct Builder {
    const HedgeAutomaton& automaton;
    const std::vector<std::optional<Recipe>>& recipes;
    Alphabet* alphabet;
    Document* doc;

    void Build(StateId q, NodeId parent) {
      const Recipe& recipe = *recipes[q];
      const Transition& t = automaton.transitions_[recipe.transition];
      LabelId label;
      xml::NodeType type;
      if (recipe.child_word.empty()) {
        // Leaves may use attribute/text labels.
        label = t.guard.kind == Guard::Kind::kLabel
                    ? t.guard.label
                    : t.guard.RepresentativeElementLabel(alphabet);
        switch (alphabet->Kind(label)) {
          case LabelKind::kAttribute:
            type = xml::NodeType::kAttribute;
            break;
          case LabelKind::kText:
            type = xml::NodeType::kText;
            break;
          default:
            type = xml::NodeType::kElement;
        }
      } else {
        label = t.guard.RepresentativeElementLabel(alphabet);
        RTP_CHECK_MSG(alphabet->Kind(label) == LabelKind::kElement,
                      "internal witness node needs an element label");
        type = xml::NodeType::kElement;
      }
      NodeId node = doc->AddChild(
          parent, label, type,
          type == xml::NodeType::kElement ? "" : "w");
      for (StateId child : recipe.child_word) Build(child, node);
    }
  };
  Builder builder{*this, recipes, alphabet, &doc};
  for (StateId q : *root_word) builder.Build(q, doc.root());
  return doc;
}

HedgeAutomaton HedgeAutomaton::Universal() {
  HedgeAutomaton a;
  StateId q = a.AddState(false);
  // Horizontal: q* .
  regex::Dfa::State h;
  h.accepting = true;
  h.next.emplace(static_cast<LabelId>(q), 0);
  a.AddTransition(Guard::Any(), regex::Dfa::FromStates({h}, 0), q);
  a.AddRootAccepting(q);
  return a;
}

regex::Dfa InterleavedHorizontal(const std::vector<std::vector<StateId>>& parts,
                                 const std::vector<StateId>& fillers) {
  using regex::RegexAst;
  std::vector<RegexAst> seq;
  auto filler_star = [&fillers]() -> RegexAst {
    std::vector<RegexAst> alts;
    for (StateId f : fillers) alts.push_back(regex::Sym(static_cast<LabelId>(f)));
    if (alts.empty()) {
      // No fillers allowed: empty-word-only filler. Star of an impossible
      // symbol is awkward with this AST; return nullptr to signal "skip".
      return nullptr;
    }
    return regex::Star(regex::Alt(std::move(alts)));
  };
  RegexAst fill = filler_star();
  auto append_fill = [&seq, &fillers, &fill]() {
    if (!fillers.empty()) seq.push_back(regex::CloneAst(*fill));
  };
  append_fill();
  for (const std::vector<StateId>& part : parts) {
    RTP_CHECK(!part.empty());
    std::vector<RegexAst> alts;
    for (StateId q : part) alts.push_back(regex::Sym(static_cast<LabelId>(q)));
    seq.push_back(regex::Alt(std::move(alts)));
    append_fill();
  }
  if (seq.empty()) {
    // No parts and no fillers: accept exactly the empty word.
    regex::Dfa::State only;
    only.accepting = true;
    return regex::Dfa::FromStates({only}, 0);
  }
  return regex::Dfa::FromAst(*regex::Cat(std::move(seq))).Minimize();
}

}  // namespace rtp::automata
