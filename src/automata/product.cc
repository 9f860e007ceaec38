#include "automata/product.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "guard/failpoints.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"

namespace rtp::automata {

namespace {

// Symbols a horizontal DFA can consume from a given state: its explicit
// keys, plus (when `otherwise` is live) every other automaton state.
std::vector<StateId> ConsumableSymbols(const regex::Dfa& dfa, int32_t h,
                                       int32_t num_automaton_states) {
  const regex::Dfa::State& state = dfa.state(h);
  std::vector<StateId> symbols;
  if (state.otherwise != regex::kDeadState) {
    symbols.reserve(num_automaton_states);
    for (StateId q = 0; q < num_automaton_states; ++q) symbols.push_back(q);
    return symbols;
  }
  symbols.reserve(state.next.size());
  for (const auto& [label, target] : state.next) {
    if (target != regex::kDeadState) {
      symbols.push_back(static_cast<StateId>(label));
    }
  }
  return symbols;
}

// Builds the product horizontal DFA for one transition pair of a product
// of width w (see Product below). Product symbols are
// (qa * nb + qb) * w + m; states are (h1, h2, orbit) with orbit |= m, the
// met value seen among the children so far. The parent's met is
// own_mark || orbit, clamped to w - 1 like every m of the product, and
// the DFA accepts iff both components accept and that value is
// `target_m`.
regex::Dfa ProductHorizontal(const regex::Dfa& ha, const regex::Dfa& hb,
                             int32_t na, int32_t nb, int w, bool own_mark,
                             int target_m, const HedgeAutomaton& a,
                             const HedgeAutomaton& b) {
  struct Key {
    int32_t h1, h2;
    int orbit;
    bool operator<(const Key& other) const {
      return std::tie(h1, h2, orbit) < std::tie(other.h1, other.h2, other.orbit);
    }
  };
  std::map<Key, int32_t> ids;
  std::vector<Key> order;
  std::vector<regex::Dfa::State> states;

  auto intern = [&](Key key) {
    auto [it, inserted] = ids.emplace(key, static_cast<int32_t>(ids.size()));
    if (inserted) {
      order.push_back(key);
      states.emplace_back();
      guard::AccountStates(1);
    }
    return it->second;
  };

  int32_t initial = intern({ha.initial(), hb.initial(), 0});
  // One poll per expanded product state; a trip abandons the tail of
  // `order`, leaving those states transitionless (callers discard the
  // automaton through the guard's Status).
  for (size_t i = 0; i < order.size(); ++i) {
    if (!guard::KeepGoing()) break;
    Key key = order[i];
    int met = std::min(own_mark || key.orbit == 1 ? 1 : 0, w - 1);
    states[i].accepting =
        ha.accepting(key.h1) && hb.accepting(key.h2) && met == target_m;
    // Enumerate consumable product symbols.
    for (StateId qa : ConsumableSymbols(ha, key.h1, na)) {
      int32_t nh1 = ha.Next(key.h1, static_cast<LabelId>(qa));
      if (nh1 == regex::kDeadState) continue;
      for (StateId qb : ConsumableSymbols(hb, key.h2, nb)) {
        int32_t nh2 = hb.Next(key.h2, static_cast<LabelId>(qb));
        if (nh2 == regex::kDeadState) continue;
        // A child can only report m if its own state allows it; we
        // conservatively enumerate every m and rely on child states
        // (qa, qb, m) being inhabited only when consistent. A child whose
        // own marks meet always reports the top value w - 1.
        bool child_marks = a.mark(qa) && b.mark(qb);
        for (int m = child_marks ? w - 1 : 0; m < w; ++m) {
          LabelId symbol = static_cast<LabelId>((qa * nb + qb) * w + m);
          int32_t target = intern({nh1, nh2, key.orbit | m});
          states[i].next.emplace(symbol, target);
        }
      }
    }
  }

  RTP_OBS_COUNT_N("automata.product.horizontal_states_built", states.size());
  return regex::Dfa::FromStates(std::move(states), initial);
}

// The one product construction. State (qa, qb, m) is packed
// (qa * nb + qb) * w + m. With w = 2, m is the criterion's met bit and a
// state is marked iff m = 1; with w = 1, m is always 0 (met is not
// tracked) and a state's mark is the conjunction of its components'.
HedgeAutomaton Product(const HedgeAutomaton& a, const HedgeAutomaton& b,
                       int w) {
  RTP_OBS_SCOPED_TIMER("automata.product.ns");
  RTP_FAILPOINT("automata.product");
  int32_t na = a.NumStates();
  int32_t nb = b.NumStates();
  HedgeAutomaton out;
  // The dense state numbering below requires all na*nb*w states, so the
  // quota is charged up front: a huge product trips before allocating.
  guard::AccountStates(static_cast<int64_t>(na) * nb * w);
  if (!guard::Ok()) return out;
  for (StateId qa = 0; qa < na; ++qa) {
    for (StateId qb = 0; qb < nb; ++qb) {
      for (int m = 0; m < w; ++m) {
        bool mark = w == 1 ? a.mark(qa) && b.mark(qb) : m == 1;
        StateId q = out.AddState(mark);
        RTP_CHECK(q == (qa * nb + qb) * w + m);
      }
    }
  }
  size_t guard_pruned = 0;
  for (const auto& ta : a.transitions()) {
    if (!guard::KeepGoing()) break;
    for (const auto& tb : b.transitions()) {
      std::optional<Guard> guard = Guard::Intersect(ta.guard, tb.guard);
      if (!guard.has_value()) {
        ++guard_pruned;
        continue;
      }
      // A node whose own marks meet has met = 1: no m = 0 variant.
      bool own_mark = a.mark(ta.target) && b.mark(tb.target);
      for (int m = own_mark ? w - 1 : 0; m < w; ++m) {
        regex::Dfa horizontal =
            ProductHorizontal(ta.horizontal, tb.horizontal, na, nb, w,
                              own_mark, m, a, b);
        out.AddTransition(*guard, std::move(horizontal),
                          (ta.target * nb + tb.target) * w + m);
      }
    }
  }
  for (StateId ra : a.root_accepting()) {
    for (StateId rb : b.root_accepting()) {
      out.AddRootAccepting((ra * nb + rb) * w + w - 1);
    }
  }
  RTP_OBS_COUNT_N("automata.product.states_built", out.NumStates());
  RTP_OBS_COUNT_N("automata.product.transitions_built",
                  out.transitions().size());
  RTP_OBS_COUNT_N("automata.product.guard_pruned", guard_pruned);
  RTP_OBS_HISTOGRAM_RECORD("automata.product.total_size", out.TotalSize());
  return out;
}

}  // namespace

HedgeAutomaton Intersect(const HedgeAutomaton& a, const HedgeAutomaton& b) {
  RTP_OBS_COUNT("automata.product.intersections");
  RTP_OBS_TRACE_SPAN("automata.Intersect");
  return Product(a, b, /*w=*/1);
}

HedgeAutomaton MeetProduct(const HedgeAutomaton& a, const HedgeAutomaton& b) {
  RTP_OBS_COUNT("automata.product.meet_products");
  RTP_OBS_TRACE_SPAN("automata.MeetProduct");
  return Product(a, b, /*w=*/2);
}

}  // namespace rtp::automata
