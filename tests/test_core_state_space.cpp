// Tests for DFS state-space enumeration and rate-matrix assembly.
#include <gtest/gtest.h>

#include <set>

#include "core/models.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "sparse/dia.hpp"
#include "sparse/format_stats.hpp"

namespace cmesolve::core {
namespace {

/// Birth-death network: 0 -> X (rate birth), X -> 0 (rate death * x).
ReactionNetwork birth_death(std::int32_t cap, real_t birth, real_t death) {
  ReactionNetwork net;
  const int x = net.add_species("X", cap);
  net.add_reaction("birth", birth, {}, {{x, +1}});
  net.add_reaction("death", death, {{x, 1}}, {{x, -1}});
  return net;
}

TEST(StateSpace, BirthDeathEnumeratesWholeChain) {
  const auto net = birth_death(25, 3.0, 1.0);
  const StateSpace space(net, State{0}, 1000);
  EXPECT_EQ(space.size(), 26);
  EXPECT_FALSE(space.truncated());
}

TEST(StateSpace, DfsOrderIsTheChainOrder) {
  const auto net = birth_death(10, 1.0, 1.0);
  const StateSpace space(net, State{0}, 1000);
  for (index_t i = 0; i <= 10; ++i) {
    EXPECT_EQ(space.count(i, 0), i) << "DFS must walk the chain in order";
  }
}

TEST(StateSpace, FindLocatesEveryState) {
  const auto net = birth_death(15, 1.0, 1.0);
  const StateSpace space(net, State{0}, 1000);
  for (index_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.find(space.state(i)), i);
  }
  EXPECT_EQ(space.find(State{16}), -1);
  EXPECT_EQ(space.find(State{-1}), -1);
}

TEST(StateSpace, TruncationFlag) {
  const auto net = birth_death(1000, 1.0, 1.0);
  const StateSpace space(net, State{0}, 10);
  EXPECT_TRUE(space.truncated());
  EXPECT_EQ(space.size(), 10);
}

TEST(StateSpace, SpeciesFreeNetworkHasOneState) {
  const ReactionNetwork net;
  const StateSpace space(net, State{}, 10);
  EXPECT_EQ(space.size(), 1);
  EXPECT_EQ(space.find(State{}), 0);
}

TEST(StateSpace, InvalidInitialThrows) {
  const auto net = birth_death(5, 1.0, 1.0);
  EXPECT_THROW(StateSpace(net, State{7}, 100), std::invalid_argument);
}

TEST(StateSpace, BrusselatorCoversTheBox) {
  models::BrusselatorParams p;
  p.cap_x = 12;
  p.cap_y = 7;
  const auto net = models::brusselator(p);
  const StateSpace space(net, models::brusselator_initial(p), 100000);
  EXPECT_EQ(space.size(), 13 * 8);  // feed/convert reach every (x, y)
}

TEST(StateSpace, ToggleSwitchReachesAllGeneCombinations) {
  models::ToggleSwitchParams p;
  p.cap_a = p.cap_b = 8;
  const auto net = models::toggle_switch(p);
  const StateSpace space(net, models::toggle_switch_initial(p), 100000);
  std::set<std::pair<int, int>> gene_states;
  const int ga = net.find_species("geneA_free");
  const int gb = net.find_species("geneB_free");
  for (index_t i = 0; i < space.size(); ++i) {
    gene_states.insert({space.count(i, ga), space.count(i, gb)});
  }
  EXPECT_EQ(gene_states.size(), 4u);
  // Operator occupancy conservation: free + bound = 1 in every state.
  const int gab = net.find_species("geneA_bound");
  for (index_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.count(i, ga) + space.count(i, gab), 1);
  }
}

TEST(StateSpace, DfsChainsReversiblePairsAdjacently) {
  // The fraction of consecutive index pairs connected by one reaction step
  // must be high — this is what fills the {-1,0,+1} band (Sec. V).
  models::ToggleSwitchParams p;
  p.cap_a = p.cap_b = 20;
  const auto net = models::toggle_switch(p);
  const StateSpace space(net, models::toggle_switch_initial(p), 100000);

  index_t adjacent = 0;
  for (index_t i = 0; i + 1 < space.size(); ++i) {
    const State a = space.state(i);
    bool connected = false;
    for (int k = 0; k < net.num_reactions() && !connected; ++k) {
      if (net.applicable(k, a) && space.find(net.apply(k, a)) == i + 1) {
        connected = true;
      }
    }
    adjacent += connected;
  }
  EXPECT_GT(static_cast<real_t>(adjacent) / static_cast<real_t>(space.size()),
            0.8);
}

// --- pinned visit order ------------------------------------------------------
//
// FNV-1a signatures of whole enumerations, computed with the node-map
// implementation the flat index replaced. Any change to the DFS/BFS/random
// visit order, to applicability, or to the pop-time indexing rule moves them.

/// FNV-1a over every count(i, s) (4 little-endian bytes each), then size()
/// (8 bytes) and truncated() (1 byte).
template <class Space>
std::uint64_t order_signature(const Space& space, bool truncated) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      h ^= (v >> (8 * b)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  };
  for (index_t i = 0; i < space.size(); ++i) {
    for (int s = 0; s < space.num_species(); ++s) {
      mix(static_cast<std::uint32_t>(space.count(i, s)), 4);
    }
  }
  mix(static_cast<std::uint64_t>(space.size()), 8);
  mix(truncated ? 1U : 0U, 1);
  return h;
}

struct OrderCase {
  const char* name;
  ReactionNetwork network;
  State initial;
  std::size_t max_states;
  VisitOrder order;
  std::uint64_t signature;
};

std::vector<OrderCase> order_cases() {
  models::ToggleSwitchParams tp;
  tp.cap_a = tp.cap_b = 8;
  models::ToggleSwitchParams tp_big;
  tp_big.cap_a = tp_big.cap_b = 20;
  models::BrusselatorParams bp;
  bp.cap_x = 12;
  bp.cap_y = 7;
  models::PhageLambdaParams pp;
  pp.cap_ci = pp.cap_cro = 6;
  pp.cap_ci2 = pp.cap_cro2 = 3;
  const auto toggle = models::toggle_switch(tp);
  const auto toggle_big = models::toggle_switch(tp_big);
  const auto bruss = models::brusselator(bp);
  const auto phage = models::phage_lambda(pp);
  const auto ti = models::toggle_switch_initial(tp);
  const auto tbi = models::toggle_switch_initial(tp_big);
  const auto bi = models::brusselator_initial(bp);
  const auto pi = models::phage_lambda_initial(pp);
  constexpr std::size_t kAll = 1'000'000;
  using enum VisitOrder;
  return {
      {"toggle-dfs", toggle, ti, kAll, kDfs, 4574087264998370430ULL},
      {"toggle-bfs", toggle, ti, kAll, kBfs, 13833727565192524542ULL},
      {"toggle-random", toggle, ti, kAll, kRandom, 10641417357924640830ULL},
      {"brusselator-dfs", bruss, bi, kAll, kDfs, 6069136117054018615ULL},
      {"brusselator-bfs", bruss, bi, kAll, kBfs, 5623406080107779511ULL},
      {"brusselator-random", bruss, bi, kAll, kRandom, 16131411536113312663ULL},
      {"phage-dfs", phage, pi, kAll, kDfs, 3692332850939018713ULL},
      {"phage-bfs", phage, pi, kAll, kBfs, 7973248585014161689ULL},
      {"phage-random", phage, pi, kAll, kRandom, 13880813657902414201ULL},
      {"toggle20-dfs-truncated", toggle_big, tbi, 300, kDfs,
       10188632432317458925ULL},
      {"toggle20-bfs-truncated", toggle_big, tbi, 300, kBfs,
       10894710637063536363ULL},
  };
}

TEST(StateSpaceOrder, SignaturesPinnedForEveryVisitOrder) {
  for (const auto& c : order_cases()) {
    const StateSpace space(c.network, c.initial, c.max_states, c.order, 42);
    EXPECT_EQ(order_signature(space, space.truncated()), c.signature)
        << c.name << " (" << space.size() << " states)";
    for (index_t i = 0; i < space.size(); ++i) {
      ASSERT_EQ(space.find(space.state(i)), i) << c.name;
    }
  }
}

TEST(StateSpaceOrder, DynamicAddGrowCompactFindPinned) {
  models::ToggleSwitchParams tp;
  tp.cap_a = tp.cap_b = 12;
  const auto net = models::toggle_switch(tp);
  DynamicStateSpace space(net, models::toggle_switch_initial(tp));
  State extra = models::toggle_switch_initial(tp);
  extra[0] = 5;
  const index_t added = space.add(extra);
  EXPECT_EQ(space.add(extra), added) << "re-adding a member keeps its index";
  space.grow_bfs(400);
  EXPECT_EQ(order_signature(space, false), 2804928478052881035ULL)
      << "after grow_bfs";

  std::vector<char> keep(static_cast<std::size_t>(space.size()));
  for (std::size_t i = 0; i < keep.size(); ++i) keep[i] = (i % 3 != 1);
  const State dropped = space.state(1);
  const auto remap = space.compact(keep);
  EXPECT_EQ(order_signature(space, false), 2434007879828830666ULL)
      << "after compact";
  for (std::size_t i = 0; i < remap.size(); ++i) {
    EXPECT_EQ(remap[i], keep[i] ? static_cast<index_t>(i - (i + 1) / 3) : -1);
  }
  for (index_t i = 0; i < space.size(); ++i) {
    ASSERT_EQ(space.find(space.state(i)), i);
  }
  ASSERT_TRUE(net.valid_state(dropped));
  EXPECT_EQ(space.find(dropped), -1) << "in-box non-member";

  space.grow_bfs(700);
  EXPECT_EQ(order_signature(space, false), 6438094204079408157ULL)
      << "after regrowth";
  for (index_t i = 0; i < space.size(); ++i) {
    ASSERT_EQ(space.find(space.state(i)), i);
  }
}

// --- rate matrix ----------------------------------------------------------------

TEST(RateMatrix, BirthDeathEntries) {
  const auto net = birth_death(4, 3.0, 2.0);
  const StateSpace space(net, State{0}, 100);
  const auto a = rate_matrix(space);
  ASSERT_EQ(a.nrows, 5);
  // Column j: birth 3.0 to j+1, death 2*j to j-1, diagonal balances.
  EXPECT_DOUBLE_EQ(a.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), -3.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), 3.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), -5.0);
  // Top state: birth blocked by the buffer.
  EXPECT_DOUBLE_EQ(a.at(4, 4), -8.0);
}

TEST(RateMatrix, ColumnsSumToZero) {
  for (auto& model : models::paper_suite(models::SuiteScale::kTiny)) {
    const StateSpace space(model.network, model.initial, 1'000'000);
    const auto a = rate_matrix(space);
    EXPECT_LT(max_column_sum(a), 1e-9) << model.name;
  }
}

TEST(RateMatrix, SignPattern) {
  models::SchnakenbergParams p;
  p.cap_x = 20;
  p.cap_y = 10;
  const auto net = models::schnakenberg(p);
  const StateSpace space(net, models::schnakenberg_initial(p), 100000);
  const auto a = rate_matrix(space);
  for (index_t r = 0; r < a.nrows; ++r) {
    for (index_t pp = a.row_ptr[r]; pp < a.row_ptr[r + 1]; ++pp) {
      if (a.col_idx[pp] == r) {
        EXPECT_LT(a.val[pp], 0.0);
      } else {
        EXPECT_GT(a.val[pp], 0.0);
      }
    }
  }
}

TEST(RateMatrix, DiagonalFullyDense) {
  for (auto& model : models::paper_suite(models::SuiteScale::kTiny)) {
    const StateSpace space(model.network, model.initial, 1'000'000);
    const auto f = sparse::fingerprint(rate_matrix(space));
    EXPECT_DOUBLE_EQ(f.d0, 1.0) << model.name;
  }
}

TEST(RateMatrix, BandDensityAboveDiaThreshold) {
  // Sec. V: the {-1,0,+1} band of DFS-ordered CME matrices clears the 0.66
  // DIA profitability threshold — for every benchmark network.
  for (auto& model : models::paper_suite(models::SuiteScale::kTiny)) {
    const StateSpace space(model.network, model.initial, 1'000'000);
    const auto f = sparse::fingerprint(rate_matrix(space));
    EXPECT_GT(f.dband, 0.66) << model.name;
  }
}

TEST(RateMatrix, TruncatedSpaceRejected) {
  const auto net = birth_death(1000, 1.0, 1.0);
  const StateSpace space(net, State{0}, 10);
  EXPECT_THROW((void)rate_matrix(space), std::runtime_error);
}

TEST(RateMatrix, FingerprintsMatchPaperTableI) {
  // Structural fingerprints are scale-free network properties; check the
  // tiny tier against the qualitative Table I pattern.
  const auto suite = models::paper_suite(models::SuiteScale::kTiny);
  for (auto& model : suite) {
    const StateSpace space(model.network, model.initial, 1'000'000);
    const auto f = sparse::fingerprint(rate_matrix(space));
    if (model.name == "brusselator") {
      EXPECT_EQ(f.row_max, 5);
      EXPECT_LT(f.variability, 0.15);
    } else if (model.name == "schnakenberg") {
      EXPECT_EQ(f.row_max, 7);
      EXPECT_LT(f.variability, 0.15);
    } else if (model.name.starts_with("toggle")) {
      EXPECT_EQ(f.row_max, 7);
    } else {  // phage-lambda-*
      EXPECT_EQ(f.row_max, 15);
      EXPECT_GT(f.variability, 0.15);
      EXPECT_GT(f.skew, 0.4);
    }
  }
}

}  // namespace
}  // namespace cmesolve::core
