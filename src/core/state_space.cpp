#include "core/state_space.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace cmesolve::core {

// ---------------------------------------------------------------------------
// StatePacker
// ---------------------------------------------------------------------------
StatePacker::StatePacker(const ReactionNetwork& network)
    : num_species_(network.num_species()) {
  bit_width_.resize(static_cast<std::size_t>(num_species_));
  int total_bits = 0;
  for (int s = 0; s < num_species_; ++s) {
    const auto cap = static_cast<std::uint32_t>(network.capacity(s));
    bit_width_[static_cast<std::size_t>(s)] =
        std::max(1, static_cast<int>(std::bit_width(cap)));
    total_bits += bit_width_[static_cast<std::size_t>(s)];
  }
  if (total_bits > 128) {
    throw std::invalid_argument(
        "state space key exceeds 128 bits; reduce species or capacities");
  }
}

StateKey StatePacker::pack(StateView x) const {
  StateKey key{0, 0};
  int bit = 0;
  for (int s = 0; s < num_species_; ++s) {
    const int w = bit_width_[static_cast<std::size_t>(s)];
    const auto v = static_cast<std::uint64_t>(x[static_cast<std::size_t>(s)]);
    const int word = bit / 64;
    const int shift = bit % 64;
    key[static_cast<std::size_t>(word)] |= v << shift;
    // Straddles into the next word?
    if (shift + w > 64 && word == 0) {
      key[1] |= v >> (64 - shift);
    }
    bit += w;
  }
  return key;
}

// ---------------------------------------------------------------------------
// StateSpace
// ---------------------------------------------------------------------------
StateSpace::StateSpace(const ReactionNetwork& network, State initial,
                       std::size_t max_states, VisitOrder order,
                       std::uint64_t seed)
    : network_(&network),
      num_species_(network.num_species()),
      packer_(network) {
  if (!network.valid_state(initial)) {
    throw std::invalid_argument("initial state outside capacity box");
  }
  enumerate(std::move(initial), max_states, order, seed);
}

State StateSpace::state(index_t i) const {
  const StateView x = counts(i);
  return State(x.begin(), x.end());
}

index_t StateSpace::find(StateView x) const {
  if (!network_->valid_state(x)) return -1;
  return index_.find(pack(x));
}

void StateSpace::enumerate(State initial, std::size_t max_states,
                           VisitOrder order, std::uint64_t seed) {
  CMESOLVE_TRACE_SPAN("core.enumerate");
  const int nr = network_->num_reactions();
  const auto ns = static_cast<std::size_t>(num_species_);
  const bool bfs = order == VisitOrder::kBfs;

  // DFS pushes successors in reverse reaction order: reaction 0's successor
  // lands on top of the stack, so the visit walks it next and reversible
  // pairs occupy adjacent indices (the diagonal band of Sec. V). BFS
  // enqueues in forward order.
  std::vector<int> reactions(static_cast<std::size_t>(nr));
  for (int k = 0; k < nr; ++k) {
    reactions[static_cast<std::size_t>(k)] = bfs ? k : nr - 1 - k;
  }

  // The frontier is flat (counts at species stride), so nothing is
  // allocated per state. It doubles as stack (DFS: pop back) and queue
  // (BFS: pop front via a moving head). Its states are packed again when
  // popped: storing their keys as well would double the frontier, which a
  // DFS grows to about as many entries as it visits. Positions count
  // states, not ints, so a species-free network still has its one state.
  std::vector<std::int32_t> frontier(initial.begin(), initial.end());
  std::size_t head = 0;
  std::size_t tail = 1;  // one past the last frontier state

  // Scratch for the popped state and its successors.
  State x(ns);
  std::vector<std::int32_t> succ(static_cast<std::size_t>(nr) * ns);
  std::vector<StateKey> succ_key(static_cast<std::size_t>(nr));
  std::vector<std::uint64_t> succ_hash(static_cast<std::size_t>(nr));

  while (head < tail) {
    const std::size_t f = bfs ? head++ : --tail;
    std::copy_n(frontier.begin() + static_cast<std::ptrdiff_t>(f * ns), ns,
                x.begin());
    if (!bfs) frontier.resize(f * ns);

    // A state is indexed when it is popped, not when it is pushed.
    if (!index_.try_emplace(pack(x), static_cast<index_t>(num_states_))
             .second) {
      continue;  // already visited
    }
    states_.insert(states_.end(), x.begin(), x.end());
    ++num_states_;
    if (num_states_ >= max_states) {
      truncated_ = true;
      break;
    }

    // Build, pack and hash every applicable successor and prefetch its home
    // slot first; only then probe "already visited?" in push order. The
    // probes do not write the index, so batching them leaves the frontier
    // (and the visit order) exactly as a probe-per-successor loop leaves it.
    std::size_t m = 0;
    for (const int k : reactions) {
      if (!network_->applicable(k, x)) continue;
      const std::span<std::int32_t> y(succ.data() + m * ns, ns);
      network_->apply_into(k, x, y);
      succ_key[m] = pack(y);
      succ_hash[m] = StateIndex::hash(succ_key[m]);
      index_.prefetch(succ_hash[m]);
      ++m;
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (index_.find(succ_key[j], succ_hash[j]) >= 0) continue;
      const auto y = succ.begin() + static_cast<std::ptrdiff_t>(j * ns);
      frontier.insert(frontier.end(), y, y + static_cast<std::ptrdiff_t>(ns));
      ++tail;
    }
  }

  if (order == VisitOrder::kRandom && !truncated_) {
    // Re-shuffle the assigned indices: worst-case ordering baseline.
    Xoshiro256 rng(seed);
    std::vector<index_t> perm(num_states_);
    for (std::size_t i = 0; i < num_states_; ++i) {
      perm[i] = static_cast<index_t>(i);
    }
    for (std::size_t i = num_states_; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.bounded(i)]);
    }
    std::vector<std::int32_t> shuffled(states_.size());
    for (std::size_t i = 0; i < num_states_; ++i) {
      for (std::size_t sp = 0; sp < ns; ++sp) {
        shuffled[static_cast<std::size_t>(perm[i]) * ns + sp] =
            states_[i * ns + sp];
      }
    }
    states_ = std::move(shuffled);
    index_.remap([&perm](index_t idx) {
      return perm[static_cast<std::size_t>(idx)];
    });
  }

  obs::count("core.enumerations");
  obs::observe("core.state_space.states", static_cast<real_t>(num_states_));
  obs::gauge("core.state_space.last.states", static_cast<real_t>(num_states_));
  obs::gauge("core.state_space.last.truncated", truncated_ ? 1.0 : 0.0);
}

// ---------------------------------------------------------------------------
// DynamicStateSpace
// ---------------------------------------------------------------------------
DynamicStateSpace::DynamicStateSpace(const ReactionNetwork& network,
                                     const State& initial)
    : network_(&network),
      num_species_(network.num_species()),
      packer_(network) {
  if (!network.valid_state(initial)) {
    throw std::invalid_argument("initial state outside capacity box");
  }
  add(initial);
}

State DynamicStateSpace::state(index_t i) const {
  const StateView x = counts(i);
  return State(x.begin(), x.end());
}

index_t DynamicStateSpace::find(StateView x) const {
  if (!network_->valid_state(x)) return -1;
  return index_.find(packer_.pack(x));
}

index_t DynamicStateSpace::add(StateView x) {
  if (!network_->valid_state(x)) {
    throw std::invalid_argument(
        "DynamicStateSpace::add: state outside capacity box");
  }
  const auto [idx, inserted] =
      index_.try_emplace(packer_.pack(x), static_cast<index_t>(num_states_));
  if (inserted) {
    states_.insert(states_.end(), x.begin(), x.end());
    ++num_states_;
  }
  return idx;
}

void DynamicStateSpace::grow_bfs(std::size_t target) {
  const int nr = network_->num_reactions();
  const auto ns = static_cast<std::size_t>(num_species_);
  // The member list itself is the queue: every successor we add is appended
  // behind `head`, so the walk is a plain breadth-first visit seeded by all
  // current members in index order. x is a copy: add() may reallocate the
  // member array.
  State x(ns);
  State next(ns);
  for (index_t head = 0; static_cast<std::size_t>(head) < num_states_ &&
                         num_states_ < target;
       ++head) {
    const StateView member = counts(head);
    std::copy(member.begin(), member.end(), x.begin());
    for (int k = 0; k < nr && num_states_ < target; ++k) {
      if (!network_->applicable(k, x)) continue;
      network_->apply_into(k, x, next);
      add(next);
    }
  }
}

std::vector<index_t> DynamicStateSpace::compact(const std::vector<char>& keep) {
  if (keep.size() != num_states_) {
    throw std::invalid_argument("DynamicStateSpace::compact: mask size");
  }
  std::vector<index_t> remap(num_states_, index_t{-1});
  const auto ns = static_cast<std::size_t>(num_species_);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < num_states_; ++i) {
    if (!keep[i]) continue;
    remap[i] = static_cast<index_t>(kept);
    if (kept != i) {
      for (std::size_t sp = 0; sp < ns; ++sp) {
        states_[kept * ns + sp] = states_[i * ns + sp];
      }
    }
    ++kept;
  }
  states_.resize(kept * ns);
  num_states_ = kept;
  // Rebuild the key index from the surviving members (erase-and-update of
  // the old map would touch every entry anyway).
  index_.clear();
  index_.reserve(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    const auto idx = static_cast<index_t>(i);
    index_.try_emplace(packer_.pack(counts(idx)), idx);
  }
  return remap;
}

bool DynamicStateSpace::is_boundary(index_t i) const {
  const int nr = network_->num_reactions();
  const StateView x = counts(i);
  State next(x.size());
  for (int k = 0; k < nr; ++k) {
    if (!network_->applicable(k, x)) continue;
    network_->apply_into(k, x, next);
    if (std::equal(next.begin(), next.end(), x.begin())) continue;
    if (index_.find(packer_.pack(next)) < 0) return true;
  }
  return false;
}

std::vector<index_t> DynamicStateSpace::boundary_states() const {
  std::vector<index_t> out;
  for (index_t i = 0; i < size(); ++i) {
    if (is_boundary(i)) out.push_back(i);
  }
  return out;
}

}  // namespace cmesolve::core
