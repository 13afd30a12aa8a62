#pragma once
//
// DFS state-space enumeration (Cao & Liang [17], Sec. II-B and Sec. V).
//
// Starting from an initial microstate, a depth-first visit over the
// reaction graph enumerates the reachable finite-buffer subspace. The
// enumeration order matters: DFS chains reversible reactions into runs of
// adjacent indices, which is exactly what populates the {-1, 0, +1} band
// the ELL+DIA format exploits. Reaction 0 is explored first, so placing a
// reversible synthesis/degradation pair first in the network maximizes the
// band density.
//
// Two containers share the packing machinery (StatePacker) and the flat
// key index (StateIndex):
//  * StateSpace — one-shot enumeration of the full reachable box (the
//    paper's fixed-buffer pipeline).
//  * DynamicStateSpace — growable/prunable member set for the adaptive
//    finite-state-projection pipeline (src/fsp/), which sizes the space
//    round by round instead of enumerating the box up front.
//
#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/reaction_network.hpp"
#include "util/types.hpp"

namespace cmesolve::core {

/// Microstates packed into 128 bits for hashing (up to 8 species with
/// capacities below 65536, or more species with smaller capacities).
using StateKey = std::array<std::uint64_t, 2>;

/// Packs microstates into 128-bit hash keys. Bit widths derive from the
/// network's per-species capacities; construction throws when the packed
/// representation exceeds 128 bits.
class StatePacker {
 public:
  StatePacker() = default;
  explicit StatePacker(const ReactionNetwork& network);

  [[nodiscard]] int num_species() const noexcept { return num_species_; }
  [[nodiscard]] StateKey pack(StateView x) const;

 private:
  int num_species_ = 0;
  std::vector<int> bit_width_;  ///< bits per species in the packed key
};

/// Open-addressing map from packed keys to state indices: one flat slot
/// array, linear probing, power-of-two capacity, no per-entry allocation
/// (a node-based map pays one malloc and one pointer chase per state, which
/// dominated the enumeration). A slot is empty while its
/// value is negative, so every key is storable. Lookups split into
/// hash -> prefetch -> probe, letting a caller overlap the cache misses of
/// several keys before it reads any of them.
class StateIndex {
 public:
  StateIndex() { rehash(kMinCapacity); }

  /// Slot hash of a key: the splitmix64 finalizer over both words.
  [[nodiscard]] static std::uint64_t hash(const StateKey& k) noexcept {
    std::uint64_t x = k[0] ^ (k[1] * 0x9E3779B97F4A7C15ULL);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  /// Pre-size for about `n` keys without rehashing.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * kMaxLoadNum < n * kMaxLoadDen) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  /// Pull the home slot of hash `h` towards the cache.
  void prefetch(std::uint64_t h) const noexcept {
    __builtin_prefetch(&slots_[h & mask_]);
  }

  /// Value stored under `k` (hash `h`), or -1 when absent.
  [[nodiscard]] index_t find(const StateKey& k,
                             std::uint64_t h) const noexcept {
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.value < 0) return -1;
      if (s.key == k) return s.value;
    }
  }
  [[nodiscard]] index_t find(const StateKey& k) const noexcept {
    return find(k, hash(k));
  }

  /// Store k -> value (value >= 0) unless k is present.
  /// @return {the value stored under k, true when it was newly inserted}.
  std::pair<index_t, bool> try_emplace(const StateKey& k, std::uint64_t h,
                                       index_t value) {
    std::size_t i = h & mask_;
    for (;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.value < 0) break;
      if (s.key == k) return {s.value, false};
    }
    slots_[i] = Slot{k, value};
    ++size_;
    if (size_ * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
      rehash(slots_.size() * 2);
    }
    return {value, true};
  }
  std::pair<index_t, bool> try_emplace(const StateKey& k, index_t value) {
    return try_emplace(k, hash(k), value);
  }

  /// Drop every entry, keeping the backing storage.
  void clear() noexcept {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  /// Replace every stored value v by fn(v) (a renumbering).
  template <class Fn>
  void remap(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.value >= 0) s.value = fn(s.value);
    }
  }

 private:
  struct Slot {
    StateKey key{0, 0};
    index_t value = -1;
  };
  static constexpr std::size_t kMinCapacity = 64;  // power of two
  // Grow above a 7/10 load factor.
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 10;

  void rehash(std::size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (const Slot& s : old) {
      if (s.value < 0) continue;
      std::size_t i = hash(s.key) & mask_;
      while (slots_[i].value >= 0) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Visit order of the enumeration. DFS is the paper's (and the default:
/// it chains reversible reactions into the {-1,0,+1} band); BFS and the
/// randomized order exist for the ordering ablation benchmark.
enum class VisitOrder { kDfs, kBfs, kRandom };

class StateSpace {
 public:
  StateSpace(const ReactionNetwork& network, State initial,
             std::size_t max_states, VisitOrder order = VisitOrder::kDfs,
             std::uint64_t seed = 42);

  [[nodiscard]] index_t size() const noexcept {
    return static_cast<index_t>(num_states_);
  }
  [[nodiscard]] const ReactionNetwork& network() const noexcept {
    return *network_;
  }
  [[nodiscard]] int num_species() const noexcept {
    return network_->num_species();
  }

  /// Copy number of species s in microstate i.
  [[nodiscard]] std::int32_t count(index_t i, int s) const noexcept {
    return states_[static_cast<std::size_t>(i) *
                       static_cast<std::size_t>(num_species_) +
                   static_cast<std::size_t>(s)];
  }

  /// Microstate i as a view into the flat count array (valid until the
  /// space is modified).
  [[nodiscard]] StateView counts(index_t i) const noexcept {
    return {states_.data() + static_cast<std::size_t>(i) *
                                 static_cast<std::size_t>(num_species_),
            static_cast<std::size_t>(num_species_)};
  }

  /// Full microstate i as a State vector.
  [[nodiscard]] State state(index_t i) const;

  /// Index of a microstate, or -1 when not part of the reachable space.
  [[nodiscard]] index_t find(StateView x) const;

  /// True when enumeration stopped at max_states before closure.
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

  /// Pack a state into the 128-bit hash key (throws when capacities do not
  /// fit 128 bits).
  [[nodiscard]] StateKey pack(StateView x) const { return packer_.pack(x); }

 private:
  void enumerate(State initial, std::size_t max_states, VisitOrder order,
                 std::uint64_t seed);

  const ReactionNetwork* network_;
  int num_species_;
  StatePacker packer_;
  std::vector<std::int32_t> states_;  ///< flattened, size * num_species
  std::size_t num_states_ = 0;
  StateIndex index_;
  bool truncated_ = false;
};

/// Growable, prunable microstate set for the adaptive FSP pipeline.
///
/// Unlike StateSpace — which enumerates the whole reachable finite-buffer
/// box once and is then immutable — this set starts from one seed state and
/// is extended (boundary expansion) and compacted (quantile pruning) round
/// by round. Indices are dense and insertion-ordered; compact() renumbers
/// survivors while preserving relative order, returning the old->new map so
/// warm-start vectors and cached matrix stencils can follow the renumbering.
class DynamicStateSpace {
 public:
  DynamicStateSpace(const ReactionNetwork& network, const State& initial);

  [[nodiscard]] index_t size() const noexcept {
    return static_cast<index_t>(num_states_);
  }
  [[nodiscard]] const ReactionNetwork& network() const noexcept {
    return *network_;
  }
  [[nodiscard]] int num_species() const noexcept { return num_species_; }

  /// Copy number of species s in member i.
  [[nodiscard]] std::int32_t count(index_t i, int s) const noexcept {
    return states_[static_cast<std::size_t>(i) *
                       static_cast<std::size_t>(num_species_) +
                   static_cast<std::size_t>(s)];
  }

  /// Member i as a view into the flat count array (valid until the set is
  /// modified).
  [[nodiscard]] StateView counts(index_t i) const noexcept {
    return {states_.data() + static_cast<std::size_t>(i) *
                                 static_cast<std::size_t>(num_species_),
            static_cast<std::size_t>(num_species_)};
  }

  /// Full microstate i as a State vector.
  [[nodiscard]] State state(index_t i) const;

  /// Index of a microstate, or -1 when not a member.
  [[nodiscard]] index_t find(StateView x) const;

  /// Insert x (must lie inside the capacity box; throws otherwise).
  /// Returns its index — the existing one when x is already a member.
  index_t add(StateView x);

  /// BFS-extend from the current members (in index order) until `target`
  /// members exist or the reachable space closes. Deterministic: the visit
  /// order depends only on the member list and the reaction order.
  void grow_bfs(std::size_t target);

  /// Drop every member i with keep[i] == 0, renumbering survivors in
  /// insertion order. Returns the old->new index map (-1 = dropped).
  std::vector<index_t> compact(const std::vector<char>& keep);

  /// True when member i has at least one applicable reaction whose
  /// successor is NOT a member — i.e. i sits on the projection boundary.
  [[nodiscard]] bool is_boundary(index_t i) const;

  /// All boundary members, ascending. O(size * reactions); intended for
  /// per-round diagnostics, not inner loops (the FSP driver tracks boundary
  /// flux through its cached stencils instead).
  [[nodiscard]] std::vector<index_t> boundary_states() const;

 private:
  const ReactionNetwork* network_;
  int num_species_;
  StatePacker packer_;
  std::vector<std::int32_t> states_;  ///< flattened, size * num_species
  std::size_t num_states_ = 0;
  StateIndex index_;
};

}  // namespace cmesolve::core
