#include "src/exact/profile_dp.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/util/arena.hpp"
#include "src/util/flat.hpp"
#include "src/util/telemetry.hpp"

// Memory substrate: every state the sweep creates lives in flat arena pools
// (slot spans, placement spans, fixed-size records) instead of per-state
// heap vectors, and crossing-profile dedupe runs on a flat open-addressing
// table instead of node-based unordered_map. A state is three appends; a
// whole solve is recycled with one arena rewind, so a warmed thread
// performs zero heap allocations here. The state *semantics* — emit order,
// first-seen dedupe and collision handling, overflow brake, truncation —
// are locked by tests/golden_test.cpp and exact_test.

namespace sap {
namespace {

/// One selected task alive at the current edge. Identity is reduced to what
/// future feasibility needs: vertical extent and remaining lifetime. The
/// lifetime ends at the last start edge of the task's span (see
/// SweepContext::prev_start), not at the task's own last edge.
struct Slot {
  Value height;
  Value demand;
  EdgeId last;
  /// Explicit padding, always zero, so whole-profile equality can memcmp
  /// Slot spans instead of comparing field by field.
  EdgeId pad = 0;

  friend bool operator==(const Slot&, const Slot&) = default;
  // sapkit-lint: allow(exact-arith) -- slots are only created with
  // h + d <= b(j) <= 2^62 (see StarterEnumerator::run), so the top is exact.
  [[nodiscard]] Value top() const noexcept { return height + demand; }
};
static_assert(sizeof(Slot) == 24);  // no hidden padding left for memcmp

/// Flat state record: spans into the slot/placement pools plus the DP
/// payload. Offsets stay valid across pool growth (growth only moves the
/// backing block, never re-bases spans).
struct StateRec {
  std::size_t slots_off = 0;
  std::size_t added_off = 0;
  std::uint32_t slots_len = 0;
  std::uint32_t added_len = 0;
  Weight weight = 0;
  std::int32_t parent = -1;
};

/// Two independent 64-bit digests of one slot. A profile's digest is the
/// wrapping SUM of its slots' digests plus the length: profiles are
/// canonical (sorted) multisets, so a commutative combine identifies them
/// exactly as well as a sequential one — and, crucially, it can be
/// maintained incrementally by the enumeration DFS (insert adds, undo
/// subtracts), making the per-emit hashing cost O(1) instead of O(len).
/// (key, fp, length) give ~128 bits of identity, so a false profile match
/// is astronomically unlikely and the emit path never has to re-read the
/// candidate's slots from the pool.
struct SlotDigest {
  std::uint64_t key;
  std::uint64_t fp;
};

std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

SlotDigest slot_digest(const Slot& s) {
  const std::uint64_t key =
      mix64(mix64(mix64(0x9e3779b97f4a7c15ULL ^
                        static_cast<std::uint64_t>(s.height)) ^
                  static_cast<std::uint64_t>(s.demand)) ^
            static_cast<std::uint64_t>(s.last));
  return {key, mix64(key + 0xcbf29ce484222325ULL)};
}

/// Open-addressing profile-hash -> state table (linear probing, arena
/// storage, cleared per edge). Keys are the 64-bit profile hashes; like the
/// unordered_map it replaces it is lookup-only — never iterated — so its
/// layout cannot reach solver output.
///
/// Each entry mirrors the hot fields of its state (weight, profile
/// identity), so the dominant emit outcome — "this exact profile already
/// exists with at least this weight, reject" — is decided from the 32-byte
/// entry alone, without touching the state records or the slot pool.
class DedupeTable {
 public:
  struct Entry {
    std::uint64_t key;
    std::uint64_t fp;        ///< second digest: (key, fp, len) = identity
    Weight weight;           ///< mirror of the state's weight
    std::int32_t id_plus1;   ///< 0 = empty (so a zeroed table is empty)
    std::uint32_t slots_len; ///< mirror of the state's profile length
  };
  static_assert(sizeof(Entry) == 32);  // two entries per cache line

  explicit DedupeTable(Arena& arena) : entries_(arena) {}

  void clear(std::size_t expected) {
    std::size_t cap = kMinCapacity;
    while (cap < expected * 2) cap *= 2;
    entries_.resize(cap);
    std::memset(entries_.data(), 0, cap * sizeof(Entry));
    count_ = 0;
  }

  /// Entry for `key`: occupied (id_plus1 != 0) or the empty slot where it
  /// would insert. Grows first, so the reference survives an insert_at and
  /// any amount of non-table allocation.
  [[nodiscard]] Entry& find(std::uint64_t key) {
    if ((count_ + 1) * 4 > entries_.size() * 3) grow();
    return entries_[probe(key)];
  }

  void insert_at(Entry& entry, std::uint64_t key, std::uint64_t fp,
                 std::int32_t id, std::uint32_t slots_len,
                 Weight weight) noexcept {
    entry.key = key;
    entry.fp = fp;
    entry.weight = weight;
    entry.id_plus1 = id + 1;
    entry.slots_len = slots_len;
    ++count_;
  }

 private:
  static constexpr std::size_t kMinCapacity = 1024;

  [[nodiscard]] std::size_t probe(std::uint64_t key) const noexcept {
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = static_cast<std::size_t>(key) & mask;
    while (entries_[i].id_plus1 != 0 && entries_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void grow() {
    FlatBuf<Entry> old = entries_;  // shallow view of the current storage
    entries_.resize(0);
    entries_.reserve(old.size() * 2);
    entries_.resize(old.size() * 2);
    std::memset(entries_.data(), 0, entries_.size() * sizeof(Entry));
    for (std::size_t i = 0; i < old.size(); ++i) {
      if (old[i].id_plus1 != 0) entries_[probe(old[i].key)] = old[i];
    }
  }

  FlatBuf<Entry> entries_;
  std::size_t count_ = 0;
};

/// Everything one edge sweep shares between the per-state enumeration and
/// the emit path. Scratch buffers persist across states and edges so the
/// steady state touches no allocator.
struct SweepContext {
  const PathInstance& inst;
  const SapExactOptions& options;

  FlatBuf<Slot> slot_pool;
  FlatBuf<Placement> added_pool;
  FlatBuf<StateRec> states;
  FlatBuf<std::int32_t> frontier;
  FlatBuf<std::int32_t> next;
  DedupeTable dedupe;
  // prev_start[x]: the latest edge <= x at which a task of the subset starts
  // (-1 before the first). A slot lives until prev_start[its last edge]:
  // every later starter it overlaps starts by then, and past it the slot
  // blocks nothing, so partial solutions that differ only beyond it merge.
  FlatBuf<EdgeId> prev_start;

  // Per-state scratch, reused: the alive-slot profile (sorted by height,
  // mutated by the enumeration DFS) and the placements added at this edge.
  std::vector<Slot> slots;
  std::vector<Placement> added;
  // The edge being swept. Slots with last == edge block placements here but
  // do not cross into edge + 1, so they are left out of the state's identity.
  EdgeId edge = 0;
  // Running digest and length of the crossing part of `slots` (last > edge),
  // maintained incrementally at every insert/remove (commutative sum — see
  // slot_digest).
  std::uint64_t key_sum = 0;
  std::uint64_t fp_sum = 0;
  std::uint32_t crossing_len = 0;
  // Grounded-mode candidate heights, one buffer per DFS depth (a deeper
  // place() must not clobber the list its caller is iterating).
  std::vector<std::vector<Value>> candidates_by_depth;

  DeadlineGate gate;
  // Pruned prove-or-stop mode (a non-empty suffix_bound). At the current
  // edge, a state of weight <= prune_at cannot beat the floor
  // (prune_at = floor - suffix_bound[edge + 1]).
  bool pruning;
  Weight prune_at = 0;
  std::int64_t pruned = 0;  ///< enumeration branches cut below the floor
  std::int64_t emits = 0;   ///< leaves offered to the dedupe table
  // The overflow brake: emits stop once `next` holds more than this many
  // states. Prove-or-stop gives up at max_states anyway, so it brakes there.
  std::size_t brake;
  bool overflow = false;
  bool timed_out = false;

  // Of the frontier state currently being expanded:
  Weight base_weight = 0;
  std::int32_t parent = -1;

  SweepContext(const PathInstance& inst_, const SapExactOptions& options_,
               Arena& arena)
      : inst(inst_),
        options(options_),
        slot_pool(arena),
        added_pool(arena),
        states(arena),
        frontier(arena),
        next(arena),
        dedupe(arena),
        prev_start(arena),
        gate(options_.deadline),
        pruning(!options_.suffix_bound.empty()),
        brake(pruning ? options_.max_states : 4 * options_.max_states) {}

  /// Pruning only: whether an enumeration branch that has placed `placed`
  /// weight of this edge's starters, and may still place `undecided` more,
  /// can end in a state that beats the floor. A branch that cannot is cut
  /// (and counted); every leaf of a surviving branch then has
  /// weight + suffix_bound[edge + 1] > floor.
  [[nodiscard]] bool can_beat_floor(Weight placed, Weight undecided) {
    if (Int128{base_weight} + placed + undecided > prune_at) return true;
    ++pruned;
    return false;
  }

  void emit(Weight added_weight) {
    if (gate.expired()) {
      // Reuse the overflow brake to unwind the enumeration promptly; the
      // timeout return below supersedes the truncated result.
      timed_out = true;
      overflow = true;
      return;
    }
    if (next.size() > brake) {
      overflow = true;
      return;
    }
    ++emits;
    // sapkit-lint: allow(exact-arith) -- weights of disjoint task sets;
    // their sum is a subset sum, proven to fit in int64 at construction.
    const Weight total = base_weight + added_weight;
    DedupeTable::Entry& entry = dedupe.find(key_sum);
    bool collision = false;
    if (entry.id_plus1 != 0) {
      // 128 bits of digest plus the length identify the profile; no byte
      // comparison against the pool is needed (and the reject path below
      // therefore costs exactly one cache line: the entry itself).
      if (entry.slots_len == crossing_len && entry.fp == fp_sum) {
        if (entry.weight >= total) return;  // dominated duplicate
        // Overwrite the weaker state in place; `next` already points at it
        // and the stored crossing profile is byte-equal, so only the payload
        // and the added-placement span change.
        StateRec& rec =
            states[static_cast<std::size_t>(entry.id_plus1 - 1)];
        rec.added_off = added_pool.size();
        rec.added_len = static_cast<std::uint32_t>(added.size());
        added_pool.append(added.data(), added.size());
        rec.weight = total;
        rec.parent = parent;
        entry.weight = total;
        return;
      }
      collision = true;  // 64-bit hash collision: keep both states
    }
    StateRec rec;
    rec.slots_off = slot_pool.size();
    rec.slots_len = crossing_len;
    for (const Slot& s : slots) {
      if (s.last != edge) slot_pool.push_back(s);
    }
    rec.added_off = added_pool.size();
    rec.added_len = static_cast<std::uint32_t>(added.size());
    added_pool.append(added.data(), added.size());
    rec.weight = total;
    rec.parent = parent;
    states.push_back(rec);
    const auto id = static_cast<std::int32_t>(states.size() - 1);
    if (!collision) {
      dedupe.insert_at(entry, key_sum, fp_sum, id, rec.slots_len, total);
    }
    next.push_back(id);
  }
};

/// Enumerates placements of `starters[i..]` on top of the context's slot
/// profile, invoking SweepContext::emit at every leaf (including "place
/// none"). Static dispatch — no std::function on the hot path. With
/// kPrune, a branch whose every leaf would fall below the floor is cut
/// where it skips a starter (SweepContext::can_beat_floor); without it the
/// enumeration does no pruning bookkeeping at all.
///
/// Every height h of a starter j satisfies h + d_j <= b(j), the paper's
/// feasibility rule on all of I_j at once, so a placed slot fits under
/// every later edge of its span and the sweep never re-checks capacities.
template <bool kPrune>
struct StarterEnumerator {
  SweepContext& ctx;
  const std::vector<TaskId>& starters;
  Value min_height;
  bool grounded_only;
  Weight added_weight = 0;
  /// Weight of starters[i..]: what the branch at depth i may still add.
  Weight undecided_weight = 0;

  [[nodiscard]] bool free_span(Value h, Value demand) const {
    for (const Slot& s : ctx.slots) {
      // sapkit-lint: allow(exact-arith) -- h <= b(j) and d <= b(j) <= 2^62
      // (instance construction), so h + d <= 2^63 stays exact in int64.
      if (s.height >= h + demand) break;  // sorted: all later are above
      if (s.top() > h) return false;
    }
    return true;
  }

  void run(std::size_t i) {
    if (ctx.overflow) return;
    if (i == starters.size()) {
      ctx.emit(added_weight);
      return;
    }
    if constexpr (kPrune) {
      // Skipping starters[i] gives up its weight; placing it keeps the
      // branch's reach, which the caller already checked.
      const Weight undecided = undecided_weight;
      undecided_weight = undecided - ctx.inst.task(starters[i]).weight;
      if (ctx.can_beat_floor(added_weight, undecided_weight)) {
        run(i + 1);  // skip starters[i]
      }
      place_heights(i);
      undecided_weight = undecided;
    } else {
      run(i + 1);  // skip starters[i]
      place_heights(i);
    }
  }

  /// The branches that place starters[i], one per feasible height.
  void place_heights(std::size_t i) {
    const TaskId j = starters[i];
    const Task& t = ctx.inst.task(j);
    const Value bottleneck = ctx.inst.bottleneck(j);
    // sapkit-lint: allow(exact-arith) -- min_height <= b(j) and d <= b(j) <=
    // 2^62 (instance construction), so the sum is exact in int64.
    if (min_height + t.demand > bottleneck) return;
    if (grounded_only) {
      // Candidates: the floor and the top of every alive slot.
      if (i >= ctx.candidates_by_depth.size()) {
        // sapkit-analyze: allow(arena-discipline) -- per-depth scratch grown
        // once to the max starter depth, then reused (clear() keeps capacity)
        // for the rest of the solve.
        ctx.candidates_by_depth.resize(i + 1);
      }
      std::vector<Value>& candidates = ctx.candidates_by_depth[i];
      candidates.clear();
      // sapkit-analyze: allow(arena-discipline) -- reused per-depth scratch;
      // capacity persists across starters, so growth amortizes to zero.
      candidates.push_back(min_height);
      for (const Slot& s : ctx.slots) {
        if (s.top() >= min_height) candidates.push_back(s.top());
      }
      std::ranges::sort(candidates);
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      for (Value h : candidates) {
        // sapkit-lint: allow(exact-arith) -- candidate tops are <= c_e <=
        // 2^62 and d <= b(j) <= 2^62, so the sum is exact in int64.
        if (h + t.demand > bottleneck) break;
        if (!free_span(h, t.demand)) continue;
        place(i, j, t, h);
      }
      return;
    }
    // Try every integral height whose span is free. Walk the free gaps of
    // the (sorted) profile so each feasible height is visited once.
    Value h = min_height;
    std::size_t k = 0;
    // sapkit-lint: allow(exact-arith) -- h <= c_e (starts at min_height and
    // jumps to slot tops <= c_e) and d <= b(j) <= 2^62: exact in int64.
    while (h + t.demand <= bottleneck) {
      // Skip forward over any slot blocking [h, h+demand).
      bool blocked = false;
      for (; k < ctx.slots.size(); ++k) {
        const Slot& s = ctx.slots[k];
        if (s.top() <= h) continue;           // entirely below
        // sapkit-lint: allow(exact-arith) -- same h <= c_e, d <= b(j) <=
        // 2^62 bound as the loop condition above: exact in int64.
        if (s.height >= h + t.demand) break;  // entirely above; gap is free
        h = s.top();                          // jump past the blocker
        blocked = true;
        break;
      }
      if (blocked) continue;
      // [h, h+demand) is free; recurse with every height in this gap.
      Value gap_end = bottleneck;
      if (k < ctx.slots.size()) {
        gap_end = std::min(gap_end, ctx.slots[k].height);
      }
      // sapkit-lint: allow(exact-arith) -- hh <= gap_end <= b(j) and d <=
      // b(j) <= 2^62 (instance construction): exact in int64.
      for (Value hh = h; hh + t.demand <= gap_end; ++hh) {
        place(i, j, t, hh);
      }
      if (k >= ctx.slots.size()) return;  // explored the unbounded top gap
      h = ctx.slots[k].top();
      ++k;
    }
  }

  void place(std::size_t i, TaskId j, const Task& t, Value h) {
    const Slot slot{h, t.demand,
                    ctx.prev_start[static_cast<std::size_t>(t.last)]};
    const auto pos = std::lower_bound(
        ctx.slots.begin(), ctx.slots.end(), slot,
        [](const Slot& a, const Slot& b) { return a.height < b.height; });
    const auto idx = static_cast<std::size_t>(pos - ctx.slots.begin());
    // sapkit-analyze: allow(arena-discipline) -- reused profile scratch (see
    // SweepContext); capacity persists across states and edges, so growth
    // amortizes to zero on warm solves.
    ctx.slots.insert(pos, slot);
    // A starter whose lifetime ends at this edge (no task of the subset
    // starts later in its span) blocks later starters here but never reaches
    // the crossing profile.
    const bool crossing = slot.last != ctx.edge;
    const SlotDigest digest = crossing ? slot_digest(slot) : SlotDigest{0, 0};
    ctx.key_sum += digest.key;
    ctx.fp_sum += digest.fp;
    ctx.crossing_len += crossing ? 1U : 0U;
    // sapkit-analyze: allow(arena-discipline) -- reused placement scratch;
    // capacity persists across states and edges.
    ctx.added.push_back({j, h});
    // sapkit-lint: allow(exact-arith) -- subset sum of task weights; the
    // PathInstance constructor proved the full sum fits in int64.
    added_weight += t.weight;
    run(i + 1);
    added_weight -= t.weight;
    ctx.added.pop_back();
    ctx.crossing_len -= crossing ? 1U : 0U;
    ctx.key_sum -= digest.key;
    ctx.fp_sum -= digest.fp;
    ctx.slots.erase(ctx.slots.begin() + static_cast<std::ptrdiff_t>(idx));
  }
};

}  // namespace

SapExactResult sap_exact_profile_dp(const PathInstance& inst,
                                    std::span<const TaskId> subset,
                                    const SapExactOptions& options) {
  ScopedTimer timer("dp.solve");
  Arena& arena = thread_arena();
  // The whole solve is one arena scope: every pool below is recycled (not
  // freed) on return, so the next solve on this thread reuses the chunks.
  ArenaScope scope(arena);

  const auto m = static_cast<EdgeId>(inst.num_edges());
  if (!options.suffix_bound.empty()) {
    if (options.suffix_bound.size() != inst.num_edges() + 1) {
      throw std::invalid_argument("suffix_bound needs num_edges + 1 entries");
    }
    if (options.floor < 0 ||
        std::ranges::any_of(options.suffix_bound,
                            [](Weight b) { return b < 0; })) {
      throw std::invalid_argument("negative prune floor or suffix bound");
    }
  }
  std::vector<std::vector<TaskId>> starters_at(inst.num_edges());
  for (TaskId j : subset) {
    // sapkit-analyze: allow(arena-discipline) -- one bounded bucket build per
    // solve, before the sweep's arena-resident hot loop.
    starters_at[static_cast<std::size_t>(inst.task(j).first)].push_back(j);
  }

  SweepContext ctx(inst, options, arena);
  ctx.prev_start.resize(inst.num_edges());
  EdgeId last_start = -1;
  for (EdgeId e = 0; e < m; ++e) {
    if (!starters_at[static_cast<std::size_t>(e)].empty()) last_start = e;
    ctx.prev_start[static_cast<std::size_t>(e)] = last_start;
  }
  ctx.states.push_back(StateRec{});  // empty start state
  ctx.frontier.push_back(0);
  SapExactResult out;
  out.peak_states = 1;
  if (options.grounded_only) {
    out.proven_optimal = false;  // restricted height candidates: heuristic
  }

  bool stopped = false;
  for (EdgeId e = 0; e < m; ++e) {
    const std::vector<TaskId>& starters =
        starters_at[static_cast<std::size_t>(e)];
    if (ctx.pruning) {
      // Both operands are validated non-negative, so this cannot wrap.
      const auto ahead = static_cast<std::size_t>(e) + 1;
      ctx.prune_at = options.floor - options.suffix_bound[ahead];
    }
    if (starters.empty()) {
      // No slot's lifetime ends at an edge where nothing starts, so every
      // state would map to itself; only the prune floor may still drop some.
      if (ctx.pruning) {
        std::size_t kept = 0;
        for (const std::int32_t sid : ctx.frontier) {
          ctx.base_weight = ctx.states[static_cast<std::size_t>(sid)].weight;
          if (ctx.can_beat_floor(0, 0)) ctx.frontier[kept++] = sid;
        }
        ctx.frontier.resize(kept);
      }
      continue;
    }
    ctx.edge = e;
    ctx.dedupe.clear(ctx.frontier.size());
    ctx.next.clear();
    ctx.overflow = false;
    Weight starters_weight = 0;
    if (ctx.pruning) {
      // A subset sum of task weights: the instance constructor proved that
      // the full sum fits in int64.
      Int128 sum = 0;
      for (const TaskId j : starters) sum += Int128{inst.task(j).weight};
      starters_weight = static_cast<Weight>(sum);
    }

    // Hard cap on states generated at this edge: past it, stop expanding so
    // memory stays bounded; the result degrades to a feasible lower bound.
    for (std::size_t fi = 0; fi < ctx.frontier.size(); ++fi) {
      if (ctx.overflow) break;
      const std::int32_t sid = ctx.frontier[fi];
      // Copy the record: the states pool may grow (and move) during emits.
      const StateRec rec = ctx.states[static_cast<std::size_t>(sid)];
      // The stored profile is exactly what crossed into e; of it, the slots
      // ending at e still block placements but leave the digest.
      ctx.slots.clear();
      ctx.key_sum = 0;
      ctx.fp_sum = 0;
      ctx.crossing_len = 0;
      const Slot* pool = ctx.slot_pool.data() + rec.slots_off;
      for (std::uint32_t si = 0; si < rec.slots_len; ++si) {
        const Slot& s = pool[si];
        // sapkit-analyze: allow(arena-discipline) -- reused profile scratch;
        // capacity persists across states, so growth amortizes to zero.
        ctx.slots.push_back(s);
        if (s.last == e) continue;
        const SlotDigest digest = slot_digest(s);
        ctx.key_sum += digest.key;
        ctx.fp_sum += digest.fp;
        ++ctx.crossing_len;
      }

      ctx.added.clear();
      ctx.base_weight = rec.weight;
      ctx.parent = sid;
      if (!ctx.pruning) {
        StarterEnumerator<false>{ctx, starters, options.min_height,
                                 options.grounded_only}
            .run(0);
      } else if (ctx.can_beat_floor(0, starters_weight)) {
        StarterEnumerator<true>{ctx, starters, options.min_height,
                                options.grounded_only, 0, starters_weight}
            .run(0);
      }
    }

    if (ctx.timed_out) {
      // Typed timeout outcome: an empty solution, never a partial answer.
      SapExactResult expired;
      expired.timed_out = true;
      expired.proven_optimal = false;
      expired.peak_states = std::max(out.peak_states, ctx.next.size());
      telemetry::count("dp.timeout");
      return expired;
    }
    if (ctx.pruning && ctx.next.size() > options.max_states) {
      // Prove-or-stop: this edge would truncate, so the sweep can no longer
      // prove anything; give up before the (heuristic) rest of the sweep.
      out.proven_optimal = false;
      out.peak_states = std::max(out.peak_states, ctx.next.size());
      stopped = true;
      break;
    }
    if (ctx.overflow) out.proven_optimal = false;
    if (ctx.next.size() > options.max_states) {
      // Weight-descending with a state-id tie-break: which states survive
      // truncation (and their frontier order) must not depend on the sort
      // implementation. The comparator is a strict total order, so
      // nth_element + sorting only the kept prefix yields the exact
      // sequence a full sort would — at O(n + k log k) instead of
      // O(n log n) over up to 4x max_states entries.
      const auto by_weight_then_id = [&](std::int32_t a, std::int32_t b) {
        const Weight wa = ctx.states[static_cast<std::size_t>(a)].weight;
        const Weight wb = ctx.states[static_cast<std::size_t>(b)].weight;
        if (wa != wb) return wa > wb;
        return a < b;
      };
      const auto keep = static_cast<std::ptrdiff_t>(options.max_states);
      const auto mid = ctx.next.begin() + keep;
      std::nth_element(ctx.next.begin(), mid, ctx.next.end(),
                       by_weight_then_id);
      std::sort(ctx.next.begin(), mid, by_weight_then_id);
      ctx.next.resize(options.max_states);
      out.proven_optimal = false;
    }
    out.peak_states = std::max(out.peak_states, ctx.next.size());
    std::swap(ctx.frontier, ctx.next);
  }

  telemetry::count("dp.runs");
  telemetry::peak("dp.states.peak",
                  static_cast<std::int64_t>(out.peak_states));
  telemetry::count("dp.states.expanded",
                   static_cast<std::int64_t>(ctx.states.size()));
  telemetry::count("dp.emits", ctx.emits);
  if (!out.proven_optimal) telemetry::count("dp.truncated");
  if (ctx.pruning) telemetry::count("dp.pruned", ctx.pruned);
  if (stopped) return out;

  std::int32_t best = -1;
  for (const std::int32_t sid : ctx.frontier) {
    if (best < 0 || ctx.states[static_cast<std::size_t>(sid)].weight >
                        ctx.states[static_cast<std::size_t>(best)].weight) {
      best = sid;
    }
  }
  // Without pruning the empty set always survives; with it, every state may
  // have been dropped, and a completed sweep then proves the floor optimal.
  if (ctx.pruning && out.proven_optimal &&
      (best < 0 ||
       ctx.states[static_cast<std::size_t>(best)].weight < options.floor)) {
    out.weight = options.floor;
    return out;
  }
  if (best < 0) return out;
  out.weight = ctx.states[static_cast<std::size_t>(best)].weight;
  for (std::int32_t sid = best; sid >= 0;
       sid = ctx.states[static_cast<std::size_t>(sid)].parent) {
    const StateRec& s = ctx.states[static_cast<std::size_t>(sid)];
    const Placement* adds = ctx.added_pool.data() + s.added_off;
    // sapkit-analyze: allow(arena-discipline) -- result assembly: the solution
    // outlives the solve's ArenaScope, so it must own heap storage.
    out.solution.placements.insert(out.solution.placements.end(), adds,
                                   adds + s.added_len);
  }
  return out;
}

SapExactResult sap_exact_profile_dp(const PathInstance& inst,
                                    const SapExactOptions& options) {
  // sapkit-analyze: allow(arena-discipline) -- convenience overload: builds
  // the full-id subset once, outside the solve's hot path.
  std::vector<TaskId> all(inst.num_tasks());
  std::iota(all.begin(), all.end(), TaskId{0});
  return sap_exact_profile_dp(inst, all, options);
}

}  // namespace sap
