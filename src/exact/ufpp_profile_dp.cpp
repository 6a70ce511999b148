#include "src/exact/ufpp_profile_dp.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "src/util/arena.hpp"
#include "src/util/flat.hpp"

namespace sap {
namespace {

/// One selected task alive at the current edge, reduced to what future
/// feasibility depends on. The explicit zero padding keeps whole-profile
/// equality a memcmp (same layout trick as exact/profile_dp.cpp's Slot).
struct ActiveRec {
  Value demand;
  EdgeId last;
  EdgeId pad = 0;

  friend bool operator<(const ActiveRec& a, const ActiveRec& b) noexcept {
    if (a.demand != b.demand) return a.demand < b.demand;
    return a.last < b.last;
  }
};
static_assert(sizeof(ActiveRec) == 16);  // no hidden padding left for memcmp

/// Flat state record: spans into the profile/selection pools plus the DP
/// payload. Offsets stay valid across pool growth.
struct UfppStateRec {
  std::size_t active_off = 0;
  std::size_t added_off = 0;
  std::uint32_t active_len = 0;
  std::uint32_t added_len = 0;
  Value load = 0;
  Weight weight = 0;
  std::int32_t parent = -1;
};

std::uint64_t hash_profile(const ActiveRec* active, std::size_t n) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (std::size_t i = 0; i < n; ++i) {
    mix(static_cast<std::uint64_t>(active[i].demand));
    mix(static_cast<std::uint64_t>(active[i].last));
  }
  return h;
}

/// Open-addressing profile-hash -> state-id table (linear probing, arena
/// storage, cleared per edge). Like the unordered_map it replaces it is
/// lookup-only — never iterated — so its layout cannot reach solver output.
class DedupeIds {
 public:
  struct Entry {
    std::uint64_t key;
    std::int32_t id_plus1;  ///< 0 = empty (so a zeroed table is empty)
  };

  explicit DedupeIds(Arena& arena) : entries_(arena) {}

  void clear(std::size_t expected) {
    std::size_t cap = kMinCapacity;
    while (cap < expected * 2) cap *= 2;
    entries_.resize(cap);
    std::memset(entries_.data(), 0, cap * sizeof(Entry));
    count_ = 0;
  }

  /// Entry for `key`: occupied or the empty slot where it would insert.
  /// Grows first, so the reference survives an insert_at.
  [[nodiscard]] Entry& find(std::uint64_t key) {
    if ((count_ + 1) * 4 > entries_.size() * 3) grow();
    return entries_[probe(key)];
  }

  void insert_at(Entry& entry, std::uint64_t key, std::int32_t id) noexcept {
    entry = {key, id + 1};
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

/// Everything one edge sweep shares between the subset enumeration and the
/// emit path. Static dispatch — no std::function on the recursion.
struct UfppSweep {
  const PathInstance& inst;
  const UfppProfileDpOptions& options;

  FlatBuf<ActiveRec> active_pool;
  FlatBuf<TaskId> added_pool;
  FlatBuf<UfppStateRec> states;
  FlatBuf<std::int32_t> frontier;
  FlatBuf<std::int32_t> next;
  DedupeIds dedupe;

  // Per-state scratch, reused across states and edges.
  std::vector<ActiveRec> active;   // survivors of the frontier state
  std::vector<ActiveRec> profile;  // emit scratch: survivors + added, sorted
  std::vector<TaskId> added;

  bool overflow = false;
  const std::vector<TaskId>* starters = nullptr;
  Value cap = 0;

  // Of the frontier state currently being expanded:
  Weight base_weight = 0;
  std::int32_t parent = -1;

  UfppSweep(const PathInstance& inst_, const UfppProfileDpOptions& options_,
            Arena& arena)
      : inst(inst_),
        options(options_),
        active_pool(arena),
        added_pool(arena),
        states(arena),
        frontier(arena),
        next(arena),
        dedupe(arena) {}

  void emit(Value used, Weight gained) {
    // sapkit-analyze: allow(arena-discipline) -- reused digest scratch;
    // capacity persists across emits, so growth amortizes to zero.
    profile.assign(active.begin(), active.end());
    for (TaskId j : added) {
      profile.push_back({inst.task(j).demand, inst.task(j).last, 0});
    }
    std::sort(profile.begin(), profile.end());
    // sapkit-lint: allow(exact-arith) -- weights of disjoint task sets;
    // their sum is a subset sum, proven to fit in int64 at construction.
    const Weight total = base_weight + gained;
    const std::uint64_t key = hash_profile(profile.data(), profile.size());
    DedupeIds::Entry& entry = dedupe.find(key);
    bool collision = false;
    if (entry.id_plus1 != 0) {
      UfppStateRec& old =
          states[static_cast<std::size_t>(entry.id_plus1 - 1)];
      // Byte comparison is exact: ActiveRec has no hidden padding and its
      // explicit pad field is always zero.
      if (old.active_len == profile.size() &&
          std::memcmp(active_pool.data() + old.active_off, profile.data(),
                      profile.size() * sizeof(ActiveRec)) == 0) {
        if (old.weight >= total) return;  // dominated duplicate
        // Overwrite the weaker state in place; the stored profile span is
        // byte-equal, so only the payload and selection span change.
        old.added_off = added_pool.size();
        old.added_len = static_cast<std::uint32_t>(added.size());
        added_pool.append(added.data(), added.size());
        old.load = used;
        old.weight = total;
        old.parent = parent;
        if (next.size() > 4 * options.max_states) overflow = true;
        return;
      }
      collision = true;  // 64-bit hash collision: keep both states
    }
    UfppStateRec rec;
    rec.active_off = active_pool.size();
    rec.active_len = static_cast<std::uint32_t>(profile.size());
    active_pool.append(profile.data(), profile.size());
    rec.added_off = added_pool.size();
    rec.added_len = static_cast<std::uint32_t>(added.size());
    added_pool.append(added.data(), added.size());
    rec.load = used;
    rec.weight = total;
    rec.parent = parent;
    states.push_back(rec);
    const auto id = static_cast<std::int32_t>(states.size() - 1);
    if (!collision) dedupe.insert_at(entry, key, id);
    next.push_back(id);
    if (next.size() > 4 * options.max_states) overflow = true;
  }

  /// Enumerates subsets of `starters[i..]` whose added demand fits under
  /// cap, emitting a state per subset (including the empty one).
  void enumerate(std::size_t i, Value used, Weight gained) {
    if (overflow) return;
    if (i == starters->size()) {
      emit(used, gained);
      return;
    }
    enumerate(i + 1, used, gained);  // skip starter i
    const Task& t = inst.task((*starters)[i]);
    // sapkit-lint: begin-allow(exact-arith) -- `used` and the gained weight
    // are subset sums of demands/weights; the PathInstance constructor
    // proved the full sums fit in int64.
    if (used + t.demand <= cap) {
      // sapkit-analyze: allow(arena-discipline) -- reused enumeration scratch;
      // capacity persists across starters.
      added.push_back((*starters)[i]);
      enumerate(i + 1, used + t.demand, gained + t.weight);
      // sapkit-lint: end-allow(exact-arith)
      added.pop_back();
    }
  }
};

}  // namespace

UfppProfileDpResult ufpp_exact_profile_dp(
    const PathInstance& inst, std::span<const TaskId> subset,
    const UfppProfileDpOptions& options) {
  Arena& arena = thread_arena();
  // One arena scope per solve: all pools below are recycled on return.
  ArenaScope scope(arena);

  const auto m = static_cast<EdgeId>(inst.num_edges());
  std::vector<std::vector<TaskId>> starters_at(inst.num_edges());
  for (TaskId j : subset) {
    // sapkit-analyze: allow(arena-discipline) -- one bounded bucket build per
    // solve, before the sweep's arena-resident hot loop.
    starters_at[static_cast<std::size_t>(inst.task(j).first)].push_back(j);
  }

  UfppSweep ctx(inst, options, arena);
  ctx.states.push_back(UfppStateRec{});  // empty start state
  ctx.frontier.push_back(0);
  UfppProfileDpResult out;
  out.peak_states = 1;

  for (EdgeId e = 0; e < m; ++e) {
    const Value cap = inst.capacity(e);
    ctx.dedupe.clear(ctx.frontier.size());
    ctx.next.clear();
    ctx.overflow = false;
    ctx.cap = cap;
    ctx.starters = &starters_at[static_cast<std::size_t>(e)];

    for (std::size_t fi = 0; fi < ctx.frontier.size(); ++fi) {
      if (ctx.overflow) break;
      const std::int32_t sid = ctx.frontier[fi];
      // Copy the record: the states pool may grow (and move) during emits.
      const UfppStateRec rec = ctx.states[static_cast<std::size_t>(sid)];
      // Retire tasks ending before e.
      ctx.active.clear();
      Value load = 0;
      const ActiveRec* pool = ctx.active_pool.data() + rec.active_off;
      for (std::uint32_t ai = 0; ai < rec.active_len; ++ai) {
        const ActiveRec& a = pool[ai];
        if (a.last < e) continue;
        // sapkit-analyze: allow(arena-discipline) -- reused sweep scratch;
        // capacity persists across states and edges.
        ctx.active.push_back(a);
        // sapkit-lint: allow(exact-arith) -- subset sum of demands; the
        // PathInstance constructor proved the full sum fits in int64.
        load += a.demand;
      }
      if (load > cap) continue;  // dead branch (capacity dropped)

      ctx.added.clear();
      ctx.base_weight = rec.weight;
      ctx.parent = sid;
      ctx.enumerate(0, load, 0);
    }

    if (ctx.overflow) out.proven_optimal = false;
    if (ctx.next.size() > options.max_states) {
      // Weight-descending with a state-id tie-break: which states survive
      // truncation (and their order) must not depend on the sort
      // implementation. The comparator is a strict total order, so
      // nth_element + sorting only the kept prefix yields the exact
      // sequence a full sort would.
      const auto by_weight_then_id = [&](std::int32_t a, std::int32_t b) {
        const Weight wa = ctx.states[static_cast<std::size_t>(a)].weight;
        const Weight wb = ctx.states[static_cast<std::size_t>(b)].weight;
        if (wa != wb) return wa > wb;
        return a < b;
      };
      const auto keep = static_cast<std::ptrdiff_t>(options.max_states);
      std::nth_element(ctx.next.begin(), ctx.next.begin() + keep,
                       ctx.next.end(), by_weight_then_id);
      std::sort(ctx.next.begin(), ctx.next.begin() + keep,
                by_weight_then_id);
      ctx.next.resize(options.max_states);
      out.proven_optimal = false;
    }
    out.peak_states = std::max(out.peak_states, ctx.next.size());
    std::swap(ctx.frontier, ctx.next);
  }

  std::int32_t best = -1;
  for (std::size_t fi = 0; fi < ctx.frontier.size(); ++fi) {
    const std::int32_t sid = ctx.frontier[fi];
    if (best < 0 || ctx.states[static_cast<std::size_t>(sid)].weight >
                        ctx.states[static_cast<std::size_t>(best)].weight) {
      best = sid;
    }
  }
  if (best < 0) return out;
  out.weight = ctx.states[static_cast<std::size_t>(best)].weight;
  for (std::int32_t sid = best; sid >= 0;
       sid = ctx.states[static_cast<std::size_t>(sid)].parent) {
    const UfppStateRec& s = ctx.states[static_cast<std::size_t>(sid)];
    const TaskId* added = ctx.added_pool.data() + s.added_off;
    // sapkit-analyze: allow(arena-discipline) -- result assembly: the solution
    // outlives the solve's ArenaScope, so it must own heap storage.
    out.solution.tasks.insert(out.solution.tasks.end(), added,
                              added + s.added_len);
  }
  return out;
}

UfppProfileDpResult ufpp_exact_profile_dp(
    const PathInstance& inst, const UfppProfileDpOptions& options) {
  // sapkit-analyze: allow(arena-discipline) -- convenience overload: builds
  // the full-id subset once, outside the solve's hot path.
  std::vector<TaskId> all(inst.num_tasks());
  std::iota(all.begin(), all.end(), TaskId{0});
  return ufpp_exact_profile_dp(inst, all, options);
}

}  // namespace sap
