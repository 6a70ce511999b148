#include "src/round/approx.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "src/dsa/dsa.hpp"
#include "src/util/arena.hpp"

namespace sap::round {
namespace {

// The small/large classification threshold: small means 2 d_j <= b(j).
constexpr Ratio kHalf{1, 2};

// Deterministic packing order shared by every pipeline: left endpoint
// ascending (the order the blocking arguments in approx.hpp need), then
// demand descending (FFD flavour among ties), then id.
void sort_packing_order(const PathInstance& inst, std::vector<TaskId>& ids) {
  std::sort(ids.begin(), ids.end(), [&inst](TaskId x, TaskId y) {
    const Task& a = inst.task(x);
    const Task& b = inst.task(y);
    if (a.first != b.first) return a.first < b.first;
    if (a.demand != b.demand) return a.demand > b.demand;
    return x < y;
  });
}

// First fit by per-edge load (the Round-UFP round test): task j fits round
// r iff every edge of I_j has headroom d_j. Returns the task partition.
std::vector<std::vector<TaskId>> load_first_fit(const PathInstance& inst,
                                                std::span<const TaskId> order,
                                                DeadlineGate& gate) {
  const std::size_t m = inst.num_edges();
  const Value* caps = inst.capacities().data();
  std::vector<std::vector<Value>> loads;
  std::vector<std::vector<TaskId>> rounds;
  for (const TaskId j : order) {
    const Task& t = inst.task(j);
    const Value d = t.demand;
    std::size_t chosen = rounds.size();
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      gate.check();
      const Value* row = loads[r].data();
      bool fits = true;
      for (EdgeId e = t.first; e <= t.last; ++e) {
        const auto ei = static_cast<std::size_t>(e);
        // Headroom by subtraction only: load + d can reach 2^63 on
        // admissible instances, the difference cannot overflow.
        if (caps[ei] - row[ei] < d) {
          fits = false;
          break;
        }
      }
      if (fits) {
        chosen = r;
        break;
      }
    }
    if (chosen == rounds.size()) {
      // sapkit-analyze: begin-allow(arena-discipline) -- first-fit opens a new
      // round only when no existing round fits; rounds and their load profiles
      // are handed back to the caller and must outlive the solve.
      rounds.emplace_back();
      loads.emplace_back(m, 0);
      // sapkit-analyze: end-allow(arena-discipline)
    }
    rounds[chosen].push_back(j);
    Value* row = loads[chosen].data();
    for (EdgeId e = t.first; e <= t.last; ++e) {
      const auto ei = static_cast<std::size_t>(e);
      // sapkit-analyze: allow(checked-arith) -- the fit check above keeps
      // row[ei] + d <= caps[ei] <= 2^62: exact in int64.
      row[ei] += d;
    }
  }
  return rounds;
}

// A placed rectangle inside one Round-SAP round. `top` is precomputed at
// insertion so probe loops never re-derive it from quantity members.
struct Box {
  EdgeId first = 0;
  EdgeId last = 0;
  Value bot = 0;
  Value top = 0;
  TaskId task = 0;
};

// Lowest feasible height for a task (demand d, range bottleneck `bound`)
// against the boxes of one round, or -1 when the round cannot take it.
// The optimum is always 0 or the top of an overlapping box, so scanning
// the sorted candidate set yields the true lowest feasible height.
Value lowest_feasible_height(const Task& t, Value d, Value bound,
                             const std::vector<Box>& boxes,
                             std::vector<Value>& cand) {
  cand.clear();
  // sapkit-analyze: allow(arena-discipline) -- caller-owned candidate scratch
  // reused across tasks; capacity persists.
  cand.push_back(0);
  for (const Box& b : boxes) {
    if (b.last < t.first || b.first > t.last) continue;
    cand.push_back(b.top);
  }
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  for (const Value y : cand) {
    // Overflow order matters: establish headroom by subtraction before the
    // sum y + d is ever formed (it is then <= bound <= 2^62). Candidates
    // ascend, so the first without headroom ends the scan.
    if (bound - y < d) break;
    // sapkit-analyze: allow(checked-arith) -- headroom bound - y >= d was
    // just established by subtraction, so y + d <= bound <= 2^62 is exact.
    const Value yt = y + d;
    bool clash = false;
    for (const Box& b : boxes) {
      if (b.last < t.first || b.first > t.last) continue;
      if (b.bot < yt && b.top > y) {
        clash = true;
        break;
      }
    }
    if (!clash) return y;
  }
  return -1;
}

// Profiled first fit (the Round-SAP round test): place each task at the
// lowest feasible height of the first round that has one; open a new round
// otherwise (height 0 always fits a fresh round — the instance constructor
// guarantees d_j <= b(j)).
std::vector<std::vector<Box>> profiled_first_fit(
    const PathInstance& inst, std::span<const TaskId> order,
    DeadlineGate& gate, std::vector<Value>& cand) {
  std::vector<std::vector<Box>> rounds;
  for (const TaskId j : order) {
    const Task& t = inst.task(j);
    const Value d = t.demand;
    const Value bound = inst.range_bottleneck(t.first, t.last);
    bool placed = false;
    for (std::vector<Box>& boxes : rounds) {
      gate.check();
      const Value y = lowest_feasible_height(t, d, bound, boxes, cand);
      if (y >= 0) {
        // sapkit-analyze: allow(checked-arith) -- lowest_feasible_height
        // only returns y with y + d <= bound <= 2^62: exact in int64.
        const Value yt = y + d;
        // sapkit-analyze: allow(arena-discipline) -- boxes accumulate the
        // chosen round's placements, returned to the caller.
        boxes.push_back(Box{t.first, t.last, y, yt, j});
        placed = true;
        break;
      }
    }
    if (!placed) {
      // sapkit-analyze: allow(arena-discipline) -- a newly opened round's box
      // list is caller-owned output storage.
      rounds.emplace_back();
      rounds.back().push_back(Box{t.first, t.last, 0, d, j});
    }
  }
  return rounds;
}

// The slab arm: strip-pack the subset (demands all <= s) with the DSA
// portfolio, then cut the strip at multiples of s. A box is assigned to
// the slab holding its bottom and rebased against that slab, so its new
// top is < s + d <= 2 s <= c_min <= every c_e, and same-slab boxes keep
// the vertical disjointness the strip gave them (both shift by the same
// amount). Empty slabs (a box can span one entirely from below) are
// dropped.
std::vector<std::vector<Box>> slab_cut(const PathInstance& inst,
                                       std::span<const TaskId> subset,
                                       Value s) {
  const DsaResult strip = dsa_pack_portfolio(inst, subset);
  std::vector<std::vector<Box>> rounds;
  for (const Placement& p : strip.solution.placements) {
    const Task& t = inst.task(p.task);
    const Value d = t.demand;
    const Value h = p.height;
    const Value k = h / s;
    // sapkit-analyze: begin-allow(checked-arith) -- k = h / s makes
    // k * s <= h, and bot < s with d <= s gives top < 2 s <= c_min: exact.
    const Value base = k * s;
    const Value bot = h - base;
    const Value top = bot + d;
    // sapkit-analyze: end-allow(checked-arith)
    const auto slab = static_cast<std::size_t>(k);
    // sapkit-analyze: allow(arena-discipline) -- one slab bucket per k = h /
    // s; the buckets are the returned assignment.
    if (rounds.size() <= slab) rounds.resize(slab + 1);
    rounds[slab].push_back(Box{t.first, t.last, bot, top, p.task});
  }
  std::erase_if(rounds, [](const std::vector<Box>& r) { return r.empty(); });
  return rounds;
}

// Canonical conversion: rounds ordered large-pool-then-small-pool, and each
// round's placements sorted by task id, so equal inputs produce
// byte-identical serialized assignments.
void append_ufp_rounds(const std::vector<std::vector<TaskId>>& rounds,
                       RoundAssignment& out) {
  for (const std::vector<TaskId>& ids : rounds) {
    SapSolution sol;
    // sapkit-analyze: begin-allow(arena-discipline) -- canonical conversion
    // into the caller's RoundAssignment: output storage, heap by design.
    sol.placements.reserve(ids.size());
    for (const TaskId j : ids) sol.placements.push_back(Placement{j, 0});
    std::sort(sol.placements.begin(), sol.placements.end(),
              [](const Placement& a, const Placement& b) {
                return a.task < b.task;
              });
    out.rounds.push_back(std::move(sol));
    // sapkit-analyze: end-allow(arena-discipline)
  }
}

void append_sap_rounds(const std::vector<std::vector<Box>>& rounds,
                       RoundAssignment& out) {
  for (const std::vector<Box>& boxes : rounds) {
    SapSolution sol;
    // sapkit-analyze: begin-allow(arena-discipline) -- canonical conversion
    // into the caller's RoundAssignment: output storage, heap by design.
    sol.placements.reserve(boxes.size());
    for (const Box& b : boxes) {
      sol.placements.push_back(Placement{b.task, b.bot});
    }
    std::sort(sol.placements.begin(), sol.placements.end(),
              [](const Placement& a, const Placement& b) {
                return a.task < b.task;
              });
    out.rounds.push_back(std::move(sol));
    // sapkit-analyze: end-allow(arena-discipline)
  }
}

void classify(const PathInstance& inst, std::vector<TaskId>& small_ids,
              std::vector<TaskId>& large_ids) {
  const auto n = static_cast<TaskId>(inst.num_tasks());
  for (TaskId j = 0; j < n; ++j) {
    // sapkit-analyze: allow(arena-discipline) -- classification output vectors
    // are caller-owned and bounded by n.
    (inst.is_small(j, kHalf) ? small_ids : large_ids).push_back(j);
  }
  sort_packing_order(inst, small_ids);
  sort_packing_order(inst, large_ids);
}

}  // namespace

RoundAssignment solve_round_ufp_approx(const PathInstance& inst,
                                       const RoundApproxOptions& options,
                                       RoundApproxReport* report) {
  ArenaScope scope(thread_arena());
  DeadlineGate gate(options.deadline, /*stride=*/64);
  RoundAssignment out;
  out.kind = RoundKind::kUfp;
  if (report != nullptr) *report = RoundApproxReport{};
  if (inst.num_tasks() == 0) return out;

  std::vector<TaskId> small_ids;
  std::vector<TaskId> large_ids;
  classify(inst, small_ids, large_ids);
  const std::vector<std::vector<TaskId>> large_rounds =
      load_first_fit(inst, large_ids, gate);
  const std::vector<std::vector<TaskId>> small_rounds =
      load_first_fit(inst, small_ids, gate);
  append_ufp_rounds(large_rounds, out);
  append_ufp_rounds(small_rounds, out);
  if (report != nullptr) {
    report->small_rounds = small_rounds.size();
    report->large_rounds = large_rounds.size();
    report->lower_bound = round_lower_bound(inst);
  }
  return out;
}

RoundAssignment solve_round_sap_approx(const PathInstance& inst,
                                       const RoundApproxOptions& options,
                                       RoundApproxReport* report) {
  ArenaScope scope(thread_arena());
  DeadlineGate gate(options.deadline, /*stride=*/64);
  RoundAssignment out;
  out.kind = RoundKind::kSap;
  if (report != nullptr) *report = RoundApproxReport{};
  if (inst.num_tasks() == 0) return out;

  std::vector<TaskId> small_ids;
  std::vector<TaskId> large_ids;
  classify(inst, small_ids, large_ids);
  std::vector<Value> cand;
  const std::vector<std::vector<Box>> large_rounds =
      profiled_first_fit(inst, large_ids, gate, cand);

  // Smalls, arm A (always; carries the proven bound from approx.hpp).
  std::vector<std::vector<Box>> small_rounds =
      profiled_first_fit(inst, small_ids, gate, cand);
  bool slab_won = false;
  if (options.portfolio && !small_ids.empty()) {
    const Value cmin = inst.min_capacity();
    const Value s = cmin / 2;
    if (s >= 1) {
      // Arm B: slab-cut the strip packing. The portfolio packer is not
      // deadline-gated internally, so the budget is checked on both sides.
      gate.check();
      std::vector<TaskId> slabable;
      std::vector<TaskId> leftover;
      for (const TaskId j : small_ids) {
        if (inst.task(j).demand <= s) {
          // sapkit-analyze: begin-allow(arena-discipline) -- per-arm task
          // partition and round concatenation, bounded by n and the final
          // round count; all of it is output-bound storage.
          slabable.push_back(j);
        } else {
          leftover.push_back(j);  // only under non-uniform capacities
        }
      }
      std::vector<std::vector<Box>> slab_rounds = slab_cut(inst, slabable, s);
      gate.check();
      const std::vector<std::vector<Box>> extra =
          profiled_first_fit(inst, leftover, gate, cand);
      if (slab_rounds.size() + extra.size() < small_rounds.size()) {
        slab_won = true;
        slab_rounds.insert(slab_rounds.end(), extra.begin(), extra.end());
        // sapkit-analyze: end-allow(arena-discipline)
        small_rounds = std::move(slab_rounds);
      }
    }
  }

  append_sap_rounds(large_rounds, out);
  append_sap_rounds(small_rounds, out);
  if (report != nullptr) {
    report->small_rounds = small_rounds.size();
    report->large_rounds = large_rounds.size();
    report->lower_bound = round_lower_bound(inst);
    report->slab_arm_won = slab_won;
  }
  return out;
}

}  // namespace sap::round
