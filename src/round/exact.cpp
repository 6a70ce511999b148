#include "src/round/exact.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/exact/profile_dp.hpp"
#include "src/round/approx.hpp"
#include "src/util/arena.hpp"

namespace sap::round {
namespace {

/// DFS node budget across all tried round counts; exceeding it returns the
/// best known assignment with `proven_optimal` cleared.
constexpr std::uint64_t kMaxNodes = 1'000'000;
/// Beam cap of each SAP feasibility probe.
constexpr std::size_t kMaxProbeStates = 200'000;

// Probe verdicts: trusted feasible / trusted infeasible / beam-truncated
// infeasible (may be wrong) / deadline hit mid-probe.
enum class Verdict : std::int8_t {
  kFeasible,
  kInfeasible,
  kUntrustedInfeasible,
  kExpired,
};

struct Search {
  const PathInstance& inst;
  const PathInstance* twin;  // unit-weight copy; nullptr for Round-UFP
  RoundKind kind;
  const RoundExactOptions& options;
  std::vector<TaskId> order;
  const Value* caps = nullptr;
  std::size_t m = 0;
  std::size_t k = 0;  // rounds allowed in the current attempt

  std::vector<Value> loads;                 // k * m, row per round
  std::vector<std::vector<TaskId>> members;  // per-round task sets
  std::vector<std::uint64_t> masks;         // per-round bitmask (n <= 64)
  std::uint64_t nodes = 0;
  bool out_of_budget = false;
  bool expired = false;
  bool tainted = false;  // an untrusted probe verdict pruned a branch
  bool use_masks = false;
  // Memoized probe verdicts by task bitmask; std::map keeps iteration (and
  // behaviour) deterministic, though it is never iterated anyway.
  std::map<std::uint64_t, Verdict> memo;

  Search(const PathInstance& instance, const PathInstance* unit_twin,
         RoundKind round_kind, const RoundExactOptions& opts)
      : inst(instance), twin(unit_twin), kind(round_kind), options(opts) {
    m = inst.num_edges();
    caps = inst.capacities().data();
    const auto n = static_cast<TaskId>(inst.num_tasks());
    use_masks = inst.num_tasks() <= 64;
    // sapkit-analyze: allow(arena-discipline) -- one bounded allocation at
    // search construction, before the DFS.
    order.reserve(inst.num_tasks());
    for (TaskId j = 0; j < n; ++j) order.push_back(j);
    std::sort(order.begin(), order.end(), [this](TaskId x, TaskId y) {
      const Task& a = inst.task(x);
      const Task& b = inst.task(y);
      if (a.first != b.first) return a.first < b.first;
      if (a.demand != b.demand) return a.demand > b.demand;
      return x < y;
    });
  }

  void reset(std::size_t rounds_allowed) {
    k = rounds_allowed;
    // sapkit-analyze: begin-allow(arena-discipline) -- sized once per
    // candidate round count k, outside the DFS hot loop.
    loads.assign(k * m, 0);
    members.assign(k, {});
    masks.assign(k, 0);
    // sapkit-analyze: end-allow(arena-discipline)
  }

  Verdict probe(const std::vector<TaskId>& set, std::uint64_t mask) {
    if (use_masks) {
      const auto it = memo.find(mask);
      if (it != memo.end()) return it->second;
    }
    SapExactOptions probe_opts;
    probe_opts.max_states = kMaxProbeStates;
    probe_opts.deadline = options.deadline;
    const SapExactResult r = sap_exact_profile_dp(*twin, set, probe_opts);
    if (r.timed_out) return Verdict::kExpired;
    Verdict v = Verdict::kUntrustedInfeasible;
    // Unit weights: the set is SAP-feasible iff every member is placed. A
    // found full placement is its own certificate even when beam-truncated;
    // an infeasible verdict is trusted only from an untruncated sweep.
    if (r.weight == static_cast<Weight>(set.size())) {
      v = Verdict::kFeasible;
    } else if (r.proven_optimal) {
      v = Verdict::kInfeasible;
    }
    // sapkit-analyze: allow(arena-discipline) -- feasibility memo: one node
    // per distinct mask, the accepted cost of pruning exponential re-probes.
    if (use_masks) memo.emplace(mask, v);
    return v;
  }

  bool dfs(std::size_t idx, std::size_t used) {
    if (expired || out_of_budget) return false;
    ++nodes;
    if (nodes > kMaxNodes) {
      out_of_budget = true;
      return false;
    }
    if ((nodes & 255) == 0 && options.deadline.expired()) {
      expired = true;
      return false;
    }
    if (idx == order.size()) return true;
    const TaskId j = order[idx];
    const Task& t = inst.task(j);
    const Value d = t.demand;
    const std::size_t limit = std::min(used + 1, k);
    for (std::size_t r = 0; r < limit; ++r) {
      Value* row = loads.data() + r * m;
      bool fits = true;
      for (EdgeId e = t.first; e <= t.last; ++e) {
        const auto ei = static_cast<std::size_t>(e);
        // Headroom by subtraction; the sum load + d may not fit int64.
        if (caps[ei] - row[ei] < d) {
          fits = false;
          break;
        }
      }
      if (!fits) continue;
      const std::uint64_t bit =
          use_masks ? std::uint64_t{1} << static_cast<unsigned>(j) : 0;
      if (kind == RoundKind::kSap) {
        // sapkit-analyze: allow(arena-discipline) -- round membership lists
        // are the search state handed to extract(); their total size is
        // bounded by n.
        members[r].push_back(j);
        const Verdict v = probe(members[r], masks[r] | bit);
        if (v != Verdict::kFeasible) {
          members[r].pop_back();
          if (v == Verdict::kExpired) {
            expired = true;
            return false;
          }
          if (v == Verdict::kUntrustedInfeasible) tainted = true;
          continue;
        }
      } else {
        members[r].push_back(j);
      }
      masks[r] |= bit;
      for (EdgeId e = t.first; e <= t.last; ++e) {
        const auto ei = static_cast<std::size_t>(e);
        // sapkit-analyze: allow(checked-arith) -- the fit check above keeps
        // row[ei] + d <= caps[ei] <= 2^62: exact in int64.
        row[ei] += d;
      }
      if (dfs(idx + 1, std::max(used, r + 1))) return true;
      for (EdgeId e = t.first; e <= t.last; ++e) {
        const auto ei = static_cast<std::size_t>(e);
        row[ei] -= d;
      }
      masks[r] &= ~bit;
      members[r].pop_back();
      if (expired || out_of_budget) return false;
    }
    return false;
  }

  // Rebuild the found assignment as concrete rounds. Round-SAP placements
  // come from one final probe per round (its full placement is a
  // certificate; verdicts above guarantee one exists).
  RoundAssignment extract() {
    RoundAssignment out;
    out.kind = kind;
    for (std::size_t r = 0; r < k; ++r) {
      if (members[r].empty()) continue;
      SapSolution sol;
      if (kind == RoundKind::kUfp) {
        // sapkit-analyze: allow(arena-discipline) -- result assembly: the
        // RoundAssignment outlives the search.
        sol.placements.reserve(members[r].size());
        for (const TaskId j : members[r]) {
          sol.placements.push_back(Placement{j, 0});
        }
      } else {
        SapExactOptions probe_opts;
        probe_opts.max_states = kMaxProbeStates;
        probe_opts.deadline = options.deadline;
        const SapExactResult res =
            sap_exact_profile_dp(*twin, members[r], probe_opts);
        if (res.timed_out ||
            res.weight != static_cast<Weight>(members[r].size())) {
          expired = true;  // deadline raced the re-probe; caller bails
          return out;
        }
        sol = res.solution;
      }
      std::sort(sol.placements.begin(), sol.placements.end(),
                [](const Placement& a, const Placement& b) {
                  return a.task < b.task;
                });
      // sapkit-analyze: allow(arena-discipline) -- result assembly: the
      // RoundAssignment outlives the search.
      out.rounds.push_back(std::move(sol));
    }
    return out;
  }
};

}  // namespace

RoundExactResult solve_round_exact(const PathInstance& inst, RoundKind kind,
                                   const RoundExactOptions& options) {
  ArenaScope scope(thread_arena());
  RoundExactResult out;
  out.assignment.kind = kind;
  if (inst.num_tasks() == 0) {
    out.proven_optimal = true;
    return out;
  }

  // Upper bound: the approximation's assignment (always valid).
  RoundApproxOptions approx_opts;
  approx_opts.deadline = options.deadline;
  RoundAssignment upper;
  try {
    upper = kind == RoundKind::kUfp ? solve_round_ufp_approx(inst, approx_opts)
                                    : solve_round_sap_approx(inst, approx_opts);
  } catch (const DeadlineExceeded&) {
    out.timed_out = true;
    return out;
  }
  const Value lb = round_lower_bound(inst);
  out.assignment = std::move(upper);
  out.rounds = static_cast<Value>(out.assignment.num_rounds());
  if (out.rounds == lb) {
    out.proven_optimal = true;
    return out;
  }

  // Unit-weight twin for Round-SAP feasibility probes: max-weight == |set|
  // iff the set fits one round.
  PathInstance twin_storage({1}, {});
  const PathInstance* twin = nullptr;
  if (kind == RoundKind::kSap) {
    // sapkit-analyze: begin-allow(arena-discipline) -- one bounded copy per
    // solve to build the unit-weight twin used by feasibility probes.
    std::vector<Value> caps(inst.capacities().begin(),
                            inst.capacities().end());
    std::vector<Task> unit_tasks(inst.tasks().begin(), inst.tasks().end());
    // sapkit-analyze: end-allow(arena-discipline)
    for (Task& t : unit_tasks) t.weight = 1;
    twin_storage = PathInstance(std::move(caps), std::move(unit_tasks));
    twin = &twin_storage;
  }

  Search search(inst, twin, kind, options);
  bool found = false;
  for (Value k = lb; k < out.rounds; ++k) {
    search.reset(static_cast<std::size_t>(k));
    const bool ok = search.dfs(0, 0);
    out.nodes = search.nodes;
    if (search.expired) {
      out = RoundExactResult{};
      out.assignment.kind = kind;
      out.timed_out = true;
      return out;
    }
    if (ok) {
      RoundAssignment exact_assignment = search.extract();
      if (search.expired) {
        out = RoundExactResult{};
        out.assignment.kind = kind;
        out.timed_out = true;
        return out;
      }
      out.assignment = std::move(exact_assignment);
      out.rounds = static_cast<Value>(out.assignment.num_rounds());
      found = true;
      break;
    }
    if (search.out_of_budget) break;
  }
  // The first admitting k is optimal — unless an untrusted probe verdict
  // may have pruned a smaller k, or the budget cut a search short.
  out.proven_optimal = !search.tainted && !search.out_of_budget;
  if (!found && search.out_of_budget) out.proven_optimal = false;
  return out;
}

}  // namespace sap::round
