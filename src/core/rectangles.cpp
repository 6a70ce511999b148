#include "src/core/rectangles.hpp"

#include <algorithm>
#include <numeric>

#include "src/util/arena.hpp"
#include "src/util/flat.hpp"

namespace sap {
namespace {

/// Adjacency as bitsets: row v has bit u set iff rectangles v, u intersect.
/// Arena-backed; recycled with the rest of the solve's footprint.
struct BitGraph {
  std::size_t n = 0;
  std::size_t words = 0;
  FlatBuf<std::uint64_t> bits;

  BitGraph(std::span<const TaskRect> rects, Arena& arena)
      : n(rects.size()), words((rects.size() + 63) / 64), bits(arena) {
    bits.resize_zeroed(n * words);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t u = v + 1; u < n; ++u) {
        if (rects[v].intersects(rects[u])) {
          set(v, u);
          set(u, v);
        }
      }
    }
  }

  void set(std::size_t v, std::size_t u) {
    bits[v * words + u / 64] |= std::uint64_t{1} << (u % 64);
  }
  [[nodiscard]] const std::uint64_t* row(std::size_t v) const {
    return bits.data() + v * words;
  }
};

[[nodiscard]] bool mask_bit(const std::uint64_t* mask, std::size_t v) {
  return (mask[v / 64] >> (v % 64)) & 1u;
}

}  // namespace

std::vector<TaskRect> task_rectangles(const PathInstance& inst,
                                      std::span<const TaskId> subset) {
  std::vector<TaskRect> out;
  out.reserve(subset.size());
  for (TaskId j : subset) {
    const Task& t = inst.task(j);
    const Value b = inst.bottleneck(j);
    out.push_back({j, t.first, t.last, b - t.demand, b, t.weight});
  }
  return out;
}

std::vector<TaskRect> solution_rectangles(const PathInstance& inst,
                                          const SapSolution& sol) {
  std::vector<TaskRect> out;
  out.reserve(sol.placements.size());
  for (const Placement& p : sol.placements) {
    const Task& t = inst.task(p.task);
    // sapkit-lint: begin-allow(exact-arith) -- feasible placements satisfy
    // h + d <= c <= 2^62 (instance construction), so the top is exact.
    out.push_back({p.task, t.first, t.last, p.height, p.height + t.demand,
                   t.weight});
    // sapkit-lint: end-allow(exact-arith)
  }
  return out;
}

ColoringResult smallest_last_coloring(std::span<const TaskRect> rects) {
  const std::size_t n = rects.size();
  ColoringResult out;
  out.color.assign(n, -1);
  if (n == 0) return out;

  // Smallest-last elimination order on the intersection graph.
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t u = v + 1; u < n; ++u) {
      if (rects[v].intersects(rects[u])) {
        adj[v].push_back(u);
        adj[u].push_back(v);
      }
    }
  }
  std::vector<std::size_t> degree(n);
  std::vector<bool> removed(n, false);
  for (std::size_t v = 0; v < n; ++v) degree[v] = adj[v].size();

  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (!removed[v] && (best == n || degree[v] < degree[best])) best = v;
    }
    out.degeneracy =
        std::max(out.degeneracy, static_cast<int>(degree[best]));
    removed[best] = true;
    order.push_back(best);
    for (std::size_t u : adj[best]) {
      if (!removed[u]) --degree[u];
    }
  }

  // Color in reverse elimination order, greedily.
  for (std::size_t i = n; i-- > 0;) {
    const std::size_t v = order[i];
    std::vector<bool> used(n + 1, false);
    for (std::size_t u : adj[v]) {
      if (out.color[u] >= 0) used[static_cast<std::size_t>(out.color[u])] = true;
    }
    int c = 0;
    while (used[static_cast<std::size_t>(c)]) ++c;
    out.color[v] = c;
    out.num_colors = std::max(out.num_colors, c + 1);
  }
  return out;
}

namespace {

/// Branch-and-bound state for rectangle_mwis. All bitset scratch lives on
/// the arena: one mask slot per search depth instead of a fresh vector copy
/// per branch, and a flat pool of clique common-neighbor masks reused across
/// bound evaluations.
struct MwisSearch {
  std::span<const TaskRect> rects;
  const BitGraph& graph;
  std::span<const std::size_t> order;
  DeadlineGate gate;
  std::size_t max_nodes;

  /// Depth-indexed masks: slot d holds the alive mask for the dfs call at
  /// depth d. Each branch removes at least one vertex, so depth <= n and
  /// n + 1 slots cover the whole search.
  FlatBuf<std::uint64_t> mask_stack;
  /// Clique cover scratch: at most n cliques of graph.words each.
  FlatBuf<std::uint64_t> clique_masks;

  std::vector<std::size_t> current;
  std::vector<std::size_t> best;
  Weight best_weight = -1;
  std::size_t nodes = 0;
  bool exhausted = false;
  bool timed_out = false;

  MwisSearch(std::span<const TaskRect> r, const BitGraph& g,
             std::span<const std::size_t> ord, const RectMwisOptions& options,
             Arena& arena)
      : rects(r), graph(g), order(ord), gate(options.deadline),
        max_nodes(options.max_nodes), mask_stack(arena), clique_masks(arena) {
    const std::size_t n = rects.size();
    mask_stack.resize_zeroed((n + 1) * graph.words);
    clique_masks.resize_zeroed(n * graph.words);
  }

  [[nodiscard]] std::uint64_t* mask_at(std::size_t depth) {
    return mask_stack.data() + depth * graph.words;
  }

  // Greedy clique cover of the alive set in static order; the bound is the
  // sum over cliques of their maximum weight (first member, by the order).
  [[nodiscard]] Weight clique_bound(const std::uint64_t* mask) {
    std::size_t num_cliques = 0;
    Weight bound = 0;
    for (std::size_t v : order) {
      if (!mask_bit(mask, v)) continue;
      bool placed = false;
      for (std::size_t c = 0; c < num_cliques; ++c) {
        std::uint64_t* clique = clique_masks.data() + c * graph.words;
        if (mask_bit(clique, v)) {
          // v adjacent to every current member: shrink the common mask.
          const std::uint64_t* row = graph.row(v);
          for (std::size_t w = 0; w < graph.words; ++w) clique[w] &= row[w];
          placed = true;
          break;
        }
      }
      if (!placed) {
        std::uint64_t* clique = clique_masks.data() + num_cliques * graph.words;
        ++num_cliques;
        const std::uint64_t* row = graph.row(v);
        std::copy(row, row + graph.words, clique);
        // sapkit-lint: allow(exact-arith) -- each vertex contributes once, so
        // the bound is a subset sum of weights, proven to fit at construction.
        bound += rects[v].weight;
      }
    }
    return bound;
  }

  void dfs(std::size_t depth, Weight weight) {
    if (exhausted || timed_out) return;
    if (gate.expired()) {
      timed_out = true;
      return;
    }
    if (++nodes > max_nodes) {
      exhausted = true;
      return;
    }
    if (weight > best_weight) {
      best_weight = weight;
      best = current;
    }
    const std::uint64_t* mask = mask_at(depth);
    // Pick the heaviest alive vertex.
    const std::size_t n = rects.size();
    std::size_t pick = n;
    for (std::size_t v : order) {
      if (mask_bit(mask, v)) {
        pick = v;
        break;
      }
    }
    if (pick == n) return;
    // Both terms are at most the full weight sum, so widen: their sum can
    // exceed int64 even though each side fits.
    if (static_cast<Int128>(weight) + clique_bound(mask) <= best_weight) {
      return;
    }

    // Branch 1: include pick (drop its closed neighborhood). The child mask
    // is written into the next depth slot; this call's slot stays intact for
    // the exclude branch below.
    const std::size_t deeper = depth + 1;
    std::uint64_t* child = mask_at(deeper);
    const std::uint64_t* row = graph.row(pick);
    for (std::size_t w = 0; w < graph.words; ++w) child[w] = mask[w] & ~row[w];
    child[pick / 64] &= ~(std::uint64_t{1} << (pick % 64));
    // sapkit-analyze: allow(arena-discipline) -- bounded by n and capacity
    // persists across the DFS: reallocation amortizes away after the first
    // descent.
    current.push_back(pick);
    // sapkit-lint: allow(exact-arith) -- subset sum of distinct task
    // weights; the instance constructor proved the full sum fits int64.
    dfs(deeper, weight + rects[pick].weight);
    current.pop_back();

    // Branch 2: exclude pick. This call's slot survived the include branch
    // (children only write deeper slots), so copy it down minus pick.
    child = mask_at(deeper);
    std::copy(mask, mask + graph.words, child);
    child[pick / 64] &= ~(std::uint64_t{1} << (pick % 64));
    dfs(deeper, weight);
  }
};

}  // namespace

RectMwisResult rectangle_mwis(std::span<const TaskRect> rects,
                              const RectMwisOptions& options) {
  const std::size_t n = rects.size();
  RectMwisResult out;
  if (n == 0) return out;
  Arena& arena = thread_arena();
  ArenaScope scope(arena);
  BitGraph graph(rects, arena);

  // Static order: weight-descending makes the incumbent strong early.
  // sapkit-analyze: allow(arena-discipline) -- one bounded setup allocation
  // per solve; the search itself runs on arena-backed masks.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::sort(order, [&](std::size_t a, std::size_t b) {
    if (rects[a].weight != rects[b].weight) {
      return rects[a].weight > rects[b].weight;
    }
    return a < b;  // tie-break: order must not depend on sort internals
  });

  MwisSearch search(rects, graph, order, options, arena);
  std::uint64_t* alive = search.mask_at(0);
  for (std::size_t v = 0; v < n; ++v) {
    alive[v / 64] |= std::uint64_t{1} << (v % 64);
  }
  search.dfs(0, 0);

  if (search.timed_out) {
    // Typed timeout outcome: empty selection, never the partial incumbent.
    out.timed_out = true;
    out.proven_optimal = false;
    out.nodes = search.nodes;
    return out;
  }
  out.chosen = std::move(search.best);
  out.weight = search.best_weight;
  out.proven_optimal = !search.exhausted;
  out.nodes = search.nodes;
  return out;
}

}  // namespace sap
