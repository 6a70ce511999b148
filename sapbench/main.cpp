// sapbench: load generator, correctness gate and traced replay for the
// sapkit benchmark. run.py builds it, starts `sapkit_cli serve`, and calls:
//
//   sapbench warm --port P
//       set-up: solves the hit pool through sapd; every request must miss.
//   sapbench hits --port P
//       set-up, after sapd restarted on the journal the warm-up wrote: asks
//       for every pool entry once on one connection; every request must hit.
//   sapbench load --workload W --seed S --seconds T --port P
//                 [--corpus-seed C] [--spans FILE]
//       the measured run: drives sapd with the workload's fixed request
//       list over kClients connections, gates every answer, and with
//       --spans also runs the traced in-process replay.
//
// Each prints one JSON object on stdout and exits non-zero when a
// correctness check fails. warm and hits print a digest of their answers,
// which run.py compares: cached answers replayed from the journal must be
// the bytes of the fresh ones.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sapbench/gate.hpp"
#include "sapbench/replay.hpp"
#include "sapbench/trace.hpp"
#include "sapbench/workload.hpp"
#include "src/io/instance_io.hpp"
#include "src/service/client.hpp"

namespace {

using sap::service::SolveRequest;
using sap::service::SolveResponse;
using sapbench::BenchRequest;
using sapbench::now_ns;

struct Outcome {
  bool ok = false;
  std::string error;
  double latency_ms = 0.0;
  /// Generator gap: from the client's previous reply (or the round's
  /// start) to this send.
  double lag_ms = 0.0;
  std::int64_t wall_micros = 0;
  std::uint64_t answer_hash = 0;
  std::unique_ptr<SolveResponse> response;  ///< the full answer
};

struct LoopResult {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;  ///< summed round times
  /// Per round: successful requests per second, from the round's start to
  /// its last reply.
  std::vector<double> round_qps;
};

sap::service::Client connect_client(std::uint16_t port) {
  sap::service::ClientOptions options;
  options.connect_timeout_ms = 5'000;
  options.read_timeout_ms = 150'000;
  options.write_timeout_ms = 10'000;
  sap::service::Client client(options);
  client.connect("127.0.0.1", port);
  return client;
}

void send_one(sap::service::Client& client, std::uint16_t port,
              const BenchRequest& request, Outcome& out) {
  try {
    sap::service::Client::SolveOutcome reply = client.solve(*request.wire);
    if (!reply.ok) {
      out.error = std::string(sap::service::error_code_name(reply.error_code)) +
                  ": " + reply.error_message;
      return;
    }
    out.ok = true;
    out.wall_micros = reply.response.wall_micros;
    out.answer_hash = sapbench::answer_hash(reply.response.solution_text,
                                            reply.response.certificate_text);
    out.response = std::make_unique<SolveResponse>(std::move(reply.response));
  } catch (const std::exception& error) {
    out.error = error.what();
    try {
      client.connect("127.0.0.1", port);
    } catch (const std::exception&) {
      // The next request on this connection records the failure.
    }
  }
}

/// A closed loop in rounds of `round_size` requests: `clients` connections,
/// each pulling the next request of the round from one shared index as soon
/// as its previous reply is in, so no client holds a fixed share of the list
/// and a slow request holds up only its own connection. A round starts when
/// every client has finished the previous one.
LoopResult run_loop(const std::vector<BenchRequest>& requests,
                    std::uint16_t port, std::size_t clients,
                    std::size_t round_size) {
  const std::size_t n = requests.size();
  const std::size_t rounds = (n + round_size - 1) / round_size;
  LoopResult result;
  result.outcomes.resize(n);
  result.round_qps.reserve(rounds);
  std::atomic<std::size_t> next{0};
  std::vector<std::int64_t> last_recv(clients, 0);
  // Written only by the barrier's completion step, while every client waits.
  std::size_t phase = 0;
  std::size_t round_end = 0;
  std::int64_t round_start = 0;
  auto between_rounds = [&]() noexcept {
    const std::int64_t now = now_ns();
    if (phase > 0) {
      const std::size_t begin = (phase - 1) * round_size;
      const auto ok = std::count_if(
          result.outcomes.begin() + static_cast<std::ptrdiff_t>(begin),
          result.outcomes.begin() + static_cast<std::ptrdiff_t>(round_end),
          [](const Outcome& out) { return out.ok; });
      const std::int64_t wall =
          *std::max_element(last_recv.begin(), last_recv.end()) - round_start;
      result.wall_s += static_cast<double>(wall) / 1e9;
      result.round_qps.push_back(static_cast<double>(ok) * 1e9 /
                                 static_cast<double>(std::max<std::int64_t>(
                                     wall, 1)));
    }
    if (phase < rounds) {
      next = phase * round_size;
      round_end = std::min(n, (phase + 1) * round_size);
      round_start = now;
      std::fill(last_recv.begin(), last_recv.end(), now);
    }
    ++phase;
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(clients), between_rounds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      sap::service::Client client;
      std::string connect_error;
      try {
        client = connect_client(port);
      } catch (const std::exception& error) {
        connect_error = "connect: " + std::string(error.what());
      }
      for (std::size_t round = 0; round < rounds; ++round) {
        sync.arrive_and_wait();
        std::int64_t prev = round_start;
        for (std::size_t i = next++; i < round_end; i = next++) {
          Outcome& out = result.outcomes[i];
          const std::int64_t send = now_ns();
          out.lag_ms = static_cast<double>(send - prev) / 1e6;
          if (connect_error.empty()) {
            send_one(client, port, requests[i], out);
          } else {
            out.error = connect_error;
          }
          prev = now_ns();
          out.latency_ms = static_cast<double>(prev - send) / 1e6;
        }
        last_recv[c] = prev;
      }
      sync.arrive_and_wait();
    });
  }
  for (std::thread& thread : threads) thread.join();
  return result;
}

/// Nearest-rank percentile of an ascending vector.
double percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Median of an ascending vector; the mean of the middle two for an even
/// count.
double median(const std::vector<double>& sorted) {
  if (sorted.empty()) return 0.0;
  const std::size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : (sorted[mid - 1] + sorted[mid]) / 2.0;
}

/// The tail: the highest percentile of an ascending vector that has 10
/// samples beyond it, i.e. its 11th-largest value (p99 at 1000 samples,
/// p99.58 at 2400). A fixed percentile such as p99 of a corpus list falls
/// on the boundary between two instances' copies (1% of 300 instances is
/// exactly 3 of them), where it jumps between their costs; the 11th
/// largest sits among the copies of the heaviest few.
struct Tail {
  double pct = 100.0;
  double value = 0.0;
};
Tail tail_of(const std::vector<double>& sorted) {
  constexpr std::size_t kBeyond = 10;
  if (sorted.size() <= kBeyond) {
    return {100.0, sorted.empty() ? 0.0 : sorted.back()};
  }
  const std::size_t at = sorted.size() - kBeyond - 1;
  return {100.0 * static_cast<double>(at + 1) /
              static_cast<double>(sorted.size()),
          sorted[at]};
}

/// Reads `"key": <integer>` from sapd's stats JSON; every key used here is
/// unique in that object.
std::int64_t stat(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) {
    throw std::runtime_error("stats JSON lacks '" + key + "'");
  }
  return std::stoll(json.substr(at + needle.size()));
}

struct CacheDelta {
  std::int64_t hits = 0, misses = 0, coalesced = 0, evictions = 0,
               appends = 0;
};

CacheDelta cache_delta(const std::string& before, const std::string& after) {
  auto d = [&](const char* key) { return stat(after, key) - stat(before, key); };
  return {d("hits"), d("misses"), d("coalesced"), d("evictions"),
          d("journal_appends")};
}

std::string stats_json(std::uint16_t port) {
  sap::service::Client client = connect_client(port);
  return client.stats_json();
}

/// Gate results for every request. Requests group by instance, kind and
/// answer, so a corpus instance served several times is checked once per
/// distinct answer.
struct GateResult {
  bool correct = true;
  std::string reason;
  std::vector<sapbench::Verdict> verdicts;  ///< per group
  std::vector<std::size_t> group_of;        ///< per request
  std::int64_t unverifiable = 0;

  void fail(std::string why) {
    if (correct) reason = std::move(why);
    correct = false;
  }
};

GateResult gate_all(const std::vector<BenchRequest>& requests,
                    const std::vector<Outcome>& outcomes) {
  GateResult gate;
  gate.group_of.assign(requests.size(), 0);
  std::unordered_map<std::string, std::size_t> group_of_key;
  std::vector<std::size_t> first;  // per group: its first request
  const std::hash<std::string> text_hash;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Outcome& out = outcomes[i];
    if (!out.ok) continue;
    const SolveRequest& wire = *requests[i].wire;
    const std::string key = std::to_string(text_hash(wire.instance_text)) +
                            ' ' + std::to_string(static_cast<int>(wire.kind)) +
                            (wire.want_certificate ? " c " : " p ") +
                            std::to_string(out.answer_hash);
    const auto [it, added] = group_of_key.emplace(key, first.size());
    if (added) first.push_back(i);
    gate.group_of[i] = it->second;
  }
  gate.verdicts.resize(first.size());
  sapbench::parallel_for(first.size(), [&](std::size_t, std::size_t g) {
    const std::size_t i = first[g];
    const sap::PathInstance inst =
        sap::path_instance_from_string(requests[i].wire->instance_text);
    gate.verdicts[g] = sapbench::check_answer(inst, *requests[i].wire,
                                              *outcomes[i].response, nullptr);
  });
  for (const sapbench::Verdict& verdict : gate.verdicts) {
    if (!verdict.ok) gate.fail(verdict.reason);
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (outcomes[i].ok && gate.verdicts[gate.group_of[i]].unverifiable) {
      ++gate.unverifiable;
    }
  }
  return gate;
}

/// Order-sensitive digest of the answers of a loop; 0 marks a failure.
std::uint64_t answers_digest(const LoopResult& loop) {
  std::uint64_t digest = 0;
  for (const Outcome& out : loop.outcomes) {
    if (!out.ok) return 0;
    digest = (digest ^ out.answer_hash) * 0x100000001b3ULL;
  }
  return digest;
}

void write_json_string(std::ostream& os, const std::string& text) {
  os << '"';
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      os << '\\' << ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      os << ' ';
    } else {
      os << ch;
    }
  }
  os << '"';
}

void write_metrics(std::ostream& os, const std::map<std::string, double>& m) {
  os << '{';
  bool first = true;
  for (const auto& [name, value] : m) {
    os << (first ? "" : ", ") << '"' << name << "\": " << value;
    first = false;
  }
  os << '}';
}

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  std::uint16_t port = 0;
  std::uint64_t corpus_seed = sapbench::kDefaultCorpusSeed;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: sapbench warm|hits|load ...");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (flag == "--port") {
      args.port = static_cast<std::uint16_t>(std::stoul(value));
    } else if (flag == "--corpus-seed") {
      args.corpus_seed = std::stoull(value);
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.port == 0) throw std::invalid_argument("--port is required");
  return args;
}

/// Fails `gate` unless the loop's cache delta is `hits` hits and `misses`
/// misses, and every request of it succeeded.
void expect_cache(GateResult& gate, const LoopResult& loop,
                  const CacheDelta& delta, std::int64_t hits,
                  std::int64_t misses) {
  for (const Outcome& out : loop.outcomes) {
    if (!out.ok) gate.fail("set-up request failed: " + out.error);
  }
  if (delta.hits != hits || delta.misses != misses) {
    gate.fail("set-up expected " + std::to_string(hits) + " hits and " +
              std::to_string(misses) + " misses, got " +
              std::to_string(delta.hits) + " and " +
              std::to_string(delta.misses));
  }
}

void print_setup(const GateResult& gate, double seconds, double hit_ms,
                 std::uint64_t digest) {
  std::cout << "{\"correct\": " << (gate.correct ? "true" : "false")
            << ", \"reason\": ";
  write_json_string(std::cout, gate.reason);
  std::cout << ", \"seconds\": " << seconds << ", \"hit_ms\": " << hit_ms
            << ", \"digest\": \"" << digest << "\"}\n";
}

int run_warm(const Args& args) {
  const sapbench::Plan plan =
      sapbench::make_plan(sapbench::Workload::kSolveCold, 0, 1,
                          sapbench::kDefaultCorpusSeed);
  const std::string before = stats_json(args.port);
  const std::int64_t start = now_ns();
  const LoopResult solved = run_loop(plan.pool, args.port, sapbench::kClients,
                                     plan.pool.size());
  const double seconds = static_cast<double>(now_ns() - start) / 1e9;
  const CacheDelta delta = cache_delta(before, stats_json(args.port));
  const auto pool = static_cast<std::int64_t>(plan.pool.size());
  GateResult gate = gate_all(plan.pool, solved.outcomes);
  expect_cache(gate, solved, delta, 0, pool);
  print_setup(gate, seconds, 0.0, answers_digest(solved));
  return gate.correct ? 0 : 1;
}

int run_hits(const Args& args) {
  const sapbench::Plan plan =
      sapbench::make_plan(sapbench::Workload::kSolveCold, 0, 1,
                          sapbench::kDefaultCorpusSeed);
  const std::string before = stats_json(args.port);
  const std::int64_t start = now_ns();
  const LoopResult again = run_loop(plan.pool, args.port, 1, plan.pool.size());
  const double seconds = static_cast<double>(now_ns() - start) / 1e9;
  const CacheDelta delta = cache_delta(before, stats_json(args.port));
  GateResult gate;
  expect_cache(gate, again, delta, static_cast<std::int64_t>(plan.pool.size()),
               0);
  std::vector<double> hit_ms;
  for (const Outcome& out : again.outcomes) hit_ms.push_back(out.latency_ms);
  std::sort(hit_ms.begin(), hit_ms.end());
  print_setup(gate, seconds, percentile(hit_ms, 50.0), answers_digest(again));
  return gate.correct ? 0 : 1;
}

int run_load(const Args& args) {
  const sapbench::Plan plan = sapbench::make_plan(
      sapbench::parse_workload(args.workload), args.seed, args.seconds,
      args.corpus_seed);
  const std::string before = stats_json(args.port);
  const LoopResult loop =
      run_loop(plan.requests, args.port, sapbench::kClients, plan.round_size);
  const CacheDelta delta = cache_delta(before, stats_json(args.port));
  GateResult gate = gate_all(plan.requests, loop.outcomes);

  std::vector<double> latency;
  std::vector<std::vector<double>> instance_latency(plan.round_size);
  std::vector<double> lag;
  std::vector<double> overhead;
  std::size_t ok = 0;
  double weight_sum = 0.0;
  double gap_sum = 0.0;
  std::size_t gaps = 0;
  std::string first_error;
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    const Outcome& out = loop.outcomes[i];
    lag.push_back(out.lag_ms);
    if (!out.ok) {
      if (first_error.empty()) first_error = out.error;
      continue;
    }
    ++ok;
    latency.push_back(out.latency_ms);
    instance_latency[plan.requests[i].instance].push_back(out.latency_ms);
    overhead.push_back(out.latency_ms -
                       static_cast<double>(out.wall_micros) / 1e3);
    const sapbench::Verdict& verdict = gate.verdicts[gate.group_of[i]];
    if (plan.requests[i].wire->kind == SolveRequest::Kind::kPath) {
      weight_sum += static_cast<double>(verdict.weight);
      if (verdict.gap > 0) {
        gap_sum += verdict.gap;
        ++gaps;
      }
    }
  }
  std::sort(latency.begin(), latency.end());
  std::sort(lag.begin(), lag.end());
  std::sort(overhead.begin(), overhead.end());
  const Tail tail = tail_of(latency);
  // Every corpus instance is served once per round. The median of each
  // instance's latencies shrugs off a slow moment of the machine that hits
  // one of its copies; the median over instances is then the typical
  // request's latency. (The median of all latencies falls exactly between
  // two instances' copies, on the most extreme copy of each.)
  std::vector<double> instance_p50;
  for (std::vector<double>& copies : instance_latency) {
    if (copies.empty()) continue;
    std::sort(copies.begin(), copies.end());
    instance_p50.push_back(median(copies));
  }
  std::sort(instance_p50.begin(), instance_p50.end());
  std::vector<double> round_qps = loop.round_qps;
  std::sort(round_qps.begin(), round_qps.end());

  std::map<std::string, double> e2e;
  e2e["qps"] = median(round_qps);
  e2e["p50_ms"] = median(instance_p50);
  e2e["tail_ms"] = tail.value;
  e2e["weight_sum"] = weight_sum;
  e2e["cert_gap"] = gaps > 0 ? gap_sum / static_cast<double>(gaps) : 0.0;

  std::map<std::string, double> layers;
  if (!args.spans_path.empty()) {
    std::vector<std::optional<std::uint64_t>> served(plan.requests.size());
    for (std::size_t i = 0; i < plan.requests.size(); ++i) {
      if (loop.outcomes[i].ok) served[i] = loop.outcomes[i].answer_hash;
    }
    const sapbench::ReplayResult replay =
        sapbench::run_replay(plan, served, args.spans_path);
    if (!replay.correct) gate.fail(replay.reason);
    layers = replay.metrics;
    layers["service.overhead_ms"] = percentile(overhead, 50.0);
    const std::int64_t lookups = delta.hits + delta.misses;
    layers["service.cache.hit_rate"] =
        lookups > 0 ? static_cast<double>(delta.hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    layers["service.cache.coalesced"] = static_cast<double>(delta.coalesced);
    layers["service.cache.evictions"] = static_cast<double>(delta.evictions);
    layers["service.journal.appends"] = static_cast<double>(delta.appends);
    layers["client.lag_ms"] = percentile(lag, 99.0);
  }

  const std::size_t failed = plan.requests.size() - ok;
  if (failed > 0) {
    gate.fail(std::to_string(failed) + " requests failed: " + first_error);
  }
  std::cerr << "sapbench: " << args.workload << " seed " << args.seed << ": "
            << ok << "/" << plan.requests.size() << " ok in " << loop.wall_s
            << " s, tail = p" << tail.pct << ", cache +" << delta.hits
            << " hits +" << delta.misses << " misses, " << gate.unverifiable
            << " answers with a certificate unverifiable at default "
               "CheckOptions; qps per round:";
  for (const double qps : loop.round_qps) std::cerr << ' ' << qps;
  std::cerr << "\n";
  std::cout << "{\"correct\": " << (gate.correct ? "true" : "false")
            << ", \"reason\": ";
  write_json_string(std::cout, gate.reason);
  std::cout << ", \"attempted\": " << plan.requests.size()
            << ", \"failed\": " << failed << ", \"tail_pct\": " << tail.pct
            << ", \"unverifiable\": " << gate.unverifiable << ", \"e2e\": ";
  write_metrics(std::cout, e2e);
  std::cout << ", \"layers\": ";
  write_metrics(std::cout, layers);
  std::cout << "}\n";
  return gate.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout.precision(17);
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "warm") return run_warm(args);
    if (args.command == "hits") return run_hits(args);
    if (args.command == "load") return run_load(args);
    throw std::invalid_argument("unknown command " + args.command);
  } catch (const std::exception& error) {
    std::cerr << "sapbench: " << error.what() << "\n";
    return 2;
  }
}
