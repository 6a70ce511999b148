// Command-line front end: read an instance (file or stdin), solve it with a
// chosen algorithm, optionally verify and print the solution — run a
// parallel generator sweep and emit a JSON batch report — or run / talk to
// the sapd solver service.
//
// Usage:
//   sapkit_cli solve   [--algo full|exact|uniform]
//                      [--eps X] [--seed N] [--ring] [--kind K]
//                      [--certify] [--cert-out FILE] [--deadline-ms B]
//                      [file]
//   sapkit_cli exact   [file]            # profile-DP oracle
//   sapkit_cli bound   [file]            # LP upper bound on OPT
//   sapkit_cli round   [--kind round-ufp|round-sap] [--algo full|exact]
//                      [--deadline-ms B] [file]  # min-round packing
//   sapkit_cli gen     [--edges M] [--tasks N] [--seed S] [--nba | --ring]
//   sapkit_cli batch   [--count N] [--seed S] [--threads T] [--edges M]
//                      [--tasks N] [--profile P] [--demand D] [--eps X]
//                      [--ring] [--kind round-ufp|round-sap] [--no-timings]
//                      [--cases] [--out FILE]
//   sapkit_cli serve   [--host H] [--port P] [--threads T] [--queue Q]
//                      [--cache-entries C] [--cache-persist-path FILE]
//                      [--default-deadline-ms B]
//   sapkit_cli request [--host H] [--port P] [--stats] [--ring]
//                      [--kind path|ring|round-ufp|round-sap] [--certify]
//                      [--cert-out FILE] [--algo A] [--eps X] [--seed N]
//                      [--deadline-ms B] [file]
//   sapkit_cli certify --solution SOL [--cert CERT] [--ring] [file]
//
// `solve`, `round` and `request` build the same service request: the first
// two solve it in process through the same entry point sapd serves it with,
// so all three print the same bytes. Each re-verifies the answer and any
// certificate through the independent checkers before printing.
//
// `certify` with --cert validates an existing certificate against the
// instance + solution through the independent checker; without --cert it
// produces a fresh certificate (written to stdout or --cert-out), then
// self-checks it. `batch --certify` certifies solver output inline.
//
// Exit codes: 0 success, 1 runtime failure (unreadable file, infeasible
// output, connection refused, typed server rejection, invalid or
// unverifiable certificate), 2 usage error (unknown subcommand, unknown
// flag, missing or malformed flag value).
//
// Instances use the sap-path v1 text format (see src/io/instance_io.hpp).
// Batch reports use the sapkit-batch-v1 JSON schema (see docs/ALGORITHMS.md).
// The service protocol is specified in docs/SERVICE.md.
#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "src/cert/certify.hpp"
#include "src/cert/check.hpp"
#include "src/exact/profile_dp.hpp"
#include "src/gen/generators.hpp"
#include "src/harness/batch_runner.hpp"
#include "src/io/instance_io.hpp"
#include "src/lp/ufpp_lp.hpp"
#include "src/model/verify.hpp"
#include "src/round/gen.hpp"
#include "src/round/verify.hpp"
#include "src/service/client.hpp"
#include "src/service/server.hpp"
#include "src/service/solve.hpp"

namespace {

using namespace sap;

/// Flag/subcommand problems: print usage, exit 2 (vs. 1 for runtime
/// failures like unreadable files or refused connections).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void print_usage(std::ostream& os) {
  os << "usage: sapkit_cli "
        "solve|exact|bound|round|gen|batch|serve|request [options] [file]\n"
        "  solve   --algo full|exact|uniform --eps X\n"
        "          --seed N [--ring] [--kind K] [--certify]\n"
        "          [--cert-out FILE] [--deadline-ms B]\n"
        "  round   [--kind round-ufp|round-sap] [--algo full|exact]\n"
        "          [--deadline-ms B] [file]\n"
        "  gen     --edges M --tasks N --seed S [--nba | --ring]\n"
        "  batch   --count N --seed S --threads T --edges M --tasks N\n"
        "          --profile uniform|valley|mountain|staircase|walk\n"
        "          --demand small|medium|large|mixed --eps X [--certify]\n"
        "          [--ring] [--kind round-ufp|round-sap] [--no-timings]\n"
        "          [--cases] [--out FILE]\n"
        "  serve   --host H --port P --threads T --queue Q\n"
        "          [--cache-entries C] [--cache-persist-path FILE]\n"
        "          [--default-deadline-ms B]\n"
        "  request --host H --port P [--stats] [--ring] [--certify]\n"
        "          [--kind path|ring|round-ufp|round-sap]\n"
        "          [--cert-out FILE] --algo A --eps X --seed N\n"
        "          [--deadline-ms B] [file]\n"
        "  certify --solution SOL [--cert CERT] [--ring] [file]\n";
}

int usage_error(const std::string& message) {
  if (!message.empty()) std::cerr << "error: " << message << "\n";
  print_usage(std::cerr);
  return 2;
}

/// Raw text of an instance file (or stdin); `request` ships it to the
/// server without parsing so the service-side hardening is what validates
/// it.
std::string load_text(const std::string& path) {
  std::ostringstream buffer;
  if (path.empty() || path == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    buffer << in.rdbuf();
  }
  return buffer.str();
}

CapacityProfile parse_profile(const std::string& name) {
  if (name == "uniform") return CapacityProfile::kUniform;
  if (name == "valley") return CapacityProfile::kValley;
  if (name == "mountain") return CapacityProfile::kMountain;
  if (name == "staircase") return CapacityProfile::kStaircase;
  if (name == "walk") return CapacityProfile::kRandomWalk;
  throw UsageError("unknown capacity profile: " + name);
}

DemandClass parse_demand(const std::string& name) {
  if (name == "small") return DemandClass::kSmall;
  if (name == "medium") return DemandClass::kMedium;
  if (name == "large") return DemandClass::kLarge;
  if (name == "mixed") return DemandClass::kMixed;
  throw UsageError("unknown demand class: " + name);
}

/// Every flag any subcommand accepts; per-subcommand validation happens at
/// dispatch (an unknown flag is always a usage error).
struct Options {
  std::string algo = "full";
  double eps = 0.5;
  std::uint64_t seed = 1;
  std::size_t edges = 16;
  std::size_t tasks = 24;
  std::size_t count = 100;
  std::size_t threads = 0;
  std::size_t queue = 64;
  std::size_t cache_entries = 0;  // serve: solve-cache capacity (off unless
                                  // --cache-entries >= 1 is given)
  std::string cache_persist_path;  // serve: crash-safe cache journal
  std::string profile = "uniform";
  std::string demand = "mixed";
  std::string host = "127.0.0.1";
  std::uint16_t port = 7464;  // "SAP" on a phone keypad, sort of
  std::int64_t deadline_ms = 0;          // request: per-solve budget
  std::int64_t default_deadline_ms = 0;  // serve: budget for bare requests
  std::string kind;  // request/batch/round: problem family (empty = legacy)
  bool ring = false;
  bool nba = false;  // gen: clamp demands to min capacity
  bool timings = true;
  bool cases = false;
  bool stats = false;
  bool certify = false;
  std::string out_path;
  std::string cert_out_path;
  std::string solution_path;
  std::string cert_path;
  std::string file;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError("missing value for " + arg);
      return argv[++i];
    };
    auto next_u64 = [&]() -> std::uint64_t {
      const std::string value = next();
      try {
        // stoull silently wraps negatives ("-1" -> 2^64-1); every u64 flag
        // here is a count or id where that is never what the user meant.
        if (!value.empty() && value[0] == '-') {
          throw std::invalid_argument(value);
        }
        std::size_t used = 0;
        const std::uint64_t parsed = std::stoull(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return parsed;
      } catch (const std::exception&) {
        throw UsageError("bad value '" + value + "' for " + arg);
      }
    };
    // Milliseconds go to a signed budget: reject what int64 cannot hold
    // instead of wrapping it negative (which would mean no deadline).
    auto next_ms = [&]() -> std::int64_t {
      const std::uint64_t ms = next_u64();
      if (ms > static_cast<std::uint64_t>(
                   std::numeric_limits<std::int64_t>::max())) {
        throw UsageError("bad value '" + std::to_string(ms) + "' for " + arg);
      }
      return static_cast<std::int64_t>(ms);
    };
    auto next_f64 = [&]() -> double {
      const std::string value = next();
      try {
        std::size_t used = 0;
        const double parsed = std::stod(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return parsed;
      } catch (const std::exception&) {
        throw UsageError("bad value '" + value + "' for " + arg);
      }
    };
    if (arg == "--algo") {
      opt.algo = next();
    } else if (arg == "--eps") {
      opt.eps = next_f64();
    } else if (arg == "--seed") {
      opt.seed = next_u64();
    } else if (arg == "--edges") {
      opt.edges = next_u64();
    } else if (arg == "--tasks") {
      opt.tasks = next_u64();
    } else if (arg == "--count") {
      opt.count = next_u64();
    } else if (arg == "--threads") {
      opt.threads = next_u64();
    } else if (arg == "--queue") {
      opt.queue = next_u64();
      if (opt.queue == 0) throw UsageError("--queue must be at least 1");
    } else if (arg == "--shards") {
      // Kept for older serve command lines: 1 is the only value that still
      // describes the server, so it is a no-op.
      if (next_u64() != 1) {
        throw UsageError("--shards: sapd has one admission queue (use "
                         "--queue to size it)");
      }
    } else if (arg == "--cache-entries") {
      opt.cache_entries = next_u64();
      if (opt.cache_entries == 0) {
        throw UsageError(
            "--cache-entries must be at least 1 (omit the flag to disable "
            "caching)");
      }
    } else if (arg == "--cache-persist-path") {
      opt.cache_persist_path = next();
      if (opt.cache_persist_path.empty()) {
        throw UsageError("--cache-persist-path needs a non-empty path");
      }
    } else if (arg == "--profile") {
      opt.profile = next();
    } else if (arg == "--demand") {
      opt.demand = next();
    } else if (arg == "--host") {
      opt.host = next();
    } else if (arg == "--port") {
      const std::uint64_t port = next_u64();
      if (port > 65535) throw UsageError("port out of range: " + arg);
      opt.port = static_cast<std::uint16_t>(port);
    } else if (arg == "--deadline-ms") {
      opt.deadline_ms = next_ms();
    } else if (arg == "--default-deadline-ms") {
      opt.default_deadline_ms = next_ms();
    } else if (arg == "--kind") {
      opt.kind = next();
    } else if (arg == "--ring") {
      opt.ring = true;
    } else if (arg == "--nba") {
      opt.nba = true;
    } else if (arg == "--no-timings") {
      opt.timings = false;
    } else if (arg == "--cases") {
      opt.cases = true;
    } else if (arg == "--stats") {
      opt.stats = true;
    } else if (arg == "--certify") {
      opt.certify = true;
    } else if (arg == "--out") {
      opt.out_path = next();
    } else if (arg == "--cert-out") {
      opt.cert_out_path = next();
    } else if (arg == "--solution") {
      opt.solution_path = next();
    } else if (arg == "--cert") {
      opt.cert_path = next();
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      throw UsageError("unknown flag: " + arg);
    } else {
      opt.file = arg;
    }
  }
  return opt;
}

void write_certificate_to(const std::string& path,
                          const cert::Certificate& c) {
  if (path.empty()) {
    write_certificate(std::cout, c);
    return;
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_certificate(out, c);
}

/// Re-checks `c` through the independent checker; prints a one-line
/// summary (and the reason for a rejection) to stderr.
template <typename Inst, typename Sol>
bool cert_holds(const Inst& inst, const Sol& sol, const cert::Certificate& c) {
  const cert::CheckResult check = cert::check_certificate(inst, sol, c);
  std::cerr << "certificate: rung " << cert::ub_rung_name(c.ub.rung)
            << ", weight " << c.solution_weight << ", ub " << c.ub.value
            << ", alpha " << c.alpha_num << "/" << c.alpha_den << ", check "
            << (check.valid ? "ok" : "FAILED") << "\n";
  if (!check.valid) {
    std::cerr << "certificate REJECTED: " << check.reason << "\n";
  }
  return check.valid;
}

/// Shared path/ring body of the `certify` subcommand: validate an existing
/// certificate (--cert) or produce + self-check a fresh one.
template <typename Inst, typename Sol>
int certify_pair(const Inst& inst, const Sol& sol, const Options& opt) {
  if (!opt.cert_path.empty()) {
    std::ifstream cert_in(opt.cert_path);
    if (!cert_in) throw std::runtime_error("cannot open " + opt.cert_path);
    return cert_holds(inst, sol, read_certificate(cert_in)) ? 0 : 1;
  }
  const cert::CertifyOutcome outcome = cert::certify_solution(inst, sol);
  if (!outcome.certified) {
    std::cerr << "error: cannot certify: " << outcome.detail << "\n";
    return 1;
  }
  write_certificate_to(opt.cert_out_path, outcome.cert);
  return cert_holds(inst, sol, outcome.cert) ? 0 : 1;
}

int run_certify(const Options& opt) {
  if (opt.solution_path.empty()) {
    throw UsageError("certify requires --solution FILE");
  }
  std::ifstream sol_in(opt.solution_path);
  if (!sol_in) throw std::runtime_error("cannot open " + opt.solution_path);
  std::istringstream inst_is(load_text(opt.file));
  if (opt.ring) {
    return certify_pair(read_ring_instance(inst_is),
                        read_ring_solution(sol_in), opt);
  }
  return certify_pair(read_path_instance(inst_is), read_sap_solution(sol_in),
                      opt);
}

/// The request `solve`, `round` and `request` all make: --kind wins, else
/// the subcommand's default kind.
service::SolveRequest make_request(const Options& opt,
                                   service::SolveRequest::Kind default_kind) {
  service::SolveRequest request;
  request.kind = default_kind;
  if (!opt.kind.empty()) {
    try {
      request.kind = service::parse_kind(opt.kind);
    } catch (const std::invalid_argument&) {
      throw UsageError("unknown kind: " + opt.kind +
                       " (want path|ring|round-ufp|round-sap)");
    }
  }
  request.algo = opt.algo;
  request.eps = opt.eps;
  request.seed = opt.seed;
  request.want_certificate = opt.certify;
  request.deadline_ms = opt.deadline_ms;
  request.instance_text = load_text(opt.file);
  return request;
}

/// Trust, but verify: re-checks the answer (and any certificate) through
/// the independent checkers before printing the solution to stdout.
template <typename Inst, typename Sol>
int check_and_print(const Options& opt, const Inst& inst, const Sol& sol,
                    const service::SolveResponse& response) {
  VerifyResult check;
  if constexpr (std::is_same_v<Sol, SapSolution>) {
    check = verify_sap(inst, sol);
  } else if constexpr (std::is_same_v<Sol, RingSapSolution>) {
    check = verify_ring_sap(inst, sol);
  } else {
    check = round::verify_round_assignment(inst, sol);
  }
  if (!check) {
    std::cerr << "INTERNAL ERROR: infeasible solution: " << check.reason
              << "\n";
    return 1;
  }
  if constexpr (!std::is_same_v<Sol, round::RoundAssignment>) {
    if (opt.certify) {
      if (response.certificate_text.empty()) {
        std::cerr << "error: no certificate (pre-certification server, or "
                     "the solve was not certifiable)\n";
        return 1;
      }
      std::istringstream cert_is(response.certificate_text);
      const cert::Certificate c = read_certificate(cert_is);
      if (!cert_holds(inst, sol, c)) return 1;
      if (!opt.cert_out_path.empty()) {
        write_certificate_to(opt.cert_out_path, c);
      }
    }
  }
  std::cout << response.solution_text;
  return 0;
}

/// The one output path of `solve`, `round` and `request`, so a served
/// answer prints exactly what the local solve prints.
int print_response(const Options& opt, const service::SolveRequest& request,
                   const service::SolveResponse& response) {
  std::cerr << "weight " << response.weight << " (" << response.placed << "/"
            << response.total_tasks << " tasks) in " << response.wall_micros
            << "us wall time\n";
  if (response.degraded) {
    std::cerr << "note: deadline expired; result is the budget-capped "
                 "approximation (skipped: "
              << (response.skipped.empty() ? "-" : response.skipped) << ")\n";
  }
  if (response.is_round) std::cerr << "rounds " << response.rounds << "\n";
  std::istringstream inst_is(request.instance_text);
  std::istringstream sol_is(response.solution_text);
  switch (request.kind) {
    case service::SolveRequest::Kind::kPath:
      return check_and_print(opt, read_path_instance(inst_is),
                             read_sap_solution(sol_is), response);
    case service::SolveRequest::Kind::kRing:
      return check_and_print(opt, read_ring_instance(inst_is),
                             read_ring_solution(sol_is), response);
    case service::SolveRequest::Kind::kRoundUfp:
    case service::SolveRequest::Kind::kRoundSap:
      break;
  }
  return check_and_print(opt, read_path_instance(inst_is),
                         read_round_assignment(sol_is), response);
}

/// `solve` and `round`: the request sapd would serve, solved in process.
int run_local(const Options& opt, service::SolveRequest::Kind default_kind) {
  const service::SolveRequest request = make_request(opt, default_kind);
  return print_response(
      opt, request,
      service::solve_request(request, service::ServerOptions{}));
}

int run_serve(const Options& opt) {
  // Persistence misconfiguration is a usage error at startup, not a runtime
  // surprise after the server is already announced as listening.
  if (!opt.cache_persist_path.empty()) {
    if (opt.cache_entries == 0) {
      throw UsageError(
          "--cache-persist-path requires --cache-entries (there is no cache "
          "to persist)");
    }
    const std::string& path = opt.cache_persist_path;
    struct stat st {};
    if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      throw UsageError("--cache-persist-path '" + path +
                       "' is a directory (want a journal file path)");
    }
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos
            ? std::string(".")
            : (slash == 0 ? std::string("/") : path.substr(0, slash));
    if (::access(dir.c_str(), W_OK | X_OK) != 0) {
      throw UsageError("--cache-persist-path directory '" + dir +
                       "' is not writable: " + std::strerror(errno));
    }
  }

  // Block the shutdown signals before spawning any server thread so every
  // thread inherits the mask and sigwait below is the only consumer.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  service::ServerOptions options;
  options.bind_address = opt.host;
  options.port = opt.port;
  options.solver_threads = opt.threads;
  options.max_queue = opt.queue;
  options.cache_entries = opt.cache_entries;
  options.cache_persist_path = opt.cache_persist_path;
  options.default_deadline_ms = opt.default_deadline_ms;
  service::Server server(std::move(options));
  server.start();
  std::cout << "sapd listening on " << opt.host << ":" << server.port()
            << std::endl;  // flushed: callers parse this line

  int signal_number = 0;
  sigwait(&set, &signal_number);
  std::cerr << "sapd: received "
            << (signal_number == SIGTERM ? "SIGTERM" : "SIGINT")
            << ", draining\n";
  server.stop();

  const service::ServerStats stats = server.stats_snapshot();
  std::cerr << "sapd: served " << stats.requests_ok << " solves ("
            << stats.requests_bad << " bad, " << stats.requests_overloaded
            << " overloaded, " << stats.requests_degraded << " degraded) over "
            << stats.connections_accepted
            << " connections in " << stats.uptime_seconds << "s\n";
  if (opt.cache_entries > 0) {
    std::cerr << "sapd: cache " << stats.cache_hits << " hits, "
              << stats.cache_misses << " misses, " << stats.cache_coalesced
              << " coalesced\n";
  }
  if (stats.cache_persist_enabled) {
    std::cerr << "sapd: journal recovered " << stats.cache_recovered_records
              << " records (" << stats.cache_discarded_corrupt
              << " corrupt discarded, " << stats.cache_truncated_tail_bytes
              << " tail bytes truncated), appended "
              << stats.cache_journal_appends << ", "
              << stats.cache_journal_compactions << " compactions\n";
  }
  return 0;
}

int run_request(const Options& opt) {
  service::Client client;
  client.connect(opt.host, opt.port);

  if (opt.stats) {
    std::cout << client.stats_json();
    return 0;
  }

  const service::SolveRequest request = make_request(
      opt, opt.ring ? service::SolveRequest::Kind::kRing
                    : service::SolveRequest::Kind::kPath);
  const service::Client::SolveOutcome outcome = client.solve(request);
  if (!outcome.ok) {
    std::cerr << "error: " << service::error_code_name(outcome.error_code)
              << ": " << outcome.error_message << "\n";
    return 1;
  }
  return print_response(opt, request, outcome.response);
}

int dispatch(const std::string& command, const Options& opt) {
  if (command == "gen") {
    if (opt.nba && opt.ring) throw UsageError("gen: --nba and --ring conflict");
    Rng rng(opt.seed);
    if (opt.ring) {
      RingGenOptions gen;
      gen.num_edges = opt.edges;
      gen.num_tasks = opt.tasks;
      write_ring_instance(std::cout, generate_ring_instance(gen, rng));
      return 0;
    }
    if (opt.nba) {
      round::RoundGenOptions gen;
      gen.base.num_edges = opt.edges;
      gen.base.num_tasks = opt.tasks;
      write_path_instance(std::cout, round::generate_round_instance(gen, rng));
      return 0;
    }
    PathGenOptions gen;
    gen.num_edges = opt.edges;
    gen.num_tasks = opt.tasks;
    write_path_instance(std::cout, generate_path_instance(gen, rng));
    return 0;
  }

  if (command == "solve") {
    return run_local(opt, opt.ring ? service::SolveRequest::Kind::kRing
                                   : service::SolveRequest::Kind::kPath);
  }
  if (command == "round") {
    return run_local(opt, service::SolveRequest::Kind::kRoundUfp);
  }
  if (command == "serve") return run_serve(opt);
  if (command == "request") return run_request(opt);
  if (command == "certify") return run_certify(opt);

  if (command == "batch") {
    BatchOptions options;
    options.num_instances = opt.count;
    options.base_seed = opt.seed;
    options.keep_cases = opt.cases;

    BatchCaseFn fn;
    if (opt.kind == "round-ufp" || opt.kind == "round-sap") {
      RoundBatchConfig config;
      config.gen.base.num_edges = opt.edges;
      config.gen.base.num_tasks = opt.tasks;
      config.gen.base.profile = parse_profile(opt.profile);
      config.gen.base.demand = parse_demand(opt.demand);
      config.kind = round::parse_round_kind(opt.kind);
      fn = make_round_batch_case(config);
    } else if (!opt.kind.empty()) {
      throw UsageError("unknown batch kind: " + opt.kind +
                       " (want round-ufp|round-sap)");
    } else if (opt.ring) {
      RingBatchConfig config;
      config.gen.num_edges = opt.edges;
      config.gen.num_tasks = opt.tasks;
      config.solver.eps = opt.eps;
      config.certify = opt.certify;
      fn = make_ring_batch_case(config);
    } else {
      PathBatchConfig config;
      config.gen.num_edges = opt.edges;
      config.gen.num_tasks = opt.tasks;
      config.gen.profile = parse_profile(opt.profile);
      config.gen.demand = parse_demand(opt.demand);
      config.solver.eps = opt.eps;
      config.certify = opt.certify;
      fn = make_path_batch_case(config);
    }

    ThreadPool pool(opt.threads);
    const BatchReport report = run_batch(options, fn, pool);

    BatchJsonOptions json;
    json.include_timings = opt.timings;
    json.include_cases = opt.cases;
    if (opt.out_path.empty()) {
      write_batch_json(std::cout, report, json);
    } else {
      std::ofstream out(opt.out_path);
      if (!out) throw std::runtime_error("cannot open " + opt.out_path);
      write_batch_json(out, report, json);
    }
    std::cerr << "batch: " << report.solved << "/" << report.num_instances
              << " solved on " << report.threads << " threads in "
              << report.total_seconds << "s\n";
    return 0;
  }

  if (command != "exact" && command != "bound") {
    throw UsageError("unknown subcommand: " + command);
  }
  const PathInstance inst = path_instance_from_string(load_text(opt.file));
  if (command == "exact") {
    const SapExactResult exact = sap_exact_profile_dp(inst);
    std::cerr << "optimum " << exact.weight
              << (exact.proven_optimal ? "" : " (lower bound: beam cap hit)")
              << "\n";
    write_sap_solution(std::cout, exact.solution);
    return 0;
  }
  std::cout << ufpp_lp_upper_bound(inst) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error("");
  try {
    return dispatch(argv[1], parse_options(argc, argv));
  } catch (const UsageError& error) {
    return usage_error(error.what());
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
