// Loopback integration tests for the sapd service: concurrent clients get
// byte-identical answers to in-process solves, hostile bytes are rejected
// with typed errors, a full admission queue backpressures with OVERLOADED,
// and shutdown drains in-flight work. Every server binds port 0 (ephemeral),
// so the suite is parallel-safe.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <regex>
#include <semaphore>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "src/cert/check.hpp"
#include "src/core/ring_solver.hpp"
#include "src/core/sap_solver.hpp"
#include "src/exact/profile_dp.hpp"
#include "src/gen/generators.hpp"
#include "src/io/instance_io.hpp"
#include "src/model/verify.hpp"
#include "src/round/approx.hpp"
#include "src/round/exact.hpp"
#include "src/round/verify.hpp"
#include "src/sapu/sapu_solver.hpp"
#include "src/service/client.hpp"
#include "src/service/frame.hpp"
#include "src/service/server.hpp"
#include "src/service/solve.hpp"

namespace sap::service {
namespace {

std::string ring_to_string(const RingInstance& inst) {
  std::ostringstream os;
  write_ring_instance(os, inst);
  return os.str();
}

/// In-process reference for a path request, matching the server exactly.
std::string reference_path_solution(const std::string& instance_text,
                                    double eps, std::uint64_t seed) {
  std::istringstream is(instance_text);
  const PathInstance inst = read_path_instance(is);
  SolverParams params;
  params.eps = eps;
  params.seed = seed;
  std::ostringstream os;
  write_sap_solution(os, solve_sap(inst, params));
  return os.str();
}

std::string reference_ring_solution(const std::string& instance_text,
                                    double eps, std::uint64_t seed) {
  std::istringstream is(instance_text);
  const RingInstance inst = read_ring_instance(is);
  SolverParams params;
  params.eps = eps;
  params.seed = seed;
  std::ostringstream os;
  write_ring_solution(os, solve_ring_sap(inst, params));
  return os.str();
}

/// Raw TCP connection for sending hostile bytes below the Client layer.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

/// Strict reader for the stats frame: accepts exactly one JSON value and
/// counts every object key by name, at any depth.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  [[nodiscard]] bool parse() {
    std::string raw;
    const bool ok = value(0, &raw);
    skip_space();
    return ok && at_ == text_.size();
  }

  std::map<std::string, int> key_count;
  /// Raw scalar text of each key of the outermost object.
  std::map<std::string, std::string> top_level;

 private:
  void skip_space() {
    while (at_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[at_])) != 0) {
      ++at_;
    }
  }
  bool eat(char c) {
    skip_space();
    if (at_ >= text_.size() || text_[at_] != c) return false;
    ++at_;
    return true;
  }
  bool string(std::string* out) {
    if (!eat('"')) return false;
    while (at_ < text_.size() && text_[at_] != '"') {
      if (text_[at_] == '\\') ++at_;
      if (at_ < text_.size()) out->push_back(text_[at_++]);
    }
    if (at_ >= text_.size()) return false;
    ++at_;
    return true;
  }
  bool value(int depth, std::string* raw) {
    skip_space();
    if (at_ >= text_.size()) return false;
    if (text_[at_] == '{') return object(depth);
    if (text_[at_] == '[') return array(depth);
    if (text_[at_] == '"') return string(raw);
    const std::size_t start = at_;
    while (at_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[at_])) != 0 ||
            text_[at_] == '-' || text_[at_] == '+' || text_[at_] == '.')) {
      ++at_;
    }
    *raw = std::string(text_.substr(start, at_ - start));
    static const std::regex kScalar(
        "true|false|null|-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][+-]?[0-9]+)?");
    return std::regex_match(*raw, kScalar);
  }
  bool object(int depth) {
    ++at_;  // '{'
    if (eat('}')) return true;
    do {
      std::string key;
      std::string raw;
      if (!string(&key) || !eat(':') || !value(depth + 1, &raw)) return false;
      ++key_count[key];
      if (depth == 0) top_level[key] = raw;
    } while (eat(','));
    return eat('}');
  }
  bool array(int depth) {
    ++at_;  // '['
    if (eat(']')) return true;
    do {
      std::string raw;
      if (!value(depth + 1, &raw)) return false;
    } while (eat(','));
    return eat(']');
  }

  std::string_view text_;
  std::size_t at_ = 0;
};

void spin_until(const std::function<bool()>& predicate) {
  for (int i = 0; i < 10'000 && !predicate(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(predicate());
}

TEST(ServiceTest, ConcurrentClientsGetByteIdenticalVerifiedAnswers) {
  Server server(ServerOptions{});
  server.start();

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRequestsPerClient = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, port = server.port(), &failures] {
      Client client;
      client.connect("127.0.0.1", port);
      for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
        const std::uint64_t seed = 1000 * c + r;
        const bool ring = (c + r) % 3 == 0;
        Rng rng(seed);
        SolveRequest request;
        request.eps = 0.5;
        request.seed = seed;
        if (ring) {
          RingGenOptions gen;
          gen.num_edges = 8;
          gen.num_tasks = 10;
          request.kind = SolveRequest::Kind::kRing;
          request.instance_text =
              ring_to_string(generate_ring_instance(gen, rng));
        } else {
          PathGenOptions gen;
          gen.num_edges = 10;
          gen.num_tasks = 14;
          request.kind = SolveRequest::Kind::kPath;
          request.instance_text = to_string(generate_path_instance(gen, rng));
        }

        const Client::SolveOutcome outcome = client.solve(request);
        if (!outcome.ok) {
          ++failures;
          ADD_FAILURE() << "solve rejected: " << outcome.error_message;
          continue;
        }

        // Byte-identical to the same solve run in this process.
        const std::string expected =
            ring ? reference_ring_solution(request.instance_text, request.eps,
                                           request.seed)
                 : reference_path_solution(request.instance_text, request.eps,
                                           request.seed);
        if (outcome.response.solution_text != expected) {
          ++failures;
          ADD_FAILURE() << "served solution differs from in-process solve "
                           "(client "
                        << c << ", request " << r << ")";
        }

        // Independently verified feasible.
        std::istringstream solution_is(outcome.response.solution_text);
        if (ring) {
          std::istringstream instance_is(request.instance_text);
          const RingInstance inst = read_ring_instance(instance_is);
          const RingSapSolution sol = read_ring_solution(solution_is);
          const VerifyResult check = verify_ring_sap(inst, sol);
          if (!check) {
            ++failures;
            ADD_FAILURE() << "infeasible ring solution: " << check.reason;
          }
          if (outcome.response.weight != inst.solution_weight(sol)) ++failures;
        } else {
          std::istringstream instance_is(request.instance_text);
          const PathInstance inst = read_path_instance(instance_is);
          const SapSolution sol = read_sap_solution(solution_is);
          const VerifyResult check = verify_sap(inst, sol);
          if (!check) {
            ++failures;
            ADD_FAILURE() << "infeasible path solution: " << check.reason;
          }
          if (outcome.response.weight != sol.weight(inst)) ++failures;
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_ok, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.requests_bad, 0u);
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.latency_samples, kClients * kRequestsPerClient);
  server.stop();
}

TEST(ServiceTest, SolverSelectionMatchesInProcessBackends) {
  Server server(ServerOptions{});
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  Rng rng(99);
  PathGenOptions gen;
  gen.num_edges = 8;
  gen.num_tasks = 12;
  // The generator's default profile has uniform capacities, so `uniform`
  // applies too.
  const PathInstance inst = generate_path_instance(gen, rng);
  RingGenOptions ring_gen;
  ring_gen.num_edges = 6;
  ring_gen.num_tasks = 10;
  const std::string ring_text =
      ring_to_string(generate_ring_instance(ring_gen, rng));
  SolverParams params;
  params.eps = 0.5;
  params.seed = 7;
  const SapExactOptions exact{.max_states = kExactMaxStates};  // sapd's cap
  struct Row {
    SolveRequest::Kind kind;
    const char* algo;
    std::string instance_text;
    std::string expected;  ///< solution text; empty = BAD_REQUEST
  };
  auto path_text = [](const SapSolution& sol) {
    std::ostringstream os;
    write_sap_solution(os, sol);
    return os.str();
  };
  const Row rows[] = {
      {SolveRequest::Kind::kPath, "full", to_string(inst),
       path_text(solve_sap(inst, params))},
      {SolveRequest::Kind::kPath, "exact", to_string(inst),
       path_text(sap_exact_profile_dp(inst, exact).solution)},
      {SolveRequest::Kind::kPath, "uniform", to_string(inst),
       path_text(solve_sap_uniform(inst))},
      // The pipeline's stages are not routes (a single stage over every
      // task has no state cap); the connection then serves the next solve.
      {SolveRequest::Kind::kPath, "medium", to_string(inst), ""},
      {SolveRequest::Kind::kRing, "full", ring_text,
       reference_ring_solution(ring_text, 0.5, 7)},
      // Each kind accepts only its own algos.
      {SolveRequest::Kind::kPath, "bogus", to_string(inst), ""},
      {SolveRequest::Kind::kRoundUfp, "medium", to_string(inst), ""},
      {SolveRequest::Kind::kRing, "exact", ring_text, ""},
  };
  for (const Row& row : rows) {
    SolveRequest request;
    request.kind = row.kind;
    request.algo = row.algo;
    request.eps = 0.5;
    request.seed = 7;
    request.instance_text = row.instance_text;
    const Client::SolveOutcome outcome = client.solve(request);
    if (row.expected.empty()) {
      ASSERT_FALSE(outcome.ok) << row.algo;
      EXPECT_EQ(outcome.error_code, ErrorCode::kBadRequest) << row.algo;
      EXPECT_NE(outcome.error_message.find("unknown algo"), std::string::npos)
          << outcome.error_message;
      continue;
    }
    ASSERT_TRUE(outcome.ok) << row.algo << ": " << outcome.error_message;
    EXPECT_EQ(outcome.response.solution_text, row.expected) << row.algo;
  }
  server.stop();
}

TEST(ServiceTest, CertifiedSolveReturnsIndependentlyCheckableCertificate) {
  Server server(ServerOptions{});
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  // Tiny instance: the exact_dp rung fires and stays inside the verifier's
  // recheck budgets, so the client-side check is a full re-proof.
  Rng rng(5);
  PathGenOptions gen;
  gen.num_edges = 6;
  gen.num_tasks = 8;
  gen.min_capacity = 4;
  gen.max_capacity = 12;
  const PathInstance inst = generate_path_instance(gen, rng);

  SolveRequest request;
  request.want_certificate = true;
  request.instance_text = to_string(inst);
  const Client::SolveOutcome outcome = client.solve(request);
  ASSERT_TRUE(outcome.ok) << outcome.error_message;
  ASSERT_FALSE(outcome.response.certificate_text.empty());

  std::istringstream cert_is(outcome.response.certificate_text);
  const cert::Certificate certificate = read_certificate(cert_is);
  std::istringstream sol_is(outcome.response.solution_text);
  const SapSolution sol = read_sap_solution(sol_is);
  const cert::CheckResult check =
      cert::check_certificate(inst, sol, certificate);
  EXPECT_TRUE(check.valid) << check.reason;
  EXPECT_EQ(certificate.solution_weight, outcome.response.weight);
  // Certification ran inside the request's telemetry session.
  EXPECT_NE(outcome.response.telemetry_json.find("cert.produced"),
            std::string::npos);

  // The same request without the opt-in gets the pre-certification
  // envelope: no certificate section at all.
  request.want_certificate = false;
  const Client::SolveOutcome plain = client.solve(request);
  ASSERT_TRUE(plain.ok) << plain.error_message;
  EXPECT_TRUE(plain.response.certificate_text.empty());
  EXPECT_EQ(plain.response.solution_text, outcome.response.solution_text);
  server.stop();
}

TEST(ServiceTest, CertifiedRingSolveReturnsCheckableCertificate) {
  Server server(ServerOptions{});
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  Rng rng(6);
  RingGenOptions gen;
  gen.num_edges = 6;
  gen.num_tasks = 8;
  gen.min_capacity = 4;
  gen.max_capacity = 12;
  const RingInstance ring = generate_ring_instance(gen, rng);

  SolveRequest request;
  request.kind = SolveRequest::Kind::kRing;
  request.want_certificate = true;
  request.instance_text = ring_to_string(ring);
  const Client::SolveOutcome outcome = client.solve(request);
  ASSERT_TRUE(outcome.ok) << outcome.error_message;
  ASSERT_FALSE(outcome.response.certificate_text.empty());

  std::istringstream cert_is(outcome.response.certificate_text);
  const cert::Certificate certificate = read_certificate(cert_is);
  EXPECT_EQ(certificate.kind, cert::Certificate::Kind::kRing);
  std::istringstream sol_is(outcome.response.solution_text);
  const RingSapSolution sol = read_ring_solution(sol_is);
  const cert::CheckResult check =
      cert::check_certificate(ring, sol, certificate);
  EXPECT_TRUE(check.valid) << check.reason;
  server.stop();
}

TEST(ServiceTest, MalformedEnvelopeAndInstanceRejectedTyped) {
  Server server(ServerOptions{});
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  // Unparseable instance text: typed BAD_REQUEST with the reader's
  // line-numbered diagnostic, and the connection survives.
  SolveRequest request;
  request.instance_text = "sap-path v1\nedges 2\ncapacities 4 nope\n";
  Client::SolveOutcome outcome = client.solve(request);
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_code, ErrorCode::kBadRequest);
  EXPECT_NE(outcome.error_message.find("line 3"), std::string::npos)
      << outcome.error_message;

  // Unknown algo: BAD_REQUEST, connection still usable afterwards.
  request.instance_text = "sap-path v1\nedges 1\ncapacities 4\ntasks 0\n";
  request.algo = "quantum";
  outcome = client.solve(request);
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_code, ErrorCode::kBadRequest);

  request.algo = "full";
  outcome = client.solve(request);
  EXPECT_TRUE(outcome.ok);

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_bad, 2u);
  EXPECT_EQ(stats.requests_ok, 1u);
  server.stop();
}

TEST(ServiceTest, InstanceOverServerReadLimitsRejected) {
  Server server(ServerOptions{});
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  // The declared count alone is rejected, before any task is read or
  // allocated.
  SolveRequest request;
  request.instance_text =
      "sap-path v1\nedges 1\ncapacities 9\ntasks 2000000\n0 0 1 1\n";
  const Client::SolveOutcome outcome = client.solve(request);
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_code, ErrorCode::kBadRequest);
  EXPECT_NE(outcome.error_message.find("exceeds limit"), std::string::npos)
      << outcome.error_message;
  server.stop();
}

TEST(ServiceTest, GarbageMagicGetsErrorThenClose) {
  Server server(ServerOptions{});
  server.start();

  const int fd = connect_raw(server.port());
  // Exactly one header's worth of garbage: nothing is left unread when the
  // server closes, so the client sees a clean FIN, not an RST.
  const unsigned char garbage[kFrameHeaderBytes] = {'n', 'o', 'p', 'e', 1, 2,
                                                    3,   4,   5,   6,   7, 8};
  ASSERT_EQ(::write(fd, garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));
  Frame frame;
  ASSERT_EQ(read_frame(fd, &frame), ReadStatus::kOk);
  EXPECT_EQ(frame.type, static_cast<std::uint32_t>(FrameType::kErrorResponse));
  const ErrorResponse error = parse_error_response(frame.payload);
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  // Server closes the poisoned stream after the error frame.
  EXPECT_EQ(read_frame(fd, &frame), ReadStatus::kEof);
  ::close(fd);
  server.stop();
}

TEST(ServiceTest, OversizedFrameGetsErrorThenClose) {
  Server server(ServerOptions{});
  server.start();

  const int fd = connect_raw(server.port());
  unsigned char header[kFrameHeaderBytes];
  encode_frame_header(header, FrameType::kSolveRequest, 1 << 30);  // 1 GiB
  ASSERT_EQ(::write(fd, header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  Frame frame;
  ASSERT_EQ(read_frame(fd, &frame), ReadStatus::kOk);
  EXPECT_EQ(frame.type, static_cast<std::uint32_t>(FrameType::kErrorResponse));
  const ErrorResponse error = parse_error_response(frame.payload);
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  EXPECT_NE(error.message.find("exceeds server limit"), std::string::npos);
  EXPECT_EQ(read_frame(fd, &frame), ReadStatus::kEof);
  ::close(fd);
  server.stop();
}

TEST(ServiceTest, UnknownFrameTypeKeepsConnectionUsable) {
  Server server(ServerOptions{});
  server.start();

  SolveRequest request;
  request.instance_text =
      "sap-path v1\nedges 1\ncapacities 4\ntasks 1\n0 0 2 5\n";
  const std::string payload = encode_solve_request(request);
  const int fd = connect_raw(server.port());
  Frame frame;
  // Type 3 carries a valid solve payload: only the type decides.
  for (const std::uint32_t type : {3u, 999u}) {
    ASSERT_TRUE(write_frame(fd, static_cast<FrameType>(type), payload));
    ASSERT_EQ(read_frame(fd, &frame), ReadStatus::kOk);
    ASSERT_EQ(frame.type,
              static_cast<std::uint32_t>(FrameType::kErrorResponse));
    const ErrorResponse error = parse_error_response(frame.payload);
    EXPECT_EQ(error.code, ErrorCode::kBadRequest);
    EXPECT_EQ(error.message, "unknown frame type " + std::to_string(type));

    // Frame boundary intact: a solve on the same connection is served.
    ASSERT_TRUE(write_frame(fd, FrameType::kSolveRequest, payload));
    ASSERT_EQ(read_frame(fd, &frame), ReadStatus::kOk);
    ASSERT_EQ(frame.type,
              static_cast<std::uint32_t>(FrameType::kSolveResponse));
    EXPECT_EQ(parse_solve_response(frame.payload).solution_text,
              reference_path_solution(request.instance_text, request.eps,
                                      request.seed));
  }
  ASSERT_TRUE(write_frame(fd, FrameType::kStatsRequest, ""));
  ASSERT_EQ(read_frame(fd, &frame), ReadStatus::kOk);
  EXPECT_EQ(frame.type, static_cast<std::uint32_t>(FrameType::kStatsResponse));
  EXPECT_NE(frame.payload.find("\"queue_depth\""), std::string::npos);
  ::close(fd);

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_bad, 2u);
  EXPECT_EQ(stats.requests_ok, 2u);
  server.stop();
}

TEST(ServiceTest, FullAdmissionQueueRejectsWithOverloadedImmediately) {
  std::counting_semaphore<64> gate(0);
  ServerOptions options;
  options.solver_threads = 1;
  options.max_queue = 1;
  options.fault_injector = [&gate](FaultPoint point) {
    if (point == FaultPoint::kPreSolve) gate.acquire();
  };
  Server server(options);
  server.start();

  SolveRequest request;
  request.instance_text = "sap-path v1\nedges 1\ncapacities 4\ntasks 1\n"
                          "0 0 2 5\n";

  // A occupies the single worker (blocked in the hook), B fills the queue.
  Client::SolveOutcome outcome_a, outcome_b;
  std::thread a([&] {
    Client client;
    client.connect("127.0.0.1", server.port());
    outcome_a = client.solve(request);
  });
  spin_until([&] { return server.stats_snapshot().active_solves == 1; });
  std::thread b([&] {
    Client client;
    client.connect("127.0.0.1", server.port());
    outcome_b = client.solve(request);
  });
  spin_until([&] { return server.stats_snapshot().queue_depth == 1; });

  // C must be rejected immediately — typed OVERLOADED, not a hang or drop.
  Client overflow_client;
  overflow_client.connect("127.0.0.1", server.port());
  const Client::SolveOutcome outcome_c = overflow_client.solve(request);
  ASSERT_FALSE(outcome_c.ok);
  EXPECT_EQ(outcome_c.error_code, ErrorCode::kOverloaded);
  EXPECT_EQ(outcome_c.error_message, "admission queue full (1 pending)");

  // Releasing the worker drains A then B normally.
  gate.release(2);
  a.join();
  b.join();
  EXPECT_TRUE(outcome_a.ok) << outcome_a.error_message;
  EXPECT_TRUE(outcome_b.ok) << outcome_b.error_message;

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_ok, 2u);
  EXPECT_EQ(stats.requests_overloaded, 1u);
  server.stop();
}

TEST(ServiceTest, StopDrainsInFlightSolvesBeforeReturning) {
  std::counting_semaphore<64> gate(0);
  ServerOptions options;
  options.solver_threads = 1;
  options.fault_injector = [&gate](FaultPoint point) {
    if (point == FaultPoint::kPreSolve) gate.acquire();
  };
  Server server(options);
  server.start();
  const std::uint16_t port = server.port();

  SolveRequest request;
  request.instance_text = "sap-path v1\nedges 1\ncapacities 4\ntasks 1\n"
                          "0 0 2 5\n";
  Client::SolveOutcome outcome;
  std::thread in_flight([&] {
    Client client;
    client.connect("127.0.0.1", port);
    outcome = client.solve(request);
  });
  spin_until([&] { return server.stats_snapshot().active_solves == 1; });

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    server.stop();
    stopped = true;
  });
  // stop() must wait for the admitted solve, which is still gated.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stopped.load());

  gate.release(1);
  stopper.join();
  in_flight.join();
  EXPECT_TRUE(stopped.load());
  // The drained solve flushed its (successful) response before shutdown.
  EXPECT_TRUE(outcome.ok) << outcome.error_message;

  // The listener is really gone.
  Client late;
  EXPECT_THROW(late.connect("127.0.0.1", port), std::runtime_error);
}

TEST(ServiceTest, StatsReportsOutcomeCountsAndPercentiles) {
  Server server(ServerOptions{});
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  SolveRequest request;
  request.instance_text = "sap-path v1\nedges 1\ncapacities 4\ntasks 1\n"
                          "0 0 2 5\n";
  ASSERT_TRUE(client.solve(request).ok);
  request.instance_text = "not an instance";
  ASSERT_FALSE(client.solve(request).ok);

  const std::string json = client.stats_json();
  EXPECT_NE(json.find("\"ok\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bad_request\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  // The snapshot API agrees with the wire report.
  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_ok, 1u);
  EXPECT_EQ(stats.requests_bad, 1u);
  EXPECT_EQ(stats.stats_requests, 1u);
  EXPECT_EQ(stats.latency_samples, 1u);
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  server.stop();
}

TEST(ServiceTest, StatsFrameIsSchemaTwoJsonWithUniqueCacheKeys) {
  ServerOptions options;
  options.cache_entries = 8;
  Server server(options);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  SolveRequest request;
  request.instance_text = "sap-path v1\nedges 1\ncapacities 4\ntasks 1\n"
                          "0 0 2 5\n";
  ASSERT_TRUE(client.solve(request).ok);

  const std::string json = client.stats_json();
  EXPECT_EQ(json.rfind("{\n  \"schema\": 2,\n", 0), 0u) << json;
  JsonChecker checker(json);
  ASSERT_TRUE(checker.parse()) << json;
  EXPECT_EQ(checker.top_level["schema"], "2");
  EXPECT_EQ(checker.key_count.count("shards"), 0u) << json;
  EXPECT_EQ(checker.key_count.count("deadline_exceeded"), 0u) << json;
  // sapbench reads these by a plain text search for `"key": `, which is
  // only sound while each name occurs once in the whole object.
  for (const char* key :
       {"hits", "misses", "coalesced", "evictions", "journal_appends"}) {
    EXPECT_EQ(checker.key_count[key], 1) << key << " in " << json;
  }
  server.stop();
}

/// An instance the exponential exact oracle cannot finish in 1 ms: dense,
/// same-capacity, long-span tasks keep the profile-DP frontier wide.
std::string adversarial_exact_instance() {
  PathGenOptions gen;
  gen.num_edges = 14;
  gen.num_tasks = 48;
  gen.min_capacity = 64;
  gen.max_capacity = 64;
  gen.mean_span_fraction = 0.8;
  Rng rng(21);
  return to_string(generate_path_instance(gen, rng));
}

TEST(ServiceTest, ExpiredDeadlineDegradesToVerifiedApproximation) {
  Server server(ServerOptions{});
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  SolveRequest request;
  request.algo = "exact";
  request.deadline_ms = 1;
  request.instance_text = adversarial_exact_instance();
  const Client::SolveOutcome outcome = client.solve(request);

  // The budget is far too small for the oracle, but the response is still a
  // success: the degraded approximation, marked as such.
  ASSERT_TRUE(outcome.ok) << outcome.error_message;
  EXPECT_TRUE(outcome.response.degraded);
  EXPECT_NE(outcome.response.skipped.find("solve.exact"), std::string::npos)
      << outcome.response.skipped;

  // The fallback answer is a real feasible solution.
  std::istringstream inst_is(request.instance_text);
  const PathInstance inst = read_path_instance(inst_is);
  std::istringstream sol_is(outcome.response.solution_text);
  const SapSolution sol = read_sap_solution(sol_is);
  const VerifyResult verdict = verify_sap(inst, sol);
  EXPECT_TRUE(verdict.ok) << verdict.reason;
  EXPECT_EQ(outcome.response.weight, sol.weight(inst));

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_ok, 1u);
  EXPECT_EQ(stats.requests_degraded, 1u);
  server.stop();
}

TEST(ServiceTest, ServerDefaultDeadlineAppliesWhenRequestCarriesNone) {
  ServerOptions options;
  options.default_deadline_ms = 1;
  Server server(options);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  SolveRequest request;
  request.algo = "exact";  // no request.deadline_ms: the server default bites
  request.instance_text = adversarial_exact_instance();
  const Client::SolveOutcome outcome = client.solve(request);
  ASSERT_TRUE(outcome.ok) << outcome.error_message;
  EXPECT_TRUE(outcome.response.degraded);
  server.stop();
}

TEST(ServiceTest, ExpiredDeadlineDegradesUniformToVerifiedApproximation) {
  Server server(ServerOptions{});
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  // Uniform capacities and many tasks: the SAP-U large-task DP runs for
  // 100+ ms, far past a 1 ms budget.
  PathGenOptions gen;
  gen.num_edges = 14;
  gen.num_tasks = 200;
  Rng rng(7);
  SolveRequest request;
  request.algo = "uniform";
  request.deadline_ms = 1;
  request.instance_text = to_string(generate_path_instance(gen, rng));
  const Client::SolveOutcome outcome = client.solve(request);

  ASSERT_TRUE(outcome.ok) << outcome.error_message;
  EXPECT_TRUE(outcome.response.degraded);
  EXPECT_NE(outcome.response.skipped.find("solve.uniform"), std::string::npos)
      << outcome.response.skipped;
  std::istringstream inst_is(request.instance_text);
  const PathInstance inst = read_path_instance(inst_is);
  std::istringstream sol_is(outcome.response.solution_text);
  const VerifyResult verdict = verify_sap(inst, read_sap_solution(sol_is));
  EXPECT_TRUE(verdict.ok) << verdict.reason;
  server.stop();
}

// At the default eps a medium task with b(j) >= 2^59 has bands reaching
// 2^(k+ell) = 2^63: a valid request whose band capacities saturate at
// kMaxExactCapacity, served ok both plain and through the 1 ms fallback
// (both used to come back BAD_REQUEST).
TEST(ServiceTest, HugeCapacityRequestIsServed) {
  Server server(ServerOptions{});
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  SolveRequest request;
  request.instance_text =
      "sap-path v1\nedges 1\ncapacities 1000000000000000000\ntasks 1\n"
      "0 0 300000000000000000 5\n";
  std::istringstream inst_is(request.instance_text);
  const PathInstance inst = read_path_instance(inst_is);
  for (const std::int64_t deadline_ms : {0, 1}) {
    request.deadline_ms = deadline_ms;
    const Client::SolveOutcome outcome = client.solve(request);
    ASSERT_TRUE(outcome.ok) << deadline_ms << ": " << outcome.error_message;
    std::istringstream sol_is(outcome.response.solution_text);
    const VerifyResult verdict = verify_sap(inst, read_sap_solution(sol_is));
    EXPECT_TRUE(verdict.ok) << verdict.reason;
  }
  EXPECT_EQ(server.stats_snapshot().requests_bad, 0u);
  server.stop();
}

TEST(ServiceTest, DeadlineBeyondClockRangeMeansUnlimited) {
  Server server(ServerOptions{});
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  SolveRequest request;
  request.instance_text = "sap-path v1\nedges 2\ncapacities 6 6\ntasks 3\n"
                          "0 1 2 5\n0 0 3 4\n1 1 2 6\n";
  const Client::SolveOutcome plain = client.solve(request);
  // ms -> clock ticks overflows int64 for this budget; it must saturate to
  // "no deadline", not wrap into one that has already expired.
  request.deadline_ms = std::numeric_limits<std::int64_t>::max();
  const Client::SolveOutcome huge = client.solve(request);
  ASSERT_TRUE(plain.ok) << plain.error_message;
  ASSERT_TRUE(huge.ok) << huge.error_message;
  EXPECT_FALSE(huge.response.degraded) << huge.response.skipped;
  EXPECT_EQ(huge.response.solution_text, plain.response.solution_text);
  server.stop();
}

TEST(ServiceTest, GenerousDeadlineChangesNothing) {
  Server server(ServerOptions{});
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  SolveRequest request;
  request.eps = 0.5;
  request.seed = 3;
  request.instance_text = "sap-path v1\nedges 2\ncapacities 6 6\ntasks 3\n"
                          "0 1 2 5\n0 0 3 4\n1 1 2 6\n";
  const Client::SolveOutcome plain = client.solve(request);
  request.deadline_ms = 60'000;
  const Client::SolveOutcome budgeted = client.solve(request);
  ASSERT_TRUE(plain.ok);
  ASSERT_TRUE(budgeted.ok);
  // Determinism contract: a non-binding deadline is invisible in the result.
  EXPECT_FALSE(budgeted.response.degraded);
  EXPECT_EQ(budgeted.response.solution_text, plain.response.solution_text);
  EXPECT_EQ(budgeted.response.weight, plain.response.weight);
  server.stop();
}

TEST(ServiceTest, ClientReadTimeoutOnNeverReplyPeerIsTypedDeadline) {
  // An accept-only listener: the connection opens, then nothing ever comes
  // back. Without SO_RCVTIMEO the client would block forever.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  ClientOptions options;
  options.read_timeout_ms = 100;
  Client client(options);
  client.connect("127.0.0.1", ntohs(addr.sin_port));
  SolveRequest request;
  request.instance_text = "sap-path v1\nedges 1\ncapacities 4\ntasks 1\n"
                          "0 0 2 5\n";
  const Client::SolveOutcome outcome = client.solve(request);
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_code, ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(outcome.local_timeout);
  // The connection is poisoned: a late reply must not desync a future call.
  EXPECT_FALSE(client.connected());
  ::close(listener);
}

TEST(ServiceTest, RetryBackoffScheduleIsDeterministicUnderFixedSeed) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_ms = 50;
  policy.growth = 2.0;
  policy.max_backoff_ms = 400;
  policy.seed = 42;

  Rng a(policy.seed);
  Rng b(policy.seed);
  for (int attempt = 1; attempt < policy.max_attempts; ++attempt) {
    const std::int64_t first = Client::backoff_ms(policy, attempt, a);
    const std::int64_t second = Client::backoff_ms(policy, attempt, b);
    EXPECT_EQ(first, second) << "attempt " << attempt;
    // Equal jitter keeps every draw inside [base/2, base).
    const std::int64_t base = std::min<std::int64_t>(
        policy.max_backoff_ms, 50 * (std::int64_t{1} << (attempt - 1)));
    EXPECT_GE(first, base / 2);
    EXPECT_LT(first, base);
  }
}

TEST(ServiceTest, SolveWithRetryRecoversFromOverload) {
  std::counting_semaphore<64> gate(0);
  ServerOptions server_options;
  server_options.solver_threads = 1;
  server_options.max_queue = 1;
  server_options.fault_injector = [&gate](FaultPoint point) {
    if (point == FaultPoint::kPreSolve) gate.acquire();
  };
  Server server(server_options);
  server.start();

  SolveRequest request;
  request.instance_text = "sap-path v1\nedges 1\ncapacities 4\ntasks 1\n"
                          "0 0 2 5\n";

  // A occupies the worker, B fills the queue; C's first attempt must be
  // rejected OVERLOADED, then succeed on a retry once the gate opens.
  Client::SolveOutcome outcome_a, outcome_b;
  std::thread a([&] {
    Client client;
    client.connect("127.0.0.1", server.port());
    outcome_a = client.solve(request);
  });
  spin_until([&] { return server.stats_snapshot().active_solves == 1; });
  std::thread b([&] {
    Client client;
    client.connect("127.0.0.1", server.port());
    outcome_b = client.solve(request);
  });
  spin_until([&] { return server.stats_snapshot().queue_depth == 1; });

  std::thread opener([&] {
    spin_until([&] {
      return server.stats_snapshot().requests_overloaded >= 1;
    });
    gate.release(64);
  });

  ClientOptions retry_options;
  retry_options.retry.max_attempts = 8;
  retry_options.retry.initial_backoff_ms = 20;
  retry_options.retry.seed = 7;
  Client retry_client(retry_options);
  retry_client.connect("127.0.0.1", server.port());
  const Client::SolveOutcome outcome = retry_client.solve_with_retry(request);
  opener.join();
  a.join();
  b.join();
  ASSERT_TRUE(outcome.ok) << outcome.error_message;
  EXPECT_GT(outcome.attempts, 1);
  EXPECT_TRUE(outcome_a.ok);
  EXPECT_TRUE(outcome_b.ok);
  server.stop();
}

TEST(ServiceTest, SolveWithRetryGivesUpAfterMaxAttemptsOnDeadServer) {
  ServerOptions options;
  Server server(options);
  server.start();
  const std::uint16_t port = server.port();

  ClientOptions retry_options;
  retry_options.retry.max_attempts = 3;
  retry_options.retry.initial_backoff_ms = 1;
  Client client(retry_options);
  client.connect("127.0.0.1", port);
  server.stop();  // every retry now fails at reconnect or mid-round-trip

  SolveRequest request;
  request.instance_text = "sap-path v1\nedges 1\ncapacities 4\ntasks 1\n"
                          "0 0 2 5\n";
  try {
    (void)client.solve_with_retry(request);
    FAIL() << "expected a transport failure";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("after 3 attempts"),
              std::string::npos)
        << error.what();
  }
}

TEST(ServiceBatchTest, BatchOverItemLimitRejectedBeforeAnyInnerParse) {
  // sapd takes one solve per frame. A type-3 frame packing more solve
  // payloads than any server would take is rejected on its type alone:
  // nothing inside it is parsed, solved or cached.
  ServerOptions options;
  options.cache_entries = 8;
  Server server(options);
  server.start();

  SolveRequest request;
  request.instance_text =
      "sap-path v1\nedges 1\ncapacities 4\ntasks 1\n0 0 2 5\n";
  const std::string item = encode_solve_request(request);
  std::string packed = "count 1025\n";
  for (int i = 0; i < 1025; ++i) packed += item;

  const int fd = connect_raw(server.port());
  Frame frame;
  ASSERT_TRUE(write_frame(fd, static_cast<FrameType>(3), packed));
  ASSERT_EQ(read_frame(fd, &frame), ReadStatus::kOk);
  ASSERT_EQ(frame.type, static_cast<std::uint32_t>(FrameType::kErrorResponse));
  const ErrorResponse error = parse_error_response(frame.payload);
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  EXPECT_EQ(error.message, "unknown frame type 3");

  ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_bad, 1u);
  EXPECT_EQ(stats.requests_ok, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);

  // The connection survives the rejection (frame boundary intact).
  ASSERT_TRUE(write_frame(fd, FrameType::kSolveRequest, item));
  ASSERT_EQ(read_frame(fd, &frame), ReadStatus::kOk);
  ASSERT_EQ(frame.type, static_cast<std::uint32_t>(FrameType::kSolveResponse));
  EXPECT_EQ(parse_solve_response(frame.payload).solution_text,
            reference_path_solution(request.instance_text, request.eps,
                                    request.seed));
  ::close(fd);
  stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_ok, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  server.stop();
}

TEST(ServiceBatchTest, CanonicallyEqualBatchItemsCoalesceToOneSolve) {
  // Three textually different spellings of the same instance (comments,
  // extra spaces, CRLF endings) canonicalize to one digest, so sending all
  // three, one frame each, back to back on one connection costs one solve
  // and replays the stored payload byte-for-byte to the other two.
  ServerOptions options;
  options.cache_entries = 8;
  Server server(options);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  SolveRequest plain;
  plain.instance_text =
      "sap-path v1\nedges 1\ncapacities 4\ntasks 1\n0 0 2 5\n";
  SolveRequest commented = plain;
  commented.instance_text =
      "# same instance, different bytes\n"
      "sap-path v1\nedges 1\ncapacities 4\ntasks 1\n0 0 2 5\n";
  SolveRequest respaced = plain;
  respaced.instance_text =
      "sap-path v1\r\nedges  1\r\ncapacities 4\r\n\r\ntasks 1\r\n0 0 2 5\r\n";

  std::vector<Client::SolveOutcome> outcomes;
  for (const SolveRequest& request : {plain, commented, respaced}) {
    outcomes.push_back(client.solve(request));
  }
  for (const Client::SolveOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok) << outcome.error_message;
    EXPECT_EQ(outcome.response.solution_text,
              outcomes[0].response.solution_text);
    EXPECT_EQ(outcome.response.weight, outcomes[0].response.weight);
    EXPECT_EQ(outcome.response.wall_micros,
              outcomes[0].response.wall_micros);
  }

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_ok, 3u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits + stats.cache_coalesced, 2u);
  EXPECT_EQ(stats.cache_entries, 1u);
  server.stop();
}

/// Extracts the `-- instance` section of a sap-golden v1 fixture.
std::string golden_instance_text(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::string line, instance;
  bool in_instance = false;
  while (std::getline(in, line)) {
    if (line.rfind("--", 0) == 0) {
      in_instance = line == "-- instance";
      continue;
    }
    if (in_instance) {
      instance += line;
      instance += '\n';
    }
  }
  return instance;
}

TEST(ServiceCacheTest, CachedResponsesMatchFreshSolvesAcrossGoldenSuite) {
  // Differential: for every checked-in golden fixture, the answer served
  // from the cache must match both the first (fresh) serve and a
  // cache-disabled server's serve.
  ServerOptions cached_options;
  cached_options.cache_entries = 64;
  Server cached_server(cached_options);
  cached_server.start();
  Server plain_server(ServerOptions{});  // cache off
  plain_server.start();

  Client cached_client, plain_client;
  cached_client.connect("127.0.0.1", cached_server.port());
  plain_client.connect("127.0.0.1", plain_server.port());

  std::vector<std::string> fixtures;
  for (const auto& entry :
       std::filesystem::directory_iterator(SAPKIT_GOLDEN_DIR)) {
    fixtures.push_back(entry.path().string());
  }
  std::sort(fixtures.begin(), fixtures.end());
  ASSERT_GE(fixtures.size(), 25u);

  std::size_t cases = 0;
  for (const std::string& path : fixtures) {
    SolveRequest request;
    request.instance_text = golden_instance_text(path);
    if (request.instance_text.rfind("sap-ring", 0) == 0) {
      request.kind = SolveRequest::Kind::kRing;
    } else if (request.instance_text.rfind("sap-path", 0) != 0) {
      continue;  // not an instance-bearing fixture
    }
    ++cases;

    const Client::SolveOutcome fresh = cached_client.solve(request);
    const Client::SolveOutcome cached = cached_client.solve(request);
    const Client::SolveOutcome plain = plain_client.solve(request);
    ASSERT_TRUE(fresh.ok) << path << ": " << fresh.error_message;
    ASSERT_TRUE(cached.ok) << path << ": " << cached.error_message;
    ASSERT_TRUE(plain.ok) << path << ": " << plain.error_message;

    // The cached serve replays the stored payload byte-for-byte, so even
    // wall_micros matches the fresh serve it was stored from.
    EXPECT_EQ(cached.response.solution_text, fresh.response.solution_text)
        << path;
    EXPECT_EQ(cached.response.weight, fresh.response.weight) << path;
    EXPECT_EQ(cached.response.wall_micros, fresh.response.wall_micros)
        << path;
    EXPECT_FALSE(cached.response.degraded) << path;
    // And a server with no cache at all computes the same answer.
    EXPECT_EQ(cached.response.solution_text, plain.response.solution_text)
        << path;
    EXPECT_EQ(cached.response.weight, plain.response.weight) << path;
  }
  ASSERT_GE(cases, 25u);

  // Some fixtures pin the same instance under different solver configs, so
  // distinct cache keys can number fewer than fixtures: every serve is
  // accounted a hit or a miss, every fixture's second serve hit, and each
  // miss published exactly one entry.
  const ServerStats stats = cached_server.stats_snapshot();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 2 * cases);
  EXPECT_GE(stats.cache_hits, cases);
  EXPECT_EQ(stats.cache_misses, stats.cache_entries);
  EXPECT_LE(stats.cache_entries, 64u);
  EXPECT_EQ(stats.cache_evictions, 0u);
  const ServerStats plain_stats = plain_server.stats_snapshot();
  EXPECT_EQ(plain_stats.cache_hits, 0u);
  EXPECT_EQ(plain_stats.cache_misses, 0u);
  cached_server.stop();
  plain_server.stop();
}

TEST(ServiceCacheTest, ConcurrentIdenticalRequestsCoalesceIntoOneSolve) {
  std::counting_semaphore<64> gate(0);
  ServerOptions options;
  options.solver_threads = 1;
  options.cache_entries = 8;
  options.fault_injector = [&gate](FaultPoint point) {
    if (point == FaultPoint::kPreSolve) gate.acquire();
  };
  Server server(options);
  server.start();

  // Three textually different spellings of the same instance (a comment
  // line, a double space, CRLF endings) canonicalize to one digest.
  constexpr std::size_t kClients = 3;
  SolveRequest requests[kClients];
  requests[0].instance_text =
      "# same instance, different bytes\n"
      "sap-path v1\nedges 1\ncapacities 4\ntasks 1\n0 0 2 5\n";
  requests[1].instance_text =
      "sap-path v1\nedges  1\ncapacities 4\ntasks 1\n0 0 2 5\n";
  requests[2].instance_text =
      "sap-path v1\r\nedges 1\r\ncapacities 4\r\n\r\ntasks 1\r\n0 0 2 5\r\n";

  // The first request becomes the owner and blocks in the hook; the other
  // two coalesce behind it without consuming queue slots or workers.
  Client::SolveOutcome outcomes[kClients];
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      client.connect("127.0.0.1", server.port());
      outcomes[c] = client.solve(requests[c]);
    });
    if (c == 0) {
      spin_until([&] { return server.stats_snapshot().active_solves == 1; });
    }
  }
  spin_until([&] { return server.stats_snapshot().cache_coalesced == 2; });
  EXPECT_EQ(server.stats_snapshot().queue_depth, 0u);

  gate.release(1);  // only the owner ever reaches the hook
  for (auto& thread : clients) thread.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    ASSERT_TRUE(outcomes[c].ok) << outcomes[c].error_message;
    // Byte-identical fan-out: every waiter got the owner's stored payload.
    EXPECT_EQ(outcomes[c].response.solution_text,
              outcomes[0].response.solution_text);
    EXPECT_EQ(outcomes[c].response.wall_micros,
              outcomes[0].response.wall_micros);
  }
  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_ok, 3u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_coalesced, 2u);
  EXPECT_EQ(stats.cache_entries, 1u);
  server.stop();
}

TEST(ServiceCacheTest, DegradedResponseIsNeverCached) {
  ServerOptions options;
  options.cache_entries = 8;
  Server server(options);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  SolveRequest request;
  request.algo = "exact";
  request.deadline_ms = 1;
  request.instance_text = adversarial_exact_instance();

  const Client::SolveOutcome first = client.solve(request);
  ASSERT_TRUE(first.ok) << first.error_message;
  EXPECT_TRUE(first.response.degraded);

  // A degraded result reflects the request's budget, not the instance: it
  // must not have been published, so the identical request solves again
  // (and degrades again) instead of replaying the partial answer.
  const ServerStats between = server.stats_snapshot();
  EXPECT_EQ(between.cache_entries, 0u);
  EXPECT_EQ(between.cache_hits, 0u);

  const Client::SolveOutcome second = client.solve(request);
  ASSERT_TRUE(second.ok) << second.error_message;
  EXPECT_TRUE(second.response.degraded);

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_entries, 0u);
  EXPECT_EQ(stats.requests_degraded, 2u);
  server.stop();
}

/// In-process reference for a round request, matching the server exactly.
std::string reference_round_solution(const std::string& instance_text,
                                     round::RoundKind kind,
                                     const std::string& algo) {
  std::istringstream is(instance_text);
  const PathInstance inst = read_path_instance(is);
  round::RoundAssignment assignment;
  if (algo == "exact") {
    assignment = round::solve_round_exact(inst, kind).assignment;
  } else {
    assignment = kind == round::RoundKind::kUfp
                     ? round::solve_round_ufp_approx(inst)
                     : round::solve_round_sap_approx(inst);
  }
  std::ostringstream os;
  write_round_assignment(os, assignment);
  return os.str();
}

TEST(ServiceRoundTest, RoundSolveMatchesInProcessPipelinesOnBothKinds) {
  Server server(ServerOptions{});
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  Rng rng(17);
  PathGenOptions gen;
  gen.num_edges = 6;
  gen.num_tasks = 10;
  gen.min_capacity = 4;
  gen.max_capacity = 12;
  const PathInstance inst = generate_path_instance(gen, rng);

  const std::pair<SolveRequest::Kind, round::RoundKind> kinds[] = {
      {SolveRequest::Kind::kRoundUfp, round::RoundKind::kUfp},
      {SolveRequest::Kind::kRoundSap, round::RoundKind::kSap},
  };
  for (const auto& [wire_kind, model_kind] : kinds) {
    for (const std::string algo : {"full", "exact"}) {
      SolveRequest request;
      request.kind = wire_kind;
      request.algo = algo;
      request.instance_text = to_string(inst);
      const Client::SolveOutcome outcome = client.solve(request);
      ASSERT_TRUE(outcome.ok) << algo << ": " << outcome.error_message;

      // Byte-identical to the same pipeline run in this process.
      EXPECT_EQ(outcome.response.solution_text,
                reference_round_solution(request.instance_text, model_kind,
                                         algo))
          << algo;
      EXPECT_TRUE(outcome.response.is_round);
      EXPECT_FALSE(outcome.response.degraded);

      // The packing is independently verifiable and places every task.
      std::istringstream sol_is(outcome.response.solution_text);
      const round::RoundAssignment assignment = read_round_assignment(sol_is);
      EXPECT_EQ(assignment.kind, model_kind);
      const VerifyResult check =
          round::verify_round_assignment(inst, assignment);
      EXPECT_TRUE(check) << algo << ": " << check.reason;
      EXPECT_EQ(outcome.response.rounds, assignment.num_rounds());
      EXPECT_GE(outcome.response.rounds, 1u);
      EXPECT_EQ(outcome.response.placed, inst.num_tasks());
      EXPECT_EQ(outcome.response.total_tasks, inst.num_tasks());
      EXPECT_EQ(outcome.response.weight, inst.total_weight());
    }
  }

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_ok, 4u);
  server.stop();
}

TEST(ServiceRoundTest, CachedRoundResponsesReplayByteIdenticalPerKindLane) {
  ServerOptions options;
  options.cache_entries = 8;
  Server server(options);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  // The same instance text under three kinds: path, round-ufp, round-sap.
  // Each kind hashes into its own digest lane, so these are three distinct
  // cache entries, and each second serve replays its own stored payload.
  Rng rng(23);
  PathGenOptions gen;
  gen.num_edges = 5;
  gen.num_tasks = 8;
  gen.min_capacity = 4;
  gen.max_capacity = 8;
  const std::string text = to_string(generate_path_instance(gen, rng));

  for (const SolveRequest::Kind kind :
       {SolveRequest::Kind::kPath, SolveRequest::Kind::kRoundUfp,
        SolveRequest::Kind::kRoundSap}) {
    SolveRequest request;
    request.kind = kind;
    request.instance_text = text;
    const Client::SolveOutcome fresh = client.solve(request);
    const Client::SolveOutcome cached = client.solve(request);
    ASSERT_TRUE(fresh.ok) << fresh.error_message;
    ASSERT_TRUE(cached.ok) << cached.error_message;
    EXPECT_EQ(cached.response.solution_text, fresh.response.solution_text);
    EXPECT_EQ(cached.response.rounds, fresh.response.rounds);
    // Byte-level replay: even the stored timing is echoed back.
    EXPECT_EQ(cached.response.wall_micros, fresh.response.wall_micros);
    EXPECT_EQ(cached.response.is_round,
              kind != SolveRequest::Kind::kPath);
  }

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.cache_misses, 3u);  // one lane per kind
  EXPECT_EQ(stats.cache_hits, 3u);
  EXPECT_EQ(stats.cache_entries, 3u);
  server.stop();
}

TEST(ServiceRoundTest, ExpiredDeadlineDegradesRoundExactToValidPacking) {
  Server server(ServerOptions{});
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  SolveRequest request;
  request.kind = SolveRequest::Kind::kRoundSap;
  request.algo = "exact";
  request.deadline_ms = 10;
  request.instance_text = adversarial_exact_instance();
  const Client::SolveOutcome outcome = client.solve(request);

  // The branch-and-bound oracle cannot finish 48 tasks in 10 ms; the
  // response is still a success: a budget-free first-fit packing — valid,
  // just more rounds — marked degraded.
  ASSERT_TRUE(outcome.ok) << outcome.error_message;
  EXPECT_TRUE(outcome.response.degraded);
  EXPECT_NE(outcome.response.skipped.find("solve.exact"), std::string::npos)
      << outcome.response.skipped;
  EXPECT_TRUE(outcome.response.is_round);

  std::istringstream inst_is(request.instance_text);
  const PathInstance inst = read_path_instance(inst_is);
  std::istringstream sol_is(outcome.response.solution_text);
  const round::RoundAssignment assignment = read_round_assignment(sol_is);
  const VerifyResult check = round::verify_round_assignment(inst, assignment);
  EXPECT_TRUE(check) << check.reason;
  EXPECT_EQ(outcome.response.rounds, assignment.num_rounds());
  EXPECT_GE(outcome.response.rounds, 1u);

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_ok, 1u);
  EXPECT_EQ(stats.requests_degraded, 1u);
  server.stop();
}

TEST(ServiceRoundTest, CertificateRequestOnRoundKindRejectedTyped) {
  Server server(ServerOptions{});
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  SolveRequest request;
  request.kind = SolveRequest::Kind::kRoundUfp;
  request.want_certificate = true;
  request.instance_text =
      "sap-path v1\nedges 1\ncapacities 4\ntasks 1\n0 0 2 5\n";
  Client::SolveOutcome outcome = client.solve(request);
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_code, ErrorCode::kBadRequest);
  EXPECT_NE(outcome.error_message.find("not defined for round kinds"),
            std::string::npos)
      << outcome.error_message;

  // The connection survives: the same request without the flag succeeds.
  request.want_certificate = false;
  outcome = client.solve(request);
  ASSERT_TRUE(outcome.ok) << outcome.error_message;
  EXPECT_TRUE(outcome.response.is_round);
  server.stop();
}

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/sapkit_service_persist_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string journal() const { return path + "/journal.bin"; }
  std::string path;
};

TEST(ServicePersistTest, PersistPathWithoutCacheRefusesToStart) {
  TempDir dir;
  ServerOptions options;
  options.cache_persist_path = dir.journal();  // cache_entries left 0
  Server server(options);
  EXPECT_THROW(server.start(), std::runtime_error);
}

TEST(ServicePersistTest, RestartServesByteIdenticalResponsesAcrossGoldenSuite) {
  // The crash-safety contract end to end: every response a persistent
  // server published must be replayed byte-for-byte — including the stored
  // wall_micros — by a freshly started server pointed at the same journal.
  TempDir dir;
  ServerOptions options;
  options.cache_entries = 64;
  options.cache_persist_path = dir.journal();

  std::vector<std::string> fixtures;
  for (const auto& entry :
       std::filesystem::directory_iterator(SAPKIT_GOLDEN_DIR)) {
    fixtures.push_back(entry.path().string());
  }
  std::sort(fixtures.begin(), fixtures.end());
  ASSERT_GE(fixtures.size(), 25u);

  std::vector<SolveRequest> requests;
  std::vector<SolveResponse> before;
  std::uint64_t entries_at_stop = 0;
  {
    Server server(options);
    server.start();
    const ServerStats fresh = server.stats_snapshot();
    EXPECT_TRUE(fresh.cache_persist_enabled);
    EXPECT_EQ(fresh.cache_recovered_records, 0u);  // first boot: empty file
    Client client;
    client.connect("127.0.0.1", server.port());
    for (const std::string& path : fixtures) {
      SolveRequest request;
      request.instance_text = golden_instance_text(path);
      if (request.instance_text.rfind("sap-ring", 0) == 0) {
        request.kind = SolveRequest::Kind::kRing;
      } else if (request.instance_text.rfind("sap-path", 0) != 0) {
        continue;  // not an instance-bearing fixture
      }
      const Client::SolveOutcome outcome = client.solve(request);
      ASSERT_TRUE(outcome.ok) << path << ": " << outcome.error_message;
      requests.push_back(request);
      before.push_back(outcome.response);
    }
    entries_at_stop = server.stats_snapshot().cache_entries;
    server.stop();  // graceful stop flushes the journal
  }
  ASSERT_GE(requests.size(), 25u);

  Server restarted(options);
  restarted.start();
  const ServerStats warm = restarted.stats_snapshot();
  EXPECT_TRUE(warm.cache_persist_enabled);
  // Fixtures pinning the same instance under different solver configs share
  // a digest, so recovered records equal distinct entries, not fixtures.
  EXPECT_EQ(warm.cache_recovered_records, entries_at_stop);
  EXPECT_EQ(warm.cache_entries, entries_at_stop);
  EXPECT_EQ(warm.cache_discarded_corrupt, 0u);
  EXPECT_EQ(warm.cache_truncated_tail_bytes, 0u);

  Client client;
  client.connect("127.0.0.1", restarted.port());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Client::SolveOutcome replay = client.solve(requests[i]);
    ASSERT_TRUE(replay.ok) << replay.error_message;
    EXPECT_EQ(replay.response.solution_text, before[i].solution_text) << i;
    EXPECT_EQ(replay.response.weight, before[i].weight) << i;
    // Byte-level replay across the restart: even the pre-restart server's
    // stored timing is echoed back.
    EXPECT_EQ(replay.response.wall_micros, before[i].wall_micros) << i;
    EXPECT_FALSE(replay.response.degraded) << i;
  }
  const ServerStats stats = restarted.stats_snapshot();
  EXPECT_EQ(stats.cache_hits, requests.size());  // nothing was re-solved
  EXPECT_EQ(stats.cache_misses, 0u);
  // The wire stats report carries the persistence counters.
  const std::string json = client.stats_json();
  EXPECT_NE(json.find("\"persist\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"recovered_records\": " +
                      std::to_string(entries_at_stop)),
            std::string::npos)
      << json;
  restarted.stop();
}

TEST(ServicePersistTest, EvictedEntriesDoNotResurrectOnRestart) {
  TempDir dir;
  ServerOptions options;
  options.cache_entries = 4;
  options.cache_persist_path = dir.journal();

  // Eight distinct instances through a four-entry cache: the first four are
  // evicted (tombstoned) before the stop, and must stay gone after it.
  std::vector<SolveRequest> requests;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    PathGenOptions gen;
    gen.num_edges = 6;
    gen.num_tasks = 8;
    SolveRequest request;
    request.seed = seed;
    request.instance_text = to_string(generate_path_instance(gen, rng));
    requests.push_back(request);
  }

  std::vector<SolveResponse> before;
  {
    Server server(options);
    server.start();
    Client client;
    client.connect("127.0.0.1", server.port());
    for (const SolveRequest& request : requests) {
      const Client::SolveOutcome outcome = client.solve(request);
      ASSERT_TRUE(outcome.ok) << outcome.error_message;
      before.push_back(outcome.response);
    }
    EXPECT_EQ(server.stats_snapshot().cache_evictions, 4u);
    server.stop();
  }

  Server restarted(options);
  restarted.start();
  // Recovered records count what the journal held: 8 puts + 4 tombstones.
  EXPECT_EQ(restarted.stats_snapshot().cache_recovered_records, 12u);
  EXPECT_EQ(restarted.stats_snapshot().cache_entries, 4u);
  Client client;
  client.connect("127.0.0.1", restarted.port());
  // Survivors first (each fresh re-solve below evicts a warm entry, so the
  // order matters): the last four must replay the stored bytes, timing
  // included.
  for (std::size_t i = 4; i < requests.size(); ++i) {
    const Client::SolveOutcome after = client.solve(requests[i]);
    ASSERT_TRUE(after.ok) << after.error_message;
    EXPECT_EQ(after.response.solution_text, before[i].solution_text) << i;
    EXPECT_EQ(after.response.wall_micros, before[i].wall_micros) << i;
  }
  // The evicted four are gone for good — fresh (still deterministic) solves,
  // not resurrected journal payloads.
  for (std::size_t i = 0; i < 4; ++i) {
    const Client::SolveOutcome after = client.solve(requests[i]);
    ASSERT_TRUE(after.ok) << after.error_message;
    EXPECT_EQ(after.response.solution_text, before[i].solution_text) << i;
    EXPECT_EQ(after.response.weight, before[i].weight) << i;
  }
  // The first four were fresh solves (misses), the last four warm hits:
  // nothing resurrected, nothing surviving was re-solved.
  const ServerStats stats = restarted.stats_snapshot();
  EXPECT_EQ(stats.cache_hits, 4u);
  EXPECT_EQ(stats.cache_misses, 4u);
  restarted.stop();
}

TEST(ServicePersistTest, GracefulStopJournalsTheInFlightPublish) {
  // SIGTERM-shaped shutdown during an active solve: stop() drains the
  // admitted request, its publish lands in the journal, and the flush runs
  // before stop() returns — so a restart serves it from the warm cache.
  std::counting_semaphore<64> gate(0);
  TempDir dir;
  ServerOptions options;
  options.solver_threads = 1;
  options.cache_entries = 8;
  options.cache_persist_path = dir.journal();
  options.fault_injector = [&gate](FaultPoint point) {
    if (point == FaultPoint::kPreSolve) gate.acquire();
  };
  Server server(options);
  server.start();
  const std::uint16_t port = server.port();

  SolveRequest request;
  request.instance_text = "sap-path v1\nedges 1\ncapacities 4\ntasks 1\n"
                          "0 0 2 5\n";
  Client::SolveOutcome outcome;
  std::thread in_flight([&] {
    Client client;
    client.connect("127.0.0.1", port);
    outcome = client.solve(request);
  });
  spin_until([&] { return server.stats_snapshot().active_solves == 1; });

  std::thread stopper([&] { server.stop(); });
  gate.release(1);
  stopper.join();
  in_flight.join();
  ASSERT_TRUE(outcome.ok) << outcome.error_message;

  // The drained solve's record survived the shutdown: at most the truly
  // in-flight (never-OK'd) work can be lost, never an acknowledged response.
  ServerOptions plain = options;
  plain.fault_injector = nullptr;
  Server restarted(plain);
  restarted.start();
  EXPECT_EQ(restarted.stats_snapshot().cache_recovered_records, 1u);
  Client client;
  client.connect("127.0.0.1", restarted.port());
  const Client::SolveOutcome replay = client.solve(request);
  ASSERT_TRUE(replay.ok) << replay.error_message;
  EXPECT_EQ(replay.response.solution_text, outcome.response.solution_text);
  EXPECT_EQ(replay.response.wall_micros, outcome.response.wall_micros);
  EXPECT_EQ(restarted.stats_snapshot().cache_hits, 1u);
  restarted.stop();
}

TEST(ServicePersistTest, DegradedResponsesNeverReachDisk) {
  TempDir dir;
  ServerOptions options;
  options.cache_entries = 8;
  options.cache_persist_path = dir.journal();
  {
    Server server(options);
    server.start();
    Client client;
    client.connect("127.0.0.1", server.port());
    SolveRequest request;
    request.algo = "exact";
    request.deadline_ms = 1;
    request.instance_text = adversarial_exact_instance();
    const Client::SolveOutcome outcome = client.solve(request);
    ASSERT_TRUE(outcome.ok) << outcome.error_message;
    ASSERT_TRUE(outcome.response.degraded);
    EXPECT_EQ(server.stats_snapshot().cache_journal_appends, 0u);
    server.stop();
  }
  // The journal holds nothing: a budget-shaped answer is a property of one
  // request's deadline and must not outlive the process, either.
  Server restarted(options);
  restarted.start();
  const ServerStats stats = restarted.stats_snapshot();
  EXPECT_EQ(stats.cache_recovered_records, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
  restarted.stop();
}

TEST(ServiceWorkerPoolTest, FourWorkersServeCorrectlyAndGaugesReturnToZero) {
  ServerOptions options;
  options.solver_threads = 4;
  Server server(options);
  server.start();

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequestsPerClient = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, port = server.port(), &failures] {
      Client client;
      client.connect("127.0.0.1", port);
      for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
        const std::uint64_t seed = 31 * c + r;
        Rng rng(seed);
        PathGenOptions gen;
        gen.num_edges = 8;
        gen.num_tasks = 10;
        SolveRequest request;
        request.seed = seed;
        request.instance_text = to_string(generate_path_instance(gen, rng));
        const Client::SolveOutcome outcome = client.solve(request);
        if (!outcome.ok) {
          ++failures;
          continue;
        }
        const std::string expected = reference_path_solution(
            request.instance_text, request.eps, request.seed);
        if (outcome.response.solution_text != expected) ++failures;
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_ok, kClients * kRequestsPerClient);
  // A worker lowers its `active` gauge only after its job has sent the
  // reply, so the gauges reach zero shortly after the last response.
  spin_until([&server] {
    const ServerStats now = server.stats_snapshot();
    return now.queue_depth == 0 && now.active_solves == 0;
  });
  server.stop();
}

}  // namespace
}  // namespace sap::service
