// Deterministic mutation fuzzing of the sapd envelopes: solve requests
// (with and without `certify 1` and `deadline_ms`), solve responses carrying
// certificate sections, and certificate text, all built from the golden
// path fixtures. Every mutant must either parse or throw
// std::invalid_argument: that is the only exception the server's
// loop-thread dispatch catches, so anything else escaping a parser would
// take the loop thread down.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/io/instance_io.hpp"
#include "src/service/protocol.hpp"
#include "src/service/server.hpp"
#include "src/service/solve.hpp"
#include "src/util/rng.hpp"

namespace sap::service {
namespace {

constexpr int kMutantsPerInput = 40;

/// The `-- instance` sections of the golden path fixtures, in name order.
std::vector<std::string> golden_path_instances() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SAPKIT_GOLDEN_DIR)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> out;
  for (const auto& path : files) {
    std::ifstream in(path);
    std::string line, text;
    bool in_instance = false;
    while (std::getline(in, line)) {
      if (line.rfind("--", 0) == 0) {
        in_instance = line == "-- instance";
        continue;
      }
      if (in_instance) text += line + '\n';
    }
    if (text.rfind("sap-path", 0) == 0) out.push_back(text);
  }
  return out;
}

/// One to three byte edits: replace, insert, delete, or truncate.
std::string mutate(std::string text, Rng& rng) {
  static constexpr char kBytes[] = "0123456789 -\nabcxyz\x7f";
  constexpr auto kLast = static_cast<std::int64_t>(sizeof(kBytes)) - 2;
  const auto edits = rng.uniform_int(1, 3);
  for (std::int64_t e = 0; e < edits && !text.empty(); ++e) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    const char byte = rng.uniform_int(0, 4) == 0
                          ? static_cast<char>(rng.uniform_int(0, 255))
                          : kBytes[rng.uniform_int(0, kLast)];
    switch (rng.uniform_int(0, 3)) {
      case 0:
        text[pos] = byte;
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos), byte);
        break;
      case 2:
        text.erase(pos, 1);
        break;
      default:
        text.resize(pos);
        break;
    }
  }
  return text;
}

/// Feeds `kMutantsPerInput` mutants of every input to `parse`. Returns how
/// many parsed; fails the test on any exception other than
/// std::invalid_argument.
int fuzz(const std::vector<std::string>& inputs, std::uint64_t seed,
         const std::function<void(const std::string&)>& parse) {
  Rng rng(seed);
  int parsed = 0;
  for (const std::string& input : inputs) {
    for (int m = 0; m < kMutantsPerInput; ++m) {
      const std::string mutant = mutate(input, rng);
      try {
        parse(mutant);
        ++parsed;
      } catch (const std::invalid_argument&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "untyped " << e.what() << " on:\n" << mutant;
      }
    }
  }
  return parsed;
}

void parse_certificate(const std::string& text) {
  std::istringstream is(text);
  (void)read_certificate(is, kServerReadLimits);
}

/// A response envelope with the solution and certificate it carries.
void parse_response(const std::string& payload) {
  const SolveResponse response = parse_solve_response(payload);
  std::istringstream solution(response.solution_text);
  (void)read_sap_solution(solution, kServerReadLimits);
  if (!response.certificate_text.empty()) {
    parse_certificate(response.certificate_text);
  }
}

/// Solve requests over the golden instances in all four certify/deadline
/// combinations, and the certified responses to them.
struct Corpus {
  std::vector<std::string> requests;
  std::vector<std::string> responses;
  std::vector<std::string> certificates;
};

const Corpus& corpus() {
  static const Corpus built = [] {
    Corpus c;
    for (const std::string& instance : golden_path_instances()) {
      SolveRequest request;
      request.instance_text = instance;
      for (const bool certify : {false, true}) {
        for (const std::int64_t deadline_ms : {0, 5000}) {
          request.want_certificate = certify;
          request.deadline_ms = deadline_ms;
          c.requests.push_back(encode_solve_request(request));
        }
      }
      request.deadline_ms = 0;
      const SolveResponse response =
          solve_request(request, ServerOptions{});
      c.responses.push_back(encode_solve_response(response));
      c.certificates.push_back(response.certificate_text);
    }
    return c;
  }();
  return built;
}

TEST(EnvelopeFuzzTest, CorpusCoversTheGoldenPathFixtures) {
  EXPECT_GE(corpus().responses.size(), 20u);
  for (const std::string& cert : corpus().certificates) {
    EXPECT_FALSE(cert.empty());
  }
}

/// A request envelope and the instance it carries, parsed as sapd does.
void parse_request(const std::string& payload) {
  std::istringstream is(parse_solve_request(payload).instance_text);
  (void)read_path_instance(is, kServerReadLimits);
}

TEST(EnvelopeFuzzTest, SolveRequestsParseOrThrowInvalidArgument) {
  EXPECT_GT(fuzz(corpus().requests, 18001, parse_request), 0);
}

TEST(EnvelopeFuzzTest, SolveResponsesParseOrThrowInvalidArgument) {
  EXPECT_GT(fuzz(corpus().responses, 18002, parse_response), 0);
}

TEST(EnvelopeFuzzTest, CertificatesParseOrThrowInvalidArgument) {
  EXPECT_GT(fuzz(corpus().certificates, 18003, parse_certificate), 0);
}

}  // namespace
}  // namespace sap::service
