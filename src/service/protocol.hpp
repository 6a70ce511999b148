// sapd wire protocol: typed frames whose payloads are line-oriented text
// envelopes carrying the instance_io formats (docs/SERVICE.md is the spec).
//
// Everything here is pure encode/parse on in-memory buffers — the socket
// layer lives in frame.{hpp,cpp} (fd framing) and server/client (endpoints),
// so the protocol can be unit tested without a network.
//
// Frame layout (all fields little-endian uint32):
//   magic   0x53415044 ("SAPD" read as big-endian bytes 'S','A','P','D')
//   type    FrameType
//   length  payload byte count (bounded by the receiver's max payload)
// followed by `length` payload bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/model/task.hpp"

namespace sap::service {

inline constexpr std::uint32_t kFrameMagic = 0x44504153u;  // 'S','A','P','D'
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Hard ceiling on a frame payload; receivers reject larger lengths before
/// allocating (an attacker-supplied length can never OOM an endpoint).
inline constexpr std::size_t kDefaultMaxFramePayload = 16u << 20;  // 16 MiB

enum class FrameType : std::uint32_t {
  kSolveRequest = 1,
  kStatsRequest = 2,
  /// Version-negotiated batch: one frame carrying N independent solve
  /// request payloads (a sweep in one round trip). A server that predates
  /// batching answers the whole frame with a BAD_REQUEST "unknown frame
  /// type" error and keeps the connection usable, so a new client can fall
  /// back to sequential kSolveRequest frames.
  kBatchSolveRequest = 3,
  kSolveResponse = 17,
  kStatsResponse = 18,
  kErrorResponse = 19,
  kBatchSolveResponse = 20,
};

/// Typed rejection codes carried by kErrorResponse frames.
enum class ErrorCode : std::uint32_t {
  kBadRequest = 1,        ///< unparseable frame/envelope/instance
  kOverloaded = 2,        ///< admission queue full — retry later
  kShuttingDown = 3,      ///< server draining; no new work accepted
  kInternal = 4,          ///< solver threw; request was well-formed
  kDeadlineExceeded = 5,  ///< per-request deadline expired before a result
};

[[nodiscard]] const char* error_code_name(ErrorCode code) noexcept;
/// Inverse of error_code_name; throws std::invalid_argument on unknown.
[[nodiscard]] ErrorCode parse_error_code(std::string_view name);

struct FrameHeader {
  std::uint32_t magic = 0;
  std::uint32_t type = 0;  ///< raw on the wire; may be an unknown value
  std::uint32_t length = 0;
};

/// Serializes a header into exactly kFrameHeaderBytes at `out`.
void encode_frame_header(unsigned char* out, FrameType type,
                         std::uint32_t payload_length) noexcept;
/// Decodes kFrameHeaderBytes from `in`; returns false on a magic mismatch.
[[nodiscard]] bool decode_frame_header(const unsigned char* in,
                                       FrameHeader* out) noexcept;

/// A solve request: solver selection (mirroring `sapkit_cli solve`) plus
/// the instance text in sap-path v1 / sap-ring v1 format.
struct SolveRequest {
  /// Version-negotiated problem family. kRoundUfp/kRoundSap ("round-ufp" /
  /// "round-sap" on the wire) ask for a minimum-round packing of *all*
  /// tasks of a sap-path v1 instance instead of a max-weight single-round
  /// selection. A server that predates the round family rejects the unknown
  /// kind with a typed BAD_REQUEST and keeps the connection usable.
  enum class Kind { kPath, kRing, kRoundUfp, kRoundSap };
  Kind kind = Kind::kPath;
  /// Path pipelines: full|exact|uniform|small|medium|large. Round kinds
  /// accept full (approximation) | exact (oracle); rings accept full only.
  std::string algo = "full";
  double eps = 0.5;
  std::uint64_t seed = 1;
  /// Per-request solve budget in milliseconds; 0 = no client deadline (the
  /// server may still apply its own default). Version-negotiated like
  /// `certify`: encoded as an extra "deadline_ms N" line only when nonzero,
  /// so old peers interoperate unchanged.
  std::int64_t deadline_ms = 0;
  /// Version-negotiated certificate opt-in: encoded as an extra "certify 1"
  /// line that clients which predate certification never send, so old
  /// clients and old servers interoperate unchanged.
  bool want_certificate = false;
  std::string instance_text;
};

/// Wire name of a kind: "path", "ring", "round-ufp" or "round-sap".
[[nodiscard]] const char* kind_name(SolveRequest::Kind kind) noexcept;
/// Inverse of kind_name; throws std::invalid_argument on an unknown name.
[[nodiscard]] SolveRequest::Kind parse_kind(std::string_view name);

[[nodiscard]] std::string encode_solve_request(const SolveRequest& request);
/// Throws std::invalid_argument on a malformed envelope. The instance text
/// is carried opaquely; the server parses it separately (instance_io).
[[nodiscard]] SolveRequest parse_solve_request(std::string_view payload);

/// A successful solve: the solution exactly as write_sap_solution /
/// write_ring_solution emits it (byte-identical to an in-process solve with
/// the same parameters), plus per-request observability.
struct SolveResponse {
  Weight weight = 0;
  std::uint64_t placed = 0;
  std::uint64_t total_tasks = 0;
  std::int64_t wall_micros = 0;
  std::string telemetry_json;  ///< single-line counters object ("{}" if none)
  /// Round-family responses only: round count of the packing, carried as an
  /// additive "rounds N" line (after telemetry) that plain solves never
  /// emit, so old peers interoperate unchanged. `solution_text` then holds
  /// round-solution v1 text instead of sap-solution v1.
  bool is_round = false;
  std::uint64_t rounds = 0;
  /// Degradation ladder marker: the deadline ran out mid-request and the
  /// server fell back to the approximation result instead of rejecting.
  /// `skipped` names the stages that were cut short (comma-separated, e.g.
  /// "cert.exact_dp,cert.ufpp_bnb"). Additive lines; old peers never see
  /// them (only emitted when degraded).
  bool degraded = false;
  std::string skipped;
  /// Optional sap-cert v1 text, present only when the request asked for a
  /// certificate and the server could produce one. Carried as a
  /// length-prefixed "certificate <nbytes>" section so the multi-line text
  /// nests inside the envelope unambiguously.
  std::string certificate_text;
  std::string solution_text;
};

[[nodiscard]] std::string encode_solve_response(const SolveResponse& response);
[[nodiscard]] SolveResponse parse_solve_response(std::string_view payload);

struct ErrorResponse {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

[[nodiscard]] std::string encode_error_response(const ErrorResponse& error);
[[nodiscard]] ErrorResponse parse_error_response(std::string_view payload);

/// Item ceiling a receiver applies to batch frames before touching any
/// inner payload (like kDefaultMaxFramePayload, an attacker-declared count can
/// never drive allocation).
inline constexpr std::size_t kDefaultMaxBatchItems = 64;

/// Batch envelope (kBatchSolveRequest):
///   sapd-batch v1
///   count <N>
///   request <nbytes>\n<nbytes raw bytes>     (N times)
/// Every inner blob is a complete sapd-solve v1 payload, carried opaquely
/// — the server parses each one independently, so one malformed item
/// rejects that item, not the batch.
[[nodiscard]] std::string encode_batch_solve_request(
    const std::vector<std::string>& items);
/// Throws std::invalid_argument on a malformed outer envelope (bad count,
/// count over `max_items`, truncated inner section, trailing bytes).
[[nodiscard]] std::vector<std::string> parse_batch_solve_request(
    std::string_view payload, std::size_t max_items = kDefaultMaxBatchItems);

/// One slot of a batch response: a solve-response payload (ok) or an
/// error-response payload (rejected item), position-matched to the request.
struct BatchItemResult {
  bool ok = false;
  std::string payload;
};

/// Batch response envelope (kBatchSolveResponse):
///   sapd-batch-result v1
///   count <N>
///   ok <nbytes>\n<bytes> | error <nbytes>\n<bytes>   (N times)
[[nodiscard]] std::string encode_batch_solve_response(
    const std::vector<BatchItemResult>& items);
[[nodiscard]] std::vector<BatchItemResult> parse_batch_solve_response(
    std::string_view payload, std::size_t max_items = kDefaultMaxBatchItems);

}  // namespace sap::service
