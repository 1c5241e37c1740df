#ifndef PROBE_SERVER_PROTOCOL_H_
#define PROBE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "index/nearest.h"
#include "index/zkd_index.h"

/// \file
/// The spatial query server's binary wire protocol.
///
/// A conversation is a stream of length-prefixed, CRC-guarded frames in
/// both directions. Every frame starts with a fixed 16-byte header:
///
///   +-------+-------+---------+------+----------------+-------------+-------+
///   | magic | magic | version | type | request_id (4) | payload_len | crc   |
///   |  'z'  |  'q'  |   (1)   | (1)  |                |     (4)     |  (4)  |
///   +-------+-------+---------+------+----------------+-------------+-------+
///
/// followed by `payload_len` payload bytes. All integers are little-endian.
/// The CRC (util::Crc32) covers the first 12 header bytes and the payload,
/// so a bit flip anywhere in the frame is detected before the payload is
/// parsed. The magic doubles as protocol discrimination: an HTTP request
/// ("GET /metrics ...") cannot start with 'z''q', which is how one listener
/// serves both the binary protocol and the metrics endpoint.
///
/// Requests carry a client-chosen request_id that the matching response
/// echoes, so clients may pipeline: write a window of requests, then read
/// the window of responses. The server answers frames of one connection in
/// order.
///
/// Decoding is defensive end to end: the decoder never trusts a length
/// (payloads are capped at kMaxPayloadBytes), never reads past the buffer,
/// and classifies every malformed input as a Status instead of crashing —
/// the protocol fuzz tier feeds it truncated, bit-flipped, and oversized
/// frames under ASan/UBSan to hold that claim.

namespace probe::server {

inline constexpr uint8_t kMagic0 = 'z';
inline constexpr uint8_t kMagic1 = 'q';
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kHeaderBytes = 16;

/// Hard cap on a frame's payload. Large enough for ~2M-row responses,
/// small enough that a hostile length prefix cannot balloon memory.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 24;

/// Frame types. Requests are < 64; each response type is its request + 64,
/// except kError which answers any request.
enum class FrameType : uint8_t {
  kHello = 1,
  kRange = 2,    // ids of points in a box
  kBox = 3,      // (id, point) rows in a box
  kCount = 4,    // COUNT(*) of points in a box (aggregate pushdown)
  kKnn = 5,      // k nearest neighbors of a point
  kExplain = 6,  // routing + plan text for a box query
  kPing = 7,
  kGoodbye = 8,

  kHelloOk = 65,
  kRangeResult = 66,
  kBoxResult = 67,
  kCountResult = 68,
  kKnnResult = 69,
  kExplainResult = 70,
  kPong = 71,
  kGoodbyeOk = 72,
  kError = 127,
};

/// True for the request half of the type space.
bool IsRequestType(FrameType type);

/// The response type answering `request` (kError aside).
FrameType ResponseTypeFor(FrameType request);

/// Protocol-level status codes, carried by kError responses.
enum class Status : uint16_t {
  kOk = 0,
  kBadMagic = 1,
  kBadVersion = 2,
  kBadCrc = 3,
  kOversized = 4,
  kBadPayload = 5,
  kUnknownType = 6,
  kNoSession = 7,     // query before HELLO
  kDoubleHello = 8,   // second HELLO on a live session
  kBusy = 9,          // admission control: retry later
  kShuttingDown = 10,
  kSessionExpired = 11,  // idle timeout
  kIoError = 12,
  kResponseTooLarge = 13,  // the answer would exceed kMaxPayloadBytes
};

const char* StatusName(Status status);

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kPing;
  uint32_t request_id = 0;
  std::vector<uint8_t> payload;
};

/// Appends the encoded frame (header + payload) to `out`.
void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out);

/// What DecodeFrame found at the front of a receive buffer.
enum class DecodeResult {
  kFrame,     // one complete, CRC-valid frame; `*consumed` bytes used
  kNeedMore,  // the buffer holds only a prefix of a frame — read more
  kError,     // unrecoverable framing error (`*error` says which)
};

/// Decodes the frame at the front of `data`. On kFrame, `*frame` is filled
/// and `*consumed` is the total frame size; on kError the connection is
/// unsynchronized and must be torn down after reporting `*error`.
DecodeResult DecodeFrame(std::span<const uint8_t> data, Frame* frame,
                         size_t* consumed, Status* error);

// --------------------------------------------------------------- payloads

/// Bounds-checked payload serializer (little-endian).
class PayloadWriter {
 public:
  void U8(uint8_t v) { bytes_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  /// u16 length + raw bytes; `text` beyond 64 KiB is truncated.
  void Str(std::string_view text);
  /// u8 dims + per-dimension u32 coordinate.
  void Point(const geometry::GridPoint& point);
  /// u8 dims + per-dimension u32 lo, u32 hi.
  void Box(const geometry::GridBox& box);

  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked payload parser: every getter returns false (and poisons
/// the reader) on underflow or malformed structure, so a parse is one
/// `if (!r.U32(&x) || ...) return BadPayload` chain with no way to read
/// out of bounds.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const uint8_t> data) : data_(data) {}

  bool U8(uint8_t* v);
  bool U16(uint16_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool Str(std::string* text);
  bool Point(geometry::GridPoint* point);
  /// Enforces lo <= hi per dimension (GridBox's invariant) — a malformed
  /// box fails the parse instead of tripping an assert downstream.
  bool Box(geometry::GridBox* box);

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Take(size_t n, const uint8_t** at);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ------------------------------------------------------- typed messages

struct HelloRequest {
  /// Session-wide decomposition depth cap (SearchOptions::max_element_depth)
  /// applied to every query on the session; -1 = full depth.
  int32_t max_element_depth = -1;
  std::string client_name;

  Frame ToFrame(uint32_t request_id) const;
  static bool FromPayload(std::span<const uint8_t> payload, HelloRequest* out);
};

struct HelloResponse {
  uint64_t session_id = 0;
  uint8_t dims = 0;
  uint8_t bits_per_dim = 0;
  uint16_t shards = 0;
  uint64_t point_count = 0;

  Frame ToFrame(uint32_t request_id) const;
  static bool FromPayload(std::span<const uint8_t> payload, HelloResponse* out);
};

struct RangeRequest {
  geometry::GridBox box;

  Frame ToFrame(uint32_t request_id) const;
  static bool FromPayload(std::span<const uint8_t> payload, RangeRequest* out);
};

struct RangeResponse {
  std::vector<uint64_t> ids;

  Frame ToFrame(uint32_t request_id) const;
  static bool FromPayload(std::span<const uint8_t> payload, RangeResponse* out);
};

struct BoxRequest {
  geometry::GridBox box;

  Frame ToFrame(uint32_t request_id) const;
  static bool FromPayload(std::span<const uint8_t> payload, BoxRequest* out);
};

struct BoxResponse {
  using Row = index::Row;
  std::vector<Row> rows;

  Frame ToFrame(uint32_t request_id) const;
  static bool FromPayload(std::span<const uint8_t> payload, BoxResponse* out);
};

struct CountRequest {
  geometry::GridBox box;

  Frame ToFrame(uint32_t request_id) const;
  static bool FromPayload(std::span<const uint8_t> payload, CountRequest* out);
};

struct CountResponse {
  uint64_t count = 0;

  Frame ToFrame(uint32_t request_id) const;
  static bool FromPayload(std::span<const uint8_t> payload, CountResponse* out);
};

struct KnnRequest {
  geometry::GridPoint center;
  uint32_t k = 0;

  Frame ToFrame(uint32_t request_id) const;
  static bool FromPayload(std::span<const uint8_t> payload, KnnRequest* out);
};

struct KnnResponse {
  std::vector<index::Neighbor> neighbors;

  Frame ToFrame(uint32_t request_id) const;
  static bool FromPayload(std::span<const uint8_t> payload, KnnResponse* out);
};

struct ExplainRequest {
  geometry::GridBox box;
  /// 0 = range plan, 1 = count plan.
  uint8_t count = 0;

  Frame ToFrame(uint32_t request_id) const;
  static bool FromPayload(std::span<const uint8_t> payload, ExplainRequest* out);
};

struct ExplainResponse {
  std::string text;

  Frame ToFrame(uint32_t request_id) const;
  static bool FromPayload(std::span<const uint8_t> payload,
                          ExplainResponse* out);
};

struct ErrorResponse {
  Status status = Status::kOk;
  std::string message;

  Frame ToFrame(uint32_t request_id) const;
  static bool FromPayload(std::span<const uint8_t> payload, ErrorResponse* out);
};

/// The server's encoder: appends `response`, or — when its payload
/// exceeds kMaxPayloadBytes, so that any decoder would refuse the frame as
/// oversized — a kResponseTooLarge error answering the same request.
/// Returns false when it sent the error instead.
bool EncodeResponse(const Frame& response, std::vector<uint8_t>* out);

}  // namespace probe::server

#endif  // PROBE_SERVER_PROTOCOL_H_
