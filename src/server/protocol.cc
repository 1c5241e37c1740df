#include "server/protocol.h"

#include <cstring>
#include <string>

#include "util/crc32.h"

namespace probe::server {

namespace {

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t ReadU32(const uint8_t* at) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | at[i];
  return v;
}

bool ValidRequestType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kGoodbye);
}

bool ValidResponseType(uint8_t type) {
  return (type >= static_cast<uint8_t>(FrameType::kHelloOk) &&
          type <= static_cast<uint8_t>(FrameType::kGoodbyeOk)) ||
         type == static_cast<uint8_t>(FrameType::kError);
}

}  // namespace

bool IsRequestType(FrameType type) {
  return ValidRequestType(static_cast<uint8_t>(type));
}

FrameType ResponseTypeFor(FrameType request) {
  return static_cast<FrameType>(static_cast<uint8_t>(request) + 64);
}

const char* StatusName(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kBadMagic: return "bad-magic";
    case Status::kBadVersion: return "bad-version";
    case Status::kBadCrc: return "bad-crc";
    case Status::kOversized: return "oversized";
    case Status::kBadPayload: return "bad-payload";
    case Status::kUnknownType: return "unknown-type";
    case Status::kNoSession: return "no-session";
    case Status::kDoubleHello: return "double-hello";
    case Status::kBusy: return "busy";
    case Status::kShuttingDown: return "shutting-down";
    case Status::kSessionExpired: return "session-expired";
    case Status::kIoError: return "io-error";
    case Status::kResponseTooLarge: return "response-too-large";
  }
  return "?";
}

void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out) {
  const size_t header_at = out->size();
  out->push_back(kMagic0);
  out->push_back(kMagic1);
  out->push_back(kProtocolVersion);
  out->push_back(static_cast<uint8_t>(frame.type));
  PutU32(out, frame.request_id);
  PutU32(out, static_cast<uint32_t>(frame.payload.size()));
  // CRC over the 12 header bytes written so far, chained over the payload.
  uint32_t crc = util::Crc32(out->data() + header_at, 12);
  crc = util::Crc32(frame.payload.data(), frame.payload.size(), crc);
  PutU32(out, crc);
  out->insert(out->end(), frame.payload.begin(), frame.payload.end());
}

DecodeResult DecodeFrame(std::span<const uint8_t> data, Frame* frame,
                         size_t* consumed, Status* error) {
  *consumed = 0;
  *error = Status::kOk;
  if (data.size() < kHeaderBytes) return DecodeResult::kNeedMore;
  if (data[0] != kMagic0 || data[1] != kMagic1) {
    *error = Status::kBadMagic;
    return DecodeResult::kError;
  }
  if (data[2] != kProtocolVersion) {
    *error = Status::kBadVersion;
    return DecodeResult::kError;
  }
  const uint8_t type = data[3];
  const uint32_t request_id = ReadU32(data.data() + 4);
  const uint32_t payload_len = ReadU32(data.data() + 8);
  if (payload_len > kMaxPayloadBytes) {
    *error = Status::kOversized;
    return DecodeResult::kError;
  }
  if (data.size() < kHeaderBytes + payload_len) return DecodeResult::kNeedMore;
  const uint32_t want_crc = ReadU32(data.data() + 12);
  uint32_t crc = util::Crc32(data.data(), 12);
  crc = util::Crc32(data.data() + kHeaderBytes, payload_len, crc);
  if (crc != want_crc) {
    *error = Status::kBadCrc;
    return DecodeResult::kError;
  }
  if (!ValidRequestType(type) && !ValidResponseType(type)) {
    // The frame is intact (CRC passed) but names no known operation. The
    // stream stays synchronized, so this is reported per-frame, not as a
    // connection error; the caller still consumes the frame.
    *error = Status::kUnknownType;
  }
  frame->type = static_cast<FrameType>(type);
  frame->request_id = request_id;
  frame->payload.assign(data.begin() + kHeaderBytes,
                        data.begin() + kHeaderBytes + payload_len);
  *consumed = kHeaderBytes + payload_len;
  return DecodeResult::kFrame;
}

// --------------------------------------------------------------- payloads

void PayloadWriter::U16(uint16_t v) { PutU16(&bytes_, v); }
void PayloadWriter::U32(uint32_t v) { PutU32(&bytes_, v); }

void PayloadWriter::U64(uint64_t v) {
  PutU32(&bytes_, static_cast<uint32_t>(v));
  PutU32(&bytes_, static_cast<uint32_t>(v >> 32));
}

void PayloadWriter::Str(std::string_view text) {
  const size_t n = std::min<size_t>(text.size(), 0xFFFF);
  U16(static_cast<uint16_t>(n));
  bytes_.insert(bytes_.end(), text.begin(), text.begin() + n);
}

void PayloadWriter::Point(const geometry::GridPoint& point) {
  U8(static_cast<uint8_t>(point.dims()));
  for (int i = 0; i < point.dims(); ++i) U32(point[i]);
}

void PayloadWriter::Box(const geometry::GridBox& box) {
  U8(static_cast<uint8_t>(box.dims()));
  for (int i = 0; i < box.dims(); ++i) {
    U32(box.range(i).lo);
    U32(box.range(i).hi);
  }
}

bool PayloadReader::Take(size_t n, const uint8_t** at) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *at = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool PayloadReader::U8(uint8_t* v) {
  const uint8_t* at = nullptr;
  if (!Take(1, &at)) return false;
  *v = at[0];
  return true;
}

bool PayloadReader::U16(uint16_t* v) {
  const uint8_t* at = nullptr;
  if (!Take(2, &at)) return false;
  *v = static_cast<uint16_t>(at[0] | (at[1] << 8));
  return true;
}

bool PayloadReader::U32(uint32_t* v) {
  const uint8_t* at = nullptr;
  if (!Take(4, &at)) return false;
  *v = ReadU32(at);
  return true;
}

bool PayloadReader::U64(uint64_t* v) {
  uint32_t lo = 0;
  uint32_t hi = 0;
  if (!U32(&lo) || !U32(&hi)) return false;
  *v = (static_cast<uint64_t>(hi) << 32) | lo;
  return true;
}

bool PayloadReader::Str(std::string* text) {
  uint16_t n = 0;
  if (!U16(&n)) return false;
  const uint8_t* at = nullptr;
  if (!Take(n, &at)) return false;
  text->assign(reinterpret_cast<const char*>(at), n);
  return true;
}

bool PayloadReader::Point(geometry::GridPoint* point) {
  uint8_t dims = 0;
  if (!U8(&dims)) return false;
  if (dims < 1 || dims > geometry::GridPoint::kMaxDims) {
    ok_ = false;
    return false;
  }
  uint32_t coords[geometry::GridPoint::kMaxDims];
  for (int i = 0; i < dims; ++i) {
    if (!U32(&coords[i])) return false;
  }
  *point = geometry::GridPoint(std::span<const uint32_t>(coords, dims));
  return true;
}

bool PayloadReader::Box(geometry::GridBox* box) {
  uint8_t dims = 0;
  if (!U8(&dims)) return false;
  if (dims < 1 || dims > geometry::GridBox::kMaxDims) {
    ok_ = false;
    return false;
  }
  zorder::DimRange ranges[geometry::GridBox::kMaxDims];
  for (int i = 0; i < dims; ++i) {
    if (!U32(&ranges[i].lo) || !U32(&ranges[i].hi)) return false;
    if (ranges[i].lo > ranges[i].hi) {
      ok_ = false;
      return false;
    }
  }
  *box = geometry::GridBox(std::span<const zorder::DimRange>(ranges, dims));
  return true;
}

// ------------------------------------------------------- typed messages

namespace {

Frame MakeFrame(FrameType type, uint32_t request_id, PayloadWriter&& w) {
  Frame f;
  f.type = type;
  f.request_id = request_id;
  f.payload = w.Take();
  return f;
}

}  // namespace

Frame HelloRequest::ToFrame(uint32_t request_id) const {
  PayloadWriter w;
  w.U32(static_cast<uint32_t>(max_element_depth));
  w.Str(client_name);
  return MakeFrame(FrameType::kHello, request_id, std::move(w));
}

bool HelloRequest::FromPayload(std::span<const uint8_t> payload,
                               HelloRequest* out) {
  PayloadReader r(payload);
  uint32_t depth = 0;
  if (!r.U32(&depth) || !r.Str(&out->client_name) || !r.AtEnd()) return false;
  out->max_element_depth = static_cast<int32_t>(depth);
  return true;
}

Frame HelloResponse::ToFrame(uint32_t request_id) const {
  PayloadWriter w;
  w.U64(session_id);
  w.U8(dims);
  w.U8(bits_per_dim);
  w.U16(shards);
  w.U64(point_count);
  return MakeFrame(FrameType::kHelloOk, request_id, std::move(w));
}

bool HelloResponse::FromPayload(std::span<const uint8_t> payload,
                                HelloResponse* out) {
  PayloadReader r(payload);
  return r.U64(&out->session_id) && r.U8(&out->dims) &&
         r.U8(&out->bits_per_dim) && r.U16(&out->shards) &&
         r.U64(&out->point_count) && r.AtEnd();
}

namespace {

// RANGE/BOX/COUNT requests share the one-box payload.
Frame BoxedRequestFrame(FrameType type, uint32_t request_id,
                        const geometry::GridBox& box) {
  PayloadWriter w;
  w.Box(box);
  return MakeFrame(type, request_id, std::move(w));
}

bool BoxedRequestFromPayload(std::span<const uint8_t> payload,
                             geometry::GridBox* box) {
  PayloadReader r(payload);
  return r.Box(box) && r.AtEnd();
}

}  // namespace

Frame RangeRequest::ToFrame(uint32_t request_id) const {
  return BoxedRequestFrame(FrameType::kRange, request_id, box);
}

bool RangeRequest::FromPayload(std::span<const uint8_t> payload,
                               RangeRequest* out) {
  return BoxedRequestFromPayload(payload, &out->box);
}

Frame RangeResponse::ToFrame(uint32_t request_id) const {
  PayloadWriter w;
  w.U32(static_cast<uint32_t>(ids.size()));
  for (uint64_t id : ids) w.U64(id);
  return MakeFrame(FrameType::kRangeResult, request_id, std::move(w));
}

bool RangeResponse::FromPayload(std::span<const uint8_t> payload,
                                RangeResponse* out) {
  PayloadReader r(payload);
  uint32_t n = 0;
  if (!r.U32(&n)) return false;
  // 8 bytes per id: a hostile count larger than the remaining payload is
  // rejected before any reservation.
  if (static_cast<uint64_t>(n) * 8 > payload.size()) return false;
  out->ids.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!r.U64(&out->ids[i])) return false;
  }
  return r.AtEnd();
}

Frame BoxRequest::ToFrame(uint32_t request_id) const {
  return BoxedRequestFrame(FrameType::kBox, request_id, box);
}

bool BoxRequest::FromPayload(std::span<const uint8_t> payload,
                             BoxRequest* out) {
  return BoxedRequestFromPayload(payload, &out->box);
}

Frame BoxResponse::ToFrame(uint32_t request_id) const {
  PayloadWriter w;
  w.U32(static_cast<uint32_t>(rows.size()));
  for (const Row& row : rows) {
    w.U64(row.id);
    w.Point(row.point);
  }
  return MakeFrame(FrameType::kBoxResult, request_id, std::move(w));
}

bool BoxResponse::FromPayload(std::span<const uint8_t> payload,
                              BoxResponse* out) {
  PayloadReader r(payload);
  uint32_t n = 0;
  if (!r.U32(&n)) return false;
  if (static_cast<uint64_t>(n) * 9 > payload.size()) return false;
  out->rows.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!r.U64(&out->rows[i].id) || !r.Point(&out->rows[i].point)) return false;
  }
  return r.AtEnd();
}

Frame CountRequest::ToFrame(uint32_t request_id) const {
  return BoxedRequestFrame(FrameType::kCount, request_id, box);
}

bool CountRequest::FromPayload(std::span<const uint8_t> payload,
                               CountRequest* out) {
  return BoxedRequestFromPayload(payload, &out->box);
}

Frame CountResponse::ToFrame(uint32_t request_id) const {
  PayloadWriter w;
  w.U64(count);
  return MakeFrame(FrameType::kCountResult, request_id, std::move(w));
}

bool CountResponse::FromPayload(std::span<const uint8_t> payload,
                                CountResponse* out) {
  PayloadReader r(payload);
  return r.U64(&out->count) && r.AtEnd();
}

Frame KnnRequest::ToFrame(uint32_t request_id) const {
  PayloadWriter w;
  w.Point(center);
  w.U32(k);
  return MakeFrame(FrameType::kKnn, request_id, std::move(w));
}

bool KnnRequest::FromPayload(std::span<const uint8_t> payload,
                             KnnRequest* out) {
  PayloadReader r(payload);
  return r.Point(&out->center) && r.U32(&out->k) && r.AtEnd();
}

Frame KnnResponse::ToFrame(uint32_t request_id) const {
  PayloadWriter w;
  w.U32(static_cast<uint32_t>(neighbors.size()));
  for (const index::Neighbor& n : neighbors) {
    w.U64(n.id);
    // The wire field is 64 bits but distances are computed in 128 (a
    // full-resolution 2-d distance can pass 2^64). Saturate: a clamped
    // distance still sorts after every representable one, and result
    // *order* is fixed server-side before encoding.
    constexpr index::Dist2 kMax64 = ~static_cast<uint64_t>(0);
    w.U64(n.distance2 > kMax64 ? ~static_cast<uint64_t>(0)
                               : static_cast<uint64_t>(n.distance2));
  }
  return MakeFrame(FrameType::kKnnResult, request_id, std::move(w));
}

bool KnnResponse::FromPayload(std::span<const uint8_t> payload,
                              KnnResponse* out) {
  PayloadReader r(payload);
  uint32_t n = 0;
  if (!r.U32(&n)) return false;
  if (static_cast<uint64_t>(n) * 16 > payload.size()) return false;
  out->neighbors.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t distance2 = 0;
    if (!r.U64(&out->neighbors[i].id) || !r.U64(&distance2)) {
      return false;
    }
    out->neighbors[i].distance2 = distance2;
  }
  return r.AtEnd();
}

Frame ExplainRequest::ToFrame(uint32_t request_id) const {
  PayloadWriter w;
  w.Box(box);
  w.U8(count);
  return MakeFrame(FrameType::kExplain, request_id, std::move(w));
}

bool ExplainRequest::FromPayload(std::span<const uint8_t> payload,
                                 ExplainRequest* out) {
  PayloadReader r(payload);
  return r.Box(&out->box) && r.U8(&out->count) && r.AtEnd();
}

Frame ExplainResponse::ToFrame(uint32_t request_id) const {
  PayloadWriter w;
  w.U32(static_cast<uint32_t>(text.size()));
  std::vector<uint8_t> bytes = w.Take();
  bytes.insert(bytes.end(), text.begin(), text.end());
  Frame f;
  f.type = FrameType::kExplainResult;
  f.request_id = request_id;
  f.payload = std::move(bytes);
  return f;
}

bool ExplainResponse::FromPayload(std::span<const uint8_t> payload,
                                  ExplainResponse* out) {
  PayloadReader r(payload);
  uint32_t n = 0;
  if (!r.U32(&n)) return false;
  if (static_cast<uint64_t>(n) + 4 != payload.size()) return false;
  out->text.assign(reinterpret_cast<const char*>(payload.data()) + 4, n);
  return true;
}

Frame ErrorResponse::ToFrame(uint32_t request_id) const {
  PayloadWriter w;
  w.U16(static_cast<uint16_t>(status));
  w.Str(message);
  return MakeFrame(FrameType::kError, request_id, std::move(w));
}

bool ErrorResponse::FromPayload(std::span<const uint8_t> payload,
                                ErrorResponse* out) {
  PayloadReader r(payload);
  uint16_t status = 0;
  if (!r.U16(&status) || !r.Str(&out->message) || !r.AtEnd()) return false;
  out->status = static_cast<Status>(status);
  return true;
}

bool EncodeResponse(const Frame& response, std::vector<uint8_t>* out) {
  if (response.payload.size() <= kMaxPayloadBytes) {
    EncodeFrame(response, out);
    return true;
  }
  ErrorResponse error;
  error.status = Status::kResponseTooLarge;
  error.message = std::to_string(response.payload.size()) +
                  "-byte answer exceeds the " +
                  std::to_string(kMaxPayloadBytes) + "-byte frame cap";
  EncodeFrame(error.ToFrame(response.request_id), out);
  return false;
}

}  // namespace probe::server
