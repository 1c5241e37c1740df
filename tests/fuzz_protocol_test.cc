#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "geometry/point.h"
#include "server/protocol.h"
#include "util/rng.h"

// Seeded fuzz driver for the wire codec. The decoder's contract is that it
// never crashes and never silently yields a wrong frame, whatever bytes
// arrive: truncations are kNeedMore, corruptions are classified Statuses,
// and a single flipped bit can never pass the CRC. The ASan/UBSan CI jobs
// run this test to hold the "no way to read out of bounds" claim of
// protocol.h under hostile input.

namespace probe::server {
namespace {

using probe::util::Rng;

std::vector<uint8_t> RandomPayload(Rng& rng, size_t max_len) {
  std::vector<uint8_t> bytes(rng.NextBelow(max_len + 1));
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

Frame RandomFrame(Rng& rng) {
  static constexpr FrameType kTypes[] = {
      FrameType::kHello,       FrameType::kRange,      FrameType::kBox,
      FrameType::kCount,       FrameType::kKnn,        FrameType::kExplain,
      FrameType::kPing,        FrameType::kGoodbye,    FrameType::kHelloOk,
      FrameType::kRangeResult, FrameType::kBoxResult,  FrameType::kCountResult,
      FrameType::kKnnResult,   FrameType::kExplainResult, FrameType::kPong,
      FrameType::kGoodbyeOk,   FrameType::kError,
  };
  Frame f;
  f.type = kTypes[rng.NextBelow(std::size(kTypes))];
  f.request_id = static_cast<uint32_t>(rng.Next());
  f.payload = RandomPayload(rng, 512);
  return f;
}

TEST(FuzzProtocolTest, RandomFramesRoundTrip) {
  Rng rng(0xF7A3E001);
  for (int iter = 0; iter < 2000; ++iter) {
    const Frame sent = RandomFrame(rng);
    std::vector<uint8_t> wire;
    EncodeFrame(sent, &wire);

    Frame got;
    size_t consumed = 0;
    Status error = Status::kOk;
    ASSERT_EQ(DecodeFrame(wire, &got, &consumed, &error), DecodeResult::kFrame);
    EXPECT_EQ(error, Status::kOk);
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(got.type, sent.type);
    EXPECT_EQ(got.request_id, sent.request_id);
    EXPECT_EQ(got.payload, sent.payload);
  }
}

TEST(FuzzProtocolTest, ConcatenatedFramesDecodeInOrder) {
  Rng rng(0xF7A3E002);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<Frame> sent;
    std::vector<uint8_t> wire;
    const size_t count = 1 + rng.NextBelow(8);
    for (size_t i = 0; i < count; ++i) {
      sent.push_back(RandomFrame(rng));
      EncodeFrame(sent.back(), &wire);
    }
    size_t off = 0;
    for (const Frame& expect : sent) {
      Frame got;
      size_t consumed = 0;
      Status error = Status::kOk;
      ASSERT_EQ(DecodeFrame(std::span<const uint8_t>(wire.data() + off,
                                                     wire.size() - off),
                            &got, &consumed, &error),
                DecodeResult::kFrame);
      EXPECT_EQ(error, Status::kOk);
      EXPECT_EQ(got.request_id, expect.request_id);
      EXPECT_EQ(got.payload, expect.payload);
      off += consumed;
    }
    EXPECT_EQ(off, wire.size());
  }
}

TEST(FuzzProtocolTest, EveryTruncationAsksForMoreBytes) {
  Rng rng(0xF7A3E003);
  for (int iter = 0; iter < 200; ++iter) {
    const Frame sent = RandomFrame(rng);
    std::vector<uint8_t> wire;
    EncodeFrame(sent, &wire);
    // Check every prefix when the frame is small, sampled prefixes when not.
    for (size_t len = 0; len < wire.size();
         len += (wire.size() > 128 ? 1 + rng.NextBelow(17) : 1)) {
      Frame got;
      size_t consumed = 1234;
      Status error = Status::kOk;
      EXPECT_EQ(DecodeFrame(std::span<const uint8_t>(wire.data(), len), &got,
                            &consumed, &error),
                DecodeResult::kNeedMore)
          << "prefix " << len << " of " << wire.size();
      EXPECT_EQ(consumed, 0u);
    }
  }
}

TEST(FuzzProtocolTest, SingleBitFlipNeverYieldsACleanFrame) {
  Rng rng(0xF7A3E004);
  for (int iter = 0; iter < 500; ++iter) {
    Frame sent = RandomFrame(rng);
    sent.payload = RandomPayload(rng, 64);
    std::vector<uint8_t> wire;
    EncodeFrame(sent, &wire);

    std::vector<uint8_t> flipped = wire;
    const size_t bit = rng.NextBelow(flipped.size() * 8);
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));

    Frame got;
    size_t consumed = 0;
    Status error = Status::kOk;
    const DecodeResult r = DecodeFrame(flipped, &got, &consumed, &error);
    // CRC32 detects every single-bit error; a flip that grows payload_len
    // may legitimately park the decoder at kNeedMore. What can never
    // happen is a clean (error-free) frame.
    EXPECT_FALSE(r == DecodeResult::kFrame && error == Status::kOk)
        << "bit " << bit << " flipped undetected";
  }
}

TEST(FuzzProtocolTest, OversizedLengthIsRejectedBeforeBuffering) {
  Rng rng(0xF7A3E005);
  for (int iter = 0; iter < 100; ++iter) {
    Frame sent = RandomFrame(rng);
    std::vector<uint8_t> wire;
    EncodeFrame(sent, &wire);
    // Overwrite payload_len (bytes 8..11) with a hostile length.
    const uint32_t hostile =
        kMaxPayloadBytes + 1 +
        static_cast<uint32_t>(rng.NextBelow(0x7FFFFFFF - kMaxPayloadBytes));
    for (int i = 0; i < 4; ++i) {
      wire[8 + static_cast<size_t>(i)] = static_cast<uint8_t>(hostile >> (8 * i));
    }
    Frame got;
    size_t consumed = 0;
    Status error = Status::kOk;
    EXPECT_EQ(DecodeFrame(wire, &got, &consumed, &error), DecodeResult::kError);
    EXPECT_EQ(error, Status::kOversized);
  }
}

// The encoder side of the cap: an answer too large for a frame goes out
// as an explicit kResponseTooLarge error for the same request, never as a
// frame the client's decoder would refuse as oversized. An answer exactly
// at the cap still goes out whole.
TEST(FuzzProtocolTest, OversizedAnswerIsRefusedExplicitly) {
  RangeResponse range;
  range.ids.resize(kMaxPayloadBytes / 8);  // plus its count: past the cap
  std::vector<uint8_t> wire;
  EXPECT_FALSE(EncodeResponse(range.ToFrame(77), &wire));
  Frame got;
  size_t consumed = 0;
  Status error = Status::kOk;
  ASSERT_EQ(DecodeFrame(wire, &got, &consumed, &error), DecodeResult::kFrame);
  EXPECT_EQ(error, Status::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(got.type, FrameType::kError);
  EXPECT_EQ(got.request_id, 77u);
  ErrorResponse refused;
  ASSERT_TRUE(ErrorResponse::FromPayload(got.payload, &refused));
  EXPECT_EQ(refused.status, Status::kResponseTooLarge);
  EXPECT_STREQ(StatusName(refused.status), "response-too-large");

  Frame at_cap;
  at_cap.type = FrameType::kRangeResult;
  at_cap.request_id = 78;
  at_cap.payload.assign(kMaxPayloadBytes, 0);
  wire.clear();
  EXPECT_TRUE(EncodeResponse(at_cap, &wire));
  ASSERT_EQ(DecodeFrame(wire, &got, &consumed, &error), DecodeResult::kFrame);
  EXPECT_EQ(got.type, FrameType::kRangeResult);
  EXPECT_EQ(got.payload.size(), kMaxPayloadBytes);
}

TEST(FuzzProtocolTest, RandomGarbageNeverCrashes) {
  Rng rng(0xF7A3E006);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> garbage = RandomPayload(rng, 256);
    // Bias some iterations toward the magic so deeper header paths run.
    if (iter % 3 == 0 && garbage.size() >= 2) {
      garbage[0] = kMagic0;
      garbage[1] = kMagic1;
      if (iter % 6 == 0 && garbage.size() >= 3) garbage[2] = kProtocolVersion;
    }
    Frame got;
    size_t consumed = 0;
    Status error = Status::kOk;
    const DecodeResult r = DecodeFrame(garbage, &got, &consumed, &error);
    if (r == DecodeResult::kError) {
      EXPECT_NE(error, Status::kOk);
    }
    // 16 random CRC-consistent bytes are astronomically unlikely, but a
    // kFrame result is not *wrong* if the bytes happen to hold one.
  }
}

TEST(FuzzProtocolTest, HostileBytesToEveryParserNeverCrash) {
  Rng rng(0xF7A3E007);
  for (int iter = 0; iter < 3000; ++iter) {
    const std::vector<uint8_t> bytes = RandomPayload(rng, 128);
    const std::span<const uint8_t> payload(bytes);
    {
      HelloRequest m;
      HelloRequest::FromPayload(payload, &m);
    }
    {
      HelloResponse m;
      HelloResponse::FromPayload(payload, &m);
    }
    {
      RangeRequest m;
      RangeRequest::FromPayload(payload, &m);
    }
    {
      RangeResponse m;
      RangeResponse::FromPayload(payload, &m);
    }
    {
      BoxRequest m;
      BoxRequest::FromPayload(payload, &m);
    }
    {
      BoxResponse m;
      BoxResponse::FromPayload(payload, &m);
    }
    {
      CountRequest m;
      CountRequest::FromPayload(payload, &m);
    }
    {
      CountResponse m;
      CountResponse::FromPayload(payload, &m);
    }
    {
      KnnRequest m;
      KnnRequest::FromPayload(payload, &m);
    }
    {
      KnnResponse m;
      KnnResponse::FromPayload(payload, &m);
    }
    {
      ExplainRequest m;
      ExplainRequest::FromPayload(payload, &m);
    }
    {
      ExplainResponse m;
      ExplainResponse::FromPayload(payload, &m);
    }
    {
      ErrorResponse m;
      ErrorResponse::FromPayload(payload, &m);
    }
  }
}

TEST(FuzzProtocolTest, TypedMessagesRoundTripThroughFrames) {
  Rng rng(0xF7A3E008);
  for (int iter = 0; iter < 300; ++iter) {
    const uint32_t id = static_cast<uint32_t>(rng.Next());
    {
      RangeResponse sent;
      sent.ids.resize(rng.NextBelow(64));
      for (auto& v : sent.ids) v = rng.Next();
      RangeResponse got;
      ASSERT_TRUE(RangeResponse::FromPayload(sent.ToFrame(id).payload, &got));
      EXPECT_EQ(got.ids, sent.ids);
    }
    {
      const int dims = 2 + static_cast<int>(rng.NextBelow(3));
      BoxResponse sent;
      sent.rows.resize(rng.NextBelow(32));
      for (auto& row : sent.rows) {
        row.id = rng.Next();
        uint32_t coords[8];
        for (int d = 0; d < dims; ++d) {
          coords[d] = static_cast<uint32_t>(rng.NextBelow(256));
        }
        row.point = geometry::GridPoint(
            std::span<const uint32_t>(coords, static_cast<size_t>(dims)));
      }
      BoxResponse got;
      ASSERT_TRUE(BoxResponse::FromPayload(sent.ToFrame(id).payload, &got));
      ASSERT_EQ(got.rows.size(), sent.rows.size());
      for (size_t i = 0; i < got.rows.size(); ++i) {
        EXPECT_EQ(got.rows[i].id, sent.rows[i].id);
        EXPECT_EQ(got.rows[i].point, sent.rows[i].point);
      }
    }
    {
      KnnResponse sent;
      sent.neighbors.resize(rng.NextBelow(32));
      for (auto& n : sent.neighbors) {
        n.id = rng.Next();
        n.distance2 = rng.Next();
      }
      KnnResponse got;
      ASSERT_TRUE(KnnResponse::FromPayload(sent.ToFrame(id).payload, &got));
      ASSERT_EQ(got.neighbors.size(), sent.neighbors.size());
      for (size_t i = 0; i < got.neighbors.size(); ++i) {
        EXPECT_EQ(got.neighbors[i].id, sent.neighbors[i].id);
        EXPECT_EQ(got.neighbors[i].distance2, sent.neighbors[i].distance2);
      }
    }
    {
      ExplainResponse sent;
      sent.text.assign(rng.NextBelow(200), 'x');
      ExplainResponse got;
      ASSERT_TRUE(ExplainResponse::FromPayload(sent.ToFrame(id).payload, &got));
      EXPECT_EQ(got.text, sent.text);
    }
    {
      ErrorResponse sent;
      sent.status = Status::kBusy;
      sent.message.assign(rng.NextBelow(100), 'e');
      ErrorResponse got;
      ASSERT_TRUE(ErrorResponse::FromPayload(sent.ToFrame(id).payload, &got));
      EXPECT_EQ(got.status, sent.status);
      EXPECT_EQ(got.message, sent.message);
    }
  }
}

TEST(FuzzProtocolTest, TruncatedTypedPayloadsFailCleanly) {
  Rng rng(0xF7A3E009);
  for (int iter = 0; iter < 100; ++iter) {
    HelloRequest hello;
    hello.max_element_depth = static_cast<int32_t>(rng.Next());
    hello.client_name.assign(1 + rng.NextBelow(32), 'c');
    const std::vector<uint8_t> payload = hello.ToFrame(0).payload;
    for (size_t len = 0; len < payload.size(); ++len) {
      HelloRequest out;
      EXPECT_FALSE(HelloRequest::FromPayload(
          std::span<const uint8_t>(payload.data(), len), &out))
          << "prefix " << len;
    }

    CountResponse count;
    count.count = rng.Next();
    const std::vector<uint8_t> cp = count.ToFrame(0).payload;
    for (size_t len = 0; len < cp.size(); ++len) {
      CountResponse out;
      EXPECT_FALSE(CountResponse::FromPayload(
          std::span<const uint8_t>(cp.data(), len), &out));
    }
  }
}

TEST(FuzzProtocolTest, MalformedBoxesAreRejectedNotAsserted) {
  // lo > hi must fail the parse (GridBox's constructor would assert).
  PayloadWriter w;
  w.U8(2);
  w.U32(10);
  w.U32(5);  // lo > hi in dimension 0
  w.U32(0);
  w.U32(1);
  const std::vector<uint8_t> bytes = w.Take();
  RangeRequest out;
  EXPECT_FALSE(RangeRequest::FromPayload(bytes, &out));

  // dims outside [1, kMaxDims] must fail, not index out of bounds.
  for (const uint8_t dims : {uint8_t{0}, uint8_t{9}, uint8_t{255}}) {
    PayloadWriter bad;
    bad.U8(dims);
    for (int i = 0; i < 16; ++i) bad.U32(0);
    RangeRequest reject;
    EXPECT_FALSE(RangeRequest::FromPayload(bad.Take(), &reject));
  }
}

}  // namespace
}  // namespace probe::server
