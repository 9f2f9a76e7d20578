// Unit tests for src/comm: typed serialization, the socket wire format,
// Deadline semantics, point-to-point matching, nonblocking requests,
// collectives against serial references, and communicator split.
//
// Every transport-visible test is parameterized over BackendKind so the
// identical suite runs on both the in-process mailbox backend and the
// socket backend (loopback mode: every rank a thread of this process, but
// all traffic through real AF_UNIX stream sockets and the framed wire
// format). Multi-process socket runs are covered by the SpawnProcesses
// tests at the bottom.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>

#include "comm/communicator.hpp"
#include "comm/socket_io_testing.hpp"
#include "comm/wire.hpp"

namespace {

using namespace ltfb;
using namespace ltfb::comm;

// ---- serializer ------------------------------------------------------------

TEST(Serializer, TypedRoundTrip) {
  Serializer out;
  out.u8(7)
      .u32(0xdeadbeefu)
      .u64(0x0123456789abcdefull)
      .i64(-42)
      .f32(1.5f)
      .floats(std::vector<float>{3.0f, -0.5f})
      .ints(std::vector<std::int64_t>{-1, 2, 3})
      .str("ltfb");
  const Buffer buffer = out.take();

  Deserializer in(buffer);
  EXPECT_EQ(in.u8(), 7u);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(in.i64(), -42);
  EXPECT_FLOAT_EQ(in.f32(), 1.5f);
  EXPECT_EQ(in.floats(), (std::vector<float>{3.0f, -0.5f}));
  EXPECT_EQ(in.ints(), (std::vector<std::int64_t>{-1, 2, 3}));
  EXPECT_EQ(in.str(), "ltfb");
  EXPECT_TRUE(in.done());
  in.expect_end();
}

TEST(Serializer, PackFloatsRoundTrip) {
  const std::vector<float> values{1.5f, -2.25f, 0.0f};
  const Buffer buffer = Serializer::pack_floats(values);
  EXPECT_EQ(buffer.size(), 12u);
  EXPECT_EQ(Deserializer::unpack_floats(buffer), values);
}

TEST(Serializer, MisalignedFloatBufferThrows) {
  Buffer buffer(5);
  EXPECT_THROW(Deserializer::unpack_floats(buffer), FormatError);
}

TEST(Serializer, TruncatedFieldThrows) {
  Serializer out;
  out.u64(99);
  Buffer buffer = out.take();
  buffer.pop_back();  // u64 now 7 bytes
  Deserializer in(buffer);
  EXPECT_THROW(in.u64(), FormatError);
}

TEST(Serializer, OverlongCountPrefixThrows) {
  Serializer out;
  out.u32(1000);  // claims 1000 floats, provides none
  Deserializer in(out.buffer());
  EXPECT_THROW(in.floats(), FormatError);
}

TEST(Serializer, TrailingBytesFailExpectEnd) {
  Serializer out;
  out.u8(1).u8(2);
  Deserializer in(out.buffer());
  EXPECT_EQ(in.u8(), 1u);
  EXPECT_THROW(in.expect_end(), FormatError);
}

// ---- wire format -----------------------------------------------------------

TEST(Wire, FrameRoundTripThroughDecoder) {
  wire::Frame frame;
  frame.kind = wire::FrameKind::Message;
  frame.comm_id = 0x1234u;
  frame.tag = -7;
  frame.src = 3;
  frame.dst = 1;
  frame.seq = 41;
  frame.flow_id = 0x9999u;
  frame.payload = Buffer{10, 20, 30};
  const Buffer encoded = wire::encode_frame(frame);

  // Feed the decoder one byte at a time: frames must reassemble from
  // arbitrary stream fragmentation.
  wire::FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < encoded.size(); ++i) {
    decoder.feed(&encoded[i], 1);
    EXPECT_FALSE(decoder.next().has_value());
  }
  decoder.feed(&encoded.back(), 1);
  const auto decoded = decoder.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, wire::FrameKind::Message);
  EXPECT_EQ(decoded->comm_id, 0x1234u);
  EXPECT_EQ(decoded->tag, -7);
  EXPECT_EQ(decoded->src, 3);
  EXPECT_EQ(decoded->dst, 1);
  EXPECT_EQ(decoded->seq, 41u);
  EXPECT_EQ(decoded->flow_id, 0x9999u);
  EXPECT_EQ(decoded->payload, (Buffer{10, 20, 30}));
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(Wire, UnknownFrameKindThrows) {
  wire::Frame frame;
  frame.kind = wire::FrameKind::Message;
  Buffer encoded = wire::encode_frame(frame);
  encoded[4] = 250;  // the kind byte, right after the u32 length prefix
  wire::FrameDecoder decoder;
  decoder.feed(encoded.data(), encoded.size());
  EXPECT_THROW(decoder.next(), FormatError);
}

TEST(Wire, PayloadCountMismatchThrows) {
  wire::Frame frame;
  frame.payload = Buffer{1, 2, 3, 4};
  Buffer encoded = wire::encode_frame(frame);
  encoded.pop_back();  // truncate payload, leave the count prefix at 4
  // Patch the outer length prefix to match the truncated body so the
  // decoder hands the body to the frame parser.
  const std::uint32_t length =
      static_cast<std::uint32_t>(encoded.size() - sizeof(std::uint32_t));
  std::memcpy(encoded.data(), &length, sizeof(length));
  wire::FrameDecoder decoder;
  decoder.feed(encoded.data(), encoded.size());
  EXPECT_THROW(decoder.next(), FormatError);
}

TEST(Wire, OversizeLengthPrefixThrows) {
  Serializer out;
  out.u32(wire::kMaxFrameBytes + 1);
  const Buffer encoded = out.buffer();
  wire::FrameDecoder decoder;
  decoder.feed(encoded.data(), encoded.size());
  EXPECT_THROW(decoder.next(), FormatError);
}

// ---- deadline --------------------------------------------------------------

TEST(DeadlineOptions, NeverIsUnbounded) {
  EXPECT_FALSE(Deadline::never().bounded());
  EXPECT_FALSE(Deadline().bounded());
}

TEST(DeadlineOptions, MillisecondsConvertImplicitly) {
  const Deadline deadline = std::chrono::milliseconds(250);
  EXPECT_TRUE(deadline.bounded());
  EXPECT_EQ(deadline.budget(), std::chrono::milliseconds(250));
}

TEST(DeadlineOptions, NonPositiveBudgetThrows) {
  EXPECT_THROW(Deadline::after(std::chrono::milliseconds(0)), InvalidArgument);
  EXPECT_THROW(Deadline::after(std::chrono::milliseconds(-5)),
               InvalidArgument);
}

// ---- backend-parameterized communicator suite ------------------------------

std::string backend_param_name(
    const ::testing::TestParamInfo<BackendKind>& info) {
  return backend_name(info.param);
}

/// Runs the identical rank function on the in-process and socket (loopback)
/// transports; `Run` mirrors World::run but pins the backend under test.
class CommBackends : public ::testing::TestWithParam<BackendKind> {
 protected:
  void Run(int size, const std::function<void(Communicator&)>& fn) {
    World world(size, GetParam());
    for (const std::exception_ptr& error : world.run_ranks(fn)) {
      if (error) std::rethrow_exception(error);
    }
  }
};

TEST_P(CommBackends, InvalidSizeThrows) {
  EXPECT_THROW(World(0, GetParam()), InvalidArgument);
}

TEST_P(CommBackends, RankOutOfRangeThrows) {
  World world(2, GetParam());
  EXPECT_THROW(world.communicator(2), InvalidArgument);
  EXPECT_THROW(world.communicator(-1), InvalidArgument);
}

TEST_P(CommBackends, RunRethrowsRankException) {
  EXPECT_THROW(Run(2,
                   [](Communicator& comm) {
                     if (comm.rank() == 1) {
                       throw std::runtime_error("rank failure");
                     }
                     // rank 0 returns immediately; no collective
                   }),
               std::runtime_error);
}

TEST_P(CommBackends, SendRecvBasic) {
  Run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, std::vector<std::uint8_t>{1, 2, 3});
    } else {
      const Buffer buffer = comm.recv(0, 7);
      EXPECT_EQ(buffer, (Buffer{1, 2, 3}));
    }
  });
}

TEST_P(CommBackends, TagMatchingHoldsBackOtherTags) {
  Run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, std::vector<std::uint8_t>{5});
      comm.send(1, 6, std::vector<std::uint8_t>{6});
    } else {
      // Receive tag 6 first even though tag 5 arrived earlier.
      EXPECT_EQ(comm.recv(0, 6), (Buffer{6}));
      EXPECT_EQ(comm.recv(0, 5), (Buffer{5}));
    }
  });
}

TEST_P(CommBackends, FifoPerSourceAndTag) {
  Run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (std::uint8_t i = 0; i < 10; ++i) {
        comm.send(1, 3, std::vector<std::uint8_t>{i});
      }
    } else {
      for (std::uint8_t i = 0; i < 10; ++i) {
        EXPECT_EQ(comm.recv(0, 3), (Buffer{i}));
      }
    }
  });
}

TEST_P(CommBackends, AnySource) {
  Run(3, [](Communicator& comm) {
    if (comm.rank() != 0) {
      comm.send(0, 1, std::vector<std::uint8_t>{
                          static_cast<std::uint8_t>(comm.rank())});
    } else {
      std::set<int> sources;
      for (int i = 0; i < 2; ++i) {
        int source = -1;
        const Buffer buffer = comm.recv(kAnySource, 1, &source);
        EXPECT_EQ(buffer[0], static_cast<std::uint8_t>(source));
        sources.insert(source);
      }
      EXPECT_EQ(sources, (std::set<int>{1, 2}));
    }
  });
}

TEST_P(CommBackends, SendToSelf) {
  Run(1, [](Communicator& comm) {
    comm.send(0, 9, std::vector<std::uint8_t>{42});
    EXPECT_EQ(comm.recv(0, 9), (Buffer{42}));
  });
}

TEST_P(CommBackends, SendRecvExchange) {
  Run(2, [](Communicator& comm) {
    const Buffer mine{static_cast<std::uint8_t>(comm.rank() + 10)};
    const Buffer theirs = comm.sendrecv(1 - comm.rank(), 2, mine);
    EXPECT_EQ(theirs[0], static_cast<std::uint8_t>((1 - comm.rank()) + 10));
  });
}

TEST_P(CommBackends, FloatPayloadHelpers) {
  Run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<float> data{3.5f, -1.0f};
      comm.send(1, 0, std::span<const float>(data));
    } else {
      EXPECT_EQ(Deserializer::unpack_floats(comm.recv(0, 0)),
                (std::vector<float>{3.5f, -1.0f}));
    }
  });
}

TEST_P(CommBackends, IrecvCompletesAfterSend) {
  Run(2, [](Communicator& comm) {
    if (comm.rank() == 1) {
      Request request = comm.irecv(0, 4);
      comm.send(0, 8, std::vector<std::uint8_t>{});  // signal readiness
      request.wait();
      EXPECT_TRUE(request.test());
      EXPECT_EQ(comm.take_payload(request), (Buffer{9}));
    } else {
      (void)comm.recv(1, 8);
      comm.send(1, 4, std::vector<std::uint8_t>{9});
    }
  });
}

TEST_P(CommBackends, RequestTestDoesNotBlock) {
  Run(1, [](Communicator& comm) {
    Request request = comm.irecv(0, 11);
    EXPECT_FALSE(request.test());  // nothing sent yet
    comm.send(0, 11, std::vector<std::uint8_t>{1});
    EXPECT_TRUE(request.test());
  });
}

TEST_P(CommBackends, RequestDoubleWaitIsIdempotent) {
  Run(1, [](Communicator& comm) {
    Request request = comm.irecv(0, 3);
    comm.send(0, 3, std::vector<std::uint8_t>{42});
    request.wait();
    request.wait();  // already complete: returns immediately
    EXPECT_TRUE(request.test());
    EXPECT_EQ(comm.take_payload(request), (Buffer{42}));
  });
}

TEST_P(CommBackends, TimedOutWaitLeavesRequestReWaitable) {
  Run(2, [](Communicator& comm) {
    if (comm.rank() == 1) {
      Request request = comm.irecv(0, 4);
      // Nothing sent yet: the deadline fires, but the request is neither
      // consumed nor invalidated — a later wait can still complete it.
      EXPECT_THROW(request.wait(std::chrono::milliseconds(50)), TimeoutError);
      EXPECT_TRUE(request.valid());
      EXPECT_FALSE(request.test());
      comm.send(0, 8, std::vector<std::uint8_t>{});  // signal readiness
      request.wait(std::chrono::milliseconds(5000));
      EXPECT_TRUE(request.test());
      EXPECT_EQ(comm.take_payload(request), (Buffer{7}));
    } else {
      (void)comm.recv(1, 8);
      comm.send(1, 4, std::vector<std::uint8_t>{7});
    }
  });
}

TEST_P(CommBackends, TakePayloadBeforeCompletionThrows) {
  Run(1, [](Communicator& comm) {
    Request request = comm.irecv(0, 5);
    EXPECT_THROW(comm.take_payload(request), InvalidArgument);
    // The failed take must not have corrupted the pending receive.
    comm.send(0, 5, std::vector<std::uint8_t>{7});
    request.wait();
    EXPECT_EQ(comm.take_payload(request), (Buffer{7}));
  });
}

TEST_P(CommBackends, SecondTakePayloadReturnsEmpty) {
  Run(1, [](Communicator& comm) {
    Request request = comm.irecv(0, 6);
    comm.send(0, 6, std::vector<std::uint8_t>{1, 2});
    request.wait();
    EXPECT_EQ(comm.take_payload(request).size(), 2u);
    EXPECT_TRUE(request.test());  // still complete...
    EXPECT_TRUE(comm.take_payload(request).empty());  // ...but drained
  });
}

TEST_P(CommBackends, DestroyingIncompleteRequestLeavesMessageClaimable) {
  Run(1, [](Communicator& comm) {
    {
      Request abandoned = comm.irecv(0, 9);
      EXPECT_FALSE(abandoned.test());
    }  // destroyed incomplete: the pending receive is simply dropped
    comm.send(0, 9, std::vector<std::uint8_t>{5});
    // A fresh receive can still claim the message.
    EXPECT_EQ(comm.recv(0, 9), (Buffer{5}));
  });
}

TEST_P(CommBackends, DestroyingCompletedButUntakenRequestDropsPayload) {
  Run(1, [](Communicator& comm) {
    comm.send(0, 12, std::vector<std::uint8_t>{1});
    {
      Request request = comm.irecv(0, 12);
      request.wait();  // message consumed from the mailbox into the request
    }  // payload destroyed with the request
    Request probe = comm.irecv(0, 12);
    EXPECT_FALSE(probe.test());  // the message is gone, not re-queued
  });
}

TEST_P(CommBackends, SplitGroupsByColor) {
  Run(6, [](Communicator& comm) {
    const int color = comm.rank() % 2;
    Communicator sub = comm.split(color, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    // Sub-rank order follows the key (= old rank).
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // Collectives work within the sub-communicator.
    std::vector<float> values{static_cast<float>(comm.rank())};
    sub.allreduce(values, ReduceOp::Sum);
    const float expected = (color == 0) ? (0 + 2 + 4) : (1 + 3 + 5);
    EXPECT_FLOAT_EQ(values[0], expected);
  });
}

TEST_P(CommBackends, SubCommunicatorsAreIsolated) {
  Run(4, [](Communicator& comm) {
    Communicator sub = comm.split(comm.rank() / 2, comm.rank());
    // Same-tag traffic in different sub-communicators must not mix.
    const Buffer mine{static_cast<std::uint8_t>(comm.rank())};
    const Buffer theirs = sub.sendrecv(1 - sub.rank(), 0, mine);
    const int partner_world = (comm.rank() / 2) * 2 + (1 - comm.rank() % 2);
    EXPECT_EQ(theirs[0], static_cast<std::uint8_t>(partner_world));
  });
}

TEST_P(CommBackends, SplitWorldRankMapping) {
  Run(4, [](Communicator& comm) {
    Communicator sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(sub.world_rank_of(sub.rank()), comm.rank());
  });
}

TEST_P(CommBackends, NestedSplit) {
  Run(8, [](Communicator& comm) {
    Communicator half = comm.split(comm.rank() / 4, comm.rank());
    Communicator quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    std::vector<float> values{1.0f};
    quarter.allreduce(values, ReduceOp::Sum);
    EXPECT_FLOAT_EQ(values[0], 2.0f);
  });
}

TEST_P(CommBackends, ScatterWrongBufferSizeThrows) {
  Run(1, [](Communicator& comm) {
    std::vector<float> bad(3);  // needs 1 * chunk(2) = 2
    EXPECT_THROW((void)comm.scatter(0, bad, 2), InvalidArgument);
  });
}

TEST_P(CommBackends, GatherReduceComposeWithOtherCollectives) {
  Run(4, [](Communicator& comm) {
    for (int i = 0; i < 10; ++i) {
      std::vector<float> v{1.0f};
      comm.reduce(i % 4, v, ReduceOp::Sum);
      comm.barrier();
      const auto all = comm.gather((i + 1) % 4, std::vector<float>{2.0f});
      if (comm.rank() == (i + 1) % 4) {
        EXPECT_EQ(all.size(), 4u);
      }
      std::vector<float> sum{static_cast<float>(comm.rank())};
      comm.allreduce(sum, ReduceOp::Sum);
      EXPECT_FLOAT_EQ(sum[0], 6.0f);
    }
  });
}

TEST_P(CommBackends, ManyMixedOperations) {
  Run(4, [](Communicator& comm) {
    for (int i = 0; i < 30; ++i) {
      comm.barrier();
      std::vector<float> values(7, static_cast<float>(comm.rank()));
      comm.allreduce(values, ReduceOp::Sum);
      EXPECT_FLOAT_EQ(values[3], 6.0f);  // 0+1+2+3
      Buffer payload;
      if (comm.rank() == i % 4) {
        payload = Buffer{static_cast<std::uint8_t>(i)};
      }
      comm.broadcast(i % 4, payload);
      EXPECT_EQ(payload[0], static_cast<std::uint8_t>(i));
      const Buffer exchanged =
          comm.sendrecv(comm.size() - 1 - comm.rank(), 100 + i,
                        Buffer{static_cast<std::uint8_t>(comm.rank())});
      EXPECT_EQ(exchanged[0],
                static_cast<std::uint8_t>(comm.size() - 1 - comm.rank()));
    }
  });
}

// A receive first polls its mailbox for one spin window with the mailbox
// mutex released, then parks. The failure paths must hold in both halves:
// a peer that dies while the receiver polls is reported as soon as the
// receiver next looks (RankFailedError, well inside the deadline), and a
// deadline shorter than the window still ends in TimeoutError.
TEST_P(CommBackends, PeerDeathDuringSpinWindowFailsPromptly) {
  for (int trial = 0; trial < 40; ++trial) {
    World world(2, GetParam());
    std::atomic<long long> waited_us{-1};
    const std::vector<std::exception_ptr> errors =
        world.run_ranks([&waited_us](Communicator& comm) {
          if (comm.rank() == 0) {
            // The peer is about to wait on tag 2: die a few microseconds
            // into its spin window, without ever sending it.
            (void)comm.recv(1, 1, std::chrono::milliseconds(30'000));
            throw std::runtime_error("rank 0 dies");
          }
          comm.send(0, 1, Buffer{});
          const auto start = std::chrono::steady_clock::now();
          EXPECT_THROW((void)comm.recv(0, 2, std::chrono::milliseconds(30'000)),
                       RankFailedError);
          waited_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        });
    ASSERT_TRUE(errors[0] != nullptr);
    ASSERT_TRUE(errors[1] == nullptr) << "trial " << trial;
    // Prompt: detection never waits out the 30 s deadline.
    EXPECT_GE(waited_us.load(), 0);
    EXPECT_LT(waited_us.load(), 5'000'000) << "trial " << trial;
  }
}

TEST_P(CommBackends, ShortDeadlineOnSilentPeerStillTimesOut) {
  Run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      // Alive but silent until the receiver's deadline has passed.
      (void)comm.recv(1, 9, std::chrono::milliseconds(30'000));
      return;
    }
    for (int i = 0; i < 20; ++i) {
      const auto start = std::chrono::steady_clock::now();
      EXPECT_THROW((void)comm.recv(0, 8, std::chrono::milliseconds(1)),
                   TimeoutError);
      EXPECT_GE(std::chrono::steady_clock::now() - start,
                std::chrono::milliseconds(1));
    }
    comm.send(0, 9, Buffer{});
  });
}

INSTANTIATE_TEST_SUITE_P(Transports, CommBackends,
                         ::testing::Values(BackendKind::InProc,
                                           BackendKind::Socket),
                         backend_param_name);

TEST(Comm, InProcSendMovesPayload) {
  // Send takes its payload by value: a moved buffer travels through the
  // in-process mailbox as is, so the receiver gets the sender's storage.
  World world(2, BackendKind::InProc);
  std::atomic<const std::uint8_t*> sent{nullptr};
  const std::vector<std::exception_ptr> errors =
      world.run_ranks([&sent](Communicator& comm) {
        if (comm.rank() == 0) {
          Buffer payload(4096, 7);
          sent = payload.data();
          comm.send(1, 3, std::move(payload));
        } else {
          const Buffer got = comm.recv(0, 3);
          ASSERT_EQ(got.size(), 4096u);
          EXPECT_EQ(got.data(), sent.load());
        }
      });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

#if LTFB_ASSERT_ENABLED
TEST(Request, ConcurrentHandleUseFailsFast) {
  // The single-thread contract check: while one thread is blocked inside
  // recv() on a handle, a second thread entering any comm call on the SAME
  // handle must fail fast with ltfb::Error instead of racing.
  World world(2);
  Communicator comm0 = world.communicator(0);
  Communicator comm1 = world.communicator(1);
  std::thread receiver([&comm0] {
    // The check fires in whichever thread enters second, so the receiver's
    // own recv() can be the call that fails fast while a probe is inside
    // send(). Retry until the receiver is the one parked inside recv().
    for (;;) {
      try {
        const Buffer buffer = comm0.recv(1, 77);  // blocks until released
        EXPECT_EQ(buffer, (Buffer{1}));
        return;
      } catch (const Error&) {
        std::this_thread::yield();
      }
    }
  });
  // Once the receiver is parked inside recv() it holds the use stamp until
  // the matching send arrives, so eventually our probe must throw.
  bool threw = false;
  for (int i = 0; i < 200000 && !threw; ++i) {
    try {
      comm0.send(0, 1, Buffer{});
      // Accepted: receiver was not inside recv yet. Drain our own probe
      // message later is unnecessary — tag 1 never matches tag 77.
      std::this_thread::yield();
    } catch (const Error&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
  comm1.send(0, 77, Buffer{1});  // release the receiver
  receiver.join();
}
#endif  // LTFB_ASSERT_ENABLED

TEST(Request, InvalidHandleThrows) {
  Request request;
  EXPECT_FALSE(request.valid());
  EXPECT_THROW(request.test(), InvalidArgument);
  EXPECT_THROW(request.wait(), InvalidArgument);
}

// ---- collectives across sizes and transports -------------------------------

std::string collective_param_name(
    const ::testing::TestParamInfo<std::tuple<BackendKind, int>>& info) {
  return std::string(backend_name(std::get<0>(info.param))) +
         std::to_string(std::get<1>(info.param));
}

class CollectiveSizes
    : public ::testing::TestWithParam<std::tuple<BackendKind, int>> {
 protected:
  int Size() const { return std::get<1>(GetParam()); }

  void Run(const std::function<void(Communicator&)>& fn) {
    World world(Size(), std::get<0>(GetParam()));
    for (const std::exception_ptr& error : world.run_ranks(fn)) {
      if (error) std::rethrow_exception(error);
    }
  }
};

TEST_P(CollectiveSizes, Barrier) {
  const int n = Size();
  std::atomic<int> arrived{0};
  Run([&](Communicator& comm) {
    ++arrived;
    comm.barrier();
    // After the barrier every rank must have arrived.
    EXPECT_EQ(arrived.load(), n);
    comm.barrier();
  });
}

TEST_P(CollectiveSizes, BroadcastFromEveryRoot) {
  const int n = Size();
  Run([&](Communicator& comm) {
    for (int root = 0; root < n; ++root) {
      Buffer payload;
      if (comm.rank() == root) {
        payload = Buffer{static_cast<std::uint8_t>(root + 1), 7};
      }
      comm.broadcast(root, payload);
      ASSERT_EQ(payload.size(), 2u);
      EXPECT_EQ(payload[0], static_cast<std::uint8_t>(root + 1));
    }
  });
}

TEST_P(CollectiveSizes, AllreduceSum) {
  const int n = Size();
  // 10 elements (not divisible by most n) exercises uneven ring chunks.
  Run([&](Communicator& comm) {
    std::vector<float> values(10);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<float>(comm.rank() + 1) *
                  static_cast<float>(i + 1);
    }
    comm.allreduce(values, ReduceOp::Sum);
    const float rank_sum = static_cast<float>(n * (n + 1)) / 2.0f;
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_FLOAT_EQ(values[i], rank_sum * static_cast<float>(i + 1));
    }
  });
}

TEST_P(CollectiveSizes, AllreduceMaxMin) {
  const int n = Size();
  Run([&](Communicator& comm) {
    std::vector<float> values{static_cast<float>(comm.rank()),
                              static_cast<float>(-comm.rank())};
    std::vector<float> mins = values;
    comm.allreduce(values, ReduceOp::Max);
    comm.allreduce(mins, ReduceOp::Min);
    EXPECT_FLOAT_EQ(values[0], static_cast<float>(n - 1));
    EXPECT_FLOAT_EQ(mins[1], static_cast<float>(-(n - 1)));
  });
}

TEST_P(CollectiveSizes, AllreduceSmallerThanRanks) {
  const int n = Size();
  Run([&](Communicator& comm) {
    std::vector<float> values{1.0f};  // fewer elements than ranks
    comm.allreduce(values, ReduceOp::Sum);
    EXPECT_FLOAT_EQ(values[0], static_cast<float>(n));
  });
}

TEST_P(CollectiveSizes, Allgather) {
  const int n = Size();
  Run([&](Communicator& comm) {
    const std::vector<float> mine{static_cast<float>(comm.rank()),
                                  static_cast<float>(comm.rank() * 10)};
    const std::vector<float> all = comm.allgather(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * n));
    for (int r = 0; r < n; ++r) {
      EXPECT_FLOAT_EQ(all[2 * r], static_cast<float>(r));
      EXPECT_FLOAT_EQ(all[2 * r + 1], static_cast<float>(r * 10));
    }
  });
}

TEST_P(CollectiveSizes, BackToBackCollectivesDoNotCrossMatch) {
  const int n = Size();
  Run([&](Communicator& comm) {
    for (int iteration = 0; iteration < 20; ++iteration) {
      std::vector<float> values{static_cast<float>(comm.rank() + iteration)};
      comm.allreduce(values, ReduceOp::Sum);
      float expected = 0.0f;
      for (int r = 0; r < n; ++r) {
        expected += static_cast<float>(r + iteration);
      }
      ASSERT_FLOAT_EQ(values[0], expected) << "iteration " << iteration;
    }
  });
}

TEST_P(CollectiveSizes, ReduceToEveryRoot) {
  const int n = Size();
  Run([&](Communicator& comm) {
    for (int root = 0; root < n; ++root) {
      std::vector<float> values{static_cast<float>(comm.rank() + 1), 2.0f};
      const std::vector<float> saved = values;
      comm.reduce(root, values, ReduceOp::Sum);
      if (comm.rank() == root) {
        EXPECT_FLOAT_EQ(values[0], static_cast<float>(n * (n + 1)) / 2.0f);
        EXPECT_FLOAT_EQ(values[1], 2.0f * static_cast<float>(n));
      } else {
        EXPECT_EQ(values, saved);  // non-root buffers untouched
      }
    }
  });
}

TEST_P(CollectiveSizes, ReduceMax) {
  const int n = Size();
  Run([&](Communicator& comm) {
    std::vector<float> values{static_cast<float>(comm.rank())};
    comm.reduce(0, values, ReduceOp::Max);
    if (comm.rank() == 0) {
      EXPECT_FLOAT_EQ(values[0], static_cast<float>(n - 1));
    }
  });
}

TEST_P(CollectiveSizes, GatherAtEveryRoot) {
  const int n = Size();
  Run([&](Communicator& comm) {
    for (int root = 0; root < n; ++root) {
      const std::vector<float> mine{static_cast<float>(comm.rank() * 2),
                                    static_cast<float>(comm.rank() * 2 + 1)};
      const std::vector<float> all = comm.gather(root, mine);
      if (comm.rank() == root) {
        ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * n));
        for (int r = 0; r < n; ++r) {
          EXPECT_FLOAT_EQ(all[2 * r], static_cast<float>(r * 2));
          EXPECT_FLOAT_EQ(all[2 * r + 1], static_cast<float>(r * 2 + 1));
        }
      } else {
        EXPECT_TRUE(all.empty());
      }
    }
  });
}

TEST_P(CollectiveSizes, ScatterFromEveryRoot) {
  const int n = Size();
  Run([&](Communicator& comm) {
    for (int root = 0; root < n; ++root) {
      std::vector<float> send;
      if (comm.rank() == root) {
        for (int r = 0; r < n; ++r) {
          send.push_back(static_cast<float>(r * 10));
          send.push_back(static_cast<float>(r * 10 + 1));
        }
      }
      const std::vector<float> mine = comm.scatter(root, send, 2);
      ASSERT_EQ(mine.size(), 2u);
      EXPECT_FLOAT_EQ(mine[0], static_cast<float>(comm.rank() * 10));
      EXPECT_FLOAT_EQ(mine[1], static_cast<float>(comm.rank() * 10 + 1));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CollectiveSizes,
    ::testing::Combine(::testing::Values(BackendKind::InProc,
                                         BackendKind::Socket),
                       ::testing::Values(1, 2, 3, 4, 5, 8)),
    collective_param_name);

// ---- socket partial-I/O hardening ------------------------------------------

// The syscall shim (comm/socket_io_testing.hpp) lets these tests drive the
// backend's write_all/read_loop through the worst case the kernel can
// legally produce: every call either fails with a retryable errno or moves
// only a few bytes. Payload integrity end-to-end proves both loops resume
// correctly instead of dropping or duplicating bytes.

std::atomic<int> g_chaotic_send_calls{0};
std::atomic<int> g_chaotic_recv_calls{0};

ssize_t chaotic_send(int fd, const void* buf, std::size_t len, int flags) {
  switch (g_chaotic_send_calls.fetch_add(1) % 3) {
    case 0:
      errno = EINTR;
      return -1;
    case 1:
      errno = EAGAIN;
      return -1;
    default:
      return ::send(fd, buf, std::min<std::size_t>(len, 7), flags);
  }
}

ssize_t chaotic_recv(int fd, void* buf, std::size_t len, int flags) {
  switch (g_chaotic_recv_calls.fetch_add(1) % 3) {
    case 0:
      errno = EINTR;
      return -1;
    case 1:
      errno = EWOULDBLOCK;
      return -1;
    default:
      return ::recv(fd, buf, std::min<std::size_t>(len, 7), flags);
  }
}

/// Clears the process-global hooks even when an assertion throws.
struct SocketHookGuard {
  SocketHookGuard(ltfb::comm::testing::SocketSendHook send_hook,
                  ltfb::comm::testing::SocketRecvHook recv_hook) {
    ltfb::comm::testing::set_socket_io_hooks(send_hook, recv_hook);
  }
  ~SocketHookGuard() {
    ltfb::comm::testing::set_socket_io_hooks(nullptr, nullptr);
  }
};

TEST(SocketPartialIo, PayloadSurvivesInterruptedAndShortSyscalls) {
  g_chaotic_send_calls = 0;
  g_chaotic_recv_calls = 0;
  const SocketHookGuard guard(&chaotic_send, &chaotic_recv);

  World world(2, BackendKind::Socket);
  for (const std::exception_ptr& error :
       world.run_ranks([](Communicator& comm) {
         // Big enough that a single frame needs many resumed 7-byte
         // writes, patterned so any dropped/duplicated/reordered byte
         // breaks the comparison.
         Buffer payload(4096);
         for (std::size_t i = 0; i < payload.size(); ++i) {
           payload[i] = static_cast<std::uint8_t>(
               (i * 131 + static_cast<std::size_t>(comm.rank()) * 17) % 251);
         }
         const Buffer got =
             comm.sendrecv(1 - comm.rank(), /*tag=*/5, payload,
                           std::chrono::milliseconds(60'000));
         ASSERT_EQ(got.size(), payload.size());
         for (std::size_t i = 0; i < got.size(); ++i) {
           const auto want = static_cast<std::uint8_t>(
               (i * 131 + static_cast<std::size_t>(1 - comm.rank()) * 17) %
               251);
           ASSERT_EQ(got[i], want) << "byte " << i;
         }
       })) {
    if (error) std::rethrow_exception(error);
  }
  // The schedule guarantees two injected failures per completed transfer,
  // so a meaningful number of retries must have happened on both paths.
  EXPECT_GT(g_chaotic_send_calls.load(), 100);
  EXPECT_GT(g_chaotic_recv_calls.load(), 100);
}

TEST(SocketPartialIo, HooksClearBackToRealSyscalls) {
  {
    const SocketHookGuard guard(&chaotic_send, &chaotic_recv);
  }
  // With hooks cleared the transport must behave exactly as stock.
  const int before = g_chaotic_send_calls.load();
  World world(2, BackendKind::Socket);
  for (const std::exception_ptr& error :
       world.run_ranks([](Communicator& comm) {
         const Buffer got = comm.sendrecv(1 - comm.rank(), /*tag=*/6,
                                          Buffer{0x5a, 0xa5},
                                          std::chrono::milliseconds(60'000));
         ASSERT_EQ(got, (Buffer{0x5a, 0xa5}));
       })) {
    if (error) std::rethrow_exception(error);
  }
  EXPECT_EQ(g_chaotic_send_calls.load(), before);
}

// ---- multi-process socket transport ----------------------------------------

TEST(SpawnProcesses, FourRanksExchangeAndAgree) {
  const auto statuses = World::spawn_processes(4, [](Communicator& comm) {
    // Pairwise weight-style exchange (the LTFB tournament shape)...
    const int partner = comm.size() - 1 - comm.rank();
    const std::vector<float> own{static_cast<float>(comm.rank()), 2.0f};
    const Buffer raw =
        comm.sendrecv(partner, 5, Serializer::pack_floats(own),
                      std::chrono::milliseconds(30'000));
    const std::vector<float> theirs = Deserializer::unpack_floats(raw);
    if (theirs.size() != 2 ||
        theirs[0] != static_cast<float>(partner)) {
      throw std::runtime_error("exchange mismatch");
    }
    // ...then a collective across all four processes.
    std::vector<float> values{1.0f};
    comm.allreduce(values, ReduceOp::Sum);
    if (values[0] != 4.0f) throw std::runtime_error("allreduce mismatch");
    comm.barrier();
  });
  ASSERT_EQ(statuses.size(), 4u);
  for (const auto& status : statuses) {
    EXPECT_EQ(status.code, World::kExitClean) << "rank " << status.rank;
  }
}

TEST(SpawnProcesses, PeerDeathMapsToExitCodes) {
  // Rank 1 dies before sending; rank 0's recv must observe the failure
  // (EOF without a goodbye on the socket) and exit with the rank-failed
  // code, demonstrating cross-process connection supervision.
  const auto statuses = World::spawn_processes(2, [](Communicator& comm) {
    if (comm.rank() == 1) throw std::runtime_error("simulated crash");
    (void)comm.recv(1, 3, std::chrono::milliseconds(30'000));
  });
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].code, World::kExitRankFailed);
  EXPECT_EQ(statuses[1].code, World::kExitError);
  EXPECT_FALSE(statuses[1].clean());
}

TEST(SpawnProcesses, ShrinkAgreesAcrossProcesses) {
  // Three processes rendezvous after one departs cleanly: the survivors
  // agree on the shrunken group and keep communicating on it.
  const auto statuses = World::spawn_processes(3, [](Communicator& comm) {
    if (comm.rank() == 2) return;  // departs cleanly (goodbye frames)
    Communicator survivors = comm.shrink(std::chrono::milliseconds(30'000));
    if (survivors.size() != 2) throw std::runtime_error("wrong survivors");
    std::vector<float> values{static_cast<float>(comm.rank())};
    survivors.allreduce(values, ReduceOp::Sum);
    if (values[0] != 1.0f) throw std::runtime_error("post-shrink allreduce");
  });
  for (const auto& status : statuses) {
    EXPECT_EQ(status.code, World::kExitClean) << "rank " << status.rank;
  }
}

}  // namespace
