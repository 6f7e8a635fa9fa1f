// Loopback end-to-end coverage of the RF query daemon: the full
// start → query → hot-swap → query → shutdown lifecycle, protocol error
// handling over a real socket, and the connection-survival contract for
// malformed frames.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/serialize.hpp"
#include "phylo/newick.hpp"
#include "serve/client.hpp"
#include "support/test_util.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bfhrf::serve {
namespace {

class RfServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    taxa_ = phylo::TaxonSet::make_numbered(20);
    util::Rng rng(0x5E12FE);
    reference_ = test::random_collection(taxa_, 15, 3, rng);
    alternate_ = test::random_collection(taxa_, 9, 5, rng);
    queries_ = test::random_collection(taxa_, 6, 7, rng);
    for (const phylo::Tree& q : queries_) {
      query_text_.push_back(phylo::write_newick(q));
    }
    snapshot_ = core::IndexSnapshot::build(taxa_, reference_);
  }

  /// Publish the fixture snapshot, start on an ephemeral loopback port.
  void start(ServeOptions opts = {}) {
    server_ = std::make_unique<RfServer>(opts);
    server_->publish(snapshot_);
    server_->start();
  }

  [[nodiscard]] RfClient connect() const {
    return {"127.0.0.1", server_->port()};
  }

  phylo::TaxonSetPtr taxa_;
  std::vector<phylo::Tree> reference_;
  std::vector<phylo::Tree> alternate_;
  std::vector<phylo::Tree> queries_;
  std::vector<std::string> query_text_;
  std::shared_ptr<const core::IndexSnapshot> snapshot_;
  std::unique_ptr<RfServer> server_;
};

TEST_F(RfServerTest, StartWithoutSnapshotThrows) {
  RfServer server;
  EXPECT_THROW(server.start(), InvalidArgument);
}

TEST_F(RfServerTest, PingStatsQueryRoundtrip) {
  start();
  RfClient client = connect();
  client.ping();

  const StatsResult stats = client.stats();
  EXPECT_EQ(stats.snapshot_version, 1u);
  EXPECT_EQ(stats.taxa, taxa_->size());
  EXPECT_EQ(stats.reference_trees, reference_.size());
  EXPECT_GT(stats.unique_bipartitions, 0u);

  const QueryResult result = client.query(query_text_);
  EXPECT_EQ(result.snapshot_version, 1u);
  ASSERT_EQ(result.avg_rf.size(), queries_.size());
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    // The wire answer must be BIT-identical to a direct in-process query.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.avg_rf[i]),
              std::bit_cast<std::uint64_t>(snapshot_->query_one(queries_[i])))
        << "query " << i;
  }
}

TEST_F(RfServerTest, PublishOpcodeHotSwapsUnderALiveConnection) {
  start();
  RfClient client = connect();

  const QueryResult before = client.query(query_text_);
  EXPECT_EQ(before.snapshot_version, 1u);

  // Build an index over a DIFFERENT collection (same namespace), save it,
  // and swap the daemon onto it through the wire protocol.
  core::Bfhrf alt_engine(taxa_->size());
  alt_engine.build(alternate_);
  const std::string path = ::testing::TempDir() + "server_test_alt.bfh";
  core::save_bfhrf_file(alt_engine, path);

  const PublishResult pub = client.publish(path);
  EXPECT_EQ(pub.snapshot_version, 2u);

  const QueryResult after = client.query(query_text_);
  EXPECT_EQ(after.snapshot_version, 2u);
  ASSERT_EQ(after.avg_rf.size(), queries_.size());
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(after.avg_rf[i]),
              std::bit_cast<std::uint64_t>(alt_engine.query_one(queries_[i])));
  }
  std::remove(path.c_str());
}

TEST_F(RfServerTest, BadTreeTextIsBadRequestAndConnectionSurvives) {
  start();
  RfClient client = connect();
  try {
    (void)client.query({"((((not a tree"});
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::BadRequest);
  }
  // Same connection keeps working: the frame boundary was intact.
  client.ping();
  EXPECT_EQ(client.query(query_text_).avg_rf.size(), queries_.size());
}

TEST_F(RfServerTest, UnaryAndLoneLeafRecordsAnswerAsTheirSuppressedForms) {
  // The daemon takes every record's splits straight from its text: a
  // unary group folds into the split it repeats, and a one-leaf record
  // has none. One Query frame must answer each record exactly as the Tree
  // that parse_newick suppresses it to.
  start();
  RfClient client = connect();
  const std::string& plain = query_text_[0];
  std::string unary_leaf = plain;  // a unary group around the first leaf
  const std::size_t begin = unary_leaf.find_first_not_of('(');
  unary_leaf.insert(unary_leaf.find_first_of(",):", begin), ")");
  unary_leaf.insert(begin, "(");
  // A unary group around the first group below the root, whose split the
  // fold then lists twice.
  std::string unary_group = plain;
  const std::size_t open = unary_group.find('(', 1);
  std::size_t close = open;
  for (int depth = 0; close == open || depth > 0; ++close) {
    const char c = unary_group[close];
    depth += c == '(' ? 1 : c == ')' ? -1 : 0;
  }
  unary_group.insert(close, ")");
  unary_group.insert(open, "(");
  const std::vector<std::string> records = {
      unary_leaf, unary_group, "(" + plain.substr(0, plain.size() - 1) + ");",
      "t3;", "((t7:0.5));"};
  const QueryResult result = client.query(records);
  ASSERT_EQ(result.avg_rf.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const phylo::Tree suppressed = phylo::parse_newick(records[i], taxa_);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.avg_rf[i]),
              std::bit_cast<std::uint64_t>(snapshot_->query_one(suppressed)))
        << records[i];
  }
}

TEST_F(RfServerTest, UnknownOpcodeIsBadRequestAndConnectionSurvives) {
  start();
  RfClient client = connect();
  const Bytes response = client.roundtrip_raw({0x7E, 0x01, 0x02});
  EXPECT_EQ(response_status(response), Status::BadRequest);
  client.ping();
}

TEST_F(RfServerTest, OversizedFrameClosesTheConnectionDeliberately) {
  ServeOptions opts;
  opts.max_frame_bytes = 256;
  start(opts);
  RfClient client = connect();
  // An announcement over the limit poisons the byte stream; the server
  // answers with a best-effort BadRequest and then drops the connection —
  // the NEXT exchange on it fails instead of hanging.
  const Bytes response = client.roundtrip_raw(Bytes(300, 0x41));
  EXPECT_EQ(response_status(response), Status::BadRequest);
  EXPECT_THROW((void)client.roundtrip_raw(encode(PingRequest{})), Error);
  // A fresh connection is unaffected.
  RfClient again = connect();
  again.ping();
}

TEST_F(RfServerTest, AdminOpcodesCanBeDisabled) {
  ServeOptions opts;
  opts.allow_admin = false;
  start(opts);
  RfClient client = connect();
  try {
    client.shutdown_server();
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::BadRequest);
  }
  EXPECT_TRUE(server_->running());
  client.ping();
}

TEST_F(RfServerTest, ShutdownOpcodeDrainsAndStops) {
  start();
  {
    RfClient client = connect();
    client.shutdown_server();  // Ok response arrives BEFORE the stop
  }
  server_->wait();
  EXPECT_FALSE(server_->running());
  server_->stop();
  EXPECT_THROW((RfClient{"127.0.0.1", server_->port()}), Error);
}

TEST_F(RfServerTest, InProcessPublishTagsSubsequentQueries) {
  start();
  RfClient client = connect();
  EXPECT_EQ(client.query(query_text_).snapshot_version, 1u);
  const std::uint64_t v2 =
      server_->publish(core::IndexSnapshot::build(taxa_, alternate_));
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(client.query(query_text_).snapshot_version, 2u);
  EXPECT_EQ(server_->current().version(), 2u);
}

TEST_F(RfServerTest, PipelinedRequestsAreAnsweredInRequestOrder) {
  // The protocol promises responses in request order per connection
  // (protocol.hpp) — a pipelining client decodes bodies by position, so a
  // swap would silently hand it wrong results. Fire a burst of requests
  // without reading any responses: with several workers racing, requests
  // routinely COMPLETE out of order, and the per-session reorder staging
  // in send_response must put the wire back in admission order. Request i
  // carries i+1 copies of the same query, so the response's count field
  // identifies which request it answers.
  ServeOptions opts;
  opts.workers = 4;
  start(opts);
  RfClient client = connect();

  constexpr std::size_t kPipelined = 32;
  const std::uint64_t expected =
      std::bit_cast<std::uint64_t>(snapshot_->query_one(queries_[0]));
  for (std::size_t i = 0; i < kPipelined; ++i) {
    client.send_frame(encode(
        QueryRequest{std::vector<std::string>(i + 1, query_text_[0])}));
  }
  for (std::size_t i = 0; i < kPipelined; ++i) {
    const QueryResult res = decode_query_result(client.recv_frame());
    ASSERT_EQ(res.avg_rf.size(), i + 1)
        << "response " << i << " answered out of request order";
    for (const double rf : res.avg_rf) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rf), expected);
    }
  }
  client.ping();  // the connection is still in lockstep-usable shape
}

TEST_F(RfServerTest, PipelinedBadRequestKeepsItsSlotInTheResponseOrder) {
  // A malformed-but-framed request is answered by a worker like any other;
  // its error response must hold the same position in the wire order.
  ServeOptions opts;
  opts.workers = 4;
  start(opts);
  RfClient client = connect();
  client.send_frame(encode(QueryRequest{{query_text_[0]}}));
  client.send_frame({0x7E});  // unknown opcode -> BadRequest
  client.send_frame(encode(QueryRequest{{query_text_[0], query_text_[1]}}));
  EXPECT_EQ(decode_query_result(client.recv_frame()).avg_rf.size(), 1u);
  EXPECT_EQ(response_status(client.recv_frame()), Status::BadRequest);
  EXPECT_EQ(decode_query_result(client.recv_frame()).avg_rf.size(), 2u);
}

TEST_F(RfServerTest, ManySequentialConnections) {
  start();
  for (int i = 0; i < 20; ++i) {
    RfClient client = connect();
    client.ping();
    const QueryResult r = client.query({query_text_[0]});
    ASSERT_EQ(r.avg_rf.size(), 1u);
  }
}

}  // namespace
}  // namespace bfhrf::serve
