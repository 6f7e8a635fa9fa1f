#include "qc/persist.hpp"

#include <gtest/gtest.h>

#include "support/test_util.hpp"

namespace bfhrf::qc {
namespace {

TEST(PersistOracleTest, DefaultConfigurationPasses) {
  PersistOracleOptions opts;
  opts.seed = test::fuzz_seed(0xA11ce);
  opts.n = 20;
  opts.r = 20;
  opts.q = 8;
  SCOPED_TRACE("seed " + test::hex_seed(opts.seed));
  const auto report = check_persist_equivalence(opts);
  for (const auto& f : report.failures) {
    ADD_FAILURE() << f;
  }
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.checks, 0u);
  EXPECT_GT(report.round_trips, 0u);
}

TEST(PersistOracleTest, TrivialSplitsModeAlsoPasses) {
  PersistOracleOptions opts;
  opts.seed = 0xBee;
  opts.n = 14;
  opts.r = 12;
  opts.q = 5;
  opts.include_trivial = true;
  opts.threads = {1, 4};
  const auto report = check_persist_equivalence(opts);
  for (const auto& f : report.failures) {
    ADD_FAILURE() << f;
  }
  EXPECT_TRUE(report.ok());
}

TEST(PersistOracleTest, SummaryCarriesSeed) {
  PersistOracleOptions opts;
  opts.seed = 0xCafe;
  opts.n = 10;
  opts.r = 6;
  opts.q = 3;
  opts.threads = {2};
  const auto report = check_persist_equivalence(opts);
  EXPECT_NE(report.summary().find("0xCAFE"), std::string::npos);
}

}  // namespace
}  // namespace bfhrf::qc
