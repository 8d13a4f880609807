// Tests for the scale-out sweep runner (src/exp/sweep) and the mergeable
// aggregation primitives it relies on (metrics::Accumulator::merge,
// metrics::Digest): substream seeding, flat-grid-order results independent
// of thread count, merge equivalence, and the sweep CLI vocabulary.
#include <cmath>
#include <set>
#include <string>
#include <stdexcept>
#include <gtest/gtest.h>

#include "exp/sweep.hpp"
#include "metrics/stats.hpp"
#include "sim/random.hpp"

namespace mcs::exp {
namespace {

TEST(SubstreamSeedTest, DeterministicNonzeroAndWellSpread) {
  EXPECT_EQ(substream_seed(42, 7), substream_seed(42, 7));
  std::set<std::uint64_t> seen;
  for (std::uint64_t base = 0; base < 8; ++base) {
    for (std::uint64_t index = 0; index < 64; ++index) {
      const std::uint64_t s = substream_seed(base, index);
      EXPECT_NE(s, 0u);
      seen.insert(s);
    }
  }
  // 8 x 64 (base, index) pairs must map to distinct seeds.
  EXPECT_EQ(seen.size(), 8u * 64u);
}

TEST(SubstreamSeedTest, NestedSeedsDifferAcrossScenariosAndReps) {
  const std::uint64_t base = 22;
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 4; ++s) {
    for (std::uint64_t r = 0; r < 32; ++r) {
      seen.insert(substream_seed(substream_seed(base, s), r));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 32u);
}

TEST(RunSweepTest, FlatGridOrderAndSeedsIndependentOfThreadCount) {
  SweepOptions opt;
  opt.reps = 5;
  opt.base_seed = 99;

  auto cell = [](const SweepPoint& p) {
    // Derive a value from the cell's own rng, as real experiments do.
    sim::Rng rng(p.seed);
    return static_cast<double>(p.scenario) * 1000.0 +
           static_cast<double>(p.rep) + rng.uniform(0.0, 1.0);
  };

  parallel::ThreadPool one(1);
  parallel::ThreadPool four(4);
  opt.pool = &one;
  const auto a = run_sweep<double>(3, opt, cell);
  opt.pool = &four;
  const auto b = run_sweep<double>(3, opt, cell);

  ASSERT_EQ(a.size(), 15u);
  ASSERT_EQ(b.size(), 15u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a[i], b[i]) << "cell " << i;
    // Scenario-major flat order.
    EXPECT_EQ(static_cast<std::size_t>(a[i] / 1000.0), i / 5);
  }
}

TEST(RunSweepTest, ZeroRepsIsTreatedAsOne) {
  SweepOptions opt;
  opt.reps = 0;
  parallel::ThreadPool pool(2);
  opt.pool = &pool;
  const auto r = run_sweep<int>(
      3, opt, [](const SweepPoint& p) { return static_cast<int>(p.scenario); });
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[2], 2);
}

TEST(AccumulatorMergeTest, MatchesDirectAccumulationInGridOrder) {
  sim::Rng rng(5);
  std::vector<double> xs(257);
  for (double& x : xs) x = rng.normal(10.0, 3.0);

  metrics::Accumulator direct(false);
  for (double x : xs) direct.add(x);

  // Split into uneven shards, merge in order — as a sweep's per-cell
  // accumulators are folded.
  metrics::Accumulator merged(false);
  std::size_t i = 0;
  for (std::size_t shard_size : {1u, 31u, 100u, 125u}) {
    metrics::Accumulator shard(false);
    for (std::size_t k = 0; k < shard_size; ++k) shard.add(xs[i++]);
    merged.merge(shard);
  }
  ASSERT_EQ(i, xs.size());

  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_NEAR(merged.mean(), direct.mean(), 1e-9);
  EXPECT_NEAR(merged.stddev(), direct.stddev(), 1e-9);
  EXPECT_EQ(merged.min(), direct.min());
  EXPECT_EQ(merged.max(), direct.max());
}

TEST(AccumulatorMergeTest, MergeIntoEmptyCopiesExactly) {
  metrics::Accumulator shard(false);
  shard.add(1.5);
  shard.add(2.5);
  metrics::Accumulator empty(false);
  empty.merge(shard);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.mean(), shard.mean());
  // Merging an empty shard is a no-op.
  metrics::Accumulator nothing(false);
  empty.merge(nothing);
  EXPECT_EQ(empty.count(), 2u);
}

TEST(DigestTest, HexFormatAndSensitivity) {
  metrics::Digest d;
  d.add_double(1.0);
  d.add_u64(7);
  const std::string hex = d.hex();
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);

  metrics::Digest e;
  e.add_double(1.0 + 1e-15);  // last-bit difference must change the digest
  e.add_u64(7);
  EXPECT_NE(d.value(), e.value());
}

TEST(DigestTest, MergeIsOrderSensitiveAndDeterministic) {
  auto child = [](double x) {
    metrics::Digest d;
    d.add_double(x);
    return d;
  };
  metrics::Digest ab;
  ab.merge(child(1.0));
  ab.merge(child(2.0));
  metrics::Digest ab2;
  ab2.merge(child(1.0));
  ab2.merge(child(2.0));
  metrics::Digest ba;
  ba.merge(child(2.0));
  ba.merge(child(1.0));
  EXPECT_EQ(ab.value(), ab2.value());
  // Order sensitivity is the point: the fold happens in flat grid order,
  // never in completion order.
  EXPECT_NE(ab.value(), ba.value());
}

TEST(SweepCliTest, ParsesRepsDigestThreads) {
  const char* argv[] = {"exp", "--reps", "32", "--digest", "--threads=4"};
  const SweepCli cli = parse_sweep_cli(5, argv);
  EXPECT_EQ(cli.reps, 32u);
  EXPECT_TRUE(cli.digest);
  EXPECT_EQ(cli.threads, 4u);
}

TEST(SweepCliTest, DefaultsAndUnknownArgsIgnored) {
  const char* argv[] = {"exp", "--verbose", "--reps=0"};
  const SweepCli cli = parse_sweep_cli(3, argv);
  EXPECT_EQ(cli.reps, 1u);  // 0 clamps to 1
  EXPECT_FALSE(cli.digest);
  EXPECT_EQ(cli.threads, 0u);
}

TEST(SweepCliTest, MalformedValueThrows) {
  const char* bad_value[] = {"exp", "--reps", "many"};
  EXPECT_THROW((void)parse_sweep_cli(3, bad_value), std::invalid_argument);
  const char* missing[] = {"exp", "--reps"};
  EXPECT_THROW((void)parse_sweep_cli(2, missing), std::invalid_argument);
}

TEST(SweepCliTest, SignedOrOutOfRangeCountsThrow) {
  // strtoull alone would read "-3" as 2^64 - 3 and the sweep would then
  // abort allocating its cell grid.
  for (const char* value : {"-3", "+3", " 3", "-0", "3x", ""}) {
    const char* reps[] = {"exp", "--reps", value};
    EXPECT_THROW((void)parse_sweep_cli(3, reps), std::invalid_argument)
        << "--reps '" << value << "'";
    const char* threads[] = {"exp", "--threads", value};
    EXPECT_THROW((void)parse_sweep_cli(3, threads), std::invalid_argument)
        << "--threads '" << value << "'";
  }
  const char* eq_form[] = {"exp", "--threads=-1"};
  EXPECT_THROW((void)parse_sweep_cli(2, eq_form), std::invalid_argument);
  const char* overflow[] = {"exp", "--reps", "99999999999999999999999"};
  EXPECT_THROW((void)parse_sweep_cli(3, overflow), std::invalid_argument);
  const std::string too_many = std::to_string(kMaxSweepThreads + 1);
  const char* threads_cap[] = {"exp", "--threads", too_many.c_str()};
  EXPECT_THROW((void)parse_sweep_cli(3, threads_cap), std::invalid_argument);
  const std::string too_deep = std::to_string(kMaxSweepReps + 1);
  const char* reps_cap[] = {"exp", "--reps", too_deep.c_str()};
  EXPECT_THROW((void)parse_sweep_cli(3, reps_cap), std::invalid_argument);

  const std::string max_reps = std::to_string(kMaxSweepReps);
  const std::string max_threads = std::to_string(kMaxSweepThreads);
  const char* at_cap[] = {"exp", "--reps", max_reps.c_str(), "--threads",
                          max_threads.c_str()};
  const SweepCli cli = parse_sweep_cli(5, at_cap);
  EXPECT_EQ(cli.reps, kMaxSweepReps);
  EXPECT_EQ(cli.threads, kMaxSweepThreads);
}

TEST(SweepCliTest, MalformedSloSpecThrows) {
  const char* bad_threshold[] = {"exp", "--slo", "bot:abc:2"};
  EXPECT_THROW((void)parse_sweep_cli(3, bad_threshold),
               std::invalid_argument);
  const char* bad_target[] = {"exp", "--slo=bot:10:2"};
  EXPECT_THROW((void)parse_sweep_cli(2, bad_target), std::invalid_argument);
}

}  // namespace
}  // namespace mcs::exp
