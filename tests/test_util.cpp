// Unit tests for the util library: Status/Result, Rng, stats, strings,
// Table, UnionFind, StrongId.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/union_find.hpp"

namespace namecoh {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = not_found_error("no such thing");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: no such thing");
}

TEST(Status, AllFactoryCodesDistinct) {
  std::set<StatusCode> codes = {
      not_found_error("").code(),       not_a_context_error("").code(),
      depth_exceeded_error("").code(),  invalid_argument_error("").code(),
      already_exists_error("").code(),  permission_error("").code(),
      unreachable_error("").code(),     failed_precondition_error("").code(),
      internal_error("").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(Status, CodeNamesAreStable) {
  EXPECT_EQ(status_code_name(StatusCode::kOk), "OK");
  EXPECT_EQ(status_code_name(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_EQ(status_code_name(StatusCode::kNotAContext), "NOT_A_CONTEXT");
  EXPECT_EQ(status_code_name(StatusCode::kDepthExceeded), "DEPTH_EXCEEDED");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r = not_found_error("gone");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
  EXPECT_FALSE(r.as_optional().has_value());
}

TEST(Result, ValueOnErrorThrows) {
  Result<int> r = internal_error("boom");
  EXPECT_THROW((void)r.value(), std::logic_error);
}

TEST(Result, ConstructingFromOkStatusThrows) {
  EXPECT_THROW((Result<int>(Status::ok())), std::logic_error);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.is_ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(Check, ThrowsPreconditionError) {
  EXPECT_THROW(NAMECOH_CHECK(false, "nope"), PreconditionError);
  EXPECT_NO_THROW(NAMECOH_CHECK(true, "fine"));
}

// --- StrongId ---------------------------------------------------------------

struct FooTag {};
using FooId = StrongId<FooTag>;

TEST(StrongId, DefaultIsInvalid) {
  FooId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, FooId::invalid());
}

TEST(StrongId, ValueRoundTrip) {
  FooId id(17);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 17u);
  EXPECT_LT(FooId(1), FooId(2));
}

TEST(StrongId, HashSpreadsSequentialIds) {
  std::set<std::size_t> hashes;
  for (std::uint64_t i = 0; i < 100; ++i) {
    hashes.insert(std::hash<FooId>{}(FooId(i)));
  }
  EXPECT_EQ(hashes.size(), 100u);
}

// --- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true, any_diff = false;
  for (int i = 0; i < 100; ++i) {
    std::uint64_t va = a.next(), vb = b.next(), vc = c.next();
    all_equal = all_equal && (va == vb);
    any_diff = any_diff || (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
  EXPECT_THROW(rng.next_below(0), PreconditionError);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(19);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.zipf(10, 1.0)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
}

TEST(Rng, ZipfSingleElement) {
  Rng rng(21);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.zipf(1, 1.2), 0u);
}

TEST(Rng, GeometricAlwaysAtLeastOne) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.geometric(0.5), 1u);
  EXPECT_EQ(rng.geometric(1.0), 1u);
}

TEST(Rng, GeometricMeanRoughlyInverseP) {
  Rng rng(25);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(0.25));
  EXPECT_NEAR(sum / n, 4.0, 0.25);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent1(31), parent2(31);
  Rng fork_a1 = parent1.fork("a");
  Rng fork_a2 = parent2.fork("a");
  Rng fork_b = parent1.fork("b");
  EXPECT_EQ(fork_a1.next(), fork_a2.next());
  // Different labels give different streams (overwhelmingly likely).
  Rng fa = parent1.fork("a");
  EXPECT_NE(fa.next(), fork_b.next());
}

TEST(Rng, ChildStreamsAreKeyedOnSeedNotState) {
  // child(i) depends only on (construction seed, i): draws from the parent
  // before deriving must not shift the child streams. This is what makes
  // per-worker streams reproducible run to run (docs/PARALLELISM.md).
  Rng fresh(71);
  Rng warmed(71);
  for (int i = 0; i < 100; ++i) warmed.next();
  EXPECT_EQ(fresh.child(3).next(), warmed.child(3).next());
}

TEST(Rng, ChildStreamsAreDistinctPerIndex) {
  Rng parent(72);
  std::set<std::uint64_t> firsts;
  for (std::uint64_t w = 0; w < 16; ++w) {
    firsts.insert(parent.child(w).next());
  }
  EXPECT_EQ(firsts.size(), 16u);
  // And distinct from the parent's own stream.
  EXPECT_NE(Rng(72).next(), Rng(72).child(0).next());
}

TEST(Rng, SeedAccessorReportsConstructionSeed) {
  EXPECT_EQ(Rng(123).seed(), 123u);
  EXPECT_EQ(Rng(123).child(2).seed(), Rng(123).child(2).seed());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, PickFromSpan) {
  Rng rng(41);
  std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    int p = rng.pick(v);
    EXPECT_TRUE(p == 10 || p == 20 || p == 30);
  }
}

// --- Stats ------------------------------------------------------------------

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Accumulator all, left, right;
  for (int i = 0; i < 50; ++i) {
    double x = std::sin(i) * 10;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(FractionCounter, Basics) {
  FractionCounter f;
  EXPECT_EQ(f.fraction(), 0.0);
  f.add(true);
  f.add(true);
  f.add(false);
  EXPECT_EQ(f.trials(), 3u);
  EXPECT_EQ(f.successes(), 2u);
  EXPECT_NEAR(f.fraction(), 2.0 / 3.0, 1e-12);
  FractionCounter g;
  g.add(false);
  f.merge(g);
  EXPECT_EQ(f.trials(), 4u);
  EXPECT_EQ(f.successes(), 2u);
}

TEST(Histogram, BucketsAndQuantiles) {
  Histogram h({1.0, 2.0, 4.0});
  for (double x : {0.5, 1.5, 1.7, 3.0, 10.0}) h.add(x);
  EXPECT_EQ(h.total(), 5u);
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 1u);  // [0,1)
  EXPECT_EQ(h.counts()[1], 2u);  // [1,2)
  EXPECT_EQ(h.counts()[2], 1u);  // [2,4)
  EXPECT_EQ(h.counts()[3], 1u);  // overflow
  EXPECT_GT(h.quantile(0.9), 2.0);
  EXPECT_LE(h.quantile(0.2), 1.0);
}

// Regression: quantile(0) used to return 0.0 no matter where the samples
// sat, because the q*total target was 0 and the cumulative scan stopped in
// the first (possibly empty) bucket.
TEST(Histogram, QuantileZeroReportsFirstNonEmptyBucket) {
  Histogram h({1.0, 2.0, 4.0});
  h.add(3.0);  // only sample sits in [2,4)
  h.add(3.5);
  EXPECT_EQ(h.quantile(0.0), 2.0);  // lower edge of its bucket, not 0.0
  Histogram low({1.0, 2.0});
  low.add(0.5);  // first bucket [0,1): lower edge is genuinely 0
  EXPECT_EQ(low.quantile(0.0), 0.0);
  Histogram empty({1.0});
  EXPECT_EQ(empty.quantile(0.0), 0.0);  // no samples: stays 0
}

// Regression: the overflow bucket interpolated against an arbitrary
// `last_boundary * 2`; it now uses the largest value actually observed.
TEST(Histogram, OverflowBucketAnchorsOnObservedMax) {
  Histogram h({1.0, 2.0});
  h.add(100.0);  // far beyond 2*2=4, the old fabricated upper edge
  EXPECT_EQ(h.observed_max(), 100.0);
  EXPECT_EQ(h.quantile(1.0), 100.0);
  EXPECT_GT(h.quantile(0.5), 2.0);
  EXPECT_LE(h.quantile(0.5), 100.0);
}

TEST(Histogram, ObservedMaxTracksAllSamples) {
  Histogram h({10.0});
  EXPECT_EQ(h.observed_max(), 0.0);  // empty
  h.add(3.0);
  h.add(7.0);
  h.add(5.0);
  EXPECT_EQ(h.observed_max(), 7.0);
  // Max below the last boundary: the overflow edge falls back to the
  // boundary, and q=1 never exceeds it.
  EXPECT_LE(h.quantile(1.0), 10.0);
}

TEST(Histogram, RejectsBadBoundaries) {
  EXPECT_THROW(Histogram({}), PreconditionError);
  EXPECT_THROW(Histogram({2.0, 1.0}), PreconditionError);
  EXPECT_THROW(Histogram({1.0, 1.0}), PreconditionError);
}

TEST(CategoryCounter, CountsByKey) {
  CategoryCounter c;
  c.add("x");
  c.add("x");
  c.add("y", 3);
  EXPECT_EQ(c.get("x"), 2u);
  EXPECT_EQ(c.get("y"), 3u);
  EXPECT_EQ(c.get("z"), 0u);
  EXPECT_EQ(c.total(), 5u);
}

// --- Strings ----------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyPieces) {
  auto pieces = split("/a//b", '/');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "");
  EXPECT_EQ(pieces[1], "a");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(pieces[3], "b");
}

TEST(Strings, SplitSkipEmpty) {
  auto pieces = split("/a//b/", '/', /*skip_empty=*/true);
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
}

TEST(Strings, SplitEmptyString) {
  auto pieces = split("", '/');
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "");
  EXPECT_TRUE(split("", '/', true).empty());
}

TEST(Strings, JoinRoundTrip) {
  std::vector<std::string> pieces{"a", "b", "c"};
  EXPECT_EQ(join(pieces, "/"), "a/b/c");
  EXPECT_EQ(join({}, "/"), "");
  EXPECT_EQ(join({"solo"}, "/"), "solo");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("/vice/file", "/vice"));
  EXPECT_FALSE(starts_with("/vic", "/vice"));
  EXPECT_TRUE(ends_with("a.tex", ".tex"));
  EXPECT_FALSE(ends_with("tex", ".tex"));
}

TEST(Strings, FormatFraction) {
  EXPECT_EQ(format_fraction(0.5), "0.500");
  EXPECT_EQ(format_fraction(1.0, 2), "1.00");
  EXPECT_EQ(format_fraction(0.12345, 4), "0.1235");
}

// --- Table ------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table t({"scheme", "coherence"});
  t.add_row({"newcastle", "0.12"});
  t.add_row({"single-graph", "1.00"});
  std::string out = t.to_string();
  EXPECT_NE(out.find("| scheme"), std::string::npos);
  EXPECT_NE(out.find("| newcastle"), std::string::npos);
  EXPECT_NE(out.find("| single-graph"), std::string::npos);
  // Every line has the same width.
  std::size_t first_line = out.find('\n');
  std::string line1 = out.substr(0, first_line);
  for (std::size_t pos = 0; pos < out.size();) {
    std::size_t end = out.find('\n', pos);
    if (end == std::string::npos) break;
    EXPECT_EQ(end - pos, line1.size());
    pos = end + 1;
  }
}

TEST(Table, RowWidthMustMatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
  EXPECT_THROW(Table(std::vector<std::string>{}), PreconditionError);
}

TEST(Table, StoresRows) {
  Table t({"a"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.row(0)[0], "1");
}

// --- UnionFind ----------------------------------------------------------------

TEST(UnionFind, SingletonsThenUnions) {
  UnionFind uf(5);
  EXPECT_EQ(uf.components(), 5u);
  EXPECT_FALSE(uf.same(0, 1));
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.unite(0, 1));  // already merged
  EXPECT_EQ(uf.components(), 4u);
  uf.unite(1, 2);
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_EQ(uf.components(), 3u);
}

TEST(UnionFind, EnsureGrows) {
  UnionFind uf(2);
  uf.ensure(5);
  EXPECT_EQ(uf.size(), 5u);
  EXPECT_EQ(uf.components(), 5u);
  EXPECT_FALSE(uf.same(3, 4));
}

TEST(UnionFind, TransitiveClosureProperty) {
  // Property: after uniting a chain 0-1-2-...-n, all pairs are same().
  UnionFind uf(20);
  for (std::size_t i = 0; i + 1 < 20; ++i) uf.unite(i, i + 1);
  EXPECT_EQ(uf.components(), 1u);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 20; ++j) EXPECT_TRUE(uf.same(i, j));
  }
}

}  // namespace
}  // namespace namecoh
