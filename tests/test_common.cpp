#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/require.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_annotations.h"

namespace qs {
namespace {

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, StreamIsPinned) {
  // The first draws of three streams, bitwise. Every sampled result in
  // the library (counts, Kraus choices, scenario arrivals, drift) flows
  // from these; a deliberate stream change bumps kRngStreamVersion and
  // re-pins them, an accidental one fails here. normal() goes through
  // libm's log/cos, so it is pinned to 1e-15 relative instead.
  struct Pinned {
    Rng rng;
    std::uint64_t draw_seed[2];
    double uniform[2];
    std::size_t index7[4];
    int integer[4];
    double normal[2];
  };
  const Pinned pins[] = {
      {Rng(split_seed(1, 0)),
       {0x5e41ab087439611eull, 0xf18d6ce93d6cf1eeull},
       {0x1.7906ac21d0e58p-2, 0x1.e31ad9d27ad9ep-1},
       {2, 6, 0, 5},
       {-1, 3, -3, 2},
       {1.3256718696671201, 0.42681060022473438}},
      {Rng(split_seed(42, 7)),
       {0x001dcf1b277a0c18ull, 0xff6a03ddcc9b51e2ull},
       {0x1.dcf1b277a08p-12, 0x1.fed407bb9936ap-1},
       {0, 6, 1, 0},
       {-3, 3, -2, -3},
       {3.922742186550324, 1.534722477742168}},
      {Rng(),
       {0x6e789e6aa1b965f4ull, 0x06c45d188009454full},
       {0x1.b9e279aa86e58p-2, 0x1.b1174620025p-6},
       {3, 0, 6, 0},
       {0, -3, 3, -3},
       {1.2786336028299854, 0.19082411246493039}},
  };
  EXPECT_EQ(kRngStreamVersion, 2);
  for (const Pinned& p : pins) {
    Rng seeds = p.rng, unit = p.rng, idx = p.rng, ints = p.rng,
        gauss = p.rng;
    for (int i = 0; i < 2; ++i) EXPECT_EQ(seeds.draw_seed(), p.draw_seed[i]);
    for (int i = 0; i < 2; ++i) EXPECT_EQ(unit.uniform(), p.uniform[i]);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(idx.index(7), p.index7[i]);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(ints.integer(-3, 3), p.integer[i]);
    for (int i = 0; i < 2; ++i)
      EXPECT_NEAR(gauss.normal(), p.normal[i], 1e-15 * std::abs(p.normal[i]));
  }
}

TEST(Rng, IndexIsUnbiased) {
  // n = 3 * 2^62: a plain `draw % n` folds the top quarter of the 64-bit
  // range onto [0, 2^62), so half the draws would land there instead of
  // a third.
  Rng rng(9);
  const std::size_t n = std::size_t{3} << 62;
  const int draws = 100000;
  int low = 0;
  for (int i = 0; i < draws; ++i)
    if (rng.index(n) < (std::size_t{1} << 62)) ++low;
  EXPECT_NEAR(low / static_cast<double>(draws), 1.0 / 3.0, 0.01);

  // The full int range is a 2^32-wide span: both signs must appear.
  bool negative = false, positive = false;
  for (int i = 0; i < 64; ++i) {
    const int v = rng.integer(INT_MIN, INT_MAX);
    negative = negative || v < 0;
    positive = positive || v > 0;
  }
  EXPECT_TRUE(negative);
  EXPECT_TRUE(positive);
}

TEST(Rng, NormalMoments) {
  Rng rng(7);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.normal();
  EXPECT_NEAR(mean(xs), 0.0, 0.05);
  EXPECT_NEAR(stddev(xs), 1.0, 0.05);
}

TEST(Rng, DiscreteMatchesWeights) {
  Rng rng(3);
  std::vector<double> w{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.discrete(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(Rng, DiscreteRejectsZeroTotal) {
  Rng rng(5);
  std::vector<double> w{0.0, 0.0};
  EXPECT_THROW(rng.discrete(w), std::invalid_argument);
}

TEST(Rng, IndexWithinRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(7), 7u);
}

TEST(Require, BothOverloadsThrowWithTheMessage) {
  // A literal binds to the const char* overload, a composed message to
  // the std::string one; either way a failed check carries the message.
  EXPECT_NO_THROW(require(true, "a passing check builds no message"));
  EXPECT_NO_THROW(ensure(true, std::string("composed ") + "message"));
  const auto message_of = [](auto&& check) -> std::string {
    try {
      check();
    } catch (const std::invalid_argument& e) {
      return std::string("invalid_argument: ") + e.what();
    } catch (const std::logic_error& e) {
      return std::string("logic_error: ") + e.what();
    }
    return "no throw";
  };
  const std::string n = std::to_string(7);
  EXPECT_EQ(message_of([] { require(false, "literal precondition"); }),
            "invalid_argument: literal precondition");
  EXPECT_EQ(message_of([&] { require(false, "composed " + n); }),
            "invalid_argument: composed 7");
  EXPECT_EQ(message_of([] { ensure(false, "literal invariant"); }),
            "logic_error: literal invariant");
  EXPECT_EQ(message_of([&] { ensure(false, "composed " + n); }),
            "logic_error: composed 7");
}

TEST(Stats, MeanAndVariance) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(variance(xs), 5.0 / 3.0, 1e-12);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, ArgminArgmax) {
  std::vector<double> xs{3.0, -1.0, 7.0, 0.0};
  EXPECT_EQ(argmin(xs), 1u);
  EXPECT_EQ(argmax(xs), 2u);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(i);
    ys.push_back(2.5 * i - 1.0);
  }
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, NmseZeroForPerfectPrediction) {
  std::vector<double> y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(nmse(y, y), 0.0);
}

TEST(Stats, NmseOneForMeanPrediction) {
  std::vector<double> y{1.0, 2.0, 3.0};
  std::vector<double> yhat{2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(nmse(y, yhat), 1.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> xs{1.0, 2.0, 3.0};
  std::vector<double> ys{2.0, 4.0, 6.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(Table, RendersAlignedRows) {
  ConsoleTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowArityChecked) {
  ConsoleTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_int(42), "42");
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
}

// ---------------------------------------------------------------------
// Annotated synchronization primitives (thread_annotations.h). The
// compile-time contract is checked by clang -Wthread-safety in CI; these
// pin the runtime behavior of the wrappers themselves.
// ---------------------------------------------------------------------

TEST(ThreadAnnotations, MutexExcludesConcurrentCriticalSections) {
  Mutex mu;
  long counter = 0;  // guarded by mu (local: invisible to the analysis)
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(ThreadAnnotations, TryLockReflectsOwnership) {
  Mutex mu;
  mu.lock();
  std::thread other([&] {
    EXPECT_FALSE(mu.try_lock());  // held by the main thread
  });
  other.join();
  mu.unlock();
  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(ThreadAnnotations, CondVarHandshake) {
  // The documented usage shape: inline predicate loop around wait().
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int observed = -1;
  std::thread consumer([&] {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
    observed = 7;
  });
  {
    MutexLock lock(mu);
    ready = true;
    cv.notify_all();
  }
  consumer.join();
  EXPECT_EQ(observed, 7);
}

}  // namespace
}  // namespace qs
