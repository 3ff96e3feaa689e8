// Law-level randomized tests for the comparator layer: the ▶-better
// relations of §5 must be asymmetric and consistent with dominance, the
// multi-property indices must be order-consistent, and all EMD grounds
// must behave like metrics on random distributions.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/comparator.h"
#include "core/dominance.h"
#include "core/insufficiency.h"
#include "core/multi_property.h"
#include "core/quality_index.h"
#include "oracle/comparison.h"
#include "paper/paper_data.h"
#include "privacy/t_closeness.h"

namespace mdc {
namespace {

PropertyVector RandomVector(Rng& rng, size_t n) {
  std::vector<double> values(n);
  for (double& v : values) v = static_cast<double>(rng.NextInt(1, 9));
  return PropertyVector("r", std::move(values));
}

// b with a random subset of coordinates bumped up: weakly dominates b by
// construction, strongly iff at least one bump landed.
PropertyVector BumpedUp(Rng& rng, const PropertyVector& b) {
  std::vector<double> values = b.values();
  for (double& v : values) {
    if (rng.NextBool(0.5)) v += static_cast<double>(rng.NextInt(1, 3));
  }
  return PropertyVector("bumped", std::move(values));
}

class ComparatorLaws : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ComparatorLaws, BetterRelationsAreAsymmetric) {
  Rng rng(GetParam());
  PropertyVector d_max("m", std::vector<double>(6, 10.0));
  auto battery =
      oracle::StandardComparators(d_max, /*include_hypervolume=*/true);
  for (int trial = 0; trial < 200; ++trial) {
    PropertyVector a = RandomVector(rng, 6);
    PropertyVector b = RandomVector(rng, 6);
    for (const auto& comparator : battery) {
      ComparatorOutcome forward = comparator->Compare(a, b);
      ComparatorOutcome backward = comparator->Compare(b, a);
      // ▶ is asymmetric: a better than b implies b not better than a...
      if (forward == ComparatorOutcome::kFirstBetter) {
        EXPECT_EQ(backward, ComparatorOutcome::kSecondBetter)
            << comparator->Name();
      }
      // ...and ties/incomparability are symmetric.
      if (forward == ComparatorOutcome::kEquivalent ||
          forward == ComparatorOutcome::kIncomparable) {
        EXPECT_EQ(backward, forward) << comparator->Name();
      }
    }
  }
}

TEST_P(ComparatorLaws, StrongDominanceWinsEveryBetterComparator) {
  // If D1 strongly dominates D2, every §5 comparator must agree or tie —
  // never prefer D2 (the "compatible with dominance" property quality
  // measures are expected to have).
  Rng rng(GetParam() + 10);
  PropertyVector d_max("m", std::vector<double>(6, 12.0));
  auto battery =
      oracle::StandardComparators(d_max, /*include_hypervolume=*/true);
  for (int trial = 0; trial < 200; ++trial) {
    PropertyVector b = RandomVector(rng, 6);
    std::vector<double> bumped = b.values();
    bumped[rng.NextBelow(6)] += 1.0;
    PropertyVector a("a", bumped);  // a strongly dominates b.
    for (const auto& comparator : battery) {
      ComparatorOutcome outcome = comparator->Compare(a, b);
      EXPECT_NE(outcome, ComparatorOutcome::kSecondBetter)
          << comparator->Name();
      EXPECT_NE(outcome, ComparatorOutcome::kIncomparable)
          << comparator->Name();
    }
  }
}

TEST_P(ComparatorLaws, MultiPropertyBetterRelationsNeverBothWin) {
  Rng rng(GetParam() + 20);
  BinaryIndexList cov = {MakeCoverageIndex()};
  for (int trial = 0; trial < 100; ++trial) {
    PropertySet s1 = {RandomVector(rng, 5), RandomVector(rng, 5)};
    PropertySet s2 = {RandomVector(rng, 5), RandomVector(rng, 5)};
    auto wtd_forward = WtdBetter(s1, s2, {0.5, 0.5}, cov);
    auto wtd_backward = WtdBetter(s2, s1, {0.5, 0.5}, cov);
    ASSERT_TRUE(wtd_forward.ok());
    ASSERT_TRUE(wtd_backward.ok());
    EXPECT_FALSE(*wtd_forward && *wtd_backward);

    auto lex_forward = LexBetter(s1, s2, {0.0}, cov);
    auto lex_backward = LexBetter(s2, s1, {0.0}, cov);
    ASSERT_TRUE(lex_forward.ok());
    ASSERT_TRUE(lex_backward.ok());
    EXPECT_FALSE(*lex_forward && *lex_backward);

    auto goal_forward = GoalBetter(s1, s2, {1.0, 1.0}, cov);
    auto goal_backward = GoalBetter(s2, s1, {1.0, 1.0}, cov);
    ASSERT_TRUE(goal_forward.ok());
    ASSERT_TRUE(goal_backward.ok());
    EXPECT_FALSE(*goal_forward && *goal_backward);
  }
}

TEST_P(ComparatorLaws, EmdMetricLawsAllGrounds) {
  Rng rng(GetParam() + 30);
  auto taxonomy = paper::MaritalTaxonomy();
  std::vector<std::string> leaves = taxonomy->Leaves();
  const size_t m = leaves.size();
  auto random_distribution = [&](int denom) {
    std::vector<double> p(m, 0.0);
    for (int i = 0; i < denom; ++i) {
      p[rng.NextBelow(m)] += 1.0 / denom;
    }
    return p;
  };
  auto to_map = [&](const std::vector<double>& p) {
    std::map<std::string, double> out;
    for (size_t i = 0; i < m; ++i) {
      if (p[i] > 0) out[leaves[i]] = p[i];
    }
    return out;
  };
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> p = random_distribution(10);
    std::vector<double> q = random_distribution(10);
    std::vector<double> r = random_distribution(10);
    for (GroundDistance g :
         {GroundDistance::kEqual, GroundDistance::kOrdered}) {
      double pq = EarthMoversDistance(p, q, g);
      double qp = EarthMoversDistance(q, p, g);
      double qr = EarthMoversDistance(q, r, g);
      double pr = EarthMoversDistance(p, r, g);
      EXPECT_NEAR(pq, qp, 1e-12);                       // Symmetry.
      EXPECT_GE(pq, -1e-12);                            // Non-negativity.
      EXPECT_LE(pr, pq + qr + 1e-9);                    // Triangle.
      EXPECT_NEAR(EarthMoversDistance(p, p, g), 0.0, 1e-12);  // Identity.
    }
    auto hp = taxonomy->HierarchicalEmd(to_map(p), to_map(q));
    auto hq = taxonomy->HierarchicalEmd(to_map(q), to_map(p));
    auto hqr = taxonomy->HierarchicalEmd(to_map(q), to_map(r));
    auto hpr = taxonomy->HierarchicalEmd(to_map(p), to_map(r));
    ASSERT_TRUE(hp.ok());
    ASSERT_TRUE(hq.ok());
    ASSERT_TRUE(hqr.ok());
    ASSERT_TRUE(hpr.ok());
    EXPECT_NEAR(*hp, *hq, 1e-12);
    EXPECT_LE(*hpr, *hp + *hqr + 1e-9);
  }
}

TEST_P(ComparatorLaws, WeakDominanceIsReflexiveAndTransitive) {
  Rng rng(GetParam() + 40);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.NextBelow(12);
    PropertyVector c = RandomVector(rng, n);
    EXPECT_TRUE(WeaklyDominates(c, c));  // ⪰ is reflexive.
    // Constructed chain a ⪰ b ⪰ c must close: a ⪰ c (transitivity).
    PropertyVector b = BumpedUp(rng, c);
    PropertyVector a = BumpedUp(rng, b);
    ASSERT_TRUE(WeaklyDominates(b, c));
    ASSERT_TRUE(WeaklyDominates(a, b));
    EXPECT_TRUE(WeaklyDominates(a, c));
    // And on unconstrained random triples whenever the premises hold.
    PropertyVector x = RandomVector(rng, n);
    PropertyVector y = RandomVector(rng, n);
    PropertyVector z = RandomVector(rng, n);
    if (WeaklyDominates(x, y) && WeaklyDominates(y, z)) {
      EXPECT_TRUE(WeaklyDominates(x, z));
    }
  }
}

TEST_P(ComparatorLaws, StrongDominanceIsIrreflexiveAndAsymmetric) {
  Rng rng(GetParam() + 50);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.NextBelow(12);
    PropertyVector a = RandomVector(rng, n);
    PropertyVector b = RandomVector(rng, n);
    EXPECT_FALSE(StronglyDominates(a, a));  // ≻ is irreflexive.
    if (StronglyDominates(a, b)) {          // ≻ is asymmetric.
      EXPECT_FALSE(StronglyDominates(b, a));
      // ...and strictly stronger than ⪰.
      EXPECT_TRUE(WeaklyDominates(a, b));
    }
  }
}

TEST_P(ComparatorLaws, CoverageSumIsAtLeastOneWithEqualityIffNoTies) {
  Rng rng(GetParam() + 60);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.NextBelow(64);
    // Tie-heavy small ints half the time, continuous (tie-free) otherwise.
    bool continuous = rng.NextBool(0.5);
    std::vector<double> v1(n);
    std::vector<double> v2(n);
    size_t ties = 0;
    for (size_t i = 0; i < n; ++i) {
      if (continuous) {
        v1[i] = rng.NextDouble();
        v2[i] = rng.NextDouble();
      } else {
        v1[i] = static_cast<double>(rng.NextInt(1, 4));
        v2[i] = static_cast<double>(rng.NextInt(1, 4));
      }
      if (v1[i] == v2[i]) ++ties;
    }
    PropertyVector d1("d1", std::move(v1));
    PropertyVector d2("d2", std::move(v2));
    double cov12 = CoverageIndex(d1, d2);
    double cov21 = CoverageIndex(d2, d1);
    // Every position is covered in at least one direction, tied positions
    // in both: cov12 + cov21 = (n + ties) / n. The n/ties form is exact;
    // the summed-quotient form needs an ulp of slack (e.g. 3/7 + 4/7).
    double sum = cov12 + cov21;
    double expected =
        static_cast<double>(n + ties) / static_cast<double>(n);
    EXPECT_NEAR(sum, expected, 1e-12);
    EXPECT_GE(sum, 1.0 - 1e-12);
    if (ties == 0) {
      EXPECT_NEAR(sum, 1.0, 1e-12);
    } else {
      // ties >= 1 puts the sum at least 1/n above 1 — far beyond slack.
      EXPECT_GT(sum, 1.0 + 0.5 / static_cast<double>(n));
    }
  }
}

TEST_P(ComparatorLaws, SpreadIsNonNegativeAndZeroIffWeaklyDominated) {
  Rng rng(GetParam() + 70);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.NextBelow(32);
    PropertyVector d1 = RandomVector(rng, n);
    PropertyVector d2 = RandomVector(rng, n);
    double spr12 = SpreadIndex(d1, d2);
    EXPECT_GE(spr12, 0.0);
    // P_spr(D1, D2) = 0 ⟺ D2 ⪰ D1 (no position where D1 exceeds D2).
    EXPECT_EQ(spr12 == 0.0, WeaklyDominates(d2, d1));
    // Constructed dominated pair: the ⟸ direction is actually exercised.
    PropertyVector up = BumpedUp(rng, d1);
    EXPECT_EQ(SpreadIndex(d1, up), 0.0);
  }
}

TEST_P(ComparatorLaws, HypervolumeIsConsistentWithDominance) {
  Rng rng(GetParam() + 80);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.NextBelow(8);
    PropertyVector b = RandomVector(rng, n);  // Positive by construction.
    PropertyVector a = BumpedUp(rng, b);      // a ⪰ b.
    // a ⪰ b ⟹ min(a, b) = b pointwise ⟹ P_hv(b, a) = 0.
    EXPECT_EQ(HypervolumeIndex(b, a), 0.0);
    EXPECT_GE(HypervolumeIndex(a, b), 0.0);
    if (StronglyDominates(a, b)) {
      // Strict dominance strictly grows the solely-dominated volume.
      EXPECT_GT(HypervolumeIndex(a, b), 0.0);
      EXPECT_TRUE(HypervolumeBetter(a, b));
    }
  }
}

TEST_P(ComparatorLaws, InsufficiencyWitnessesAcrossScales) {
  // Theorem 1 at N ∈ {2, 16, 1024}: the standard aggregate battery is
  // coordinate-symmetric, so the swap pair defeats it at every scale, and
  // randomized search independently finds a violation.
  Rng rng(GetParam() + 90);
  for (size_t n : {2u, 16u, 1024u}) {
    InsufficiencyWitness swap_witness =
        SwapCounterexample(StandardUnaryIndices(), n);
    ASSERT_TRUE(swap_witness.found) << "n = " << n;
    EXPECT_EQ(swap_witness.d1.size(), n);
    EXPECT_TRUE(NonDominated(swap_witness.d1, swap_witness.d2));
    InsufficiencyWitness random_witness =
        FindEquivalenceViolation(StandardUnaryIndices(), n, rng,
                                 /*max_trials=*/2000);
    EXPECT_TRUE(random_witness.found) << "n = " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComparatorLaws,
                         ::testing::Values(31, 37, 41));

}  // namespace
}  // namespace mdc
