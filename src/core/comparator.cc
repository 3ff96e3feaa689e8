#include "core/comparator.h"

#include "core/dominance.h"
#include "core/quality_index.h"

namespace mdc {
namespace {

ComparatorOutcome FromScalars(double first, double second,
                              double epsilon = 0.0) {
  if (first > second + epsilon) return ComparatorOutcome::kFirstBetter;
  if (second > first + epsilon) return ComparatorOutcome::kSecondBetter;
  return ComparatorOutcome::kEquivalent;
}

class DominanceComparator final : public Comparator {
 public:
  std::string Name() const override { return "dominance"; }
  ComparatorOutcome Compare(const PropertyVector& d1,
                            const PropertyVector& d2) const override {
    switch (CompareDominance(d1, d2)) {
      case DominanceRelation::kEqual:
        return ComparatorOutcome::kEquivalent;
      case DominanceRelation::kFirstDominates:
        return ComparatorOutcome::kFirstBetter;
      case DominanceRelation::kSecondDominates:
        return ComparatorOutcome::kSecondBetter;
      case DominanceRelation::kIncomparable:
        return ComparatorOutcome::kIncomparable;
    }
    return ComparatorOutcome::kIncomparable;
  }
};

class MinComparator final : public Comparator {
 public:
  std::string Name() const override { return "min-better"; }
  ComparatorOutcome Compare(const PropertyVector& d1,
                            const PropertyVector& d2) const override {
    return FromScalars(MinIndex(d1), MinIndex(d2));
  }
};

class RankComparator final : public Comparator {
 public:
  RankComparator(PropertyVector d_max, double epsilon, double p)
      : d_max_(std::move(d_max)), epsilon_(epsilon), p_(p) {
    MDC_CHECK_GE(epsilon, 0.0);
  }
  std::string Name() const override { return "rank-better"; }
  ComparatorOutcome Compare(const PropertyVector& d1,
                            const PropertyVector& d2) const override {
    // Lower rank (closer to the ideal) is better: flip the scalar order.
    return FromScalars(-RankIndex(d1, d_max_, p_), -RankIndex(d2, d_max_, p_),
                       epsilon_);
  }

 private:
  PropertyVector d_max_;
  double epsilon_;
  double p_;
};

class CoverageComparator final : public Comparator {
 public:
  std::string Name() const override { return "cov-better"; }
  ComparatorOutcome Compare(const PropertyVector& d1,
                            const PropertyVector& d2) const override {
    return FromScalars(CoverageIndex(d1, d2), CoverageIndex(d2, d1));
  }
};

class SpreadComparator final : public Comparator {
 public:
  std::string Name() const override { return "spr-better"; }
  ComparatorOutcome Compare(const PropertyVector& d1,
                            const PropertyVector& d2) const override {
    return FromScalars(SpreadIndex(d1, d2), SpreadIndex(d2, d1));
  }
};

class HypervolumeComparator final : public Comparator {
 public:
  std::string Name() const override { return "hv-better"; }
  ComparatorOutcome Compare(const PropertyVector& d1,
                            const PropertyVector& d2) const override {
    return FromScalars(HypervolumeIndex(d1, d2), HypervolumeIndex(d2, d1));
  }
};

}  // namespace

const char* ComparatorOutcomeName(ComparatorOutcome outcome) {
  switch (outcome) {
    case ComparatorOutcome::kFirstBetter:
      return "first better";
    case ComparatorOutcome::kSecondBetter:
      return "second better";
    case ComparatorOutcome::kEquivalent:
      return "equivalent";
    case ComparatorOutcome::kIncomparable:
      return "incomparable";
  }
  return "unknown";
}

std::unique_ptr<Comparator> MakeDominanceComparator() {
  return std::make_unique<DominanceComparator>();
}

std::unique_ptr<Comparator> MakeMinComparator() {
  return std::make_unique<MinComparator>();
}

std::unique_ptr<Comparator> MakeRankComparator(PropertyVector d_max,
                                               double epsilon, double p) {
  return std::make_unique<RankComparator>(std::move(d_max), epsilon, p);
}

std::unique_ptr<Comparator> MakeCoverageComparator() {
  return std::make_unique<CoverageComparator>();
}

std::unique_ptr<Comparator> MakeSpreadComparator() {
  return std::make_unique<SpreadComparator>();
}

std::unique_ptr<Comparator> MakeHypervolumeComparator() {
  return std::make_unique<HypervolumeComparator>();
}

}  // namespace mdc
