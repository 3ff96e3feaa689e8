// Cross-family ranking under the permutation paradigm (docs/permutation.md):
// two perturbative releases (rank swapping, microaggregation) and two
// generalization releases (Datafly, Mondrian) of the same census sample are
// reduced to their Def.-1 permutation property vectors and ranked with the
// Table-4 all-pairs engine. Rank displacement is the common currency, so
// for the first time the framework compares mechanisms ACROSS backend
// families. The driver sticks to RNG-and-libm-free mechanisms plus exact
// rank arithmetic so its stdout is a stable golden artifact
// (tests/golden/repro_permutation.txt); the final section cross-checks the
// packed engine against the scalar oracle.

#include <cstdio>
#include <string>
#include <vector>

#include "anonymize/datafly.h"
#include "anonymize/mondrian.h"
#include "anonymize/perturb/perturb.h"
#include "common/check.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/compare_engine.h"
#include "core/permutation_metrics.h"
#include "core/property_matrix.h"
#include "datagen/census_generator.h"
#include "oracle/comparison.h"

using namespace mdc;

namespace {

struct Modeled {
  std::string name;
  PermutationModel model;
};

Modeled Rename(std::string name, PermutationModel model) {
  model.privacy = PropertyVector(name + "-privacy", model.privacy.values());
  model.utility = PropertyVector(name + "-utility", model.utility.values());
  return Modeled{std::move(name), std::move(model)};
}

}  // namespace

int main() {
  std::printf("permutation paradigm: cross-family mechanism ranking\n");
  std::printf("====================================================\n\n");

  CensusConfig census;
  census.rows = 48;
  census.seed = 11;
  census.with_occupation = false;
  auto generated = GenerateCensus(census);
  MDC_CHECK(generated.ok());
  const CensusData& data = *generated;

  std::vector<Modeled> releases;

  PerturbConfig rankswap;
  rankswap.mechanism = PerturbMechanism::kRankSwap;
  rankswap.swap_window = 0.25;
  rankswap.seed = 5;
  auto swapped = PerturbAnonymize(data.data, rankswap);
  MDC_CHECK(swapped.ok());
  auto swapped_model = PermutationModelFor(swapped->anonymization, nullptr);
  MDC_CHECK(swapped_model.ok());
  releases.push_back(Rename("rankswap", std::move(*swapped_model)));

  PerturbConfig microagg;
  microagg.mechanism = PerturbMechanism::kMicroaggregation;
  microagg.k = 4;
  auto aggregated = PerturbAnonymize(data.data, microagg);
  MDC_CHECK(aggregated.ok());
  auto aggregated_model =
      PermutationModelFor(aggregated->anonymization, nullptr);
  MDC_CHECK(aggregated_model.ok());
  releases.push_back(Rename("microagg", std::move(*aggregated_model)));

  DataflyConfig datafly;
  datafly.k = 3;
  auto generalized = DataflyAnonymize(data.data, data.hierarchies, datafly);
  MDC_CHECK(generalized.ok());
  auto generalized_model =
      PermutationModelFor(generalized->evaluation.anonymization,
                          &generalized->evaluation.partition);
  MDC_CHECK(generalized_model.ok());
  releases.push_back(Rename("datafly", std::move(*generalized_model)));

  MondrianConfig mondrian;
  mondrian.k = 3;
  auto partitioned = MondrianAnonymize(data.data, mondrian);
  MDC_CHECK(partitioned.ok());
  auto partitioned_model =
      PermutationModelFor(partitioned->anonymization, &partitioned->partition);
  MDC_CHECK(partitioned_model.ok());
  releases.push_back(Rename("mondrian", std::move(*partitioned_model)));

  for (const Modeled& release : releases) {
    std::printf("--- %s ---\n%s\n", release.name.c_str(),
                PermutationModelSummary(release.model).c_str());
  }

  for (const bool privacy_dimension : {true, false}) {
    const std::string dimension = privacy_dimension ? "privacy" : "utility";
    PropertySet set;
    for (const Modeled& release : releases) {
      set.push_back(privacy_dimension ? release.model.privacy
                                      : release.model.utility);
    }
    auto matrix = PropertyMatrix::FromSet(set);
    MDC_CHECK(matrix.ok());
    AllPairsOptions options;
    options.d_max =
        PropertyVector("ideal", std::vector<double>(matrix->cols(), 1.0));
    auto packed = AllPairsCompare(*matrix, options);
    MDC_CHECK(packed.ok());

    std::printf("Table-4 dominance on the %s vectors\n", dimension.c_str());
    TextTable table;
    table.SetHeader({"pair", "relation", "cov12", "cov21", "spr12", "spr21"});
    for (const PairComparison& pair : packed->pairs) {
      table.AddRow({releases[pair.first].name + " vs " +
                        releases[pair.second].name,
                    DominanceRelationName(pair.relation),
                    FormatDouble(pair.cov12, 4), FormatDouble(pair.cov21, 4),
                    FormatDouble(pair.spr12, 4),
                    FormatDouble(pair.spr21, 4)});
    }
    std::printf("%s", table.Render().c_str());
    TextTable ranks;
    ranks.SetHeader({"release", "P_rank"});
    for (size_t r = 0; r < releases.size(); ++r) {
      ranks.AddRow({releases[r].name, FormatDouble(packed->ranks[r], 4)});
    }
    std::printf("%s\n", ranks.Render().c_str());

    // The differential cross-check every repro driver with a packed
    // section carries: the scalar reference must agree exactly.
    auto scalar = oracle::AllPairsCompareScalar(*matrix, options);
    MDC_CHECK(scalar.ok());
    bool identical = scalar->pairs.size() == packed->pairs.size();
    for (size_t i = 0; identical && i < scalar->pairs.size(); ++i) {
      const PairComparison& a = scalar->pairs[i];
      const PairComparison& b = packed->pairs[i];
      identical = a.relation == b.relation && a.cov12 == b.cov12 &&
                  a.cov21 == b.cov21 && a.spr12 == b.spr12 &&
                  a.spr21 == b.spr21 && a.rank1 == b.rank1 &&
                  a.rank2 == b.rank2;
    }
    std::printf("packed-vs-scalar cross-check (%s): %s\n\n",
                dimension.c_str(), identical ? "ok" : "MISMATCH");
  }
  return 0;
}
