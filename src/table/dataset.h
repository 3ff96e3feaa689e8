// In-memory row-store microdata set.
//
// A Dataset is an immutable-schema, mutable-rows table. Both original
// microdata and anonymized releases are Datasets; anonymized cells hold
// generalized labels (string Values) in the quasi-identifier columns while
// sensitive columns keep their original values (the paper's Tables 2–3 show
// exactly this shape).

#ifndef MDC_TABLE_DATASET_H_
#define MDC_TABLE_DATASET_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "table/schema.h"
#include "table/value.h"

namespace mdc {

class Dataset {
 public:
  using Row = std::vector<Value>;

  // An empty dataset with an empty schema; useful as a placeholder in
  // result structs that are filled in later.
  Dataset() = default;

  explicit Dataset(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t row_count() const { return rows_.size(); }
  size_t column_count() const { return schema_.attribute_count(); }

  // Appends a row; fails if arity or value types disagree with the schema.
  Status AppendRow(Row row);

  // Pre-allocates capacity for `rows` rows (callers that know the final
  // size, e.g. Generalizer::Apply, avoid repeated growth).
  void ReserveRows(size_t rows) { rows_.reserve(rows); }

  const Row& row(size_t index) const;
  const Value& cell(size_t row, size_t column) const;
  void set_cell(size_t row, size_t column, Value value);

  // All values of one column, in row order.
  std::vector<Value> Column(size_t column) const;

  // The cells of several columns as doubles, read in one row-major sweep
  // (each row is visited once, not once per column).
  struct NumericColumns {
    // values[i][r] = cell(r, columns[i]).AsNumber(); 0 for a string cell.
    std::vector<std::vector<double>> values;
    // has_string[i]: column i holds a string cell (a generalized label in
    // a release), so values[i] is not the whole column.
    std::vector<bool> has_string;
  };
  NumericColumns GatherNumeric(const std::vector<size_t>& columns) const;

  // Distinct values of one column, sorted.
  std::vector<Value> DistinctValues(size_t column) const;

  // [min, max] of a numeric column; fails on empty data or string column.
  StatusOr<std::pair<double, double>> NumericRange(size_t column) const;

  // Parses CSV `text` whose header must match the schema attribute names
  // in order; cells are parsed per the schema types.
  static StatusOr<Dataset> FromCsv(const Schema& schema,
                                   std::string_view text);

  // Serializes with a header row.
  std::string ToCsv() const;

  // Aligned console rendering (used by examples and repro binaries).
  std::string ToText() const;

 private:
  Schema schema_;
  std::vector<Row> rows_;
};

}  // namespace mdc

#endif  // MDC_TABLE_DATASET_H_
