#include "table/dataset.h"

#include <algorithm>
#include <limits>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/text_table.h"

namespace mdc {

Status Dataset::AppendRow(Row row) {
  MDC_FAILPOINT("dataset.append_row");
  if (row.size() != schema_.attribute_count()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.attribute_count()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const AttributeDef& attr = schema_.attribute(i);
    bool type_ok = (attr.type == AttributeType::kInt && row[i].is_int()) ||
                   (attr.type == AttributeType::kReal && row[i].is_real()) ||
                   (attr.type == AttributeType::kString && row[i].is_string());
    if (!type_ok) {
      return Status::InvalidArgument("value type mismatch in column '" +
                                     attr.name + "'");
    }
  }
  rows_.push_back(std::move(row));
  return Status::Ok();
}

const Dataset::Row& Dataset::row(size_t index) const {
  MDC_CHECK_LT(index, rows_.size());
  return rows_[index];
}

const Value& Dataset::cell(size_t row, size_t column) const {
  MDC_CHECK_LT(row, rows_.size());
  MDC_CHECK_LT(column, schema_.attribute_count());
  return rows_[row][column];
}

void Dataset::set_cell(size_t row, size_t column, Value value) {
  MDC_CHECK_LT(row, rows_.size());
  MDC_CHECK_LT(column, schema_.attribute_count());
  rows_[row][column] = std::move(value);
}

std::vector<Value> Dataset::Column(size_t column) const {
  MDC_CHECK_LT(column, schema_.attribute_count());
  std::vector<Value> values;
  values.reserve(rows_.size());
  for (const Row& r : rows_) values.push_back(r[column]);
  return values;
}

Dataset::NumericColumns Dataset::GatherNumeric(
    const std::vector<size_t>& columns) const {
  for (size_t column : columns) {
    MDC_CHECK_LT(column, schema_.attribute_count());
  }
  NumericColumns out;
  out.values.assign(columns.size(), std::vector<double>(rows_.size(), 0.0));
  out.has_string.assign(columns.size(), false);
  for (size_t r = 0; r < rows_.size(); ++r) {
    const Row& row = rows_[r];
    for (size_t i = 0; i < columns.size(); ++i) {
      const Value& cell = row[columns[i]];
      if (cell.is_string()) {
        out.has_string[i] = true;
      } else {
        out.values[i][r] = cell.AsNumber();
      }
    }
  }
  return out;
}

std::vector<Value> Dataset::DistinctValues(size_t column) const {
  std::vector<Value> values = Column(column);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

StatusOr<std::pair<double, double>> Dataset::NumericRange(
    size_t column) const {
  MDC_CHECK_LT(column, schema_.attribute_count());
  if (rows_.empty()) {
    return Status::FailedPrecondition("NumericRange on empty dataset");
  }
  if (schema_.attribute(column).type == AttributeType::kString) {
    return Status::InvalidArgument("NumericRange on string column '" +
                                   schema_.attribute(column).name + "'");
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const Row& r : rows_) {
    double v = r[column].AsNumber();
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return std::make_pair(lo, hi);
}

StatusOr<Dataset> Dataset::FromCsv(const Schema& schema,
                                   std::string_view text) {
  MDC_FAILPOINT("dataset.from_csv");
  MDC_ASSIGN_OR_RETURN(auto rows, ParseCsv(text));
  if (rows.empty()) {
    return Status::InvalidArgument("CSV has no header row");
  }
  const std::vector<std::string>& header = rows[0];
  if (header.size() != schema.attribute_count()) {
    return Status::InvalidArgument("CSV header arity does not match schema");
  }
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] != schema.attribute(i).name) {
      return Status::InvalidArgument("CSV header column " +
                                     std::to_string(i) + " is '" + header[i] +
                                     "', expected '" +
                                     schema.attribute(i).name + "'");
    }
  }
  Dataset dataset(schema);
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != schema.attribute_count()) {
      return Status::InvalidArgument("CSV row " + std::to_string(r) +
                                     " has wrong arity");
    }
    Row row;
    row.reserve(schema.attribute_count());
    for (size_t c = 0; c < rows[r].size(); ++c) {
      MDC_ASSIGN_OR_RETURN(Value v,
                           Value::Parse(rows[r][c], schema.attribute(c).type));
      row.push_back(std::move(v));
    }
    MDC_RETURN_IF_ERROR(dataset.AppendRow(std::move(row)));
  }
  return dataset;
}

std::string Dataset::ToCsv() const {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header;
  for (const AttributeDef& attr : schema_.attributes()) {
    header.push_back(attr.name);
  }
  rows.push_back(std::move(header));
  for (const Row& r : rows_) {
    std::vector<std::string> out;
    out.reserve(r.size());
    for (const Value& v : r) out.push_back(v.ToString());
    rows.push_back(std::move(out));
  }
  return WriteCsv(rows);
}

std::string Dataset::ToText() const {
  TextTable table;
  std::vector<std::string> header = {"#"};
  for (const AttributeDef& attr : schema_.attributes()) {
    header.push_back(attr.name);
  }
  table.SetHeader(std::move(header));
  for (size_t i = 0; i < rows_.size(); ++i) {
    std::vector<std::string> row = {std::to_string(i + 1)};
    for (const Value& v : rows_[i]) row.push_back(v.ToString());
    table.AddRow(std::move(row));
  }
  return table.Render();
}

}  // namespace mdc
