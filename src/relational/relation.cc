#include "relational/relation.h"

#include <algorithm>
#include <sstream>

#include "util/table.h"

namespace probe::relational {

int Schema::IndexOf(const std::string& name) const {
  for (int i = 0; i < column_count(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return -1;
}

bool Schema::NamesUnique() const {
  for (int i = 0; i < column_count(); ++i) {
    for (int j = i + 1; j < column_count(); ++j) {
      if (columns_[i].name == columns_[j].name) return false;
    }
  }
  return true;
}

void Relation::SortBy(const std::string& column_name) {
  const int col = schema_.IndexOf(column_name);
  assert(col >= 0);
  std::stable_sort(rows_.begin(), rows_.end(),
                   [col](const Tuple& a, const Tuple& b) {
                     return ValueLess(a[col], b[col]);
                   });
}

std::string Relation::ToText(size_t max_rows) const {
  std::vector<std::string> headers;
  for (int i = 0; i < schema_.column_count(); ++i) {
    headers.push_back(schema_.column(i).name);
  }
  util::Table table(std::move(headers));
  const size_t limit = std::min(max_rows, rows_.size());
  for (size_t i = 0; i < limit; ++i) {
    table.AddRow();
    for (const Value& v : rows_[i]) table.Cell(ValueToString(v));
  }
  std::ostringstream out;
  table.Print(out);
  if (limit < rows_.size()) {
    out << "  ... " << (rows_.size() - limit) << " more rows\n";
  }
  return out.str();
}

}  // namespace probe::relational
