#ifndef PROBE_RELATIONAL_RELATION_H_
#define PROBE_RELATIONAL_RELATION_H_

#include <cassert>
#include <string>
#include <vector>

#include "relational/value.h"

/// \file
/// Schemas, tuples, and relations.
///
/// A deliberately small in-memory relational substrate: enough to express
/// the paper's Section 4 scenario — Decompose object relations into
/// element relations, spatial-join them, project out the redundancy — with
/// real operators rather than pseudo-code.

namespace probe::relational {

/// A named, typed column.
struct Column {
  std::string name;
  ValueType type = ValueType::kInt;
};

/// An ordered list of columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  int column_count() const { return static_cast<int>(columns_.size()); }
  const Column& column(int i) const { return columns_[i]; }

  /// Index of the column named `name`, or -1.
  int IndexOf(const std::string& name) const;

  /// True iff no two columns share a name.
  bool NamesUnique() const;

 private:
  std::vector<Column> columns_;
};

/// One row: values positionally matching a schema.
using Tuple = std::vector<Value>;

/// An in-memory relation: a schema plus a bag of tuples.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }
  const Tuple& row(size_t i) const { return rows_[i]; }
  const std::vector<Tuple>& rows() const { return rows_; }

  /// Appends a tuple; its arity must match the schema.
  void Add(Tuple tuple) {
    assert(static_cast<int>(tuple.size()) == schema_.column_count());
    rows_.push_back(std::move(tuple));
  }

  /// Pre-sizes the row storage for `rows` tuples (operators that know
  /// their output cardinality — or a bound on it — avoid regrowth).
  void Reserve(size_t rows) { rows_.reserve(rows); }

  /// Sorts rows by the named column (stable).
  void SortBy(const std::string& column_name);

  /// Renders the first `max_rows` rows as an aligned text table.
  std::string ToText(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
};

}  // namespace probe::relational

#endif  // PROBE_RELATIONAL_RELATION_H_
