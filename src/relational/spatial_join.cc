#include "relational/spatial_join.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "probe/check.h"
#include "zorder/zvalue.h"

namespace probe::relational {

namespace {

using zorder::ZValue;

// A z-sorted view of one input: row indices ordered by the z column.
std::vector<size_t> SortedOrder(const Relation& rel, int z_col) {
  std::vector<size_t> order(rel.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ValueLess(rel.row(a)[z_col], rel.row(b)[z_col]);
  });
  return order;
}

const ZValue& ZOf(const Relation& rel, size_t row, int z_col) {
  return std::get<ZValue>(rel.row(row)[z_col]);
}

// The resolved inputs of one join.
struct JoinInputs {
  const Relation& r;
  int zr;
  const Relation& s;
  int zs;
  const std::vector<size_t>& r_order;
  const std::vector<size_t>& s_order;
};

// A contiguous slice of both sorted orders: r_order[i_begin, i_end) and
// s_order[j_begin, j_end).
struct JoinSlice {
  size_t i_begin = 0;
  size_t i_end = 0;
  size_t j_begin = 0;
  size_t j_end = 0;
};

// The containment-stack merge of Section 4 over one slice. `emit` receives
// (r_row, s_row) for every overlapping pair, in the serial join's order.
// Counters accumulate into `stats` (pairs are counted by the caller's
// emit, not here).
template <typename Emit>
void MergeSlice(const JoinInputs& in, const JoinSlice& slice,
                const Emit& emit, SpatialJoinStats* stats) {
  // Stacks of open elements (row indices); each stack is a chain of
  // prefixes by the nesting theorem of Section 3.2.
  std::vector<size_t> r_stack, s_stack;

  // Merge-order invariants: the merge position never moves backwards in z,
  // and each containment stack stays a chain of prefixes top to bottom.
  check::ZMonotone merge_order(/*strict=*/false);
#if PROBE_AUDIT_ENABLED
  auto audit_chain = [&](const Relation& rel, int z_col,
                         const std::vector<size_t>& stack) {
    for (size_t d = 1; d < stack.size(); ++d) {
      PROBE_ASSERT_MSG(
          ZOf(rel, stack[d - 1], z_col).Contains(ZOf(rel, stack[d], z_col)),
          "spatial-join stack is not a prefix chain");
    }
  };
#endif

  size_t i = slice.i_begin;  // position in r_order
  size_t j = slice.j_begin;  // position in s_order
  while (i < slice.i_end || j < slice.j_end) {
    // Take the smaller next z value; ties go to R (either order works —
    // equal z values contain each other, and the pair is emitted when the
    // second of the two is processed.)
    bool take_r;
    if (i >= slice.i_end) {
      take_r = false;
    } else if (j >= slice.j_end) {
      take_r = true;
    } else {
      take_r = !(ZOf(in.s, in.s_order[j], in.zs) <
                 ZOf(in.r, in.r_order[i], in.zr));
    }

    const ZValue& z = take_r ? ZOf(in.r, in.r_order[i], in.zr)
                             : ZOf(in.s, in.s_order[j], in.zs);

    // Close elements whose range ended before z: an open element stays
    // open iff its z value is a prefix of the current one.
    while (!r_stack.empty() &&
           !ZOf(in.r, r_stack.back(), in.zr).Contains(z)) {
      r_stack.pop_back();
    }
    while (!s_stack.empty() &&
           !ZOf(in.s, s_stack.back(), in.zs).Contains(z)) {
      s_stack.pop_back();
    }

    PROBE_AUDIT(
        merge_order.Observe(z.RangeLo(ZValue::kMaxBits), "spatial-join merge"));

    // Every open element of the other side contains z, hence overlaps it.
    if (take_r) {
      for (size_t s_row : s_stack) emit(in.r_order[i], s_row);
      r_stack.push_back(in.r_order[i]);
      PROBE_AUDIT(audit_chain(in.r, in.zr, r_stack));
      ++i;
    } else {
      for (size_t r_row : r_stack) emit(r_row, in.s_order[j]);
      s_stack.push_back(in.s_order[j]);
      PROBE_AUDIT(audit_chain(in.s, in.zs, s_stack));
      ++j;
    }
    if (stats != nullptr) {
      stats->max_stack_depth =
          std::max({stats->max_stack_depth, r_stack.size(), s_stack.size()});
    }
  }
}

// Builds the concatenated output row for a pair. Reserves once and bulk-
// copies each side (the emission path is the join's hot loop).
Tuple CombineRows(const JoinInputs& in, int out_columns, size_t r_row,
                  size_t s_row) {
  Tuple combined;
  combined.reserve(static_cast<size_t>(out_columns));
  const Tuple& a = in.r.row(r_row);
  const Tuple& b = in.s.row(s_row);
  combined.insert(combined.end(), a.begin(), a.end());
  combined.insert(combined.end(), b.begin(), b.end());
  return combined;
}

// Cuts both sorted orders into at most `partitions` slices at open-
// element-free boundaries: positions in the merged z sequence where the
// next element's range starts after every earlier element's range has
// ended. At such a position the serial merge's stacks are empty (nothing
// contains the next z value) and no later element can pair with an earlier
// one, so the slices join independently. Always returns at least one
// slice.
std::vector<JoinSlice> CutSlices(const JoinInputs& in, int partitions) {
  const size_t nr = in.r_order.size();
  const size_t ns = in.s_order.size();
  std::vector<JoinSlice> slices;
  const size_t total = nr + ns;
  if (partitions <= 1 || total == 0) {
    slices.push_back(JoinSlice{0, nr, 0, ns});
    return slices;
  }
  const size_t target =
      std::max<size_t>(1, total / static_cast<size_t>(partitions));

  size_t i = 0, j = 0;
  size_t last_i = 0, last_j = 0;
  // Largest full-resolution z value covered by any element processed so
  // far; the next element cuts iff its range starts beyond it.
  uint64_t max_hi = 0;
  bool any = false;
  while (i < nr || j < ns) {
    bool take_r;
    if (i >= nr) {
      take_r = false;
    } else if (j >= ns) {
      take_r = true;
    } else {
      take_r = !(ZOf(in.s, in.s_order[j], in.zs) <
                 ZOf(in.r, in.r_order[i], in.zr));
    }
    const ZValue& z = take_r ? ZOf(in.r, in.r_order[i], in.zr)
                             : ZOf(in.s, in.s_order[j], in.zs);
    const size_t processed = (i - last_i) + (j - last_j);
    if (any && processed >= target && z.RangeLo(ZValue::kMaxBits) > max_hi) {
      slices.push_back(JoinSlice{last_i, i, last_j, j});
      last_i = i;
      last_j = j;
      if (slices.size() + 1 == static_cast<size_t>(partitions)) break;
    }
    max_hi = std::max(max_hi, z.RangeHi(ZValue::kMaxBits));
    any = true;
    if (take_r) {
      ++i;
    } else {
      ++j;
    }
  }
  slices.push_back(JoinSlice{last_i, nr, last_j, ns});
  return slices;
}

}  // namespace

Schema JoinSchema(const Schema& r, const Schema& s) {
  std::vector<Column> columns;
  columns.reserve(static_cast<size_t>(r.column_count() + s.column_count()));
  for (int i = 0; i < r.column_count(); ++i) columns.push_back(r.column(i));
  auto taken = [&columns](const std::string& name) {
    return std::any_of(columns.begin(), columns.end(),
                       [&name](const Column& c) { return c.name == name; });
  };
  for (int i = 0; i < s.column_count(); ++i) {
    Column column = s.column(i);
    while (taken(column.name)) column.name = "s_" + column.name;
    columns.push_back(std::move(column));
  }
  return Schema(std::move(columns));
}

Relation SpatialJoin(const Relation& r, const std::string& zr_column,
                     const Relation& s, const std::string& zs_column,
                     SpatialJoinStats* stats) {
  const int zr = r.schema().IndexOf(zr_column);
  const int zs = s.schema().IndexOf(zs_column);
  assert(zr >= 0 && zs >= 0);
  assert(r.schema().column(zr).type == ValueType::kZValue);
  assert(s.schema().column(zs).type == ValueType::kZValue);

  const Schema out_schema = JoinSchema(r.schema(), s.schema());
  assert(out_schema.NamesUnique());
  Relation out(out_schema);
  out.Reserve(std::max(r.size(), s.size()));

  const std::vector<size_t> r_order = SortedOrder(r, zr);
  const std::vector<size_t> s_order = SortedOrder(s, zs);
  const JoinInputs in{r, zr, s, zs, r_order, s_order};
  const int out_columns = out_schema.column_count();

  auto emit = [&](size_t r_row, size_t s_row) {
    out.Add(CombineRows(in, out_columns, r_row, s_row));
    if (stats != nullptr) ++stats->pairs;
  };
  MergeSlice(in, JoinSlice{0, r_order.size(), 0, s_order.size()}, emit,
             stats);

  if (stats != nullptr) {
    stats->r_rows = r.size();
    stats->s_rows = s.size();
    stats->partitions = 1;
  }
  return out;
}

Relation ParallelSpatialJoin(const Relation& r, const std::string& zr_column,
                             const Relation& s, const std::string& zs_column,
                             util::ThreadPool& pool, int partitions,
                             SpatialJoinStats* stats) {
  const int zr = r.schema().IndexOf(zr_column);
  const int zs = s.schema().IndexOf(zs_column);
  assert(zr >= 0 && zs >= 0);
  assert(r.schema().column(zr).type == ValueType::kZValue);
  assert(s.schema().column(zs).type == ValueType::kZValue);

  const Schema out_schema = JoinSchema(r.schema(), s.schema());
  assert(out_schema.NamesUnique());
  Relation out(out_schema);
  const int out_columns = out_schema.column_count();

  const std::vector<size_t> r_order = SortedOrder(r, zr);
  const std::vector<size_t> s_order = SortedOrder(s, zs);
  const JoinInputs in{r, zr, s, zs, r_order, s_order};

  const int want = partitions > 0 ? partitions : pool.lanes();
  const std::vector<JoinSlice> slices = CutSlices(in, want);

  std::vector<std::vector<Tuple>> partial(slices.size());
  std::vector<SpatialJoinStats> partial_stats(slices.size());
  pool.ParallelFor(slices.size(), [&](size_t k) {
    auto emit = [&](size_t r_row, size_t s_row) {
      partial[k].push_back(CombineRows(in, out_columns, r_row, s_row));
      ++partial_stats[k].pairs;
    };
    MergeSlice(in, slices[k], emit, &partial_stats[k]);
  });

  size_t total_pairs = 0;
  for (const auto& p : partial) total_pairs += p.size();
  out.Reserve(total_pairs);
  for (auto& p : partial) {
    for (Tuple& tuple : p) out.Add(std::move(tuple));
  }

  if (stats != nullptr) {
    stats->r_rows = r.size();
    stats->s_rows = s.size();
    stats->partitions = slices.size();
    for (const SpatialJoinStats& ps : partial_stats) {
      stats->pairs += ps.pairs;
      stats->max_stack_depth =
          std::max(stats->max_stack_depth, ps.max_stack_depth);
    }
  }
  return out;
}

}  // namespace probe::relational
