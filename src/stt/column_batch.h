// StreamLoader: columnar view over a run of tuples.
//
// A ColumnBatch presents a run of same-schema tuples as typed per-
// property value vectors (plus null and type-mismatch masks) and a
// selection vector of the rows still alive. It is built once from a
// delivered run (the threaded runtime's batched ring message) and
// decoded lazily: only the properties an expression actually reads are
// ever columnarized.
// Stateless operators evaluate whole columns at a time (expr/
// vector_program.h), narrow the selection (filter) or overwrite/append
// a computed column (transform, virtual property), and convert back to
// TupleRefs only at the stateful/sink boundary — where a row that was
// never rewritten hands back the *original* ref, pointer-identical to
// what the per-tuple path would have forwarded.

#ifndef STREAMLOADER_STT_COLUMN_BATCH_H_
#define STREAMLOADER_STT_COLUMN_BATCH_H_

#include <cstdint>
#include <vector>

#include "stt/tuple.h"

namespace sl::stt {

/// \brief Typed columnar view over a run of tuples sharing one schema.
class ColumnBatch {
 public:
  /// One decoded property. Exactly one of the typed vectors is
  /// populated, chosen by the *declared* field type; kString/kGeoPoint
  /// stay boxed (read through value()). A row whose dynamic type
  /// contradicts the declaration is flagged in `bad8` — the vectorized
  /// evaluator surfaces it as the same per-tuple type error the scalar
  /// path raises, but only if the program actually reads the column.
  struct Column {
    ValueType decl = ValueType::kNull;  ///< declared field type
    std::vector<uint8_t> null8;         ///< 1 = value is null
    std::vector<uint8_t> bad8;          ///< 1 = non-null type mismatch
    bool any_bad = false;
    std::vector<int64_t> i64;   ///< kInt / kTimestamp payloads
    std::vector<double> f64;    ///< kDouble payloads
    std::vector<uint8_t> b8;    ///< kBool payloads
  };

  /// Decoded $lat/$lon metadata (null when the tuple has no location).
  struct GeoColumns {
    std::vector<double> lat;
    std::vector<double> lon;
    std::vector<uint8_t> null8;  ///< 1 = no location
  };

  /// Builds the view over `tuples[0..n)`; every tuple must conform to
  /// `schema` (operators guarantee this). Selection starts as all rows.
  ColumnBatch(SchemaPtr schema, const TupleRef* tuples, size_t n);

  size_t rows() const { return rows_; }
  const SchemaPtr& schema() const { return schema_; }
  const TupleRef& row(size_t r) const { return tuples_[r]; }

  /// Direct (boxed) access to one cell — the slow path the vectorized
  /// evaluator uses for strings, geo points and error rendering. Reads
  /// through to a computed column when one overwrote the original.
  const Value& value(size_t r, size_t col) const;

  /// Rows still alive, ascending. Filters narrow this in place.
  const std::vector<uint32_t>& selection() const { return selection_; }
  std::vector<uint32_t>& mutable_selection() { return selection_; }

  /// Lazily decodes and returns property column `i` (full width; masks
  /// and payloads are indexed by row, not by selection position).
  const Column& column(size_t i);

  /// Lazily decoded event-time column ($ts).
  const std::vector<int64_t>& ts_column();

  /// Lazily decoded location columns ($lat/$lon).
  const GeoColumns& geo_columns();

  /// \brief Replaces property `col` with computed values — `values`
  /// holds one entry per *selected* row, aligned with selection().
  /// `new_schema` is the stage's output schema (transform).
  void OverwriteColumn(size_t col, std::vector<Value> values,
                       SchemaPtr new_schema);

  /// Appends a computed property (virtual property); `values` aligned
  /// with selection() as above.
  void AppendColumn(std::vector<Value> values, SchemaPtr new_schema);

  /// \brief Converts the selected row at selection position `pos` back
  /// to a TupleRef. Rows with no computed column return the original
  /// ref (no allocation, pointer identity with the per-tuple path);
  /// rewritten rows mint a fresh tuple exactly as Tuple::WithValueAt /
  /// WithAppended would (ts/location/sensor preserved, byte memo
  /// reset by construction).
  TupleRef MaterializeRow(size_t pos) const;

 private:
  void Decode(size_t col);

  SchemaPtr schema_;
  const TupleRef* tuples_ = nullptr;
  size_t rows_ = 0;
  std::vector<uint32_t> selection_;
  std::vector<Column> columns_;
  std::vector<uint8_t> decoded_;
  /// Computed (overwritten/appended) columns, full width, valid at
  /// selected rows only; empty vector = column untouched.
  std::vector<std::vector<Value>> computed_;
  bool any_computed_ = false;
  std::vector<int64_t> ts_;
  bool ts_decoded_ = false;
  GeoColumns geo_;
  bool geo_decoded_ = false;
};

}  // namespace sl::stt

#endif  // STREAMLOADER_STT_COLUMN_BATCH_H_
