// StreamLoader test-only reference: the blocking aggregation and join
// of Table 1 in their original form.
//
// The aggregation recomputes every window from the raw cache, grouping
// through an ordered map; the join enumerates the cross product of its
// two caches and materializes each pair before evaluating the full
// predicate. Both are built from the public window primitives of
// ops/tuple_cache.h (TupleCache, WindowView, EventWindow, SeqSignature)
// and the base class's late policy, with no indexes and no incremental
// state. The production operators (ops/operators.cc) must reproduce
// them bit for bit: the same rows in the same order, the same late rows
// and the same counters. Tests and benchmarks link this library; no
// target under src/ does.

#ifndef STREAMLOADER_TESTS_REFERENCE_BLOCKING_H_
#define STREAMLOADER_TESTS_REFERENCE_BLOCKING_H_

#include <memory>
#include <string>
#include <vector>

#include "dataflow/op_spec.h"
#include "ops/operator.h"
#include "stt/schema.h"
#include "util/result.h"

namespace sl::reference {

/// \brief Builds the reference operator for an aggregation or a join.
///
/// Takes ops::MakeOperator's arguments and derives the output schema
/// the same way. `options` supplies the cache bound and the event-time
/// configuration. The reference is single-instance only: a spec with
/// parallelism > 1 is rejected, and so is every other operator kind.
Result<std::unique_ptr<ops::Operator>> MakeBlockingReference(
    const std::string& name, dataflow::OpKind kind,
    const dataflow::OpSpec& spec,
    const std::vector<stt::SchemaPtr>& input_schemas,
    const std::vector<std::string>& input_names,
    const ops::OperatorOptions& options = {});

}  // namespace sl::reference

#endif  // STREAMLOADER_TESTS_REFERENCE_BLOCKING_H_
