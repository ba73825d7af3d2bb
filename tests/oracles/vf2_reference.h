// Test-only oracle: the recursive VF2 engine that predates compiled match
// plans. vf2_engine_test pins the compiled matcher's embedding sets, counts
// and (for default-seeded plans) enumeration order against it.

#pragma once

#include <cstddef>
#include <functional>

#include "pgsim/graph/graph.h"
#include "pgsim/graph/vf2.h"

namespace pgsim {

/// Enumerates the embeddings of `pattern` in `target` with a per-call plan
/// and recursion. Allocates per call; not for hot paths.
size_t EnumerateEmbeddingsReference(
    const Graph& pattern, const Graph& target, const Vf2Options& options,
    const std::function<bool(const Embedding&)>& callback);

}  // namespace pgsim
