#include "pgsim/query/structural_filter.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "pgsim/common/thread_pool.h"
#include "pgsim/common/timer.h"
#include "pgsim/graph/io.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/storage/io_util.h"

namespace pgsim {

namespace {

// One threshold's sweep over a full 64-cell word of the feature-major count
// row: returns the pass mask (bit g set iff cell[g] >= needed). The
// saturation rule is folded into the compare — `needed` is pre-clamped to
// 0xFFFF, and a saturated cell (0xFFFF) always satisfies have >= needed, so
// "unknown, never prune" holds without a second test.
#if defined(__SSE2__)
inline uint64_t PassMask64(const uint16_t* cell, uint16_t needed) {
  // Unsigned 16-bit compare via the sign-bias trick (SSE2 compares are
  // signed); 8 lanes x 2 loads -> packs -> movemask yields 16 pass bits.
  const __m128i bias = _mm_set1_epi16(static_cast<short>(0x8000));
  const __m128i nd =
      _mm_set1_epi16(static_cast<short>(needed ^ 0x8000));
  uint64_t pass = 0;
  for (int c = 0; c < 4; ++c) {
    const __m128i a = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cell + c * 16)),
        bias);
    const __m128i b = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cell + c * 16 + 8)),
        bias);
    const uint32_t fail = static_cast<uint32_t>(_mm_movemask_epi8(
        _mm_packs_epi16(_mm_cmplt_epi16(a, nd), _mm_cmplt_epi16(b, nd))));
    pass |= uint64_t{static_cast<uint16_t>(~fail)} << (c * 16);
  }
  return pass;
}
#else
inline uint64_t PassMask64(const uint16_t* cell, uint16_t needed) {
  // 8x8 chunking keeps the reduction narrow enough for SLP vectorization.
  uint64_t pass = 0;
  for (int c = 0; c < 8; ++c) {
    uint8_t m = 0;
    for (int b = 0; b < 8; ++b) {
      m |= static_cast<uint8_t>(cell[c * 8 + b] >= needed) << b;
    }
    pass |= uint64_t{m} << (c * 8);
  }
  return pass;
}
#endif

}  // namespace

StructuralFilter StructuralFilter::Build(
    const std::vector<Graph>& certain_db, const std::vector<Feature>& features,
    const StructuralFilterOptions& options) {
  WallTimer timer;
  StructuralFilter filter;
  filter.options_ = options;
  filter.graphs_.reserve(certain_db.size());
  for (const Graph& g : certain_db) filter.graphs_.push_back(&g);
  filter.feature_graphs_.reserve(features.size());
  for (const Feature& f : features) filter.feature_graphs_.push_back(&f.graph);
  filter.num_graphs_ = static_cast<uint32_t>(certain_db.size());
  filter.num_alive_ = filter.num_graphs_;
  // Stride == num_graphs exactly: no padding, so counts() of two builds of
  // the same database compare equal; AddGraph grows the stride on demand.
  filter.col_capacity_ = certain_db.size();
  filter.counts_.assign(features.size() * certain_db.size(), 0);
  filter.live_mask_.ResetTo(certain_db.size());
  filter.live_mask_.SetAll();

  // Compile each feature's match plan once; build-time counting and every
  // query-time CountQueryFeatures run these instead of recompiling.
  filter.feature_plans_.reserve(features.size());
  for (const Feature& f : features) {
    filter.feature_plans_.push_back(CompileMatchPlan(f.graph));
  }
  // Database-aggregate label frequencies: the exact check compiles relaxed
  // queries' plans against them so seed positions start at the rarest label
  // across the candidate population.
  for (const Graph& g : certain_db) {
    AccumulateVertexLabelFrequencies(g, &filter.label_freq_);
  }

  // Invert support lists so each worker owns one graph's cells outright
  // (fixed column of every feature row); cell values are pure functions of
  // (feature, graph), so the matrix is bit-identical at any thread count.
  std::vector<std::vector<uint32_t>> features_of_graph(certain_db.size());
  size_t counted_pairs = 0;
  for (size_t fi = 0; fi < features.size(); ++fi) {
    for (uint32_t gi : features[fi].support) {
      features_of_graph[gi].push_back(static_cast<uint32_t>(fi));
      ++counted_pairs;
    }
  }

  const ScopedPool pool(options.num_threads);
  ForEachIndex(pool.get(), certain_db.size(), 4, [&](size_t gi) {
    Vf2Scratch vf2;  // reused across this graph's features
    for (uint32_t fi : features_of_graph[gi]) {
      bool truncated = false;
      const auto embeddings =
          EmbeddingEdgeSets(filter.feature_plans_[fi], certain_db[gi],
                            options.max_count, &truncated, &vf2);
      filter.counts_[static_cast<size_t>(fi) * certain_db.size() + gi] =
          truncated ? static_cast<uint16_t>(0xFFFF)
                    : static_cast<uint16_t>(embeddings.size());
    }
  });

  // Per-graph label histograms feed the exact check's pre-VF2 guard; a
  // count-only filter never reads them.
  if (options.exact_check) {
    filter.graph_hist_.resize(certain_db.size());
    for (size_t gi = 0; gi < certain_db.size(); ++gi) {
      BuildLabelHistogram(certain_db[gi], &filter.graph_hist_[gi]);
    }
  }

  filter.build_stats_.build_threads = pool.threads();
  filter.build_stats_.counted_pairs = counted_pairs;
  filter.build_stats_.seconds = timer.Seconds();
  return filter;
}

std::vector<uint32_t> StructuralFilter::Filter(
    const Graph& q, const std::vector<Graph>& relaxed, uint32_t delta,
    StructuralFilterStats* stats) const {
  std::vector<uint32_t> survivors;
  StructuralFilterScratch scratch;
  Filter(q, relaxed, delta, &survivors, &scratch, stats);
  return survivors;
}

void StructuralFilter::CountQueryFeatures(const Graph& q,
                                          std::vector<uint32_t>* per_edge,
                                          uint64_t* isomorphism_tests,
                                          Vf2Scratch* vf2,
                                          QueryFeatureCounts* out) const {
  out->entries.clear();
  for (size_t fi = 0; fi < feature_graphs_.size(); ++fi) {
    const Graph& feature = *feature_graphs_[fi];
    if (feature.NumEdges() > q.NumEdges()) continue;
    bool truncated = false;
    const auto embeddings = EmbeddingEdgeSets(
        feature_plans_[fi], q, options_.max_query_count, &truncated, vf2);
    if (isomorphism_tests != nullptr) ++*isomorphism_tests;
    if (truncated || embeddings.empty()) continue;
    per_edge->assign(q.NumEdges(), 0);
    for (const EdgeBitset& emb : embeddings) {
      for (uint32_t e : emb.ToVector()) ++(*per_edge)[e];
    }
    QueryFeatureCounts::Entry entry;
    entry.feature = static_cast<uint32_t>(fi);
    entry.count = static_cast<uint32_t>(embeddings.size());
    entry.max_per_edge = *std::max_element(per_edge->begin(), per_edge->end());
    out->entries.push_back(entry);
  }
}

QueryFeatureCounts StructuralFilter::ComputeQueryCounts(
    const Graph& q, uint64_t* isomorphism_tests,
    StructuralFilterScratch* scratch) const {
  StructuralFilterScratch local;
  if (scratch == nullptr) scratch = &local;
  QueryFeatureCounts counts;
  CountQueryFeatures(q, &scratch->per_edge, isomorphism_tests, &scratch->vf2,
                     &counts);
  return counts;
}

void StructuralFilter::Filter(const Graph& q, const std::vector<Graph>& relaxed,
                              uint32_t delta, std::vector<uint32_t>* survivors,
                              StructuralFilterScratch* scratch,
                              StructuralFilterStats* stats,
                              const QueryFeatureCounts* precomputed,
                              QueryFeatureCounts* computed_counts,
                              const std::vector<MatchPlan>* rq_plans,
                              const SignatureIndex* sigs,
                              const std::vector<QuerySignature>* rq_sigs)
    const {
  WallTimer timer;
  StructuralFilterStats local;
  // The gate needs both sides; half-armed callers run unguarded.
  const bool use_sigs = sigs != nullptr && rq_sigs != nullptr;

  // Per-feature thresholds from the query: needed = count_f(q) - delta *
  // maxPerEdge_f(q); only features with needed >= 1 can prune. The counts
  // either come in precomputed (the processor's CompiledQuery) or are
  // counted here.
  const QueryFeatureCounts* counts = precomputed;
  if (counts == nullptr) {
    CountQueryFeatures(q, &scratch->per_edge, &local.isomorphism_tests,
                       &scratch->vf2, &scratch->counts);
    counts = &scratch->counts;
    if (computed_counts != nullptr) *computed_counts = scratch->counts;
  }
  auto& thresholds = scratch->thresholds;
  thresholds.clear();
  for (const QueryFeatureCounts::Entry& entry : counts->entries) {
    const uint64_t destroyed = uint64_t{delta} * entry.max_per_edge;
    if (entry.count > destroyed) {
      thresholds.emplace_back(entry.feature,
                              static_cast<uint32_t>(entry.count - destroyed));
    }
  }
  // Most-selective-first: a higher required count prunes more graphs, so
  // sweeping those rows first shrinks the survivor bitset early. Pure
  // heuristic — the survivor set is the intersection over all thresholds
  // and does not depend on the order.
  std::sort(thresholds.begin(), thresholds.end(),
            [](const std::pair<size_t, uint32_t>& a,
               const std::pair<size_t, uint32_t>& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });

  // Columnar count filter: one contiguous feature row per threshold,
  // visiting only still-alive graphs. The sweep starts from the live mask —
  // not all-ones — so tombstoned columns are out even when the query yields
  // no thresholds at all.
  EdgeBitset& alive = scratch->alive;
  alive.AssignWords(live_mask_.words().data(), num_graphs_);
  for (const auto& [feature, needed] : thresholds) {
    const uint16_t* row = counts_.data() + feature * col_capacity_;
    // Clamping folds the saturation rule into one unsigned compare:
    // have < min(needed, 0xFFFF) is exactly (have != 0xFFFF && have <
    // needed) — a saturated 0xFFFF cell never fails it ("unknown, never
    // prune", soundness), and a needed beyond the uint16 range kills every
    // unsaturated cell just as the unclamped comparison would.
    const uint16_t needed16 =
        needed > 0xFFFF ? static_cast<uint16_t>(0xFFFF)
                        : static_cast<uint16_t>(needed);
    const auto& words = alive.words();
    const size_t full_words = num_graphs_ / 64;
    uint64_t any_alive = 0;
    for (size_t wi = 0; wi < full_words; ++wi) {
      if (words[wi] == 0) continue;
      alive.AndWordAt(wi, PassMask64(row + wi * 64, needed16));
      any_alive |= words[wi];
    }
    for (uint32_t gi = static_cast<uint32_t>(full_words * 64);
         gi < num_graphs_; ++gi) {
      if (row[gi] < needed16) alive.Reset(gi);
    }
    if (!words.empty()) any_alive |= words.back();
    if (any_alive == 0) break;  // everything pruned; later rows can't revive
  }
  survivors->clear();
  {
    const auto& words = alive.words();
    for (size_t wi = 0; wi < words.size(); ++wi) {
      uint64_t w = words[wi];
      while (w != 0) {
        survivors->push_back(
            static_cast<uint32_t>(wi * 64 + __builtin_ctzll(w)));
        w &= w - 1;
      }
    }
  }
  local.count_filter_survivors = survivors->size();

  if (options_.exact_check) {
    // Any rq hit certifies q ⊆sim gc, so visit relaxed queries in ascending
    // edge order: smaller patterns embed more often and test cheaper, and
    // the order cannot change which graphs survive. A size +
    // label-multiset guard skips (uncounted) VF2 tests that provably fail.
    auto& order = scratch->rq_order;
    order.resize(relaxed.size());
    for (uint32_t ri = 0; ri < relaxed.size(); ++ri) order[ri] = ri;
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                       return relaxed[a].NumEdges() < relaxed[b].NumEdges();
                     });
    auto& rq_hist = scratch->rq_hist;
    rq_hist.resize(relaxed.size());
    for (uint32_t ri = 0; ri < relaxed.size(); ++ri) {
      BuildLabelHistogram(relaxed[ri], &rq_hist[ri]);
    }
    // One compiled plan per rq for the whole survivor sweep: passed in by
    // the processor, or compiled here (seeded rarest-database-label-first —
    // the hit/miss answer per (rq, gc) pair is plan-independent, so the
    // survivor set cannot change).
    if (rq_plans == nullptr) {
      scratch->rq_plans.clear();
      scratch->rq_plans.reserve(relaxed.size());
      MatchPlanOptions plan_options;
      plan_options.label_freq = &label_freq_;
      for (const Graph& rq : relaxed) {
        scratch->rq_plans.push_back(CompileMatchPlan(rq, plan_options));
      }
      rq_plans = &scratch->rq_plans;
    }

    // Compact survivors in place: read index scans the count-filter output,
    // write index keeps exact hits (both ascend, so order is preserved).
    size_t kept = 0;
    for (size_t read = 0; read < survivors->size(); ++read) {
      const uint32_t gi = (*survivors)[read];
      const Graph& gc = *graphs_[gi];
      bool similar = false;
      for (uint32_t ri : order) {
        const Graph& rq = relaxed[ri];
        if (rq.NumEdges() > gc.NumEdges() ||
            rq.NumVertices() > gc.NumVertices()) {
          continue;
        }
        if (!HistogramCoversPattern(graph_hist_[gi], rq_hist[ri])) continue;
        // Signature gate: a cover-test failure proves rq cannot embed, so
        // skipping the (uncounted) VF2 call cannot change the survivor set;
        // a pass yields candidate domains that VF2 consumes as a sound,
        // order-preserving narrowing of its per-position iteration.
        const CandidateDomains* domains = nullptr;
        if (use_sigs) {
          if (!BuildCandidateDomains(rq, (*rq_sigs)[ri].view(), gc,
                                     sigs->ForGraph(gi), &scratch->vf2.domains,
                                     &local.domain_candidates_pruned)) {
            ++local.sig_pairs_rejected;
            continue;
          }
          domains = &scratch->vf2.domains;
        }
        ++local.isomorphism_tests;
        if (IsSubgraphIsomorphic((*rq_plans)[ri], gc, &scratch->vf2,
                                 domains)) {
          similar = true;
          break;
        }
      }
      if (similar) (*survivors)[kept++] = gi;
    }
    survivors->resize(kept);
  }
  local.exact_survivors = survivors->size();
  local.seconds = timer.Seconds();
  if (stats != nullptr) *stats = local;
}

void StructuralFilter::GrowCapacity(size_t capacity) {
  if (capacity <= col_capacity_) return;
  const size_t num_features = feature_graphs_.size();
  std::vector<uint16_t> grown(num_features * capacity, 0);
  for (size_t fi = 0; fi < num_features; ++fi) {
    std::copy_n(counts_.begin() + fi * col_capacity_, num_graphs_,
                grown.begin() + fi * capacity);
  }
  counts_ = std::move(grown);
  // Re-seat the live mask at the new capacity, keeping its bits.
  const std::vector<uint64_t> live_words = live_mask_.words();
  live_mask_.ResetTo(capacity);
  live_mask_.OrWords(live_words.data(), live_words.size());
  col_capacity_ = capacity;
}

void StructuralFilter::ReserveGraphCapacity(size_t extra) {
  GrowCapacity(num_graphs_ + extra);
}

uint32_t StructuralFilter::AddGraph(
    const Graph& gc, const std::vector<uint32_t>* contained_features) {
  if (num_graphs_ >= col_capacity_) {
    // Amortized doubling keeps the per-add re-stride cost O(1) features-rows
    // on average; a fresh Build() starts with zero slack.
    GrowCapacity(std::max<size_t>(16, col_capacity_ * 2));
  }
  const uint32_t graph_id = num_graphs_;
  owned_graphs_.push_back(gc);
  const Graph& owned = owned_graphs_.back();
  graphs_.push_back(&owned);
  AccumulateVertexLabelFrequencies(owned, &label_freq_);
  if (options_.exact_check) {
    graph_hist_.emplace_back();
    BuildLabelHistogram(owned, &graph_hist_.back());
  }
  Vf2Scratch vf2;
  const auto count_cell = [&](uint32_t fi) {
    const Graph& feature = *feature_graphs_[fi];
    if (feature.NumEdges() > owned.NumEdges()) return;
    bool truncated = false;
    const auto embeddings = EmbeddingEdgeSets(feature_plans_[fi], owned,
                                              options_.max_count, &truncated,
                                              &vf2);
    counts_[static_cast<size_t>(fi) * col_capacity_ + graph_id] =
        truncated ? static_cast<uint16_t>(0xFFFF)
                  : static_cast<uint16_t>(embeddings.size());
  };
  if (contained_features != nullptr) {
    // The PMI already decided containment; only those cells can be nonzero.
    for (uint32_t fi : *contained_features) count_cell(fi);
  } else {
    for (uint32_t fi = 0; fi < feature_graphs_.size(); ++fi) count_cell(fi);
  }
  live_mask_.Set(graph_id);
  ++num_graphs_;
  ++num_alive_;
  return graph_id;
}

Status StructuralFilter::RemoveGraph(uint32_t graph_id) {
  if (graph_id >= num_graphs_) {
    return Status::InvalidArgument(
        "StructuralFilter::RemoveGraph: graph id out of range");
  }
  if (!live_mask_.Test(graph_id)) {
    return Status::InvalidArgument(
        "StructuralFilter::RemoveGraph: graph already removed");
  }
  for (size_t fi = 0; fi < feature_graphs_.size(); ++fi) {
    counts_[fi * col_capacity_ + graph_id] = 0;
  }
  // graphs_[graph_id] stays valid (needed here for the exact label-frequency
  // subtraction, and graph ids are stable until Compact()).
  for (LabelId l : graphs_[graph_id]->VertexLabels()) --label_freq_[l];
  live_mask_.Reset(graph_id);
  --num_alive_;
  return Status::OK();
}

namespace {
// "PGSF": structural-filter snapshot, checksummed-section container.
constexpr uint32_t kFilterMagic = 0x50475346u;
constexpr uint32_t kFilterVersion = 1;
}  // namespace

Status StructuralFilter::Save(const std::string& path) const {
  SnapshotWriter writer(kFilterMagic, kFilterVersion);

  std::ostringstream header;
  WriteU32(header, num_graphs_);
  WriteU32(header, num_alive_);
  WriteU32(header, static_cast<uint32_t>(feature_graphs_.size()));
  WriteU32(header, options_.max_count);
  WriteU32(header, options_.max_query_count);
  header.put(options_.exact_check ? '\1' : '\0');
  writer.AddSection(header.str());

  // Count matrix at stride num_graphs_ (capacity slack is a memory-layout
  // detail, not state), feature-major, raw little-endian u16 cells.
  std::string cells;
  cells.reserve(2 * size_t{num_graphs_} * feature_graphs_.size());
  for (size_t fi = 0; fi < feature_graphs_.size(); ++fi) {
    const uint16_t* row = counts_.data() + fi * col_capacity_;
    for (uint32_t gi = 0; gi < num_graphs_; ++gi) {
      const uint16_t c = row[gi];
      cells.push_back(static_cast<char>(c & 0xFF));
      cells.push_back(static_cast<char>(c >> 8));
    }
  }
  writer.AddSection(cells);

  std::string live(num_graphs_, '\0');
  for (uint32_t gi = 0; gi < num_graphs_; ++gi) {
    if (live_mask_.Test(gi)) live[gi] = '\1';
  }
  writer.AddSection(live);

  return writer.Commit(path, "snapshot.filter");
}

Result<StructuralFilter> StructuralFilter::Load(
    const std::string& path, const std::vector<Graph>& certain_db,
    const std::vector<Feature>& features) {
  PGSIM_ASSIGN_OR_RETURN(SnapshotReader snap,
                         SnapshotReader::Open(path, kFilterMagic));
  if (snap.version() != kFilterVersion) {
    return Status::InvalidArgument(
        "StructuralFilter::Load: unsupported version " +
        std::to_string(snap.version()));
  }
  if (snap.num_sections() != 3) {
    return Status::DataLoss("StructuralFilter::Load: expected 3 sections in " +
                            path);
  }

  const std::string& header = snap.section(0);
  std::istringstream hs(header);
  PGSIM_ASSIGN_OR_RETURN(const uint32_t num_graphs, ReadU32(hs));
  PGSIM_ASSIGN_OR_RETURN(const uint32_t num_alive, ReadU32(hs));
  PGSIM_ASSIGN_OR_RETURN(const uint32_t num_features, ReadU32(hs));
  StructuralFilter filter;
  PGSIM_ASSIGN_OR_RETURN(filter.options_.max_count, ReadU32(hs));
  PGSIM_ASSIGN_OR_RETURN(filter.options_.max_query_count, ReadU32(hs));
  const int exact_byte = hs.get();
  if (exact_byte == std::char_traits<char>::eof()) {
    return Status::DataLoss("StructuralFilter::Load: truncated header in " +
                            path);
  }
  filter.options_.exact_check = exact_byte != 0;

  if (num_graphs != certain_db.size()) {
    return Status::InvalidArgument(
        "StructuralFilter::Load: file has " + std::to_string(num_graphs) +
        " graphs but certain_db has " + std::to_string(certain_db.size()));
  }
  if (num_features != features.size()) {
    return Status::InvalidArgument(
        "StructuralFilter::Load: file has " + std::to_string(num_features) +
        " features but " + std::to_string(features.size()) + " were given");
  }

  const std::string& cells = snap.section(1);
  if (cells.size() != 2 * size_t{num_graphs} * num_features) {
    return Status::DataLoss(
        "StructuralFilter::Load: count matrix has wrong size in " + path);
  }
  const std::string& live = snap.section(2);
  if (live.size() != num_graphs) {
    return Status::DataLoss(
        "StructuralFilter::Load: live mask has wrong size in " + path);
  }

  filter.num_graphs_ = num_graphs;
  filter.col_capacity_ = num_graphs;
  filter.graphs_.reserve(num_graphs);
  for (const Graph& g : certain_db) filter.graphs_.push_back(&g);
  filter.feature_graphs_.reserve(num_features);
  for (const Feature& f : features) filter.feature_graphs_.push_back(&f.graph);
  filter.feature_plans_.reserve(num_features);
  for (const Feature& f : features) {
    filter.feature_plans_.push_back(CompileMatchPlan(f.graph));
  }

  filter.counts_.resize(size_t{num_features} * num_graphs);
  for (size_t k = 0; k < filter.counts_.size(); ++k) {
    filter.counts_[k] =
        static_cast<uint16_t>(static_cast<uint8_t>(cells[2 * k])) |
        static_cast<uint16_t>(static_cast<uint8_t>(cells[2 * k + 1])) << 8;
  }

  filter.live_mask_.ResetTo(num_graphs);
  filter.num_alive_ = 0;
  for (uint32_t gi = 0; gi < num_graphs; ++gi) {
    if (live[gi] != '\0') {
      filter.live_mask_.Set(gi);
      ++filter.num_alive_;
    }
  }
  if (filter.num_alive_ != num_alive) {
    return Status::DataLoss(
        "StructuralFilter::Load: live mask disagrees with header in " + path);
  }

  // label_freq_ aggregates ALIVE graphs only (RemoveGraph subtracts), while
  // graph_hist_ keeps one entry per column, dead or not (Build fills all,
  // RemoveGraph leaves them — the live mask excludes dead columns upstream).
  for (uint32_t gi = 0; gi < num_graphs; ++gi) {
    if (live[gi] != '\0') {
      AccumulateVertexLabelFrequencies(certain_db[gi], &filter.label_freq_);
    }
  }
  if (filter.options_.exact_check) {
    filter.graph_hist_.resize(num_graphs);
    for (uint32_t gi = 0; gi < num_graphs; ++gi) {
      BuildLabelHistogram(certain_db[gi], &filter.graph_hist_[gi]);
    }
  }
  return filter;
}

void StructuralFilter::Compact() {
  if (num_alive_ == num_graphs_) return;
  const std::vector<uint32_t> live = live_mask_.ToVector();  // ascending
  const size_t num_features = feature_graphs_.size();
  std::vector<uint16_t> packed(num_features * live.size(), 0);
  for (size_t fi = 0; fi < num_features; ++fi) {
    const uint16_t* row = counts_.data() + fi * col_capacity_;
    uint16_t* out = packed.data() + fi * live.size();
    for (size_t k = 0; k < live.size(); ++k) out[k] = row[live[k]];
  }
  counts_ = std::move(packed);
  std::vector<const Graph*> packed_graphs;
  packed_graphs.reserve(live.size());
  for (uint32_t gi : live) packed_graphs.push_back(graphs_[gi]);
  graphs_ = std::move(packed_graphs);
  if (!graph_hist_.empty()) {
    std::vector<LabelHistogram> packed_hist;
    packed_hist.reserve(live.size());
    for (uint32_t gi : live) packed_hist.push_back(std::move(graph_hist_[gi]));
    graph_hist_ = std::move(packed_hist);
  }
  num_graphs_ = static_cast<uint32_t>(live.size());
  num_alive_ = num_graphs_;
  col_capacity_ = live.size();
  live_mask_.ResetTo(num_graphs_);
  live_mask_.SetAll();
}

}  // namespace pgsim
