// Per-vertex neighborhood signatures and the signature cover test.
//
// A vertex signature summarizes the 1- and 2-hop label neighborhood of a
// vertex in four fixed-width columns:
//
//   * nbr_bits    — 64-bit bitmap over hashed (neighbor vertex label,
//                   connecting edge label) pairs;
//   * hop2_bits   — 64-bit bitmap over the same pairs reached by any walk of
//                   length two (OR of the neighbors' nbr_bits; walks may
//                   return, which is symmetric between pattern and target and
//                   therefore sound);
//   * degree      — the vertex degree;
//   * label_counts — per-label neighbor counts folded into
//                   kSignatureLabelSlots saturating u8 slots.
//
// Soundness: if an injective label-preserving mapping (monomorphism) sends
// pattern vertex pv to target vertex tv, then every pattern walk from pv maps
// to an equal-labeled target walk from tv, so pv's bitmaps are subsets of
// tv's, deg(pv) <= deg(tv), and every count slot dominates (injectivity sends
// distinct pattern neighbors to distinct target neighbors, and saturation
// preserves <=). SignatureDominates therefore never rejects a (pv, tv) pair
// that appears in some embedding — rejections prune provably barren
// candidates only, which is what keeps the matcher's answer set and
// enumeration order bit-identical with or without signature domains.
//
// Two consumers build on the per-pair test:
//   * SignatureCoverTest — "can this pattern embed at all?": every pattern
//     vertex must have at least one dominating data vertex in its label
//     bucket. Used by the offline containment paths (StructuralFilter exact
//     check, FeatureMiner) to skip whole VF2 calls.
//   * BuildCandidateDomains — materializes the surviving bucket subset per
//     pattern vertex (ascending target ids) into CandidateDomains for
//     domain-restricted VF2 (Vf2Options::domains). An empty domain doubles
//     as a cover-test failure.
//
// The database-side columnar storage lives in index/domain_index.h; this
// header owns the per-vertex encoding and the query-side (pattern) build.

#pragma once

#include <cstdint>
#include <vector>

#include "pgsim/graph/graph.h"
#include "pgsim/graph/vf2.h"

namespace pgsim {

/// Number of saturating per-label neighbor-count slots per vertex.
inline constexpr uint32_t kSignatureLabelSlots = 8;

/// splitmix64-style finalizer: the shared hash behind the bitmap bit and
/// count-slot assignments. Deterministic across platforms and builds — the
/// persisted index (PGSG) depends on it.
inline uint64_t SignatureMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Bitmap bit of a (neighbor vertex label, connecting edge label) pair.
inline uint32_t SignatureBit(LabelId vertex_label, LabelId edge_label) {
  return static_cast<uint32_t>(
      SignatureMix64((uint64_t{vertex_label} << 32) | edge_label) & 63u);
}

/// Count slot of a neighbor vertex label.
inline uint32_t SignatureLabelSlot(LabelId vertex_label) {
  return static_cast<uint32_t>(SignatureMix64(vertex_label) &
                               (kSignatureLabelSlots - 1));
}

/// Borrowed columnar view over one graph's per-vertex signatures
/// (vertex-major; label_counts has kSignatureLabelSlots bytes per vertex).
/// Produced by SignatureIndex::ForGraph and QuerySignature::view.
struct SignatureView {
  const uint64_t* nbr_bits = nullptr;
  const uint64_t* hop2_bits = nullptr;
  const uint32_t* degree = nullptr;
  const uint8_t* label_counts = nullptr;
  uint32_t num_vertices = 0;

  bool empty() const { return nbr_bits == nullptr; }
};

/// Owned signature columns for one pattern (relaxed query, mined feature
/// candidate). Compiled once per pattern and reused across every candidate.
struct QuerySignature {
  std::vector<uint64_t> nbr_bits;
  std::vector<uint64_t> hop2_bits;
  std::vector<uint32_t> degree;
  std::vector<uint8_t> label_counts;
  uint32_t num_vertices = 0;

  SignatureView view() const {
    SignatureView v;
    v.nbr_bits = nbr_bits.data();
    v.hop2_bits = hop2_bits.data();
    v.degree = degree.data();
    v.label_counts = label_counts.data();
    v.num_vertices = num_vertices;
    return v;
  }
};

/// Fills the signature columns of every vertex of `g` into caller-sized
/// arrays (nbr_bits/hop2_bits/degree: one entry per vertex; label_counts:
/// kSignatureLabelSlots per vertex). The shared builder behind both the
/// database index and the query-side compile — byte-identical output for
/// equal graphs by construction.
void BuildVertexSignatures(const Graph& g, uint64_t* nbr_bits,
                           uint64_t* hop2_bits, uint32_t* degree,
                           uint8_t* label_counts);

/// Compiles the owned signature of one pattern graph.
QuerySignature BuildQuerySignature(const Graph& g);

/// True when target vertex `tv` can host pattern vertex `pv` in some
/// monomorphism as far as the signatures can tell. Label equality is the
/// caller's job (both call sites iterate the pattern label's bucket).
inline bool SignatureDominates(const SignatureView& p, uint32_t pv,
                               const SignatureView& t, uint32_t tv) {
  if (t.degree[tv] < p.degree[pv]) return false;
  const uint64_t pb = p.nbr_bits[pv];
  if ((pb & t.nbr_bits[tv]) != pb) return false;
  const uint64_t ph = p.hop2_bits[pv];
  if ((ph & t.hop2_bits[tv]) != ph) return false;
  const uint8_t* pc = p.label_counts + size_t{pv} * kSignatureLabelSlots;
  const uint8_t* tc = t.label_counts + size_t{tv} * kSignatureLabelSlots;
  for (uint32_t s = 0; s < kSignatureLabelSlots; ++s) {
    if (tc[s] < pc[s]) return false;
  }
  return true;
}

/// Existence-only cover test: every pattern vertex must have at least one
/// dominating vertex in its target label bucket. False => no embedding of
/// `pattern` in `target` exists (never the reverse).
bool SignatureCoverTest(const Graph& pattern, const SignatureView& psig,
                        const Graph& target, const SignatureView& tsig);

/// Materializes per-pattern-vertex candidate domains (the dominating subset
/// of each label bucket, ascending target ids) into `*out`, reusing its
/// capacity. Returns false — leaving `*out` unusable — when some pattern
/// vertex has an empty domain (the pair is barren; this subsumes
/// SignatureCoverTest). On success, adds the number of bucket entries pruned
/// across all pattern vertices to `*pruned` when non-null.
bool BuildCandidateDomains(const Graph& pattern, const SignatureView& psig,
                           const Graph& target, const SignatureView& tsig,
                           CandidateDomains* out, uint64_t* pruned);

}  // namespace pgsim
