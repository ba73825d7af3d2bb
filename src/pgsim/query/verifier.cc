#include "pgsim/query/verifier.h"

#include <algorithm>
#include <cmath>

#include "pgsim/graph/vf2.h"

namespace pgsim {

namespace {

// In-pool equivalent of AbsorbDnfTerms: drops every event that is a strict
// superset of another (rows are deduplicated, so ContainsAll of a different
// row means strict). Marks first, compacts after — compacting inline would
// overwrite rows still being compared. Keeps first-seen order; the sampler
// re-orders by marginal anyway and the union is unchanged.
void AbsorbPoolEvents(EventSetPool* events, std::vector<uint32_t>* absorbed) {
  const size_t wpr = events->words_per_row();
  const size_t m = events->size();
  absorbed->assign(m, 0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      // i ⊋ j: event i is implied by event j.
      if (j != i &&
          EventSetPool::ContainsAll(events->Row(i), events->Row(j), wpr) &&
          !EventSetPool::Equal(events->Row(i), events->Row(j), wpr)) {
        (*absorbed)[i] = 1;
        break;
      }
    }
  }
  size_t kept = 0;
  for (size_t i = 0; i < m; ++i) {
    if ((*absorbed)[i]) continue;
    events->CopyRow(kept, i);
    ++kept;
  }
  events->Truncate(kept);
}

// Calls fn(bit_index) for every set bit of the n-word span.
template <typename Fn>
void ForEachBit(const uint64_t* words, size_t n, Fn&& fn) {
  for (size_t wi = 0; wi < n; ++wi) {
    uint64_t w = words[wi];
    while (w) {
      fn(wi * 64 + static_cast<size_t>(__builtin_ctzll(w)));
      w &= w - 1;
    }
  }
}

}  // namespace

Status CollectSimilarityEvents(const ProbabilisticGraph& g,
                               const std::vector<Graph>& relaxed,
                               const VerifierOptions& options,
                               VerifierScratch* scratch,
                               const std::vector<MatchPlan>* plans,
                               const SignatureGate* gate) {
  scratch->sig_pairs_rejected = 0;
  scratch->domain_candidates_pruned = 0;
  scratch->vf2_calls_avoided = 0;
  scratch->rq_plans_compiled = 0;
  // The pipeline hands in plans compiled once per query; a standalone call
  // compiles them here, into reused scratch storage, lazily — only when a
  // relaxed query actually reaches the matcher, so a signature rejection
  // skips the compile too (an empty `order` marks an uncompiled slot; every
  // relaxed query is non-empty, so a compiled plan never has one).
  const bool lazy_plans = plans == nullptr;
  if (lazy_plans) {
    scratch->rq_plans.clear();
    scratch->rq_plans.resize(relaxed.size());
    plans = &scratch->rq_plans;
  }
  EventSetPool& events = scratch->events;
  events.Reset(g.NumEdges());
  scratch->dedup.Reset(std::min(options.max_total_embeddings, size_t{512}));
  Status failure = Status::OK();
  Vf2Options vf2;
  // Enumerate one past the inclusive cap so "exactly at the cap" is
  // distinguishable from "truncated"; 0 keeps its historical "uncapped"
  // meaning (and SIZE_MAX wraps to it, same intent).
  vf2.max_embeddings = options.max_embeddings_per_rq == 0
                           ? 0
                           : options.max_embeddings_per_rq + 1;
  vf2.dedup_by_edge_set = true;
  for (size_t ri = 0; ri < relaxed.size(); ++ri) {
    vf2.domains = nullptr;
    if (gate != nullptr) {
      // Cover test + domain build in one pass: a barren pair contributes no
      // embeddings, so skipping it leaves the event pool bit-identical.
      if (!BuildCandidateDomains(relaxed[ri], (*gate->rq)[ri].view(),
                                 g.certain(), gate->target,
                                 &scratch->vf2.domains,
                                 &scratch->domain_candidates_pruned)) {
        ++scratch->sig_pairs_rejected;
        ++scratch->vf2_calls_avoided;
        continue;
      }
      vf2.domains = &scratch->vf2.domains;
    }
    if (lazy_plans && scratch->rq_plans[ri].order.empty()) {
      scratch->rq_plans[ri] = CompileMatchPlan(relaxed[ri]);
      ++scratch->rq_plans_compiled;
    }
    const size_t n = EnumerateEmbeddings(
        (*plans)[ri], g.certain(), vf2, &scratch->vf2,
        [&](const Embedding& emb) {
          const size_t row = events.AddRow();
          for (EdgeId e : emb.edge_map) events.SetBit(row, e);
          if (!scratch->dedup.InsertLastRow(&events)) {
            return true;  // duplicate event
          }
          if (events.size() > options.max_total_embeddings) {
            // Inclusive total cap: exactly max_total_embeddings distinct
            // events are allowed; inserting the (max+1)-th is the error.
            failure = Status::ResourceExhausted(
                "CollectSimilarityEvents: total embedding cap hit");
            return false;
          }
          return true;
        });
    if (!failure.ok()) return failure;
    if (options.max_embeddings_per_rq != 0 &&
        n > options.max_embeddings_per_rq) {
      return Status::ResourceExhausted(
          "CollectSimilarityEvents: per-rq embedding cap hit");
    }
  }
  return Status::OK();
}

Result<double> ExactSspFromEvents(const ProbabilisticGraph& g,
                                  const VerifierOptions& options,
                                  VerifierScratch* scratch) {
  const size_t m = scratch->events.size();
  if (m == 0) return 0.0;
  scratch->exact_events.resize(m);
  for (size_t i = 0; i < m; ++i) {
    scratch->exact_events[i].AssignWords(scratch->events.Row(i),
                                         g.NumEdges());
  }
  return ExactDnfProbability(g, scratch->exact_events, options.exact);
}

Result<double> ExactSubgraphSimilarityProbability(
    const ProbabilisticGraph& g, const std::vector<Graph>& relaxed,
    const VerifierOptions& options) {
  VerifierScratch scratch;
  return ExactSubgraphSimilarityProbability(g, relaxed, options, &scratch);
}

Result<double> ExactSubgraphSimilarityProbability(
    const ProbabilisticGraph& g, const std::vector<Graph>& relaxed,
    const VerifierOptions& options, VerifierScratch* scratch,
    const std::vector<MatchPlan>* plans, const SignatureGate* gate) {
  PGSIM_RETURN_NOT_OK(
      CollectSimilarityEvents(g, relaxed, options, scratch, plans, gate));
  return ExactSspFromEvents(g, options, scratch);
}

Result<double> SampleSubgraphSimilarityProbability(
    const ProbabilisticGraph& g, const std::vector<Graph>& relaxed,
    const VerifierOptions& options, Rng* rng) {
  VerifierScratch scratch;
  return SampleSubgraphSimilarityProbability(g, relaxed, options, rng,
                                             &scratch);
}

Result<double> SampleSubgraphSimilarityProbability(
    const ProbabilisticGraph& g, const std::vector<Graph>& relaxed,
    const VerifierOptions& options, Rng* rng, VerifierScratch* scratch,
    const std::vector<MatchPlan>* plans, const SignatureGate* gate) {
  PGSIM_ASSIGN_OR_RETURN(
      SampleOutcome out,
      SampleSubgraphSimilarityProbabilityAnytime(
          g, relaxed, options, rng, scratch, plans, SampleControl{}, gate));
  return out.estimate;
}

namespace {

// Outcome of a run that never drew: before the first draw the union bound
// Pr(∨Bfi) <= min(V, 1) is all we know; before event collection, nothing.
SampleOutcome UndrawOutcome(double v_upper, bool completed) {
  SampleOutcome out;
  out.estimate = 0.0;
  out.lo = 0.0;
  out.hi = v_upper;
  out.completed = completed;
  return out;
}

}  // namespace

Result<SampleOutcome> SampleSubgraphSimilarityProbabilityAnytime(
    const ProbabilisticGraph& g, const std::vector<Graph>& relaxed,
    const VerifierOptions& options, Rng* rng, VerifierScratch* scratch,
    const std::vector<MatchPlan>* plans, const SampleControl& control,
    const SignatureGate* gate) {
  if (control.cancel != nullptr && control.cancel->IsCancelled()) {
    // Clear the gate telemetry CollectSimilarityEvents would have reset, so
    // callers accumulating after a cancelled run don't re-read the previous
    // candidate's counts.
    scratch->sig_pairs_rejected = 0;
    scratch->domain_candidates_pruned = 0;
    scratch->vf2_calls_avoided = 0;
    scratch->rq_plans_compiled = 0;
    return UndrawOutcome(1.0, /*completed=*/false);
  }
  PGSIM_RETURN_NOT_OK(
      CollectSimilarityEvents(g, relaxed, options, scratch, plans, gate));
  EventSetPool& events = scratch->events;
  if (events.empty()) {
    // No embedding of any relaxed query: the SSP is exactly 0.
    SampleOutcome out;
    out.hi = 0.0;
    return out;
  }
  // Absorption shrinks the event list without changing the union.
  AbsorbPoolEvents(&events, &scratch->dead_stamp);

  const size_t num_edges = g.NumEdges();
  const size_t wpr = events.words_per_row();
  const size_t m = events.size();
  const bool partition = g.kind() == JointModelKind::kPartition;

  // Union of event supports: edges outside it cannot affect any event, so
  // sampling is restricted to the ne sets that intersect it.
  EdgeBitset& support = scratch->support;
  support.ResetTo(num_edges);
  for (size_t i = 0; i < m; ++i) support.OrWords(events.Row(i), wpr);
  std::vector<uint32_t>& active_ne = scratch->active_ne;
  active_ne.clear();
  const auto& ne_sets = g.ne_sets();
  for (size_t ni = 0; ni < ne_sets.size(); ++ni) {
    for (EdgeId e : ne_sets[ni].edges) {
      if (support.Test(e)) {
        active_ne.push_back(static_cast<uint32_t>(ni));
        break;
      }
    }
  }
  const size_t num_active = active_ne.size();

  // Exact marginals Pr(Bfi) via the joint model ("junction tree" step).
  // Partition models get them as a byproduct of compiling the sampling plan
  // below (the product of each event's conditional ne-set masses).
  std::vector<double>& marginals = scratch->marginals;
  marginals.resize(m);
  if (partition) {
    // ---- Compile the per-candidate sampling plan. ----
    // One unconditional step per active ne set: its dense probability table
    // plus, per assignment, the world words to OR in. Per event, override
    // steps for the ne sets the event intersects: only the assignments
    // consistent with "event edges present", with their total mass. The
    // per-draw loop below then runs straight over these flat arrays — no
    // care-mask recomputation, no per-draw marginal rescan.
    std::vector<uint32_t>& step_off = scratch->plan_step_off;
    std::vector<double>& plan_prob = scratch->plan_prob;
    std::vector<uint64_t>& plan_bits = scratch->plan_bits;
    step_off.assign(num_active + 1, 0);
    plan_prob.clear();
    plan_bits.clear();
    for (size_t ai = 0; ai < num_active; ++ai) {
      const NeighborEdgeSet& ne = ne_sets[active_ne[ai]];
      const uint32_t table_size = 1U << ne.table.arity();
      step_off[ai] = static_cast<uint32_t>(plan_prob.size());
      for (uint32_t mask = 0; mask < table_size; ++mask) {
        plan_prob.push_back(ne.table.Prob(mask));
        const size_t base = plan_bits.size();
        plan_bits.resize(base + wpr, 0);
        for (size_t j = 0; j < ne.edges.size(); ++j) {
          if ((mask >> j) & 1U) {
            plan_bits[base + (ne.edges[j] >> 6)] |=
                (1ULL << (ne.edges[j] & 63));
          }
        }
      }
    }
    step_off[num_active] = static_cast<uint32_t>(plan_prob.size());

    std::vector<uint32_t>& ov_row_off = scratch->ov_row_off;
    std::vector<uint32_t>& ov_active = scratch->ov_active;
    std::vector<uint32_t>& ov_entry_off = scratch->ov_entry_off;
    std::vector<double>& ov_mass = scratch->ov_mass;
    std::vector<double>& ov_prob = scratch->ov_prob;
    std::vector<uint64_t>& ov_bits = scratch->ov_bits;
    ov_row_off.assign(m + 1, 0);
    ov_active.clear();
    ov_entry_off.clear();
    ov_mass.clear();
    ov_prob.clear();
    ov_bits.clear();
    for (size_t i = 0; i < m; ++i) {
      const uint64_t* row = events.Row(i);
      double marginal = 1.0;
      for (size_t ai = 0; ai < num_active; ++ai) {
        const NeighborEdgeSet& ne = ne_sets[active_ne[ai]];
        uint32_t care = 0;
        for (size_t j = 0; j < ne.edges.size(); ++j) {
          if ((row[ne.edges[j] >> 6] >> (ne.edges[j] & 63)) & 1ULL) {
            care |= (1U << j);
          }
        }
        if (care == 0) continue;  // unconditioned: the global step applies
        ov_active.push_back(static_cast<uint32_t>(ai));
        ov_entry_off.push_back(static_cast<uint32_t>(ov_prob.size()));
        const uint32_t table_size = 1U << ne.table.arity();
        double mass = 0.0;
        for (uint32_t mask = 0; mask < table_size; ++mask) {
          if ((mask & care) != care) continue;  // an event edge absent
          const double p = ne.table.Prob(mask);
          ov_prob.push_back(p);
          mass += p;
          const size_t base = ov_bits.size();
          ov_bits.resize(base + wpr, 0);
          for (size_t j = 0; j < ne.edges.size(); ++j) {
            if ((mask >> j) & 1U) {
              ov_bits[base + (ne.edges[j] >> 6)] |=
                  (1ULL << (ne.edges[j] & 63));
            }
          }
        }
        ov_mass.push_back(mass);
        marginal *= mass;
      }
      ov_row_off[i + 1] = static_cast<uint32_t>(ov_active.size());
      marginals[i] = marginal;
    }
    ov_entry_off.push_back(static_cast<uint32_t>(ov_prob.size()));
  } else {
    for (size_t i = 0; i < m; ++i) {
      scratch->tmp.AssignWords(events.Row(i), num_edges);
      marginals[i] = g.MarginalAllPresent(scratch->tmp, &scratch->sample);
    }
  }

  // Descending-marginal order: likely events come first, so the most
  // frequently drawn event sits at position 0 — where canonicity is free.
  // Exact marginal ties (possible under hand-set uniform probabilities)
  // break by row content, not insertion order — rows are deduplicated, so
  // this is a total order and the draw sequence is a pure function of the
  // event *set* and the model, independent of the enumeration order the
  // compiled match plans produced the events in.
  std::vector<uint32_t>& order = scratch->order;
  order.resize(m);
  for (size_t i = 0; i < m; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (marginals[a] != marginals[b]) return marginals[a] > marginals[b];
    const uint64_t* ra = events.Row(a);
    const uint64_t* rb = events.Row(b);
    return std::lexicographical_compare(ra, ra + wpr, rb, rb + wpr);
  });

  // Cumulative distribution for i ∝ Pr(Bfi)/V, in sorted order. V itself is
  // the cumulative tail, so it too is summed in sorted order — insertion
  // order must not leak into any floating-point result.
  std::vector<double>& cumulative = scratch->cumulative;
  cumulative.resize(m);
  double acc = 0.0;
  for (size_t p = 0; p < m; ++p) {
    acc += marginals[order[p]];
    cumulative[p] = acc;
  }
  const double v = acc;
  if (v <= 0.0) {
    // Every event has zero marginal: the SSP is exactly 0.
    SampleOutcome out;
    out.hi = 0.0;
    return out;
  }

  // Contiguous copy of the rows in sorted order: the canonicity scan walks
  // events[0..pos) back to back instead of hopping through `order`.
  EventSetPool& sorted = scratch->sorted_events;
  sorted.Reset(num_edges);
  for (size_t p = 0; p < m; ++p) {
    const size_t r = sorted.AddRow();
    std::copy(events.Row(order[p]), events.Row(order[p]) + wpr,
              sorted.Row(r));
  }

  // Per-edge inverted index: edge -> ascending sorted-event positions. A
  // round marks the events killed by each absent support edge; an earlier
  // event that survives marking holds, making the round non-canonical.
  std::vector<uint32_t>& inv_offsets = scratch->inv_offsets;
  std::vector<uint32_t>& inv_entries = scratch->inv_entries;
  inv_offsets.assign(num_edges + 1, 0);
  size_t total_bits = 0;
  for (size_t p = 0; p < m; ++p) {
    ForEachBit(sorted.Row(p), wpr, [&](size_t e) {
      ++inv_offsets[e + 1];
      ++total_bits;
    });
  }
  for (size_t e = 1; e <= num_edges; ++e) inv_offsets[e] += inv_offsets[e - 1];
  inv_entries.resize(total_bits);
  for (size_t p = 0; p < m; ++p) {  // ascending p => ascending per-edge lists
    ForEachBit(sorted.Row(p), wpr, [&](size_t e) {
      inv_entries[inv_offsets[e]++] = static_cast<uint32_t>(p);
    });
  }
  for (size_t e = num_edges; e > 0; --e) inv_offsets[e] = inv_offsets[e - 1];
  inv_offsets[0] = 0;

  scratch->dead_stamp.assign(m, 0);
  scratch->stamp = 0;

  // Fixed-N stopping (Algorithm 5).
  const uint64_t fixed_n = options.mc.NumSamples();
  const Span<const uint32_t> active(active_ne.data(), active_ne.size());
  std::vector<uint64_t>& world_words = scratch->world_words;
  // Canonicity strategy: direct superset scans win while a row is a couple
  // of words; the inverted index wins once rows get wide enough that each
  // ContainsAll costs more than touching the few absent-edge incidences.
  const bool narrow_rows = wpr <= 2;
  uint64_t cnt = 0;
  uint64_t drawn = 0;
  bool completed = true;
  for (;;) {
    // Cancellation point: one relaxed load per draw (plus the deterministic
    // after-N-draws test hook). Checked before the stopping rule so a
    // cancelled run stops without consuming another RNG draw — the partial
    // state is a pure function of (seed, draws taken).
    if ((control.cancel_after_draws != 0 &&
         drawn >= control.cancel_after_draws) ||
        (control.cancel != nullptr && control.cancel->IsCancelled())) {
      completed = false;
      break;
    }
    if (drawn >= fixed_n) break;
    ++drawn;
    // Line 4: choose i with probability Pr(Bfi)/V.
    const double target = rng->UniformDouble() * v;
    const size_t found = static_cast<size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), target) -
        cumulative.begin());
    const size_t pos = std::min(found, m - 1);
    const uint32_t row = order[pos];
    if (marginals[row] <= 0.0) continue;
    // Position 0 has no earlier events: the round is canonical whatever
    // world would be drawn, so skip sampling it. Descending-marginal order
    // makes this the most probable — and now cheapest — case.
    if (pos == 0) {
      ++cnt;
      continue;
    }
    // Line 5: sample a world conditioned on Bf = 1, support-restricted.
    const uint64_t* world;
    if (partition) {
      // Run the precompiled plan: per active ne set one uniform draw, a
      // compact CDF scan, and an OR of the chosen assignment's words.
      world_words.assign(wpr, 0);
      size_t ov = scratch->ov_row_off[row];
      const size_t ov_end = scratch->ov_row_off[row + 1];
      for (size_t ai = 0; ai < num_active; ++ai) {
        const double* probs;
        const uint64_t* bits;
        size_t n;
        double mass;
        if (ov < ov_end && scratch->ov_active[ov] == ai) {
          const uint32_t b = scratch->ov_entry_off[ov];
          n = scratch->ov_entry_off[ov + 1] - b;
          probs = scratch->ov_prob.data() + b;
          bits = scratch->ov_bits.data() + size_t{b} * wpr;
          mass = scratch->ov_mass[ov];
          ++ov;
        } else {
          const uint32_t b = scratch->plan_step_off[ai];
          n = scratch->plan_step_off[ai + 1] - b;
          probs = scratch->plan_prob.data() + b;
          bits = scratch->plan_bits.data() + size_t{b} * wpr;
          mass = 1.0;
        }
        double t = rng->UniformDouble() * mass;
        size_t chosen = n - 1;  // floating-point tail underflow
        for (size_t e2 = 0; e2 < n; ++e2) {
          t -= probs[e2];
          if (t < 0.0) {
            chosen = e2;
            break;
          }
        }
        const uint64_t* bw = bits + chosen * wpr;
        for (size_t w = 0; w < wpr; ++w) world_words[w] |= bw[w];
      }
      world = world_words.data();
    } else {
      scratch->tmp.AssignWords(events.Row(row), num_edges);
      const Status sampled = g.SampleWorldConditionedAllPresentInto(
          rng, scratch->tmp, active, &scratch->sample, &scratch->world);
      if (!sampled.ok()) continue;  // zero-mass condition: contributes nothing
      world = scratch->world.words().data();
    }
    // Line 6: count iff no earlier event also holds (Karp–Luby canonicity).
    if (narrow_rows) {
      // Narrow rows: a superset test is one or two word ops, so scan the
      // earlier (likelier-to-hold, thanks to the marginal sort) events
      // directly and exit at the first holder.
      bool canonical = true;
      for (size_t p = 0; p < pos; ++p) {
        if (EventSetPool::ContainsAll(world, sorted.Row(p), wpr)) {
          canonical = false;  // event p holds
          break;
        }
      }
      if (canonical) ++cnt;
    } else {
      // Wide rows: consult the per-edge inverted index instead — only the
      // events whose support intersects an absent support edge are touched.
      // Mark those dead; the round is canonical iff all `pos` earlier
      // events die.
      const uint32_t stamp = ++scratch->stamp;
      const std::vector<uint64_t>& support_words = support.words();
      size_t dead_below = 0;
      for (size_t wi = 0; wi < wpr; ++wi) {
        uint64_t absent = support_words[wi] & ~world[wi];
        while (absent) {
          const size_t e =
              wi * 64 + static_cast<size_t>(__builtin_ctzll(absent));
          absent &= absent - 1;
          const uint32_t begin = inv_offsets[e];
          const uint32_t end = inv_offsets[e + 1];
          for (uint32_t k = begin; k < end; ++k) {
            const uint32_t p = inv_entries[k];
            if (p >= pos) break;  // ascending lists: later events irrelevant
            if (scratch->dead_stamp[p] != stamp) {
              scratch->dead_stamp[p] = stamp;
              ++dead_below;
            }
          }
        }
      }
      if (dead_below == pos) ++cnt;  // no earlier event survived
    }
  }
  if (drawn == 0) return UndrawOutcome(std::min(v, 1.0), completed);
  SampleOutcome out;
  out.drawn = drawn;
  out.hits = cnt;
  out.completed = completed;
  out.estimate = std::clamp(
      v * static_cast<double>(cnt) / static_cast<double>(drawn), 0.0, 1.0);
  // Hoeffding at level 1 - xi: each round's indicator is bounded by [0, 1]
  // and scaled by v, so the half-width is v * sqrt(ln(2/xi) / (2 * drawn)).
  const double half_width =
      v * std::sqrt(std::log(2.0 / std::clamp(options.mc.xi, 1e-9, 0.999)) /
                    (2.0 * static_cast<double>(drawn)));
  out.lo = std::max(out.estimate - half_width, 0.0);
  out.hi = std::min({out.estimate + half_width, v, 1.0});
  return out;
}

}  // namespace pgsim
