#include "pgsim/index/domain_index.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "pgsim/common/thread_pool.h"
#include "pgsim/graph/io.h"
#include "pgsim/storage/io_util.h"

namespace pgsim {

namespace {

constexpr uint32_t kSigMagic = 0x50475347u;  // "PGSG"
constexpr uint32_t kSigVersion = 1;

// Raw little-endian column packing, matching the filter's cell encoding.
void AppendU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void AppendU64(std::string* out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t ParseU32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

uint64_t ParseU64(const char* p) {
  return uint64_t{ParseU32(p)} | uint64_t{ParseU32(p + 4)} << 32;
}

}  // namespace

SignatureIndex SignatureIndex::Build(
    const std::vector<ProbabilisticGraph>& database) {
  return Build(database, BuildOptions());
}

SignatureIndex SignatureIndex::Build(
    const std::vector<ProbabilisticGraph>& database,
    const BuildOptions& options) {
  SignatureIndex idx;
  const size_t n = database.size();
  idx.offsets_.resize(n + 1);
  idx.offsets_[0] = 0;
  for (size_t gi = 0; gi < n; ++gi) {
    idx.offsets_[gi + 1] =
        idx.offsets_[gi] + database[gi].certain().NumVertices();
  }
  const uint32_t total = idx.offsets_[n];
  idx.nbr_bits_.resize(total);
  idx.hop2_bits_.resize(total);
  idx.degree_.resize(total);
  idx.label_counts_.resize(size_t{total} * kSignatureLabelSlots);
  idx.alive_.assign(n, 1);
  idx.num_alive_ = n;

  // Workers own disjoint pre-sized slices: byte-identical at any width.
  const ScopedPool pool(options.num_threads);
  ForEachIndex(pool.get(), n, 4, [&](size_t gi) {
    const uint32_t begin = idx.offsets_[gi];
    BuildVertexSignatures(
        database[gi].certain(), idx.nbr_bits_.data() + begin,
        idx.hop2_bits_.data() + begin, idx.degree_.data() + begin,
        idx.label_counts_.data() + size_t{begin} * kSignatureLabelSlots);
  });
  return idx;
}

uint32_t SignatureIndex::AddGraph(const Graph& certain) {
  const uint32_t id = static_cast<uint32_t>(num_graphs());
  const uint32_t begin = offsets_.back();
  const uint32_t nv = certain.NumVertices();
  nbr_bits_.resize(begin + nv);
  hop2_bits_.resize(begin + nv);
  degree_.resize(begin + nv);
  label_counts_.resize(size_t{begin + nv} * kSignatureLabelSlots);
  BuildVertexSignatures(certain, nbr_bits_.data() + begin,
                        hop2_bits_.data() + begin, degree_.data() + begin,
                        label_counts_.data() +
                            size_t{begin} * kSignatureLabelSlots);
  offsets_.push_back(begin + nv);
  alive_.push_back(1);
  ++num_alive_;
  return id;
}

Status SignatureIndex::RemoveGraph(uint32_t graph_id) {
  if (graph_id >= num_graphs()) {
    return Status::InvalidArgument(
        "SignatureIndex::RemoveGraph: graph id out of range");
  }
  if (alive_[graph_id] == 0) {
    return Status::InvalidArgument(
        "SignatureIndex::RemoveGraph: graph already removed");
  }
  // Tombstone only: the slice stays readable until Compact so ForGraph on a
  // dead id (e.g. a racing stats reader) is still well-formed.
  alive_[graph_id] = 0;
  --num_alive_;
  return Status::OK();
}

void SignatureIndex::Compact() {
  const size_t n = num_graphs();
  std::vector<uint32_t> offsets = {0};
  offsets.reserve(num_alive_ + 1);
  std::vector<uint64_t> nbr, hop2;
  std::vector<uint32_t> deg;
  std::vector<uint8_t> counts;
  for (uint32_t gi = 0; gi < n; ++gi) {
    if (alive_[gi] == 0) continue;
    const uint32_t begin = offsets_[gi];
    const uint32_t end = offsets_[gi + 1];
    nbr.insert(nbr.end(), nbr_bits_.begin() + begin, nbr_bits_.begin() + end);
    hop2.insert(hop2.end(), hop2_bits_.begin() + begin,
                hop2_bits_.begin() + end);
    deg.insert(deg.end(), degree_.begin() + begin, degree_.begin() + end);
    counts.insert(counts.end(),
                  label_counts_.begin() + size_t{begin} * kSignatureLabelSlots,
                  label_counts_.begin() + size_t{end} * kSignatureLabelSlots);
    offsets.push_back(static_cast<uint32_t>(nbr.size()));
  }
  offsets_ = std::move(offsets);
  nbr_bits_ = std::move(nbr);
  hop2_bits_ = std::move(hop2);
  degree_ = std::move(deg);
  label_counts_ = std::move(counts);
  alive_.assign(num_alive_, 1);
}

Status SignatureIndex::Save(const std::string& path, uint64_t epoch) const {
  SnapshotWriter writer(kSigMagic, kSigVersion);
  const uint32_t n = static_cast<uint32_t>(num_graphs());
  const uint32_t total = offsets_.back();

  std::ostringstream header;
  WriteU32(header, n);
  WriteU32(header, static_cast<uint32_t>(num_alive_));
  WriteU32(header, total);
  WriteU64(header, epoch);
  writer.AddSection(header.str());

  std::string offsets;
  offsets.reserve(4 * (size_t{n} + 1));
  for (uint32_t o : offsets_) AppendU32(&offsets, o);
  writer.AddSection(offsets);

  std::string alive(n, '\0');
  for (uint32_t gi = 0; gi < n; ++gi) {
    if (alive_[gi] != 0) alive[gi] = '\1';
  }
  writer.AddSection(alive);

  std::string nbr;
  nbr.reserve(8 * size_t{total});
  for (uint64_t b : nbr_bits_) AppendU64(&nbr, b);
  writer.AddSection(nbr);

  std::string hop2;
  hop2.reserve(8 * size_t{total});
  for (uint64_t b : hop2_bits_) AppendU64(&hop2, b);
  writer.AddSection(hop2);

  std::string deg;
  deg.reserve(4 * size_t{total});
  for (uint32_t d : degree_) AppendU32(&deg, d);
  writer.AddSection(deg);

  writer.AddSection(std::string(
      reinterpret_cast<const char*>(label_counts_.data()),
      label_counts_.size()));

  return writer.Commit(path, "snapshot.sig");
}

Result<SignatureIndex> SignatureIndex::Load(const std::string& path) {
  PGSIM_ASSIGN_OR_RETURN(SnapshotReader snap,
                         SnapshotReader::Open(path, kSigMagic));
  if (snap.version() != kSigVersion) {
    return Status::InvalidArgument(
        "SignatureIndex::Load: unsupported version " +
        std::to_string(snap.version()));
  }
  if (snap.num_sections() != 7) {
    return Status::DataLoss("SignatureIndex::Load: expected 7 sections in " +
                            path);
  }

  std::istringstream hs(snap.section(0));
  PGSIM_ASSIGN_OR_RETURN(const uint32_t n, ReadU32(hs));
  PGSIM_ASSIGN_OR_RETURN(const uint32_t num_alive, ReadU32(hs));
  PGSIM_ASSIGN_OR_RETURN(const uint32_t total, ReadU32(hs));
  SignatureIndex idx;
  PGSIM_ASSIGN_OR_RETURN(idx.saved_epoch_, ReadU64(hs));

  const std::string& offsets = snap.section(1);
  if (offsets.size() != 4 * (size_t{n} + 1)) {
    return Status::DataLoss(
        "SignatureIndex::Load: offsets section has wrong size in " + path);
  }
  idx.offsets_.resize(size_t{n} + 1);
  for (size_t i = 0; i <= n; ++i) {
    idx.offsets_[i] = ParseU32(offsets.data() + 4 * i);
  }
  if (idx.offsets_[0] != 0 || idx.offsets_[n] != total ||
      !std::is_sorted(idx.offsets_.begin(), idx.offsets_.end())) {
    return Status::DataLoss(
        "SignatureIndex::Load: inconsistent offsets in " + path);
  }

  const std::string& alive = snap.section(2);
  if (alive.size() != n) {
    return Status::DataLoss(
        "SignatureIndex::Load: alive mask has wrong size in " + path);
  }
  idx.alive_.assign(n, 0);
  idx.num_alive_ = 0;
  for (uint32_t gi = 0; gi < n; ++gi) {
    if (alive[gi] != '\0') {
      idx.alive_[gi] = 1;
      ++idx.num_alive_;
    }
  }
  if (idx.num_alive_ != num_alive) {
    return Status::DataLoss(
        "SignatureIndex::Load: alive mask disagrees with header in " + path);
  }

  const std::string& nbr = snap.section(3);
  const std::string& hop2 = snap.section(4);
  const std::string& deg = snap.section(5);
  const std::string& counts = snap.section(6);
  if (nbr.size() != 8 * size_t{total} || hop2.size() != 8 * size_t{total} ||
      deg.size() != 4 * size_t{total} ||
      counts.size() != size_t{total} * kSignatureLabelSlots) {
    return Status::DataLoss(
        "SignatureIndex::Load: column section has wrong size in " + path);
  }
  idx.nbr_bits_.resize(total);
  idx.hop2_bits_.resize(total);
  idx.degree_.resize(total);
  for (size_t i = 0; i < total; ++i) {
    idx.nbr_bits_[i] = ParseU64(nbr.data() + 8 * i);
    idx.hop2_bits_[i] = ParseU64(hop2.data() + 8 * i);
    idx.degree_[i] = ParseU32(deg.data() + 4 * i);
  }
  idx.label_counts_.assign(counts.begin(), counts.end());
  return idx;
}

}  // namespace pgsim
