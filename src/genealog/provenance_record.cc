#include "genealog/provenance_record.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <span>
#include <stdexcept>

#include "common/fnv.h"
#include "core/type_registry.h"

namespace genealog {

namespace {

constexpr uint32_t kFileMagic = 0x46504C47;  // "GLPF" little-endian
constexpr uint32_t kFileVersion = 2;
constexpr size_t kFileHeaderBytes = 4 + 4;
// body bytes + record count + checksum
constexpr size_t kBlockHeaderBytes = 4 + 4 + 8;

}  // namespace

void ProvenanceBlockEncoder::Add(const ProvenanceRecord& record) {
  // Checked before anything is written, so a rejected record leaves the
  // block and the coder as they were.
  const auto unfolded = [](const TuplePtr& t) {
    return t->type_tag() == tags::kUnfolded;
  };
  if (unfolded(record.derived) ||
      std::any_of(record.origins.begin(), record.origins.end(), unfolded)) {
    throw std::invalid_argument(
        "provenance record: an unfolded tuple cannot be a record's derived "
        "tuple or origin");
  }
  PutVarint(body_, record.origins.size());
  coder_.Put(body_, *record.derived, record.derived->kind,
             WireRole::kDerived);
  for (const TuplePtr& o : record.origins) coder_.PutOrigin(body_, *o);
  ++body_records_;
  if (body_.size() >= kProvenanceBlockBytes) Seal();
}

void ProvenanceBlockEncoder::Seal() {
  if (body_records_ == 0) return;
  if (file_header_ && blocks_ == 0) {
    sealed_.PutU32(kFileMagic);
    sealed_.PutU32(kFileVersion);
  }
  const std::vector<uint8_t>& body = body_.bytes();
  sealed_.PutU32(static_cast<uint32_t>(body.size()));
  sealed_.PutU32(body_records_);
  sealed_.PutU64(Fnv1a(body.data(), body.size()));
  sealed_.PutBytes(body.data(), body.size());
  ++blocks_;
  body_.Clear();
  body_records_ = 0;
  coder_.Reset();
}

uint64_t ReadProvenanceBlock(
    ByteReader& r, std::string_view source, uint64_t index,
    const std::function<void(ProvenanceRecord&)>& fn) {
  const size_t offset = r.position();
  const auto named = [&](const std::string& what) {
    return std::string(source) + ": block " + std::to_string(index) +
           " at byte " + std::to_string(offset) + ": " + what;
  };
  if (r.remaining() < kBlockHeaderBytes) {
    throw std::out_of_range(named("torn block header (" +
                                  std::to_string(r.remaining()) +
                                  " bytes left)"));
  }
  const uint32_t body_bytes = r.GetU32();
  const uint32_t count = r.GetU32();
  const uint64_t checksum = r.GetU64();
  if (body_bytes > r.remaining()) {
    throw std::out_of_range(named(
        "torn block: its " + std::to_string(body_bytes) + "-byte body runs " +
        "past the end of the input (" + std::to_string(r.remaining()) +
        " bytes left)"));
  }
  const std::span<const uint8_t> body = r.GetView(body_bytes);
  if (Fnv1a(body.data(), body.size()) != checksum) {
    throw std::runtime_error(named("block checksum mismatch"));
  }
  // Every record takes at least one body byte.
  if (count > body_bytes) {
    throw std::runtime_error(named("record count " + std::to_string(count) +
                                   " exceeds the " +
                                   std::to_string(body_bytes) +
                                   "-byte body"));
  }

  std::vector<ProvenanceRecord> records;
  ByteReader in(body.data(), body.size());
  CompactTupleDecoder coder;
  for (uint32_t i = 0; i < count; ++i) {
    try {
      const uint64_t n = GetVarint(in);
      if (n > in.remaining()) {  // every origin takes at least one byte
        throw std::runtime_error("origin count " + std::to_string(n) +
                                 " exceeds the remaining " +
                                 std::to_string(in.remaining()) + " bytes");
      }
      ProvenanceRecord rec;
      rec.derived = coder.Get(in, WireRole::kDerived);
      rec.derived_id = rec.derived->id;
      rec.derived_ts = rec.derived->ts;
      rec.origins.reserve(static_cast<size_t>(n));
      for (uint64_t j = 0; j < n; ++j) {
        rec.origins.push_back(coder.GetOrigin(in));
      }
      records.push_back(std::move(rec));
    } catch (const std::exception& e) {
      // The checksum held, so the body is as written: a record that does not
      // decode is a corrupt file (or an unregistered type), not a torn one.
      throw std::runtime_error(
          named("record " + std::to_string(i) + ": " + e.what()));
    }
  }
  if (!in.AtEnd()) {
    throw std::runtime_error(named("trailing bytes after record " +
                                   std::to_string(count)));
  }
  for (ProvenanceRecord& rec : records) fn(rec);
  return count;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(std::string("cannot open ") + what + " " + path);
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

uint64_t ReadProvenanceFile(const std::string& path,
                            const std::function<void(ProvenanceRecord&)>& fn) {
  const std::vector<uint8_t> bytes = ReadFileBytes(path, "provenance file");
  const std::string source = "provenance file " + path;
  if (bytes.empty()) return 0;
  if (bytes.size() < kFileHeaderBytes) {
    throw std::out_of_range(source + ": torn file header (" +
                            std::to_string(bytes.size()) + " bytes)");
  }
  ByteReader r(bytes);
  if (r.GetU32() != kFileMagic) {
    throw std::runtime_error(source + " is not a provenance file (bad magic)");
  }
  const uint32_t version = r.GetU32();
  if (version != kFileVersion) {
    throw std::runtime_error(source + ": unsupported provenance file version " +
                             std::to_string(version));
  }
  uint64_t records = 0;
  for (uint64_t block = 0; !r.AtEnd(); ++block) {
    records += ReadProvenanceBlock(r, source, block, fn);
  }
  return records;
}

std::vector<std::vector<uint8_t>> CanonicalProvenanceRecords(
    const std::string& path) {
  // Masks a copy: a block's repeated origins share one decoded tuple.
  const auto masked = [](const Tuple& t) {
    TuplePtr copy = t.CloneTuple();  // ts, stimulus and payload; id 0
    copy->kind = t.kind;
    copy->stimulus = 0;
    if (const auto* ann = t.baseline_annotation()) {
      copy->set_baseline_annotation(std::vector<uint64_t>(ann->size(), 0));
    }
    ByteWriter w;
    SerializeTuple(*copy, w);
    return w.TakeBytes();
  };
  std::vector<std::vector<uint8_t>> records;
  ReadProvenanceFile(path, [&](ProvenanceRecord& rec) {
    std::vector<std::vector<uint8_t>> origins;
    for (const TuplePtr& o : rec.origins) origins.push_back(masked(*o));
    std::sort(origins.begin(), origins.end());
    // The raw layout: SerializeTuple(derived) | u32 n | SerializeTuple × n.
    std::vector<uint8_t> record = masked(*rec.derived);
    ByteWriter n;
    n.PutU32(static_cast<uint32_t>(origins.size()));
    record.insert(record.end(), n.bytes().begin(), n.bytes().end());
    for (const auto& o : origins) {
      record.insert(record.end(), o.begin(), o.end());
    }
    records.push_back(std::move(record));
  });
  std::sort(records.begin(), records.end());
  return records;
}

ProvenanceFileWriter::ProvenanceFileWriter(std::string owner, std::string path,
                                           size_t buffer_bytes)
    : owner_(std::move(owner)), path_(std::move(path)) {
  if (path_.empty()) return;
  std::FILE* file = std::fopen(path_.c_str(), "wb");
  if (file == nullptr) {
    throw std::runtime_error(owner_ + ": cannot open provenance file " +
                             path_);
  }
  writer_ = std::make_unique<AsyncFileWriter>(file, buffer_bytes);
}

ProvenanceFileWriter::~ProvenanceFileWriter() { Flush(); }

void ProvenanceFileWriter::Write(const ProvenanceRecord& record) {
  ++records_;
  origin_tuples_ += record.origins.size();
  encoder_.Add(record);
  if (!encoder_.sealed().empty()) Drain();
}

void ProvenanceFileWriter::Drain() {
  const std::vector<uint8_t>& sealed = encoder_.sealed();
  bytes_written_ += sealed.size();
  if (writer_ != nullptr) writer_->Append(sealed.data(), sealed.size());
  encoder_.ClearSealed();
}

void ProvenanceFileWriter::Flush() {
  encoder_.Seal();
  Drain();
  if (writer_ == nullptr) return;
  writer_->Flush();
  if (!writer_->write_error() || write_error_warned_) return;
  write_error_warned_ = true;
  std::fprintf(stderr,
               "%s: background write to %s failed (disk full / I/O error); "
               "the provenance file is truncated\n",
               owner_.c_str(), path_.c_str());
}

bool ProvenanceFileWriter::write_error() const {
  return writer_ != nullptr && writer_->write_error();
}

}  // namespace genealog
