#include "genealog/provenance_record.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "core/type_registry.h"

namespace genealog {

void WriteProvenanceRecord(const ProvenanceRecord& record, ByteWriter& w) {
  SerializeTuple(*record.derived, w);
  w.PutU32(static_cast<uint32_t>(record.origins.size()));
  for (const TuplePtr& o : record.origins) SerializeTuple(*o, w);
}

void WriteProvenanceRecord(std::span<const uint8_t> derived,
                           std::span<const std::span<const uint8_t>> origins,
                           ByteWriter& w) {
  w.PutBytes(derived.data(), derived.size());
  w.PutU32(static_cast<uint32_t>(origins.size()));
  for (const auto& o : origins) w.PutBytes(o.data(), o.size());
}

ProvenanceRecord ReadProvenanceRecord(ByteReader& r, std::string_view source,
                                      uint64_t index) {
  const size_t offset = r.position();
  const auto named = [&](const char* what) {
    return std::string(source) + ": record " + std::to_string(index) +
           " at byte " + std::to_string(offset) + ": " + what;
  };
  try {
    ProvenanceRecord rec;
    rec.derived = DeserializeTuple(r);
    rec.derived_id = rec.derived->id;
    rec.derived_ts = rec.derived->ts;
    const uint32_t n = r.GetU32();
    if (n > r.remaining() / kMinSerializedTupleBytes) {
      throw std::out_of_range("origin count " + std::to_string(n) +
                              " exceeds the remaining " +
                              std::to_string(r.remaining()) + " bytes");
    }
    rec.origins.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      rec.origins.push_back(DeserializeTuple(r));
    }
    return rec;
  } catch (const std::out_of_range& e) {
    throw std::out_of_range(named(e.what()));
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(named(e.what()));
  }
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
  ByteReader r(bytes);
  uint64_t records = 0;
  for (; !r.AtEnd(); ++records) {
    ProvenanceRecord rec = ReadProvenanceRecord(r, source, records);
    fn(rec);
  }
  return records;
}

std::vector<std::vector<uint8_t>> CanonicalProvenanceRecords(
    const std::string& path) {
  const auto masked = [](Tuple& t) {
    t.id = 0;
    t.stimulus = 0;
    if (const auto* ann = t.baseline_annotation()) {
      t.set_baseline_annotation(std::vector<uint64_t>(ann->size(), 0));
    }
    ByteWriter w;
    SerializeTuple(t, w);
    return w.TakeBytes();
  };
  std::vector<std::vector<uint8_t>> records;
  ReadProvenanceFile(path, [&](ProvenanceRecord& rec) {
    std::vector<std::vector<uint8_t>> origins;
    for (const TuplePtr& o : rec.origins) origins.push_back(masked(*o));
    std::sort(origins.begin(), origins.end());
    const std::vector<std::span<const uint8_t>> spans(origins.begin(),
                                                      origins.end());
    ByteWriter w;
    WriteProvenanceRecord(masked(*rec.derived), spans, w);
    records.push_back(w.TakeBytes());
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
  scratch_.Clear();
  WriteProvenanceRecord(record, scratch_);
  bytes_written_ += scratch_.size();
  if (writer_ != nullptr) {
    writer_->Append(scratch_.bytes().data(), scratch_.size());
  }
}

void ProvenanceFileWriter::Flush() {
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
