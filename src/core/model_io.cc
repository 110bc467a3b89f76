#include "core/model_io.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/check.h"
#include "common/failpoint.h"
#include "common/string_util.h"

namespace genclus {

namespace {

// --------------------------------------------------------------------------
// Binary container plumbing (layout documented in model_io.h).

constexpr char kBinaryMagic[8] = {'G', 'E', 'N', 'C', 'L', 'U', 'S', 'B'};
constexpr uint32_t kBinaryVersion = 1;
constexpr size_t kBinaryHeaderSize = 64;
constexpr size_t kBinaryAlignment = 64;

uint64_t Fnv1a64(const uint8_t* data, size_t size) {
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

size_t RoundUpTo(size_t value, size_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

// The container is defined little-endian; on the (guarded) little-endian
// hosts a memcpy of the native representation is exactly that encoding.
Status RequireLittleEndian() {
  if (std::endian::native != std::endian::little) {
    return Status::FailedPrecondition(
        "binary model I/O is little-endian only");
  }
  return Status::OK();
}

void AppendBytes(std::vector<uint8_t>* out, const void* src, size_t n) {
  const uint8_t* bytes = static_cast<const uint8_t*>(src);
  out->insert(out->end(), bytes, bytes + n);
}

template <typename T>
void AppendScalar(std::vector<uint8_t>* out, T value) {
  AppendBytes(out, &value, sizeof(T));
}

// Zero-pads `out` up to `size` (never shrinks).
void PadTo(std::vector<uint8_t>* out, size_t size) {
  GENCLUS_DCHECK(size >= out->size());
  out->resize(size, 0);
}

// Commits `chunks` to `path` atomically: the bytes go to a sibling
// `path + ".tmp"` first, are flushed (and fsync'd where available) there,
// and only a successful temp file is renamed over the target. A crash —
// or an injected "model_io.save" fault — mid-write therefore never
// replaces a good model file with a half-written one; at worst a .tmp
// debris file remains next to the intact target.
Status CommitFileAtomic(const std::string& path,
                        std::initializer_list<std::span<const uint8_t>>
                            chunks) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError(
        StrFormat("cannot open '%s' for writing", tmp.c_str()));
  }
  auto fail = [&](const char* what) {
    std::fclose(file);
    std::remove(tmp.c_str());
    return Status::IoError(StrFormat("%s '%s' failed", what, tmp.c_str()));
  };
  // Crash injection: write only half of the first chunk, close, and
  // report failure — the temp debris a real crash would leave. The
  // target must stay intact (model_io_test pins this).
  GENCLUS_FAILPOINT("model_io.save", {
    if (chunks.size() > 0 && chunks.begin()->size() > 0) {
      std::fwrite(chunks.begin()->data(), 1, chunks.begin()->size() / 2,
                  file);
    }
    std::fclose(file);
    return Status::IoError(
        StrFormat("injected crash while writing '%s'", tmp.c_str()));
  });
  for (const std::span<const uint8_t> chunk : chunks) {
    if (chunk.empty()) continue;
    if (std::fwrite(chunk.data(), 1, chunk.size(), file) != chunk.size()) {
      return fail("write to");
    }
  }
  if (std::fflush(file) != 0) return fail("flush of");
#if defined(__unix__) || defined(__APPLE__)
  // Durability before visibility: rename must never publish a file whose
  // bytes still live only in the page cache.
  if (fsync(fileno(file)) != 0) return fail("fsync of");
#endif
  if (std::fclose(file) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError(StrFormat("close of '%s' failed", tmp.c_str()));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError(StrFormat("rename of '%s' over '%s' failed",
                                     tmp.c_str(), path.c_str()));
  }
  return Status::OK();
}

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};

// Reads the file at `path` into `bytes` with one fread, into a buffer
// sized from the opened file. Only a regular file is read: a directory
// opens too, but its end offset is no length.
Status ReadFileImage(const std::string& path, std::vector<uint8_t>* bytes) {
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IoError(
        StrFormat("cannot open '%s' for reading", path.c_str()));
  }
  std::error_code error;
  if (!std::filesystem::is_regular_file(path, error)) {
    return Status::IoError(
        StrFormat("'%s' is not a regular file", path.c_str()));
  }
  long size = -1;
  if (std::fseek(file.get(), 0, SEEK_END) == 0) size = std::ftell(file.get());
  if (size < 0 || std::fseek(file.get(), 0, SEEK_SET) != 0) {
    return Status::IoError(StrFormat("cannot size '%s'", path.c_str()));
  }
  bytes->resize(static_cast<size_t>(size));
  // A file cut short since it was sized reads short; the header and
  // payload checks then report the truncation.
  bytes->resize(std::fread(bytes->data(), 1, bytes->size(), file.get()));
  if (std::ferror(file.get()) != 0) {
    return Status::IoError(StrFormat("read of '%s' failed", path.c_str()));
  }
  return Status::OK();
}

// Bounds-checked forward cursor over a loaded file image. Every read
// fails (returns false) instead of running past the buffer, so a
// truncated or lying file surfaces as a clean error at the call site.
class ByteReader {
 public:
  ByteReader(const std::vector<uint8_t>& bytes, size_t offset)
      : bytes_(bytes), offset_(offset) {}

  bool Read(void* dst, size_t n) {
    if (n > bytes_.size() - offset_) return false;
    std::memcpy(dst, bytes_.data() + offset_, n);
    offset_ += n;
    return true;
  }

  template <typename T>
  bool ReadScalar(T* out) {
    return Read(out, sizeof(T));
  }

  // u32 length-prefixed string.
  bool ReadString(std::string* out) {
    uint32_t length = 0;
    if (!ReadScalar(&length)) return false;
    if (length > bytes_.size() - offset_) return false;
    out->assign(reinterpret_cast<const char*>(bytes_.data()) + offset_,
                length);
    offset_ += length;
    return true;
  }

  bool SeekTo(size_t offset) {
    if (offset > bytes_.size()) return false;
    offset_ = offset;
    return true;
  }

  size_t offset() const { return offset_; }
  size_t remaining() const { return bytes_.size() - offset_; }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t offset_;
};

// Serializes everything after the 64-byte header: objective, link types
// + gammas, components, the aligned Θ block table and the raw Θ rows.
// Shared by SaveModelBinary and Model::Fingerprint, so the fingerprint
// IS the container's payload checksum.
std::vector<uint8_t> BuildModelPayload(const Model& model) {
  const size_t num_clusters = model.num_clusters();

  std::vector<uint8_t> payload;
  AppendScalar(&payload, model.objective);

  AppendScalar(&payload, static_cast<uint64_t>(model.link_types.size()));
  for (const std::string& name : model.link_types) {
    AppendScalar(&payload, static_cast<uint32_t>(name.size()));
    AppendBytes(&payload, name.data(), name.size());
  }
  for (double gamma : model.gamma) AppendScalar(&payload, gamma);

  AppendScalar(&payload, static_cast<uint64_t>(model.components.size()));
  for (size_t a = 0; a < model.components.size(); ++a) {
    const ModelAttributeInfo& info = model.attributes[a];
    const AttributeComponents& comp = model.components[a];
    const bool categorical = info.kind == AttributeKind::kCategorical;
    AppendScalar(&payload, static_cast<uint8_t>(categorical ? 0 : 1));
    AppendScalar(&payload, static_cast<uint32_t>(info.name.size()));
    AppendBytes(&payload, info.name.data(), info.name.size());
    AppendScalar(&payload,
                 static_cast<uint64_t>(categorical ? info.vocab_size : 0));
    if (categorical) {
      AppendBytes(&payload, comp.beta().data().data(),
                  num_clusters * info.vocab_size * sizeof(double));
    } else {
      for (size_t k = 0; k < num_clusters; ++k) {
        const GaussianDistribution& g =
            comp.gaussian(static_cast<ClusterId>(k));
        AppendScalar(&payload, g.mean());
        AppendScalar(&payload, g.variance());
      }
    }
  }

  // A one-entry Θ block table {node_begin, node_count, file offset, byte
  // count}, then Θ's raw rows, both 64-byte aligned in the file. The
  // header is itself 64 bytes, so aligning payload offsets aligns file
  // offsets too.
  const size_t num_nodes = model.num_nodes();
  const size_t theta_bytes = num_nodes * num_clusters * sizeof(double);
  PadTo(&payload, RoundUpTo(payload.size(), kBinaryAlignment));
  const size_t theta_offset =
      RoundUpTo(payload.size() + 4 * sizeof(uint64_t), kBinaryAlignment);
  AppendScalar(&payload, uint64_t{0});
  AppendScalar(&payload, static_cast<uint64_t>(num_nodes));
  AppendScalar(&payload,
               static_cast<uint64_t>(kBinaryHeaderSize + theta_offset));
  AppendScalar(&payload, static_cast<uint64_t>(theta_bytes));
  PadTo(&payload, theta_offset);
  AppendBytes(&payload, model.theta.data().data(), theta_bytes);
  return payload;
}

}  // namespace

uint64_t Model::Fingerprint() const {
  const std::vector<uint8_t> payload = BuildModelPayload(*this);
  return Fnv1a64(payload.data(), payload.size());
}

Status SaveModelBinary(const Model& model, const std::string& path) {
  GENCLUS_RETURN_IF_ERROR(model.Validate());
  GENCLUS_RETURN_IF_ERROR(RequireLittleEndian());
  const size_t num_nodes = model.num_nodes();
  const size_t num_clusters = model.num_clusters();
  std::vector<uint8_t> payload = BuildModelPayload(model);

  std::vector<uint8_t> header;
  header.reserve(kBinaryHeaderSize);
  AppendBytes(&header, kBinaryMagic, sizeof(kBinaryMagic));
  AppendScalar(&header, kBinaryVersion);
  AppendScalar(&header, uint32_t{0});  // flags
  AppendScalar(&header, static_cast<uint64_t>(payload.size()));
  AppendScalar(&header, Fnv1a64(payload.data(), payload.size()));
  AppendScalar(&header, static_cast<uint64_t>(num_nodes));
  AppendScalar(&header, static_cast<uint64_t>(num_clusters));
  AppendScalar(&header, uint64_t{1});  // Θ block count
  PadTo(&header, kBinaryHeaderSize);  // reserved tail

  return CommitFileAtomic(path, {header, payload});
}

Result<Model> LoadModelBinary(const std::string& path) {
  GENCLUS_RETURN_IF_ERROR(RequireLittleEndian());
  std::vector<uint8_t> bytes;
  GENCLUS_RETURN_IF_ERROR(ReadFileImage(path, &bytes));
  // Truncation injection: tests chop the file image in half to prove
  // every downstream bounds check turns it into a clean IoError.
  GENCLUS_FAILPOINT("model_io.load", bytes.resize(bytes.size() / 2));
  auto bad = [&](const char* why) {
    return Status::IoError(StrFormat("%s: %s", path.c_str(), why));
  };
  if (bytes.size() < kBinaryHeaderSize) {
    return bad("truncated binary model header");
  }
  if (std::memcmp(bytes.data(), kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    return bad("not a genclus binary model (bad magic)");
  }
  ByteReader header(bytes, sizeof(kBinaryMagic));
  uint32_t version = 0;
  uint32_t flags = 0;
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
  uint64_t num_nodes64 = 0;
  uint64_t num_clusters64 = 0;
  uint64_t num_blocks64 = 0;
  // Reads within the (size-checked) 64-byte header cannot fail.
  header.ReadScalar(&version);
  header.ReadScalar(&flags);
  header.ReadScalar(&payload_size);
  header.ReadScalar(&checksum);
  header.ReadScalar(&num_nodes64);
  header.ReadScalar(&num_clusters64);
  header.ReadScalar(&num_blocks64);
  if (version != kBinaryVersion) {
    return bad("unsupported binary model format version");
  }
  if (flags != 0) return bad("unsupported binary model flags");
  if (payload_size != bytes.size() - kBinaryHeaderSize) {
    return bad("payload size does not match the file (truncated?)");
  }
  if (checksum != Fnv1a64(bytes.data() + kBinaryHeaderSize, payload_size)) {
    return bad("payload checksum mismatch (corrupt file)");
  }
  const size_t num_nodes = static_cast<size_t>(num_nodes64);
  const size_t num_clusters = static_cast<size_t>(num_clusters64);
  // Model::Validate refuses K < 2 anyway; refusing it here keeps a zero K
  // away from the component constructors below.
  if (num_clusters < 2) return bad("cluster count must be >= 2");
  if (num_blocks64 < 1 ||
      num_blocks64 > std::max<uint64_t>(1, num_nodes64)) {
    return bad("theta block count out of range");
  }
  // Reject absurd extents before sizing Θ: every row must physically fit
  // in the payload, so a lying header cannot trigger a huge allocation.
  if (num_nodes > payload_size / sizeof(double) / num_clusters) {
    return bad("theta extent exceeds the file");
  }

  Model model;
  ByteReader reader(bytes, kBinaryHeaderSize);
  if (!reader.ReadScalar(&model.objective)) return bad("truncated objective");

  // Each link type takes at least a u32 name length and an f64 gamma.
  uint64_t num_link_types = 0;
  if (!reader.ReadScalar(&num_link_types) ||
      num_link_types >
          reader.remaining() / (sizeof(uint32_t) + sizeof(double))) {
    return bad("truncated link-type section");
  }
  model.link_types.resize(static_cast<size_t>(num_link_types));
  for (std::string& name : model.link_types) {
    if (!reader.ReadString(&name)) return bad("truncated link-type name");
  }
  model.gamma.resize(static_cast<size_t>(num_link_types));
  for (double& gamma : model.gamma) {
    if (!reader.ReadScalar(&gamma)) return bad("truncated gamma values");
  }

  uint64_t num_attributes = 0;
  if (!reader.ReadScalar(&num_attributes) ||
      num_attributes > reader.remaining()) {
    return bad("truncated attribute section");
  }
  for (uint64_t a = 0; a < num_attributes; ++a) {
    uint8_t kind = 0;
    ModelAttributeInfo info;
    uint64_t vocab = 0;
    if (!reader.ReadScalar(&kind) || !reader.ReadString(&info.name) ||
        !reader.ReadScalar(&vocab)) {
      return bad("truncated attribute record");
    }
    if (kind == 0) {
      info.kind = AttributeKind::kCategorical;
      info.vocab_size = static_cast<size_t>(vocab);
      if (info.vocab_size == 0 ||
          info.vocab_size >
              reader.remaining() / sizeof(double) / num_clusters) {
        return bad("categorical attribute extent exceeds the file");
      }
      const size_t cells = num_clusters * info.vocab_size;
      AttributeComponents comp = AttributeComponents::CategoricalUniform(
          num_clusters, info.vocab_size);
      if (!reader.Read(comp.mutable_beta()->data().data(),
                       cells * sizeof(double))) {
        return bad("truncated beta rows");
      }
      model.components.push_back(std::move(comp));
    } else if (kind == 1) {
      info.kind = AttributeKind::kNumerical;
      if (vocab != 0) return bad("numerical attribute declares a vocabulary");
      if (num_clusters > reader.remaining() / (2 * sizeof(double))) {
        return bad("truncated gaussian rows");
      }
      std::vector<GaussianDistribution> gaussians;
      gaussians.reserve(num_clusters);
      for (size_t k = 0; k < num_clusters; ++k) {
        double mean = 0.0;
        double variance = 0.0;
        if (!reader.ReadScalar(&mean) || !reader.ReadScalar(&variance)) {
          return bad("truncated gaussian rows");
        }
        if (!std::isfinite(mean) || !std::isfinite(variance) ||
            variance <= 0.0) {
          return bad("gaussian needs finite mean and positive variance");
        }
        gaussians.emplace_back(mean, variance);
      }
      model.components.push_back(
          AttributeComponents::Numerical(std::move(gaussians)));
    } else {
      return bad("unknown attribute kind");
    }
    model.attributes.push_back(std::move(info));
  }

  // Θ block table at the next 64-byte boundary; its entries must tile
  // [0, n) in ascending order, each block inside the file, into one Θ.
  if (!reader.SeekTo(RoundUpTo(reader.offset(), kBinaryAlignment))) {
    return bad("truncated theta block table");
  }
  if (num_nodes > 0) model.theta = Matrix(num_nodes, num_clusters);
  uint64_t expected_begin = 0;
  for (uint64_t b = 0; b < num_blocks64; ++b) {
    uint64_t node_begin = 0;
    uint64_t node_count = 0;
    uint64_t theta_offset = 0;
    uint64_t theta_bytes = 0;
    if (!reader.ReadScalar(&node_begin) || !reader.ReadScalar(&node_count) ||
        !reader.ReadScalar(&theta_offset) ||
        !reader.ReadScalar(&theta_bytes)) {
      return bad("truncated theta block table");
    }
    if (node_begin != expected_begin || node_count > num_nodes64 ||
        node_begin + node_count > num_nodes64) {
      return bad("theta block table does not tile the node range");
    }
    expected_begin = node_begin + node_count;
    if (theta_bytes !=
        node_count * num_clusters64 * sizeof(double)) {
      return bad("theta block extent does not match its node count");
    }
    if (theta_offset % kBinaryAlignment != 0) {
      return bad("misaligned theta block");
    }
    if (theta_offset < kBinaryHeaderSize || theta_offset > bytes.size() ||
        theta_bytes > bytes.size() - theta_offset) {
      return bad("theta block out of bounds");
    }
    if (theta_bytes > 0) {
      std::memcpy(model.theta.data().data() +
                      static_cast<size_t>(node_begin) * num_clusters,
                  bytes.data() + theta_offset,
                  static_cast<size_t>(theta_bytes));
    }
  }
  if (expected_begin != num_nodes64) {
    return bad("theta block table does not tile the node range");
  }

  GENCLUS_RETURN_IF_ERROR(model.Validate());
  return model;
}

}  // namespace genclus
