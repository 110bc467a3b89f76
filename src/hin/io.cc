#include "hin/io.h"

#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string_view>
#include <system_error>

#include "common/string_util.h"

namespace genclus {

namespace {

// LoadDataset reads its file in blocks of this size.
constexpr size_t kReadBlock = size_t{1} << 20;

// The most fields a dataset record reads; Tokenize counts any beyond.
constexpr size_t kMaxFields = 5;

// std::isspace's set in the "C" locale, fixed so that the format does not
// depend on the process locale. A table: a token ends on one load.
constexpr std::array<bool, 256> kIsSpace = [] {
  std::array<bool, 256> table{};
  for (const char c : std::string_view(" \t\n\v\f\r")) {
    table[static_cast<unsigned char>(c)] = true;
  }
  return table;
}();

bool IsSpace(char c) { return kIsSpace[static_cast<unsigned char>(c)]; }

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};

// Calls fn(line_no, line) for each '\n'-terminated line of `file`, and for
// a last line without one; `line` excludes the '\n'. The file is read in
// kReadBlock blocks: the unfinished line at the end of a block carries to
// the front of the buffer, and a line longer than the buffer doubles it.
// A read error is an IoError, not the end of the file.
template <typename Fn>
Status ForEachLine(std::FILE* file, const std::string& path, Fn&& fn) {
  // Uninitialized: a small file touches only the pages it fills.
  size_t size = kReadBlock;
  auto buf = std::make_unique_for_overwrite<char[]>(size);
  size_t carry = 0;  // bytes of the unfinished line at the front of buf
  size_t line_no = 0;
  for (;;) {
    if (carry == size) {
      auto grown = std::make_unique_for_overwrite<char[]>(2 * size);
      std::memcpy(grown.get(), buf.get(), carry);
      buf = std::move(grown);
      size *= 2;
    }
    const size_t got = std::fread(buf.get() + carry, 1, size - carry, file);
    if (std::ferror(file)) {
      return Status::IoError(StrFormat("read from '%s' failed", path.c_str()));
    }
    const char* line = buf.get();
    if (got == 0) {
      if (carry == 0) return Status::OK();
      return fn(++line_no, std::string_view(line, carry));
    }
    const char* const end = line + carry + got;
    const char* scan = line + carry;  // the carried bytes hold no '\n'
    while (const char* nl = static_cast<const char*>(
               std::memchr(scan, '\n', static_cast<size_t>(end - scan)))) {
      GENCLUS_RETURN_IF_ERROR(fn(
          ++line_no, std::string_view(line, static_cast<size_t>(nl - line))));
      line = scan = nl + 1;
    }
    carry = static_cast<size_t>(end - line);
    std::memmove(buf.get(), line, carry);
  }
}

// Cuts `line` at runs of whitespace, stores the first kMaxFields tokens in
// *tok and returns the number of tokens.
size_t Tokenize(std::string_view line,
                std::array<std::string_view, kMaxFields>* tok) {
  const char* p = line.data();
  const char* const end = p + line.size();
  size_t count = 0;
  for (;;) {
    while (p != end && IsSpace(*p)) ++p;
    if (p == end) return count;
    const char* const begin = p;
    while (p != end && !IsSpace(*p)) ++p;
    if (count < kMaxFields) {
      (*tok)[count] = std::string_view(begin, static_cast<size_t>(p - begin));
    }
    ++count;
  }
}

// `refusal` of line `line` of `path`: the "<path>:<line>: " prefix of a
// scan error, on the refusal's own code.
Status AtLine(const std::string& path, size_t line, const Status& refusal) {
  return refusal.WithMessage(
      StrFormat("%s:%zu: %s", path.c_str(), line, refusal.message().c_str()));
}

// `refusal` of the `index`-th (from 0) `record` line of `path`, located
// by AtLine. LoadDataset resolves names and checks records after its
// scan and keeps no line per record, so this reads the file again up to
// the refused one; a read that does not reach it leaves the refusal as it
// is.
Status AtRecord(const std::string& path, std::string_view record,
                size_t index, const Status& refusal) {
  size_t line = 0;
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "rb"));
  if (file != nullptr) {
    std::array<std::string_view, kMaxFields> tok;
    const Status stopped = ForEachLine(
        file.get(), path, [&](size_t line_no, std::string_view text) {
          if (Tokenize(text, &tok) == 0 || tok[0] != record || index-- > 0) {
            return Status::OK();
          }
          line = line_no;
          return Status::Cancelled("found");  // ends the read
        });
    static_cast<void>(stopped);
  }
  return line == 0 ? refusal : AtLine(path, line, refusal);
}

// A whole-token unsigned decimal that fits T: no sign, no exponent.
template <typename T>
bool ParseUnsigned(std::string_view s, T* out) {
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// from_chars reads the decimal forms SaveDataset writes, subnormals
// included, without consulting the locale. A token it does not consume
// whole goes to the strtod-based ParseDouble, which still accepts a leading
// '+' and hex floats (and refuses what overflows or underflows to zero).
bool ParseNumber(std::string_view s, double* out) {
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return (ec == std::errc() && ptr == end) || ParseDouble(s, out);
}

// Interns the names one kind of record refers to (object types, link types
// or attributes), so pending records hold small ids and each name is
// resolved once after the scan. An ordered map rather than a scanned
// vector: a file naming 10^5 distinct types must not take O(n^2)
// compares. Records mostly repeat the last name, which is checked first.
class NameTable {
 public:
  NameTable() = default;
  // names_ and last_ point into ids_.
  NameTable(const NameTable&) = delete;
  NameTable& operator=(const NameTable&) = delete;

  uint32_t Intern(std::string_view name) {
    if (last_ != nullptr && last_->first == name) return last_->second;
    auto it = ids_.find(name);
    if (it == ids_.end()) {
      it = ids_.emplace(std::string(name), static_cast<uint32_t>(names_.size()))
               .first;
      names_.push_back(&it->first);
    }
    last_ = &*it;
    return it->second;
  }

  const std::string& name(uint32_t id) const { return *names_[id]; }

  // find(name) for every interned name, indexed by id.
  template <typename Find>
  auto Resolve(Find find) const {
    std::vector<decltype(find(std::string()))> ids;
    ids.reserve(names_.size());
    for (const std::string* name : names_) ids.push_back(find(*name));
    return ids;
  }

 private:
  std::map<std::string, uint32_t, std::less<>> ids_;
  std::vector<const std::string*> names_;  // by id
  const std::pair<const std::string, uint32_t>* last_ = nullptr;
};

}  // namespace

Status SaveDataset(const Dataset& dataset, const std::string& path) {
  GENCLUS_RETURN_IF_ERROR(dataset.Validate());
  std::ofstream out(path);
  if (!out) {
    return Status::IoError(StrFormat("cannot open '%s' for writing",
                                     path.c_str()));
  }
  const Network& net = dataset.network;
  const Schema& schema = net.schema();

  // Round-trip exactness: shortest representation that parses back to the
  // same double.
  out << std::setprecision(17);
  out << "# genclus dataset v1\n";
  for (ObjectTypeId t = 0; t < schema.num_object_types(); ++t) {
    out << "object_type " << schema.object_type_name(t) << "\n";
  }
  for (LinkTypeId r = 0; r < schema.num_link_types(); ++r) {
    const LinkTypeInfo& info = schema.link_type(r);
    out << "link_type " << info.name << " "
        << schema.object_type_name(info.source_type) << " "
        << schema.object_type_name(info.target_type) << "\n";
  }
  for (LinkTypeId r = 0; r < schema.num_link_types(); ++r) {
    const LinkTypeInfo& info = schema.link_type(r);
    if (info.inverse != kInvalidLinkType && r < info.inverse) {
      out << "inverse " << info.name << " "
          << schema.link_type(info.inverse).name << "\n";
    }
  }
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    out << "node " << schema.object_type_name(net.node_type(v));
    if (!net.node_name(v).empty()) out << " " << net.node_name(v);
    out << "\n";
  }
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    for (const LinkEntry& e : net.OutLinks(v)) {
      out << "link " << v << " " << e.neighbor << " "
          << schema.link_type(e.type).name << " " << e.weight << "\n";
    }
  }
  for (const Attribute& attr : dataset.attributes) {
    if (attr.kind() == AttributeKind::kCategorical) {
      out << "attribute categorical " << attr.name() << " "
          << attr.vocab_size() << "\n";
      for (NodeId v = 0; v < net.num_nodes(); ++v) {
        for (const TermCount& tc : attr.TermCounts(v)) {
          out << "obs_term " << attr.name() << " " << v << " " << tc.term
              << " " << tc.count << "\n";
        }
      }
    } else {
      out << "attribute numerical " << attr.name() << "\n";
      for (NodeId v = 0; v < net.num_nodes(); ++v) {
        for (double x : attr.Values(v)) {
          out << "obs_value " << attr.name() << " " << v << " " << x << "\n";
        }
      }
    }
  }
  if (dataset.labels.size() > 0) {
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (dataset.labels.IsLabeled(v)) {
        out << "label " << v << " " << dataset.labels.Get(v) << "\n";
      }
    }
  }
  out.flush();
  if (!out) {
    return Status::IoError(StrFormat("write to '%s' failed", path.c_str()));
  }
  return Status::OK();
}

Result<Dataset> LoadDataset(const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IoError(StrFormat("cannot open '%s'", path.c_str()));
  }

  Schema schema;
  NameTable object_types;
  NameTable link_types;
  NameTable attr_names;
  struct PendingNode {
    uint32_t type;    // object_types id
    size_t name_end;  // the name ends here in node_names and starts where
                      // the previous node's ends
  };
  struct PendingLink {
    NodeId src;
    NodeId dst;
    uint32_t type;  // link_types id
    double weight;
  };
  std::vector<PendingNode> nodes;
  std::string node_names;
  std::vector<PendingLink> links;
  std::vector<std::pair<uint32_t, uint32_t>> inverses;  // link_types ids
  // Attribute name -> (kind, vocab). Observations are replayed after build.
  struct PendingAttr {
    std::string name;
    AttributeKind kind;
    size_t vocab = 0;
  };
  std::vector<PendingAttr> attr_decls;
  struct PendingTermObs {
    uint32_t attr;  // attr_names id
    NodeId node;
    uint32_t term;
    double count;
  };
  struct PendingValueObs {
    uint32_t attr;  // attr_names id
    NodeId node;
    double value;
  };
  std::vector<PendingTermObs> term_obs;
  std::vector<PendingValueObs> value_obs;
  std::vector<std::pair<NodeId, uint32_t>> label_records;

  std::array<std::string_view, kMaxFields> tok;
  GENCLUS_RETURN_IF_ERROR(ForEachLine(
      file.get(), path,
      [&](size_t line_no, std::string_view line) -> Status {
        const size_t n = Tokenize(line, &tok);
        if (n == 0 || tok[0][0] == '#') return Status::OK();
        const std::string_view cmd = tok[0];
        auto bad = [&](const char* why) {
          return Status::IoError(
              StrFormat("%s:%zu: %s", path.c_str(), line_no, why));
        };
        if (cmd == "object_type") {
          if (n != 2) return bad("object_type needs 1 field");
          auto r = schema.AddObjectType(std::string(tok[1]));
          if (!r.ok()) return AtLine(path, line_no, r.status());
        } else if (cmd == "link_type") {
          if (n != 4) return bad("link_type needs 3 fields");
          ObjectTypeId s = schema.FindObjectType(std::string(tok[2]));
          ObjectTypeId t = schema.FindObjectType(std::string(tok[3]));
          if (s == kInvalidObjectType || t == kInvalidObjectType) {
            return bad("link_type references unknown object type");
          }
          auto r = schema.AddLinkType(std::string(tok[1]), s, t);
          if (!r.ok()) return AtLine(path, line_no, r.status());
        } else if (cmd == "inverse") {
          if (n != 3) return bad("inverse needs 2 fields");
          inverses.emplace_back(link_types.Intern(tok[1]),
                                link_types.Intern(tok[2]));
        } else if (cmd == "node") {
          if (n < 2) return bad("node needs at least 1 field");
          if (n > 2) node_names += tok[2];
          nodes.push_back({object_types.Intern(tok[1]), node_names.size()});
        } else if (cmd == "link") {
          if (n != 5) return bad("link needs 4 fields");
          PendingLink pl;
          if (!ParseUnsigned(tok[1], &pl.src) ||
              !ParseUnsigned(tok[2], &pl.dst) ||
              !ParseNumber(tok[4], &pl.weight)) {
            return bad("link has malformed numeric field");
          }
          pl.type = link_types.Intern(tok[3]);
          links.push_back(pl);
        } else if (cmd == "attribute") {
          if (n < 3) return bad("attribute needs at least 2 fields");
          if (tok[1] == "categorical") {
            if (n != 4) return bad("categorical attribute needs vocab");
            size_t vocab = 0;
            if (!ParseUnsigned(tok[3], &vocab)) {
              return bad("malformed vocabulary size");
            }
            if (vocab == 0) return bad("vocabulary size must be positive");
            attr_decls.push_back(
                {std::string(tok[2]), AttributeKind::kCategorical, vocab});
          } else if (tok[1] == "numerical") {
            attr_decls.push_back(
                {std::string(tok[2]), AttributeKind::kNumerical, 0});
          } else {
            return bad("unknown attribute kind");
          }
        } else if (cmd == "obs_term") {
          if (n != 5) return bad("obs_term needs 4 fields");
          PendingTermObs o;
          if (!ParseUnsigned(tok[2], &o.node) ||
              !ParseUnsigned(tok[3], &o.term) ||
              !ParseNumber(tok[4], &o.count)) {
            return bad("obs_term has malformed numeric field");
          }
          o.attr = attr_names.Intern(tok[1]);
          term_obs.push_back(o);
        } else if (cmd == "obs_value") {
          if (n != 4) return bad("obs_value needs 3 fields");
          PendingValueObs o;
          if (!ParseUnsigned(tok[2], &o.node) ||
              !ParseNumber(tok[3], &o.value)) {
            return bad("obs_value has malformed numeric field");
          }
          o.attr = attr_names.Intern(tok[1]);
          value_obs.push_back(o);
        } else if (cmd == "label") {
          if (n != 3) return bad("label needs 2 fields");
          NodeId v = 0;
          uint32_t l = 0;
          if (!ParseUnsigned(tok[1], &v) || !ParseUnsigned(tok[2], &l)) {
            return bad("label has malformed numeric field");
          }
          label_records.emplace_back(v, l);
        } else {
          return bad("unknown record type");
        }
        return Status::OK();
      }));
  file.reset();

  const std::vector<ObjectTypeId> object_type_ids = object_types.Resolve(
      [&](const std::string& name) { return schema.FindObjectType(name); });
  const std::vector<LinkTypeId> link_type_ids = link_types.Resolve(
      [&](const std::string& name) { return schema.FindLinkType(name); });

  for (size_t i = 0; i < inverses.size(); ++i) {
    const LinkTypeId ra = link_type_ids[inverses[i].first];
    const LinkTypeId rb = link_type_ids[inverses[i].second];
    const Status set =
        ra == kInvalidLinkType || rb == kInvalidLinkType
            ? Status::IoError("inverse references unknown link type")
            : schema.SetInverse(ra, rb);
    if (!set.ok()) return AtRecord(path, "inverse", i, set);
  }

  NetworkBuilder builder(schema);
  size_t name_begin = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const PendingNode& pn = nodes[i];
    const ObjectTypeId t = object_type_ids[pn.type];
    if (t == kInvalidObjectType) {
      return AtRecord(path, "node", i,
                      Status::IoError(StrFormat(
                          "node references unknown object type '%s'",
                          object_types.name(pn.type).c_str())));
    }
    auto r = builder.AddNode(
        t, node_names.substr(name_begin, pn.name_end - name_begin));
    if (!r.ok()) return AtRecord(path, "node", i, r.status());
    name_begin = pn.name_end;
  }
  for (size_t i = 0; i < links.size(); ++i) {
    const PendingLink& pl = links[i];
    const LinkTypeId r = link_type_ids[pl.type];
    const Status added =
        r == kInvalidLinkType
            ? Status::IoError(StrFormat("link references unknown type '%s'",
                                        link_types.name(pl.type).c_str()))
            : builder.AddLink(pl.src, pl.dst, r, pl.weight);
    if (!added.ok()) return AtRecord(path, "link", i, added);
  }
  GENCLUS_ASSIGN_OR_RETURN(Network net, std::move(builder).Build());
  const size_t n = net.num_nodes();

  Dataset dataset;
  dataset.network = std::move(net);
  for (const PendingAttr& pa : attr_decls) {
    if (pa.kind == AttributeKind::kCategorical) {
      dataset.attributes.push_back(
          Attribute::Categorical(pa.name, pa.vocab, n));
    } else {
      dataset.attributes.push_back(Attribute::Numerical(pa.name, n));
    }
  }
  const std::vector<AttributeId> attr_ids = attr_names.Resolve(
      [&](const std::string& name) { return dataset.FindAttribute(name); });
  for (size_t i = 0; i < term_obs.size(); ++i) {
    const PendingTermObs& o = term_obs[i];
    const AttributeId id = attr_ids[o.attr];
    const Status added =
        id == kInvalidAttribute
            ? Status::IoError("obs_term references unknown attribute")
            : dataset.attributes[id].AddTermCount(o.node, o.term, o.count);
    if (!added.ok()) return AtRecord(path, "obs_term", i, added);
  }
  for (size_t i = 0; i < value_obs.size(); ++i) {
    const PendingValueObs& o = value_obs[i];
    const AttributeId id = attr_ids[o.attr];
    const Status added =
        id == kInvalidAttribute
            ? Status::IoError("obs_value references unknown attribute")
            : dataset.attributes[id].AddValue(o.node, o.value);
    if (!added.ok()) return AtRecord(path, "obs_value", i, added);
  }
  if (!label_records.empty()) {
    dataset.labels = Labels(n);
    for (size_t i = 0; i < label_records.size(); ++i) {
      const auto [v, l] = label_records[i];
      if (v >= n) {
        return AtRecord(path, "label", i,
                        Status::IoError("label references unknown node"));
      }
      dataset.labels.Set(v, l);
    }
  }
  GENCLUS_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

}  // namespace genclus
