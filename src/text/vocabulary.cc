#include "text/vocabulary.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace whoiscrf::text {

namespace {

void WriteU32(std::ostream& os, uint32_t v) {
  unsigned char buf[4] = {
      static_cast<unsigned char>(v), static_cast<unsigned char>(v >> 8),
      static_cast<unsigned char>(v >> 16), static_cast<unsigned char>(v >> 24)};
  os.write(reinterpret_cast<const char*>(buf), 4);
}

uint32_t ReadU32(std::istream& is) {
  unsigned char buf[4];
  is.read(reinterpret_cast<char*>(buf), 4);
  if (!is) throw std::runtime_error("Vocabulary::Load: truncated stream");
  return static_cast<uint32_t>(buf[0]) | (static_cast<uint32_t>(buf[1]) << 8) |
         (static_cast<uint32_t>(buf[2]) << 16) |
         (static_cast<uint32_t>(buf[3]) << 24);
}

}  // namespace

void Vocabulary::Count(std::string_view attr) {
  if (frozen_) {
    throw std::logic_error("Vocabulary::Count called after Freeze");
  }
  auto it = counts_.find(attr);
  if (it == counts_.end()) {
    it = counts_.emplace(std::string(attr), Entry{}).first;
    it->second.first_seen = next_seen_++;
  }
  ++it->second.count;
}

void Vocabulary::Freeze(uint32_t min_count) {
  if (frozen_) throw std::logic_error("Vocabulary::Freeze called twice");
  std::vector<std::pair<int64_t, const std::string*>> kept;
  kept.reserve(counts_.size());
  for (const auto& [attr, entry] : counts_) {
    if (entry.count >= min_count) kept.emplace_back(entry.first_seen, &attr);
  }
  std::sort(kept.begin(), kept.end());
  names_.reserve(kept.size());
  ids_.reserve(kept.size());
  for (const auto& [seen, attr] : kept) {
    ids_.emplace(*attr, static_cast<int>(names_.size()));
    names_.push_back(*attr);
  }
  frozen_ = true;
}

int Vocabulary::Lookup(std::string_view attr) const {
  if (!frozen_) throw std::logic_error("Vocabulary::Lookup before Freeze");
  // Heterogeneous find: no allocation on this hot path (called for every
  // attribute of every line at parse time).
  auto it = ids_.find(attr);
  return it == ids_.end() ? kNotFound : it->second;
}

const std::string& Vocabulary::Name(int id) const {
  if (id < 0 || static_cast<size_t>(id) >= names_.size()) {
    throw std::out_of_range("Vocabulary::Name: bad id");
  }
  return names_[static_cast<size_t>(id)];
}

void Vocabulary::Save(std::ostream& os) const {
  if (!frozen_) throw std::logic_error("Vocabulary::Save before Freeze");
  WriteU32(os, static_cast<uint32_t>(names_.size()));
  for (const std::string& name : names_) {
    WriteU32(os, static_cast<uint32_t>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
}

Vocabulary Vocabulary::Load(std::istream& is) {
  // Names and the tables grow only as bytes arrive, so a lying count or
  // length fails on the truncated stream instead of reserving memory.
  Vocabulary v;
  const uint32_t n = ReadU32(is);
  char buf[4096];
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    for (uint32_t left = ReadU32(is); left > 0;) {
      const uint32_t chunk = std::min<uint32_t>(left, sizeof(buf));
      is.read(buf, chunk);
      if (!is) throw std::runtime_error("Vocabulary::Load: truncated stream");
      name.append(buf, chunk);
      left -= chunk;
    }
    v.ids_.emplace(name, static_cast<int>(v.names_.size()));
    v.names_.push_back(std::move(name));
  }
  v.frozen_ = true;
  return v;
}

}  // namespace whoiscrf::text
