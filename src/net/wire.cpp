#include "net/wire.hpp"

#include <algorithm>

namespace namecoh {
namespace {

/// Bytes put_varint writes for `v`.
std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

}  // namespace

Payload& Payload::add_u64(std::uint64_t v) {
  fields_.push_back(Field::u64(v));
  return *this;
}

Payload& Payload::add_string(std::string v) {
  fields_.push_back(Field::str(std::move(v)));
  return *this;
}

Payload& Payload::add_pid(Pid v) {
  fields_.push_back(Field::pid(v));
  return *this;
}

Payload& Payload::add_name(std::string path) {
  fields_.push_back(Field::name(std::move(path)));
  return *this;
}

Payload& Payload::add_name(NameSlice name) {
  fields_.push_back(Field::name(name.joined()));
  return *this;
}

std::uint64_t Payload::u64_at(std::size_t i) const {
  const Field& f = fields_.at(i);
  NAMECOH_CHECK(f.type == FieldType::kU64, "field is not a u64");
  return std::get<std::uint64_t>(f.value);
}

const std::string& Payload::string_at(std::size_t i) const {
  const Field& f = fields_.at(i);
  NAMECOH_CHECK(f.type == FieldType::kString, "field is not a string");
  return std::get<std::string>(f.value);
}

Pid Payload::pid_at(std::size_t i) const {
  const Field& f = fields_.at(i);
  NAMECOH_CHECK(f.type == FieldType::kPid, "field is not a pid");
  return std::get<Pid>(f.value);
}

const std::string& Payload::name_at(std::size_t i) const {
  const Field& f = fields_.at(i);
  NAMECOH_CHECK(f.type == FieldType::kName, "field is not a name");
  return std::get<std::string>(f.value);
}

std::vector<std::size_t> Payload::pid_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].type == FieldType::kPid) out.push_back(i);
  }
  return out;
}

void Payload::set_pid(std::size_t i, Pid v) {
  Field& f = fields_.at(i);
  NAMECOH_CHECK(f.type == FieldType::kPid, "field is not a pid");
  f.value = v;
}

std::vector<std::size_t> Payload::name_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].type == FieldType::kName) out.push_back(i);
  }
  return out;
}

void Payload::set_name(std::size_t i, std::string path) {
  Field& f = fields_.at(i);
  NAMECOH_CHECK(f.type == FieldType::kName, "field is not a name");
  f.value = std::move(path);
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

Result<std::uint64_t> get_varint(std::span<const std::uint8_t>& in) {
  std::uint64_t v = 0;
  int shift = 0;
  std::size_t consumed = 0;
  for (std::uint8_t byte : in) {
    ++consumed;
    if (shift >= 64) return invalid_argument_error("varint overflow");
    // The final byte (shift 63) may only contribute one bit.
    if (shift == 63 && (byte & 0x7e) != 0) {
      return invalid_argument_error("varint overflow");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      in = in.subspan(consumed);
      return v;
    }
    shift += 7;
  }
  return invalid_argument_error("truncated varint");
}

void put_bytes(std::vector<std::uint8_t>& out, std::string_view bytes) {
  put_varint(out, bytes.size());
  out.insert(out.end(), bytes.begin(), bytes.end());
}

Result<std::string> get_bytes(std::span<const std::uint8_t>& in) {
  auto len = get_varint(in);
  if (!len.is_ok()) return len.status();
  if (len.value() > in.size()) {
    return invalid_argument_error("truncated byte string");
  }
  std::string out(reinterpret_cast<const char*>(in.data()),
                  static_cast<std::size_t>(len.value()));
  in = in.subspan(static_cast<std::size_t>(len.value()));
  return out;
}

void put_pid(std::vector<std::uint8_t>& out, const Pid& pid) {
  put_varint(out, pid.naddr);
  put_varint(out, pid.maddr);
  put_varint(out, pid.laddr);
}

Result<Pid> get_pid(std::span<const std::uint8_t>& in) {
  Pid pid;
  for (Addr* field : {&pid.naddr, &pid.maddr, &pid.laddr}) {
    auto v = get_varint(in);
    if (!v.is_ok()) return v.status();
    if (v.value() > ~Addr{0}) {
      return invalid_argument_error("pid field out of range");
    }
    *field = static_cast<Addr>(v.value());
  }
  return pid;
}

std::vector<std::uint8_t> Payload::encode() const {
  // Size the frame exactly first: one allocation per encode.
  std::size_t size = varint_size(fields_.size()) + fields_.size();
  for (const Field& f : fields_) {
    switch (f.type) {
      case FieldType::kU64:
        size += varint_size(std::get<std::uint64_t>(f.value));
        break;
      case FieldType::kString:
      case FieldType::kName: {
        const std::string& bytes = std::get<std::string>(f.value);
        size += varint_size(bytes.size()) + bytes.size();
        break;
      }
      case FieldType::kPid: {
        const Pid& pid = std::get<Pid>(f.value);
        size += varint_size(pid.naddr) + varint_size(pid.maddr) +
                varint_size(pid.laddr);
        break;
      }
    }
  }
  std::vector<std::uint8_t> out;
  out.reserve(size);
  put_varint(out, fields_.size());
  for (const Field& f : fields_) {
    out.push_back(static_cast<std::uint8_t>(f.type));
    switch (f.type) {
      case FieldType::kU64:
        put_varint(out, std::get<std::uint64_t>(f.value));
        break;
      case FieldType::kString:
      case FieldType::kName:
        put_bytes(out, std::get<std::string>(f.value));
        break;
      case FieldType::kPid:
        put_pid(out, std::get<Pid>(f.value));
        break;
    }
  }
  return out;
}

Result<Payload> Payload::decode(std::span<const std::uint8_t> bytes) {
  Payload out;
  auto count = get_varint(bytes);
  if (!count.is_ok()) return count.status();
  // Every field takes at least two bytes (tag + one value byte), so the
  // bytes left bound how many fields can really follow: a forged count
  // cannot force a large allocation, and the loop below still refuses it.
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count.value(), bytes.size() / 2)));
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    if (bytes.empty()) return invalid_argument_error("truncated payload");
    auto type = static_cast<FieldType>(bytes.front());
    bytes = bytes.subspan(1);
    switch (type) {
      case FieldType::kU64: {
        auto v = get_varint(bytes);
        if (!v.is_ok()) return v.status();
        out.add_u64(v.value());
        break;
      }
      case FieldType::kString: {
        auto v = get_bytes(bytes);
        if (!v.is_ok()) return v.status();
        out.add_string(std::move(v).value());
        break;
      }
      case FieldType::kName: {
        auto v = get_bytes(bytes);
        if (!v.is_ok()) return v.status();
        out.add_name(std::move(v).value());
        break;
      }
      case FieldType::kPid: {
        auto v = get_pid(bytes);
        if (!v.is_ok()) return v.status();
        out.add_pid(v.value());
        break;
      }
      default:
        return invalid_argument_error("unknown field type");
    }
  }
  if (!bytes.empty()) {
    return invalid_argument_error("trailing bytes after payload");
  }
  return out;
}

}  // namespace namecoh
