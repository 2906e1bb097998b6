#include "net/wire.hpp"

#include <algorithm>
#include <array>
#include <limits>

namespace namecoh {
namespace {

/// Bytes put_varint writes for `v`.
std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Write `v` at `out`; returns the byte after it.
std::uint8_t* write_varint(std::uint8_t* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
  return out;
}

/// Read a varint that decode() has already validated; advances `in`.
std::uint64_t read_varint(const std::uint8_t*& in) {
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const std::uint8_t byte = *in++;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
}

/// A validated length-prefixed value, as a view.
std::string_view read_bytes(const std::uint8_t* in) {
  const std::uint64_t length = read_varint(in);
  return {reinterpret_cast<const char*>(in), static_cast<std::size_t>(length)};
}

/// A pid's three varints, at most 5 bytes each.
struct PidBytes {
  std::array<std::uint8_t, 15> bytes;
  std::size_t size;
};

PidBytes pid_bytes(const Pid& pid) {
  PidBytes out;
  std::uint8_t* end = write_varint(out.bytes.data(), pid.naddr);
  end = write_varint(end, pid.maddr);
  end = write_varint(end, pid.laddr);
  out.size = static_cast<std::size_t>(end - out.bytes.data());
  return out;
}

// The checked readers behind decode() and get_varint / get_bytes / get_pid:
// each takes its value off the front of [in, end) and returns nullptr, or
// returns what is wrong and leaves `in` alone.

const char* take_varint(const std::uint8_t*& in, const std::uint8_t* end,
                        std::uint64_t& v) {
  if (in != end && *in < 0x80) {  // the common one-byte case
    v = *in++;
    return nullptr;
  }
  std::uint64_t out = 0;
  const std::uint8_t* at = in;
  for (int shift = 0; shift < 63; shift += 7) {
    if (at == end) return "truncated varint";
    const std::uint8_t byte = *at++;
    out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (byte < 0x80) {
      in = at;
      v = out;
      return nullptr;
    }
  }
  // The tenth byte (shift 63) may only contribute one bit, and nothing
  // may follow it.
  if (at == end) return "truncated varint";
  const std::uint8_t last = *at++;
  if ((last & 0x7e) != 0) return "varint overflow";
  if (last >= 0x80) return at == end ? "truncated varint" : "varint overflow";
  in = at;
  v = out | static_cast<std::uint64_t>(last) << 63;
  return nullptr;
}

const char* take_bytes(const std::uint8_t*& in, const std::uint8_t* end,
                       std::string_view& out) {
  const std::uint8_t* at = in;
  std::uint64_t length = 0;
  if (const char* error = take_varint(at, end, length)) return error;
  if (length > static_cast<std::uint64_t>(end - at)) {
    return "truncated byte string";
  }
  out = {reinterpret_cast<const char*>(at), static_cast<std::size_t>(length)};
  in = at + length;
  return nullptr;
}

const char* take_pid(const std::uint8_t*& in, const std::uint8_t* end,
                     Pid& pid) {
  const std::uint8_t* at = in;
  for (Addr* field : {&pid.naddr, &pid.maddr, &pid.laddr}) {
    std::uint64_t v = 0;
    if (const char* error = take_varint(at, end, v)) return error;
    if (v > ~Addr{0}) return "pid field out of range";
    *field = static_cast<Addr>(v);
  }
  in = at;
  return nullptr;
}

/// Run a checked reader over the front of `in`, as a Result.
template <typename T, typename Reader>
Result<T> take(std::span<const std::uint8_t>& in, Reader reader) {
  T out{};
  const std::uint8_t* at = in.data();
  if (const char* error = reader(at, in.data() + in.size(), out)) {
    return invalid_argument_error(error);
  }
  in = in.subspan(static_cast<std::size_t>(at - in.data()));
  return out;
}

const std::uint8_t kEmptyFrame[] = {0};

/// A frame's first allocation when its size was not reserved: most
/// requests, replies and invalidations fit.
constexpr std::size_t kFirstFrameBytes = 64;

}  // namespace

std::size_t u64_field_size(std::uint64_t v) { return 1 + varint_size(v); }

std::size_t text_field_size(std::string_view text) {
  return 1 + varint_size(text.size()) + text.size();
}

// --- Building ----------------------------------------------------------------

void Payload::reserve(std::size_t fields, std::size_t bytes) {
  fields_.reserve(fields);
  if (bytes > 0) frame_.reserve(varint_size(fields) + bytes);
}

void Payload::begin_field(FieldType type) {
  if (frame_.empty()) {
    if (frame_.capacity() == 0) frame_.reserve(kFirstFrameBytes);
    frame_.push_back(0);
    head_ = 1;
  }
  const std::size_t body = frame_.size() - head_;
  NAMECOH_CHECK(body <= std::numeric_limits<std::uint32_t>::max(),
                "payload too large");
  fields_.push_back(static_cast<std::uint32_t>(body));
  const std::size_t count = fields_.size();
  if (count < 0x80 && head_ == 1) {
    frame_[0] = static_cast<std::uint8_t>(count);
  } else {
    // The count heads the frame: it grows a byte at 128 fields, 16384, ...,
    // and an overlong count a decoded frame arrived with is shortened.
    const std::size_t need = varint_size(count);
    if (need > head_) {
      frame_.insert(frame_.begin(), need - head_, 0);
    } else if (need < head_) {
      frame_.erase(frame_.begin(),
                   frame_.begin() + static_cast<std::ptrdiff_t>(head_ - need));
    }
    head_ = static_cast<std::uint8_t>(need);
    write_varint(frame_.data(), count);
  }
  frame_.push_back(static_cast<std::uint8_t>(type));
}

Payload& Payload::add_u64(std::uint64_t v) {
  begin_field(FieldType::kU64);
  put_varint(frame_, v);
  return *this;
}

Payload& Payload::add_string(std::string_view v) {
  begin_field(FieldType::kString);
  put_bytes(frame_, v);
  return *this;
}

Payload& Payload::add_pid(Pid v) {
  begin_field(FieldType::kPid);
  put_pid(frame_, v);
  return *this;
}

Payload& Payload::add_name(std::string_view path) {
  begin_field(FieldType::kName);
  put_bytes(frame_, path);
  return *this;
}

Payload& Payload::add_name(NameSlice name) {
  begin_field(FieldType::kName);
  std::size_t length = name.empty() ? 0 : name.size() - 1;
  for (const Name& n : name) length += n.text().size();
  put_varint(frame_, length);
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (i > 0) frame_.push_back('/');
    const std::string& text = name[i].text();
    frame_.insert(frame_.end(), text.begin(), text.end());
  }
  return *this;
}

// --- Reading -----------------------------------------------------------------

std::span<const std::uint8_t> Payload::value_at(std::size_t i,
                                                FieldType type) const {
  const std::size_t begin = tag_at(i);
  NAMECOH_CHECK(frame_[begin] == static_cast<std::uint8_t>(type),
                "field is of another type");
  const std::size_t end =
      i + 1 < fields_.size() ? head_ + fields_[i + 1] : frame_.size();
  return std::span<const std::uint8_t>(frame_).subspan(begin + 1,
                                                       end - begin - 1);
}

std::uint64_t Payload::u64_at(std::size_t i) const {
  const std::uint8_t* in = value_at(i, FieldType::kU64).data();
  return read_varint(in);
}

std::string_view Payload::string_at(std::size_t i) const {
  return read_bytes(value_at(i, FieldType::kString).data());
}

std::string_view Payload::name_at(std::size_t i) const {
  return read_bytes(value_at(i, FieldType::kName).data());
}

Pid Payload::pid_at(std::size_t i) const {
  const std::uint8_t* in = value_at(i, FieldType::kPid).data();
  Pid pid;
  pid.naddr = static_cast<Addr>(read_varint(in));
  pid.maddr = static_cast<Addr>(read_varint(in));
  pid.laddr = static_cast<Addr>(read_varint(in));
  return pid;
}

std::vector<std::size_t> Payload::pid_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (type_at(i) == FieldType::kPid) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> Payload::name_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (type_at(i) == FieldType::kName) out.push_back(i);
  }
  return out;
}

void Payload::set_pid(std::size_t i, Pid v) {
  const std::span<const std::uint8_t> old = value_at(i, FieldType::kPid);
  const PidBytes now = pid_bytes(v);
  const std::size_t at = static_cast<std::size_t>(old.data() - frame_.data());
  const std::size_t was = old.size();
  // Splice when the encoding changed length: every later field moves.
  if (now.size > was) {
    frame_.insert(frame_.begin() + static_cast<std::ptrdiff_t>(at + was),
                  now.size - was, 0);
  } else if (now.size < was) {
    frame_.erase(frame_.begin() + static_cast<std::ptrdiff_t>(at + now.size),
                 frame_.begin() + static_cast<std::ptrdiff_t>(at + was));
  }
  std::copy_n(now.bytes.begin(), now.size,
              frame_.begin() + static_cast<std::ptrdiff_t>(at));
  if (now.size == was) return;
  for (std::size_t j = i + 1; j < fields_.size(); ++j) {
    fields_[j] = static_cast<std::uint32_t>(fields_[j] + now.size - was);
  }
}

// --- The frame ---------------------------------------------------------------

std::span<const std::uint8_t> Payload::frame() const {
  if (frame_.empty()) return kEmptyFrame;
  return frame_;
}

std::vector<std::uint8_t> Payload::encode() const {
  const std::span<const std::uint8_t> bytes = frame();
  return {bytes.begin(), bytes.end()};
}

std::vector<std::uint8_t> Payload::take_frame() && {
  std::vector<std::uint8_t> out = std::move(frame_);
  if (out.empty()) out.push_back(0);
  frame_.clear();
  fields_.clear();
  head_ = 0;
  return out;
}

Result<Payload> Payload::decode(std::span<const std::uint8_t> bytes) {
  return decode(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
}

Result<Payload> Payload::decode(std::vector<std::uint8_t>&& frame) {
  if (frame.size() > std::numeric_limits<std::uint32_t>::max()) {
    return invalid_argument_error("payload too large");
  }
  const std::uint8_t* in = frame.data();
  const std::uint8_t* const end = in + frame.size();
  std::uint64_t count = 0;
  if (const char* error = take_varint(in, end, count)) {
    return invalid_argument_error(error);
  }
  Payload out;
  out.head_ = static_cast<std::uint8_t>(in - frame.data());
  const std::uint8_t* const body = in;
  // Every field takes at least two bytes (tag + one value byte), so the
  // bytes left bound how many fields can really follow: a forged count
  // cannot force a large index allocation, and the loop below still
  // refuses it.
  out.fields_.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      count, static_cast<std::uint64_t>(end - in) / 2)));
  for (std::uint64_t i = 0; i < count; ++i) {
    if (in == end) return invalid_argument_error("truncated payload");
    out.fields_.push_back(static_cast<std::uint32_t>(in - body));
    const auto type = static_cast<FieldType>(*in++);
    const char* error = nullptr;
    std::uint64_t u64 = 0;
    std::string_view text;
    Pid pid;
    switch (type) {
      case FieldType::kU64:
        error = take_varint(in, end, u64);
        break;
      case FieldType::kString:
      case FieldType::kName:
        error = take_bytes(in, end, text);
        break;
      case FieldType::kPid:
        error = take_pid(in, end, pid);
        break;
      default:
        error = "unknown field type";
    }
    if (error != nullptr) return invalid_argument_error(error);
  }
  if (in != end) return invalid_argument_error("trailing bytes after payload");
  out.frame_ = std::move(frame);
  return out;
}

// --- Primitives --------------------------------------------------------------

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

Result<std::uint64_t> get_varint(std::span<const std::uint8_t>& in) {
  return take<std::uint64_t>(in, take_varint);
}

void put_bytes(std::vector<std::uint8_t>& out, std::string_view bytes) {
  put_varint(out, bytes.size());
  out.insert(out.end(), bytes.begin(), bytes.end());
}

Result<std::string_view> get_bytes(std::span<const std::uint8_t>& in) {
  return take<std::string_view>(in, take_bytes);
}

void put_pid(std::vector<std::uint8_t>& out, const Pid& pid) {
  put_varint(out, pid.naddr);
  put_varint(out, pid.maddr);
  put_varint(out, pid.laddr);
}

Result<Pid> get_pid(std::span<const std::uint8_t>& in) {
  return take<Pid>(in, take_pid);
}

}  // namespace namecoh
