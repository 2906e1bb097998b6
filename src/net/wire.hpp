// Wire format for messages exchanged between activities.
//
// Payloads are sequences of typed fields. Pids get their own field type
// because the transport must find and remap every pid embedded in a message
// when it crosses a machine boundary (§6 Example 1: "The resolution rule is
// implemented by mapping the embedded pid"). Name fields (path strings)
// likewise get a type of their own so experiments can ask "which names were
// exchanged" without parsing application payloads.
//
// Encoding: each field is a 1-byte type tag followed by the value;
// integers are LEB128 varints, strings are length-prefixed bytes, pids are
// three varints. A payload is preceded by its field count.
//
// A Payload *is* its frame: it holds the encoded bytes plus an index of
// where each field starts. The add_* builders append bytes, the accessors
// read them in place (strings and names come back as views into the
// frame), and the transport sends the frame it holds. Decoding is one
// strict validate-and-index pass; nothing is re-encoded on a hop unless
// the R(sender) remap changes an embedded pid.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/name.hpp"
#include "net/address.hpp"
#include "util/small_vec.hpp"
#include "util/status.hpp"

namespace namecoh {

enum class FieldType : std::uint8_t {
  kU64 = 1,
  kString = 2,
  kPid = 3,
  kName = 4,  ///< a path string exchanged as a *name* (not opaque bytes)
};

/// An ordered sequence of typed fields, held as its encoded frame.
class Payload {
 public:
  Payload() = default;

  Payload& add_u64(std::uint64_t v);
  Payload& add_string(std::string_view v);
  Payload& add_pid(Pid v);
  Payload& add_name(std::string_view path);
  /// Encode a component slice as a name field. Writes the *text* — name
  /// atoms (NameId) are node-local and never cross the wire; the receiver
  /// re-interns on decode via CompoundName::parse_relative
  /// (docs/INTERNING.md).
  Payload& add_name(NameSlice name);

  /// Make room for `fields` fields taking `bytes` encoded bytes (tags
  /// included), so a payload built to a known size allocates once. Without
  /// `bytes`, the frame's first allocation has room for a small message.
  void reserve(std::size_t fields, std::size_t bytes = 0);

  [[nodiscard]] std::size_t size() const { return fields_.size(); }
  [[nodiscard]] bool empty() const { return fields_.empty(); }
  /// Throws std::out_of_range past the last field.
  [[nodiscard]] FieldType type_at(std::size_t i) const {
    return static_cast<FieldType>(frame_[tag_at(i)]);
  }

  /// Typed accessors; throw PreconditionError on type mismatch (caller bug).
  /// Strings and names are views into the frame, valid until the payload
  /// is next modified or destroyed.
  [[nodiscard]] std::uint64_t u64_at(std::size_t i) const;
  [[nodiscard]] std::string_view string_at(std::size_t i) const;
  [[nodiscard]] Pid pid_at(std::size_t i) const;
  [[nodiscard]] std::string_view name_at(std::size_t i) const;

  /// All pid fields (indices).
  [[nodiscard]] std::vector<std::size_t> pid_indices() const;
  /// All name fields (indices), for the experiments that track exchanged
  /// names.
  [[nodiscard]] std::vector<std::size_t> name_indices() const;

  /// Rewrite a pid in place, for the transport's R(sender) remap; the
  /// frame is spliced when the new pid's encoding is longer or shorter.
  void set_pid(std::size_t i, Pid v);

  /// The encoded frame: the field count, then the fields.
  [[nodiscard]] std::span<const std::uint8_t> frame() const;
  /// A copy of frame().
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Move the frame out, leaving the payload empty.
  [[nodiscard]] std::vector<std::uint8_t> take_frame() &&;

  /// Validate and index a frame; strict and all-or-nothing.
  static Result<Payload> decode(std::span<const std::uint8_t> bytes);
  /// The same, adopting the frame's buffer instead of copying it.
  static Result<Payload> decode(std::vector<std::uint8_t>&& frame);

  /// Equal frames: the same fields with the same encodings.
  friend bool operator==(const Payload& a, const Payload& b) {
    return std::ranges::equal(a.frame(), b.frame());
  }

 private:
  /// Append a field's tag; the caller appends its value.
  void begin_field(FieldType type);
  /// Where field `i`'s tag sits in the frame.
  [[nodiscard]] std::size_t tag_at(std::size_t i) const {
    if (i >= fields_.size()) throw std::out_of_range("no such payload field");
    return head_ + fields_[i];
  }
  /// The value bytes of field `i`, which must be of `type`.
  [[nodiscard]] std::span<const std::uint8_t> value_at(std::size_t i,
                                                        FieldType type) const;

  /// The frame, or empty for a payload with no fields yet. The field count
  /// is its first head_ bytes.
  std::vector<std::uint8_t> frame_;
  /// Each field's tag-byte offset, counted from the end of the head. Held
  /// inline up to 16 fields, so requests, replies and invalidations index
  /// without an allocation.
  SmallVec<std::uint32_t, 16> fields_;
  std::uint8_t head_ = 0;
};

/// Encoded bytes of one field, tag included, so a builder can reserve a
/// payload's exact size.
[[nodiscard]] std::size_t u64_field_size(std::uint64_t v);
[[nodiscard]] std::size_t text_field_size(std::string_view text);

/// Low-level primitives, exposed for tests and for the message header.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
Result<std::uint64_t> get_varint(std::span<const std::uint8_t>& in);
void put_bytes(std::vector<std::uint8_t>& out, std::string_view bytes);
/// A view into `in`'s bytes.
Result<std::string_view> get_bytes(std::span<const std::uint8_t>& in);
void put_pid(std::vector<std::uint8_t>& out, const Pid& pid);
Result<Pid> get_pid(std::span<const std::uint8_t>& in);

}  // namespace namecoh
