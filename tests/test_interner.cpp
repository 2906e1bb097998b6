// The name interner and everything that rides on it: atom identity,
// trivially-copyable Name handles, SmallVec inline/spill behavior,
// NameSlice views, the flat Context representation (extensional equality +
// version semantics), slice/owned resolution agreement over generated
// trees, and the referral-suffix matcher used by the resolver client.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "core/interner.hpp"
#include "core/name.hpp"
#include "core/resolve.hpp"
#include "fs/file_system.hpp"
#include "ns/resolver_client.hpp"
#include "util/small_vec.hpp"
#include "workload/tree_gen.hpp"

namespace namecoh {
namespace {

// --- NameTable -------------------------------------------------------------

TEST(NameTable, InternDeduplicates) {
  NameTable& table = NameTable::global();
  const NameId a1 = table.intern("intern-dedup-a");
  const NameId a2 = table.intern("intern-dedup-a");
  const NameId b = table.intern("intern-dedup-b");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(table.text(a1), "intern-dedup-a");
  EXPECT_EQ(table.text(b), "intern-dedup-b");
}

TEST(NameTable, ReservedAtomsAreFixed) {
  NameTable& table = NameTable::global();
  EXPECT_EQ(table.intern("/"), kRootAtom);
  EXPECT_EQ(table.intern("."), kCwdAtom);
  EXPECT_EQ(table.intern(".."), kParentAtom);
  EXPECT_EQ(Name::root().id(), kRootAtom);
  EXPECT_EQ(Name::cwd().id(), kCwdAtom);
  EXPECT_EQ(Name::parent().id(), kParentAtom);
  EXPECT_TRUE(Name::root().is_root());
  EXPECT_TRUE(Name::cwd().is_cwd());
  EXPECT_TRUE(Name::parent().is_parent());
}

TEST(NameTable, FindNeverInterns) {
  NameTable& table = NameTable::global();
  const std::size_t before = table.size();
  EXPECT_FALSE(table.find("never-interned-name").has_value());
  EXPECT_EQ(table.size(), before);
  const NameId id = table.intern("find-after-intern");
  ASSERT_TRUE(table.find("find-after-intern").has_value());
  EXPECT_EQ(*table.find("find-after-intern"), id);
}

TEST(NameTable, ValidationAtInternTimeOnly) {
  EXPECT_FALSE(NameTable::is_valid(""));
  EXPECT_FALSE(NameTable::is_valid("a/b"));
  EXPECT_FALSE(NameTable::is_valid(std::string_view("a\0b", 3)));
  EXPECT_TRUE(NameTable::is_valid("/"));
  EXPECT_TRUE(NameTable::is_valid("."));
  EXPECT_TRUE(NameTable::is_valid(".."));
  EXPECT_TRUE(NameTable::is_valid("ordinary"));
  EXPECT_FALSE(NameTable::global().try_intern("bad/name").is_ok());
  EXPECT_THROW(NameTable::global().intern(""), PreconditionError);
}

TEST(NameTable, TextReferencesAreStableAcrossGrowth) {
  NameTable& table = NameTable::global();
  const NameId id = table.intern("stable-text-probe");
  const std::string* before = &table.text(id);
  for (int i = 0; i < 2000; ++i) {
    table.intern("stable-text-filler-" + std::to_string(i));
  }
  EXPECT_EQ(before, &table.text(id));  // same storage, not just same value
}

// --- Name handles ----------------------------------------------------------

static_assert(std::is_trivially_copyable_v<Name>);
static_assert(sizeof(Name) == 4);
static_assert(std::is_trivially_copyable_v<Binding>);

TEST(InternedName, IdEqualityIsTextEquality) {
  EXPECT_EQ(Name("same-text"), Name("same-text"));
  EXPECT_EQ(Name("same-text").id(), Name("same-text").id());
  EXPECT_NE(Name("text-one"), Name("text-two"));
  EXPECT_EQ(std::hash<Name>{}(Name("same-text")),
            std::hash<Name>{}(Name("same-text")));
  EXPECT_EQ(Name::from_id(Name("round-trip").id()), Name("round-trip"));
}

TEST(InternedName, OrderingIsLexicographicNotInternOrder) {
  // Intern in reverse so atom order and text order disagree.
  const Name z("zz-order-probe");
  const Name a("aa-order-probe");
  EXPECT_LT(z.id(), a.id());  // atom order follows intern history...
  EXPECT_LT(a, z);            // ...but comparison follows the text
  EXPECT_GT(z, a);
  std::vector<Name> names{z, a, Name("mm-order-probe")};
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names[0].text(), "aa-order-probe");
  EXPECT_EQ(names[1].text(), "mm-order-probe");
  EXPECT_EQ(names[2].text(), "zz-order-probe");
}

// --- SmallVec --------------------------------------------------------------

TEST(SmallVec, StaysInlineThenSpills) {
  SmallVec<Name, 2> v;
  v.push_back(Name("sv-0"));
  v.push_back(Name("sv-1"));
  EXPECT_FALSE(v.spilled());
  v.push_back(Name("sv-2"));
  EXPECT_TRUE(v.spilled());
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], Name("sv-0"));
  EXPECT_EQ(v[1], Name("sv-1"));
  EXPECT_EQ(v[2], Name("sv-2"));
}

TEST(SmallVec, CopyAndMovePreserveContents) {
  SmallVec<Name, 2> v;
  for (int i = 0; i < 5; ++i) v.push_back(Name("svc-" + std::to_string(i)));
  SmallVec<Name, 2> copy = v;
  EXPECT_EQ(copy, v);
  SmallVec<Name, 2> moved = std::move(copy);
  EXPECT_EQ(moved, v);
  SmallVec<Name, 2> inline_v;
  inline_v.push_back(Name("svc-inline"));
  SmallVec<Name, 2> inline_moved = std::move(inline_v);
  ASSERT_EQ(inline_moved.size(), 1u);
  EXPECT_EQ(inline_moved[0], Name("svc-inline"));
}

// --- CompoundName inline storage -------------------------------------------

TEST(CompoundNameStorage, LongNamesSpillAndStillBehave) {
  std::vector<Name> parts;
  for (int i = 0; i < 12; ++i) parts.emplace_back("cn-" + std::to_string(i));
  const CompoundName name(parts);
  EXPECT_EQ(name.size(), 12u);
  EXPECT_EQ(name.front(), parts.front());
  EXPECT_EQ(name.back(), parts.back());
  const CompoundName copy = name;  // deep copy of the spilled buffer
  EXPECT_EQ(copy, name);
  EXPECT_EQ(copy.rest(), name.rest());
  EXPECT_EQ(std::hash<CompoundName>{}(copy), std::hash<CompoundName>{}(name));
}

// --- NameSlice -------------------------------------------------------------

TEST(NameSliceView, ViewsShareStorageWithOwner) {
  const CompoundName name = CompoundName::path("/usr/lib/libc.so");
  const NameSlice all = name;  // implicit
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(&all[0], &name.at(0));  // borrowed, not copied
  EXPECT_TRUE(all.is_absolute());
  EXPECT_EQ(all.to_path(), "/usr/lib/libc.so");

  const NameSlice tail = all.rest();
  EXPECT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.to_path(), "usr/lib/libc.so");
  EXPECT_EQ(tail.joined(), "usr/lib/libc.so");

  EXPECT_EQ(all.subslice(2).to_path(), "lib/libc.so");
  EXPECT_EQ(all.subslice(1, 2).joined(), "usr/lib");
  EXPECT_TRUE(all.subslice(4).empty());
  EXPECT_EQ(all.subslice(4).to_path(), "");
}

TEST(NameSliceView, MaterializedSliceEqualsOwner) {
  const CompoundName name = CompoundName::relative("a/b/c");
  EXPECT_EQ(CompoundName(name.slice()), name);
  EXPECT_EQ(CompoundName(name.slice().rest()), name.rest());
  EXPECT_EQ(name.slice(), NameSlice(name));
  EXPECT_NE(name.slice().rest(), NameSlice(name));
  EXPECT_EQ(CompoundName(name.slice()).to_path(), name.to_path());
}

// --- Context: flat representation ------------------------------------------

TEST(FlatContext, VersionSemanticsUnchanged) {
  Context ctx;
  EXPECT_EQ(ctx.version(), 0u);
  ctx.bind(Name("v-a"), EntityId(1));
  EXPECT_EQ(ctx.version(), 1u);          // bind new: +1
  ctx.bind(Name("v-a"), EntityId(1));
  EXPECT_EQ(ctx.version(), 1u);          // rebind same entity: no-op
  ctx.bind(Name("v-a"), EntityId(2));
  EXPECT_EQ(ctx.version(), 2u);          // rebind different entity: +1
  EXPECT_FALSE(ctx.unbind(Name("v-missing")));
  EXPECT_EQ(ctx.version(), 2u);          // unbind absent: no-op
  EXPECT_TRUE(ctx.unbind(Name("v-a")));
  EXPECT_EQ(ctx.version(), 3u);          // unbind existing: +1
}

TEST(FlatContext, ExtensionalEqualityIgnoresBindOrder) {
  Context forward;
  forward.bind(Name("ext-a"), EntityId(1));
  forward.bind(Name("ext-b"), EntityId(2));
  forward.bind(Name("ext-c"), EntityId(3));
  Context backward;
  backward.bind(Name("ext-c"), EntityId(3));
  backward.bind(Name("ext-a"), EntityId(7));  // detour...
  backward.bind(Name("ext-b"), EntityId(2));
  backward.bind(Name("ext-a"), EntityId(1));  // ...repaired
  EXPECT_EQ(forward, backward);  // same function, different history
  EXPECT_NE(forward.version(), backward.version());
  backward.bind(Name("ext-c"), EntityId(9));
  EXPECT_NE(forward, backward);
}

TEST(FlatContext, BindingsAreSortedByAtomAndLookupsAgree) {
  Context ctx;
  std::vector<Name> names;
  for (int i = 0; i < 40; ++i) {
    names.emplace_back("flat-" + std::to_string((i * 23) % 40));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    ctx.bind(names[i], EntityId(100 + i));
  }
  auto view = ctx.bindings();
  ASSERT_EQ(view.size(), 40u);
  for (std::size_t i = 1; i < view.size(); ++i) {
    EXPECT_LT(view[i - 1].name.id(), view[i].name.id());
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(ctx(names[i]), EntityId(100 + i));
  }
  EXPECT_EQ(ctx(Name("flat-unbound")), EntityId::invalid());
}

TEST(FlatContext, RenderingIsTextOrdered) {
  // Intern "zz" before "aa" so atom order disagrees with text order.
  Context ctx;
  ctx.bind(Name("zz-render"), EntityId(5));
  ctx.bind(Name("aa-render"), EntityId(6));
  EXPECT_EQ(ctx.to_string(), "{aa-render -> #6, zz-render -> #5}");
}

// --- Slice vs owned resolution over generated trees ------------------------

TEST(SliceResolution, SliceAndOwnedAgreeOnGeneratedTree) {
  NamingGraph graph;
  FileSystem fs(graph);
  EntityId root = fs.make_root("site");
  TreeSpec spec;
  spec.depth = 4;
  spec.dirs_per_dir = 2;
  spec.files_per_dir = 3;
  populate_tree(fs, root, spec, /*seed=*/1234);

  std::vector<CompoundName> paths;
  fs.walk(root, [&](const CompoundName& path, EntityId) {
    paths.push_back(path);
  });
  ASSERT_GT(paths.size(), 20u);

  for (const CompoundName& name : paths) {
    const Resolution owned = resolve_from(graph, root, name);
    const Resolution sliced = resolve_from(graph, root, name.slice());
    ASSERT_TRUE(owned.ok()) << name.to_path();
    EXPECT_TRUE(owned.same_entity(sliced)) << name.to_path();
    EXPECT_EQ(owned.trail, sliced.trail);
    EXPECT_EQ(owned.steps, sliced.steps);

    // Suffix agreement: peeling k components off the front and resolving
    // the borrowed tail from the walked-to context matches the owned
    // CompoundName::rest() chain.
    if (name.size() < 2) continue;
    const Resolution head = resolve_from(
        graph, root, name.slice().subslice(0, 1));
    ASSERT_TRUE(head.ok());
    if (!graph.is_context_object(head.entity)) continue;
    const Resolution via_rest =
        resolve_from(graph, head.entity, name.rest());
    const Resolution via_slice =
        resolve_from(graph, head.entity, name.slice().rest());
    EXPECT_TRUE(via_rest.same_entity(via_slice)) << name.to_path();
    EXPECT_TRUE(owned.same_entity(via_slice)) << name.to_path();
  }
}

// --- referral_suffix -------------------------------------------------------

TEST(ReferralSuffix, MatchesTrueSuffixes) {
  const CompoundName sent = CompoundName::relative("a/b/c");
  auto tail = referral_suffix(sent, "b/c");
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(*tail, sent.slice().subslice(1));
  EXPECT_EQ(tail->joined(), "b/c");

  auto full = referral_suffix(sent, "a/b/c");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, sent.slice());

  auto empty = referral_suffix(sent, "");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(ReferralSuffix, MatchesAcrossElidedCwdPrefix) {
  // The client renders ⟨".","a","b"⟩ as "a/b" on the wire; the server's
  // parsed view has no ".". A full-path referral must still land on the
  // suffix past the elided prefix.
  const CompoundName sent = CompoundName::path("a/b");
  ASSERT_EQ(sent.size(), 3u);  // ⟨".", "a", "b"⟩
  auto tail = referral_suffix(sent, "a/b");
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(*tail, sent.slice().subslice(1));
}

TEST(ReferralSuffix, RejectsNonSuffixes) {
  const CompoundName sent = CompoundName::relative("a/b/c");
  EXPECT_FALSE(referral_suffix(sent, "x/c").has_value());
  EXPECT_FALSE(referral_suffix(sent, "a/b").has_value());   // prefix, not suffix
  EXPECT_FALSE(referral_suffix(sent, "c/c").has_value());
  EXPECT_FALSE(referral_suffix(sent, "a/b/c/d").has_value());  // too long
  EXPECT_FALSE(referral_suffix(sent, "b//c").has_value());  // empty piece
}

}  // namespace
}  // namespace namecoh
