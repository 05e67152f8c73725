#include "common/flags.hpp"

#include <gtest/gtest.h>

namespace quartz {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  const Flags f = parse({"--fabric=quartz", "--tasks=8"});
  EXPECT_EQ(f.get("fabric"), "quartz");
  EXPECT_EQ(f.get_int("tasks", 0), 8);
}

TEST(Flags, SpaceForm) {
  const Flags f = parse({"--fabric", "jellyfish", "--rate", "2.5"});
  EXPECT_EQ(f.get("fabric"), "jellyfish");
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 2.5);
}

TEST(Flags, BareSwitchIsTrue) {
  const Flags f = parse({"--csv", "--fabric=tree"});
  EXPECT_TRUE(f.get_bool("csv"));
  EXPECT_FALSE(f.get_bool("missing"));
  EXPECT_TRUE(f.get_bool("missing", true));
}

TEST(Flags, ExplicitFalse) {
  const Flags f = parse({"--csv=false", "--quiet=0"});
  EXPECT_FALSE(f.get_bool("csv", true));
  EXPECT_FALSE(f.get_bool("quiet", true));
}

TEST(Flags, FallbacksWhenAbsent) {
  const Flags f = parse({});
  EXPECT_EQ(f.get("name", "default"), "default");
  EXPECT_EQ(f.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("x", 1.5), 1.5);
}

TEST(Flags, PositionalArgumentsPreserved) {
  // Note: the space form (--key value) consumes the next non-flag
  // token, so bare switches before positionals need --key=true.
  const Flags f = parse({"input.txt", "--verbose=true", "output.txt"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "output.txt");
}

TEST(Flags, RejectsJunkNumbers) {
  const Flags f = parse({"--tasks=eight", "--rate=fast", "--n=99999999999999999999",
                         "--m=-99999999999999999999", "--d=1e999", "--tiny=1e-999",
                         "--inf=inf", "--nan=nan"});
  EXPECT_THROW(f.get_int("tasks", 0), std::invalid_argument);
  EXPECT_THROW(f.get_double("rate", 0.0), std::invalid_argument);
  // Out-of-range and non-finite values must not saturate silently.
  EXPECT_THROW(f.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(f.get_int("m", 0), std::invalid_argument);
  EXPECT_THROW(f.get_double("d", 0.0), std::invalid_argument);
  EXPECT_THROW(f.get_double("tiny", 0.0), std::invalid_argument);
  EXPECT_THROW(f.get_double("inf", 0.0), std::invalid_argument);
  EXPECT_THROW(f.get_double("nan", 0.0), std::invalid_argument);
}

TEST(Flags, KeysEnumerated) {
  const Flags f = parse({"--a=1", "--b", "--c=x"});
  const auto keys = f.keys();
  EXPECT_EQ(keys.size(), 3u);
}

TEST(Flags, LastValueWinsOnRepeat) {
  const Flags f = parse({"--n=1", "--n=2"});
  EXPECT_EQ(f.get_int("n", 0), 2);
}

TEST(Flags, UnknownKeysFlagsTypos) {
  const Flags f = parse({"--tasks=4", "--trase", "--out=x.csv"});
  const auto unknown = f.unknown_keys({"tasks", "trace", "out"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown.front(), "trase");
}

TEST(Flags, UnknownKeysEmptyWhenAllKnown) {
  const Flags f = parse({"--a=1", "--b"});
  EXPECT_TRUE(f.unknown_keys({"a", "b", "c"}).empty());
  EXPECT_TRUE(Flags::parse(0, nullptr).unknown_keys({}).empty());
}

}  // namespace
}  // namespace quartz
