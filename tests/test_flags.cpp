// Tests for the command-line flag parser (src/util/flags.hpp) and the
// strict environment-variable parsing (src/util/env.hpp).
#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "util/env.hpp"

namespace {

using firefly::util::Flags;

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, SpaceSeparatedValues) {
  const Flags f = parse({"--n", "200", "--seed", "7"});
  EXPECT_EQ(f.get("n", std::int64_t{0}), 200);
  EXPECT_EQ(f.get("seed", std::int64_t{0}), 7);
}

TEST(Flags, EqualsSeparatedValues) {
  const Flags f = parse({"--protocol=st", "--speed=2.5"});
  EXPECT_EQ(f.get("protocol", std::string("fst")), "st");
  EXPECT_DOUBLE_EQ(f.get("speed", 0.0), 2.5);
}

TEST(Flags, BareBooleans) {
  const Flags f = parse({"--verbose", "--csv"});
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_TRUE(f.has("csv"));
  EXPECT_FALSE(f.has("quiet"));
}

TEST(Flags, BooleanBeforeAnotherFlagStaysBoolean) {
  const Flags f = parse({"--verbose", "--n", "5"});
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_EQ(f.get("verbose", std::string("unset")), "unset");
  EXPECT_EQ(f.get("n", std::int64_t{0}), 5);
}

TEST(Flags, FallbacksWhenMissing) {
  const Flags f = parse({});
  EXPECT_EQ(f.get("n", std::int64_t{42}), 42);
  EXPECT_DOUBLE_EQ(f.get("x", 1.5), 1.5);
  EXPECT_EQ(f.get("s", std::string("def")), "def");
}

TEST(Flags, PositionalArguments) {
  // Non-flag tokens are skipped and leave the flags around them intact.
  const Flags f = parse({"run", "--n", "5", "extra"});
  EXPECT_EQ(f.get("n", std::int64_t{0}), 5);
  EXPECT_EQ(f.names(), std::vector<std::string>{"n"});
}

TEST(Flags, NamesEnumeratesParsedFlags) {
  const Flags f = parse({"--alpha", "1", "--beta=2"});
  const auto names = f.names();
  EXPECT_EQ(names.size(), 2U);
  EXPECT_EQ(names[0], "alpha");  // std::map: sorted
  EXPECT_EQ(names[1], "beta");
}

TEST(Flags, ProgramName) {
  const Flags f = parse({});
  EXPECT_EQ(f.program(), "prog");
}

TEST(ParseSize, AcceptsPlainPositiveIntegers) {
  using firefly::util::parse_size;
  EXPECT_EQ(parse_size("1"), 1U);
  EXPECT_EQ(parse_size("1000"), 1000U);
  EXPECT_EQ(parse_size("18446744073709551615"), 18446744073709551615ULL);
}

TEST(ParseSize, RejectsMalformedInput) {
  using firefly::util::parse_size;
  EXPECT_EQ(parse_size(""), std::nullopt);
  EXPECT_EQ(parse_size("0"), std::nullopt);        // zero trials/max-N is a typo
  EXPECT_EQ(parse_size("abc"), std::nullopt);
  EXPECT_EQ(parse_size("100x"), std::nullopt);     // trailing garbage
  EXPECT_EQ(parse_size("1 "), std::nullopt);
  EXPECT_EQ(parse_size(" 1"), std::nullopt);
  EXPECT_EQ(parse_size("-5"), std::nullopt);
  EXPECT_EQ(parse_size("1.5"), std::nullopt);
  EXPECT_EQ(parse_size("18446744073709551616"), std::nullopt);  // overflow
}

TEST(EnvSize, UnsetUsesFallbackWithoutWarning) {
  firefly::util::reset_env_warnings();
  unsetenv("FIREFLY_TEST_ENV_SIZE");
  EXPECT_EQ(firefly::util::env_size_t("FIREFLY_TEST_ENV_SIZE", 7), 7U);
}

TEST(EnvSize, ValidValueParses) {
  firefly::util::reset_env_warnings();
  setenv("FIREFLY_TEST_ENV_SIZE", "42", 1);
  EXPECT_EQ(firefly::util::env_size_t("FIREFLY_TEST_ENV_SIZE", 7), 42U);
  unsetenv("FIREFLY_TEST_ENV_SIZE");
}

TEST(EnvSize, MalformedValueFallsBack) {
  firefly::util::reset_env_warnings();
  setenv("FIREFLY_TEST_ENV_SIZE", "100x", 1);
  EXPECT_EQ(firefly::util::env_size_t("FIREFLY_TEST_ENV_SIZE", 7), 7U);
  setenv("FIREFLY_TEST_ENV_SIZE", "0", 1);
  EXPECT_EQ(firefly::util::env_size_t("FIREFLY_TEST_ENV_SIZE", 7), 7U);
  unsetenv("FIREFLY_TEST_ENV_SIZE");
}

}  // namespace
