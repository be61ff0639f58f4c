#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

namespace rat::util {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesKeyValueAndFlags) {
  const Cli cli = make({"--clock=150", "--verbose", "positional"});
  EXPECT_EQ(cli.program(), "prog");
  EXPECT_TRUE(cli.has("clock"));
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("missing"));
  EXPECT_EQ(cli.get("clock").value(), "150");
  // A bare flag has no value: reading one is an error, not "true".
  try {
    (void)cli.get("verbose");
    ADD_FAILURE() << "a bare --verbose read as a value";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "Cli: --verbose needs a value");
  }
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, TypedAccessors) {
  const Cli cli = make({"--f=1.5", "--n=42", "--flag=false"});
  EXPECT_DOUBLE_EQ(cli.get_double("f", 0.0), 1.5);
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_FALSE(cli.get_bool("flag", true));
  // Fallbacks when absent.
  EXPECT_DOUBLE_EQ(cli.get_double("absent", 2.5), 2.5);
  EXPECT_EQ(cli.get_int("absent", 7), 7);
  EXPECT_TRUE(cli.get_bool("absent", true));
}

TEST(Cli, TypedAccessorErrors) {
  const Cli cli = make({"--f=abc", "--n=1.5", "--b=maybe", "--bare"});
  EXPECT_THROW(cli.get_double("f", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_bool("b", false), std::invalid_argument);
  // Every getter that needs a value rejects a bare flag the same way.
  const std::function<void()> reads[] = {
      [&] { (void)cli.get_or("bare", "reports"); },
      [&] { (void)cli.get_double("bare", 0.0); },
      [&] { (void)cli.get_int("bare", 0); },
      [&] { (void)cli.get_size_t("bare", 0); },
  };
  for (const auto& read : reads) {
    try {
      read();
      ADD_FAILURE() << "a bare --bare read as a value";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "Cli: --bare needs a value");
    }
  }
}

TEST(Cli, BooleanSpellings) {
  const Cli cli = make({"--a=1", "--b=yes", "--c=0", "--d=no", "--e"});
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_TRUE(cli.get_bool("b", false));
  EXPECT_FALSE(cli.get_bool("c", true));
  EXPECT_FALSE(cli.get_bool("d", true));
  EXPECT_TRUE(cli.get_bool("e", false));  // a bare flag is a switch
}

TEST(Cli, KeysListsAllFlags) {
  const Cli cli = make({"--one=1", "--two"});
  const auto keys = cli.keys();
  EXPECT_EQ(keys.size(), 2u);
}

TEST(Cli, EmptyArgv) {
  const Cli cli(0, nullptr);
  EXPECT_TRUE(cli.positional().empty());
  EXPECT_TRUE(cli.keys().empty());
}

TEST(Cli, GetIntRejectsOverflowAndUnderflow) {
  // Regression: strtoll saturates on overflow and sets ERANGE; an
  // unchecked errno made --over parse as LLONG_MAX silently.
  const Cli cli = make({"--over=99999999999999999999",
                        "--under=-99999999999999999999",
                        "--max=9223372036854775807",
                        "--min=-9223372036854775808"});
  EXPECT_THROW(cli.get_int("over", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("under", 0), std::invalid_argument);
  // The exact boundary values still round-trip.
  EXPECT_EQ(cli.get_int("max", 0), std::numeric_limits<long long>::max());
  EXPECT_EQ(cli.get_int("min", 0), std::numeric_limits<long long>::min());
}

TEST(Cli, GetSizeT) {
  const Cli cli = make({"--threads=8", "--big=18446744073709551615"});
  EXPECT_EQ(cli.get_size_t("threads", 1), 8u);
  EXPECT_EQ(cli.get_size_t("absent", 4), 4u);
  EXPECT_EQ(cli.get_size_t("big", 0),
            std::numeric_limits<std::size_t>::max());
}

TEST(Cli, GetSizeTRangeValidation) {
  const Cli cli = make({"--threads=300"});
  EXPECT_EQ(cli.get_size_t("threads", 1, 1, 512), 300u);
  EXPECT_THROW(cli.get_size_t("threads", 1, 1, 256), std::invalid_argument);
  EXPECT_THROW(cli.get_size_t("threads", 1, 301, 512), std::invalid_argument);
  // The fallback is returned as-is even outside [min, max].
  EXPECT_EQ(cli.get_size_t("absent", 0, 1, 256), 0u);
}

TEST(Cli, GetSizeTRejectsNonIntegers) {
  const Cli cli = make({"--a=-3", "--b=1.5", "--c=abc", "--d=", "--e=+2",
                        "--f=99999999999999999999999999"});
  for (const char* key : {"a", "b", "c", "d", "e", "f"})
    EXPECT_THROW(cli.get_size_t(key, 0), std::invalid_argument) << key;
}

TEST(Cli, GetDoubleRejectsNonFiniteAndOverflowingValues) {
  // strtod took all of these, and a nan then passed every range check.
  const Cli cli = make({"--a=nan", "--b=inf", "--c=-inf", "--d=1e400",
                        "--e=NaN", "--f=infinity", "--g=1.5x", "--h=",
                        "--i=++1", "--j= 1"});
  for (const char* key : {"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}) {
    try {
      cli.get_double(key, 0.0);
      ADD_FAILURE() << "accepted --" << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + key),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, GetDoubleTakesTheWorksheetTokenRule) {
  // One leading '+' is allowed, as in a worksheet value.
  const Cli cli = make({"--a=+2.5", "--b=-3", "--c=1e300", "--d=0x10"});
  EXPECT_EQ(cli.get_double("a", 0.0), 2.5);
  EXPECT_EQ(cli.get_double("b", 0.0), -3.0);
  EXPECT_EQ(cli.get_double("c", 0.0), 1e300);
  EXPECT_THROW(cli.get_double("d", 0.0), std::invalid_argument);
}

TEST(Cli, RequireKnownNamesTheFirstUnknownFlag) {
  const Cli cli = make({"--port=1", "--bogus", "--zeta=2"});
  EXPECT_NO_THROW(cli.require_known({"port", "bogus", "zeta"}));
  try {
    cli.require_known({"port", "zeta"});
    FAIL() << "accepted --bogus";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag --bogus");
  }
}

}  // namespace
}  // namespace rat::util
