/**
 * @file
 * Linked into every test binary: each test runs with $F4T_DUMP_DIR
 * pointed at a fresh directory of its own. An f4t_assert that fires in
 * a death-test child dumps its flight recorder there, and the
 * directory is removed when the test passes, so expected crashes leave
 * nothing in the ctest directory or in CI's dump directory.
 *
 * The directory is made inside the previous $F4T_DUMP_DIR (default
 * "."), and a failed test keeps it: a real crash or a fuzz divergence
 * leaves its dumps one level below where they used to land, which is
 * where CI's recursive search and artifact upload still find them.
 * Tests that set $F4T_DUMP_DIR themselves (FlightRecorderDeathTest)
 * are unaffected; the previous value is restored after every test.
 */

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include <gtest/gtest.h>

namespace
{

class DumpDirListener : public testing::EmptyTestEventListener
{
  public:
    void
    OnTestStart(const testing::TestInfo &) override
    {
        const char *outer = std::getenv("F4T_DUMP_DIR");
        outer_ = outer ? std::optional<std::string>(outer) : std::nullopt;
        std::string dir = (outer && outer[0] ? outer : ".");
        dir += "/f4t-test-dumps-XXXXXX";
        if (::mkdtemp(dir.data()) == nullptr)
            return;
        dir_ = dir;
        ::setenv("F4T_DUMP_DIR", dir_.c_str(), 1);
    }

    void
    OnTestEnd(const testing::TestInfo &info) override
    {
        if (dir_.empty())
            return;
        if (outer_)
            ::setenv("F4T_DUMP_DIR", outer_->c_str(), 1);
        else
            ::unsetenv("F4T_DUMP_DIR");
        if (!info.result()->Failed()) {
            std::error_code ignored;
            std::filesystem::remove_all(dir_, ignored);
        }
        dir_.clear();
    }

  private:
    std::optional<std::string> outer_;
    std::string dir_;
};

[[maybe_unused]] const bool installed = [] {
    testing::UnitTest::GetInstance()->listeners().Append(
        new DumpDirListener);
    return true;
}();

} // namespace
