/**
 * @file
 * Simple typed key-value configuration for experiments.
 *
 * Benchmarks and examples build a Config, optionally override entries
 * from command-line "key=value" arguments, and pass it down to system
 * builders. Unknown keys, arguments that are not key=value and values
 * that do not parse whole as the requested type are fatal user errors,
 * so typos cannot silently run the wrong experiment.
 */

#ifndef F4T_SIM_CONFIG_HH
#define F4T_SIM_CONFIG_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "sim/logging.hh"

namespace f4t::sim
{

class Config
{
  public:
    Config() = default;

    /** Declare a key with its default value. */
    void
    declare(const std::string &key, const std::string &default_value,
            const std::string &description = "")
    {
        entries_[key] = Entry{default_value, description};
    }

    /** Override a declared key. Fatal if the key was never declared. */
    void
    set(const std::string &key, const std::string &value)
    {
        auto it = entries_.find(key);
        if (it == entries_.end())
            f4t_fatal("unknown config key '%s'", key.c_str());
        it->second.value = value;
    }

    /** Parse argv entries of the form key=value; anything else is fatal. */
    void
    parseArgs(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto eq = arg.find('=');
            if (eq == std::string::npos)
                f4t_fatal("config argument '%s' is not key=value",
                          arg.c_str());
            set(arg.substr(0, eq), arg.substr(eq + 1));
        }
    }

    bool has(const std::string &key) const { return entries_.count(key); }

    std::string
    getString(const std::string &key) const
    {
        auto it = entries_.find(key);
        if (it == entries_.end())
            f4t_fatal("config key '%s' not declared", key.c_str());
        return it->second.value;
    }

    std::int64_t
    getInt(const std::string &key) const
    {
        return getNumber<std::int64_t>(key, "an integer");
    }

    /** Unsigned: a sign is rejected, so "-1" cannot wrap to 2^64 - 1. */
    std::uint64_t
    getUint(const std::string &key) const
    {
        return getNumber<std::uint64_t>(key, "an unsigned integer");
    }

    double
    getDouble(const std::string &key) const
    {
        double value = getNumber<double>(key, "a finite number");
        if (!std::isfinite(value))
            badValue(key, "a finite number");
        return value;
    }

  private:
    /** The whole value as a T: no whitespace, leading '+', trailing
     *  junk, overflow or empty value (std::from_chars rules). */
    template <typename T>
    T
    getNumber(const std::string &key, const char *what) const
    {
        std::string text = getString(key);
        T value{};
        const char *end = text.data() + text.size();
        auto [ptr, ec] = std::from_chars(text.data(), end, value);
        if (ec != std::errc() || ptr != end)
            badValue(key, what);
        return value;
    }

    [[noreturn]] void
    badValue(const std::string &key, const char *what) const
    {
        f4t_fatal("config key '%s': '%s' is not %s", key.c_str(),
                  getString(key).c_str(), what);
    }

    struct Entry
    {
        std::string value;
        std::string description;
    };

    std::map<std::string, Entry> entries_;
};

} // namespace f4t::sim

#endif // F4T_SIM_CONFIG_HH
